"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def test_binary_panel_marginals_are_logistic():
    data, mean = wl.binary_panel(20000, np.random.default_rng(11))
    resid = data.responses - mean
    # Subjects are independent; their q components are not.
    per_subject = resid.mean(axis=1)
    se = per_subject.std(ddof=1) / np.sqrt(per_subject.size)
    assert abs(per_subject.mean()) < 4 * se
    col_se = resid.std(axis=0, ddof=1) / np.sqrt(resid.shape[0])
    assert (np.abs(resid.mean(axis=0)) < 4 * col_se).all()
    assert set(np.unique(data.responses)) == {0.0, 1.0}


def test_compare_flags_a_change_beyond_tolerance():
    ref = {"m": {"beta": [0.5, -0.5], "n": 3}}
    assert wl.compare({"m": {"beta": [0.5 + 1e-9, -0.5], "n": 3}}, ref, "x") == []
    assert wl.compare({"m": {"beta": [0.5 + 1e-4, -0.5], "n": 3}}, ref, "x")
    assert wl.compare({"m": {"beta": [0.5, -0.5], "n": 4}}, ref, "x")


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, inner = tracer.self_ms()
    assert inner >= 20 and 10 <= outer < inner


def test_benchmark_json_states_tails_and_tolerance():
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert set(whys) == set(wl.WORKLOADS)
    for name, workload in wl.WORKLOADS.items():
        assert f"tail=p{workload.tail_percentile}" in whys[name]
        assert f"rtol={wl.TOLERANCE:g}" in whys[name]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_smoke_runs_pass_the_gate_and_repeat(name, tmp_path):
    plain = run.run_workload(name, SEED, 0.1, False, tmp_path)
    traced = [run.run_workload(name, SEED, 0.1, True, tmp_path) for _ in range(2)]
    for r in [plain, *traced]:
        assert r["result"]["correct"], r["problems"]
        assert r["result"]["failed"] == 0
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(plain["result"]["metrics"]) == end_to_end
    assert set(traced[0]["result"]["metrics"]) == per_layer
    for metric in plain["result"]["metrics"].values():
        assert metric["value"] > 0
    # Same seed: identical estimates (and, for single fits, iteration counts),
    # traced or not, and identical per-layer counts.
    assert plain["estimates"] == traced[0]["estimates"] == traced[1]["estimates"]
    assert traced[0]["counts"] == traced[1]["counts"]
    assert (tmp_path / f"result-{name}-seed{SEED}-trace0.json").is_file()
    spans = (tmp_path / f"trace-{name}-seed{SEED}-trace1.jsonl").read_text().splitlines()
    assert "environment" in json.loads(spans[0]) and len(spans) > 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
