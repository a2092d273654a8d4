#!/usr/bin/env python3
"""qifaux benchmark: one workload, one closed loop with a single caller.

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. The
run sets its inputs up from the seed several times and reports the median
set-up time, warms up with one checked operation, then runs operations
back to back for ``--seconds``. Every operation is checked against the
invariants and against ``reference.json``; a QifauxError or a failed check
counts it as failed. Reported times are scaled to machine speed by
``clock.ScaledClock``; the raw wall-clock figures go to the result file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every other operation is traced, the layers are probed
afterwards, and the last line carries the per-layer metrics; the spans go
to a JSON-lines trace file. Every run also writes a result file with the
environment record under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
# Set-up is timed this many times, each over a batch of at least
# SETUP_BATCH_S; the median is reported.
SETUP_REPEATS = 3
SETUP_BATCH_S = 0.1
# Operations run in every run, the untimed warm-up included, whatever
# --seconds says; the traced run needs a traced and an untraced one.
MIN_OPS = 3


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import scipy

    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def timed_setup(workload, ids, work_dir, clock):
    """The last set-up's state and the median raw and scaled set-up times.

    Each sample repeats the set-up for at least SETUP_BATCH_S, so a set-up
    far shorter than a calibration is still timed over a stable interval.
    """

    def batch():
        count, t0 = 0, time.perf_counter()
        while count == 0 or time.perf_counter() - t0 < SETUP_BATCH_S:
            state = workload.setup(ids, work_dir)
            count += 1
        return state, count

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        (state, count), r, s = clock.time(batch)
        raw.append(r / count)
        scaled.append(s / count)
    return state, statistics.median(raw), statistics.median(scaled)


def end_to_end_metrics(workload, op_seconds, setup_s) -> dict:
    ms = np.asarray(op_seconds) * 1e3
    return {
        "study_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "study_ms_tail": (float(np.percentile(ms, workload.tail_percentile)), "ms"),
        "reps_per_s": (getattr(workload, "reps", 1) * len(ms) / float(np.sum(op_seconds)), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """One benchmark run; returns the result record (metrics and details)."""
    import workloads as wl
    from spans import NullTracer, Tracer

    import layers
    from clock import CALIBRATION_REF_S, ScaledClock

    warnings.simplefilter("ignore", wl.qa.WeightRankWarning)
    workload = wl.WORKLOADS[name]
    reference = json.loads((HERE / "reference.json").read_text())[name]
    ids = wl.pool_ids(seed, workload.universe, workload.pool_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir))
    tracer = Tracer()
    untraced = NullTracer()
    problems, estimates = [], []
    clock = ScaledClock(workload.calibration)
    durations = {True: [], False: []}
    raw_durations = {True: [], False: []}
    attempted = failed = 0
    try:
        state, raw_setup_s, setup_s = timed_setup(workload, ids, work_dir, clock)

        def attempt(k, timed):
            nonlocal attempted, failed
            traced = trace and k % 2 == 1
            tr = tracer if traced else untraced
            tr.op_id = k
            attempted += 1

            def step():
                with tr.span("op", input=state["ids"][k % len(ids)]):
                    return workload.op(state, k, tr)

            try:
                output, raw, scaled = clock.time(step)
                issues = workload.problems(output) + wl.compare(
                    workload.record(output),
                    reference[str(state["ids"][k % len(ids)])],
                    f"op {k}",
                )
                if traced:
                    issues += workload.after_traced_op(state, k, output, tr)
            except wl.qa.QifauxError as err:
                issues = [f"op {k}: {type(err).__name__}: {err}"]
            if issues:
                failed += 1
                problems.extend(issues)
                return
            if k < MIN_OPS:
                estimates.append(workload.estimates(output))
            if timed:
                durations[traced].append(scaled)
                raw_durations[traced].append(raw)

        attempt(0, timed=False)
        k = 1
        loop_start = time.perf_counter()
        while time.perf_counter() - loop_start < seconds or k < MIN_OPS:
            attempt(k, timed=True)
            k += 1
        counts = {}
        if trace:
            counts, probe_problems = layers.probe_layers(workload, state, tracer, work_dir)
            problems.extend(probe_problems)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced_s = durations[False]
    if not untraced_s:
        raise RuntimeError(f"{name}: no operation completed; first problems: {problems[:5]}")
    if trace:
        metrics = layers.per_layer_metrics(
            tracer, counts, [t * 1e3 for t in durations[True]], [t * 1e3 for t in untraced_s]
        )
    else:
        metrics = end_to_end_metrics(workload, untraced_s, setup_s)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": ids,
        "tail_percentile": workload.tail_percentile,
        "timed_samples": len(untraced_s),
        "traced_samples": len(durations[True]),
        "raw_wall_clock": {
            k: v for k, (v, _) in end_to_end_metrics(workload, raw_durations[False], raw_setup_s).items()
        },
        "calibration": {"kernel": workload.calibration, "ref_s": CALIBRATION_REF_S[workload.calibration]},
        "op_seconds": untraced_s,
        "raw_op_seconds": raw_durations[False],
        "problems": problems[:50],
        "environment": environment(),
    }
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps({"result": result, **details}, indent=1))
    if trace:
        tracer.write(out_dir / f"trace-{stem}.jsonl", {"result": result, **details})
    return {"result": result, "estimates": estimates, "counts": counts, **details}


def report(run: dict):
    """Human-readable lines, then the result object as the last line."""
    result = run["result"]
    env = run["environment"]
    print(
        f"workload {run['workload']} seed {run['seed']} seconds {run['seconds']} "
        f"trace {run['trace']} inputs {len(run['inputs'])} ids"
    )
    print(
        f"environment commit {env['git_commit']} python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} nproc {env['nproc']} blas_threads {env['blas_threads']} "
        f"cpu {env['cpu_model']!r}"
    )
    print(
        f"timed operations {run['timed_samples']} untraced, {run['traced_samples']} traced; "
        f"study_ms_tail is p{run['tail_percentile']}"
    )
    for key, metric in result["metrics"].items():
        print(f"  {key:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"attempted {result['attempted']} failed {result['failed']} "
        f"correct {str(result['correct']).lower()}"
    )
    for problem in run["problems"][:10]:
        print(f"  problem: {problem}")
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="mc_paper, study_csv, study_logit or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    report(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
