"""Smoke runs of the quick narrative demos through the public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_single_study_fit.py",
        "02_monte_carlo_study.py",
        "03_hypothesis_power.py",
        "04_profile_statistic_qq.py",
        "05_file_pipeline.py",
    ],
)
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert "qif" in capsys.readouterr().out
