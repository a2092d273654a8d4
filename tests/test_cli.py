"""Command-line subcommands, exercised through main()."""

import numpy as np
import pytest

from qifaux import (
    ColumnSchema,
    SimulationDesign,
    generate_dataset,
    parse_structured_report,
    replication_rng,
    write_dataset,
)
from qifaux.cli import main

SCHEMA = ColumnSchema("id", "time", "y", ("x1", "x2"))

FOUR_GROUPS = """col[1,1] >= 0 & col[1,2] == 1
col[1,1] < 0 & col[1,2] == 1
col[1,1] >= 0 & col[1,2] == 0
col[1,1] < 0 & col[1,2] == 0
"""

DESIGN = """n = 80
rho_x = 0.5
rho_y = 0.5
structure_x = cs
structure_y = cs
working = cs
aux_mode = two_group
seed = 3
reps = 12
"""


@pytest.fixture
def data_file(tmp_path):
    design = SimulationDesign(n=200, seed=41, replications=1)
    ds = generate_dataset(design, replication_rng(41, 0, 0))
    path = tmp_path / "panel.csv"
    write_dataset(ds, path, SCHEMA)
    return path


def test_fit_structured_output(data_file, tmp_path, capsys):
    out = tmp_path / "fit.jsonl"
    code = main([
        "fit", "--data", str(data_file), "--working", "CS",
        "--format", "structured", "--out", str(out),
    ])
    assert code == 0
    results = parse_structured_report(out.read_text())
    assert "qif" in results
    assert results["qif"].converged
    assert np.abs(results["qif"].beta_hat - [0.5, -0.5]).max() < 0.2


def test_fit_with_phi_file(data_file, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text("col[1,2] == 1\ncol[1,2] == 0\n")
    phi = tmp_path / "phi.txt"
    phi.write_text("-0.5,-0.5,-0.5\n0,0,0\n")
    out = tmp_path / "fit.jsonl"
    code = main([
        "fit", "--data", str(data_file), "--working", "cs",
        "--aux", str(groups), "--phi", str(phi),
        "--format", "structured", "--out", str(out),
    ])
    assert code == 0
    results = parse_structured_report(out.read_text())
    assert "gmmai" in results


def test_fit_with_holdout_phi(data_file, tmp_path):
    groups = tmp_path / "groups.txt"
    groups.write_text(FOUR_GROUPS)
    out = tmp_path / "fit.jsonl"
    code = main([
        "fit", "--data", str(data_file), "--working", "cs",
        "--aux", str(groups), "--phi", "holdout",
        "--analysis-size", "120", "--seed", "5",
        "--format", "structured", "--out", str(out),
    ])
    assert code == 0
    assert "gmmai" in parse_structured_report(out.read_text())


def test_fit_standardize_columns(data_file, tmp_path):
    out = tmp_path / "fit.txt"
    code = main([
        "fit", "--data", str(data_file), "--working", "ind",
        "--standardize", "x1", "--out", str(out),
    ])
    assert code == 0
    assert "estimate" in out.read_text()


def test_fit_logit_link(tmp_path):
    rng = np.random.default_rng(46)
    x = rng.standard_normal((300, 3, 2))
    prob = 1.0 / (1.0 + np.exp(-(x @ np.array([0.8, -0.5]))))
    y = (rng.random((300, 3)) < prob).astype(float)
    from qifaux import LongitudinalDataset

    path = tmp_path / "binary.csv"
    write_dataset(LongitudinalDataset(y, x), path, SCHEMA)
    out = tmp_path / "fit.jsonl"
    code = main([
        "fit", "--data", str(path), "--link", "logit", "--working", "cs",
        "--format", "structured", "--out", str(out),
    ])
    assert code == 0
    result = parse_structured_report(out.read_text())["qif"]
    assert result.converged
    assert np.abs(result.beta_hat - [0.8, -0.5]).max() < 0.25


def test_test_subcommand(data_file, tmp_path):
    out = tmp_path / "test.txt"
    code = main([
        "test", "--data", str(data_file), "--working", "cs",
        "--constrain", "1=0.5", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert "statistic" in text and "p_value" in text


def test_simulate_subcommand(tmp_path):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    out = tmp_path / "mc.txt"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "qif" in text and "gmmai2" in text and "bias" in text


def test_qq_subcommand(tmp_path):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    out = tmp_path / "qq.csv"
    code = main([
        "qq", "--config", str(cfg), "--method", "qif",
        "--constrain", "1=0.5", "--reps", "10", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theoretical,sample"
    assert len(lines) == 11


def test_missing_file_exits_nonzero(capsys):
    code = main(["fit", "--data", "/nonexistent/panel.csv"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_short_csv_row_exits_nonzero(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("id,time,y,x1,x2\n1,1,0.5,1.0,0\n1,2,0.1,0.3\n")
    code = main(["fit", "--data", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: line 3: row has 4 fields" in err
    assert "Traceback" not in err


def test_predicate_outside_data_exits_nonzero(data_file, tmp_path, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("col[5,1] >= 0\ncol[5,1] < 0\n")
    code = main([
        "fit", "--data", str(data_file), "--working", "cs",
        "--aux", str(groups), "--phi", "holdout", "--analysis-size", "120",
    ])
    assert code == 1
    assert "error: predicate col[5,1] >= 0" in capsys.readouterr().err


def test_bad_working_structure_exits_nonzero(data_file, capsys):
    code = main(["fit", "--data", str(data_file), "--working", "toeplitz"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_phi_without_aux_exits_nonzero(data_file, tmp_path, capsys):
    phi = tmp_path / "phi.txt"
    phi.write_text("-0.5,-0.5,-0.5\n0,0,0\n")
    code = main([
        "fit", "--data", str(data_file), "--working", "cs", "--phi", str(phi),
    ])
    assert code == 1
    assert "requires --aux" in capsys.readouterr().err


def test_aux_without_phi_exits_nonzero(data_file, tmp_path, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text(FOUR_GROUPS)
    code = main([
        "fit", "--data", str(data_file), "--working", "cs", "--aux", str(groups),
    ])
    assert code == 1
    assert "requires --phi" in capsys.readouterr().err
