"""Command-line subcommands, exercised through main()."""

import json

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


def test_simulate_structured_lines_are_strict_json(tmp_path):
    """One replication leaves every SD and RE undefined; the records write
    them as null, so a strict JSON parser reads every line."""
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    out = tmp_path / "mc.jsonl"
    code = main([
        "simulate", "--config", str(cfg), "--reps", "1", "--format", "structured",
        "--out", str(out),
    ])
    assert code == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    records = [json.loads(line, parse_constant=reject) for line in out.read_text().splitlines()]
    assert [r["method"] for r in records] == ["qif", "gmmai2"]
    for record in records:
        assert record["replications"] == 1
        assert record["sd"] == [None, None]
        assert record["re"] == [None, None]


def test_simulate_rejects_jobs_below_one(tmp_path, capsys):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    code = main(["simulate", "--config", str(cfg), "--jobs", "-1"])
    assert code == 1
    assert "error: n_jobs must be at least 1" in capsys.readouterr().err


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    code = main(["simulate", "--config", str(cfg), "--seed", "-1"])
    assert code == 1
    assert "error: seed must be non-negative" in capsys.readouterr().err


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


def test_csv_reader_error_exits_nonzero(tmp_path, capsys):
    # a bare carriage return inside an unquoted field on line 2
    data = tmp_path / "cr.csv"
    data.write_bytes(b"id,time,y,x1,x2\na,1,1,1\r2,1\n")
    code = main(["fit", "--data", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: new-line character")
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


@pytest.mark.parametrize("pair", ["0=0.5", "3=0.5"])
def test_test_constrain_index_out_of_range(data_file, pair, capsys):
    code = main([
        "test", "--data", str(data_file), "--working", "cs", "--constrain", pair,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --constrain index {pair[0]} must lie in 1..2" in err


def test_qq_constrain_index_out_of_range(tmp_path, capsys):
    cfg = tmp_path / "design.cfg"
    cfg.write_text(DESIGN)
    code = main(["qq", "--config", str(cfg), "--constrain", "3=0.5", "--reps", "2"])
    assert code == 1
    assert "error: --constrain index 3 must lie in 1..2" in capsys.readouterr().err


def test_standardize_unknown_column_exits_nonzero(data_file, capsys):
    code = main([
        "fit", "--data", str(data_file), "--standardize", "x1,x9",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown column(s) x9; covariates are x1, x2" in err


def test_standardize_repeated_column_exits_nonzero(data_file, capsys):
    code = main(["fit", "--data", str(data_file), "--standardize", "x1,x1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: --standardize: column x1 is listed more than once" in err


def test_bad_phi_entry_names_file_and_line(data_file, tmp_path, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("col[1,2] == 1\ncol[1,2] == 0\n")
    phi = tmp_path / "phi.txt"
    phi.write_text("# targets\n-0.5,x,-0.5\n0,0,0\n")
    code = main([
        "fit", "--data", str(data_file), "--aux", str(groups), "--phi", str(phi),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --phi {phi}: line 2: could not convert string to float: 'x'" in err


@pytest.mark.parametrize("entry", ["nan", "inf", "-Infinity"])
def test_non_finite_phi_entry_names_file_and_line(data_file, tmp_path, capsys, entry):
    groups = tmp_path / "groups.txt"
    groups.write_text("col[1,2] == 1\ncol[1,2] == 0\n")
    phi = tmp_path / "phi.txt"
    phi.write_text(f"-0.5,-0.5,-0.5\n{entry},0,0\n")
    code = main([
        "fit", "--data", str(data_file), "--aux", str(groups), "--phi", str(phi),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --phi {phi}: line 2: phi vector '{entry},0,0' has a non-finite entry" in err


def test_bad_predicate_names_file_and_line(data_file, tmp_path, capsys):
    groups = tmp_path / "groups.txt"
    groups.write_text("col[1,2] == 1\n\ncol[1,2] > 0\n")
    code = main([
        "fit", "--data", str(data_file), "--aux", str(groups), "--phi", "holdout",
        "--analysis-size", "120",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: --aux {groups}: line 3: cannot parse predicate 'col[1,2] > 0'" in err


@pytest.mark.parametrize(
    "pair, message",
    [
        ("a=0.5", "--constrain a=0.5: index 'a' is not an integer"),
        ("1=abc", "--constrain 1=abc: value 'abc' is not a number"),
    ],
    ids=["index", "value"],
)
def test_bad_constraint_token_names_flag(data_file, pair, message, capsys):
    code = main([
        "test", "--data", str(data_file), "--working", "cs", "--constrain", pair,
    ])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
