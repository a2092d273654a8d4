"""File ingestion, standardization, splitting and report round-trips."""

import csv
import dataclasses
import io as stdio
import json
import string
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qifaux import (
    AuxiliaryInfo,
    ColumnSchema,
    CorrelationStructure,
    EmptyDataset,
    FitOptions,
    FitResult,
    InvalidSize,
    LongitudinalDataset,
    MalformedRow,
    QifauxError,
    SimulationDesign,
    SubgroupPartition,
    UnbalancedSubject,
    ZeroVariance,
    emit_qq,
    emit_report,
    generate_dataset,
    load_dataset,
    parse_design_config,
    parse_structured_report,
    replication_rng,
    split_sample,
    standardize_columns,
    write_dataset,
)
from qifaux import io as qio
from qifaux.estimator import ExtendedScoreConfig, fit
from qifaux.basis import build_basis
from qifaux.model import MarginalModelSpec
from qifaux.simulation import AuxMode, MonteCarloSummary, PhiSource, run_monte_carlo
from reference_loader import load_dataset_by_rows

SCHEMA = ColumnSchema("id", "time", "y", ("x1", "x2"))

CLEAN = """id,time,y,x1,x2
a,1,0.1,1.0,0.0
a,2,0.2,1.5,0.0
a,3,0.3,2.0,0.0
b,1,-0.1,0.5,1.0
b,2,-0.2,0.0,1.0
b,3,-0.3,-0.5,1.0
"""

_ID_TOKENS = st.text('ab ,"\n', max_size=3)
_TIME_TOKENS = ["0", "-1", "x", "", " 2 ", "1.0", "+3", "4", "9", "2000000000000", str(2**64), str(-(2**70))]
_CELL_TOKENS = ["", "na", "NaN", " NULL ", ".", "inf", "-inf", "oops", " 1.5 ", "1e400", "-0.0", "1_0"]


@st.composite
def malformed_files(draw):
    """A long-format file with a few broken rows, and a schema for it.

    Ids may hold commas, quotes and newlines (so rows span lines), and rows
    may be missing, repeated, shuffled, short, long or preceded by blank
    lines; times and cells come from pools of bad, huge, out-of-range and
    missing tokens, and q is pinned or inferred.
    """
    q = draw(st.integers(1, 3))
    p = draw(st.integers(1, 2))
    ids = draw(
        st.lists(_ID_TOKENS.filter(str.strip), min_size=1, max_size=4, unique_by=str.strip)
    )
    value = st.sampled_from(["0.5", "-1", "2.25", "1e-3"])
    rows = [
        [sid, str(t), *(draw(value) for _ in range(p + 1))]
        for sid in ids
        for t in range(1, q + 1)
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["drop", "repeat", "time", "cell", "id", "long", "short"]))
        if kind == "drop" and len(rows) > 1:
            rows.remove(row)
        elif kind == "repeat":
            rows.append(list(row))
        elif kind == "time":
            row[1] = draw(st.sampled_from(_TIME_TOKENS))
        elif kind == "cell":
            row[draw(st.integers(2, len(row) - 1))] = draw(st.sampled_from(_CELL_TOKENS))
        elif kind == "id":
            row[0] = draw(_ID_TOKENS)
        elif kind == "long":
            row.append("0")
        elif kind == "short" and len(row) == p + 3:
            row.pop()
    rows = draw(st.permutations(rows))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    buf = stdio.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(["id", "time", "y", *(f"x{j + 1}" for j in range(p))])
    for row in rows:
        buf.write(end * draw(st.integers(0, 1)))
        writer.writerow(row)
    schema = ColumnSchema(
        covariates=tuple(f"x{j + 1}" for j in range(p)),
        q=draw(st.none() | st.just(q) | st.integers(1, 4)),
    )
    return buf.getvalue(), schema


def _outcome(loader, text, schema):
    """Everything a load gives back, comparable with ==."""
    try:
        out = loader(stdio.StringIO(text), schema)
    except QifauxError as err:
        return type(err), str(err), getattr(err, "line_number", None)
    ds = out.dataset
    arrays = tuple((a.shape, a.tobytes()) for a in (ds.responses, ds.covariates))
    return arrays, ds.subject_ids, out.dropped


class TestLoadDataset:
    def test_clean_two_subjects(self):
        out = load_dataset(stdio.StringIO(CLEAN), SCHEMA)
        assert out.n_dropped == 0
        ds = out.dataset
        assert (ds.n, ds.q, ds.p) == (2, 3, 2)
        assert ds.subject_ids == ("a", "b")
        np.testing.assert_allclose(ds.responses[0], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(ds.covariates[1, :, 0], [0.5, 0.0, -0.5])

    def test_incomplete_subject_dropped_with_count(self):
        text = CLEAN + "c,1,9.0,1.0,1.0\nc,2,9.0,1.0,1.0\n"
        out = load_dataset(stdio.StringIO(text), SCHEMA)
        assert out.dataset.n == 2
        assert out.dropped == ("c",)

    def test_missing_cell_drops_subject(self):
        text = CLEAN.replace("a,2,0.2,1.5,0.0", "a,2,,1.5,0.0")
        out = load_dataset(stdio.StringIO(text), SCHEMA)
        assert out.dropped == ("a",)
        assert out.dataset.subject_ids == ("b",)

    @pytest.mark.parametrize("token", ["inf", "-inf", "NaN", "na", "null", "."])
    def test_non_finite_or_missing_token_drops_subject(self, token):
        text = CLEAN.replace("a,2,0.2,1.5,0.0", f"a,2,0.2,{token},0.0")
        out = load_dataset(stdio.StringIO(text), SCHEMA)
        assert out.dropped == ("a",)
        assert out.dataset.subject_ids == ("b",)

    def test_non_numeric_cell_is_malformed(self):
        text = CLEAN.replace("b,2,-0.2,0.0,1.0", "b,2,oops,0.0,1.0")
        with pytest.raises(MalformedRow) as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == 6

    def test_short_row_is_malformed(self):
        text = "id,time,y,x1,x2\n1,1,0.5,1.0,0\n1,2,0.1,0.3\n"
        with pytest.raises(MalformedRow, match="4 fields, header has 5") as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == 3

    def test_long_row_is_malformed(self):
        text = CLEAN.replace("b,2,-0.2,0.0,1.0", "b,2,-0.2,0.0,1.0,7.0")
        with pytest.raises(MalformedRow, match="6 fields, header has 5") as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == 6

    def test_line_number_counts_blank_lines(self):
        text = CLEAN.replace("b,1,", "\nb,1,").replace("b,2,-0.2,", "b,2,oops,")
        with pytest.raises(MalformedRow) as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == 7

    def test_duplicate_time_is_unbalanced(self):
        text = CLEAN.replace("a,2,0.2,1.5,0.0", "a,1,0.2,1.5,0.0")
        with pytest.raises(UnbalancedSubject):
            load_dataset(stdio.StringIO(text), SCHEMA)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            load_dataset(stdio.StringIO("id,time,y,x1,x2\n"), SCHEMA)

    def test_time_beyond_pinned_q(self):
        schema = ColumnSchema("id", "time", "y", ("x1", "x2"), q=2)
        with pytest.raises(MalformedRow):
            load_dataset(stdio.StringIO(CLEAN), schema)

    def test_missing_header_column(self):
        with pytest.raises(MalformedRow):
            load_dataset(stdio.StringIO("id,time,y,x1\n"), SCHEMA)

    @pytest.mark.parametrize(
        "edits, error, attributes",
        [
            (
                [("a,3,0.3,", "a,1,0.3,"), ("b,2,-0.2,", "b,2,oops,")],
                UnbalancedSubject,
                {"subject_id": "a", "line_number": 4},
            ),
            (
                [("a,2,0.2,", "a,2,oops,"), ("b,1,", "b,x,")],
                MalformedRow,
                {"line_number": 3},
            ),
        ],
        ids=["duplicate-line4-before-cell-line6", "cell-line3-before-time-line5"],
    )
    def test_earliest_error_line_wins(self, edits, error, attributes):
        text = CLEAN
        for old, new in edits:
            text = text.replace(old, new)
        with pytest.raises(error) as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        for attribute, value in attributes.items():
            assert getattr(err.value, attribute) == value

    def test_interleaved_rows_assemble_in_first_appearance_order(self):
        lines = CLEAN.splitlines()
        header, rows = lines[0], lines[1:]
        shuffled = [rows[4], rows[2], rows[3], rows[0], rows[5], rows[1]]
        text = "\n".join([header, *shuffled]) + "\n"
        out = load_dataset(stdio.StringIO(text), SCHEMA)
        ref = load_dataset(stdio.StringIO(CLEAN), SCHEMA).dataset
        assert out.dataset.subject_ids == ("b", "a")
        np.testing.assert_array_equal(out.dataset.responses, ref.responses[::-1])
        np.testing.assert_array_equal(out.dataset.covariates, ref.covariates[::-1])

    def test_missing_middle_time_drops_subject_with_inferred_q(self):
        text = CLEAN + "c,1,9.0,1.0,1.0\nc,3,9.0,1.0,1.0\n"
        out = load_dataset(stdio.StringIO(text), SCHEMA)
        assert out.dataset.q == 3
        assert out.dropped == ("c",)
        assert out.dataset.subject_ids == ("a", "b")

    @pytest.mark.parametrize(
        "stray",
        [3000, 2_000_000_000_000, 10**30],
        ids=["below-row-count", "beyond-memory", "beyond-int64"],
    )
    def test_stray_time_index_allocates_nothing(self, stray):
        # 1500 complete subjects and one row far beyond their q: the inferred
        # q leaves no subject complete, so nothing the size of q is built
        rows = [f"s{i},{t},0.5,1.0,0.0" for i in range(1500) for t in (1, 2, 3)]
        text = "\n".join(["id,time,y,x1,x2", *rows, f"stray,{stray},0.5,1.0,0.0"])
        tracemalloc.start()
        try:
            with pytest.raises(EmptyDataset, match="no subject has complete data"):
                load_dataset(stdio.StringIO(text), SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_repeated_huge_time_index_is_a_duplicate(self):
        huge = 10**30
        text = CLEAN + f"c,{huge},1,1,1\nc,{huge + 1},1,1,1\n\nc,{huge},1,1,1\n"
        with pytest.raises(UnbalancedSubject, match="^line 11: subject 'c'") as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == 11
        text = CLEAN + f"c,{-huge},1,1,1\n"
        with pytest.raises(MalformedRow, match=f"time index {-huge} must be >= 1"):
            load_dataset(stdio.StringIO(text), SCHEMA)

    def test_csv_error_ranks_after_the_rows_before_it(self):
        # a bare carriage return inside an unquoted field stops csv.reader
        broken = "c,1,1\rz,1,1\n"
        with pytest.raises(MalformedRow, match="^line 8: new-line character"):
            load_dataset(stdio.StringIO(CLEAN + broken), SCHEMA)
        text = CLEAN.replace("b,3,", "b,x,") + broken
        with pytest.raises(MalformedRow, match="^line 7: non-integer time index 'x'"):
            load_dataset(stdio.StringIO(text), SCHEMA)
        text = CLEAN.replace("b,3,", "b,1,") + broken
        with pytest.raises(UnbalancedSubject, match="^line 7: subject 'b'"):
            load_dataset(stdio.StringIO(text), SCHEMA)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("id,time,y,x1,x2\na,1,1,1\r2,1\n", 2),
            (CLEAN + "\n\nc,1,1\r,1,1\n", 10),
            ("id,ti\rme,y,x1,x2\n" + CLEAN[15:], 1),
        ],
        ids=["first-row", "after-blank-lines", "header"],
    )
    def test_bare_carriage_return_is_malformed(self, text, line):
        with pytest.raises(MalformedRow, match="new-line character") as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == line

    def test_oversized_field_is_malformed(self):
        limit = csv.field_size_limit()
        text = CLEAN + f'c,1,"{"9" * (limit + 1)}",1,1\n'
        with pytest.raises(MalformedRow, match="^line 8: field larger than field limit"):
            load_dataset(stdio.StringIO(text), SCHEMA)
        # a field at the limit is read, and parsed as a number
        out = load_dataset(stdio.StringIO(CLEAN + f"c,1,{'0' * limit},1,1\n"), SCHEMA)
        assert out.dropped == ("c",)

    @pytest.mark.parametrize(
        "first, second",
        [("duplicate", "cell"), ("cell", "duplicate")],
        ids=["duplicate-in-block1-before-cell-in-block2", "cell-in-block1-before-duplicate-in-block2"],
    )
    def test_error_straddling_a_block_boundary(self, first, second):
        n = qio.BLOCK_ROWS // 3 + 10
        rows = [[f"s{i}", str(t), "0.5", "1.0", "0.0"] for i in range(n) for t in (1, 2, 3)]
        last = qio.BLOCK_ROWS - 1  # the last row of the first block
        for k, kind in ((last, first), (last + 1, second)):
            if kind == "duplicate":
                rows[k][:2] = rows[0][:2]
            else:
                rows[k][3] = "oops"
        buf = stdio.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["id", "time", "y", "x1", "x2"], *rows])
        text = buf.getvalue()
        error = UnbalancedSubject if first == "duplicate" else MalformedRow
        with pytest.raises(error) as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        # the header is line 1 and there are no blank lines
        assert err.value.line_number == last + 2
        assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)

    @settings(max_examples=300, deadline=None)
    @given(case=malformed_files(), block=st.sampled_from([1, 2, 3, 7, qio.BLOCK_ROWS]))
    def test_matches_row_by_row_reference(self, case, block):
        text, schema = case
        with mock.patch.object(qio, "BLOCK_ROWS", block):
            got = _outcome(load_dataset, text, schema)
        assert got == _outcome(load_dataset_by_rows, text, schema)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_write_then_load_is_exact(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        q = data.draw(st.integers(1, 4), label="q")
        p = data.draw(st.integers(1, 3), label="p")
        finite = st.floats(allow_nan=False, allow_infinity=False)
        y = data.draw(hnp.arrays(float, (n, q), elements=finite), label="y")
        x = data.draw(hnp.arrays(float, (n, q, p), elements=finite), label="x")
        # ids pass through csv quoting; load_dataset strips surrounding blanks
        id_text = st.text(string.ascii_letters + string.digits + ',"._-', min_size=1, max_size=4)
        ids = data.draw(
            st.none() | st.lists(id_text, min_size=n, max_size=n, unique=True), label="ids"
        )
        ds = LongitudinalDataset(y, x, ids)
        schema = ColumnSchema(covariates=tuple(f"x{j + 1}" for j in range(p)))
        buf = stdio.StringIO()
        write_dataset(ds, buf, schema)
        out = load_dataset(stdio.StringIO(buf.getvalue()), schema)
        assert out.dropped == ()
        assert out.dataset.subject_ids == tuple(str(s) for s in ds.subject_ids)
        assert np.array_equal(out.dataset.responses, ds.responses)
        assert np.array_equal(out.dataset.covariates, ds.covariates)

    def test_write_then_load_round_trip(self):
        design = SimulationDesign(n=25, seed=30, replications=1)
        ds = generate_dataset(design, replication_rng(30, 0, 0))
        buf = stdio.StringIO()
        write_dataset(ds, buf, SCHEMA)
        out = load_dataset(stdio.StringIO(buf.getvalue()), SCHEMA)
        np.testing.assert_allclose(out.dataset.responses, ds.responses, atol=1e-12)
        np.testing.assert_allclose(out.dataset.covariates, ds.covariates, atol=1e-12)

    @pytest.mark.parametrize(
        "ids, bad, reason",
        [
            (("a", "", "b"), "''", "is empty"),
            (("a", " b", "c"), "' b'", "leading or trailing whitespace"),
            (("a", "b\t"), "'b\\\\t'", "leading or trailing whitespace"),
            ((1, "2", "1"), "'1'", "repeats another id"),
        ],
        ids=["empty", "leading-blank", "trailing-tab", "same-text"],
    )
    def test_write_rejects_id_that_would_not_load_back(self, ids, bad, reason):
        n = len(ids)
        ds = LongitudinalDataset(np.zeros((n, 2)), np.ones((n, 2, 2)), ids)
        buf = stdio.StringIO()
        with pytest.raises(ValueError, match=f"subject id {bad} .*{reason}"):
            write_dataset(ds, buf, SCHEMA)
        assert buf.getvalue() == ""


class TestStandardize:
    def test_constant_column_rejected(self):
        ds = LongitudinalDataset(np.zeros((4, 2)), np.full((4, 2, 1), 5.0))
        with pytest.raises(ZeroVariance):
            standardize_columns(ds, [0])

    def test_two_point_sample_sd_convention(self):
        x = np.zeros((2, 1, 1))
        x[0, 0, 0], x[1, 0, 0] = 1.0, 3.0
        ds = LongitudinalDataset(np.zeros((2, 1)), x)
        out, info = standardize_columns(ds, [0])
        np.testing.assert_allclose(
            out.covariates[:, 0, 0], [-0.7071067811865475, 0.7071067811865475]
        )
        assert info.column_means[0] == pytest.approx(2.0)
        assert info.column_sds[0] == pytest.approx(np.sqrt(2.0))

    def test_repeated_column_rejected(self):
        ds = generate_dataset(SimulationDesign(n=50, seed=1), replication_rng(1, 0, 0))
        with pytest.raises(ValueError, match="column 0 is listed more than once"):
            standardize_columns(ds, [0, 0])

    def test_postconditions_and_idempotence(self):
        rng = np.random.default_rng(31)
        ds = LongitudinalDataset(
            rng.standard_normal((40, 3)), 2.0 + 3.0 * rng.standard_normal((40, 3, 2))
        )
        once, _ = standardize_columns(ds, [0, 1], include_response=True)
        pooled = once.covariates[:, :, 0].ravel()
        assert abs(pooled.mean()) < 1e-12
        assert abs(pooled.std(ddof=1) - 1.0) < 1e-12
        assert abs(once.responses.ravel().mean()) < 1e-12
        twice, _ = standardize_columns(once, [0, 1], include_response=True)
        np.testing.assert_allclose(twice.covariates, once.covariates, atol=1e-12)
        np.testing.assert_allclose(twice.responses, once.responses, atol=1e-12)


class TestSplitSample:
    def test_partition_properties(self):
        design = SimulationDesign(n=10, seed=32, replications=1)
        ds = generate_dataset(design, replication_rng(32, 0, 0))
        analysis, holdout = split_sample(ds, 4, seed=2)
        assert (analysis.n, holdout.n) == (4, 6)
        ids = set(analysis.subject_ids) | set(holdout.subject_ids)
        assert ids == set(ds.subject_ids)
        assert not set(analysis.subject_ids) & set(holdout.subject_ids)

    def test_deterministic_per_seed(self):
        design = SimulationDesign(n=10, seed=33, replications=1)
        ds = generate_dataset(design, replication_rng(33, 0, 0))
        a1, _ = split_sample(ds, 4, seed=7)
        a2, _ = split_sample(ds, 4, seed=7)
        assert a1.subject_ids == a2.subject_ids

    def test_invalid_sizes(self):
        design = SimulationDesign(n=10, seed=34, replications=1)
        ds = generate_dataset(design, replication_rng(34, 0, 0))
        for bad in (0, 10, 11):
            with pytest.raises(InvalidSize):
                split_sample(ds, bad, seed=0)


class TestReports:
    def _fit_results(self):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((60, 3, 3))
        y = x @ np.array([0.5, -0.2, 0.1]) + rng.standard_normal((60, 3))
        ds = LongitudinalDataset(y, x)
        cfg = ExtendedScoreConfig(
            MarginalModelSpec.gaussian(),
            build_basis(CorrelationStructure.COMPOUND_SYMMETRY, 3),
            None,
        )
        return {"qif": fit(cfg, ds)}

    def test_table_has_one_row_per_coefficient(self):
        results = self._fit_results()
        text = emit_report(results, "table")
        lines = [ln for ln in text.splitlines() if ln.startswith("qif")]
        assert len(lines) == 3
        assert "estimate" in text and "se" in text and "p_value" in text

    def test_structured_round_trip_is_lossless(self):
        results = self._fit_results()
        # a time-constant covariate under the CS basis makes the weight rank
        # deficient, and a subgroup nobody falls into has its rows dropped
        design = SimulationDesign(n=80, seed=37, replications=1)
        ds = generate_dataset(design, replication_rng(37, 0, 0))
        part = SubgroupPartition(2, lambda xs: np.zeros(len(xs), dtype=int))
        cfg = ExtendedScoreConfig(
            MarginalModelSpec.gaussian(),
            build_basis(CorrelationStructure.COMPOUND_SYMMETRY, 3),
            AuxiliaryInfo(part, (np.zeros(3), np.zeros(3))),
        )
        results["dropped"] = fit(cfg, ds, options=FitOptions(allow_empty_subgroups=True))
        assert results["dropped"].dropped_groups == (1,)
        assert results["dropped"].weight_rank_deficient
        text = emit_report(results, "structured")
        back = parse_structured_report(text)
        assert set(back) == set(results)
        for name, orig in results.items():
            got = back[name]
            for field in dataclasses.fields(FitResult):
                want, have = getattr(orig, field.name), getattr(got, field.name)
                if isinstance(want, np.ndarray):
                    assert isinstance(have, np.ndarray) and have.shape == want.shape
                    np.testing.assert_array_equal(have, want)
                else:
                    assert type(have) is type(want) and have == want, field.name
            np.testing.assert_array_equal(got.se, orig.se)

    def test_monte_carlo_table(self):
        design = SimulationDesign(n=60, seed=36, replications=8)
        summ = run_monte_carlo(design, ["qif", "gmmai2"])
        text = emit_report(summ, "table")
        assert "bias" in text and "cp" in text and "re" in text
        structured = emit_report(summ, "structured")
        assert structured.count("\n") == 2

    def test_monte_carlo_record_writes_non_finite_values_as_null(self):
        nan, inf = float("nan"), float("inf")
        summary = MonteCarloSummary(
            "qif", 1, 0, np.array([0.1, nan]), np.array([nan, nan]), np.array([inf, 0.2]),
            np.array([1.0, 0.0]), re=np.array([nan, -inf]), baseline="qif",
            power={"beta2=0": nan},
        )
        record = json.loads(emit_report({"qif": summary}, "structured"))
        assert record["bias"] == [0.1, None]
        assert record["sd"] == [None, None]
        assert record["se"] == [None, 0.2]
        assert record["re"] == [None, None]
        assert record["power"] == {"beta2=0": None}

    def test_qq_pairs_round_trip(self):
        pairs = np.column_stack([np.linspace(0.1, 3, 7), np.linspace(0.2, 3.1, 7)])
        text = emit_qq(pairs)
        body = [ln.split(",") for ln in text.strip().splitlines()[1:]]
        back = np.array([[float(a), float(b)] for a, b in body])
        np.testing.assert_array_equal(back, pairs)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._fit_results(), "yaml")


class TestDesignConfig:
    def test_full_config(self):
        text = """
        # table 3 style design
        n = 300
        rho_x = 0.2
        rho_y = 0.5
        structure_x = cs
        structure_y = CS
        working = ar1
        aux_mode = four_group
        phi_source = holdout
        held_out_m = 5000
        seed = 42
        reps = 100
        """
        d = parse_design_config(text)
        assert d.n == 300
        assert d.rho_x == 0.2
        assert d.working is CorrelationStructure.AR1
        assert d.aux_mode is AuxMode.FOUR_GROUP
        assert d.phi_source is PhiSource.HELD_OUT
        assert d.held_out_m == 5000
        assert (d.seed, d.replications) == (42, 100)

    def test_unknown_key_rejected(self):
        with pytest.raises(MalformedRow):
            parse_design_config("n = 10\nrho_z = 0.5\n")

    def test_missing_n_rejected(self):
        with pytest.raises(ValueError):
            parse_design_config("rho_x = 0.5\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("n = abc\n", 1),
            ("n = 10\nrho_x = x\n", 2),
            ("n = 10\n# note\nstructure_x = toeplitz\n", 3),
            ("n = 10\naux_mode = three_group\n", 2),
        ],
        ids=["int", "float", "structure", "aux_mode"],
    )
    def test_bad_value_reports_its_line(self, text, line):
        with pytest.raises(MalformedRow, match=f"^line {line}: bad value") as err:
            parse_design_config(text)
        assert err.value.line_number == line
