"""File ingestion, standardization, splitting and report round-trips."""

import csv
import dataclasses
import io as stdio
import json
import os
import string
import tempfile
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
from qifaux.simulation import AuxMode, Hypothesis, MonteCarloSummary, PhiSource, run_monte_carlo
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
NUMERIC_IDS = CLEAN.replace("a,", "1,").replace("b,", "2,")

_ID_TOKENS = st.text('ab ,"\n#\x0b\x0c\x1c\x85\xa0\u2028', max_size=3)
_TIME_TOKENS = [
    "0", "-1", "x", "", " 2 ", "1.0", "+3", "4", "9", "2000000000000", str(2**64), str(-(2**70)),
    " 01 ", "\uff11", "1_0", "\x1c2", "2\x85", "\x0b1\xa0", str(2**63),
]
_CELL_TOKENS = [
    "", "na", "NaN", " NULL ", ".", "inf", "-inf", "oops", " 1.5 ", "1e400", "-0.0", "1_0",
    "\uff11", "\x1c1", "1\x1f", "\x0b2\x0c", "\x853\u2028", "#4",
]


@st.composite
def malformed_files(draw):
    """A long-format file with a few broken rows, and a schema for it.

    Ids may hold commas, quotes and newlines (so rows span lines), ``#``
    and control or Unicode whitespace characters, and rows may be missing,
    repeated, shuffled, short, long or preceded by blank lines; times and
    cells come from pools of bad, huge, out-of-range, missing, full-width
    and oddly padded tokens, and q is pinned or inferred. Fields are quoted
    when they need it, always, or as R writes them (header and ids).
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
    quoting = draw(st.sampled_from(["minimal", "all", "r"]))
    buf = stdio.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    quoted = csv.writer(buf, lineterminator=end, quoting=csv.QUOTE_ALL)
    (writer if quoting == "minimal" else quoted).writerow(
        ["id", "time", "y", *(f"x{j + 1}" for j in range(p))]
    )
    for row in rows:
        buf.write(end * draw(st.integers(0, 1)))
        if quoting == "r":  # as R's write.csv: quoted ids, bare numbers
            buf.write('"' + row[0].replace('"', '""') + '",')
            writer.writerow(row[1:])
        else:
            (writer if quoting == "minimal" else quoted).writerow(row)
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


def _numpy_route(text, schema):
    """A load's outcome and its count of rows parsed one by one.

    The load must make one np.loadtxt call and never take the exact
    route's row loop.
    """
    with (
        mock.patch.object(qio, "_parse_rows", side_effect=AssertionError("exact route")),
        mock.patch.object(qio.np, "loadtxt", wraps=np.loadtxt) as loadtxt,
        mock.patch.object(qio, "_parse_row", wraps=qio._parse_row) as parse_row,
    ):
        out = _outcome(load_dataset, text, schema)
    assert loadtxt.call_count == 1
    return out, parse_row.call_count


def _from_file(loader, path):
    """A loader for _outcome that reads ``path`` in place of the text it is given."""
    return lambda _source, schema: loader(path, schema)


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

    @pytest.mark.parametrize(
        "text",
        ["id,time,y,x1,x2\n", "id,time,y,x1,x2", "id,time,y,x1,x2\r\n\r\n\n"],
        ids=["header-only", "no-line-end", "blank-lines"],
    )
    def test_empty_dataset(self, text):
        with pytest.raises(EmptyDataset):
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDataset) as err:
            load_dataset(path, SCHEMA)
        assert (err.type, str(err.value)) == (EmptyDataset, "file has no header")

    def test_time_beyond_pinned_q(self):
        schema = ColumnSchema("id", "time", "y", ("x1", "x2"), q=2)
        with pytest.raises(MalformedRow):
            load_dataset(stdio.StringIO(CLEAN), schema)
        assert _outcome(load_dataset, CLEAN, schema) == _outcome(load_dataset_by_rows, CLEAN, schema)

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
            (CLEAN.replace("\n", "\r\n").replace("b,2,", "b,\r2,"), 6),
        ],
        ids=["first-row", "after-blank-lines", "header", "crlf-body"],
    )
    def test_bare_carriage_return_is_malformed(self, text, line):
        with pytest.raises(MalformedRow, match="new-line character") as err:
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert err.value.line_number == line
        assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)

    @pytest.mark.parametrize(
        "row", ['c,1,"{big}",1,1', "c,1,{big},1,1", "{big},1,1,1,1"],
        ids=["quoted-cell", "unquoted-cell", "unquoted-id"],
    )
    def test_oversized_field_is_malformed(self, row):
        limit = csv.field_size_limit()
        text = CLEAN + row.format(big="9" * (limit + 1)) + "\n"
        with pytest.raises(MalformedRow, match="^line 8: field larger than field limit"):
            load_dataset(stdio.StringIO(text), SCHEMA)
        assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)
        # a field at the limit is read, and parsed as a number
        out = load_dataset(stdio.StringIO(CLEAN + f"c,1,{'0' * limit},1,1\n"), SCHEMA)
        assert out.dropped == ("c",)

    @pytest.mark.parametrize(
        "text, schema",
        [
            *(
                pytest.param(CLEAN.replace("a,", f"{c}a{c},").replace("b,", f"b{c}b,"), SCHEMA, id=name)
                for c, name in [
                    ("\0", "nul"), ("\x0b", "vt"), ("\x0c", "ff"), ("\x1c", "fs"), ("\x85", "nel"),
                    ("\xa0", "nbsp"), ("\u2028", "line-separator"), ("\u3000", "ideographic-space"),
                    ("#", "hash"),
                ]
            ),
            *(
                pytest.param(CLEAN.replace("a,2,0.2,1.5,", old), SCHEMA, id=name)
                for old, name in [
                    ("a,2,\uff10.2,1.5,", "fullwidth-cell"), ("a,2,0.2,1_5,", "underscore-cell"),
                    ("a,\uff12,0.2,1.5,", "fullwidth-time"), ("a,0_2,0.2,1.5,", "underscore-time"),
                    ("a,+2,0.2,1.5,", "plus-time"), ("a, 02 ,0.2,1.5,", "padded-time"),
                    ("a,2.0,0.2,1.5,", "float-time"), (f"a,{2**63},0.2,1.5,", "int64-overflow-time"),
                    ("a,2,0.2\x00,1.5,", "nul-cell"), ("a,2,\x1c0.2,1.5,", "fs-cell"),
                    ("a,\x1f2,0.2,1.5,", "us-time"), ("a,2,\x0b0.2\x85,\u30001.5,", "space-cell"),
                    ("a,\x0c2\xa0,0.2,1.5,", "space-time"), ("a,2,0.2,#1.5,", "hash-cell"),
                    ("a,2,0.2,1e400,", "overflow-cell"), ("a,2,-nan,1.5,", "nan-cell"),
                ]
            ),
            *(
                pytest.param(CLEAN.replace("a,", old), SCHEMA, id=name)
                for old, name in [
                    ('"a"b,', "quote-then-text"), ('a"b",', "text-then-quote"),
                    (' "a",', "space-then-quote"), ('"a""b",', "doubled-quote"),
                    ('"a" ,', "quote-then-space"), ('"a"b"c,', "quote-after-closing-quote"),
                    ('"a,b",', "quoted-comma"), ('"a\nb",', "quoted-newline"),
                    ('"a\r\nb",', "quoted-crlf"), ('"a\rb",', "quoted-cr"),
                    ('"a,', "unterminated-quote"), ('"""a""",', "quoted-quotes"),
                ]
            ),
            *(
                pytest.param(CLEAN.replace("a,2,0.2,1.5,", old), SCHEMA, id=name)
                for old, name in [
                    ('a,"2",0.2,1.5,', "quoted-time"), ('a," 2 ",0.2,1.5,', "padded-quoted-time"),
                    ('a,"2" ,0.2,1.5,', "quoted-time-then-space"),
                    ('a,"2"0,0.2,1.5,', "quoted-time-then-digit"),
                    ('a,2,"0.2",1.5,', "quoted-cell"), ('a,2," 0.2 ",1.5,', "padded-quoted-cell"),
                    ('a,2,"0.2"5,1.5,', "quoted-cell-then-digit"),
                    ('a,2,"0""2",1.5,', "doubled-quote-cell"),
                    ('a,2,"",1.5,', "empty-quoted-cell"), ('a,2,"NA",1.5,', "quoted-na-cell"),
                    ('a,2,"1,5",1.5,', "quoted-comma-cell"),
                ]
            ),
            *(
                pytest.param(
                    CLEAN.replace("id,time,y,x1,x2", '"id","time","y","x1","x2"')
                    .replace("a,", '"a",').replace("b,", '"b",')
                    .replace(old, new).replace("\n", end),
                    SCHEMA, id=name,
                )
                for old, new, end, name in [
                    ("0.2", "NA", "\n", "r-style-na"), ("-0.5", "NA", "\r\n", "r-style-crlf-na"),
                    ("0.3", '""', "\n", "r-style-empty-quoted"),
                    ("1.5", "NA", "\r\n", "r-style-na-covariate"),
                    ('"b",3', '"b,c",3', "\n", "r-style-quoted-comma"),
                    ("0.2", "oops", "\n", "r-style-bad-cell"),
                    ('"a",1', '"a"",1', "\n", "r-style-unbalanced-quote"),
                ]
            ),
            pytest.param(CLEAN.replace("\n", "\r\n"), SCHEMA, id="crlf"),
            pytest.param(CLEAN.replace("b,1,", " \nb,1,"), SCHEMA, id="space-line"),
            pytest.param(CLEAN.replace("b,1,", "\t\r\nb,1,"), SCHEMA, id="tab-line"),
            pytest.param(CLEAN.replace("b,1,", "\n\r\n\nb,1,"), SCHEMA, id="blank-lines"),
            pytest.param(
                "id,time,y,x1,x2,x1\n" + CLEAN[16:].replace("\n", ",9\n"), SCHEMA,
                id="repeated-header-name",
            ),
            pytest.param(CLEAN, dataclasses.replace(SCHEMA, q=1), id="pinned-q-below-time"),
            pytest.param(CLEAN, dataclasses.replace(SCHEMA, covariates=("x1", "x1")), id="covariate-twice"),
            pytest.param(CLEAN, dataclasses.replace(SCHEMA, response="x1"), id="response-is-covariate"),
            pytest.param(CLEAN, dataclasses.replace(SCHEMA, time="x2"), id="time-is-covariate"),
        ],
    )
    def test_odd_bodies_match_reference(self, text, schema):
        assert _outcome(load_dataset, text, schema) == _outcome(load_dataset_by_rows, text, schema)

    def test_line_source_matches_stringio(self):
        # pieces of about 64K characters: lines, CRs and quoted newlines across the cuts
        row = 'a,1,"x\ny",\r\n' * 2000 + "b\r,2\n" * 9000 + "\n" * 70000
        for text in ["", "a", "\n", row, row + "tail", row[:65536], row[:65537]]:
            assert list(qio._lines(text)) == list(stdio.StringIO(text))

    def test_plain_body_takes_the_numpy_route(self):
        ds = generate_dataset(SimulationDesign(n=25, seed=30), replication_rng(30, 0, 0))
        buf = stdio.StringIO()
        write_dataset(ds, buf, SCHEMA)
        lines = buf.getvalue().splitlines(keepends=True)
        # as R's write.csv writes it: quoted header and ids
        r_style = ['"id","time","y","x1","x2"\r\n']
        r_style += ['"{}",{}'.format(*row.split(",", 1)) for row in lines[1:]]
        # NA cells in one of the 25 subjects (4%), in its first and second rows
        na = [row.split(",") for row in buf.getvalue().splitlines()]
        na[1][2] = na[2][4] = "NA"
        na = [",".join(row) + "\r\n" for row in na]
        bodies = [
            ("".join(lines), 0),
            ("".join(lines).replace("\r\n", "\n"), 0),
            ("".join(lines[:5] + lines[6:]), 0),  # an incomplete subject
            ("".join(lines + lines[3:4]), 0),  # a duplicate
            ("".join(r_style), 0),
            ("".join(na), 2),
        ]
        expected = [
            (_outcome(load_dataset_by_rows, text, SCHEMA), by_row) for text, by_row in bodies
        ]
        assert [_numpy_route(text, SCHEMA) for text, _ in bodies] == expected
        assert expected[0][0][1] == tuple(map(str, ds.subject_ids)) == expected[4][0][1]
        assert expected[4][0][0] == expected[0][0][0]
        assert expected[2][0][2] == ("1",) and expected[3][0][0] is UnbalancedSubject
        assert expected[5][0][2] == ("0",)

    @pytest.mark.parametrize(
        "text",
        [
            CLEAN.replace("b,1,", '"b",1,'),
            CLEAN.replace("a,2,0.2,", "a,2,na,"),
            CLEAN.replace("a,2,0.2,", "a,2,,"),
            CLEAN.replace("b,3,-0.3,", "b,3,na,"),
            CLEAN.replace("b,3,-0.3,", "b,3, NULL ,"),
            CLEAN.replace("b,3,-0.3,-0.5,", "b,3,-0.3,,"),
            CLEAN.replace("-0.5,1.0\n", "-0.5,."),
            # the NA row's subject comes first, and a blank line lies before it
            "id,time,y,x1,x2\nc,1,na,1,1\n" + CLEAN[16:] + "d,1,1,1,1\n",
            CLEAN.replace("b,1,", "\r\n\nb,1,").replace("b,3,-0.3,", "b,3,na,"),
        ],
        ids=[
            "quoted-id", "na-response", "empty-response", "na-cell", "padded-null-cell",
            "empty-cell", "dot-at-end", "na-row-first", "na-after-blank-lines",
        ],
    )
    def test_quoted_or_missing_body_takes_the_numpy_route(self, text):
        by_row = 0 if '"' in text else 1
        assert _numpy_route(text, SCHEMA) == (_outcome(load_dataset_by_rows, text, SCHEMA), by_row)

    @pytest.mark.parametrize(
        "text, line",
        [
            (CLEAN + "b,2,9,9,9\n", 8),
            (CLEAN.replace("\n", "\r\n") + "b,2,9,9,9\r\n", 8),
            (CLEAN.replace("b,1,", "\n\nb,1,") + "\n" + "a,3,9,9,9\n", 11),
            (CLEAN.replace("\n", "\r\n").replace("b,1,", "\r\n\r\nb,1,") + "\r\n" + "a,1,9,9,9", 11),
            (CLEAN.replace("a,2,0.2,1.5,0.0\n", "\na,2,0.2,1.5,0.0\na,2,7,7,7\n"), 5),
            # a missing-value line before the duplicate is parsed on its own
            (CLEAN.replace("a,3,0.3,", "a,3,na,").replace("b,1,", "\r\nb,1,") + "\nb,3,1,1,1\n", 10),
            (CLEAN.replace("a,", '"a",') + '\n"a",2,9,9,9\n', 9),
        ],
        ids=["end", "crlf", "blank-lines", "crlf-blank-lines", "early", "after-na", "quoted-id"],
    )
    def test_plain_duplicate_names_its_line(self, text, line):
        # the line comes from the plain route's own split, not a second read:
        # _lines is the only CSV source over the text
        with mock.patch.object(qio, "_lines", wraps=qio._lines) as lines:
            out, _ = _numpy_route(text, SCHEMA)
        assert lines.call_count == 1
        assert out == _outcome(load_dataset_by_rows, text, SCHEMA)
        assert out[0] is UnbalancedSubject and out[2] == line

    @pytest.mark.parametrize(
        "text, line",
        [
            (CLEAN.replace("b,", '"b,c",') + '"b,c",2,9,9,9\n', 8),
            # the reader names the line where a quoted line end's row finishes
            (CLEAN.replace("a,", '"a\nx",') + '"a\nx",3,9,9,9\n', 12),
            # NUL takes the exact route; its line comes after the duplicate,
            # where Python < 3.11's CSV reader fails
            (CLEAN + "b,2,9,9,9\nc,1,0.1\0,1,1\n", 8),
        ],
        ids=["quoted-comma", "quoted-newline", "nul"],
    )
    def test_exact_duplicate_names_its_line(self, text, line):
        # the exact route records each row's line as it reads it
        with (
            mock.patch.object(qio, "_lines", wraps=qio._lines) as lines,
            mock.patch.object(qio, "_parse_rows", wraps=qio._parse_rows) as exact,
        ):
            out = _outcome(load_dataset, text, SCHEMA)
        assert lines.call_count == exact.call_count == 1
        assert out == _outcome(load_dataset_by_rows, text, SCHEMA)
        assert out[0] is UnbalancedSubject and out[2] == line

    @pytest.mark.parametrize(
        "text, schema",
        [
            # "0.2" also turns b's "-0.2" into a bad cell
            (CLEAN.replace("0.2", "na"), SCHEMA),
            (CLEAN.replace("0.2", ""), SCHEMA),
            (CLEAN.replace("b,3,", "b,0,"), SCHEMA),
            (CLEAN.replace("b,3,", " ,3,"), SCHEMA),
            (CLEAN.replace("b,3,-0.3,", "b,3,"), SCHEMA),
            (CLEAN.replace("b,3,-0.3,", "b,3,oops,"), SCHEMA),
            (CLEAN.replace("b,3,", "b,1.0,"), SCHEMA),
            (CLEAN, dataclasses.replace(SCHEMA, q=2)),
            (CLEAN.replace("b,1,", '"b,c",1,'), SCHEMA),
        ],
        ids=[
            "na-cell", "empty-cell", "time-0", "empty-id", "short-row", "non-numeric-cell",
            "float-time", "time-over-pinned-q", "quoted-comma",
        ],
    )
    def test_other_bodies_take_the_exact_route(self, text, schema):
        with mock.patch.object(qio, "_parse_rows", side_effect=AssertionError("exact route")):
            with pytest.raises(AssertionError, match="exact route"):
                load_dataset(stdio.StringIO(text), schema)
        assert _outcome(load_dataset, text, schema) == _outcome(load_dataset_by_rows, text, schema)

    @pytest.mark.parametrize(
        "text",
        [CLEAN.replace("b,3,", "b,,"), "id,time,y,x1,x2\n\r\n\n", "id,time,y,x1,x2"],
        ids=["empty-time", "blank-body", "header-only"],
    )
    def test_digitless_numeric_field_skips_numpy(self, text):
        # a row that fails before numpy starts, or no rows, on which numpy warns
        with mock.patch.object(qio.np, "loadtxt", side_effect=AssertionError("numpy route")):
            assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)

    @pytest.mark.parametrize(
        "text",
        [
            NUMERIC_IDS.replace("2,2,-0.2,", "2,2,-0.2\r5,"),
            "id,time,y,x1,x2\r\r\n" + NUMERIC_IDS[16:],
            "id,time,y,x1,x2\r\n",
        ],
        ids=["bare-cr-in-field", "cr-cr-lf-header", "header-line-only"],
    )
    def test_bare_carriage_return_or_empty_body_skips_numpy(self, text):
        # every field holds a digit, so only the "\r" and row checks see these
        with mock.patch.object(qio.np, "loadtxt", side_effect=AssertionError("numpy route")):
            assert _outcome(load_dataset, text, SCHEMA) == _outcome(load_dataset_by_rows, text, SCHEMA)

    def test_digitless_last_field_without_line_end_is_parsed_by_row(self):
        text = NUMERIC_IDS.replace("-0.5,1.0\n", "-0.5,NA")
        assert _numpy_route(text, SCHEMA) == (_outcome(load_dataset_by_rows, text, SCHEMA), 1)

    def test_digitless_id_and_unused_field_keep_the_numpy_route(self):
        # the time column comes first, so a blank line's lone empty field is in it
        rows = [row.split(",", 2) for row in CLEAN.splitlines()[1:]]
        text = "time,id,y,x1,x2,note\n" + "".join(f"{t},{i},{rest},\n" for i, t, rest in rows) + "\n\r\n"
        out = _numpy_route(text, SCHEMA)
        assert out == (_outcome(load_dataset_by_rows, text, SCHEMA), 0)
        assert out[0][1] == ("a", "b")

    @pytest.mark.parametrize(
        "first, second",
        [("duplicate", "cell"), ("cell", "duplicate")],
        ids=["duplicate-before-cell", "cell-before-duplicate"],
    )
    def test_earlier_of_duplicate_and_bad_cell_wins(self, first, second):
        n = 8192 // 3 + 10
        rows = [[f"s{i}", str(t), "0.5", "1.0", "0.0"] for i in range(n) for t in (1, 2, 3)]
        last = 8192 - 1
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
    @given(case=malformed_files())
    def test_matches_row_by_row_reference(self, case):
        text, schema = case
        assert _outcome(load_dataset, text, schema) == _outcome(load_dataset_by_rows, text, schema)

    @settings(max_examples=100, deadline=None)
    @given(case=malformed_files())
    def test_file_matches_stringio(self, case):
        # the file is read as bytes, and its "\r\n" line ends survive
        text, schema = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "panel.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            out = _outcome(_from_file(load_dataset, path), text, schema)
        assert out == _outcome(load_dataset, text, schema)

    def test_invalid_utf8_file_raises(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(CLEAN.encode().replace(b"b,2,", b"b\xff,2,"))
        with pytest.raises(UnicodeDecodeError):
            load_dataset(path, SCHEMA)

    def test_shuffled_crlf_file_matches_reference(self, tmp_path):
        # subjects' rows are scattered, so each id appears in many runs
        ds = generate_dataset(SimulationDesign(n=500, seed=36), replication_rng(36, 0, 0))
        buf = stdio.StringIO()
        write_dataset(ds, buf, SCHEMA)
        header, *rows = buf.getvalue().splitlines(keepends=True)
        rows = [rows[i] for i in np.random.default_rng(36).permutation(len(rows))]
        path = tmp_path / "panel.csv"
        path.write_bytes("".join([header, *rows]).encode())
        out = _outcome(_from_file(load_dataset, path), "", SCHEMA)
        assert out == _outcome(_from_file(load_dataset_by_rows, path), "", SCHEMA)
        assert header.endswith("\r\n") and out[2] == ()
        assert out[1] == tuple(dict.fromkeys(row.split(",", 1)[0] for row in rows))
        assert sorted(out[1], key=int) == list(map(str, ds.subject_ids))

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

    def test_write_rejects_schema_of_other_width(self):
        ds = LongitudinalDataset(np.zeros((2, 2)), np.ones((2, 2, 3)))
        buf = stdio.StringIO()
        with pytest.raises(ValueError) as err:
            write_dataset(ds, buf, SCHEMA)
        assert (err.type, str(err.value)) == (
            ValueError, "schema covariate count must match dataset"
        )
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

    @pytest.mark.parametrize("columns, bad", [([1, -1], -1), ([5], 5), ([0, 2], 2)])
    def test_column_outside_data_rejected(self, columns, bad):
        ds = generate_dataset(SimulationDesign(n=50, seed=1), replication_rng(1, 0, 0))
        with pytest.raises(ValueError, match=rf"column {bad} is outside 0\.\.1"):
            standardize_columns(ds, columns)

    @pytest.mark.parametrize("columns", [[True], [0.5], [0, True], [np.bool_(True)], ["0"]])
    def test_non_integer_column_rejected(self, columns):
        ds = generate_dataset(SimulationDesign(n=50, seed=1), replication_rng(1, 0, 0))
        with pytest.raises(ValueError, match="^columns must be integers$"):
            standardize_columns(ds, columns)

    def test_numpy_integer_column_accepted(self):
        ds = generate_dataset(SimulationDesign(n=50, seed=1), replication_rng(1, 0, 0))
        out, info = standardize_columns(ds, [np.int64(1)])
        ref, ref_info = standardize_columns(ds, [1])
        assert np.array_equal(out.covariates, ref.covariates)
        assert info == ref_info

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
        # a float slices nothing, and True would split off one subject
        for bad in (0, 10, 11, 4.0, np.float64(4), True):
            with pytest.raises(InvalidSize, match="analysis size must be an integer in 1..9"):
                split_sample(ds, bad, seed=0)

    def test_negative_seed_rejected(self):
        design = SimulationDesign(n=10, seed=34, replications=1)
        ds = generate_dataset(design, replication_rng(34, 0, 0))
        with pytest.raises(ValueError) as err:
            split_sample(ds, 4, seed=-1)
        assert (err.type, str(err.value)) == (ValueError, "seed must be non-negative")


# a FitResult and a MonteCarloSummary of p = 2, built without solving
TINY_FIT = FitResult(np.zeros(2), np.eye(2), 0.0, 1, True, 0.0)
TINY_SUMMARY = MonteCarloSummary("qif", 1, 0, *np.zeros((4, 2)))


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
        hypothesis = Hypothesis("beta2=0", (1,), (0.0,))
        summ = run_monte_carlo(design, ["qif", "gmmai2"], hypotheses=[hypothesis])
        text = emit_report(summ, "table")
        assert "bias" in text and "cp" in text and "re" in text
        assert "excluded replications" not in text
        lines = text.splitlines()
        at = lines.index("hypothesis tests")
        assert lines[at - 1] == "" and len(lines) == at + 3
        for line, (name, s) in zip(lines[at + 1 :], summ.items()):
            assert line == f"{name:<10}{'beta2=0':<28}rejection rate {s.power['beta2=0']:.4f}"
        structured = emit_report(summ, "structured")
        assert structured.count("\n") == 2
        summ["gmmai2"] = dataclasses.replace(summ["gmmai2"], failures=2)
        text = emit_report(summ, "table")
        assert f"{'gmmai2':<10}excluded replications: 2" in text.splitlines()
        assert text.count("excluded replications") == 1

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

    @pytest.mark.parametrize(
        "results, error, message",
        [
            ({}, ValueError, "results must be a non-empty mapping or FitResult"),
            ([], ValueError, "results must be a non-empty mapping or FitResult"),
            ({"qif": 1.5}, TypeError, "cannot report values of type float"),
            (
                {"a": TINY_SUMMARY, "b": TINY_FIT},
                TypeError,
                "'b' holds a FitResult, not a MonteCarloSummary",
            ),
            (
                {"a": TINY_FIT, "b": TINY_FIT, "c": TINY_SUMMARY},
                TypeError,
                "'c' holds a MonteCarloSummary, not a FitResult",
            ),
        ],
        ids=["empty", "list", "float", "fit_after_summary", "summary_after_fits"],
    )
    def test_unreportable_results_rejected(self, results, error, message):
        with pytest.raises(error) as err:
            emit_report(results)
        assert (err.type, str(err.value)) == (error, message)

    def test_structured_report_skips_blank_lines(self):
        text = emit_report({"a": TINY_FIT, "b": TINY_FIT}, "structured")
        back = parse_structured_report(text.replace("\n", "\n\n   \n", 1))
        assert list(back) == ["a", "b"]
        np.testing.assert_array_equal(back["b"].covariance, np.eye(2))

    @pytest.mark.parametrize(
        "text, line, missing",
        [
            (emit_report({"qif": TINY_SUMMARY}, "structured"), 1, "beta, converged, cov"),
            (emit_report(TINY_FIT, "structured") + '\n{"method": "a"}\n', 3, "beta, converged"),
            ("[1, 2]\n", 1, "beta, converged, cov"),
        ],
        ids=["monte_carlo", "method_only", "list"],
    )
    def test_record_that_is_not_a_fit_rejected(self, text, line, missing):
        """A Monte Carlo report or a partial record names its line and the
        keys it lacks, instead of a KeyError."""
        with pytest.raises(MalformedRow) as err:
            parse_structured_report(text)
        assert err.value.line_number == line
        assert str(err.value).startswith(f"line {line}: not a fit record: no {missing}")


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
        "text, key, line",
        [
            ("n = 60\nn = 90\n", "n", 2),
            ("n = 60\nSeed = 1\n# note\nseed = 1\n", "seed", 4),
        ],
        ids=["same-case", "other-case"],
    )
    def test_repeated_key_rejected(self, text, key, line):
        with pytest.raises(MalformedRow, match=f"^line {line}: design key '{key}' is given twice$"):
            parse_design_config(text)

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
