"""File ingestion, standardization, splitting and report round-trips."""

import dataclasses
import io as stdio

import numpy as np
import pytest

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
from qifaux.estimator import ExtendedScoreConfig, fit
from qifaux.basis import build_basis
from qifaux.model import MarginalModelSpec
from qifaux.simulation import AuxMode, PhiSource, run_monte_carlo

SCHEMA = ColumnSchema("id", "time", "y", ("x1", "x2"))

CLEAN = """id,time,y,x1,x2
a,1,0.1,1.0,0.0
a,2,0.2,1.5,0.0
a,3,0.3,2.0,0.0
b,1,-0.1,0.5,1.0
b,2,-0.2,0.0,1.0
b,3,-0.3,-0.5,1.0
"""


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

    def test_write_then_load_round_trip(self):
        design = SimulationDesign(n=25, seed=30, replications=1)
        ds = generate_dataset(design, replication_rng(30, 0, 0))
        buf = stdio.StringIO()
        write_dataset(ds, buf, SCHEMA)
        out = load_dataset(stdio.StringIO(buf.getvalue()), SCHEMA)
        np.testing.assert_allclose(out.dataset.responses, ds.responses, atol=1e-12)
        np.testing.assert_allclose(out.dataset.covariates, ds.covariates, atol=1e-12)


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
