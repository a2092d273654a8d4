"""Data generators, counter-based streams and the Monte Carlo harness."""

import dataclasses
import weakref

import numpy as np
import pytest
from scipy import stats

import qifaux.simulation as sim
from qifaux import (
    CorrelationStructure,
    ExtendedScoreConfig,
    MarginalModelSpec,
    PhiSource,
    SimulationDesign,
    TooManyFailures,
    build_basis,
    build_four_group_aux,
    fit,
    generate_dataset,
    parse_design_config,
    profile_test,
    qq_data,
    replication_rng,
    run_monte_carlo,
)
from qifaux.simulation import Hypothesis, MonteCarloSummary

# the paper's tests: a true null on beta_1 and a false one on beta_2
PAPER_HYPOTHESES = (Hypothesis("b1", (0,), (0.5,)), Hypothesis("b2", (1,), (0.0,)))


class TestGenerateDataset:
    def test_shapes_and_constant_second_covariate(self):
        design = SimulationDesign(n=50, seed=1, replications=1)
        ds = generate_dataset(design, replication_rng(1, 0, 0))
        assert (ds.n, ds.q, ds.p) == (50, 3, 2)
        x2 = ds.covariates[:, :, 1]
        assert np.isin(x2, (0.0, 1.0)).all()
        np.testing.assert_array_equal(x2, np.repeat(x2[:, :1], 3, axis=1))

    def test_fixed_stream_is_bit_identical(self):
        design = SimulationDesign(n=30, seed=2, replications=1)
        a = generate_dataset(design, replication_rng(2, 5, 0))
        b = generate_dataset(design, replication_rng(2, 5, 0))
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(a.covariates, b.covariates)

    def test_independence_design_uncorrelated_covariates(self):
        design = SimulationDesign(
            n=100_000,
            sigma_x_structure=CorrelationStructure.INDEPENDENCE,
            rho_x=0.0,
            rho_y=0.2,
            seed=3,
            replications=1,
        )
        ds = generate_dataset(design, replication_rng(3, 0, 0))
        x11 = ds.covariates[:, 0, 0]
        x21 = ds.covariates[:, 1, 0]
        assert abs(np.corrcoef(x11, x21)[0, 1]) < 0.01

    def test_conditional_mean_matches_group_target(self):
        """E(Y_j | x_2 = 1) = -0.5 in every component under the defaults."""
        design = SimulationDesign(n=1_000_000, seed=4, replications=1)
        ds = generate_dataset(design, replication_rng(4, 0, 0))
        mask = ds.covariates[:, 0, 1] == 1.0
        sub = ds.responses[mask]
        se = sub.std(axis=0, ddof=1) / np.sqrt(mask.sum())
        np.testing.assert_array_less(np.abs(sub.mean(axis=0) + 0.5), 3.0 * se)

    def test_design_validation(self):
        with pytest.raises(ValueError):
            SimulationDesign(n=0)
        with pytest.raises(ValueError):
            SimulationDesign(n=10, replications=0)
        with pytest.raises(ValueError):
            SimulationDesign(n=10, rho_y=-0.9)  # CS q=3 not PD

    @pytest.mark.parametrize("field", ["n", "replications", "held_out_m", "seed"])
    @pytest.mark.parametrize("value", [2.5, 10.0, True, "10", None])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimulationDesign(**{"n": 10, field: value})

    def test_integer_fields_accept_numpy_integers(self):
        design = SimulationDesign(n=np.int64(10), seed=np.uint32(7), replications=np.int32(2))
        assert design.n == 10 and design.seed == 7 and design.replications == 2

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationDesign(n=10, seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            parse_design_config("n = 10\nseed = -1\n")


class TestReplicationStreams:
    def test_streams_differ_across_replications_and_roles(self):
        a = replication_rng(9, 0, 0).standard_normal(4)
        b = replication_rng(9, 1, 0).standard_normal(4)
        c = replication_rng(9, 0, 1).standard_normal(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_same_cell_reproduces(self):
        a = replication_rng(9, 3, 1).standard_normal(4)
        b = replication_rng(9, 3, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)


class TestFourGroupAux:
    def test_held_out_requires_rng_and_minimum_size(self):
        design = SimulationDesign(
            n=100, phi_source=PhiSource.HELD_OUT, held_out_m=300, replications=1
        )
        with pytest.raises(ValueError):
            build_four_group_aux(design)
        design_ok = SimulationDesign(
            n=100, phi_source=PhiSource.HELD_OUT, held_out_m=2000, replications=1
        )
        with pytest.raises(ValueError):
            build_four_group_aux(design_ok)  # still no rng stream
        aux = build_four_group_aux(design_ok, replication_rng(0, 0, 1))
        assert aux.n_groups == 4

    def test_held_out_targets_near_analytic(self):
        design = SimulationDesign(
            n=100, phi_source=PhiSource.HELD_OUT, held_out_m=200_000, replications=1
        )
        aux = build_four_group_aux(design, replication_rng(7, 0, 1))
        targets = sim.analytic_four_group_phi(design)
        for got, want in zip(aux.phi, targets):
            np.testing.assert_allclose(got, want, atol=0.02)


class TestRunMonteCarlo:
    def test_deterministic_summaries(self):
        design = SimulationDesign(n=60, seed=5, replications=15)
        a = run_monte_carlo(design, ["qif", "gmmai2"])
        b = run_monte_carlo(design, ["qif", "gmmai2"])
        for m in a:
            np.testing.assert_array_equal(a[m].estimates, b[m].estimates)
            np.testing.assert_array_equal(a[m].cp, b[m].cp)

    def test_parallel_equals_serial(self, monkeypatch):
        """Threads and chunks leave every summary field bit for bit as in the
        serial one-chunk run. A chunk is one fit batch per method, and its
        panels are gone before the next chunk is drawn."""
        design = SimulationDesign(n=150, seed=6, replications=5)
        hyps = [*PAPER_HYPOTHESES, Hypothesis("joint", (0, 1), (0.5, -0.5))]
        methods = ["qif", "gmmai4"]
        serial = run_monte_carlo(design, methods, hypotheses=hyps)
        assert all(s.statistics["joint"].size == 5 for s in serial.values())

        batches, panels = [], []
        fit_, draw = sim._fit, sim.generate_dataset

        def recording_fit(configs, datasets, options):
            batches.append(len(configs))
            return fit_(configs, datasets, options)

        def recording_draw(design, rng):
            assert sum(ref() is not None for ref in panels) < sim.CHUNK
            ds = draw(design, rng)
            panels.append(weakref.ref(ds))
            return ds

        monkeypatch.setattr(sim, "_fit", recording_fit)
        monkeypatch.setattr(sim, "generate_dataset", recording_draw)
        for chunk, n_jobs in ((sim.CHUNK, 3), (2, 1), (2, 3)):
            monkeypatch.setattr(sim, "CHUNK", chunk)
            batches[:] = []
            runs = run_monte_carlo(design, methods, hypotheses=hyps, n_jobs=n_jobs)
            assert max(batches) <= chunk
            assert sum(batches) == len(methods) * design.replications
            for m in methods:
                for f in dataclasses.fields(MonteCarloSummary):
                    got, want = getattr(runs[m], f.name), getattr(serial[m], f.name)
                    if isinstance(want, dict):
                        assert got.keys() == want.keys()
                        for label in want:
                            np.testing.assert_array_equal(got[label], want[label])
                    else:
                        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_jobs_below_one_rejected_before_any_panel(self, monkeypatch, n_jobs):
        def no_draw(*args):
            raise AssertionError("panel drawn before n_jobs was checked")

        monkeypatch.setattr(sim, "generate_dataset", no_draw)
        design = SimulationDesign(n=60, seed=10, replications=2)
        with pytest.raises(ValueError, match="n_jobs must be at least 1"):
            run_monte_carlo(design, ["qif"], n_jobs=n_jobs)

    def test_qif_relative_efficiency_is_exactly_one(self):
        design = SimulationDesign(n=60, seed=7, replications=10)
        summ = run_monte_carlo(design, ["qif"])
        np.testing.assert_array_equal(summ["qif"].re, 1.0)
        assert summ["qif"].baseline == "qif"

    def test_single_replication_flags_undefined_sd(self):
        design = SimulationDesign(n=80, seed=8, replications=1)
        summ = run_monte_carlo(design, ["qif"])
        s = summ["qif"]
        assert s.replications == 1
        np.testing.assert_array_equal(
            s.bias, s.estimates[0] - np.array([0.5, -0.5])
        )
        assert np.isnan(s.sd).all()

    def test_too_many_failures(self, monkeypatch):
        design = SimulationDesign(n=60, seed=9, replications=10)

        def always_diverges(configs, datasets, options):
            return [sim.QifauxError("forced failure") for _ in configs]

        monkeypatch.setattr(sim, "_fit", always_diverges)
        with pytest.raises(TooManyFailures):
            run_monte_carlo(design, ["qif"])

    def test_unknown_method_rejected(self):
        design = SimulationDesign(n=60, seed=10, replications=2)
        with pytest.raises(ValueError):
            run_monte_carlo(design, ["mystery"])

    def test_bad_hypothesis_rejected_before_any_fit(self, monkeypatch):
        design = SimulationDesign(n=60, seed=10, replications=2)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called before the hypotheses were checked")

        monkeypatch.setattr(sim, "_fit", no_fit)
        with pytest.raises(ValueError, match="constrained indices must lie in 0..1"):
            run_monte_carlo(design, ["qif"], hypotheses=[Hypothesis("bad", (5,), (0.0,))])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hypothesis_rejected_before_any_fit(self, monkeypatch, value):
        design = SimulationDesign(n=60, seed=10, replications=2)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called before the hypotheses were checked")

        monkeypatch.setattr(sim, "_fit", no_fit)
        with pytest.raises(ValueError, match="constrained values must be finite"):
            run_monte_carlo(design, ["qif"], hypotheses=[Hypothesis("x", (0,), (value,))])

    def test_one_gram_pass_for_all_tests_of_a_fit(self, monkeypatch):
        """The profile tests of one fit reuse the fit's own moment model:
        each (method, replication) makes the fit's Gram pass and no other,
        however many hypotheses it tests."""
        from qifaux.estimator import _Assembler

        calls = []
        blocks = _Assembler.blocks

        def counting(self, beta):
            calls.append(1)
            return blocks(self, beta)

        monkeypatch.setattr(_Assembler, "blocks", counting)
        design = SimulationDesign(n=150, seed=6, replications=2)
        summaries = run_monte_carlo(design, sim.METHODS, hypotheses=PAPER_HYPOTHESES)
        assert all(s.failures == 0 for s in summaries.values())
        assert len(calls) == len(sim.METHODS) * design.replications

    @pytest.mark.parametrize("seed", [6, 1014])
    def test_stacked_evaluations_follow_the_slowest_member(self, monkeypatch, seed):
        """run_monte_carlo solves each method's fits as one lockstep group and
        each hypothesis's tests as another; a group makes as many stacked
        evaluations as its slowest member makes alone."""
        import qifaux.estimator as est

        groups = []
        evaluate, minimize = est._AffineMoments.evaluate, est._minimize

        def counting_evaluate(self, *args, **kwargs):
            groups[-1] += 1
            return evaluate(self, *args, **kwargs)

        def counting_minimize(*args, **kwargs):
            groups.append(0)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(est._AffineMoments, "evaluate", counting_evaluate)
        monkeypatch.setattr(est, "_minimize", counting_minimize)
        design = SimulationDesign(n=150, seed=seed, replications=4)
        run_monte_carlo(design, sim.METHODS, hypotheses=PAPER_HYPOTHESES)
        lockstep, groups[:] = list(groups), []

        expected = []
        basis = build_basis(design.working, design.q)
        for method in sim.METHODS:
            fits = []
            for r in range(design.replications):
                ds = generate_dataset(design, replication_rng(design.seed, r, 0))
                cfg = ExtendedScoreConfig(
                    MarginalModelSpec.gaussian(), basis, sim._method_aux(method, design, r)
                )
                fits.append((cfg, ds, fit(cfg, ds)))
            expected.append(max(groups[-design.replications:]))
            for hyp in PAPER_HYPOTHESES:
                for cfg, ds, res in fits:
                    profile_test(cfg, ds, hyp.indices, hyp.values, unrestricted=res)
                expected.append(max(groups[-design.replications:]))
        assert len(groups) == len(sim.METHODS) * (1 + len(PAPER_HYPOTHESES)) * design.replications
        assert lockstep == expected
        assert sum(lockstep) < sum(groups)

    @pytest.mark.parametrize("seed", [1000, 1014])
    def test_statistics_equal_the_public_profile_test(self, seed):
        """run_monte_carlo reports, bit for bit, what
        profile_test(..., unrestricted=fit(...)) gives for the same panel."""
        design = SimulationDesign(n=300, seed=seed, replications=2)
        summaries = run_monte_carlo(design, sim.METHODS, hypotheses=PAPER_HYPOTHESES)
        basis = build_basis(design.working, design.q)
        for method in sim.METHODS:
            for hyp in PAPER_HYPOTHESES:
                got = summaries[method].statistics[hyp.label]
                assert got.shape == (design.replications,)
                for r in range(design.replications):
                    ds = generate_dataset(design, replication_rng(design.seed, r, 0))
                    cfg = ExtendedScoreConfig(
                        MarginalModelSpec.gaussian(), basis, sim._method_aux(method, design, r)
                    )
                    res = fit(cfg, ds)
                    out = profile_test(cfg, ds, hyp.indices, hyp.values, unrestricted=res)
                    assert got[r] == out.statistic


class TestQQData:
    def test_pairing_against_injected_chi_square_statistics(self, monkeypatch):
        """Feeding exact chi-square(1) quantiles through the pairing gives a
        maximal theoretical/sample gap of numerical size only."""
        r = 10_000
        grid = (np.arange(1, r + 1) - 0.5) / r
        exact = stats.chi2.ppf(grid, 1)
        summary = MonteCarloSummary(
            method="qif",
            replications=r,
            failures=0,
            bias=np.zeros(2),
            sd=np.ones(2),
            se=np.ones(2),
            cp=np.full(2, 0.95),
            statistics={"h": exact.copy()},
        )

        def fake_run(design, methods, hypotheses=(), options=None, **kwargs):
            return {"qif": summary}

        monkeypatch.setattr(sim, "run_monte_carlo", fake_run)
        pairs = qq_data(
            SimulationDesign(n=50, replications=r),
            Hypothesis("h", (0,), (0.5,)),
            "qif",
        )
        assert pairs.shape == (r, 2)
        assert np.abs(pairs[:, 0] - pairs[:, 1]).max() < 1e-10

    def test_null_statistics_track_chi_square(self):
        design = SimulationDesign(n=300, rho_x=0.5, rho_y=0.5, seed=11, replications=500)
        pairs = qq_data(design, Hypothesis("b1", (0,), (0.5,)), "qif")
        sample = pairs[:, 1]
        assert abs(np.median(sample) - 0.455) < 0.15
        assert stats.kstest(sample, "chi2", args=(1,)).pvalue > 0.01
        assert np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1] > 0.99


class TestHighCovariateCorrelationRow:
    def test_four_group_gains_grow_with_rho_x(self):
        """With strongly correlated baseline covariates the sign split on
        X_11 also informs the other components, so the first coefficient
        gains efficiency; reference ratios 3.74 and 9.43, +/- 30%."""
        design = SimulationDesign(n=300, rho_x=0.8, rho_y=0.5, seed=2, replications=500)
        summ = run_monte_carlo(design, ["qif", "gmmai4"])
        re = summ["gmmai4"].re
        assert 3.74 * 0.7 <= re[0] <= 3.74 * 1.3
        assert 9.43 * 0.7 <= re[1] <= 9.43 * 1.3


class TestAbsoluteScaleAnchors:
    def test_independent_covariate_row_standard_deviations(self):
        """Absolute SD anchors for the independent-X design at n=500 with
        CS(0.2) response correlation; reference values (x 1e-3):
        plain (25, 45), two-group (26, 17), four-group (14, 14)."""
        design = SimulationDesign(
            n=500,
            sigma_x_structure=CorrelationStructure.INDEPENDENCE,
            rho_x=0.0,
            rho_y=0.2,
            seed=8,
            replications=500,
        )
        summ = run_monte_carlo(design, ["qif", "gmmai2", "gmmai4"])
        anchors = {
            "qif": (0.025, 0.045),
            "gmmai2": (0.026, 0.017),
            "gmmai4": (0.014, 0.014),
        }
        for method, (a1, a2) in anchors.items():
            sd = summ[method].sd
            assert abs(sd[0] - a1) <= 0.12 * a1, (method, sd)
            assert abs(sd[1] - a2) <= 0.12 * a2, (method, sd)
