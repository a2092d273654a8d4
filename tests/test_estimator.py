"""Moment assembly, objective, Gauss-Newton fit, profile test, intervals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from qifaux import (
    AuxiliaryInfo,
    WeightRankWarning,
    CorrelationStructure,
    EmptySubgroup,
    ExtendedScoreConfig,
    FitOptions,
    LongitudinalDataset,
    MarginalModelSpec,
    RankDeficient,
    SingularWeightMatrix,
    SubgroupPartition,
    build_basis,
    build_two_group_aux,
    build_four_group_aux,
    fit,
    generate_dataset,
    moment_vector,
    objective,
    profile_test,
    relative_efficiency,
    replication_rng,
    score_jacobian,
    wald_interval,
    weight_matrix,
)
from qifaux.simulation import SimulationDesign

GAUSS = MarginalModelSpec.gaussian()
BERN = MarginalModelSpec.bernoulli()
CS = CorrelationStructure.COMPOUND_SYMMETRY
IND = CorrelationStructure.INDEPENDENCE


def random_dataset(rng, n=40, q=3, p=2):
    return LongitudinalDataset(
        rng.standard_normal((n, q)), rng.standard_normal((n, q, p))
    )


def stacked_ols(dataset):
    """Least squares on the stacked (n*q, p) design, via lstsq."""
    x = dataset.covariates.reshape(-1, dataset.p)
    y = dataset.responses.ravel()
    return np.linalg.lstsq(x, y, rcond=None)[0]


def sign_partition():
    return SubgroupPartition(2, lambda xs: (xs[:, 0, 0] < 0).astype(int))


class TestMomentVector:
    def test_zero_at_ols_under_independence(self):
        rng = np.random.default_rng(0)
        ds = random_dataset(rng)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
        g, contribs = moment_vector(cfg, ds, stacked_ols(ds))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)
        assert contribs.shape == (ds.n, 2)

    def test_single_observation_hand_computation(self):
        ds = LongitudinalDataset(np.array([[3.0]]), np.array([[[2.0]]]))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 1), None)
        g, _ = moment_vector(cfg, ds, np.array([1.0]))
        np.testing.assert_allclose(g, [2.0])

    def test_moments_small_at_truth_on_simulated_design(self):
        """At the true coefficients every component of g_n should be within
        four empirical standard errors of zero."""
        design = SimulationDesign(n=100_000, seed=12, replications=1)
        ds = generate_dataset(design, replication_rng(12, 0, 0))
        aux = build_four_group_aux(design)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        g, contribs = moment_vector(cfg, ds, np.array([0.5, -0.5]))
        sd = contribs.std(axis=0, ddof=1)
        np.testing.assert_array_less(np.abs(g), 4.0 * sd / np.sqrt(ds.n))

    def test_dimension_is_pl_plus_kq(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng)
        aux = AuxiliaryInfo(sign_partition(), (np.zeros(3), np.zeros(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        g, contribs = moment_vector(cfg, ds, np.zeros(2))
        assert g.shape == (2 * 2 + 2 * 3,)
        assert cfg.moment_dimension(ds.p) == g.shape[0]


class TestWeightMatrix:
    def test_rank_one_outer_product(self):
        v = np.array([[1.0, 2.0, -1.0]])
        np.testing.assert_allclose(weight_matrix(v), np.outer(v[0], v[0]))

    def test_equal_contributions(self):
        v = np.array([0.5, -1.5])
        contribs = np.tile(v, (7, 1))
        np.testing.assert_allclose(weight_matrix(contribs), np.outer(v, v))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        contribs = rng.standard_normal((50, 4))
        expected = np.zeros((4, 4))
        for i in range(50):
            for a in range(4):
                for b in range(4):
                    expected[a, b] += contribs[i, a] * contribs[i, b]
        expected /= 50
        np.testing.assert_allclose(weight_matrix(contribs), expected, atol=1e-12)


class TestObjective:
    def test_zero_when_moments_vanish(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
        assert objective(cfg, ds, stacked_ols(ds)) == pytest.approx(0.0, abs=1e-18)

    def test_scalar_arithmetic(self):
        # one moment with g = 0.5 and Sigma = 0.25 gives Q = 1
        ds = LongitudinalDataset(np.array([[1.5]]), np.array([[[1.0]]]))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 1), None)
        assert objective(cfg, ds, np.array([1.0])) == pytest.approx(1.0)

    def test_nonnegative_at_random_points(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=60)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        for _ in range(10):
            assert objective(cfg, ds, rng.standard_normal(2)) >= 0.0

    def test_singular_weight_raises(self):
        # one subject, two parameters: rank-1 weight cannot identify beta
        ds = LongitudinalDataset(np.array([[1.0, 2.0]]), np.ones((1, 2, 2)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 2), None)
        with pytest.raises(SingularWeightMatrix):
            objective(cfg, ds, np.zeros(2))


def fd_moment_jacobian(cfg, ds, beta, h=1e-6):
    p = ds.p
    cols = []
    for j in range(p):
        e = np.zeros(p)
        e[j] = h
        gp, _ = moment_vector(cfg, ds, beta + e)
        gm, _ = moment_vector(cfg, ds, beta - e)
        cols.append((gp - gm) / (2 * h))
    return np.column_stack(cols)


class TestScoreJacobian:
    def test_identity_single_basis_closed_form(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
        jac = score_jacobian(cfg, ds, np.zeros(2))
        expected = -np.einsum("nqa,nqb->ab", ds.covariates, ds.covariates) / ds.n
        np.testing.assert_allclose(jac, expected, atol=1e-12)

    def test_empty_subgroup_rows_are_zero(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng)
        part = SubgroupPartition(2, lambda xs: np.zeros(len(xs), dtype=int))
        aux = AuxiliaryInfo(part, (np.zeros(3), np.zeros(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), aux)
        jac = score_jacobian(cfg, ds, np.zeros(2))
        np.testing.assert_array_equal(jac[-3:], 0.0)

    def test_identity_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, n=30)
        aux = AuxiliaryInfo(sign_partition(), (rng.standard_normal(3),) * 2)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        beta = rng.standard_normal(2)
        jac = score_jacobian(cfg, ds, beta)
        fd = fd_moment_jacobian(cfg, ds, beta)
        assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-6

    def test_logit_matches_finite_differences_at_zero_residuals(self):
        """The retained Jacobian term is the exact derivative whenever the
        residuals vanish at the evaluation point, so the finite-difference
        oracle is run on an instance with responses set to the model mean."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 3, 2))
        beta = rng.standard_normal(2) * 0.5
        spec = BERN
        mu = 1.0 / (1.0 + np.exp(-(x @ beta)))
        ds = LongitudinalDataset(mu, x)
        aux = AuxiliaryInfo(sign_partition(), (rng.standard_normal(3),) * 2)
        cfg = ExtendedScoreConfig(spec, build_basis(CS, 3), aux)
        jac = score_jacobian(cfg, ds, beta)
        fd = fd_moment_jacobian(cfg, ds, beta)
        assert np.abs(jac - fd).max() / np.abs(fd).max() < 1e-5


class TestFit:
    def test_matches_stacked_least_squares(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            ds = random_dataset(rng, n=50)
            cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
            res = fit(cfg, ds)
            np.testing.assert_allclose(res.beta_hat, stacked_ols(ds), atol=1e-6)
            assert res.converged

    def test_exactly_identified_root(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, n=80)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
        res = fit(cfg, ds)
        g, _ = moment_vector(cfg, ds, res.beta_hat)
        assert np.abs(g).max() < 1e-8
        assert res.objective >= 0.0

    def test_zero_group_auxiliary_is_bitwise_identical(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n=60)
        cfg_plain = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        none = SubgroupPartition(0, lambda xs: np.zeros(len(xs), dtype=int))
        aux0 = AuxiliaryInfo(none, ())
        cfg_aux = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux0)
        r1 = fit(cfg_plain, ds)
        r2 = fit(cfg_aux, ds)
        assert np.array_equal(r1.iterates, r2.iterates)
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations

    def test_subject_permutation_invariance(self):
        rng = np.random.default_rng(12)
        design = SimulationDesign(n=120, seed=13, replications=1)
        ds = generate_dataset(design, replication_rng(13, 0, 0))
        aux = build_two_group_aux()
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        res = fit(cfg, ds)
        perm = rng.permutation(ds.n)
        shuffled = LongitudinalDataset(ds.responses[perm], ds.covariates[perm])
        res_p = fit(cfg, shuffled)
        assert np.abs(res.beta_hat - res_p.beta_hat).max() < 1e-10

    def test_objective_not_worse_than_start(self):
        design = SimulationDesign(n=150, seed=14, replications=1)
        ds = generate_dataset(design, replication_rng(14, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        start = np.array([0.2, -0.1])
        res = fit(cfg, ds, init=start)
        assert res.converged
        # a time-constant covariate makes the two CS score rows exactly
        # proportional, so the weight matrix is structurally rank deficient
        with pytest.warns(WeightRankWarning):
            q_start = objective(cfg, ds, start)
        assert res.objective <= q_start + 1e-12
        assert res.weight_rank_deficient

    def test_covariance_symmetric_psd(self):
        design = SimulationDesign(n=200, seed=15, replications=1)
        ds = generate_dataset(design, replication_rng(15, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        res = fit(cfg, ds)
        np.testing.assert_array_equal(res.covariance, res.covariance.T)
        assert np.linalg.eigvalsh(res.covariance).min() >= -1e-8

    def test_plugin_covariance_ordering_single_dataset(self):
        design = SimulationDesign(n=300, seed=16, replications=1)
        ds = generate_dataset(design, replication_rng(16, 0, 0))
        basis = build_basis(CS, 3)
        r_qif = fit(ExtendedScoreConfig(GAUSS, basis, None), ds)
        r_gmm = fit(ExtendedScoreConfig(GAUSS, basis, build_four_group_aux(design)), ds)
        diff = r_qif.covariance - r_gmm.covariance
        assert np.linalg.eigvalsh(diff).min() >= -1e-8

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(17)
        x1 = rng.standard_normal((30, 3, 1))
        x = np.concatenate([x1, 2.0 * x1], axis=2)
        ds = LongitudinalDataset(rng.standard_normal((30, 3)), x)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 3), None)
        with pytest.raises(RankDeficient):
            fit(cfg, ds)

    def test_empty_subgroup_policy(self):
        rng = np.random.default_rng(18)
        ds = random_dataset(rng, n=50)
        part = SubgroupPartition(2, lambda xs: np.zeros(len(xs), dtype=int))
        aux = AuxiliaryInfo(part, (np.zeros(3), np.zeros(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        with pytest.raises(EmptySubgroup):
            fit(cfg, ds)
        res = fit(cfg, ds, options=FitOptions(allow_empty_subgroups=True))
        assert res.dropped_groups == (1,)
        assert res.converged

    def test_matches_independent_simplex_minimizer(self):
        """Dual route: the Gauss-Newton solution must reach the same
        objective value as derivative-free Nelder-Mead minimization of the
        same quadratic form, started from several points."""
        from scipy import optimize

        from qifaux.estimator import _Assembler, _SubjectMoments

        rng = np.random.default_rng(2024)
        for _ in range(8):
            n = int(rng.integers(60, 200))
            q = int(rng.integers(2, 4))
            p = int(rng.integers(1, 4))
            x = rng.standard_normal((n, q, p))
            beta_true = rng.standard_normal(p)
            y = x @ beta_true + rng.standard_normal((n, q))
            ds = LongitudinalDataset(y, x)
            positive = x[:, 0, 0] >= 0
            phi = (
                (x @ beta_true)[positive].mean(axis=0) + 0.05 * rng.standard_normal(q),
                (x @ beta_true)[~positive].mean(axis=0) + 0.05 * rng.standard_normal(q),
            )
            aux = AuxiliaryInfo(sign_partition(), phi)
            cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, q), aux)
            res = fit(cfg, ds)
            assert res.converged
            model = _SubjectMoments(_Assembler(cfg, ds))

            def q_fun(b):
                g, w_inv, _ = model.evaluate(b)
                return float(g @ w_inv @ g)

            best = np.inf
            for start in (res.beta_hat, beta_true, np.zeros(p)):
                out = optimize.minimize(
                    q_fun, start, method="Nelder-Mead",
                    options=dict(xatol=1e-12, fatol=1e-16, maxiter=4000),
                )
                best = min(best, out.fun)
            assert res.objective <= best + 1e-10

    def test_non_convergence_returns_last_iterate(self):
        # iteration budget of zero: the fit must hand back the starting
        # point flagged as non-converged instead of raising
        design = SimulationDesign(n=100, seed=27, replications=1)
        ds = generate_dataset(design, replication_rng(27, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        start = np.array([0.0, 0.0])
        res = fit(cfg, ds, init=start, options=FitOptions(max_iter=0))
        assert not res.converged
        np.testing.assert_array_equal(res.beta_hat, start)
        assert res.iterations == 0

    def test_two_step_option_close_to_continuous(self):
        design = SimulationDesign(n=400, seed=19, replications=1)
        ds = generate_dataset(design, replication_rng(19, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        r_cue = fit(cfg, ds)
        r_two = fit(cfg, ds, options=FitOptions(two_step=True))
        assert r_two.converged
        assert np.abs(r_cue.beta_hat - r_two.beta_hat).max() < 0.02

    def test_logit_bernoulli_fit_recovers_signal(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((800, 3, 2))
        beta = np.array([0.8, -0.5])
        prob = 1.0 / (1.0 + np.exp(-(x @ beta)))
        y = (rng.random((800, 3)) < prob).astype(float)
        ds = LongitudinalDataset(y, x)
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
        res = fit(cfg, ds)
        assert res.converged
        assert np.abs(res.beta_hat - beta).max() < 0.15

    def test_basis_scaling_leaves_objective_invariant(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, n=70)
        basis = build_basis(CS, 3)

        class ScaledBasis:
            q = 3

            def __init__(self, scale):
                self._mats = (basis.matrices[0], scale * basis.matrices[1])

            def __len__(self):
                return 2

            def stacked(self):
                return np.stack(self._mats)

        aux = AuxiliaryInfo(sign_partition(), (np.zeros(3), np.zeros(3)))
        cfg = ExtendedScoreConfig(GAUSS, basis, aux)
        for scale in (0.5, 2.0, 7.0):
            cfg_scaled = ExtendedScoreConfig(GAUSS, ScaledBasis(scale), aux)
            for _ in range(5):
                beta = rng.standard_normal(2)
                q1 = objective(cfg, ds, beta)
                q2 = objective(cfg_scaled, ds, beta)
                assert abs(q1 - q2) < 1e-8


def per_subject_half_gradient(assembler, beta, w_inv, frozen):
    """Half-gradient of the searched objective summed subject by subject.

    Frozen weight: G' W g. Continuous updating adds the weight's own
    derivative: (1/n) sum_i (1 - g_i' W g) T_i' W g.
    """
    g, contribs = assembler.moments(beta)
    tensor = assembler.contribution_jacobians(beta)
    u = w_inv @ g
    per_subject = np.einsum("ndp,d->np", tensor, u)
    if frozen:
        return per_subject.mean(axis=0)
    return per_subject.T @ (1.0 - contribs @ u) / assembler.n


def assert_relative(actual, expected, rtol=1e-10):
    expected = np.asarray(expected)
    scale = max(np.abs(expected).max(), np.finfo(float).tiny)
    assert np.abs(np.asarray(actual) - expected).max() <= rtol * scale


class TestSufficientStatistics:
    """The identity-link solver works from one Gram matrix; every quantity
    it uses must agree with the direct per-subject computation."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("two_step", [False, True])
    def test_gram_path_matches_contributions(self, q, p, two_step):
        from qifaux.estimator import _AffineMoments, _build_assembler, _weight_inverse

        rng = np.random.default_rng(100 * q + 10 * p + two_step)
        n = int(rng.integers(60, 150))
        ds = random_dataset(rng, n=n, q=q, p=p)
        # group 1 of three is empty, so its rows go through row_mask
        part = SubgroupPartition(3, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 2))
        aux = AuxiliaryInfo(part, tuple(rng.standard_normal(q) for _ in range(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, q), aux)
        assembler, dropped = _build_assembler(
            cfg, ds, FitOptions(allow_empty_subgroups=True)
        )
        assert dropped == (1,)
        model = _AffineMoments(assembler, rng.standard_normal(p))
        frozen_inv = None
        if two_step:
            start = assembler.contributions(rng.standard_normal(p))
            frozen_inv, _ = _weight_inverse(weight_matrix(start), p)
        for _ in range(4):
            beta = rng.standard_normal(p)
            g, contribs = assembler.moments(beta)
            sigma = weight_matrix(contribs)
            assert_relative(model.moment(beta), g)
            assert_relative(model.weight(beta), sigma)
            assert_relative(model.jacobian, assembler.jacobian(beta))
            w_direct = frozen_inv if two_step else _weight_inverse(sigma, p)[0]
            g_gram, w_gram, _ = model.evaluate(beta, frozen_inv)
            assert_relative(g_gram @ w_gram @ g_gram, g @ w_direct @ g)
            _, half_grad = model.derivatives(beta, g_gram, w_gram, frozen_inv)
            assert_relative(
                half_grad, per_subject_half_gradient(assembler, beta, w_direct, two_step)
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.integers(2, 4),
        p=st.integers(1, 3),
        structure=st.sampled_from([IND, CS, CorrelationStructure.AR1]),
        with_aux=st.booleans(),
    )
    def test_fitted_objective_lies_in_unit_interval(self, seed, q, p, structure, with_aux):
        """n Q_n is the squared norm of the projection of the ones vector
        onto the span of the contributions, so 0 <= Q_n <= 1."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3 * q * p + 10, 120))
        x = rng.standard_normal((n, q, p))
        y = x @ rng.standard_normal(p) + rng.standard_normal((n, q))
        ds = LongitudinalDataset(y, x)
        aux = None
        if with_aux:
            aux = AuxiliaryInfo(sign_partition(), tuple(rng.standard_normal(q) for _ in range(2)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(structure, q), aux)
        res = fit(cfg, ds, options=FitOptions(allow_empty_subgroups=True))
        assert 0.0 <= res.objective <= 1.0


class TestProfileTest:
    def test_constrained_at_optimum_gives_zero(self):
        design = SimulationDesign(n=200, seed=22, replications=1)
        ds = generate_dataset(design, replication_rng(22, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        res = fit(cfg, ds)
        out = profile_test(cfg, ds, [0, 1], res.beta_hat, unrestricted=res)
        assert out.statistic == pytest.approx(0.0, abs=1e-9)
        assert out.p_value == pytest.approx(1.0)
        assert out.df == 2

    def test_statistic_and_pvalue_consistent(self):
        design = SimulationDesign(n=200, seed=23, replications=1)
        ds = generate_dataset(design, replication_rng(23, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        out = profile_test(cfg, ds, [0], [0.4])
        assert out.statistic >= 0.0
        assert out.p_value == pytest.approx(stats.chi2.sf(out.statistic, 1))
        assert out.beta_restricted[0] == pytest.approx(0.4)

    def test_rejects_distant_null(self):
        design = SimulationDesign(n=400, seed=24, replications=1)
        ds = generate_dataset(design, replication_rng(24, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        out = profile_test(cfg, ds, [0], [1.5])
        assert out.p_value < 1e-4

    def test_joint_null_statistic_tracks_chi_square_two(self):
        """Pinning the full coefficient vector leaves no free coordinates;
        the statistic n*(Q(beta0) - Q(beta_hat)) should follow chi-square
        with two degrees of freedom under the truth."""
        design = SimulationDesign(n=300, rho_x=0.5, rho_y=0.5, seed=13, replications=1)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        values = []
        for r in range(300):
            ds = generate_dataset(design, replication_rng(design.seed, r, 0))
            res = fit(cfg, ds)
            out = profile_test(cfg, ds, [0, 1], [0.5, -0.5], unrestricted=res)
            assert out.df == 2
            values.append(out.statistic)
        ks = stats.kstest(np.array(values), "chi2", args=(2,))
        assert ks.pvalue > 0.01

    def test_index_validation(self):
        design = SimulationDesign(n=100, seed=25, replications=1)
        ds = generate_dataset(design, replication_rng(25, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        with pytest.raises(ValueError):
            profile_test(cfg, ds, [], [])
        with pytest.raises(ValueError):
            profile_test(cfg, ds, [0, 0], [0.1, 0.2])
        with pytest.raises(ValueError):
            profile_test(cfg, ds, [5], [0.1])


class TestIntervalsAndEfficiency:
    def _result(self):
        design = SimulationDesign(n=200, seed=26, replications=1)
        ds = generate_dataset(design, replication_rng(26, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        return fit(cfg, ds)

    def test_wald_known_values(self):
        res = self._result()
        beta = res.beta_hat.copy()
        cov = np.array([[0.04**2, 0.0], [0.0, 0.0]])
        fixed = type(res)(
            beta_hat=np.array([0.5, 1.0]),
            covariance=cov,
            objective=res.objective,
            iterations=res.iterations,
            converged=True,
            gradient_norm=0.0,
        )
        lo, hi = wald_interval(fixed, 0)
        assert lo == pytest.approx(0.4216, abs=5e-5)
        assert hi == pytest.approx(0.5784, abs=5e-5)
        lo2, hi2 = wald_interval(fixed, 1)
        assert lo2 == hi2 == pytest.approx(1.0)

    def test_relative_efficiency(self):
        res = self._result()
        assert relative_efficiency(res, res, 0) == 1.0
        degenerate = type(res)(
            beta_hat=res.beta_hat,
            covariance=np.zeros((2, 2)),
            objective=0.0,
            iterations=0,
            converged=True,
            gradient_norm=0.0,
        )
        with pytest.raises(ZeroDivisionError):
            relative_efficiency(res, degenerate, 0)
