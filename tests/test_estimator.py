"""Moment assembly, objective, Gauss-Newton fit, profile test, intervals."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import expit, ndtr

from qifaux import (
    AuxiliaryInfo,
    WeightRankWarning,
    CorrelationStructure,
    EmptySubgroup,
    ExtendedScoreConfig,
    FitOptions,
    LongitudinalDataset,
    MarginalModelSpec,
    NotConverged,
    QifauxError,
    RankDeficient,
    SingularWeightMatrix,
    SubgroupPartition,
    build_basis,
    build_two_group_aux,
    build_four_group_aux,
    correlation_matrix,
    emit_report,
    estimate_phi,
    fit,
    four_group_partition,
    generate_dataset,
    initial_estimate,
    moment_vector,
    objective,
    parse_structured_report,
    profile_test,
    relative_efficiency,
    replication_rng,
    score_jacobian,
    two_group_partition,
    wald_interval,
    weight_matrix,
)
import qifaux.estimator
from qifaux.estimator import _direction
from qifaux.simulation import SimulationDesign, _method_aux

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

    def test_empty_group_keeps_zero_block(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng)
        part = SubgroupPartition(3, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 2))
        phi = tuple(rng.standard_normal(3) for _ in range(3))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), AuxiliaryInfo(part, phi))
        beta = rng.standard_normal(2)
        g, contribs = moment_vector(cfg, ds, beta)
        assert g.shape == (cfg.moment_dimension(ds.p),)
        aux = contribs[:, 2 * 2:].reshape(ds.n, 3, 3)
        np.testing.assert_array_equal(aux[:, 1], 0.0)
        np.testing.assert_array_equal(g[2 * 2 + 3 : 2 * 2 + 6], 0.0)
        first = ds.covariates[:, 0, 0] >= 0
        np.testing.assert_array_equal(aux[first, 0], (ds.covariates @ beta - phi[0])[first])
        np.testing.assert_array_equal(aux[~first, 2], (ds.covariates @ beta - phi[2])[~first])


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

    @pytest.mark.parametrize("groups", [0, 2, 4], ids=["no_aux", "two_groups", "four_groups"])
    @pytest.mark.parametrize("spec", [GAUSS, BERN], ids=["identity", "logit"])
    def test_nonnegative_at_random_points(self, spec, groups):
        """With C the (n, d) contributions, g_n = C'1 / n and
        Sigma_n = C'C / n, so n Q_n = 1'C (C'C)^+ C'1 = ||P 1||^2 with P the
        projection onto the columns of C: 0 <= Q_n <= 1, and n Q_n is the
        squared length of the least-squares fit C x* of the ones vector."""
        rng = np.random.default_rng(4 + 10 * groups + (spec is BERN))
        n = 60
        x = rng.standard_normal((n, 3, 2))
        if spec is BERN:
            ds = LongitudinalDataset((rng.random((n, 3)) < 0.5).astype(float), x)
            phi = tuple(rng.uniform(0.3, 0.7, 3) for _ in range(groups))
        else:
            ds = LongitudinalDataset(rng.standard_normal((n, 3)), x)
            phi = tuple(rng.standard_normal(3) for _ in range(groups))
        quadrant = SubgroupPartition(4, lambda xs: (xs[:, 0, 0] < 0) + 2 * (xs[:, 0, 1] < 0))
        partition = {2: sign_partition(), 4: quadrant}.get(groups)
        aux = AuxiliaryInfo(partition, phi) if groups else None
        cfg = ExtendedScoreConfig(spec, build_basis(CS, 3), aux)
        for _ in range(20):
            beta = rng.standard_normal(2)
            q_n = objective(cfg, ds, beta)
            assert q_n >= 0.0
            assert q_n <= 1.0
            c = moment_vector(cfg, ds, beta)[1]
            x_star = np.linalg.lstsq(c, np.ones(n), rcond=None)[0]
            assert n * q_n == pytest.approx(np.sum((c @ x_star) ** 2), rel=1e-9, abs=0.0)

    def test_singular_weight_raises(self):
        # one subject, two parameters: rank-1 weight cannot identify beta
        ds = LongitudinalDataset(np.array([[1.0, 2.0]]), np.ones((1, 2, 2)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(IND, 2), None)
        with pytest.raises(SingularWeightMatrix):
            objective(cfg, ds, np.zeros(2))


class TestWeightInverse:
    """``_weight_inverse`` against numpy's hermitian pseudo-inverse with the
    same relative cutoff."""

    @staticmethod
    def oracle(sigma):
        from qifaux.estimator import WEIGHT_RCOND

        top = np.linalg.svd(sigma, compute_uv=False).max()
        rank = np.linalg.matrix_rank(sigma, tol=WEIGHT_RCOND * top, hermitian=True)
        return np.linalg.pinv(sigma, WEIGHT_RCOND, hermitian=True), int(rank)

    @staticmethod
    def contributions(rng, d, proportional):
        contribs = rng.standard_normal((3 * d + 5, d))
        if proportional:
            # two exactly proportional score rows, as a time-constant
            # covariate gives under the CS basis
            contribs[:, 1] = 2.5 * contribs[:, 0]
        return contribs

    @pytest.mark.parametrize("proportional", [False, True], ids=["full", "proportional"])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_hermitian_pinv(self, d, proportional):
        from qifaux.estimator import _weight_inverse

        rng = np.random.default_rng(10 * d + proportional)
        for _ in range(5):
            sigma = weight_matrix(self.contributions(rng, d, proportional))
            expected, expected_rank = self.oracle(sigma)
            inverse, rank = _weight_inverse(sigma)
            assert rank == expected_rank == d - proportional
            assert_relative(inverse, expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_below_p_raises(self, p):
        from qifaux.estimator import _rank_error, _weight_inverse

        rng = np.random.default_rng(p)
        for subjects in range(1, p):
            sigma = weight_matrix(rng.standard_normal((subjects, 6)))
            assert self.oracle(sigma)[1] == subjects
            with pytest.raises(SingularWeightMatrix, match=f"rank {subjects} < "):
                raise _rank_error(_weight_inverse(sigma)[1], p)
        # the proportional pair leaves rank p - 1 when d = p
        sigma = weight_matrix(self.contributions(rng, p, True))
        assert self.oracle(sigma)[1] == p - 1
        with pytest.raises(SingularWeightMatrix):
            raise _rank_error(_weight_inverse(sigma)[1], p)
        # a full-rank weight gives no error
        sigma = weight_matrix(rng.standard_normal((9, 6)))
        assert _rank_error(_weight_inverse(sigma)[1], p) is None

    def test_stack_equals_each_matrix_alone(self):
        """The stacked pseudo-inverse zeroes the dropped eigenvalues instead of
        deleting their columns; every matrix of a stack, full rank or not,
        comes out bit for bit as when inverted alone."""
        from qifaux.estimator import _weight_inverse

        rng = np.random.default_rng(5)
        sigma = np.stack(
            [weight_matrix(self.contributions(rng, 16, j % 2 == 1)) for j in range(6)]
        )
        inverse, rank = _weight_inverse(sigma)
        np.testing.assert_array_equal(rank, [16, 15, 16, 15, 16, 15])
        for j in range(6):
            alone, alone_rank = _weight_inverse(sigma[j])
            assert alone_rank == rank[j]
            np.testing.assert_array_equal(inverse[j], alone)


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


def subject_objective(cfg, ds):
    """Q_n as a function of beta, from the per-subject contributions at beta."""
    from qifaux.estimator import _Assembler, _SubjectMoments

    model = _SubjectMoments([_Assembler(cfg, ds)])
    return lambda beta: model.evaluate([0], np.asarray(beta, dtype=float)[None]).objective()[0]


def simplex_identity_problems(rng):
    """The simplex oracle's eight identity-link fits, as (config, dataset,
    true beta): random q, p and panel, two sign groups with targets near
    their means."""
    for _ in range(8):
        n = int(rng.integers(60, 200))
        q = int(rng.integers(2, 4))
        p = int(rng.integers(1, 4))
        x = rng.standard_normal((n, q, p))
        beta_true = rng.standard_normal(p)
        y = x @ beta_true + rng.standard_normal((n, q))
        positive = x[:, 0, 0] >= 0
        phi = (
            (x @ beta_true)[positive].mean(axis=0) + 0.05 * rng.standard_normal(q),
            (x @ beta_true)[~positive].mean(axis=0) + 0.05 * rng.standard_normal(q),
        )
        aux = AuxiliaryInfo(sign_partition(), phi)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, q), aux)
        yield cfg, LongitudinalDataset(y, x), beta_true


def simplex_logit_problems(rng):
    """The simplex oracle's twelve logit fits, as (config, dataset): qif,
    then gmmai2 with targets from a held-out panel, on each of six
    ``binary_panel`` panels of 300 subjects."""
    two = two_group_partition()
    for _ in range(6):
        ds = binary_panel(300, rng)
        phi = tuple(estimate_phi(binary_panel(1000, rng), two)[0])
        for aux in (None, AuxiliaryInfo(two, phi)):
            yield ExtendedScoreConfig(BERN, build_basis(CS, 3), aux), ds


def simplex_minimum(q_fun, starts, pinned=None, fatol=1e-16):
    """Smallest q_fun that derivative-free Nelder-Mead reaches from each
    start over the coordinates that ``pinned`` (index -> value) leaves free.
    Nelder-Mead stops only once its values agree within fatol, so fatol must
    exceed the rounding noise of q_fun near the minimum, or it runs to maxiter."""
    from scipy import optimize

    pinned = pinned or {}
    best = np.inf
    for start in starts:
        beta = np.array(start, dtype=float)
        beta[list(pinned)] = list(pinned.values())
        free = np.setdiff1d(np.arange(beta.size), list(pinned))

        def restricted(b):
            beta[free] = b
            return q_fun(beta)

        out = optimize.minimize(
            restricted, beta[free], method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=fatol, maxiter=4000),
        )
        best = min(best, out.fun)
    return best


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

    def test_collinear_covariates_fail_the_direction_check(self):
        """With a start value given, exactly collinear covariates pass the
        weight (its rank stays p under the CS basis) and must be caught by
        the eigenvalue check on the Gauss-Newton normal matrix."""
        rng = np.random.default_rng(17)
        x1 = rng.standard_normal((30, 3, 1))
        x = np.concatenate([x1, 2.0 * x1], axis=2)
        ds = LongitudinalDataset(rng.standard_normal((30, 3)), x)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        with pytest.raises(RankDeficient, match="moment Jacobian is rank deficient"):
            fit(cfg, ds, init=np.array([0.3, -0.1]))

    def test_non_finite_normal_matrix_is_rank_deficient(self):
        from qifaux.estimator import _Point, _direction

        class NanJacobian:
            def derivatives(self, point, u, continuous):
                return np.array([[[np.nan, 1.0], [0.0, 1.0]]]), np.zeros((1, 2))

        point = _Point(np.arange(1), np.ones((1, 2)), np.eye(2)[None], np.array([2]), None)
        error = _direction(NanJacobian(), point, np.arange(2), True)[3][0]
        with pytest.raises(RankDeficient, match="not finite"):
            raise error

    @pytest.mark.parametrize("link", ["identity", "logit"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_init_rejected(self, link, value):
        if link == "identity":
            cfg, ds = paper_problem("gmmai2", seed=1000)
        else:
            cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
            ds = logistic_panel(np.random.default_rng(19))
        with pytest.raises(ValueError, match="init must be finite"):
            fit(cfg, ds, init=[value, 0.0])

    @pytest.mark.parametrize(
        "basis_q, phi, init, message",
        [
            (4, None, None, "basis dimension 4 does not match data q=3"),
            (3, (np.zeros(2), np.zeros(2)), None, "phi vectors must have length q"),
            (3, None, np.zeros(3), "init must have shape (2,)"),
        ],
        ids=["basis-q", "phi-length", "init-shape"],
    )
    def test_mismatched_shapes_rejected(self, basis_q, phi, init, message):
        ds = random_dataset(np.random.default_rng(3))
        aux = None if phi is None else AuxiliaryInfo(sign_partition(), phi)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, basis_q), aux)
        with pytest.raises(ValueError) as err:
            fit(cfg, ds, init=init)
        assert (err.type, str(err.value)) == (ValueError, message)

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_covariance_is_the_inverse_normal_matrix(self, link):
        """Oracle: the covariance equals inv(G' W G) / n with G and W built
        from the public kernels at beta_hat."""
        from qifaux.estimator import _weight_inverse

        if link == "identity":
            cfg, ds = paper_problem("gmmai2", seed=1000)
        else:
            rng = np.random.default_rng(20)
            ds = logistic_panel(rng)
            phi = tuple(rng.uniform(0.35, 0.65, 3) for _ in range(2))
            cfg = ExtendedScoreConfig(
                BERN, build_basis(CS, 3), AuxiliaryInfo(two_group_partition(), phi)
            )
        res = fit(cfg, ds)
        jac = score_jacobian(cfg, ds, res.beta_hat)
        w_inv, _ = _weight_inverse(weight_matrix(moment_vector(cfg, ds, res.beta_hat)[1]))
        expected = np.linalg.inv(jac.T @ w_inv @ jac) / ds.n
        assert_relative(res.covariance, expected, rtol=1e-9)

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

    @pytest.mark.parametrize("spec", [GAUSS, BERN], ids=["identity", "logit"])
    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    def test_dropped_empty_subgroup_matches_config_without_it(self, spec, two_step):
        """Dropping an empty subgroup gives bitwise the fit of the config
        that never had it: the same moments in the same summation order."""
        rng = np.random.default_rng(31)
        x = rng.standard_normal((150, 3, 2))
        eta = x @ np.array([0.6, -0.4])
        if spec is GAUSS:
            y = eta + rng.standard_normal((150, 3))
        else:
            y = (rng.random((150, 3)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ds = LongitudinalDataset(y, x)
        first = x[:, 0, 0] >= 0
        phi = (y[first].mean(axis=0), np.zeros(3), y[~first].mean(axis=0))
        three = SubgroupPartition(3, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 2))
        two = SubgroupPartition(2, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 1))
        basis = build_basis(CS, 3)
        with_empty = ExtendedScoreConfig(spec, basis, AuxiliaryInfo(three, phi))
        without = ExtendedScoreConfig(spec, basis, AuxiliaryInfo(two, phi[::2]))
        options = FitOptions(two_step=two_step, allow_empty_subgroups=True)
        dropped = fit(with_empty, ds, options=options)
        plain = fit(without, ds, options=options)
        assert dropped.dropped_groups == (1,)
        assert plain.dropped_groups == ()
        np.testing.assert_array_equal(dropped.iterates, plain.iterates)
        np.testing.assert_array_equal(dropped.covariance, plain.covariance)
        assert dropped.objective == plain.objective
        tests = [
            profile_test(cfg, ds, [1], [-0.4], options=options, unrestricted=res)
            for cfg, res in ((with_empty, dropped), (without, plain))
        ]
        np.testing.assert_array_equal(tests[0].beta_restricted, tests[1].beta_restricted)
        assert tests[0].statistic == tests[1].statistic

    def test_matches_independent_simplex_minimizer(self):
        """Dual route: the solver must reach the smallest Q_n that
        derivative-free Nelder-Mead finds on the same quadratic form from
        several starts. The inputs are identity fits, logit qif and gmmai2
        fits on ``binary_panel`` data, and restricted identity solves of the
        paper's methods at near nulls, whose free coordinate the same
        simplex searches. Far nulls are left out: they can give gmmai4 two
        basins (ROADMAP item 12)."""
        rng = np.random.default_rng(2024)
        for cfg, ds, beta_true in simplex_identity_problems(rng):
            res = fit(cfg, ds)
            assert res.converged
            best = simplex_minimum(
                subject_objective(cfg, ds), (res.beta_hat, beta_true, np.zeros(ds.p))
            )
            assert res.objective <= best + 1e-10
        # the logit and restricted objectives are noisier than 1e-16 near
        # their minima
        starts = (np.array([0.5, -0.5]), np.zeros(2))
        for cfg, ds in simplex_logit_problems(rng):
            res = fit(cfg, ds)
            assert res.converged
            best = simplex_minimum(
                subject_objective(cfg, ds), (res.beta_hat, *starts), fatol=1e-14
            )
            assert res.objective <= best + 1e-10
        for method in ("qif", "gmmai2", "gmmai4"):
            for seed in (1000, 1001, 1002):
                cfg, ds = paper_problem(method, seed, n=150)
                res = fit(cfg, ds)
                q_fun = subject_objective(cfg, ds)
                for index, value in ((0, 0.5), (0, 0.6), (1, 0.0), (1, -0.5)):
                    test = profile_test(cfg, ds, [index], [value], unrestricted=res)
                    best = simplex_minimum(
                        q_fun, (res.beta_hat, *starts), {index: value}, fatol=1e-14
                    )
                    assert q_fun(test.beta_restricted) <= best + 1e-10

    def test_non_convergence_returns_last_iterate(self, monkeypatch):
        # iteration budget of zero: the fit must hand back the starting
        # point flagged as non-converged instead of raising
        monkeypatch.setattr(qifaux.estimator, "MAX_ITER", 0)
        design = SimulationDesign(n=100, seed=27, replications=1)
        ds = generate_dataset(design, replication_rng(27, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        start = np.array([0.0, 0.0])
        res = fit(cfg, ds, init=start)
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

    @pytest.mark.parametrize("start", ["zeros", "cue_optimum"])
    def test_two_step_first_iterate_uses_frozen_weight(self, start):
        """Two-step mode searches the frozen-weight objective from its first
        step on: under the identity link that objective is quadratic, so the
        first iterate is the full Gauss-Newton step beta0 - (G'WG)^{-1} G'Wg
        with W the weight inverse at beta0. At the continuous-updating
        optimum the CUE gradient is zero but this step is not."""
        from qifaux.estimator import _build_assembler, _weight_inverse

        design = SimulationDesign(n=400, seed=19, replications=1)
        ds = generate_dataset(design, replication_rng(19, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        beta0 = np.zeros(2) if start == "zeros" else fit(cfg, ds).beta_hat
        assembler, _ = _build_assembler(cfg, ds, FitOptions())
        g, contribs = assembler.moments(beta0)
        w_inv, _ = _weight_inverse(weight_matrix(contribs))
        jac = assembler.jacobian(beta0)
        expected = beta0 - np.linalg.solve(jac.T @ w_inv @ jac, jac.T @ w_inv @ g)
        res = fit(cfg, ds, init=beta0, options=FitOptions(two_step=True))
        assert res.iterations >= 1
        assert_relative(res.iterates[1], expected, rtol=1e-10)

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


def identity_jacobians(assembler):
    """(n, d, p) identity-link contribution Jacobians T_i, written out from
    the formula: -x_i' M_l x_i for the score rows and member_ik x_i for the
    auxiliary rows."""
    x = assembler.x_last.transpose(2, 0, 1)
    score = -np.einsum("nsa,lst,ntb->nlab", x, assembler.basis_stack, x)
    aux = np.einsum("kn,ntb->nktb", assembler.member_last, x)
    n, p = assembler.n, assembler.p
    return np.concatenate([score.reshape(n, -1, p), aux.reshape(n, -1, p)], axis=1)


def per_subject_half_gradient(assembler, beta, w_inv, frozen):
    """Half-gradient of the searched objective summed subject by subject,
    under the identity link.

    Frozen weight: G' W g. Continuous updating adds the weight's own
    derivative: (1/n) sum_i (1 - g_i' W g) T_i' W g.
    """
    g, contribs = assembler.moments(beta)
    tensor = identity_jacobians(assembler)
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
        # group 1 of three is empty, so its membership column and target
        # are deleted before the Gram pass
        part = SubgroupPartition(3, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 2))
        aux = AuxiliaryInfo(part, tuple(rng.standard_normal(q) for _ in range(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, q), aux)
        assembler, dropped = _build_assembler(
            cfg, ds, FitOptions(allow_empty_subgroups=True)
        )
        assert dropped == (1,)
        model = _AffineMoments([assembler], rng.standard_normal(p)[None])
        frozen_inv = None
        if two_step:
            start = assembler.contributions(rng.standard_normal(p))
            frozen_inv = _weight_inverse(weight_matrix(start))[0][None]
        for _ in range(4):
            beta = rng.standard_normal(p)
            g, contribs = assembler.moments(beta)
            sigma = weight_matrix(contribs)
            # the continuously-updated point carries the Gram cross product,
            # from which Sigma_n = w' cross with w = (1, beta - beta0)
            updated = model.evaluate([0], beta[None])
            offset = np.concatenate(([1.0], beta - model.beta0[0]))
            assert_relative(updated.g[0], g)
            assert_relative(offset @ updated.terms[0], sigma)
            w_direct = frozen_inv[0] if two_step else _weight_inverse(sigma)[0]
            point = model.evaluate([0], beta[None], frozen_inv)
            assert_relative(point.objective()[0], g @ w_direct @ g)
            u = (point.w_inv[0] @ point.g[0])[None]
            jac, half_grad = model.derivatives(point, u, not two_step)
            assert_relative(jac[0], assembler.jacobian(beta))
            assert_relative(
                half_grad[0], per_subject_half_gradient(assembler, beta, w_direct, two_step)
            )

    @pytest.mark.parametrize("structure", [IND, CS, CorrelationStructure.AR1])
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("with_aux", [False, True], ids=["score", "aux"])
    @pytest.mark.parametrize("n", [1, 57], ids=["one_subject", "panel"])
    def test_blocks_match_contributions_and_jacobians(self, structure, q, p, with_aux, n):
        """The Gram pass's subject-last blocks: column 0 is each subject's
        contribution and the others its Jacobian, written out here."""
        from qifaux.estimator import _Assembler

        rng = np.random.default_rng(1000 * q + 100 * p + 10 * with_aux + n)
        ds = random_dataset(rng, n=n, q=q, p=p)
        aux = None
        if with_aux:
            # with one subject, one of the two groups is empty
            aux = AuxiliaryInfo(sign_partition(), tuple(rng.standard_normal(q) for _ in range(2)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(structure, q), aux)
        assembler = _Assembler(cfg, ds)
        beta = rng.standard_normal(p)
        z = assembler.blocks(beta)
        assert z.shape == (cfg.moment_dimension(p), p + 1, n)
        assert z.flags.c_contiguous
        assert_relative(z[:, 0, :], assembler.contributions(beta).T, rtol=1e-12)
        assert_relative(z[:, 1:, :], identity_jacobians(assembler).transpose(1, 2, 0), rtol=1e-12)
        # one contribution kernel: column 0 is bit for bit the contributions,
        # and the Jacobian columns do not move with beta
        other = rng.standard_normal(p)
        z_other = assembler.blocks(other)
        np.testing.assert_array_equal(z[:, 0, :], assembler.contributions(beta).T)
        np.testing.assert_array_equal(z_other[:, 0, :], assembler.contributions(other).T)
        np.testing.assert_array_equal(z_other[:, 1:, :], z[:, 1:, :])

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


def logistic_panel(rng, n=300, q=3):
    """Binary panel with a normal x_1 and a time-constant binary x_2, the
    covariates the two- and four-group partitions split on."""
    x2 = rng.integers(0, 2, size=n).astype(float)
    x = np.stack([rng.standard_normal((n, q)), np.repeat(x2[:, None], q, axis=1)], axis=2)
    mu = 1.0 / (1.0 + np.exp(-(x @ np.array([0.5, -0.5]))))
    return LongitudinalDataset((rng.random((n, q)) < mu).astype(float), x)


class TestExactGradient:
    """The solver's closed-form half-gradient of the searched objective,
    against central differences of Q_n and against the Gram path."""

    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    @pytest.mark.parametrize("method", ["qif", "gmmai2", "gmmai4", "empty_dropped"])
    def test_logit_half_gradient_matches_central_differences(self, method, two_step):
        from qifaux.estimator import _SubjectMoments, _build_assembler

        rng = np.random.default_rng(["qif", "gmmai2", "gmmai4", "empty_dropped"].index(method))
        ds = logistic_panel(rng)
        partition = {
            "qif": None,
            "gmmai2": two_group_partition(),
            "gmmai4": four_group_partition(),
            # group 1 of three is empty and dropped
            "empty_dropped": SubgroupPartition(
                3, lambda xs: np.where(xs[:, 0, 1] == 1.0, 0, 2)
            ),
        }[method]
        aux = None
        if partition is not None:
            # targets near the subgroup means keep Sigma_n well conditioned
            phi = tuple(rng.uniform(0.35, 0.65, 3) for _ in range(partition.n_groups))
            aux = AuxiliaryInfo(partition, phi)
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), aux)
        assembler, dropped = _build_assembler(
            cfg, ds, FitOptions(allow_empty_subgroups=True)
        )
        assert dropped == ((1,) if method == "empty_dropped" else ())
        model = _SubjectMoments([assembler])
        truth = np.array([0.5, -0.5])
        frozen_inv = None
        if two_step:
            frozen_inv = model.evaluate([0], (truth + 0.2 * rng.standard_normal(2))[None]).w_inv

        def searched(beta):
            return model.evaluate([0], beta[None], frozen_inv).objective()[0]

        h = 1e-5
        for _ in range(3):
            # beta_1 = 0 makes mu constant within subjects, where the x_2
            # score rows are proportional and Sigma_n singular; stay clear
            beta = truth + 0.15 * rng.standard_normal(2)
            point = model.evaluate([0], beta[None], frozen_inv)
            u = (point.w_inv[0] @ point.g[0])[None]
            _, half_grad = model.derivatives(point, u, not two_step)
            fd = [(searched(beta + e) - searched(beta - e)) / (4 * h) for e in h * np.eye(2)]
            assert_relative(half_grad[0], fd, rtol=1e-6)

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    def test_identity_half_gradient_equals_gram_path(self, p, two_step):
        """One closed form serves both links: under the identity link the
        per-subject half-gradient, and under continuous updating the
        per-subject Hessian, whose second-order terms all vanish, are the
        Gram path's."""
        from qifaux.estimator import _AffineMoments, _SubjectMoments, _build_assembler

        rng = np.random.default_rng(40 + 2 * p + two_step)
        ds = random_dataset(rng, n=120, q=3, p=p)
        part = SubgroupPartition(3, lambda xs: np.where(xs[:, 0, 0] >= 0, 0, 2))
        aux = AuxiliaryInfo(part, tuple(rng.standard_normal(3) for _ in range(3)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), aux)
        assembler, _ = _build_assembler(cfg, ds, FitOptions(allow_empty_subgroups=True))
        subject = _SubjectMoments([assembler])
        gram = _AffineMoments([assembler], rng.standard_normal(p)[None])
        frozen_inv = None
        if two_step:
            frozen_inv = subject.evaluate([0], rng.standard_normal(p)[None]).w_inv
        for _ in range(4):
            beta = rng.standard_normal(p)[None]
            point = subject.evaluate([0], beta, frozen_inv)
            u = (point.w_inv[0] @ point.g[0])[None]
            jac, half_grad = subject.derivatives(point, u, not two_step)
            gram_point = gram.evaluate([0], beta, frozen_inv)
            jac_gram, half_grad_gram = gram.derivatives(gram_point, u, not two_step)
            assert_relative(jac, jac_gram, rtol=1e-12)
            assert_relative(half_grad, half_grad_gram, rtol=1e-12)
            if not two_step:
                assert_relative(
                    subject.hessian(point, u), gram.hessian(gram_point, u), rtol=1e-12
                )

    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    def test_logit_link_terms_once_per_evaluation(self, monkeypatch, two_step):
        """The gradient at an accepted point reuses the link terms of the
        evaluation that accepted it, so a logit fit and profile test compute
        them exactly once per Q_n evaluation."""
        from qifaux.estimator import _Assembler, _SubjectMoments

        counts = {"link_terms": 0, "evaluate": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            _Assembler, "_link_terms", counting("link_terms", _Assembler._link_terms)
        )
        monkeypatch.setattr(
            _SubjectMoments, "evaluate", counting("evaluate", _SubjectMoments.evaluate)
        )
        ds = logistic_panel(np.random.default_rng(7), n=400)
        aux = AuxiliaryInfo(two_group_partition(), (np.full(3, 0.4), np.full(3, 0.6)))
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), aux)
        options = FitOptions(two_step=two_step)
        res = fit(cfg, ds, options=options)
        assert res.converged and res.iterations > 0
        profile_test(cfg, ds, [1], [-0.3], options=options, unrestricted=res)
        assert counts["evaluate"] > res.iterations
        assert counts["link_terms"] == counts["evaluate"]


def binary_panel(n, rng, rho=0.5):
    """Binary panel with exactly logistic marginals: CS-normal x_1,
    Bernoulli x_2 and Y_j = 1{Phi(Z_j) < expit(eta_j)}, Z CS-normal."""
    q = 3
    chol = np.linalg.cholesky(correlation_matrix(CS, q, rho))
    x1 = rng.standard_normal((n, q)) @ chol.T
    x2 = rng.integers(0, 2, size=n).astype(float)
    mean = expit(0.5 * x1 - 0.5 * x2[:, None])
    y = (ndtr(rng.standard_normal((n, q)) @ chol.T) < mean).astype(float)
    x = np.stack([x1, np.repeat(x2[:, None], q, axis=1)], axis=2)
    return LongitudinalDataset(y, x)


def logit_contributions_per_subject(cfg, ds, beta):
    """(n, d) logit-link contributions and the (d, p) truncated mean
    Jacobian, subject by subject from the formula
    g_i = [D_i' A_i^(-1/2) M_l A_i^(-1/2) (y_i - mu_i); 1{i in Omega_k} (mu_i - phi_k)]
    with D_i = dmu_i/dbeta' and A_i = diag(mu_i (1 - mu_i)); the truncated
    Jacobian keeps -D_i' A_i^(-1/2) M_l A_i^(-1/2) D_i and 1{i in Omega_k} D_i."""
    groups = np.full(ds.n, -1)
    phi = ()
    if cfg.aux is not None:
        groups = cfg.aux.partition.group_indices(ds)
        phi = cfg.aux.phi
    contribs, jac = [], 0.0
    for x_i, y_i, group in zip(ds.covariates, ds.responses, groups):
        mu = expit(x_i @ beta)
        d_i = (mu * (1.0 - mu))[:, None] * x_i
        root = np.diag((mu * (1.0 - mu)) ** -0.5)
        score = [d_i.T @ root @ m @ root @ (y_i - mu) for m in cfg.basis.matrices]
        score_jac = [-d_i.T @ root @ m @ root @ d_i for m in cfg.basis.matrices]
        aux = [(k == group) * (mu - phi_k) for k, phi_k in enumerate(phi)]
        aux_jac = [(k == group) * d_i for k in range(len(phi))]
        contribs.append(np.concatenate(score + aux))
        jac = jac + np.concatenate(score_jac + aux_jac)
    return np.array(contribs), jac / ds.n


class TestLogitMoments:
    """The logit link's per-evaluation kernels run subject-last; they must
    agree with the formula written out one subject at a time."""

    @pytest.mark.parametrize("structure", [IND, CS, CorrelationStructure.AR1])
    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("with_aux", [False, True], ids=["score", "aux"])
    @pytest.mark.parametrize("n", [1, 57], ids=["one_subject", "panel"])
    def test_logit_contributions_match_per_subject_formula(self, structure, q, p, with_aux, n):
        from qifaux.estimator import _Assembler

        rng = np.random.default_rng(2000 * q + 100 * p + 10 * with_aux + n)
        x = rng.standard_normal((n, q, p))
        y = (rng.random((n, q)) < 0.5).astype(float)
        ds = LongitudinalDataset(y, x)
        aux = None
        if with_aux:
            # with one subject, one of the two groups is empty
            aux = AuxiliaryInfo(sign_partition(), tuple(rng.uniform(0.3, 0.7, q) for _ in range(2)))
        cfg = ExtendedScoreConfig(BERN, build_basis(structure, q), aux)
        assembler = _Assembler(cfg, ds)
        beta = 0.5 * rng.standard_normal(p)
        contribs, jac = logit_contributions_per_subject(cfg, ds, beta)
        c = assembler._contributions(*assembler._link_terms(beta))
        assert c.shape == (cfg.moment_dimension(p), n)
        assert c.flags.c_contiguous
        assert_relative(c, contribs.T, rtol=1e-12)
        assert_relative(assembler.contributions(beta), contribs, rtol=1e-12)
        assert_relative(assembler.jacobian(beta), jac, rtol=1e-12)


class TestLogitCalibration:
    def test_qif_profile_size_and_wald_coverage(self):
        """Monte Carlo calibration of a logit qif fit (CS basis) on
        ``binary_panel`` panels, n = 300, R = 300 replications: the profile
        test of the true beta_2 = -0.5 rejects at 5% within 2 MC SEs of
        0.05, and the 95% Wald interval covers beta_1 = 0.5 within 2 MC SEs
        of 0.95. Both MC SEs are sqrt(0.05 * 0.95 / R) = 0.0126."""
        reps, n = 300, 300
        rng = np.random.default_rng(23)
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
        rejected = covered = 0
        for _ in range(reps):
            ds = binary_panel(n, rng)
            res = fit(cfg, ds)
            assert res.converged
            test = profile_test(cfg, ds, [1], [-0.5], unrestricted=res)
            rejected += test.p_value < 0.05
            lo, hi = wald_interval(res, 0)
            covered += lo <= 0.5 <= hi
        mc_se = np.sqrt(0.05 * 0.95 / reps)
        assert abs(rejected / reps - 0.05) <= 2 * mc_se
        assert abs(covered / reps - 0.95) <= 2 * mc_se

    def test_fits_converge_within_six_iterations(self):
        """The logit fits take Newton steps: every qif fit on the panels
        above (seed 23, n = 300, R = 300) converges within 6 iterations,
        where Gauss-Newton steps took up to 18."""
        rng = np.random.default_rng(23)
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
        for _ in range(300):
            res = fit(cfg, binary_panel(300, rng))
            assert res.converged and res.iterations <= 6


def paper_problem(method, seed, r=0, n=300):
    """Replication r of the paper's design as run_monte_carlo builds it."""
    design = SimulationDesign(n=n, beta_true=(0.5, -0.5), seed=seed, replications=r + 1)
    ds = generate_dataset(design, replication_rng(seed, r, 0))
    return ExtendedScoreConfig(GAUSS, build_basis(CS, 3), _method_aux(method, design, r)), ds


class _WithoutHessian:
    """A moment model's derivatives without its ``hessian``, so that the
    solver's direction takes no Newton step."""

    def __init__(self, model):
        self.model = model

    def derivatives(self, point, u, continuous):
        return self.model.derivatives(point, u, continuous)


def gauss_newton_direction(model, point, free, continuous):
    """Reference: the solver's own direction with Newton steps switched
    off, for each problem of the stacked point."""
    return _direction(_WithoutHessian(model), point, free, continuous)


class TestNewtonStep:
    """Exact Hessian of the identity-link CUE objective and the Newton
    steps it drives in restricted solves."""

    @pytest.mark.parametrize("method", ["qif", "gmmai2", "gmmai4"])
    def test_hessian_matches_central_differences(self, method):
        from qifaux.estimator import _AffineMoments, _build_assembler

        cfg, ds = paper_problem(method, seed=1003)
        assembler, _ = _build_assembler(cfg, ds, FitOptions())
        rng = np.random.default_rng(7)
        model = _AffineMoments(
            [assembler], (np.array([0.5, -0.5]) + 0.1 * rng.standard_normal(2))[None]
        )

        def half_grad(beta):
            point = model.evaluate([0], beta[None])
            return model.derivatives(point, (point.w_inv[0] @ point.g[0])[None], True)[1][0]

        h = 1e-5
        for _ in range(3):
            # off the optimum, where the weight-derivative terms are large
            beta = np.array([0.5, -0.5]) + 0.3 * rng.standard_normal(2)
            point = model.evaluate([0], beta[None])
            if method == "gmmai4":
                # the x_2 score rows are proportional: Sigma_n has rank 15 of 16
                assert point.rank[0] == point.g.shape[1] - 1
            hess = model.hessian(point, (point.w_inv[0] @ point.g[0])[None])[0]
            fd = np.column_stack(
                [(half_grad(beta + e) - half_grad(beta - e)) / (2 * h) for e in h * np.eye(2)]
            )
            assert_relative(hess, fd, rtol=1e-7)
            assert_relative(hess, hess.T, rtol=1e-12)

    def test_newton_step_solves_the_hessian_system(self):
        """Oracle: at a restricted identity-link point with a positive
        definite H_ff, the step is -solve(H_ff, h_f) over two free
        coordinates."""
        from qifaux.estimator import _AffineMoments, _build_assembler

        rng = np.random.default_rng(21)
        x = rng.standard_normal((200, 3, 3))
        y = x @ np.array([0.5, -0.5, 0.25]) + rng.standard_normal((200, 3))
        ds = LongitudinalDataset(y, x)
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        assembler, _ = _build_assembler(cfg, ds, FitOptions())
        beta = fit(cfg, ds).beta_hat.copy()
        beta[2] = 0.0
        free = np.array([0, 1])
        model = _AffineMoments([assembler], beta[None])
        point = model.evaluate([0], beta[None])
        u = (point.w_inv[0] @ point.g[0])[None]
        h_f = model.derivatives(point, u, True)[1][0, free]
        hess = model.hessian(point, u)[0][np.ix_(free, free)]
        assert np.linalg.eigvalsh(hess).min() > 0.0
        step = _direction(model, point, free, True)[1][0]
        assert_relative(step, -np.linalg.solve(hess, h_f), rtol=1e-9)

    def test_formerly_creeping_restricted_solve_converges(self, monkeypatch):
        # gmmai4 under the false null beta_2 = 0 in replication 0 of design
        # 1014: Gauss-Newton used up all MAX_ITER = 100 iterations here
        from qifaux.estimator import _AffineMoments, _build_assembler, _minimize

        cfg, ds = paper_problem("gmmai4", seed=1014)
        beta_start = fit(cfg, ds).beta_hat.copy()
        beta_start[1] = 0.0
        assembler, _ = _build_assembler(cfg, ds, FitOptions())
        free = np.array([0])
        start = beta_start[None]
        (sol,) = _minimize(_AffineMoments([assembler], start), [0], start, free, FitOptions())
        assert sol.converged and sol.iterations <= 10
        model = _AffineMoments([assembler], sol.beta[None])
        point = model.evaluate([0], sol.beta[None])
        _, half_grad = model.derivatives(point, (point.w_inv[0] @ point.g[0])[None], True)
        assert abs(half_grad[0, 0]) < 1e-8

        monkeypatch.setattr(qifaux.estimator, "_direction", gauss_newton_direction)
        (creeping,) = _minimize(
            _AffineMoments([assembler], start), [0], start, free, FitOptions()
        )
        assert not creeping.converged
        assert creeping.iterations == qifaux.estimator.MAX_ITER
        assert sol.objective < creeping.objective

    @pytest.mark.parametrize(
        "method, two_step",
        [
            pytest.param(method, two_step, id=f"{method}-{'two_step' if two_step else 'cue'}")
            for method in ("qif", "gmmai2", "gmmai4", "logit")
            for two_step in (False, True)
            # test_logit_cue_solves_take_bounded_newton_steps
            if method != "logit" or two_step
        ],
    )
    def test_fits_and_other_profile_tests_take_gauss_newton_steps(
        self, monkeypatch, method, two_step
    ):
        """Identity-link fits and every two-step solve take Gauss-Newton
        steps only: fits and profile tests equal the Gauss-Newton-only
        solver bit for bit."""
        if method == "logit":
            rng = np.random.default_rng(11)
            ds = logistic_panel(rng)
            phi = tuple(rng.uniform(0.35, 0.65, 3) for _ in range(2))
            cfg = ExtendedScoreConfig(
                BERN, build_basis(CS, 3), AuxiliaryInfo(two_group_partition(), phi)
            )
        else:
            cfg, ds = paper_problem(method, seed=1014)
        options = FitOptions(two_step=two_step)
        # Gauss-Newton creeps on the continuously-updated identity-link
        # restricted solve of this false null: only the fit is compared there
        with_test = method == "logit" or two_step

        def run():
            res = fit(cfg, ds, options=options)
            if not with_test:
                return res, None
            return res, profile_test(cfg, ds, [1], [0.0], options=options, unrestricted=res)

        res, test = run()
        monkeypatch.setattr(qifaux.estimator, "_direction", gauss_newton_direction)
        ref_res, ref_test = run()
        for field in ("beta_hat", "covariance", "objective", "iterations", "iterates"):
            np.testing.assert_array_equal(getattr(res, field), getattr(ref_res, field))
        if with_test:
            np.testing.assert_array_equal(test.beta_restricted, ref_test.beta_restricted)
            assert test.statistic == ref_test.statistic


    @pytest.mark.parametrize("with_aux", [False, True], ids=["qif", "gmmai2"])
    def test_logit_hessian_matches_central_differences(self, with_aux):
        """The per-subject model's exact Hessian of Q_n / 2 under the logit
        link, at several beta away from the optimum, against central
        differences of its exact half-gradient."""
        from qifaux.estimator import _SubjectMoments, _build_assembler

        rng = np.random.default_rng(50 + with_aux)
        ds = binary_panel(400, rng)
        aux = None
        if with_aux:
            aux = AuxiliaryInfo(two_group_partition(), (np.full(3, 0.4), np.full(3, 0.6)))
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), aux)
        model = _SubjectMoments([_build_assembler(cfg, ds, FitOptions())[0]])

        def half_grad(beta):
            point = model.evaluate([0], beta[None])
            return model.derivatives(point, (point.w_inv[0] @ point.g[0])[None], True)[1][0]

        h = 1e-5
        for _ in range(4):
            beta = np.array([0.5, -0.5]) + 0.3 * rng.standard_normal(2)
            point = model.evaluate([0], beta[None])
            hess = model.hessian(point, (point.w_inv[0] @ point.g[0])[None])[0]
            fd = np.column_stack(
                [(half_grad(beta + e) - half_grad(beta - e)) / (2 * h) for e in h * np.eye(2)]
            )
            assert_relative(hess, fd, rtol=1e-6)
            assert_relative(hess, hess.T, rtol=1e-12)

    def test_logit_cue_solves_take_bounded_newton_steps(self, monkeypatch):
        """A continuously-updated logit fit and profile test step to
        -solve(H_ff, h_f) where H_ff is positive definite and that step's
        largest coordinate is at most ``newton_bound`` times the
        Gauss-Newton step's, and take the Gauss-Newton step elsewhere,
        without a Hessian where even that longest step would end the
        search. On this panel, with targets away from the subgroup means,
        the fit meets an indefinite H_ff, then a Newton step too long to
        take, before its Newton steps."""
        from qifaux.estimator import _SubjectMoments

        rng = np.random.default_rng(11)
        ds = logistic_panel(rng)
        phi = tuple(rng.uniform(0.35, 0.65, 3) for _ in range(2))
        cfg = ExtendedScoreConfig(
            BERN, build_basis(CS, 3), AuxiliaryInfo(two_group_partition(), phi)
        )
        seen = []

        def recording(model, point, free, continuous):
            out = _direction(model, point, free, continuous)
            seen.append((model, point, free, out[1]))
            return out

        monkeypatch.setattr(qifaux.estimator, "_direction", recording)
        res = fit(cfg, ds)
        profile_test(cfg, ds, [1], [0.0], unrestricted=res)
        branches = set()
        for model, point, free, step in seen:
            u = (point.w_inv[0] @ point.g[0])[None]
            h_f = model.derivatives(point, u, True)[1][0, free]
            hess = model.hessian(point, u)[0][np.ix_(free, free)]
            newton = -np.linalg.solve(hess, h_f)
            gauss_newton = gauss_newton_direction(model, point, free, True)[1][0]
            bound = _SubjectMoments.newton_bound * np.abs(gauss_newton).max()
            if bound < qifaux.estimator.STEP_TOL:
                np.testing.assert_array_equal(step[0], gauss_newton)
                branches.add("search ends")
            elif np.linalg.eigvalsh(hess).min() <= 0.0 or np.abs(newton).max() > bound:
                np.testing.assert_array_equal(step[0], gauss_newton)
                branches.add("indefinite" if np.linalg.eigvalsh(hess).min() <= 0.0 else "too long")
            else:
                assert_relative(step[0], newton, rtol=1e-9)
                branches.add("fit" if free.size == 2 else "restricted")
        assert branches == {"fit", "restricted", "indefinite", "too long", "search ends"}

    def test_bounded_newton_step_stays_off_the_plateau(self, monkeypatch):
        """The simplex oracle's last logit input (gmmai2 on its sixth
        panel): at the fit's second iterate H is barely positive definite
        and its Newton step is hundreds of times the Gauss-Newton step,
        towards where the CUE objective levels off. Refused, the fit
        converges to the local minimum Nelder-Mead finds, Q_n = 0.091303;
        taken, it runs off to |beta| in the thousands."""
        from qifaux.estimator import _SubjectMoments

        rng = np.random.default_rng(2024)
        # the identity inputs come first in the oracle's stream
        for _ in simplex_identity_problems(rng):
            pass
        cfg, ds = list(simplex_logit_problems(rng))[-1]
        res = fit(cfg, ds)
        assert res.converged
        assert abs(res.objective - 0.091303) < 1e-6
        assert np.abs(res.beta_hat).max() < 1.0
        monkeypatch.setattr(_SubjectMoments, "newton_bound", 1e6)
        assert np.abs(fit(cfg, ds).beta_hat).max() > 1e3


class TestLockstep:
    """Every problem of a lockstep batch comes out bit for bit as when it is
    solved alone, as a batch of one, whatever its neighbours do."""

    @staticmethod
    def solve_each_way(assemblers, beta0, start, free, options=FitOptions()):
        """``_minimize`` over the whole stack, checked slice by slice against
        each problem alone; returns the batch's outcomes."""
        from qifaux.estimator import _minimize, _model

        batch = _minimize(
            _model(assemblers, beta0), np.arange(len(assemblers)), start, free, options
        )
        for j, out in enumerate(batch):
            (alone,) = _minimize(
                _model([assemblers[j]], beta0[j : j + 1]), [0], start[j : j + 1], free, options
            )
            TestLockstep.assert_same(out, alone)
        return batch

    @staticmethod
    def assert_same(out, other):
        """Two outcomes of ``_minimize`` are equal, every field bit for bit."""
        from qifaux.estimator import _Solution

        assert type(out) is type(other)
        if isinstance(out, Exception):
            assert str(out) == str(other)
            return
        for field in _Solution._fields:
            np.testing.assert_array_equal(getattr(out, field), getattr(other, field), err_msg=field)

    @staticmethod
    def paper_batch(method, seed, replications, hypothesis=None):
        """(assemblers, fit starts, solve starts) of a design's replications,
        the starts of a restricted solve when a (index, value) is given."""
        from qifaux.estimator import _build_assembler

        assemblers, beta0, start = [], [], []
        for r in range(replications):
            cfg, ds = paper_problem(method, seed, r)
            assemblers.append(_build_assembler(cfg, ds, FitOptions())[0])
            res = fit(cfg, ds)
            beta0.append(res.iterates[0])
            start.append(res.beta_hat.copy() if hypothesis else res.iterates[0])
            if hypothesis:
                start[-1][hypothesis[0]] = hypothesis[1]
        return assemblers, np.array(beta0), np.array(start)

    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    def test_failing_problems_retire_alone(self, two_step):
        """A collinear panel fails the rank check of its normal matrix and a
        one-subject panel its weight rank, each with its own error, while
        the healthy fits beside them run on."""
        from qifaux.estimator import _build_assembler, _Solution

        cfg, _ = paper_problem("qif", 1000)
        rng = np.random.default_rng(17)
        x1 = rng.standard_normal((30, 3, 1))
        collinear = LongitudinalDataset(
            rng.standard_normal((30, 3)), np.concatenate([x1, 2.0 * x1], axis=2)
        )
        lonely = LongitudinalDataset(np.array([[1.0, 2.0, 0.5]]), rng.standard_normal((1, 3, 2)))
        panels = [paper_problem("qif", seed)[1] for seed in (1000, 1001)]
        panels[1:1] = [collinear, lonely]
        assemblers = [_build_assembler(cfg, ds, FitOptions())[0] for ds in panels]
        beta0 = np.array([initial_estimate(cfg, ds) for ds in panels[::3]])
        beta0 = np.insert(beta0, 1, [[0.3, -0.1], [0.3, -0.1]], axis=0)
        out = self.solve_each_way(
            assemblers, beta0, beta0, np.arange(2), FitOptions(two_step=two_step)
        )
        assert isinstance(out[1], RankDeficient)
        assert "moment Jacobian is rank deficient" in str(out[1])
        assert isinstance(out[2], SingularWeightMatrix)
        assert all(isinstance(o, _Solution) and o.converged for o in out[::3])

    @pytest.mark.parametrize("value", [-np.inf, np.inf, np.nan])
    def test_non_finite_hessian_falls_back_to_gauss_newton_alone(self, monkeypatch, value):
        """In a stack of restricted solves, the one problem whose H_ff is
        not finite takes Gauss-Newton steps and its neighbours Newton steps,
        each as when it is solved alone. A Cholesky factor exists for a
        1x1 H_ff of +inf, and OpenBLAS finds one for NaN; eigvalsh returns
        +inf for the one and may return anything for the other, so only
        the finite stand-in sends both to Gauss-Newton."""
        from qifaux.estimator import _AffineMoments, _minimize, _model

        assemblers, beta0, start = self.paper_batch("gmmai2", 1003, 3, (1, 0.0))
        free = np.array([0])
        newton = self.solve_each_way(assemblers, beta0, start, free)
        hessian = _AffineMoments.hessian

        def poisoned(model, point, u):
            hess = hessian(model, point, u)
            hess[(model.beta0[point.rows] == beta0[1]).all(axis=1)] = value
            return hess

        monkeypatch.setattr(_AffineMoments, "hessian", poisoned)
        out = self.solve_each_way(assemblers, beta0, start, free)
        monkeypatch.setattr(qifaux.estimator, "_direction", gauss_newton_direction)
        (gauss_newton,) = _minimize(
            _model(assemblers[1:2], beta0[1:2]), [0], start[1:2], free, FitOptions()
        )
        self.assert_same(out[1], gauss_newton)
        assert not np.array_equal(out[1].iterates, newton[1].iterates)
        for j in (0, 2):
            self.assert_same(out[j], newton[j])

    def test_problem_at_max_iter_beside_converged_ones(self, monkeypatch):
        """With Gauss-Newton steps only, the restricted gmmai4 solve of
        design 1014, replication 0, creeps to MAX_ITER; its neighbours
        converge and leave the batch before it."""
        monkeypatch.setattr(qifaux.estimator, "_direction", gauss_newton_direction)
        assemblers, beta0, start = self.paper_batch("gmmai4", 1014, 4, (1, 0.0))
        out = self.solve_each_way(assemblers, beta0, start, np.array([0]))
        assert not out[0].converged
        assert out[0].iterations == qifaux.estimator.MAX_ITER
        assert all(o.converged and o.iterations < qifaux.estimator.MAX_ITER for o in out[1:])

    def test_slowest_paper_restricted_solve(self):
        """The slowest restricted solve of the benchmark's Monte Carlo
        designs (seed 1082, replication 0, gmmai4, beta_2 = 0) takes 31
        iterations, most of them after the rest of its batch has retired."""
        assemblers, beta0, start = self.paper_batch("gmmai4", 1082, 5, (1, 0.0))
        out = self.solve_each_way(assemblers, beta0, start, np.array([0]))
        assert out[0].converged and out[0].iterations == 31
        assert all(o.converged and o.iterations < 10 for o in out[1:])

    @pytest.mark.parametrize("two_step", [False, True], ids=["cue", "two_step"])
    def test_joint_null_is_a_solve_with_nothing_free(self, two_step):
        """Pinning both coordinates leaves an empty free set: every search
        stops at iteration 0 on the null, with the model's own Q_n there."""
        from qifaux.estimator import _model

        assemblers, beta0, _ = self.paper_batch("gmmai4", 1014, 4)
        start = np.tile([0.5, -0.5], (4, 1))
        out = self.solve_each_way(
            assemblers, beta0, start, np.arange(0), FitOptions(two_step=two_step)
        )
        q_null = _model(assemblers, beta0).evaluate(np.arange(4), start).objective()
        for sol, q in zip(out, q_null):
            assert sol.converged and sol.iterations == 0
            np.testing.assert_array_equal(sol.beta, [0.5, -0.5])
            assert sol.objective == q

    def test_logit_batch_of_one_failing_at_its_start(self):
        """A logit problem whose weight has rank below p at its start leaves
        before any direction is computed, with its own error."""
        x = np.random.default_rng(0).standard_normal((1, 3, 2))
        ds = LongitudinalDataset(np.array([[1.0, 0.0, 1.0]]), x)
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
        for two_step in (False, True):
            with pytest.raises(SingularWeightMatrix, match="rank 1 < parameter dimension 2"):
                fit(cfg, ds, init=np.zeros(2), options=FitOptions(two_step=two_step))

    def test_fits_of_a_batch_equal_their_public_fits(self):
        """``fit`` is the batch of one: every fit of a lockstep batch equals
        the public ``fit`` of its problem, covariance included."""
        from qifaux.estimator import _fit

        problems = [paper_problem("gmmai2", 1003, r) for r in range(4)]
        outcomes = _fit([c for c, _ in problems], [ds for _, ds in problems], FitOptions())
        for (cfg, ds), out in zip(problems, outcomes):
            alone = fit(cfg, ds)
            for field in ("beta_hat", "covariance", "objective", "iterations", "iterates"):
                np.testing.assert_array_equal(getattr(out.result, field), getattr(alone, field))


class TestInitialEstimate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_logit_start_stops_early_at_the_capped_value(self, monkeypatch, seed):
        """Fisher scoring stops once its step falls below STEP_TOL, and the
        start equals the one after all FISHER_STEPS steps."""
        ds = binary_panel(3000, np.random.default_rng(seed))
        cfg = ExtendedScoreConfig(BERN, build_basis(CS, 3), None)
        calls = []
        mean_curve = qifaux.estimator.mean_curve

        def counting(spec, eta):
            calls.append(1)
            return mean_curve(spec, eta)

        monkeypatch.setattr(qifaux.estimator, "mean_curve", counting)
        start = initial_estimate(cfg, ds)
        steps = len(calls)
        # a zero tolerance never stops early: all FISHER_STEPS steps
        monkeypatch.setattr(qifaux.estimator, "STEP_TOL", 0.0)
        capped = initial_estimate(cfg, ds)
        assert len(calls) - steps == qifaux.estimator.FISHER_STEPS
        assert steps < qifaux.estimator.FISHER_STEPS
        assert_relative(start, capped, rtol=1e-13)


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

    def test_joint_null_forms_no_hessian(self, monkeypatch):
        """A joint null leaves nothing free, so its solve forms no Hessian;
        a null that leaves a coordinate free does form one."""
        design = SimulationDesign(n=300, seed=13, replications=1)
        ds = generate_dataset(design, replication_rng(design.seed, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), build_two_group_aux())
        res = fit(cfg, ds)

        def no_hessian(self, point, u):
            raise AssertionError("Hessian formed")

        monkeypatch.setattr(qifaux.estimator._AffineMoments, "hessian", no_hessian)
        for given in (res, None):
            out = profile_test(cfg, ds, [0, 1], [0.5, -0.5], unrestricted=given)
            assert out.df == 2 and out.beta_restricted.tolist() == [0.5, -0.5]
        with pytest.raises(AssertionError, match="Hessian formed"):
            profile_test(cfg, ds, [1], [0.0], unrestricted=res)

    def test_joint_null_on_a_one_subject_panel_raises(self):
        """The weight of one subject has rank 1, so the joint null's solve
        with nothing free stops at its start on the weight's rank."""
        rng = np.random.default_rng(17)
        ds = LongitudinalDataset(np.array([[1.0, 2.0, 0.5]]), rng.standard_normal((1, 3, 2)))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        res = qifaux.estimator.FitResult(
            beta_hat=np.array([0.5, -0.5]),
            covariance=np.eye(2),
            objective=0.0,
            iterations=0,
            converged=True,
            gradient_norm=0.0,
        )
        with pytest.raises(SingularWeightMatrix, match="rank 1 < parameter dimension 2"):
            profile_test(cfg, ds, [0, 1], [0.5, -0.5], unrestricted=res)

    @pytest.mark.parametrize(
        "constant, value, reason",
        [("MAX_ITER", 1, "reached MAX_ITER"), ("MAX_HALVINGS", -1, "no achievable decrease")],
    )
    def test_unconverged_restricted_solve_raises(self, monkeypatch, constant, value, reason):
        # the Newton solve of this restricted problem takes 6 iterations
        cfg, ds = paper_problem("gmmai4", seed=1014)
        res = fit(cfg, ds)
        monkeypatch.setattr(qifaux.estimator, constant, value)
        with pytest.raises(NotConverged, match=f"at iteration 1: {reason}") as err:
            profile_test(cfg, ds, [1], [0.0], unrestricted=res)
        assert err.value.iterations == 1
        assert isinstance(err.value, QifauxError)

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
        for indices in ([0.9], [1.9], [True], [1, True], np.array([1.0])):
            with pytest.raises(ValueError, match="constrained indices must be integers"):
                profile_test(cfg, ds, indices, [0.5] * len(indices))
        from_array = profile_test(cfg, ds, np.array([1], dtype=np.int32), [0.0])
        from_list = profile_test(cfg, ds, [1], [0.0])
        assert from_array.statistic == from_list.statistic
        assert np.array_equal(from_array.beta_restricted, from_list.beta_restricted)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_null_value_rejected(self, value):
        cfg, ds = paper_problem("qif", seed=1000)
        with pytest.raises(ValueError, match="constrained values must be finite"):
            profile_test(cfg, ds, [0], [value])

    @pytest.mark.parametrize("field", ["beta_hat", "iterates"])
    def test_non_finite_unrestricted_rejected(self, field):
        cfg, ds = paper_problem("qif", seed=1000)
        res = fit(cfg, ds)
        poisoned = getattr(res, field).copy()
        poisoned.flat[0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            profile_test(cfg, ds, [1], [0.0], unrestricted=replace(res, **{field: poisoned}))

    @pytest.mark.parametrize("length", [1, 3])
    def test_unrestricted_of_wrong_length_rejected(self, length):
        design = SimulationDesign(n=100, seed=25, replications=1)
        ds = generate_dataset(design, replication_rng(25, 0, 0))
        cfg = ExtendedScoreConfig(GAUSS, build_basis(CS, 3), None)
        res = fit(cfg, ds)
        wrong = replace(res, beta_hat=np.resize(res.beta_hat, length))
        with pytest.raises(ValueError, match=r"unrestricted.beta_hat must have shape \(2,\)"):
            profile_test(cfg, ds, [1], [0.0], unrestricted=wrong)
        rows = len(res.iterates)
        for iterates in (np.resize(res.iterates, (rows, length)), np.zeros((0, 2))):
            wrong = replace(res, iterates=iterates)
            with pytest.raises(
                ValueError, match=r"unrestricted.iterates\[0\] must have shape \(2,\)"
            ):
                profile_test(cfg, ds, [1], [0.0], unrestricted=wrong)

    def test_fit_and_its_tests_make_one_gram_pass(self, monkeypatch):
        """A test without ``unrestricted`` searches the moment model its own
        fit built; one given ``unrestricted`` builds one at that fit's start."""
        cfg, ds = paper_problem("gmmai2", seed=1000)
        res = fit(cfg, ds)
        calls = []
        blocks = qifaux.estimator._Assembler.blocks

        def counting(self, beta):
            calls.append(beta.copy())
            return blocks(self, beta)

        monkeypatch.setattr(qifaux.estimator._Assembler, "blocks", counting)
        profile_test(cfg, ds, [1], [0.0])
        assert len(calls) == 1
        profile_test(cfg, ds, [1], [0.0], unrestricted=res)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[1], res.iterates[0])

    @pytest.mark.parametrize("method", ["qif", "gmmai4"])
    def test_both_public_routes_agree_bitwise(self, method):
        cfg, ds = paper_problem(method, seed=1014)
        given = profile_test(cfg, ds, [1], [0.0], unrestricted=fit(cfg, ds))
        assert profile_test(cfg, ds, [1], [0.0]).statistic == given.statistic

    def test_unrecorded_start_falls_back_to_the_estimate(self):
        """Without iterates the model expands at beta_hat; under the
        identity link that changes only rounding."""
        cfg, ds = paper_problem("gmmai4", seed=1014)
        res = fit(cfg, ds)
        assert not np.array_equal(res.iterates[0], res.beta_hat)
        at_start = profile_test(cfg, ds, [1], [0.0], unrestricted=res).statistic
        bare = replace(res, iterates=None)
        at_estimate = profile_test(cfg, ds, [1], [0.0], unrestricted=bare).statistic
        assert at_start > 1.0
        assert abs(at_estimate - at_start) <= 1e-12 * max(1.0, abs(at_start))

    def test_report_round_trip_keeps_the_statistic(self):
        cfg, ds = paper_problem("gmmai2", seed=1000)
        res = fit(cfg, ds)
        parsed = parse_structured_report(emit_report(res, "structured"))["fit"]
        np.testing.assert_array_equal(parsed.iterates, res.iterates)
        direct = profile_test(cfg, ds, [1], [0.0], unrestricted=res)
        assert profile_test(cfg, ds, [1], [0.0], unrestricted=parsed).statistic == (
            direct.statistic
        )


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

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 95.0])
    def test_wald_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(ValueError) as err:
            wald_interval(self._result(), 0, level)
        assert (err.type, str(err.value)) == (ValueError, "level must be in (0, 1)")

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
