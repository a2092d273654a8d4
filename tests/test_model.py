"""Marginal model core: means, derivatives, variance weights."""

from dataclasses import fields

import numpy as np
import pytest

from qifaux import Link, LongitudinalDataset, MarginalModelSpec
from qifaux.model import (
    MEAN_CLAMP,
    mean_curve,
    mean_derivative,
    mean_second_derivative,
    variance_function,
    variance_weight_derivative,
)

GAUSS = MarginalModelSpec.gaussian()
BERN = MarginalModelSpec.bernoulli()


def mean_jacobian(spec, x, beta):
    """(n, q, p) derivatives d mu_ij / d beta by the chain rule."""
    mu = mean_curve(spec, x @ beta)
    return mean_derivative(spec, mu)[..., None] * x


class TestMeanVector:
    def test_identity_linear_algebra(self):
        x = np.array([[[1.0, 2.0]]])
        mu = mean_curve(GAUSS, x @ np.array([0.5, -0.5]))
        assert mu.shape == (1, 1)
        assert mu[0] == pytest.approx([-0.5])

    def test_logit_at_zero_predictor(self):
        x = np.zeros((1, 2, 3))
        mu = mean_curve(BERN, x @ np.array([1.0, -2.0, 0.3]))
        np.testing.assert_allclose(mu, 0.5)

    def test_simulation_design_zero_mean_cell(self):
        # x_j1 = 1 and x_2 = 1 with coefficients (0.5, -0.5) gives mean 0
        x = np.ones((2, 3, 2))
        mu = mean_curve(GAUSS, x @ np.array([0.5, -0.5]))
        np.testing.assert_allclose(mu, 0.0)

    def test_logit_range_and_clamping(self):
        x = np.array([[[1000.0], [-1000.0]]])
        mu = mean_curve(BERN, x @ np.array([1.0]))
        assert np.all(mu > 0) and np.all(mu < 1)
        assert np.all(np.isfinite(mu))


class TestMeanDerivative:
    def test_identity_returns_covariates_verbatim(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4, 2))
        d = mean_jacobian(GAUSS, x, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(d, x)

    def test_identity_derivative_independent_of_beta(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3, 2))
        d1 = mean_jacobian(GAUSS, x, np.array([0.0, 0.0]))
        d2 = mean_jacobian(GAUSS, x, np.array([17.0, -3.0]))
        assert np.array_equal(d1, d2)

    def test_logit_zero_covariates_gives_zero_row(self):
        d = mean_jacobian(BERN, np.zeros((1, 2, 2)), np.array([1.0, 1.0]))
        np.testing.assert_array_equal(d, np.zeros((1, 2, 2)))

    def test_logit_quarter_slope_at_origin(self):
        d = mean_jacobian(BERN, np.array([[[1.0]]]), np.array([0.0]))
        np.testing.assert_allclose(d, [[[0.25]]], atol=1e-14)

    @pytest.mark.parametrize("spec", [GAUSS, BERN])
    def test_matches_central_finite_differences(self, spec):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 2))
        beta = rng.standard_normal(2) * 0.5
        analytic = mean_jacobian(spec, x, beta)
        h = 1e-6
        fd = np.empty_like(analytic)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[..., j] = (
                mean_curve(spec, x @ (beta + e)) - mean_curve(spec, x @ (beta - e))
            ) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


class TestVarianceInvSqrt:
    def test_constant_variance_identity(self):
        mu = np.random.default_rng(5).standard_normal((2, 3))
        np.testing.assert_array_equal(
            variance_function(GAUSS, mu) ** -0.5, np.ones((2, 3))
        )

    def test_bernoulli_half(self):
        mu = mean_curve(BERN, np.zeros((1, 1, 1)) @ np.array([3.0]))
        np.testing.assert_allclose(variance_function(BERN, mu) ** -0.5, [[2.0]])

    def test_bernoulli_point_nine(self):
        # mean 0.9: logit(0.9) as predictor; oracle is plain arithmetic
        mu = mean_curve(BERN, np.array([[np.log(0.9 / 0.1)]]))
        a = variance_function(BERN, mu) ** -0.5
        np.testing.assert_allclose(a[0, 0], (0.9 * 0.1) ** -0.5, rtol=1e-12)
        np.testing.assert_allclose(a[0, 0], 10.0 / 3.0, rtol=1e-12)


class TestSecondOrderTerms:
    """The two derivatives the exact logit gradient adds to the Jacobian."""

    @pytest.mark.parametrize("spec", [GAUSS, BERN])
    def test_mean_second_derivative_matches_central_differences(self, spec):
        eta = 2.0 * np.random.default_rng(6).standard_normal((4, 3))
        h = 1e-6
        fd = (
            mean_derivative(spec, mean_curve(spec, eta + h))
            - mean_derivative(spec, mean_curve(spec, eta - h))
        ) / (2 * h)
        analytic = mean_second_derivative(spec, mean_curve(spec, eta))
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("spec", [GAUSS, BERN])
    def test_variance_weight_derivative_matches_central_differences(self, spec):
        mu = np.random.default_rng(7).uniform(0.05, 0.95, (4, 3))
        h = 1e-5
        fd = (
            variance_function(spec, mu + h) ** -0.5 - variance_function(spec, mu - h) ** -0.5
        ) / (2 * h)
        np.testing.assert_allclose(
            variance_weight_derivative(spec, mu), fd, rtol=1e-6, atol=1e-8
        )

    def test_variance_weight_derivative_is_zero_beyond_mean_clamp(self):
        mu = np.array([0.0, MEAN_CLAMP / 2, 1.0 - MEAN_CLAMP / 2, 1.0])
        assert np.array_equal(variance_weight_derivative(BERN, mu), np.zeros(4))
        # the clamped weight is flat there, so central differences agree
        h = MEAN_CLAMP / 4
        fd = (variance_function(BERN, mu + h) ** -0.5 - variance_function(BERN, mu - h) ** -0.5)
        assert np.array_equal(fd, np.zeros(4))


class TestSpec:
    """The link is the spec's only field; it fixes the variance function."""

    def test_logit_link_is_bernoulli(self):
        assert MarginalModelSpec(Link.LOGIT) == MarginalModelSpec.bernoulli()

    def test_default_is_gaussian(self):
        assert [f.name for f in fields(MarginalModelSpec)] == ["link"]
        assert MarginalModelSpec() == MarginalModelSpec.gaussian()


NDIM_MESSAGE = "responses must be (n, q) and covariates (n, q, p)"


class TestDataset:
    def test_shape_consistency(self):
        with pytest.raises(ValueError):
            LongitudinalDataset(np.zeros((3, 2)), np.zeros((3, 4, 2)))

    def test_finite_entries_required(self):
        y = np.zeros((2, 2))
        x = np.zeros((2, 2, 1))
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            LongitudinalDataset(y, x)

    @pytest.mark.parametrize(
        "y, x, ids, message",
        [
            (np.zeros(3), np.zeros((3, 2, 1)), (), NDIM_MESSAGE),
            (np.zeros((3, 2)), np.zeros((3, 2)), (), NDIM_MESSAGE),
            (np.zeros((0, 2)), np.zeros((0, 2, 1)), (), "dataset needs at least one subject"),
            (np.zeros((3, 2)), np.zeros((3, 2, 0)), (), "dataset needs at least one covariate"),
            (
                np.zeros((2, 2)), np.zeros((2, 2, 1)), ("a",),
                "subject_ids length must equal number of subjects",
            ),
        ],
        ids=["responses-ndim", "covariates-ndim", "no-subjects", "no-covariates", "ids-length"],
    )
    def test_malformed_dataset_rejected(self, y, x, ids, message):
        with pytest.raises(ValueError) as err:
            LongitudinalDataset(y, x, ids)
        assert (err.type, str(err.value)) == (ValueError, message)

    def test_roundtrip_through_subjects(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((5, 3))
        x = rng.standard_normal((5, 3, 2))
        ds = LongitudinalDataset(y, x, ("a", "b", "c", "d", "e"))
        again = ds.subset(np.arange(5))
        np.testing.assert_array_equal(again.responses, y)
        np.testing.assert_array_equal(again.covariates, x)
        assert again.subject_ids == ds.subject_ids
        assert (ds.n, ds.q, ds.p) == (5, 3, 2)
        picked = ds.subset([3, 1])
        np.testing.assert_array_equal(picked.responses, y[[3, 1]])
        np.testing.assert_array_equal(picked.covariates, x[[3, 1]])
        assert picked.subject_ids == ("d", "b")
