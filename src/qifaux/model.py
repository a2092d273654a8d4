"""Marginal model core: datasets, link/variance pairs, means and derivatives.

The model specifies only the first two conditional moments of each response
component given the covariates:

    h(mu_ij) = x_ij' beta,    Var(Y_ij | x_ij) = dispersion * v(mu_ij),

with the within-subject correlation left unmodeled. The inverse link, its
derivative and the variance function are defined here and nowhere else;
each acts elementwise on stacked arrays such as the (n, q) means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import expit

# Linear predictors beyond this magnitude give Bernoulli means that are
# indistinguishable from 0/1 in double precision.
LOGIT_CLAMP = 30.0

# Floor/ceiling applied to Bernoulli means before inverting the variance.
MEAN_CLAMP = 1e-10


class Link(Enum):
    IDENTITY = "identity"
    LOGIT = "logit"


class Variance(Enum):
    CONSTANT = "constant"
    BERNOULLI = "bernoulli"


_VALID_PAIRS = {
    (Link.IDENTITY, Variance.CONSTANT),
    (Link.LOGIT, Variance.BERNOULLI),
}


@dataclass(frozen=True)
class MarginalModelSpec:
    """Link and variance functions defining the marginal model.

    The dispersion factor rescales every block of the estimating function
    identically, and the quadratic objective is invariant to invertible
    rescalings of the moment vector, so estimation fixes it at 1.
    """

    link: Link = Link.IDENTITY
    variance: Variance = Variance.CONSTANT
    dispersion: float = 1.0

    def __post_init__(self):
        if (self.link, self.variance) not in _VALID_PAIRS:
            raise ValueError(
                f"unsupported link/variance pair: {self.link}, {self.variance}"
            )
        if not self.dispersion > 0:
            raise ValueError("dispersion must be positive")

    @classmethod
    def gaussian(cls, dispersion: float = 1.0) -> "MarginalModelSpec":
        return cls(Link.IDENTITY, Variance.CONSTANT, dispersion)

    @classmethod
    def bernoulli(cls, dispersion: float = 1.0) -> "MarginalModelSpec":
        return cls(Link.LOGIT, Variance.BERNOULLI, dispersion)


@dataclass(frozen=True)
class LongitudinalDataset:
    """Balanced panel of n independent subjects.

    Stored as stacked arrays for vectorized estimation: ``responses`` is
    (n, q) and ``covariates`` is (n, q, p); row i of each is subject i.
    Every model quantity is computed on the whole stack at once.
    """

    responses: np.ndarray
    covariates: np.ndarray
    subject_ids: tuple = field(default=())

    def __post_init__(self):
        y = np.ascontiguousarray(self.responses, dtype=float)
        x = np.ascontiguousarray(self.covariates, dtype=float)
        if y.ndim != 2 or x.ndim != 3:
            raise ValueError("responses must be (n, q) and covariates (n, q, p)")
        if x.shape[:2] != y.shape:
            raise ValueError(
                f"covariates shape {x.shape} inconsistent with responses {y.shape}"
            )
        if y.shape[0] < 1:
            raise ValueError("dataset needs at least one subject")
        if not (np.isfinite(y).all() and np.isfinite(x).all()):
            raise ValueError("responses and covariates must be finite")
        object.__setattr__(self, "responses", y)
        object.__setattr__(self, "covariates", x)
        ids = tuple(self.subject_ids) if self.subject_ids else tuple(range(y.shape[0]))
        if len(ids) != y.shape[0]:
            raise ValueError("subject_ids length must equal number of subjects")
        object.__setattr__(self, "subject_ids", ids)

    @property
    def n(self) -> int:
        return self.responses.shape[0]

    @property
    def q(self) -> int:
        return self.responses.shape[1]

    @property
    def p(self) -> int:
        return self.covariates.shape[2]

    def subset(self, indices) -> "LongitudinalDataset":
        indices = np.asarray(indices, dtype=int)
        ids = tuple(self.subject_ids[i] for i in indices)
        return LongitudinalDataset(
            self.responses[indices], self.covariates[indices], ids
        )


def mean_curve(spec: MarginalModelSpec, eta: np.ndarray) -> np.ndarray:
    """Inverse link applied to an array of linear predictors."""
    if spec.link is Link.IDENTITY:
        return np.asarray(eta, dtype=float)
    eta = np.clip(eta, -LOGIT_CLAMP, LOGIT_CLAMP)
    return expit(eta)


def mean_derivative(spec: MarginalModelSpec, mu: np.ndarray) -> np.ndarray:
    """d mu / d eta at the means mu, elementwise."""
    if spec.link is Link.IDENTITY:
        return np.ones_like(mu)
    return mu * (1.0 - mu)


def variance_function(spec: MarginalModelSpec, mu: np.ndarray) -> np.ndarray:
    """v(mu) without the dispersion factor, clamped away from zero."""
    if spec.variance is Variance.CONSTANT:
        return np.ones_like(mu)
    mu = np.clip(mu, MEAN_CLAMP, 1.0 - MEAN_CLAMP)
    return mu * (1.0 - mu)
