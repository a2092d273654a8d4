"""Marginal model core: datasets, links, means and derivatives.

The model specifies only the first two conditional moments of each response
component given the covariates:

    h(mu_ij) = x_ij' beta,    Var(Y_ij | x_ij) = dispersion * v(mu_ij),

with the within-subject correlation left unmodeled. The link fixes the
variance function: v = 1 under the identity link and v(mu) = mu (1 - mu)
under the logit link. The dispersion never enters estimation: it would
only rescale the score blocks, and the continuously-updating objective is
invariant to rescaling a moment block.
The inverse link, its derivatives, the variance function and the
derivatives of its weight v^(-1/2) are defined here and nowhere else; each
acts elementwise on stacked arrays such as the (n, q) means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Linear predictors beyond this magnitude give Bernoulli means that are
# indistinguishable from 0/1 in double precision.
LOGIT_CLAMP = 30.0

# Floor/ceiling applied to Bernoulli means before inverting the variance,
# and the variance mu (1 - mu) at that clamp.
MEAN_CLAMP = 1e-10
VARIANCE_FLOOR = MEAN_CLAMP * (1.0 - MEAN_CLAMP)


class Link(Enum):
    IDENTITY = "identity"
    LOGIT = "logit"


@dataclass(frozen=True)
class MarginalModelSpec:
    """The link defining the marginal model; it also fixes the variance."""

    link: Link = Link.IDENTITY

    @classmethod
    def gaussian(cls) -> "MarginalModelSpec":
        return cls(Link.IDENTITY)

    @classmethod
    def bernoulli(cls) -> "MarginalModelSpec":
        return cls(Link.LOGIT)


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
        if x.shape[2] < 1:
            raise ValueError("dataset needs at least one covariate")
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
    # 1 / (1 + exp(-eta)) of the clipped eta, in place on one copy
    mu = np.array(eta, dtype=float)
    np.clip(mu, -LOGIT_CLAMP, LOGIT_CLAMP, out=mu)
    np.exp(np.negative(mu, out=mu), out=mu)
    mu += 1.0
    return np.divide(1.0, mu, out=mu)


def mean_derivative(spec: MarginalModelSpec, mu: np.ndarray) -> np.ndarray:
    """d mu / d eta at the means mu, elementwise."""
    if spec.link is Link.IDENTITY:
        return np.ones_like(mu)
    return mu * (1.0 - mu)


def variance_function(spec: MarginalModelSpec, mu: np.ndarray, dmu=None) -> np.ndarray:
    """v(mu) without the dispersion factor, clamped away from zero.

    The logit link is canonical, v = dmu/deta, so ``dmu``, the
    ``mean_derivative`` at mu when the caller has it, saves recomputing it;
    mu (1 - mu) falls below VARIANCE_FLOOR exactly where mu leaves the clamp.
    """
    if spec.link is Link.IDENTITY:
        return np.ones_like(mu)
    return np.maximum(mean_derivative(spec, mu) if dmu is None else dmu, VARIANCE_FLOOR)


def link_derivatives(spec: MarginalModelSpec, mu, dmu, a):
    """(mu'', mu''', a', a''): the second and third derivatives of the mean
    and the first two of the variance weight a = v(mu)^(-1/2), all in eta,
    elementwise at the means mu, from dmu = ``mean_derivative`` and a there.
    a' and a'' are 0 where the clamp on mu binds.

    Under the logit link mu'' = dmu (1 - 2 mu) and mu''' = dmu (1 - 6 dmu);
    inside the clamp a^2 dmu = 1, so a' = -a (1 - 2 mu) / 2 and a'' = a / 4.
    """
    if spec.link is Link.IDENTITY:
        zero = np.zeros_like(mu)
        return zero, zero, zero, zero
    slope = 1.0 - 2.0 * mu
    inside = a * (dmu > VARIANCE_FLOOR)
    return dmu * slope, dmu * (1.0 - 6.0 * dmu), -0.5 * inside * slope, 0.25 * inside
