"""GMM estimation of the marginal model from extended moment conditions.

The moment vector stacks the L working-correlation score blocks

    S^(l)_n(beta) = (1/n) sum_i  mudot_i' A_i^{-1/2} M_l A_i^{-1/2} (Y_i - mu_i)

with the K auxiliary blocks Psi^(k)_n(beta). The estimator minimizes the
quadratic form Q_n(beta) = g_n' Sigma_n(beta)^{-1} g_n with the empirical
second-moment weight Sigma_n re-evaluated at every iterate (continuously
updating). Minimization takes Newton or Gauss-Newton steps with step
halving on Q_n, using the exact objective gradient

    dQ/dbeta = (2/n) sum_i (1 - g_i' Sigma^{-1} g_n) * (dg_i/dbeta)' Sigma^{-1} g_n,

whose second factor inside the sum carries the derivative-of-weight term.

Under the identity link every contribution is affine in beta,
g_i(beta) = g_i(beta0) + T_i (beta - beta0), so with Z_i = [g_i(beta0) | T_i]
and w = (1, beta - beta0) the solver needs only the mean and the Gram
matrix of the Z_i: g_n = mean(Z) w, Sigma_n = (1/n) sum_i Z_i w w' Z_i',
G_n = mean(T), and the gradient above in closed form (Hansen, Heaton and
Yaron 1996). A fit makes one O(n d^2 (p+1)^2) pass at its start value, and
the profile tests that search the fit's own model reuse it (``profile_test``
given ``unrestricted`` makes one pass at that fit's start); every iteration
after it is free of n. It replaces an O(n d^2) weight update per objective
evaluation, so its advantage narrows as p grows. Other links recompute the
per-subject contributions at each evaluation and take the same gradient
with the exact contribution Jacobian, contracted with Sigma^{-1} g_n before
the sum over subjects. The Gauss-Newton metric and the plug-in covariance
use the truncated mean Jacobian G_n under both links. Continuously-updated
solves step with the exact Hessian where it is positive definite, as that
metric misses the weight-derivative curvature that a false null or
strongly-off auxiliary targets bring: restricted identity-link solves with
the n-free Hessian of the Gram pass, logit fits and restricted solves with
one assembled from the terms of the gradient they just computed.

Each problem's search is one serial loop (``_search``), and the solver
drives the loops of a stack of problems that share one method in lockstep:
each round makes one stacked evaluation for the loops that asked for Q_n
and, if any accepted a point, one stacked direction at that evaluation.
Every stacked kernel gives each problem, bit for bit, what it gives that
problem alone; a problem that fails a check solves a stand-in there and
leaves. ``fit`` and ``profile_test`` are the batch of one; the Monte Carlo
harness solves a method's replications together. A joint null is a solve
with nothing free.

Each evaluation inverts Sigma_n directly (``_weight_inverse``), under the
identity link padded first along the null directions that the Gram pass
finds once (``_AffineMoments``); only a weight that loses rank beyond
them takes a symmetric eigendecomposition. Each evaluation returns a
record of the terms the gradient needs (the Gram cross product under the
identity link; otherwise the link terms, the score products
M_l A^(-1/2) (Y_i - mu_i) and the contributions g_i, from which the gradient
reads g_i' Sigma^{-1} g_n), so the gradient at an accepted point recomputes
none of them, and ``derivatives`` returns with it a callable that forms
the exact Hessian from the same terms. Each direction factors the normal
matrix G_f' W G_f of the free coordinates with one symmetric
eigendecomposition, which gives the rank check, the Gauss-Newton step and,
at a fit's solution, the plug-in covariance; a Newton step calls that
callable and factors H_ff the same way.

Targeting the exact minimizer matters in finite samples: the fixed point
of the plain iteration G_n' Sigma_n^{-1} g_n = 0 retains a bias of order
(moment count)/n driven by correlation between the empirical Jacobian and
the moments, which exact minimization removes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import special

from .auxiliary import AuxiliaryInfo
from .basis import BasisSet
from .errors import (
    EmptySubgroup,
    NotConverged,
    QifauxError,
    RankDeficient,
    SingularWeightMatrix,
    WeightRankWarning,
)
from .model import (
    Link,
    LongitudinalDataset,
    MarginalModelSpec,
    link_derivatives,
    mean_curve,
    mean_derivative,
    variance_function,
)

# Pseudo-inverse cutoff for Sigma_n: eigenvalues of magnitude at most
# WEIGHT_RCOND times the largest magnitude are treated as zero. A direct
# inverse is kept only where this cutoff would drop none of them.
WEIGHT_RCOND = 1e-10
# Solver budget and stopping rules: stop when the largest step
# coordinate or the objective decrease falls below its tolerance.
MAX_ITER = 100
STEP_TOL = 1e-8
OBJECTIVE_TOL = 1e-12
MAX_HALVINGS = 20
# Cap on Fisher-scoring steps for the logit-link starting value; scoring
# stops earlier once the largest step coordinate falls below STEP_TOL.
FISHER_STEPS = 25


@dataclass(frozen=True)
class ExtendedScoreConfig:
    """Model, basis and optional auxiliary information for one fit."""

    spec: MarginalModelSpec
    basis: BasisSet
    aux: AuxiliaryInfo | None = None

    def moment_dimension(self, p: int) -> int:
        k = self.aux.n_groups if self.aux is not None else 0
        return p * len(self.basis) + k * self.basis.q


@dataclass(frozen=True)
class FitOptions:
    """Freeze the weight at the start value; drop empty subgroups' rows."""

    two_step: bool = False
    allow_empty_subgroups: bool = False


@dataclass(frozen=True)
class FitResult:
    """Point estimate with plug-in covariance and solver diagnostics.

    ``covariance`` estimates Var(beta_hat) directly (the 1/n factor is
    already applied). ``iterates`` records the full solver
    trajectory including the starting point.
    """

    beta_hat: np.ndarray
    covariance: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gradient_norm: float
    iterates: np.ndarray | None = None
    weight_rank_deficient: bool = False
    dropped_groups: tuple = ()

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


@dataclass(frozen=True)
class ProfileTestResult:
    """Profile quadratic-objective test of pinned coordinates."""

    statistic: float
    df: int
    p_value: float
    beta_restricted: np.ndarray
    beta_unrestricted: np.ndarray
    clamped: bool = False


class _Assembler:
    """Precomputed arrays for one (config, dataset), subject index last.

    ``member_last`` is the (K, n) subgroup-membership matrix
    1{X_i in Omega_k} and ``phi`` the (K, q) targets; auxiliary block k of
    subject i is member_last[k, i] * (mu_i - phi_k), and its Jacobian
    member_last[k, i] * dmu_i, with K = 0 when there is no auxiliary
    information. ``drop_empty`` deletes the row and target of each subgroup
    nobody falls into, named in ``dropped``, so moments, weight and Jacobian
    lose the same block. With ``x_last`` (q, p, n) and ``y_last`` (q, n),
    every kernel runs over n.
    """

    def __init__(self, config, dataset, drop_empty=False):
        self.spec = config.spec
        self.n, self.q, self.p = dataset.covariates.shape
        self.basis_stack = config.basis.stacked()
        self.n_score = self.p * self.basis_stack.shape[0]
        if config.basis.q != self.q:
            raise ValueError(f"basis dimension {config.basis.q} does not match data q={self.q}")
        aux = config.aux
        if aux is None or aux.n_groups == 0:
            self.phi = np.zeros((0, self.q))
            member = np.zeros((0, self.n))
        else:
            self.phi = np.stack(aux.phi)
            if self.phi.shape[1] != self.q:
                raise ValueError("phi vectors must have length q")
            idx = aux.partition.group_indices(dataset)
            member = (np.arange(aux.n_groups)[:, None] == idx).astype(float)
        kept = member.any(axis=1) | (not drop_empty)
        self.dropped = tuple(int(k) for k in np.flatnonzero(~kept))
        self.member_last, self.phi = member[kept], self.phi[kept]
        self.x_last = np.ascontiguousarray(dataset.covariates.transpose(1, 2, 0))
        self.y_last = np.ascontiguousarray(dataset.responses.T)

    # -- moment machinery ------------------------------------------------

    def _link_terms(self, beta):
        """(mu, a, dmu, mixed) at beta: the means, a = v(mu)^(-1/2) and
        dmu = dmu/deta, each (q, n), and the (L, q, n) products ``_mixed``,
        which the contributions and the gradient share."""
        mu = mean_curve(self.spec, beta @ self.x_last)
        dmu = mean_derivative(self.spec, mu)
        a = 1.0 / np.sqrt(variance_function(self.spec, mu, dmu))
        return mu, a, dmu, self._mixed(mu, a)

    def _mixed(self, mu, a):
        """(L, q, n) M_l A^(-1/2) (Y - mu) of every subject, from one product."""
        t = a * (self.y_last - mu)
        return (self.basis_stack.reshape(-1, self.q) @ t).reshape(-1, self.q, self.n)

    def contributions(self, beta):
        """(n, d) per-subject moment contributions at beta."""
        return self._contributions(*self._link_terms(beta)).T

    def _contributions(self, mu, a, dmu, mixed):
        """(d, n) contributions: score row (l, b) sum_j x_ijb dmu_j a_j
        mixed[l, j], auxiliary row (k, j) member_ik (mu_ij - phi_kj), with
        mixed = ``_mixed(mu, a)``. a and dmu are (q, n) or scalars that
        broadcast."""
        c = np.empty((self.n_score + self.phi.size, self.n))
        score, aux = c[: self.n_score], c[self.n_score :].reshape(-1, self.q, self.n)
        out = score.reshape(-1, self.p, self.n)
        np.einsum("ljn,jan->lan", mixed * (a * dmu), self.x_last, out=out)
        np.multiply(self.member_last[:, None], mu - self.phi[:, :, None], out=aux)
        return c

    def moments(self, beta):
        contribs = self.contributions(beta)
        return contribs.mean(axis=0), contribs

    def blocks(self, beta):
        """(d, p+1, n) identity-link blocks Z_i = [g_i | T_i] at beta, rows as in
        ``contributions``, subject index last. Column 0 is the contribution
        kernel with a = dmu = 1. T_i does not depend on beta: score rows
        -x_i' M_l x_i from one product M_l x_i, auxiliary rows member_ik x_i."""
        n, q, p = self.n, self.q, self.p
        x = self.x_last
        z = np.empty((self.n_score + self.phi.size, p + 1, n))
        eta = beta @ x
        z[:, 0] = self._contributions(eta, 1.0, 1.0, self._mixed(eta, 1.0))
        mx = (self.basis_stack.reshape(-1, q) @ x.reshape(q, -1)).reshape(-1, q, p, n)
        np.negative(mx, out=mx)
        score, aux = z[: self.n_score], z[self.n_score :].reshape(-1, q, p + 1, n)
        np.einsum("san,lscn->lacn", x, mx, out=score.reshape(-1, p, p + 1, n)[:, :, 1:])
        np.multiply(self.member_last[:, None, None], x, out=aux[:, :, 1:])
        return z

    def jacobian(self, beta):
        """(d, p) derivative matrix G_n of the mean moment vector."""
        _, a, dmu, _ = self._link_terms(beta)
        return self._mean_jacobian(self._times_x(a * dmu), self._times_x(dmu))

    def _times_x(self, weights):
        """(..., q, p, n) products weights[..., j, i] x_ij of (..., q, n)
        weights, one multiplication per covariate: broadcasting over the
        covariate axis instead runs numpy's loops at half the speed."""
        out = np.empty(weights.shape[:-1] + (self.p, self.n))
        for b in range(self.p):
            np.multiply(weights, self.x_last[:, b], out=out[..., b, :])
        return out

    def _mean_jacobian(self, scaled, deriv):
        """Mean over subjects of the truncated contribution Jacobians, from
        the (q, p, n) products deriv = D_i (D_i = mudot_i x_i) and
        scaled = A_i^(-1/2) D_i of every subject, with one Gram matrix of
        the latter. QIF blocks keep only -mudot' A^{-1/2} M_l A^{-1/2} mudot,
        without the terms in d2mu/deta2 and in the variance weights'
        derivatives: zero under the identity link, vanishing asymptotically
        otherwise, where only the solver's gradient and Hessian add them
        (``derivatives``). Auxiliary blocks are exact."""
        scaled = scaled.reshape(-1, self.n)
        gram = (scaled @ scaled.T / self.n).reshape(self.q, self.p, self.q, self.p)
        qif = -np.tensordot(self.basis_stack, gram, axes=([1, 2], [0, 2]))
        aux = self.member_last @ deriv.reshape(-1, self.n).T / self.n
        return np.concatenate([qif.reshape(-1, self.p), aux.reshape(-1, self.p)])

    @cached_property
    def x_outer(self):
        """(p^2, q n) products x_ijb x_ijc, rows (b, c) and columns (j, i):
        one product with it sums (q, n) weights times x_ij x_ij' over
        subjects and times."""
        x = self.x_last.transpose(1, 0, 2)
        return (x[:, None] * x).reshape(self.p**2, -1)

    def derivatives(self, terms, u, continuous):
        """(G_n, (1/n) sum_i c_i J_i' u, hessian) from the terms
        (mu, a, dmu, mixed, g) at beta.

        J_i = dg_i/dbeta is the exact contribution Jacobian, and
        c_i = 1 - g_i' u (g_i from g) under continuous updating, 1 with a
        frozen weight. g_i' u moves with beta only through each
        eta_ij = x_ij' beta: with w = a mudot and t = a r (r = y_i - mu_i),

            g_i' u = w' N0 t + sum_k member_ik u_k' (mu_i - phi_k),
            N0[j, k] = sum_l (x_ij' u_l) M_l[j, k],

        so J_i' u = x_i' omega_i with

            omega_j = w'_j along_j + t'_j back_j + mudot_j aux_j,

        where ' is d/deta (w' = a' mudot + a mu'', t' = a' r - w),
        along = N0 t = sum_l (x_ij' u_l) mixed[l],
        back = N0' w = sum_l M_l' A^(-1/2) D_i u_l and
        aux = sum_k member_ik u_k. Without the mu'' and a' terms this is the
        truncated Jacobian, which gives G_n. The cost is O(n q (L + p + K));
        no per-subject Jacobian is formed.

        ``hessian(W)``, with u = W g, is the exact Hessian of Q_n / 2 under
        continuous updating, from the same terms:

            H = B' W B - V + S,  B = (1/n) sum_i (c_i J_i - g_i u' J_i),
            V = (1/n) sum_i J_i' u u' J_i,  S = (1/n) sum_i c_i x_i' Psi_i x_i,

        with Psi_i the Hessian of g_i' u in eta_i at fixed u:
        diag(w'' along + t'' back + mu'' aux) + N + N', where
        N[j, k] = w'_j t'_k N0[j, k]. Its sums over subjects are products
        over n: of (q, n) weights with ``x_outer`` for the diagonal terms,
        and of A^(-1/2) D_i and w' (x_i u_l) x_i with c_i t' x_i for the
        terms in M_l.
        """
        mu, a, dmu, mixed, contribs = terms
        n, q, p = self.n, self.q, self.p
        x = self.x_last
        mu2, mu3, da, dda = link_derivatives(self.spec, mu, dmu, a)
        r = self.y_last - mu
        w = a * dmu
        dw = da * dmu + a * mu2
        dt = da * r - w
        # xi[l, j, i] = x_ij' u_l, C-contiguous so that its products reshape
        # without a copy
        xi = np.empty((len(self.basis_stack), q, n))
        np.matmul(u[: self.n_score].reshape(-1, p), x, out=xi.swapaxes(0, 1))
        along = np.einsum("ljn,ljn->jn", xi, mixed)
        back = self.basis_stack.reshape(-1, q).T @ (w * xi).reshape(-1, n)
        aux = u[self.n_score :].reshape(-1, q).T @ self.member_last
        # column i is J_i' u
        jtu = np.einsum("jbn,jn->bn", x, dw * along + dt * back + dmu * aux)
        c = 1.0 - u @ contribs if continuous else np.ones(n)
        scaled, deriv = self._times_x(w), self._times_x(dmu)

        def hessian(w_inv):
            basis = self.basis_stack
            ddw = dda * dmu + 2.0 * da * mu2 + a * mu3
            ddt = dda * r - 2.0 * da * dmu - a * mu2
            # weights of x_ij x_ij': c w' mixed[l] for the score rows of
            # sum_i c_i J_i, then c diag(Psi_i)
            weights = np.empty((len(basis) + 1, q, n))
            np.multiply(c * dw, mixed, out=weights[:-1])
            np.multiply(c, ddw * along + ddt * back + mu2 * aux, out=weights[-1])
            diagonal = (weights.reshape(len(basis) + 1, -1) @ self.x_outer.T).reshape(-1, p, p)
            # products with c_i t' x_i, contracted with M_l[j, k]: of
            # A^(-1/2) D_i for the score rows, of w' (x_i u_l) x_i for N
            right = self._times_x(c * dt).reshape(-1, n)
            paired = (scaled.reshape(-1, n) @ right.T).reshape(q, p, q, p)
            pairs = self._times_x(dw * xi).reshape(len(basis), -1, n) @ right.T
            off = np.tensordot(basis, pairs.reshape(-1, q, p, q, p), axes=([0, 1, 2], [0, 1, 3]))
            score = diagonal[:-1] + np.tensordot(basis, paired, axes=([1, 2], [0, 2]))
            aux_rows = (self.member_last * c) @ deriv.reshape(-1, n).T
            b = np.concatenate([score.reshape(-1, p), aux_rows.reshape(-1, p)]) - contribs @ jtu.T
            return (b.T @ w_inv @ b / n + diagonal[-1] + off + off.T - jtu @ jtu.T) / n

        return self._mean_jacobian(scaled, deriv), jtu @ c / n, hessian


def _weight_inverse(sigma, pad=None, nulls=0):
    """Inverses and ranks of a stack (..., d, d) of symmetric weights.

    ``pad`` is s N N' for the orthonormal columns N of each weight's known
    null space (``nulls`` of them) and a scale s > 0, so the padded weight
    Sigma + s N N' has inverse Sigma^+ + N N' / s, and rank d - nulls. A
    slice whose padded weight has ||.||_F ||.^-1||_F below 1 / WEIGHT_RCOND
    keeps that ``np.linalg.inv``: the cutoff of ``_pseudo_inverse`` would
    have kept every eigenvalue. Every other slice, ill-conditioned, exactly
    singular or not finite, takes the ``_pseudo_inverse`` of its unpadded
    weight. Each slice's route and result depend on that slice alone.
    """
    d = sigma.shape[-1]
    stack = sigma.reshape(-1, d, d)
    padded = stack if pad is None else stack + pad.reshape(-1, d, d)
    try:
        inverse = np.linalg.inv(padded)
    except np.linalg.LinAlgError:
        # numpy raises for the whole stack when one slice is exactly singular
        inverse = np.stack([_inverse_or_nan(m) for m in padded])
    rank = np.full(len(stack), d) - nulls
    # squared Frobenius norms; inf and NaN fail the comparison
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (padded * padded).sum(axis=(1, 2)) * (inverse * inverse).sum(axis=(1, 2))
    singular = ~(bound < WEIGHT_RCOND**-2)
    if singular.any():
        inverse[singular], rank[singular] = _pseudo_inverse(stack[singular])
    return inverse.reshape(sigma.shape), rank.reshape(sigma.shape[:-2])


def _inverse_or_nan(matrix):
    """``np.linalg.inv`` of one matrix, NaN where it is exactly singular."""
    try:
        return np.linalg.inv(matrix)
    except np.linalg.LinAlgError:
        return np.full_like(matrix, np.nan)


def _pseudo_inverse(sigma):
    """Pseudo-inverses and ranks of a stack (..., d, d) of symmetric weights.

    One eigendecomposition per matrix; eigenvalues of magnitude at most
    WEIGHT_RCOND times the largest magnitude count as zero, and their
    reciprocals are set to zero rather than their columns deleted, so every
    matrix of the stack keeps the same shape.
    """
    lam, vec = np.linalg.eigh(sigma)
    # largest first, the order of the singular values, which fixes the
    # summation order of the product below; the dropped terms add exact zeros
    lam, vec = lam[..., ::-1], np.ascontiguousarray(vec[..., ::-1])
    mags = np.abs(lam)
    keep = mags > WEIGHT_RCOND * mags.max(axis=-1, keepdims=True, initial=0.0)
    scale = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (vec * scale[..., None, :]) @ vec.swapaxes(-1, -2), keep.sum(axis=-1)


def _rank_error(rank, p):
    """SingularWeightMatrix for a weight whose rank is below p, else None."""
    if rank < p:
        return SingularWeightMatrix(f"weight matrix rank {rank} < parameter dimension {p}")
    return None


def _build_assembler(config, dataset, options):
    """Assembler with the empty-subgroup policy applied."""
    assembler = _Assembler(config, dataset, drop_empty=True)
    if assembler.dropped and not options.allow_empty_subgroups:
        raise EmptySubgroup(assembler.dropped[0])
    return assembler, assembler.dropped


# -- public operations ----------------------------------------------------


def _coefficients(beta, p, name):
    """beta as a float array, which must be a finite vector of length p."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (p,):
        raise ValueError(f"{name} must have shape ({p},)")
    if not np.isfinite(beta).all():
        raise ValueError(f"{name} must be finite")
    return beta


def moment_vector(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean moment vector g_n and the (n, d) per-subject contributions."""
    return _Assembler(config, dataset).moments(_coefficients(beta, dataset.p, "beta"))


def weight_matrix(per_subject_contributions: np.ndarray) -> np.ndarray:
    """Empirical second moment (1/n) sum_i g_i g_i' of the contributions."""
    contribs = np.asarray(per_subject_contributions, dtype=float)
    return contribs.T @ contribs / contribs.shape[0]


def objective(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> float:
    """Quadratic form g_n' Sigma_n^+ g_n; warns when Sigma_n lost rank."""
    beta = _coefficients(beta, dataset.p, "beta")
    point = _SubjectMoments([_Assembler(config, dataset)]).evaluate([0], beta[None])
    error = _rank_error(point.rank[0], dataset.p)
    if error is not None:
        raise error
    if point.rank[0] < point.g.shape[1]:
        warnings.warn(
            "weight matrix is rank deficient; using pseudo-inverse",
            WeightRankWarning,
            stacklevel=2,
        )
    return float(point.objective()[0])


def score_jacobian(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> np.ndarray:
    """(d, p) derivative matrix G_n of the mean moment vector."""
    return _Assembler(config, dataset).jacobian(_coefficients(beta, dataset.p, "beta"))


def initial_estimate(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset
) -> np.ndarray:
    """Independence-working GEE starting value.

    Closed-form stacked least squares under the identity link; under the
    logit link, Fisher scoring until the largest step coordinate falls
    below STEP_TOL, at most FISHER_STEPS steps.
    """
    x = dataset.covariates
    y = dataset.responses
    try:
        if config.spec.link is Link.IDENTITY:
            xtx = np.einsum("nqa,nqb->ab", x, x)
            xty = np.einsum("nqa,nq->a", x, y)
            return np.linalg.solve(xtx, xty)
        x = x.reshape(-1, dataset.p)
        y = y.ravel()
        beta = np.zeros(dataset.p)
        for _ in range(FISHER_STEPS):
            mu = mean_curve(config.spec, x @ beta)
            v = variance_function(config.spec, mu)
            step = np.linalg.solve(x.T @ (v[:, None] * x), x.T @ (y - mu))
            beta = beta + step
            if np.abs(step).max() < STEP_TOL:
                break
        return beta
    except np.linalg.LinAlgError as err:
        raise RankDeficient(f"design matrix is rank deficient: {err}") from err


class _Point(NamedTuple):
    """Objective evaluations of a stack of problems: their rows in the model,
    g_n, the weight inverses W and their ranks (None for a frozen weight),
    and the model's terms that the gradient at these points reuses: the
    Gram cross product, or per problem the link terms and contributions."""

    rows: np.ndarray
    g: np.ndarray
    w_inv: np.ndarray
    rank: np.ndarray | None
    terms: object

    def objective(self):
        """Q_n = g' W g of each problem."""
        return (self.g[:, None, :] @ self.w_inv @ self.g[:, :, None])[:, 0, 0]


class _AffineMoments:
    """Identity-link moments of a stack of problems, each from one Gram pass
    at its own expansion point beta0.

    Z_i = [g_i(beta0) | T_i] is the (d, p+1) block of subject i, T_i its
    beta-free Jacobian, and the contribution at beta is Z_i w with
    w = (1, beta - beta0). The mean and Gram matrix of the Z_i, over the
    ``blocks`` of each problem's assembler stacked along a leading problem
    axis, give g_n, Sigma_n, G_n, the exact gradient and Hessian (the
    callable ``derivatives`` returns) without touching the subjects again.
    Expanding around the start value rather than zero keeps the cancellation
    in Sigma_n small. The README gives the p at which the Gram product stops
    paying for itself.

    Per problem, ``z_all`` holds the mean (d rows) above the Gram matrix
    (d (p+1) d rows), each row paired with the (p+1) columns of w, so one
    product with w gives g_n and the cross product of ``evaluate``;
    ``z_mean`` and ``z_gram`` are views of it. ``t_pairs`` lays the T-T
    block of the Gram matrix out as (d^2, p^2), rows (a, b) and columns
    (j, k), so V = (1/n) sum_i T_i' u u' T_i is one product with u (x) u.
    Every per-problem array is indexed by a slice, without a copy, when the
    requested rows are consecutive (``_rows``).

    The same pass finds each problem's structural null directions N, for
    which v' Z_i = 0 gives v' g_i(beta) = 0 at every beta. Their count is
    that of the eigenvalues under the WEIGHT_RCOND cutoff of Sigma_Z =
    (1/n) sum_i Z_i Z_i' equilibrated first per column of Z (each of the
    p+1 column blocks scaled to unit trace) and then per row (unit
    diagonal), so it does not depend on the units of the covariates or of
    the response; a true null stays exactly null under that scaling. N is
    as many eigenvectors of smallest magnitude of the raw Sigma_Z.
    Evaluations invert Sigma_n + s N N' (``pad``, s = trace Sigma_n(beta0)
    / d) with rank d - |N| (``nulls``); N' annihilates g_n, G_n and the
    Hessian's B.
    """

    # Newton steps in restricted solves only, of any length (``_direction``)
    newton_bound = None

    def __init__(self, assemblers, beta0):
        d = assemblers[0].n_score + assemblers[0].phi.size
        k = assemblers[0].p + 1
        self.z_all = np.empty((len(assemblers), d + d * k * d, k))
        self.z_mean, self.z_gram = self.z_all[:, :d], self.z_all[:, d:]
        for z_all, assembler, start in zip(self.z_all, assemblers, beta0):
            z = assembler.blocks(start)
            n = z.shape[-1]
            z = z.reshape(-1, n)
            z_all[d:] = (z @ z.T / n).reshape(-1, k)
            z_all[:d] = z.mean(axis=1).reshape(d, k)
        self.beta0 = np.asarray(beta0, dtype=float)
        gram = self.z_gram.reshape(-1, d, k, d, k)
        t_gram = gram[:, :, 1:, :, 1:].transpose(0, 1, 3, 2, 4)
        self.t_pairs = t_gram.reshape(-1, d * d, (k - 1) ** 2)
        lam, vec = np.linalg.eigh(np.einsum("rajbj->rab", gram))
        self.nulls = _null_count(np.einsum("rajbj->rjab", gram))
        # the nulls smallest magnitudes of the raw eigenvalues
        null = np.argsort(np.argsort(np.abs(lam), axis=1), axis=1) < self.nulls[:, None]
        scale = np.einsum("raa->r", gram[:, :, 0, :, 0]) / d
        self.pad = (vec * (scale[:, None] * null)[:, None, :]) @ vec.swapaxes(1, 2)

    def evaluate(self, rows, beta, frozen_inv=None):
        """``_Point`` of problems ``rows`` at the rows of beta. Under
        continuous updating its terms are cross[r, a, j, b] =
        (1/n) sum_i Z_i[a, j] g_i(beta)[b] of each problem, and
        Sigma_n = w' cross; g_n and cross come from one product of
        ``z_all`` with w."""
        at = _rows(rows)
        d, k = self.z_mean.shape[1:]
        w = np.empty((len(rows), k))
        w[:, 0] = 1.0
        w[:, 1:] = beta - self.beta0[at]
        if frozen_inv is not None:
            return _Point(rows, (self.z_mean[at] @ w[:, :, None])[..., 0], frozen_inv, None, None)
        product = (self.z_all[at] @ w[:, :, None])[..., 0]
        cross = product[:, d:].reshape(-1, d, k, d)
        sigma = (w[:, None, None, :] @ cross)[:, :, 0, :]
        inverse = _weight_inverse(sigma, self.pad[at], self.nulls[at])
        return _Point(rows, product[:, :d], *inverse, cross)

    def derivatives(self, point, u, continuous):
        """(G_n, half-gradient of the searched objective, hessian) of each
        problem of ``point``, with u = W g.

        With a frozen weight the half-gradient is G' u and ``hessian`` None.
        Under continuous updating the weight's own beta-dependence subtracts
        (1/n) sum_i (g_i' u) T_i' u, and ``hessian()`` is the exact Hessian
        B' W B - V of Q_n / 2, in O(d^2 p^2 + d^3): u = W g has Jacobian W B,
        B = G - (dSigma/dbeta) u, whose u' cross term is one product, and
        V = (1/n) sum_i T_i' u u' T_i, one product of u (x) u with
        ``t_pairs``. ``point`` must then be a continuously-updated
        evaluation, which carries the cross product.
        """
        at = _rows(point.rows)
        jac = self.z_mean[at][:, :, 1:]
        half_grad = (jac.swapaxes(1, 2) @ u[:, :, None])[..., 0]
        if not continuous:
            return jac, half_grad, None
        weighted = (point.terms @ u[:, None, :, None])[..., 0]
        half_grad -= (u[:, None, :] @ weighted)[:, 0, 1:]

        def hessian():
            r, d, k, _ = point.terms.shape
            cross = point.terms[:, :, 1:, :]
            back = (u[:, None, :] @ point.terms.reshape(r, d, k * d)).reshape(r, k, d)[:, 1:]
            b = jac - (cross @ u[:, None, :, None])[..., 0] - back.swapaxes(1, 2)
            pairs = (u[:, :, None] * u[:, None, :]).reshape(r, 1, d * d)
            v = (pairs @ self.t_pairs[at]).reshape(r, k - 1, k - 1)
            return b.swapaxes(1, 2) @ point.w_inv @ b - v

        return jac, half_grad, hessian


def _null_count(blocks):
    """Eigenvalues under the WEIGHT_RCOND cutoff of each problem's sum of
    the (p+1) blocks (..., j, d, d), once each block is scaled to unit trace
    and the sum then to unit diagonal; a zero block or row stays zero."""
    r, k, d, _ = blocks.shape
    traces = np.einsum("rjaa->rj", blocks)
    scaled = (_reciprocal(traces)[:, None, :] @ blocks.reshape(r, k, d * d)).reshape(r, d, d)
    root = _reciprocal(np.sqrt(np.einsum("raa->ra", scaled)))
    mags = np.abs(np.linalg.eigvalsh(scaled * root[:, :, None] * root[:, None, :]))
    return (mags <= WEIGHT_RCOND * mags.max(axis=1, keepdims=True)).sum(axis=1)


def _reciprocal(values):
    """1 / values, 0 where a value is not positive."""
    return np.divide(1.0, values, out=np.zeros_like(values), where=values > 0)


def _rows(rows):
    """Index of the problems ``rows`` of a stack: a slice, which indexes
    without a copy, where they are consecutive, else the rows."""
    listed = np.asarray(rows).tolist()
    if listed and listed == list(range(listed[0], listed[-1] + 1)):
        return slice(listed[0], listed[-1] + 1)
    return rows


class _SubjectMoments:
    """Per-subject contributions at every evaluation, for non-identity links,
    with one assembler per problem of the stack.

    The half-gradient and the Hessian are exact (``_Assembler.derivatives``);
    G_n is the truncated mean Jacobian. A point's terms are, per problem, the
    link terms (mu, a, dmu, mixed) and the contributions, whose g_i' u the
    gradient reads; ``derivatives`` returns the Hessian as a callable.
    """

    # Newton steps in fits too, each at most this many times as long as the
    # Gauss-Newton step (``_direction``)
    newton_bound = 10.0

    def __init__(self, assemblers):
        self.assemblers = assemblers

    def evaluate(self, rows, beta, frozen_inv=None):
        """``_Point`` of problems ``rows`` at the rows of beta; its rank is
        None for a frozen weight."""
        terms, g, sigma = [], [], []
        for r, b in zip(rows, beta):
            assembler = self.assemblers[r]
            link = assembler._link_terms(b)
            contribs = assembler._contributions(*link)
            terms.append((*link, contribs))
            g.append(contribs.mean(axis=1))
            if frozen_inv is None:
                sigma.append(contribs @ contribs.T / assembler.n)
        if frozen_inv is not None:
            return _Point(rows, np.array(g), frozen_inv, None, terms)
        return _Point(rows, np.array(g), *_weight_inverse(np.array(sigma)), terms)

    def derivatives(self, point, u, continuous):
        """(G_n, exact half-gradient of the searched objective, hessian) of
        each problem of ``point``, with u = W g; see ``_Assembler.derivatives``.
        ``hessian()`` stacks each problem's exact Hessian of Q_n / 2 under
        continuous updating; with a frozen weight ``hessian`` is None."""
        jac, half_grad, hessians = zip(
            *(
                self.assemblers[r].derivatives(t, v, continuous)
                for r, t, v in zip(point.rows, point.terms, u)
            )
        )
        if not continuous:
            return np.array(jac), np.array(half_grad), None

        def hessian():
            return np.array([h(w) for h, w in zip(hessians, point.w_inv)])

        return np.array(jac), np.array(half_grad), hessian


class _Solution(NamedTuple):
    """Where the solver stopped, with the inverse normal matrix there."""

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    iterates: np.ndarray
    degraded: bool
    gradient_norm: float
    normal_inverse: np.ndarray


def _direction(model, point, free, continuous):
    """(inverse normal matrix, step for the free coordinates, gradient norm)
    of each problem of the stacked ``point``, and a dict from the position of
    each problem that cannot go on to the exception that stops it.

    One ``eigh`` V Lambda V' of each normal matrix G_f' W G_f gives the rank
    check, the inverse V Lambda^-1 V' and the Gauss-Newton step
    -V Lambda^-1 V' h_f. Under continuous updating the step is Newton's,
    from the ``eigh`` of the exact H_ff (of the callable ``derivatives``
    returns, called only here), where H_ff has a positive smallest
    eigenvalue, in the solves the model's ``newton_bound`` admits:

    * None (identity link): restricted solves only, as Newton steps move
      fits' estimates by up to 1.8e-7, beyond the benchmark reference
      (ROADMAP item 3); G_f' W G_f and H_ff then go through one stacked
      ``eigh``;
    * a number (logit link): fits too, but a Newton step whose largest
      coordinate exceeds ``newton_bound`` times the Gauss-Newton step's is
      refused: far from the minimum H_ff can be positive definite along a
      path to where the CUE objective levels off at a higher value. Where
      even that longest step would be below STEP_TOL, the search stops
      whichever step it gets, so no Hessian is formed.

    Each slice of a stacked ``eigh`` is its own LAPACK call, and the
    checks and the choice of step are array operations on each problem's
    own slice, as when it is solved alone; a problem that fails its rank
    check gets unit eigenvalues as a stand-in, and only its error counts
    (the dict is built only when some problem fails, else it is empty).
    With no free coordinate the check passes, no Hessian is formed and the
    step is empty.
    """
    u = (point.w_inv @ point.g[:, :, None])[..., 0]
    jac, half_grad, hessian = model.derivatives(point, u, continuous)
    free_jac = jac[:, :, free]
    normal = free_jac.swapaxes(1, 2) @ point.w_inv @ free_jac
    score = half_grad[:, free, None]
    grad_norm = np.abs(score).max(axis=(1, 2), initial=0.0)
    # eigh does not raise on NaN or inf input: reject it first, and give
    # eigh a finite stand-in for it
    finite = np.isfinite(normal).all(axis=(1, 2))
    if not finite.all():
        normal = np.where(finite[:, None, None], normal, 1.0)
    newton = hessian is not None and free.size
    # a restricted identity-link round: one eigh for both matrices
    paired = newton and model.newton_bound is None and free.size < jac.shape[2]
    if paired:
        lam, vec = np.linalg.eigh(np.concatenate([normal, _free_hessian(hessian, free)]))
        r = len(normal)
        lam, h_lam, vec, h_vec = lam[:r], lam[r:], vec[:r], vec[r:]
    else:
        lam, vec = np.linalg.eigh(normal)
    mags = np.abs(lam)
    failed = ~finite | (mags.min(axis=1, initial=np.inf) <= mags.max(axis=1, initial=0.0) * 1e-13)
    errors = {}
    if failed.any():
        errors = {
            i: RankDeficient(
                "moment Jacobian is rank deficient for the free coordinates"
                if finite[i]
                else "normal matrix of the free coordinates is not finite"
            )
            for i in np.flatnonzero(failed).tolist()
        }
        lam[failed] = 1.0
    normal_inv = (vec / lam[:, None, :]) @ vec.swapaxes(1, 2)
    if not newton or model.newton_bound is None:
        if paired:
            use = h_lam[:, :1] > 0.0
            lam, vec = np.where(use, h_lam, lam), np.where(use[:, :, None], h_vec, vec)
        return normal_inv, -_solve(lam, vec, score)[..., 0], grad_norm, errors
    gauss_newton = _solve(lam, vec, score)
    reach = model.newton_bound * np.abs(gauss_newton).max(axis=(1, 2))
    if (reach < STEP_TOL).all():
        return normal_inv, -gauss_newton[..., 0], grad_norm, errors
    h_lam, h_vec = np.linalg.eigh(_free_hessian(hessian, free))
    use = h_lam[:, 0] > 0.0
    newton_step = _solve(np.where(use[:, None], h_lam, 1.0), h_vec, score)
    use &= np.abs(newton_step).max(axis=(1, 2)) <= reach
    step = np.where(use[:, None, None], newton_step, gauss_newton)
    return normal_inv, -step[..., 0], grad_norm, errors


def _free_hessian(hessian, free):
    """Each problem's H_ff; a non-finite H_ff has the zero matrix as its
    stand-in, whose eigenvalues are not positive, so it takes Gauss-Newton."""
    hess = hessian()[:, free][:, :, free]
    return np.where(np.isfinite(hess).all(axis=(1, 2))[:, None, None], hess, 0.0)


def _solve(lam, vec, rhs):
    """V Lambda^-1 V' rhs of each problem, from its eigenpairs."""
    return vec @ (vec.swapaxes(1, 2) @ rhs / lam[:, :, None])


def _model(assemblers, beta0):
    """Moments of a stack of problems: one Gram pass per problem at its row
    of beta0 under the identity link, else per-subject moments."""
    if assemblers[0].spec.link is Link.IDENTITY:
        return _AffineMoments(assemblers, beta0)
    return _SubjectMoments(assemblers)


def _search(beta, free):
    """Newton or Gauss-Newton with step halving on Q_n over the free
    coordinates, for one problem from beta, as a generator.

    It yields each point where it needs the objective, beta first, and is
    sent (Q_n, weight rank) there, the rank None for a frozen weight. At
    each accepted point it yields None and is sent (inverse normal matrix,
    step, its largest coordinate, gradient norm, moment count) there. It
    returns its ``_Solution``, or raises SingularWeightMatrix where the
    weight's rank falls below p.
    """
    p = beta.size
    # low is the smallest weight rank at an accepted point
    q_cur, low = yield beta
    if low < p:
        raise _rank_error(low, p)
    iterates = [beta]
    normal_inv, step, step_norm, grad_norm, d = yield None
    converged = False
    iterations = 0
    for _ in range(MAX_ITER):
        if step_norm < STEP_TOL:
            converged = True
            break
        iterations += 1
        alpha = 1.0
        smallest_gap = np.inf
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta.copy()
            candidate[free] += alpha * step
            trial_q, rank = yield candidate
            if rank is not None and rank < p:
                raise _rank_error(rank, p)
            if trial_q < q_cur:
                break
            smallest_gap = min(smallest_gap, abs(trial_q - q_cur))
            alpha *= 0.5
        else:
            # No achievable decrease: objective flat along the direction.
            converged = smallest_gap < OBJECTIVE_TOL
            break
        # alpha is a power of two, so this is the largest coordinate taken
        stopped = alpha * step_norm < STEP_TOL or q_cur - trial_q < OBJECTIVE_TOL
        beta, q_cur = candidate, trial_q
        low = low if rank is None else min(low, rank)
        iterates.append(beta)
        normal_inv, step, step_norm, grad_norm, d = yield None
        if stopped:
            converged = True
            break
    return _Solution(
        beta=beta,
        objective=q_cur,
        iterations=iterations,
        converged=converged,
        iterates=np.asarray(iterates),
        degraded=low < d,
        gradient_norm=grad_norm,
        normal_inverse=normal_inv,
    )


def _minimize(model, rows, beta0, free, options):
    """``_search`` of each problem ``rows`` of ``model`` in lockstep, row j of
    beta0 starting problem rows[j]. Returns per problem its ``_Solution``
    or the error that stopped it.

    Each problem's search is one serial loop; this function only stacks their
    requests. Each round makes one stacked evaluation for the searches that
    asked for Q_n and, when any of them accepted a point, one stacked
    ``_direction`` over that whole evaluation, of which only the searches
    at an accepted point read their slice. Every stacked kernel gives a
    problem, bit for bit, what it gives that problem alone, so each result
    is the one the problem gets as a batch of one. With no free coordinate
    the search stops at its start, where Q_n is the joint null's objective.

    The step preconditions the exact objective gradient with the inverse
    V Lambda^-1 V' of the exact Hessian or of G' Sigma^{-1} G, from one
    ``eigh`` of each (``_direction``), both positive definite, so it is
    always a descent direction and the fixed point is a stationary point of
    the minimized objective (continuously-updating Q_n, or the frozen-weight
    form in two-step mode) of ``model``, from ``_model``. Continuously-updated
    solves take the Hessian's step where ``_direction`` admits it: logit fits
    and restricted solves, within the model's ``newton_bound``, and
    restricted identity-link solves; identity-link fits and two-step solves
    take Gauss-Newton steps and form no Hessian (``derivatives``' callable).
    """
    rows = np.asarray(rows)
    continuous = not options.two_step
    searches = [_search(np.array(start, dtype=float), free) for start in beta0]
    requests = [next(search) for search in searches]
    outcomes = [None] * len(searches)
    active, frozen = list(range(len(searches))), None

    def resume(j, reply):
        try:
            requests[j] = searches[j].send(reply)
        except StopIteration as stop:
            outcomes[j] = stop.value
        except SingularWeightMatrix as err:
            outcomes[j] = err

    while active:
        trial = model.evaluate(
            rows[active],
            np.array([requests[j] for j in active]),
            None if frozen is None else frozen[active],
        )
        if frozen is None and not continuous:
            frozen = trial.w_inv  # the weights at the starts, held from here on
        ranks = [None] * len(active) if trial.rank is None else trial.rank.tolist()
        for j, q, rank in zip(active, trial.objective().tolist(), ranks):
            resume(j, (q, rank))
        at = [k for k, j in enumerate(active) if outcomes[j] is None and requests[j] is None]
        if at:
            normal_inv, step, grad_norm, errors = _direction(model, trial, free, continuous)
            step_norm = np.abs(step).max(axis=1, initial=0.0).tolist()
            grad_norm = grad_norm.tolist()
            for k in at:
                if k in errors:
                    outcomes[active[k]] = errors[k]
                else:
                    reply = normal_inv[k], step[k], step_norm[k], grad_norm[k], trial.g.shape[1]
                    resume(active[k], reply)
        active = [j for j in active if outcomes[j] is None]
    return outcomes


class _Fitted(NamedTuple):
    """A fit with the moment model its solver searched and its row there."""

    result: FitResult
    model: object
    row: int


def _value(outcome):
    """The outcome of a batch of one, raising the error that stopped it."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fit(
    config: ExtendedScoreConfig,
    dataset: LongitudinalDataset,
    init: np.ndarray | None = None,
    options: FitOptions | None = None,
) -> FitResult:
    """Minimize the quadratic objective and return the fitted result.

    Non-convergence is reported through ``converged=False`` on the result
    rather than an exception; rank failures raise RankDeficient and a
    weight matrix with rank below p raises SingularWeightMatrix.
    """
    starts = None if init is None else [_coefficients(init, dataset.p, "init")]
    return _value(_fit([config], [dataset], options or FitOptions(), starts)[0]).result


def _fit(configs, datasets, options, starts=None):
    """``fit`` of each problem (configs[i], datasets[i]), in lockstep.

    Problems whose moments stack (one link, basis, p and count of kept
    subgroups) are solved together, each expanded at its own start:
    ``starts[i]`` where given (a start value, or the QifauxError that
    computing it raised), else the problem's ``initial_estimate``. Returns
    per problem its ``_Fitted``, or the QifauxError that stopped it.
    """
    outcomes = [None] * len(configs)
    batches = {}
    for i, (config, dataset) in enumerate(zip(configs, datasets)):
        try:
            assembler, dropped = _build_assembler(config, dataset, options)
            if starts is None:
                beta0 = initial_estimate(config, dataset)
            else:
                beta0 = _value(starts[i])
        except QifauxError as err:
            outcomes[i] = err
            continue
        key = (config.spec.link, assembler.basis_stack.shape, assembler.p, len(assembler.phi))
        batches.setdefault(key, []).append((i, assembler, dropped, beta0))
    for batch in batches.values():
        index, assemblers, dropped, beta0 = zip(*batch)
        beta0 = np.array(beta0)
        model = _model(assemblers, beta0)
        free = np.arange(beta0.shape[1])
        for j, sol in enumerate(_minimize(model, np.arange(len(batch)), beta0, free, options)):
            if isinstance(sol, Exception):
                outcomes[index[j]] = sol
                continue
            # every coordinate is free: (G' W G)^-1 at the solution
            covariance = sol.normal_inverse / assemblers[j].n
            result = FitResult(
                beta_hat=sol.beta,
                covariance=(covariance + covariance.T) / 2.0,
                objective=sol.objective,
                iterations=sol.iterations,
                converged=sol.converged,
                gradient_norm=sol.gradient_norm,
                iterates=sol.iterates,
                weight_rank_deficient=sol.degraded,
                dropped_groups=dropped[j],
            )
            outcomes[index[j]] = _Fitted(result, model, j)
    return outcomes


def profile_test(
    config: ExtendedScoreConfig,
    dataset: LongitudinalDataset,
    constrained_indices,
    constrained_values,
    options: FitOptions | None = None,
    unrestricted: FitResult | None = None,
) -> ProfileTestResult:
    """Profile chi-square test of H0: beta[constrained] = values.

    The statistic n * (Q_restricted - Q_unrestricted) is asymptotically
    chi-square with one degree of freedom per pinned coordinate; separate
    numerical optimizations can make it marginally negative, in which case
    it is clamped to zero and flagged. NotConverged reports a restricted
    solve that stopped unconverged. The test searches the fit's own moment
    model: without ``unrestricted`` the one ``fit`` makes here, else one
    expanded at ``unrestricted.iterates[0]``, the start that fit expanded
    around (``beta_hat`` when no iterates are recorded).
    """
    options = options or FitOptions()
    indices, values = _hypothesis(constrained_indices, constrained_values, dataset.p)
    if unrestricted is None:
        fitted = _value(_fit([config], [dataset], options)[0])
    else:
        if np.shape(unrestricted.beta_hat) != (dataset.p,):
            raise ValueError(f"unrestricted.beta_hat must have shape ({dataset.p},)")
        iterates = unrestricted.iterates
        if iterates is not None and np.shape(iterates[:1]) != (1, dataset.p):
            raise ValueError(f"unrestricted.iterates[0] must have shape ({dataset.p},)")
        start = unrestricted.beta_hat if iterates is None else iterates[0]
        if not (np.isfinite(unrestricted.beta_hat).all() and np.isfinite(start).all()):
            raise ValueError("unrestricted.beta_hat and unrestricted.iterates[0] must be finite")
        assembler = _build_assembler(config, dataset, options)[0]
        fitted = _Fitted(unrestricted, _model([assembler], start[None]), 0)
    return _value(_profile_tests([fitted], dataset.n, indices, values, options)[0])


def _hypothesis(constrained_indices, constrained_values, p):
    """(indices, values) arrays of a point null on distinct coordinates of p."""
    indices = np.asarray(constrained_indices)
    values = np.asarray(constrained_values, dtype=float)
    if indices.ndim != 1 or indices.size == 0 or indices.size != values.size:
        raise ValueError("need one value per constrained index")
    if not all(
        isinstance(i, (int, np.integer)) and not isinstance(i, bool)
        for i in constrained_indices
    ):
        raise ValueError("constrained indices must be integers")
    indices = indices.astype(int)
    if len(set(indices.tolist())) != indices.size:
        raise ValueError("constrained indices must be distinct")
    if ((indices < 0) | (indices >= p)).any():
        raise ValueError(f"constrained indices must lie in 0..{p - 1}")
    if not np.isfinite(values).all():
        raise ValueError("constrained values must be finite")
    return indices, values


def _profile_tests(fitted, n, indices, values, options):
    """``profile_test`` of one hypothesis against each ``_Fitted`` of
    ``fitted``, on the moment model its fit searched, in lockstep per model;
    n is the subject count. Returns per fit its ProfileTestResult or the
    QifauxError that stopped the test."""
    outcomes = [None] * len(fitted)
    batches = {}
    for j, f in enumerate(fitted):
        batches.setdefault(id(f.model), []).append(j)
    for js in batches.values():
        model = fitted[js[0]].model
        rows = np.array([fitted[j].row for j in js])
        beta_start = np.array([fitted[j].result.beta_hat for j in js])
        beta_start[:, indices] = values
        free = np.delete(np.arange(beta_start.shape[1]), indices)
        restricted = [
            _restricted(sol) for sol in _minimize(model, rows, beta_start, free, options)
        ]
        for j, out in zip(js, restricted):
            if isinstance(out, Exception):
                outcomes[j] = out
            else:
                outcomes[j] = _test_result(n, fitted[j].result, *out, int(indices.size))
    return outcomes


def _restricted(solution):
    """(beta, Q_n) of a converged restricted solve, else its error."""
    if isinstance(solution, Exception):
        return solution
    if not solution.converged:
        # the last step was refused exactly when it left no iterate
        flat = len(solution.iterates) == solution.iterations
        return NotConverged(solution.iterations, flat)
    return solution.beta, solution.objective


def _test_result(n, unrestricted, beta_restricted, q_restricted, df):
    """The profile test of a restricted minimum against its unrestricted fit."""
    statistic = n * (q_restricted - unrestricted.objective)
    clamped = statistic < 0
    statistic = max(statistic, 0.0)
    return ProfileTestResult(
        statistic=float(statistic),
        df=df,
        p_value=float(special.chdtrc(df, statistic)),
        beta_restricted=beta_restricted,
        beta_unrestricted=unrestricted.beta_hat,
        clamped=bool(clamped),
    )


def _wald_bounds(center, variance, level):
    """center -/+ z sqrt(variance), elementwise, with z the standard normal
    quantile at 0.5 + level / 2."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    half = special.ndtri(0.5 + level / 2.0) * np.sqrt(variance)
    return center - half, center + half


def wald_interval(result: FitResult, index: int, level: float = 0.95):
    """Normal-theory confidence interval for one coefficient."""
    lo, hi = _wald_bounds(result.beta_hat[index], result.covariance[index, index], level)
    return float(lo), float(hi)


def relative_efficiency(result_a: FitResult, result_b: FitResult, index: int) -> float:
    """Ratio of variances Var_a / Var_b for one coefficient."""
    va = float(result_a.covariance[index, index])
    vb = float(result_b.covariance[index, index])
    if vb == 0.0:
        raise ZeroDivisionError("comparison variance is zero")
    return va / vb
