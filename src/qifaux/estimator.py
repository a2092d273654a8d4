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
Yaron 1996). A fit makes one O(n d^2 (p+1)^2) pass at its start value and the
profile tests of a fit share one at its estimate; every iteration after a
pass is free of n. It replaces an O(n d^2) weight update per objective
evaluation, so its advantage narrows as p grows. Other links recompute the
per-subject contributions at each evaluation and take the same gradient with
the exact contribution Jacobian, contracted with Sigma^{-1} g_n before the
sum over subjects. The Gauss-Newton metric and the plug-in covariance use the
truncated mean Jacobian G_n under both links; restricted identity-link CUE
solves step with the exact, n-free Hessian where it is positive definite, as
that metric misses the weight-derivative curvature a false null brings.

Each evaluation factors Sigma_n with one symmetric eigendecomposition and
returns a record of the terms the gradient needs (the Gram cross product
under the identity link, the link terms otherwise), so the gradient at an
accepted point recomputes none of them.

Targeting the exact minimizer matters in finite samples: the fixed point
of the plain iteration G_n' Sigma_n^{-1} g_n = 0 retains a bias of order
(moment count)/n driven by correlation between the empirical Jacobian and
the moments, which exact minimization removes.
"""

from __future__ import annotations

import warnings
from contextlib import suppress
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .auxiliary import AuxiliaryInfo
from .basis import BasisSet
from .errors import (
    EmptySubgroup,
    NotConverged,
    RankDeficient,
    SingularWeightMatrix,
    WeightRankWarning,
)
from .model import (
    Link,
    LongitudinalDataset,
    MarginalModelSpec,
    mean_curve,
    mean_derivative,
    mean_second_derivative,
    variance_function,
    variance_weight_derivative,
)

# Pseudo-inverse cutoff for Sigma_n: eigenvalues of magnitude at most
# WEIGHT_RCOND times the largest magnitude are treated as zero.
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
    """Precomputed arrays for one (config, dataset).

    ``member`` is the (n, K) subgroup-membership matrix 1{X_i in Omega_k}
    and ``phi`` the (K, q) targets; auxiliary block k of subject i is
    member[i, k] * (mu_i - phi_k), and its Jacobian member[i, k] * dmu_i,
    with K = 0 when there is no auxiliary information. ``_build_assembler``
    drops an empty subgroup by deleting its membership column and target
    row, so moments, weight and Jacobian all lose the same block.
    """

    def __init__(self, config, dataset):
        self.spec = config.spec
        self.x = dataset.covariates
        self.y = dataset.responses
        self.n, self.q, self.p = self.x.shape
        self.basis_stack = config.basis.stacked()
        if config.basis.q != self.q:
            raise ValueError(
                f"basis dimension {config.basis.q} does not match data q={self.q}"
            )
        aux = config.aux
        if aux is None or aux.n_groups == 0:
            self.phi = np.zeros((0, self.q))
            self.member = np.zeros((self.n, 0))
        else:
            self.phi = np.stack(aux.phi)
            if self.phi.shape[1] != self.q:
                raise ValueError("phi vectors must have length q")
            idx = aux.partition.group_indices(dataset)
            self.member = (idx[:, None] == np.arange(aux.n_groups)).astype(float)

    # -- moment machinery ------------------------------------------------

    def _link_terms(self, beta):
        """(mu, a, d) with a = v(mu)^(-1/2) and d = dmu/dbeta'."""
        eta = (self.x.reshape(-1, self.p) @ beta).reshape(self.n, self.q)
        mu = mean_curve(self.spec, eta)
        a = variance_function(self.spec, mu) ** -0.5
        return mu, a, mean_derivative(self.spec, mu)[:, :, None] * self.x

    def _mixed(self, mu, a):
        """(n, L, q) M_l A^(-1/2) (Y - mu), M_l applied within each subject."""
        t = a * (self.y - mu)
        return (t @ self.basis_stack.reshape(-1, self.q).T).reshape(self.n, -1, self.q)

    def contributions(self, beta):
        """(n, d) per-subject moment contributions at beta."""
        return self._contributions(*self._link_terms(beta))

    def _contributions(self, mu, a, deriv):
        mixed = self._mixed(mu, a)
        mixed *= a[:, None, :]
        qif = (mixed @ deriv).reshape(self.n, -1)
        # member @ phi is each subject's own target, picked exactly
        aux = np.einsum("nk,nq->nkq", self.member, mu - self.member @ self.phi)
        return np.concatenate([qif, aux.reshape(self.n, -1)], axis=1)

    def moments(self, beta):
        contribs = self.contributions(beta)
        return contribs.mean(axis=0), contribs

    def _jacobians(self, a, deriv):
        """(n, d, p) per-subject derivative tensor of the contributions.

        QIF blocks keep only -mudot' A^{-1/2} M_l A^{-1/2} mudot; the terms
        involving second derivatives of mu and derivatives of the variance
        weights are dropped (they are exactly zero under the identity link
        and vanish asymptotically otherwise). Auxiliary blocks are exact.
        Under other links the solver's gradient adds the dropped terms
        (``derivatives``); its metric and covariance keep this Jacobian.
        """
        scaled = a[:, :, None] * deriv
        # (n, p, L, q): scaled' M_l, then times scaled within each subject
        left = np.tensordot(scaled, self.basis_stack, axes=(1, 1))
        qif = -(left.reshape(self.n, -1, self.q) @ scaled)
        qif = qif.reshape(self.n, self.p, -1, self.p).transpose(0, 2, 1, 3)
        aux = np.einsum("nk,nj->nkj", self.member, deriv.reshape(self.n, -1))
        return np.concatenate(
            [qif.reshape(self.n, -1, self.p), aux.reshape(self.n, -1, self.p)], axis=1
        )

    def blocks(self, beta):
        """(n, d, p+1) blocks [g_i | dg_i/dbeta] at beta from one (mu, a, d)."""
        mu, a, deriv = self._link_terms(beta)
        return np.concatenate(
            [self._contributions(mu, a, deriv)[:, :, None], self._jacobians(a, deriv)],
            axis=2,
        )

    def jacobian(self, beta):
        """(d, p) derivative matrix G_n of the mean moment vector."""
        _, a, deriv = self._link_terms(beta)
        return self._mean_jacobian(a, deriv)

    def _mean_jacobian(self, a, deriv):
        """Mean of ``_jacobians`` over subjects from one Gram matrix of the
        A^(-1/2) D_i, without the (n, d, p) tensor."""
        scaled = (a[:, :, None] * deriv).reshape(self.n, -1)
        gram = (scaled.T @ scaled / self.n).reshape(self.q, self.p, self.q, self.p)
        qif = -np.tensordot(self.basis_stack, gram, axes=([1, 2], [0, 2]))
        aux = self.member.T @ deriv.reshape(self.n, -1) / self.n
        return np.concatenate([qif.reshape(-1, self.p), aux.reshape(-1, self.p)])

    def derivatives(self, terms, u, continuous):
        """(G_n, (1/n) sum_i c_i (dg_i/dbeta)' u) from the (mu, a, d) at beta.

        dg_i/dbeta is the exact contribution Jacobian, and c_i = 1 - g_i' u
        under continuous updating, 1 with a frozen weight. Each factor of
        g_i' u at time j (mudot_j, a_j and r_j = y_ij - mu_ij) moves with
        beta only through x_ij' beta, so (dg_i/dbeta)' u = x_i' omega_i with

            omega_j = along_j (mu''_j a_j + a'_j mudot_j^2)
                      + mudot_j ((a'_j r_j - a_j) back_j + aux_j),

        where mu'' = d2mu/deta2, a' = d v^(-1/2) / dmu,
        along_j = sum_l (x_ij' u_l) (M_l A^(-1/2) r)_j,
        back = sum_l M_l' A^(-1/2) D_i u_l and aux = sum_k member_ik u_k
        over the score and auxiliary blocks u_l and u_k of u. Without the
        mu'' and a' terms this is the truncated Jacobian, which gives G_n.
        The cost is O(n q (L + p + K)); no per-subject Jacobian is formed.
        """
        mu, a, deriv = terms
        n_score = self.p * self.basis_stack.shape[0]
        u_aux = u[n_score:].reshape(-1, self.q)
        # xi[i, l, j] = x_ij' u_l
        xi = self.x.reshape(-1, self.p) @ u[:n_score].reshape(-1, self.p).T
        xi = xi.reshape(self.n, self.q, -1).swapaxes(1, 2)
        dmu = mean_derivative(self.spec, mu)
        da = variance_weight_derivative(self.spec, mu)
        along = np.einsum("nlq,nlq->nq", xi, self._mixed(mu, a))
        back = ((a * dmu)[:, None, :] * xi).reshape(self.n, -1)
        back = back @ self.basis_stack.reshape(-1, self.q)
        aux = self.member @ u_aux
        omega = along * (mean_second_derivative(self.spec, mu) * a + da * dmu**2)
        omega += dmu * ((da * (self.y - mu) - a) * back + aux)
        if continuous:
            # g_i' u from the same pieces: score blocks, then auxiliary blocks
            gu = (a * dmu * along + mu * aux).sum(axis=1)
            gu -= self.member @ (self.phi * u_aux).sum(axis=1)
            omega *= (1.0 - gu)[:, None]
        half_grad = omega.reshape(-1) @ self.x.reshape(-1, self.p) / self.n
        return self._mean_jacobian(a, deriv), half_grad


def _weight_inverse(sigma, p):
    """Pseudo-inverse of the symmetric second-moment weight matrix Sigma_n.

    One eigendecomposition; eigenvalues of magnitude at most WEIGHT_RCOND
    times the largest magnitude count as zero. Returns (inverse, rank);
    raises SingularWeightMatrix when the rank falls below the parameter
    dimension p.
    """
    lam, vec = np.linalg.eigh(sigma)
    # largest first, the order of the singular values, which fixes the
    # summation order of the product below
    lam, vec = lam[::-1], vec[:, ::-1]
    keep = np.abs(lam) > WEIGHT_RCOND * np.abs(lam).max(initial=0.0)
    rank = int(keep.sum())
    if rank < p:
        raise SingularWeightMatrix(
            f"weight matrix rank {rank} < parameter dimension {p}"
        )
    vec = vec[:, keep]
    return (vec * (1.0 / lam[keep])) @ vec.T, rank


def _build_assembler(config, dataset, options):
    """Assembler with the empty-subgroup policy applied."""
    assembler = _Assembler(config, dataset)
    kept = assembler.member.any(axis=0)
    empty = tuple(int(k) for k in np.flatnonzero(~kept))
    if empty and not options.allow_empty_subgroups:
        raise EmptySubgroup(empty[0])
    assembler.member = assembler.member[:, kept]
    assembler.phi = assembler.phi[kept]
    return assembler, empty


# -- public operations ----------------------------------------------------


def moment_vector(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean moment vector g_n and the (n, d) per-subject contributions."""
    beta = np.asarray(beta, dtype=float)
    return _Assembler(config, dataset).moments(beta)


def weight_matrix(per_subject_contributions: np.ndarray) -> np.ndarray:
    """Empirical second moment (1/n) sum_i g_i g_i' of the contributions."""
    contribs = np.asarray(per_subject_contributions, dtype=float)
    return contribs.T @ contribs / contribs.shape[0]


def objective(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> float:
    """Quadratic form g_n' Sigma_n^+ g_n; warns when Sigma_n lost rank."""
    beta = np.asarray(beta, dtype=float)
    point = _SubjectMoments(_Assembler(config, dataset)).evaluate(beta)
    if point.rank < point.g.shape[0]:
        warnings.warn(
            "weight matrix is rank deficient; using pseudo-inverse",
            WeightRankWarning,
            stacklevel=2,
        )
    return point.objective()


def score_jacobian(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> np.ndarray:
    """(d, p) derivative matrix G_n of the mean moment vector."""
    beta = np.asarray(beta, dtype=float)
    return _Assembler(config, dataset).jacobian(beta)


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
    """One objective evaluation: g_n, the weight inverse W and its rank
    (None for a frozen weight), and the model's terms that the gradient
    at this point reuses."""

    g: np.ndarray
    w_inv: np.ndarray
    rank: int | None
    terms: object

    def objective(self):
        return float(self.g @ self.w_inv @ self.g)


class _AffineMoments:
    """Identity-link moments from one Gram pass at the expansion point beta0.

    Z_i = [g_i(beta0) | T_i] is the (d, p+1) block of subject i, and the
    contribution at beta is Z_i w with w = (1, beta - beta0). The mean and
    Gram matrix of the Z_i give g_n, Sigma_n, G_n and the exact gradient
    without touching the subjects again. Expanding around the start value
    rather than zero keeps the cancellation in Sigma_n small. The README
    gives the p at which the Gram product stops paying for itself.
    """

    def __init__(self, assembler, beta0):
        n = assembler.n
        z = assembler.blocks(beta0)
        d, k = z.shape[1:]
        z = z.reshape(n, -1)
        self.z_gram = (z.T @ z / n).reshape(-1, k)
        self.t_gram = self.z_gram.reshape(d, k, d, k)[:, 1:, :, 1:]
        self.cross_shape = (d, k, d)
        self.z_mean = z.mean(axis=0).reshape(d, k)
        self.jacobian = self.z_mean[:, 1:]
        self.beta0 = beta0
        self.p = assembler.p

    def evaluate(self, beta, frozen_inv=None):
        """``_Point`` at beta. Under continuous updating its terms are
        cross[a, j, b] = (1/n) sum_i Z_i[a, j] g_i(beta)[b], and
        Sigma_n = w' cross."""
        w = np.concatenate(([1.0], beta - self.beta0))
        g = self.z_mean @ w
        if frozen_inv is not None:
            return _Point(g, frozen_inv, None, None)
        cross = (self.z_gram @ w).reshape(self.cross_shape)
        return _Point(g, *_weight_inverse(w @ cross, self.p), cross)

    def derivatives(self, point, u, continuous):
        """(G_n, half-gradient of the searched objective) at ``point``.

        With a frozen weight the half-gradient is G' u. Under continuous
        updating the weight's own beta-dependence subtracts
        (1/n) sum_i (g_i' u) T_i' u, with u = W g; ``point`` must then be a
        continuously-updated evaluation, which carries the cross product.
        """
        half_grad = self.jacobian.T @ u
        if continuous:
            half_grad -= (u @ (point.terms @ u))[1:]
        return self.jacobian, half_grad

    def hessian(self, point, u):
        """Exact Hessian B' W B - V of Q_n / 2 under continuous updating, in
        O(d^2 p^2 + d^3): u = W g has Jacobian W B, B = G - (dSigma/dbeta) u,
        and V = (1/n) sum_i T_i' u u' T_i."""
        cross = point.terms[:, 1:, :]
        b = self.jacobian - cross @ u - np.einsum("akb,a->bk", cross, u)
        return b.T @ point.w_inv @ b - np.einsum("a,ajbk,b->jk", u, self.t_gram, u)


class _SubjectMoments:
    """Per-subject contributions at every evaluation, for non-identity links.

    The half-gradient is exact (``_Assembler.derivatives``); G_n is the
    truncated mean Jacobian. A point's terms are the (mu, a, d) of
    ``_Assembler._link_terms``.
    """

    def __init__(self, assembler):
        self.assembler = assembler

    def evaluate(self, beta, frozen_inv=None):
        """``_Point`` at beta; its rank is None for a frozen weight."""
        terms = self.assembler._link_terms(beta)
        contribs = self.assembler._contributions(*terms)
        g = contribs.mean(axis=0)
        if frozen_inv is not None:
            return _Point(g, frozen_inv, None, terms)
        return _Point(
            g, *_weight_inverse(weight_matrix(contribs), self.assembler.p), terms
        )

    def derivatives(self, point, u, continuous):
        """(G_n, exact half-gradient of the searched objective) at ``point``,
        with u = W g; see ``_Assembler.derivatives``."""
        return self.assembler.derivatives(point.terms, u, continuous)


@dataclass(frozen=True)
class _Solution:
    """Where the solver stopped, with the weight and Jacobian held there."""

    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    iterates: np.ndarray
    degraded: bool
    gradient_norm: float
    weight_inverse: np.ndarray
    jacobian: np.ndarray


def _direction(model, point, free, continuous):
    """(G_n, step for the free coordinates, gradient norm): Newton's for a
    continuously-updated restricted solve with an exact, positive definite
    H_ff, else Gauss-Newton's. Fits keep Gauss-Newton: Newton moves their
    estimates by up to 1.8e-7, beyond the benchmark reference (ROADMAP item 2)."""
    jac, half_grad = model.derivatives(point, u := point.w_inv @ point.g, continuous)
    free_jac = jac[:, free]
    normal = free_jac.T @ point.w_inv @ free_jac
    score = half_grad[free]
    if not np.isfinite(normal).all():
        # eigvalsh does not raise on NaN or inf input; reject it here
        raise RankDeficient("normal matrix of the free coordinates is not finite")
    mags = np.abs(np.linalg.eigvalsh(normal))
    if mags.size == 0 or mags.max() == 0 or mags.min() <= mags.max() * 1e-13:
        raise RankDeficient(
            "moment Jacobian is rank deficient for the free coordinates"
        )
    if continuous and free.size < jac.shape[1] and hasattr(model, "hessian"):
        hess = model.hessian(point, u)[np.ix_(free, free)]
        with suppress(np.linalg.LinAlgError):
            np.linalg.cholesky(hess)
            normal = hess
    return jac, -np.linalg.solve(normal, score), float(np.abs(score).max())


def _model(assembler, beta0):
    """One Gram pass at beta0 under the identity link, else per-subject moments."""
    if assembler.spec.link is Link.IDENTITY:
        return _AffineMoments(assembler, beta0)
    return _SubjectMoments(assembler)


def _minimize(model, beta0, free, options):
    """Newton or Gauss-Newton with step halving on Q_n over the free coordinates.

    The step preconditions the exact objective gradient with the inverse of
    the exact Hessian or of G' Sigma^{-1} G (``_direction``), both positive
    definite, so it is always a descent direction and the fixed point is a
    stationary point of the minimized objective (continuously-updating Q_n,
    or the frozen-weight form in two-step mode) of ``model``, from ``_model``.
    """
    beta = np.asarray(beta0, dtype=float).copy()
    point = model.evaluate(beta)
    degraded = point.rank < point.g.shape[0]
    q_cur = point.objective()
    continuous = not options.two_step
    frozen_inv = None if continuous else point.w_inv
    jac, step, grad_norm = _direction(model, point, free, continuous)
    iterates = [beta.copy()]
    converged = False
    iterations = 0
    for _ in range(MAX_ITER):
        if np.abs(step).max() < STEP_TOL:
            converged = True
            break
        iterations += 1
        accepted = False
        alpha = 1.0
        smallest_gap = np.inf
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta.copy()
            candidate[free] += alpha * step
            trial = model.evaluate(candidate, frozen_inv)
            trial_q = trial.objective()
            if trial_q < q_cur:
                accepted = True
                break
            smallest_gap = min(smallest_gap, abs(trial_q - q_cur))
            alpha *= 0.5
        if not accepted:
            # No achievable decrease: objective flat along the direction.
            converged = smallest_gap < OBJECTIVE_TOL
            break
        delta_q = q_cur - trial_q
        taken = np.abs(alpha * step).max()
        beta, point, q_cur = candidate, trial, trial_q
        if continuous:
            degraded = degraded or point.rank < point.g.shape[0]
        iterates.append(beta.copy())
        jac, step, grad_norm = _direction(model, point, free, continuous)
        if taken < STEP_TOL or delta_q < OBJECTIVE_TOL:
            converged = True
            break
    return _Solution(
        beta=beta,
        objective=q_cur,
        iterations=iterations,
        converged=converged,
        iterates=np.asarray(iterates),
        degraded=degraded,
        gradient_norm=grad_norm,
        weight_inverse=point.w_inv,
        jacobian=jac,
    )


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
    options = options or FitOptions()
    assembler, dropped = _build_assembler(config, dataset, options)
    if init is None:
        beta0 = initial_estimate(config, dataset)
    else:
        beta0 = np.asarray(init, dtype=float)
        if beta0.shape != (dataset.p,):
            raise ValueError(f"init must have shape ({dataset.p},)")
    # With every coordinate free, the solver has already checked that
    # this normal matrix is nonsingular at the solution.
    sol = _minimize(_model(assembler, beta0), beta0, np.arange(dataset.p), options)
    normal = sol.jacobian.T @ sol.weight_inverse @ sol.jacobian
    covariance = np.linalg.inv(normal) / dataset.n
    covariance = (covariance + covariance.T) / 2.0
    return FitResult(
        beta_hat=sol.beta,
        covariance=covariance,
        objective=sol.objective,
        iterations=sol.iterations,
        converged=sol.converged,
        gradient_norm=sol.gradient_norm,
        iterates=sol.iterates,
        weight_rank_deficient=sol.degraded,
        dropped_groups=dropped,
    )


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
    solve that stopped unconverged.
    """
    options = options or FitOptions()
    indices, values = _hypothesis(constrained_indices, constrained_values, dataset.p)
    if unrestricted is None:
        unrestricted = fit(config, dataset, options=options)
    elif np.shape(unrestricted.beta_hat) != (dataset.p,):
        raise ValueError(f"unrestricted.beta_hat must have shape ({dataset.p},)")
    assembler, _ = _build_assembler(config, dataset, options)
    model = _model(assembler, unrestricted.beta_hat)
    return _profile_test(model, dataset.n, unrestricted, indices, values, options)


def _hypothesis(constrained_indices, constrained_values, p):
    """(indices, values) arrays of a point null on distinct coordinates of p."""
    indices = np.asarray(constrained_indices, dtype=int)
    values = np.asarray(constrained_values, dtype=float)
    if indices.ndim != 1 or indices.size == 0 or indices.size != values.size:
        raise ValueError("need one value per constrained index")
    if len(set(indices.tolist())) != indices.size:
        raise ValueError("constrained indices must be distinct")
    if ((indices < 0) | (indices >= p)).any():
        raise ValueError(f"constrained indices must lie in 0..{p - 1}")
    return indices, values


def _profile_test(model, n, unrestricted, indices, values, options):
    """``profile_test`` on ``model``, the ``_model`` at the unrestricted estimate."""
    beta_start = unrestricted.beta_hat.copy()
    beta_start[indices] = values
    free = np.setdiff1d(np.arange(beta_start.size), indices)
    if free.size == 0:
        q_restricted = model.evaluate(beta_start).objective()
        beta_restricted = beta_start
    else:
        restricted = _minimize(model, beta_start, free, options)
        if not restricted.converged:
            # the last step was refused exactly when it left no iterate
            flat = len(restricted.iterates) == restricted.iterations
            raise NotConverged(restricted.iterations, flat)
        beta_restricted, q_restricted = restricted.beta, restricted.objective
    statistic = n * (q_restricted - unrestricted.objective)
    clamped = statistic < 0
    statistic = max(statistic, 0.0)
    df = int(indices.size)
    return ProfileTestResult(
        statistic=float(statistic),
        df=df,
        p_value=float(special.chdtrc(df, statistic)),
        beta_restricted=beta_restricted,
        beta_unrestricted=unrestricted.beta_hat,
        clamped=bool(clamped),
    )


def wald_interval(result: FitResult, index: int, level: float = 0.95):
    """Normal-theory confidence interval for one coefficient."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    z = special.ndtri(0.5 + level / 2.0)
    center = result.beta_hat[index]
    half = z * np.sqrt(result.covariance[index, index])
    return float(center - half), float(center + half)


def relative_efficiency(result_a: FitResult, result_b: FitResult, index: int) -> float:
    """Variance ratio Var_a / Var_b for one coefficient."""
    va = float(result_a.covariance[index, index])
    vb = float(result_b.covariance[index, index])
    if vb == 0.0:
        raise ZeroDivisionError("comparison variance is zero")
    return va / vb
