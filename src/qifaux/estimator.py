"""GMM estimation of the marginal model from extended moment conditions.

The moment vector stacks the L working-correlation score blocks

    S^(l)_n(beta) = (1/n) sum_i  mudot_i' A_i^{-1/2} M_l A_i^{-1/2} (Y_i - mu_i)

with the K auxiliary blocks Psi^(k)_n(beta). The estimator minimizes the
quadratic form Q_n(beta) = g_n' Sigma_n(beta)^{-1} g_n with the empirical
second-moment weight Sigma_n re-evaluated at every iterate (continuously
updating). Minimization is Gauss-Newton with step halving on Q_n, using
the exact objective gradient

    dQ/dbeta = (2/n) sum_i (1 - g_i' Sigma^{-1} g_n) * (dg_i/dbeta)' Sigma^{-1} g_n,

whose second factor inside the sum carries the derivative-of-weight term.

Under the identity link every contribution is affine in beta,
g_i(beta) = g_i(beta0) + T_i (beta - beta0), so with Z_i = [g_i(beta0) | T_i]
and w = (1, beta - beta0) the solver needs only the mean and the Gram
matrix of the Z_i: g_n = mean(Z) w, Sigma_n = (1/n) sum_i Z_i w w' Z_i',
G_n = mean(T), and the gradient above in closed form (Hansen, Heaton and
Yaron 1996). One pass at the start value builds them at a cost of
O(n d^2 (p+1)^2); every Gauss-Newton iteration after it is free of n. That
pass replaces an O(n d^2) weight update per objective evaluation, so its
advantage narrows as p grows. Other links recompute the per-subject
contributions at each evaluation and difference Q_n centrally, because
their closed-form contribution Jacobians are truncated.

Targeting the exact minimizer matters in finite samples: the fixed point
of the plain iteration G_n' Sigma_n^{-1} g_n = 0 retains a bias of order
(moment count)/n driven by correlation between the empirical Jacobian and
the moments, which exact minimization removes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .auxiliary import AuxiliaryInfo
from .basis import BasisSet
from .errors import (
    EmptySubgroup,
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
    variance_function,
)

# Relative singular-value cutoff for the pseudo-inverse of Sigma_n.
WEIGHT_RCOND = 1e-10


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
    max_iter: int = 100
    step_tol: float = 1e-8
    objective_tol: float = 1e-12
    max_halvings: int = 20
    two_step: bool = False
    allow_empty_subgroups: bool = False
    init_fisher_steps: int = 25


@dataclass(frozen=True)
class FitResult:
    """Point estimate with plug-in covariance and solver diagnostics.

    ``covariance`` estimates Var(beta_hat) directly (the 1/n factor is
    already applied). ``iterates`` records the full Gauss-Newton
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
    """Precomputed arrays and cached algebra for one (config, dataset).

    ``row_mask`` selects active moment rows; dropping auxiliary blocks for
    empty subgroups happens here so that every downstream quantity (moments,
    weight, Jacobian) stays mutually consistent.
    """

    def __init__(self, config, dataset, row_mask=None):
        self.config = config
        self.spec = config.spec
        self.x = dataset.covariates
        self.y = dataset.responses
        self.n, self.q, self.p = self.x.shape
        self.basis_stack = config.basis.stacked()
        if config.basis.q != self.q:
            raise ValueError(
                f"basis dimension {config.basis.q} does not match data q={self.q}"
            )
        self.n_basis = self.basis_stack.shape[0]
        aux = config.aux
        self.n_groups = aux.n_groups if aux is not None else 0
        if self.n_groups > 0:
            self.phi = aux.phi_matrix()
            if self.phi.shape[1] != self.q:
                raise ValueError("phi vectors must have length q")
            self.group_idx = aux.partition.group_indices(dataset)
            self.group_counts = np.bincount(self.group_idx, minlength=self.n_groups)
        else:
            self.phi = None
            self.group_idx = None
            self.group_counts = np.zeros(0, dtype=int)
        self.dim_full = self.p * self.n_basis + self.n_groups * self.q
        self.row_mask = row_mask

    # -- moment machinery ------------------------------------------------

    def _mu(self, beta):
        return mean_curve(self.spec, self.x @ beta)

    def _weights_and_derivative(self, mu):
        """(a, d) with a = (dispersion*v(mu))^(-1/2) and d = dmu/dbeta'."""
        a = (self.spec.dispersion * variance_function(self.spec, mu)) ** -0.5
        return a, mean_derivative(self.spec, mu)[:, :, None] * self.x

    def contributions(self, beta):
        """(n, d) per-subject moment contributions at beta."""
        mu = self._mu(beta)
        resid = self.y - mu
        a, deriv = self._weights_and_derivative(mu)
        t = a * resid
        # (n, L, q): M_l applied within each subject
        mixed = (t @ self.basis_stack.reshape(-1, self.q).T).reshape(self.n, -1, self.q)
        mixed *= a[:, None, :]
        qif = (mixed @ deriv).reshape(self.n, -1)
        if self.n_groups == 0:
            out = qif
        else:
            diff = mu - self.phi[self.group_idx]
            aux = np.zeros((self.n, self.n_groups, self.q))
            aux[np.arange(self.n), self.group_idx] = diff
            out = np.concatenate([qif, aux.reshape(self.n, -1)], axis=1)
        if self.row_mask is not None:
            out = out[:, self.row_mask]
        return out

    def moments(self, beta):
        contribs = self.contributions(beta)
        return contribs.mean(axis=0), contribs

    def contribution_jacobians(self, beta):
        """(n, d, p) per-subject derivative tensor of the contributions.

        QIF blocks keep only -mudot' A^{-1/2} M_l A^{-1/2} mudot; the terms
        involving second derivatives of mu and derivatives of the variance
        weights are dropped (they are exactly zero under the identity link
        and vanish asymptotically otherwise). Auxiliary blocks are exact.
        """
        a, deriv = self._weights_and_derivative(self._mu(beta))
        scaled = a[:, :, None] * deriv
        # (n, p, L, q): scaled' M_l, then times scaled within each subject
        left = np.tensordot(scaled, self.basis_stack, axes=(1, 1))
        qif = -(left.reshape(self.n, -1, self.q) @ scaled)
        qif = qif.reshape(self.n, self.p, -1, self.p).transpose(0, 2, 1, 3)
        parts = [qif.reshape(self.n, -1, self.p)]
        if self.n_groups > 0:
            aux = np.zeros((self.n, self.n_groups, self.q, self.p))
            aux[np.arange(self.n), self.group_idx] = deriv
            parts.append(aux.reshape(self.n, -1, self.p))
        tensor = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        if self.row_mask is not None:
            tensor = tensor[:, self.row_mask, :]
        return tensor

    def jacobian(self, beta):
        """(d, p) derivative matrix G_n of the mean moment vector."""
        return self.contribution_jacobians(beta).mean(axis=0)


def _weight_inverse(sigma, p):
    """Pseudo-inverse of the second-moment weight matrix Sigma_n.

    Returns (inverse, rank); raises SingularWeightMatrix when the rank
    falls below the parameter dimension p.
    """
    u, s, vt = np.linalg.svd(sigma, hermitian=True)
    top = s[0] if s.size else 0.0
    cutoff = top * WEIGHT_RCOND
    rank = int((s > cutoff).sum())
    if rank < p:
        raise SingularWeightMatrix(
            f"weight matrix rank {rank} < parameter dimension {p}"
        )
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv_s) @ vt, rank


def _build_assembler(config, dataset, options):
    """Assembler with the empty-subgroup policy applied."""
    probe = _Assembler(config, dataset)
    dropped = ()
    if probe.n_groups > 0:
        empty = np.flatnonzero(probe.group_counts == 0)
        if empty.size > 0:
            if not options.allow_empty_subgroups:
                raise EmptySubgroup(int(empty[0]))
            mask = np.ones(probe.dim_full, dtype=bool)
            for k in empty:
                start = probe.p * probe.n_basis + k * probe.q
                mask[start : start + probe.q] = False
            probe.row_mask = mask
            dropped = tuple(int(k) for k in empty)
    return probe, dropped


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
    g, w_inv, rank = _SubjectMoments(_Assembler(config, dataset)).evaluate(beta)
    if rank < g.shape[0]:
        warnings.warn(
            "weight matrix is rank deficient; using pseudo-inverse",
            WeightRankWarning,
            stacklevel=2,
        )
    return float(g @ w_inv @ g)


def score_jacobian(
    config: ExtendedScoreConfig, dataset: LongitudinalDataset, beta: np.ndarray
) -> np.ndarray:
    """(d, p) derivative matrix G_n of the mean moment vector."""
    beta = np.asarray(beta, dtype=float)
    return _Assembler(config, dataset).jacobian(beta)


def initial_estimate(
    config: ExtendedScoreConfig,
    dataset: LongitudinalDataset,
    fisher_steps: int = 25,
) -> np.ndarray:
    """Independence-working GEE starting value.

    Closed-form stacked least squares under the identity link; a fixed
    number of Fisher-scoring steps under the logit link.
    """
    x = dataset.covariates
    y = dataset.responses
    try:
        if config.spec.link is Link.IDENTITY:
            xtx = np.einsum("nqa,nqb->ab", x, x)
            xty = np.einsum("nqa,nq->a", x, y)
            return np.linalg.solve(xtx, xty)
        beta = np.zeros(dataset.p)
        for _ in range(fisher_steps):
            mu = mean_curve(config.spec, x @ beta)
            v = variance_function(config.spec, mu)
            xtwx = np.einsum("nqa,nq,nqb->ab", x, v, x)
            xtr = np.einsum("nqa,nq->a", x, y - mu)
            beta = beta + np.linalg.solve(xtwx, xtr)
        return beta
    except np.linalg.LinAlgError as err:
        raise RankDeficient(f"design matrix is rank deficient: {err}") from err


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
        z = np.concatenate(
            [
                assembler.contributions(beta0)[:, :, None],
                assembler.contribution_jacobians(beta0),
            ],
            axis=2,
        )
        d, k = z.shape[1:]
        z = z.reshape(n, -1)
        self.z_gram = (z.T @ z / n).reshape(-1, k)
        self.cross_shape = (d, k, d)
        self.z_mean = z.mean(axis=0).reshape(d, k)
        self.jacobian = self.z_mean[:, 1:]
        self.beta0 = beta0
        self.p = assembler.p

    def _offset(self, beta):
        return np.concatenate(([1.0], beta - self.beta0))

    def _cross(self, beta):
        """cross[a, j, b] = (1/n) sum_i Z_i[a, j] g_i(beta)[b]."""
        return (self.z_gram @ self._offset(beta)).reshape(self.cross_shape)

    def moment(self, beta):
        """g_n at beta."""
        return self.z_mean @ self._offset(beta)

    def weight(self, beta):
        """Sigma_n at beta."""
        return self._offset(beta) @ self._cross(beta)

    def evaluate(self, beta, frozen_inv=None):
        """(g_n, weight inverse, rank) at beta; rank is None for a frozen weight."""
        g = self.moment(beta)
        if frozen_inv is not None:
            return g, frozen_inv, None
        return (g, *_weight_inverse(self.weight(beta), self.p))

    def derivatives(self, beta, g, w_inv, frozen_inv):
        """(G_n, half-gradient of the searched objective) at beta.

        With a frozen weight the half-gradient is G' W g. Under continuous
        updating the weight's own beta-dependence subtracts
        (1/n) sum_i (g_i' u) T_i' u with u = W g.
        """
        u = w_inv @ g
        half_grad = self.jacobian.T @ u
        if frozen_inv is None:
            half_grad -= (u @ (self._cross(beta) @ u))[1:]
        return self.jacobian, half_grad


class _SubjectMoments:
    """Per-subject contributions at every evaluation, for non-identity links."""

    def __init__(self, assembler):
        self.assembler = assembler

    def evaluate(self, beta, frozen_inv=None):
        """(g_n, weight inverse, rank) at beta; rank is None for a frozen weight."""
        g, contribs = self.assembler.moments(beta)
        if frozen_inv is not None:
            return g, frozen_inv, None
        return (g, *_weight_inverse(weight_matrix(contribs), self.assembler.p))

    def derivatives(self, beta, g, w_inv, frozen_inv, h=1e-6):
        """(G_n, central-difference half-gradient of the searched objective).

        The closed-form contribution Jacobians deliberately drop the
        second-derivative and weight-derivative terms here, so they do not
        differentiate the objective exactly.
        """
        grad = np.zeros(beta.size)
        for j in range(beta.size):
            e = np.zeros(beta.size)
            e[j] = h
            gp, wp, _ = self.evaluate(beta + e, frozen_inv)
            gm, wm, _ = self.evaluate(beta - e, frozen_inv)
            grad[j] = (float(gp @ wp @ gp) - float(gm @ wm @ gm)) / (2.0 * h)
        return self.assembler.jacobian(beta), grad / 2.0


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


def _direction(model, beta, g, w_inv, frozen_inv, free):
    """(G_n, Gauss-Newton step for the free coordinates, gradient norm)."""
    jac, half_grad = model.derivatives(beta, g, w_inv, frozen_inv)
    free_jac = jac[:, free]
    normal = free_jac.T @ w_inv @ free_jac
    score = half_grad[free]
    svals = np.linalg.svd(normal, compute_uv=False)
    if svals.size == 0 or svals[0] == 0 or svals[-1] <= svals[0] * 1e-13:
        raise RankDeficient(
            "moment Jacobian is rank deficient for the free coordinates"
        )
    return jac, -np.linalg.solve(normal, score), float(np.abs(score).max())


def _minimize(assembler, beta0, free, options):
    """Gauss-Newton with step halving on Q_n over the free coordinates.

    The step preconditions the exact objective gradient with the
    (G' Sigma^{-1} G)^{-1} metric, so it is always a descent direction and
    the fixed point is a stationary point of the minimized objective
    (continuously-updating Q_n, or the frozen-weight form in two-step
    mode). The link decides only how the moments, weight and derivatives
    are produced: from sufficient statistics under the identity link,
    from per-subject contributions otherwise.
    """
    beta = np.asarray(beta0, dtype=float).copy()
    if assembler.spec.link is Link.IDENTITY:
        model = _AffineMoments(assembler, beta)
    else:
        model = _SubjectMoments(assembler)
    g, w_inv, rank = model.evaluate(beta)
    degraded = rank < g.shape[0]
    q_cur = float(g @ w_inv @ g)
    frozen_inv = w_inv if options.two_step else None
    jac, step, grad_norm = _direction(model, beta, g, w_inv, frozen_inv, free)
    iterates = [beta.copy()]
    converged = False
    iterations = 0
    for _ in range(options.max_iter):
        if np.abs(step).max() < options.step_tol:
            converged = True
            break
        iterations += 1
        accepted = False
        alpha = 1.0
        smallest_gap = np.inf
        for _ in range(options.max_halvings + 1):
            candidate = beta.copy()
            candidate[free] += alpha * step
            trial_g, trial_w, trial_rank = model.evaluate(candidate, frozen_inv)
            trial_q = float(trial_g @ trial_w @ trial_g)
            if trial_q < q_cur:
                accepted = True
                break
            smallest_gap = min(smallest_gap, abs(trial_q - q_cur))
            alpha *= 0.5
        if not accepted:
            # No achievable decrease: objective flat along the direction.
            converged = smallest_gap < options.objective_tol
            break
        delta_q = q_cur - trial_q
        taken = np.abs(alpha * step).max()
        beta, g, w_inv, q_cur = candidate, trial_g, trial_w, trial_q
        if trial_rank is not None:
            degraded = degraded or trial_rank < g.shape[0]
        iterates.append(beta.copy())
        jac, step, grad_norm = _direction(model, beta, g, w_inv, frozen_inv, free)
        if taken < options.step_tol or delta_q < options.objective_tol:
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
        weight_inverse=w_inv,
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
        beta0 = initial_estimate(config, dataset, options.init_fisher_steps)
    else:
        beta0 = np.asarray(init, dtype=float)
        if beta0.shape != (dataset.p,):
            raise ValueError(f"init must have shape ({dataset.p},)")
    # With every coordinate free, the solver has already checked that
    # this normal matrix is nonsingular at the solution.
    sol = _minimize(assembler, beta0, np.arange(dataset.p), options)
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
    it is clamped to zero and flagged.
    """
    options = options or FitOptions()
    indices = np.asarray(constrained_indices, dtype=int)
    values = np.asarray(constrained_values, dtype=float)
    p = dataset.p
    if indices.ndim != 1 or indices.size == 0 or indices.size != values.size:
        raise ValueError("need one value per constrained index")
    if len(set(indices.tolist())) != indices.size:
        raise ValueError("constrained indices must be distinct")
    if ((indices < 0) | (indices >= p)).any():
        raise ValueError(f"constrained indices must lie in 0..{p - 1}")
    if unrestricted is None:
        unrestricted = fit(config, dataset, options=options)
    assembler, _ = _build_assembler(config, dataset, options)
    beta_start = unrestricted.beta_hat.copy()
    beta_start[indices] = values
    free = np.setdiff1d(np.arange(p), indices)
    if free.size == 0:
        g, w_inv, _ = _SubjectMoments(assembler).evaluate(beta_start)
        q_restricted = float(g @ w_inv @ g)
        beta_restricted = beta_start
    else:
        restricted = _minimize(assembler, beta_start, free, options)
        beta_restricted, q_restricted = restricted.beta, restricted.objective
    statistic = dataset.n * (q_restricted - unrestricted.objective)
    clamped = statistic < 0
    statistic = max(statistic, 0.0)
    df = int(indices.size)
    return ProfileTestResult(
        statistic=float(statistic),
        df=df,
        p_value=float(stats.chi2.sf(statistic, df)),
        beta_restricted=beta_restricted,
        beta_unrestricted=unrestricted.beta_hat,
        clamped=bool(clamped),
    )


def wald_interval(result: FitResult, index: int, level: float = 0.95):
    """Normal-theory confidence interval for one coefficient."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    z = stats.norm.ppf(0.5 + level / 2.0)
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
