"""Synthetic data generators and the Monte Carlo study harness.

The bundled designs draw q = 3 repeated Gaussian responses per subject from

    E(Y_j | x) = beta_1 * x_j1 + beta_2 * x_2,

with a time-varying first covariate (multivariate normal with CS, AR(1) or
independent correlation), a time-constant Bernoulli(0.5) second covariate,
and a unit-variance response correlation matrix. Auxiliary information uses
either the two-group split on x_2 or the four-group split crossing the sign
of X_11 with x_2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from scipy import stats

from .auxiliary import AuxiliaryInfo, SubgroupPartition, estimate_phi
from .basis import CorrelationStructure, build_basis, correlation_matrix
from .errors import MalformedRow, QifauxError, TooManyFailures
from .estimator import (
    ExtendedScoreConfig,
    FitOptions,
    _fit,
    _hypothesis,
    _profile_tests,
    _wald_bounds,
)
from .model import LongitudinalDataset, MarginalModelSpec

_ROLE_DATA = 0
_ROLE_HOLDOUT = 1

METHODS = ("qif", "gmmai2", "gmmai4")

# The paper's tables: 95% Wald intervals, 5% profile tests, and a study
# stops when a method loses more than 5% of its replications.
INTERVAL_LEVEL = 0.95
TEST_LEVEL = 0.05
MAX_FAILURE_SHARE = 0.05

# Replications solved in one lockstep stack: lockstep throughput levels off
# at about this depth, and memory grows with it.
CHUNK = 64


def _member_by_name(enum, name: str, kind: str):
    """The member whose value or lower-cased name matches ``name``."""
    key = name.strip().lower()
    for member in enum:
        if key == member.value or key == member.name.lower():
            return member
    raise ValueError(f"unknown {kind} {name!r}")


class AuxMode(Enum):
    NONE = "none"
    TWO_GROUP = "two_group"
    FOUR_GROUP = "four_group"

    @classmethod
    def from_name(cls, name: str) -> "AuxMode":
        return _member_by_name(cls, name, "aux mode")


class PhiSource(Enum):
    TRUE_VALUES = "true"
    HELD_OUT = "holdout"

    @classmethod
    def from_name(cls, name: str) -> "PhiSource":
        return _member_by_name(cls, name, "phi source")


@dataclass(frozen=True)
class SimulationDesign:
    """Everything needed to reproduce one Monte Carlo study."""

    n: int
    beta_true: tuple = (0.5, -0.5)
    sigma_x_structure: CorrelationStructure = CorrelationStructure.COMPOUND_SYMMETRY
    rho_x: float = 0.5
    sigma_y_structure: CorrelationStructure = CorrelationStructure.COMPOUND_SYMMETRY
    rho_y: float = 0.5
    working: CorrelationStructure = CorrelationStructure.COMPOUND_SYMMETRY
    aux_mode: AuxMode = AuxMode.NONE
    phi_source: PhiSource = PhiSource.TRUE_VALUES
    held_out_m: int = 5000
    seed: int = 0
    replications: int = 500

    def __post_init__(self):
        for name in ("n", "replications", "held_out_m", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if len(self.beta_true) != 2:
            raise ValueError("bundled designs use a two-dimensional coefficient")
        for structure, rho in (
            (self.sigma_x_structure, self.rho_x),
            (self.sigma_y_structure, self.rho_y),
        ):
            corr = correlation_matrix(structure, 3, rho)
            if np.linalg.eigvalsh(corr).min() <= 0:
                raise ValueError(
                    f"{structure.value} correlation with rho={rho} is not positive definite"
                )

    @property
    def q(self) -> int:
        return 3

    @property
    def p(self) -> int:
        return 2


# design-file key -> (SimulationDesign field, value parser)
_DESIGN_KEYS = {
    "n": ("n", int),
    "rho_x": ("rho_x", float),
    "rho_y": ("rho_y", float),
    "structure_x": ("sigma_x_structure", CorrelationStructure.from_name),
    "structure_y": ("sigma_y_structure", CorrelationStructure.from_name),
    "working": ("working", CorrelationStructure.from_name),
    "aux_mode": ("aux_mode", AuxMode.from_name),
    "phi_source": ("phi_source", PhiSource.from_name),
    "held_out_m": ("held_out_m", int),
    "seed": ("seed", int),
    "reps": ("replications", int),
}


def parse_design_config(text: str) -> SimulationDesign:
    """Parse a key=value design file (# starts a comment)."""
    values = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MalformedRow(line_number, f"expected key=value, got {line!r}")
        key = key.strip().lower()
        if key not in _DESIGN_KEYS:
            raise MalformedRow(line_number, f"unknown design key {key!r}")
        name, parse = _DESIGN_KEYS[key]
        try:
            values[name] = parse(value.strip())
        except ValueError as err:
            raise MalformedRow(line_number, f"bad value for {key!r}: {err}") from err
    if "n" not in values:
        raise ValueError("design config must set n")
    return SimulationDesign(**values)


def replication_rng(seed: int, replication: int, role: int) -> np.random.Generator:
    """Counter-based stream for one (replication, role) cell.

    The Philox counter is keyed by the design seed with the role and
    replication index placed in the high counter words, so streams never
    overlap and draws cannot be reordered by parallel scheduling.
    """
    bit_gen = np.random.Philox(key=seed, counter=[0, 0, role, replication])
    return np.random.Generator(bit_gen)


def generate_dataset(design: SimulationDesign, rng: np.random.Generator) -> LongitudinalDataset:
    """One synthetic panel: n subjects, q = 3 observations, p = 2 covariates."""
    n, q = design.n, design.q
    chol_x = np.linalg.cholesky(
        correlation_matrix(design.sigma_x_structure, q, design.rho_x)
    )
    chol_y = np.linalg.cholesky(
        correlation_matrix(design.sigma_y_structure, q, design.rho_y)
    )
    x1 = rng.standard_normal((n, q)) @ chol_x.T
    x2 = rng.integers(0, 2, size=n).astype(float)
    b1, b2 = design.beta_true
    mu = b1 * x1 + b2 * x2[:, None]
    y = mu + rng.standard_normal((n, q)) @ chol_y.T
    covariates = np.empty((n, q, 2))
    covariates[:, :, 0] = x1
    covariates[:, :, 1] = x2[:, None]
    return LongitudinalDataset(y, covariates)


def two_group_partition() -> SubgroupPartition:
    """Split on the time-constant second covariate: x_2 = 1 vs x_2 = 0."""

    def assign(covariates):
        return np.where(covariates[:, 0, 1] == 1.0, 0, 1)

    return SubgroupPartition(2, assign)


def four_group_partition() -> SubgroupPartition:
    """Cross the sign of the first baseline covariate with x_2."""

    def assign(covariates):
        negative = (covariates[:, 0, 0] < 0.0).astype(int)
        second = (covariates[:, 0, 1] != 1.0).astype(int)
        return negative + 2 * second

    return SubgroupPartition(4, assign)


def build_two_group_aux(beta2: float = -0.5) -> AuxiliaryInfo:
    """Known subgroup means for the two-group split.

    Conditional on x_2 the response mean is (beta2 * x_2) in every
    component, so the targets are exact constants.
    """
    phi1 = np.full(3, beta2)
    phi2 = np.zeros(3)
    return AuxiliaryInfo(two_group_partition(), (phi1, phi2))


def analytic_four_group_phi(design: SimulationDesign) -> list[np.ndarray]:
    """Exact conditional means E(Y | Omega_k) for the four-group split.

    Conditioning on the sign of X_11 shifts each component of the baseline
    covariate by its correlation with X_11 times the half-normal mean
    sqrt(2/pi); the x_2 term adds beta_2 in the x_2 = 1 groups.
    """
    b1, b2 = design.beta_true
    half_normal_mean = math.sqrt(2.0 / math.pi)
    corr_row = correlation_matrix(design.sigma_x_structure, design.q, design.rho_x)[0]
    shift = b1 * half_normal_mean * corr_row
    return [
        shift + b2,
        -shift + b2,
        shift + 0.0,
        -shift + 0.0,
    ]


def build_four_group_aux(
    design: SimulationDesign, rng: np.random.Generator | None = None
) -> AuxiliaryInfo:
    """Four-group auxiliary information with the design's ``phi_source`` targets.

    Held-out estimation simulates an independent panel of ``held_out_m``
    subjects at the true coefficients (m >= 400 keeps roughly 100 subjects
    per cell) and averages the responses within each subgroup.
    """
    partition = four_group_partition()
    if design.phi_source is PhiSource.TRUE_VALUES:
        return AuxiliaryInfo(partition, tuple(analytic_four_group_phi(design)))
    if design.held_out_m < 400:
        raise ValueError("held-out estimation needs m >= 400")
    if rng is None:
        raise ValueError("held-out estimation needs an RNG stream")
    holdout = generate_dataset(replace(design, n=design.held_out_m), rng)
    phis, _ = estimate_phi(holdout, partition)
    return AuxiliaryInfo(partition, tuple(phis))


@dataclass(frozen=True)
class Hypothesis:
    """Point null on a subset of coefficients, tested by the profile statistic
    at level TEST_LEVEL."""

    label: str
    indices: tuple
    values: tuple


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated per-coefficient performance over the replications."""

    method: str
    replications: int
    failures: int
    bias: np.ndarray
    sd: np.ndarray
    se: np.ndarray
    cp: np.ndarray
    re: np.ndarray | None = None
    baseline: str | None = None
    power: dict = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    estimates: np.ndarray | None = None


def _method_aux(method: str, design: SimulationDesign, r: int) -> AuxiliaryInfo | None:
    """Auxiliary information one method uses in replication r."""
    if method == "qif":
        return None
    if method == "gmmai2":
        return build_two_group_aux(design.beta_true[1])
    return build_four_group_aux(design, replication_rng(design.seed, r, _ROLE_HOLDOUT))


def _method_records(method, design, replications, datasets, basis, spec, hypotheses, options):
    """The FitResults of one method's converged fits on the panels of
    ``replications``, then per hypothesis the ProfileTestResults of the tests
    on them that did not fail: one lockstep fit batch, then one lockstep test
    batch per hypothesis."""
    configs = [
        ExtendedScoreConfig(spec, basis, _method_aux(method, design, r)) for r in replications
    ]
    fitted = [
        out for out in _fit(configs, datasets, options)
        if not isinstance(out, Exception) and out.result.converged
    ]
    records = [[f.result for f in fitted]]
    for _, indices, values in hypotheses:
        results = _profile_tests(fitted, design.n, indices, values, options)
        records.append([out for out in results if not isinstance(out, QifauxError)])
    return records


def run_monte_carlo(
    design: SimulationDesign,
    methods=("qif",),
    hypotheses=(),
    options: FitOptions | None = None,
    n_jobs: int = 1,
) -> dict:
    """Replicate the design and aggregate Bias/SD/SE/CP/RE and test power.

    Each replication draws a fresh panel from its own counter-based stream,
    fits every requested method, records INTERVAL_LEVEL Wald-interval
    coverage and the rejection rate of each profile test at TEST_LEVEL.
    Failed replications (non-convergence or estimation errors) are excluded
    with their count reported on the summary. Raises TooManyFailures when a
    method loses more than MAX_FAILURE_SHARE of its replications.

    Replications run in chunks of CHUNK, and only their fit and test results
    are kept, so memory is bounded by one chunk. Per chunk, a method's fits
    are solved in lockstep, then each hypothesis's tests on its converged
    fits; with n_jobs > 1 the methods of a chunk run in that many threads.
    """
    methods = [m.strip().lower() for m in methods]
    if not methods:
        raise ValueError("need at least one method")
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    options = options or FitOptions()
    checked = [(h.label, *_hypothesis(h.indices, h.values, design.p)) for h in hypotheses]
    spec = MarginalModelSpec.gaussian()
    basis = build_basis(design.working, design.q)
    reps = design.replications

    def work(method):
        return _method_records(
            method, design, replications, datasets, basis, spec, checked, options
        )

    records = {method: [[] for _ in range(1 + len(checked))] for method in methods}
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        each = pool.map if n_jobs > 1 else map
        for first in range(0, reps, CHUNK):
            replications = range(first, min(first + CHUNK, reps))
            datasets = [
                generate_dataset(design, replication_rng(design.seed, r, _ROLE_DATA))
                for r in replications
            ]
            for method, chunk in zip(methods, each(work, methods)):
                for kept, new in zip(records[method], chunk):
                    kept += new
            # the next chunk is drawn with this one's panels gone
            del datasets

    beta0 = np.asarray(design.beta_true, dtype=float)
    summaries = {}
    for method in methods:
        results, *tests = records[method]
        failures = reps - len(results)
        if failures > MAX_FAILURE_SHARE * reps:
            raise TooManyFailures(f"{method}: {failures}/{reps} replications failed")
        estimates = np.array([res.beta_hat for res in results])
        variances = np.array([np.diag(res.covariance) for res in results])
        lo, hi = _wald_bounds(estimates, variances, INTERVAL_LEVEL)
        power, statistics = {}, {}
        for (label, _, _), outcomes in zip(checked, tests):
            p_values = np.array([out.p_value for out in outcomes])
            power[label] = float(np.mean(p_values < TEST_LEVEL)) if outcomes else float("nan")
            statistics[label] = np.array([out.statistic for out in outcomes])
        summaries[method] = MonteCarloSummary(
            method=method,
            replications=len(results),
            failures=failures,
            bias=estimates.mean(axis=0) - beta0,
            sd=(
                estimates.std(axis=0, ddof=1)
                if len(results) > 1
                else np.full(design.p, np.nan)
            ),
            se=np.sqrt(variances).mean(axis=0),
            cp=((lo <= beta0) & (beta0 <= hi)).mean(axis=0),
            power=power,
            statistics=statistics,
            estimates=estimates,
        )
    if "qif" in summaries:
        base_sd = summaries["qif"].sd
        for method, summary in summaries.items():
            summaries[method] = replace(
                summary, re=(base_sd / summary.sd) ** 2, baseline="qif"
            )
    return summaries


def qq_data(
    design: SimulationDesign, hypothesis: Hypothesis, method: str
) -> np.ndarray:
    """(R, 2) array pairing chi-square quantiles with sorted statistics.

    Runs the design's R replications of one method with default fit
    options and takes the theoretical quantiles, with one degree of
    freedom per pinned coordinate, at (i - 0.5) / R. The hypothesis must be
    true under the design for the pairs to be comparable.
    """
    summaries = run_monte_carlo(design, [method], hypotheses=[hypothesis])
    sample = np.sort(summaries[method.strip().lower()].statistics[hypothesis.label])
    r = sample.shape[0]
    grid = (np.arange(1, r + 1) - 0.5) / r
    theoretical = stats.chi2.ppf(grid, df=len(hypothesis.indices))
    return np.column_stack([theoretical, sample])
