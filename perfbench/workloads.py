"""The three benchmark workloads: set-up, one operation, and its checks.

Each workload draws its inputs from a fixed universe of ``universe`` input
ids; ``pool_ids`` picks ``pool_size`` of them from the run's seed, and the
closed loop cycles through that pool. Every input id in the universe has a
recorded reference result in ``reference.json``, so each operation is
compared with the reference for its own input.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy.special import expit, ndtr

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "qifaux" / "__init__.py").is_file():
    raise ImportError(f"no qifaux sources under {SRC}")
sys.path.insert(0, str(SRC))

import qifaux as qa  # noqa: E402

if Path(qa.__file__).resolve().parent != SRC / "qifaux":
    raise ImportError(f"qifaux was imported from {qa.__file__}, not from {SRC}")

METHODS = ("qif", "gmmai2", "gmmai4")
BETA_TRUE = (0.5, -0.5)
# Every checked number v must satisfy |v - ref| <= TOLERANCE * max(1, |ref|);
# Q_n is compared as n * Q_n, the scale of the profile statistic.
TOLERANCE = 1e-6
HYPOTHESES = (
    qa.Hypothesis("beta1=0.5", (0,), (0.5,)),
    qa.Hypothesis("beta2=0", (1,), (0.0,)),
)
CSV_SCHEMA = qa.ColumnSchema()
CS = qa.CorrelationStructure.COMPOUND_SYMMETRY


def pool_ids(seed: int, universe: int, size: int) -> list[int]:
    """The input ids one run uses, drawn without replacement from its seed."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(universe, size=size, replace=False)]


def basis():
    return qa.build_basis(CS, 3)


def fit_problems(label: str, result) -> list[str]:
    """The gate every fit must pass: converged, 0 <= Q_n <= 1, finite SEs > 0."""
    problems = []
    if not result.converged:
        problems.append(f"{label}: fit did not converge")
    if not 0.0 <= result.objective <= 1.0:
        problems.append(f"{label}: Q_n={result.objective!r} outside [0, 1]")
    se = result.se
    if not (np.isfinite(se).all() and (se > 0).all()):
        problems.append(f"{label}: standard errors {se.tolist()} not finite and positive")
    return problems


def fit_record(result, n: int) -> dict:
    return {
        "beta": result.beta_hat.tolist(),
        "se": result.se.tolist(),
        "nq": float(n * result.objective),
    }


def compare(actual, expected, label: str) -> list[str]:
    """Differences between a record and its reference, at TOLERANCE."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{label}: keys {sorted(actual)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{label}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{label}: {actual!r} != {expected!r}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{label}[{i}]")
        return out
    if isinstance(expected, int) and not isinstance(expected, bool):
        return [] if actual == expected else [f"{label}: {actual!r} != {expected!r}"]
    if math.isnan(expected) and math.isnan(actual):
        return []
    if abs(actual - expected) <= TOLERANCE * max(1.0, abs(expected)):
        return []
    return [f"{label}: {actual!r} differs from reference {expected!r}"]


def roundtrip_problems(fits: dict, parsed: dict) -> list[str]:
    problems = []
    if set(parsed) != set(fits):
        return [f"report round trip returned {sorted(parsed)}, not {sorted(fits)}"]
    for m, result in fits.items():
        back = parsed[m]
        if not (
            np.array_equal(back.beta_hat, result.beta_hat)
            and np.array_equal(back.covariance, result.covariance)
        ):
            problems.append(f"{m}: report round trip changed beta or cov")
    return problems


def gaussian_configs(design) -> dict:
    """Identity-link configs for the three methods of the paper's design."""
    spec = qa.MarginalModelSpec.gaussian()
    return {
        "qif": qa.ExtendedScoreConfig(spec, basis(), None),
        "gmmai2": qa.ExtendedScoreConfig(
            spec, basis(), qa.build_two_group_aux(design.beta_true[1])
        ),
        "gmmai4": qa.ExtendedScoreConfig(spec, basis(), qa.build_four_group_aux(design)),
    }


def binary_panel(n: int, rng: np.random.Generator, rho_x=0.5, rho_y=0.5):
    """Binary panel whose marginals are exactly logistic.

    Covariates follow the paper's design (CS-normal x_1, Bernoulli x_2);
    Y_j = 1{Phi(Z_j) < expit(eta_j)} with Z a CS-correlated normal, so
    P(Y_j = 1 | x) = expit(eta_j) while the components stay correlated.
    Returns the dataset and the (n, q) true means expit(eta).
    """
    q = 3
    chol_x = np.linalg.cholesky(qa.correlation_matrix(CS, q, rho_x))
    chol_y = np.linalg.cholesky(qa.correlation_matrix(CS, q, rho_y))
    x1 = rng.standard_normal((n, q)) @ chol_x.T
    x2 = rng.integers(0, 2, size=n).astype(float)
    mean = expit(BETA_TRUE[0] * x1 + BETA_TRUE[1] * x2[:, None])
    z = rng.standard_normal((n, q)) @ chol_y.T
    y = (ndtr(z) < mean).astype(float)
    covariates = np.stack([x1, np.repeat(x2[:, None], q, axis=1)], axis=2)
    return qa.LongitudinalDataset(y, covariates), mean


class MonteCarloPaper:
    """The paper's table workload: run_monte_carlo at n=300, three methods,
    a true-null and a power hypothesis, one serial caller."""

    name = "mc_paper"
    calibration = "small_fit"
    universe = 128
    pool_size = 64
    reps = 5
    tail_percentile = 85
    seed_base = 1000
    n = 300

    def design(self, i: int):
        return qa.SimulationDesign(
            n=self.n, beta_true=BETA_TRUE, seed=self.seed_base + i,
            replications=self.reps,
        )

    def setup(self, ids, work_dir):
        return {"ids": list(ids), "designs": [self.design(i) for i in ids]}

    def op(self, state, k, tracer):
        design = state["designs"][k % len(state["ids"])]
        with tracer.span("simulation.run_monte_carlo", reps=design.replications):
            return qa.run_monte_carlo(design, METHODS, hypotheses=HYPOTHESES, n_jobs=1)

    def record(self, output) -> dict:
        return {
            m: {
                "replications": s.replications,
                "failures": s.failures,
                "bias": s.bias.tolist(),
                "sd": s.sd.tolist(),
                "se": s.se.tolist(),
                "cp": s.cp.tolist(),
                "re": s.re.tolist(),
                "power": dict(s.power),
            }
            for m, s in output.items()
        }

    def problems(self, output) -> list[str]:
        out = []
        for m, s in output.items():
            if s.failures or s.replications != self.reps:
                out.append(f"{m}: {s.failures} of {self.reps} replications failed")
            if not (np.isfinite(s.se).all() and (s.se > 0).all()):
                out.append(f"{m}: mean SEs {s.se.tolist()} not finite and positive")
        return out

    def estimates(self, output) -> dict:
        return {m: s.estimates.tolist() for m, s in output.items()}

    def replay(self, design, tracer, output=None) -> list[str]:
        """Replay the study's replications through the public per-step API.

        The replay runs outside the operation, so the difference between the
        run_monte_carlo span and this one is the harness's own time. When
        the study's output is given, the replayed estimates must equal it.
        """
        configs = gaussian_configs(design)
        estimates = {m: [] for m in METHODS}
        problems = []
        with tracer.span("simulation.replay", reps=design.replications):
            for r in range(design.replications):
                with tracer.span("simulation.generate_dataset"):
                    data = qa.generate_dataset(design, qa.replication_rng(design.seed, r, 0))
                for m, cfg in configs.items():
                    with tracer.span("estimator.fit", method=m):
                        result = qa.fit(cfg, data)
                    problems += fit_problems(f"replay {r} {m}", result)
                    estimates[m].append(result.beta_hat)
                    for hyp in HYPOTHESES:
                        with tracer.span("estimator.profile_test", method=m):
                            qa.profile_test(cfg, data, hyp.indices, hyp.values, unrestricted=result)
        if output is not None:
            for m in METHODS:
                if not np.array_equal(np.asarray(estimates[m]), output[m].estimates):
                    problems.append(f"{m}: replayed estimates differ from run_monte_carlo")
        return problems

    def after_traced_op(self, state, k, output, tracer) -> list[str]:
        return self.replay(state["designs"][k % len(state["ids"])], tracer, output)

    def probe_inputs(self, state):
        design = state["designs"][0]
        data = qa.generate_dataset(design, qa.replication_rng(design.seed, 0, 0))
        return data, gaussian_configs(design), design


class _Study:
    """Checks shared by the single-study workloads: fits plus a profile test."""

    def record(self, output) -> dict:
        rec = {m: fit_record(r, output["n"]) for m, r in output["fits"].items()}
        rec["profile_statistic"] = output["profile"].statistic
        return rec

    def problems(self, output) -> list[str]:
        out = []
        for m, r in output["fits"].items():
            out += fit_problems(m, r)
        stat = output["profile"].statistic
        if not (math.isfinite(stat) and stat >= 0):
            out.append(f"profile statistic {stat!r} not finite and non-negative")
        return out

    def estimates(self, output) -> dict:
        return {
            m: {"beta": r.beta_hat.tolist(), "iterations": r.iterations}
            for m, r in output["fits"].items()
        }

    def after_traced_op(self, state, k, output, tracer) -> list[str]:
        return []


class StudyCsv(_Study):
    """One large single-study analysis from a long-format CSV, identity link."""

    name = "study_csv"
    calibration = "csv_parse"
    universe = 16
    pool_size = 4
    tail_percentile = 75
    seed_base = 2000
    n = 30000

    def design(self, i: int):
        return qa.SimulationDesign(n=self.n, beta_true=BETA_TRUE, seed=self.seed_base + i)

    def setup(self, ids, work_dir):
        paths = []
        for i in ids:
            design = self.design(i)
            data = qa.generate_dataset(design, qa.replication_rng(design.seed, 0, 0))
            path = Path(work_dir) / f"panel-{i}.csv"
            qa.write_dataset(data, path, CSV_SCHEMA)
            paths.append(path)
        return {
            "ids": list(ids),
            "paths": paths,
            "configs": gaussian_configs(self.design(ids[0])),
        }

    def op(self, state, k, tracer):
        path = state["paths"][k % len(state["ids"])]
        with tracer.span("io.load_dataset"):
            loaded = qa.load_dataset(path, CSV_SCHEMA)
        data = loaded.dataset
        fits = {}
        for m, cfg in state["configs"].items():
            with tracer.span("estimator.fit", method=m):
                fits[m] = qa.fit(cfg, data)
        with tracer.span("estimator.profile_test", method="gmmai2"):
            test = qa.profile_test(
                state["configs"]["gmmai2"], data, [1], [BETA_TRUE[1]],
                unrestricted=fits["gmmai2"],
            )
        with tracer.span("io.emit_report"):
            text = qa.emit_report(fits, "structured")
        with tracer.span("io.parse_structured_report"):
            parsed = qa.parse_structured_report(text)
        return {"n": data.n, "dropped": loaded.n_dropped, "fits": fits,
                "profile": test, "parsed": parsed}

    def problems(self, output) -> list[str]:
        out = super().problems(output)
        if output["dropped"] or output["n"] != self.n:
            out.append(f"loaded {output['n']} subjects, dropped {output['dropped']}")
        return out + roundtrip_problems(output["fits"], output["parsed"])

    def probe_inputs(self, state):
        data = qa.load_dataset(state["paths"][0], CSV_SCHEMA).dataset
        return data, state["configs"], self.design(state["ids"][0])


class StudyLogit(_Study):
    """One in-memory binary-panel analysis under the logit link."""

    name = "study_logit"
    calibration = "logit_fit"
    universe = 128
    pool_size = 64
    tail_percentile = 80
    seed_base = 3000
    n = 3000
    held_out_m = 5000

    def setup(self, ids, work_dir):
        spec = qa.MarginalModelSpec.bernoulli()
        two = qa.two_group_partition()
        panels, configs, holdouts = [], [], []
        for i in ids:
            data, _ = binary_panel(self.n, qa.replication_rng(self.seed_base + i, 0, 0))
            holdout, _ = binary_panel(self.held_out_m, qa.replication_rng(self.seed_base + i, 0, 1))
            phis, _ = qa.estimate_phi(holdout, two)
            panels.append(data)
            holdouts.append(holdout)
            configs.append({
                "qif": qa.ExtendedScoreConfig(spec, basis(), None),
                "gmmai2": qa.ExtendedScoreConfig(
                    spec, basis(), qa.AuxiliaryInfo(two, tuple(phis))
                ),
            })
        return {"ids": list(ids), "panels": panels, "configs": configs, "holdouts": holdouts}

    def op(self, state, k, tracer):
        j = k % len(state["ids"])
        data, configs = state["panels"][j], state["configs"][j]
        fits = {}
        for m, cfg in configs.items():
            with tracer.span("estimator.fit", method=m):
                fits[m] = qa.fit(cfg, data)
        with tracer.span("estimator.profile_test", method="gmmai2"):
            test = qa.profile_test(
                configs["gmmai2"], data, [1], [BETA_TRUE[1]], unrestricted=fits["gmmai2"]
            )
        return {"n": data.n, "fits": fits, "profile": test}

    def probe_inputs(self, state):
        four = qa.four_group_partition()
        phis, _ = qa.estimate_phi(state["holdouts"][0], four)
        configs = dict(state["configs"][0])
        configs["gmmai4"] = qa.ExtendedScoreConfig(
            qa.MarginalModelSpec.bernoulli(), basis(), qa.AuxiliaryInfo(four, tuple(phis))
        )
        return state["panels"][0], configs, qa.SimulationDesign(n=self.n, beta_true=BETA_TRUE)


WORKLOADS = {w.name: w for w in (MonteCarloPaper(), StudyCsv(), StudyLogit())}
