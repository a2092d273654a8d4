"""Dataset ingestion, column standardization, splits and report emission.

Input files are header-bearing comma-separated text in long format: one row
per (subject, time) with the response and covariate columns named by a
schema. Reports are emitted either as fixed-column text tables or as
line-delimited JSON records that round-trip losslessly.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass, replace as _dc_replace

import numpy as np
from scipy import stats

from .errors import (
    EmptyDataset,
    InvalidSize,
    MalformedRow,
    UnbalancedSubject,
    ZeroVariance,
)
from .estimator import FitResult
from .model import LongitudinalDataset
from .simulation import (
    AuxMode,
    PhiSource,
    SimulationDesign,
    MonteCarloSummary,
)
from .basis import CorrelationStructure

_MISSING_TOKENS = {"", "na", "nan", "null", "."}


@dataclass(frozen=True)
class ColumnSchema:
    """Column names for long-format files; q is inferred when omitted."""

    subject: str = "id"
    time: str = "time"
    response: str = "y"
    covariates: tuple = ("x1", "x2")
    q: int | None = None


@dataclass(frozen=True)
class LoadResult:
    dataset: LongitudinalDataset
    dropped: tuple

    @property
    def n_dropped(self) -> int:
        return len(self.dropped)


def _parse_cell(token, line_number, column):
    token = token.strip()
    if token.lower() in _MISSING_TOKENS:
        return None
    try:
        value = float(token)
    except ValueError:
        raise MalformedRow(line_number, f"non-numeric value {token!r} in {column!r}")
    if not math.isfinite(value):
        return None
    return value


def load_dataset(path, schema: ColumnSchema) -> LoadResult:
    """Assemble a balanced panel from a long-format CSV file.

    Subjects missing any of the q time points, or with any missing cell,
    are dropped and reported. Duplicate time indices within a subject,
    unparseable values and rows whose field count differs from the
    header's are errors.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    reader = csv.reader(_stdio.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise EmptyDataset("file has no header")
    # a repeated header name refers to its last column
    position = {name: j for j, name in enumerate(header)}
    needed = [schema.subject, schema.time, schema.response, *schema.covariates]
    for column in needed:
        if column not in position:
            raise MalformedRow(1, f"missing column {column!r} in header")
    at_sid, at_time, at_response, *at_covs = (position[c] for c in needed)

    rows = {}
    order = []
    for fields in reader:
        if not fields:
            continue
        line_number = reader.line_num
        if len(fields) != len(header):
            raise MalformedRow(
                line_number, f"row has {len(fields)} fields, header has {len(header)}"
            )
        sid = fields[at_sid].strip()
        if not sid:
            raise MalformedRow(line_number, "empty subject id")
        time_token = fields[at_time].strip()
        try:
            t = int(time_token)
        except ValueError:
            raise MalformedRow(line_number, f"non-integer time index {time_token!r}")
        if t < 1:
            raise MalformedRow(line_number, f"time index {t} must be >= 1")
        if schema.q is not None and t > schema.q:
            raise MalformedRow(line_number, f"time index {t} exceeds q={schema.q}")
        response = _parse_cell(fields[at_response], line_number, schema.response)
        covs = [
            _parse_cell(fields[j], line_number, c)
            for j, c in zip(at_covs, schema.covariates)
        ]
        if sid not in rows:
            rows[sid] = {}
            order.append(sid)
        if t in rows[sid]:
            raise UnbalancedSubject(sid)
        rows[sid][t] = (response, covs)

    if not rows:
        raise EmptyDataset("file contains no data rows")
    q = schema.q if schema.q is not None else max(max(r) for r in rows.values())
    p = len(schema.covariates)

    kept_y, kept_x, kept_ids, dropped = [], [], [], []
    for sid in order:
        cells = rows[sid]
        complete = set(cells) == set(range(1, q + 1)) and all(
            cells[t][0] is not None and all(v is not None for v in cells[t][1])
            for t in cells
        )
        if not complete:
            dropped.append(sid)
            continue
        kept_y.append([cells[t][0] for t in range(1, q + 1)])
        kept_x.append([cells[t][1] for t in range(1, q + 1)])
        kept_ids.append(sid)
    if not kept_ids:
        raise EmptyDataset("no subject has complete data")
    dataset = LongitudinalDataset(
        np.asarray(kept_y, dtype=float),
        np.asarray(kept_x, dtype=float).reshape(len(kept_ids), q, p),
        tuple(kept_ids),
    )
    return LoadResult(dataset, tuple(dropped))


def write_dataset(dataset: LongitudinalDataset, path, schema: ColumnSchema | None = None):
    """Emit a dataset back to long-format CSV (inverse of load_dataset)."""
    schema = schema or ColumnSchema(covariates=tuple(f"x{j+1}" for j in range(dataset.p)))
    if len(schema.covariates) != dataset.p:
        raise ValueError("schema covariate count must match dataset")

    def _write(handle):
        writer = csv.writer(handle)
        writer.writerow([schema.subject, schema.time, schema.response, *schema.covariates])
        for i, sid in enumerate(dataset.subject_ids):
            for t in range(dataset.q):
                writer.writerow(
                    [
                        sid,
                        t + 1,
                        repr(float(dataset.responses[i, t])),
                        *[repr(float(v)) for v in dataset.covariates[i, t]],
                    ]
                )

    if hasattr(path, "write"):
        _write(path)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write(handle)


@dataclass(frozen=True)
class StandardizationInfo:
    """Per-column transforms applied, for report traceability."""

    column_means: dict
    column_sds: dict
    response_mean: float | None = None
    response_sd: float | None = None


def standardize_columns(
    dataset: LongitudinalDataset,
    columns,
    include_response: bool = False,
) -> tuple[LongitudinalDataset, StandardizationInfo]:
    """Center and scale covariate columns pooled over subjects and times.

    Uses the sample standard deviation (divisor n*q - 1). The response can
    be standardized through the same operation with ``include_response``.
    """
    columns = list(columns)
    covs = dataset.covariates.copy()
    means, sds = {}, {}
    for j in columns:
        pooled = covs[:, :, j].ravel()
        mean = pooled.mean()
        sd = pooled.std(ddof=1)
        if sd == 0.0:
            raise ZeroVariance(j)
        covs[:, :, j] = (covs[:, :, j] - mean) / sd
        means[j], sds[j] = float(mean), float(sd)
    responses = dataset.responses
    response_mean = response_sd = None
    if include_response:
        pooled = responses.ravel()
        mean = pooled.mean()
        sd = pooled.std(ddof=1)
        if sd == 0.0:
            raise ZeroVariance("response")
        responses = (responses - mean) / sd
        response_mean, response_sd = float(mean), float(sd)
    out = LongitudinalDataset(responses, covs, dataset.subject_ids)
    return out, StandardizationInfo(means, sds, response_mean, response_sd)


def split_sample(
    dataset: LongitudinalDataset, analysis_size: int, seed: int
) -> tuple[LongitudinalDataset, LongitudinalDataset]:
    """Disjoint uniform random split into (analysis, holdout) parts."""
    n = dataset.n
    if not 1 <= analysis_size < n:
        raise InvalidSize(
            f"analysis size must be in 1..{n - 1}, got {analysis_size}"
        )
    perm = np.random.default_rng(seed).permutation(n)
    analysis_idx = np.sort(perm[:analysis_size])
    holdout_idx = np.sort(perm[analysis_size:])
    return dataset.subset(analysis_idx), dataset.subset(holdout_idx)


# -- report emission --------------------------------------------------------


def _fit_record(name: str, result: FitResult) -> dict:
    return {
        "method": name,
        "beta": [float(v) for v in result.beta_hat],
        "se": [float(v) for v in result.se],
        "cov": [[float(v) for v in row] for row in result.covariance],
        "q_value": float(result.objective),
        "n_iter": int(result.iterations),
        "converged": bool(result.converged),
        "gradient_norm": float(result.gradient_norm),
        "weight_rank_deficient": bool(result.weight_rank_deficient),
        "dropped_groups": [int(k) for k in result.dropped_groups],
        "iterates": None if result.iterates is None else result.iterates.tolist(),
    }


def _fit_table(results: dict) -> str:
    header = f"{'method':<14}{'coef':<8}{'estimate':>12}{'se':>12}{'z':>10}{'p_value':>12}"
    lines = [header]
    for name, result in results.items():
        for j, (b, s) in enumerate(zip(result.beta_hat, result.se)):
            z = b / s if s > 0 else float("inf")
            pv = 2.0 * stats.norm.sf(abs(z))
            lines.append(
                f"{name:<14}beta{j + 1:<4}{b:>12.4f}{s:>12.4f}{z:>10.2f}{pv:>12.4g}"
            )
    return "\n".join(lines) + "\n"


def _mc_table(summaries: dict) -> str:
    p = len(next(iter(summaries.values())).bias)
    header = (
        f"{'method':<10}{'coef':<7}{'bias':>10}{'sd':>10}{'se':>10}{'cp':>8}{'re':>9}"
    )
    lines = [header]
    for name, s in summaries.items():
        for j in range(p):
            re_txt = f"{s.re[j]:>9.2f}" if s.re is not None and np.isfinite(s.re[j]) else f"{'--':>9}"
            sd_txt = f"{s.sd[j]:>10.4f}" if np.isfinite(s.sd[j]) else f"{'NA':>10}"
            lines.append(
                f"{name:<10}beta{j + 1:<3}{s.bias[j]:>10.4f}{sd_txt}"
                f"{s.se[j]:>10.4f}{s.cp[j]:>8.3f}{re_txt}"
            )
        if s.failures:
            lines.append(f"{name:<10}excluded replications: {s.failures}")
    power_lines = []
    for name, s in summaries.items():
        for label, value in s.power.items():
            power_lines.append(f"{name:<10}{label:<28}rejection rate {value:.4f}")
    if power_lines:
        lines.append("")
        lines.append("hypothesis tests")
        lines.extend(power_lines)
    return "\n".join(lines) + "\n"


def _mc_record(name: str, s: MonteCarloSummary) -> dict:
    record = {
        "method": name,
        "replications": s.replications,
        "failures": s.failures,
        "bias": [float(v) for v in s.bias],
        "sd": [float(v) for v in s.sd],
        "se": [float(v) for v in s.se],
        "cp": [float(v) for v in s.cp],
    }
    if s.re is not None:
        record["re"] = [float(v) for v in s.re]
        record["baseline"] = s.baseline
    if s.power:
        record["power"] = {k: float(v) for k, v in s.power.items()}
    return record


def emit_report(results, format: str = "table") -> str:
    """Render fit results or Monte Carlo summaries.

    ``results`` is a FitResult, a mapping of name -> FitResult, or a
    mapping of name -> MonteCarloSummary. Structured mode emits one JSON
    record per line and round-trips FitResult fields losslessly.
    """
    if format not in ("table", "structured"):
        raise ValueError(f"unknown report format {format!r}")
    if isinstance(results, FitResult):
        results = {"fit": results}
    if not isinstance(results, dict) or not results:
        raise ValueError("results must be a non-empty mapping or FitResult")
    first = next(iter(results.values()))
    if isinstance(first, FitResult):
        if format == "table":
            return _fit_table(results)
        return "\n".join(json.dumps(_fit_record(k, v)) for k, v in results.items()) + "\n"
    if isinstance(first, MonteCarloSummary):
        if format == "table":
            return _mc_table(results)
        return "\n".join(json.dumps(_mc_record(k, v)) for k, v in results.items()) + "\n"
    raise TypeError(f"cannot report values of type {type(first).__name__}")


def parse_structured_report(text: str) -> dict:
    """Rebuild FitResult objects from structured-mode output."""
    results = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        iterates = record.get("iterates")
        results[record["method"]] = FitResult(
            beta_hat=np.asarray(record["beta"], dtype=float),
            covariance=np.asarray(record["cov"], dtype=float),
            objective=float(record["q_value"]),
            iterations=int(record["n_iter"]),
            converged=bool(record["converged"]),
            gradient_norm=float(record["gradient_norm"]),
            iterates=iterates if iterates is None else np.asarray(iterates, dtype=float),
            weight_rank_deficient=bool(record.get("weight_rank_deficient", False)),
            dropped_groups=tuple(int(k) for k in record.get("dropped_groups", ())),
        )
    return results


def emit_qq(pairs: np.ndarray) -> str:
    """Two-column text (theoretical, sample) for external plotting tools."""
    lines = ["theoretical,sample"]
    for theo, samp in np.asarray(pairs):
        lines.append(f"{float(theo)!r},{float(samp)!r}")
    return "\n".join(lines) + "\n"


# -- design config files -----------------------------------------------------

_CONFIG_KEYS = {
    "n", "rho_x", "rho_y", "structure_x", "structure_y", "working",
    "aux_mode", "phi_source", "held_out_m", "seed", "reps",
}


def parse_design_config(text: str) -> SimulationDesign:
    """Parse a key=value design file (# starts a comment)."""
    values = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedRow(line_number, f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise MalformedRow(line_number, f"unknown design key {key!r}")
        values[key] = value.strip()
    if "n" not in values:
        raise ValueError("design config must set n")
    design = SimulationDesign(n=int(values["n"]))
    updates = {}
    if "rho_x" in values:
        updates["rho_x"] = float(values["rho_x"])
    if "rho_y" in values:
        updates["rho_y"] = float(values["rho_y"])
    if "structure_x" in values:
        updates["sigma_x_structure"] = CorrelationStructure.from_name(values["structure_x"])
    if "structure_y" in values:
        updates["sigma_y_structure"] = CorrelationStructure.from_name(values["structure_y"])
    if "working" in values:
        updates["working"] = CorrelationStructure.from_name(values["working"])
    if "aux_mode" in values:
        updates["aux_mode"] = AuxMode.from_name(values["aux_mode"])
    if "phi_source" in values:
        updates["phi_source"] = PhiSource.from_name(values["phi_source"])
    if "held_out_m" in values:
        updates["held_out_m"] = int(values["held_out_m"])
    if "seed" in values:
        updates["seed"] = int(values["seed"])
    if "reps" in values:
        updates["replications"] = int(values["reps"])
    return _dc_replace(design, **updates)
