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
from dataclasses import dataclass
from itertools import compress

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
from .simulation import MonteCarloSummary

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
    try:
        value = float(token)
    except ValueError:
        token = token.strip()
        if token.lower() in _MISSING_TOKENS:
            return math.nan
        raise MalformedRow(line_number, f"non-numeric value {token!r} in {column!r}")
    return value if math.isfinite(value) else math.nan


def load_dataset(path, schema: ColumnSchema) -> LoadResult:
    """Assemble a balanced panel from a long-format CSV file.

    Rows may come in any order; subjects keep the order in which their
    first row appears. A cell that is empty, ``na``, ``nan``, ``null`` or
    ``.`` (in any case), or that parses to a non-finite value, is missing.
    Subjects missing any of the q time points, or with any missing cell,
    are dropped and reported. Duplicate time indices within a subject,
    unparseable values and rows whose field count differs from the
    header's are errors; with several, the earliest line's is raised.
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
    at_sid, at_time = position[schema.subject], position[schema.time]
    cell_columns = [(position[c], c) for c in needed[2:]]

    # one entry per row: the subject's slot in first-appearance order, the
    # 0-based time, and the response followed by the covariates
    slots, seen, row_slot, row_time, row_cells = {}, set(), [], [], []
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
        cells = [_parse_cell(fields[j], line_number, c) for j, c in cell_columns]
        slot = slots.setdefault(sid, len(slots))
        if (slot, t) in seen:
            raise UnbalancedSubject(sid)
        seen.add((slot, t))
        row_slot.append(slot)
        row_time.append(t - 1)
        row_cells.append(cells)

    if not slots:
        raise EmptyDataset("file contains no data rows")
    q = schema.q if schema.q is not None else max(row_time) + 1
    # a time point nobody filled stays NaN, so it marks its subject
    # incomplete just like a missing cell does
    grid = np.full((len(slots), q, len(cell_columns)), np.nan)
    grid[row_slot, row_time] = row_cells
    complete = ~np.isnan(grid).any(axis=(1, 2))
    if not complete.any():
        raise EmptyDataset("no subject has complete data")
    dataset = LongitudinalDataset(
        grid[complete, :, 0], grid[complete, :, 1:], tuple(compress(slots, complete))
    )
    return LoadResult(dataset, tuple(compress(slots, ~complete)))


def write_dataset(dataset: LongitudinalDataset, path, schema: ColumnSchema | None = None):
    """Emit a dataset back to long-format CSV (inverse of load_dataset).

    ``load_dataset`` reads ids back as stripped, non-empty text, so an id
    whose ``str`` form is empty, has leading or trailing whitespace, or
    equals another id's raises ValueError before anything is written.
    """
    schema = schema or ColumnSchema(covariates=tuple(f"x{j+1}" for j in range(dataset.p)))
    if len(schema.covariates) != dataset.p:
        raise ValueError("schema covariate count must match dataset")
    texts = set()
    for sid in dataset.subject_ids:
        text = str(sid)
        if not text:
            problem = "is empty"
        elif text != text.strip():
            problem = "has leading or trailing whitespace"
        elif text in texts:
            problem = "repeats another id's text"
        else:
            texts.add(text)
            continue
        raise ValueError(f"subject id {sid!r} {problem}, so it would not load back")

    def _write(handle):
        writer = csv.writer(handle)
        writer.writerow([schema.subject, schema.time, schema.response, *schema.covariates])
        ids = [sid for sid in dataset.subject_ids for _ in range(dataset.q)]
        times = list(range(1, dataset.q + 1)) * dataset.n
        columns = [
            dataset.responses.ravel().tolist(),
            *dataset.covariates.reshape(-1, dataset.p).T.tolist(),
        ]
        writer.writerows(zip(ids, times, *(map(repr, c) for c in columns)))

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
