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
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice

import numpy as np
from scipy import special

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
# data rows parsed per block: columns are built a block at a time, so the
# per-row lists live only as long as their block
BLOCK_ROWS = 8192


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


def _parse_cell(token, column):
    try:
        return float(token)
    except ValueError:
        token = token.strip()
        if token.lower() in _MISSING_TOKENS:
            return math.nan
        raise ValueError(f"non-numeric value {token!r} in {column!r}") from None


def _parse_block(rows, width, at_sid, at_time, cell_columns, q):
    """Columns of one block of data rows, cut before its first bad row.

    Each rule is checked only over the rows that passed the rules before
    it, so the earliest bad row wins and, within a row, the earlier rule.
    Returns the ids, the times, the (rows, columns) cells and the bad row's
    ``(index, message)``, or None.
    """
    error, limit = None, len(rows)

    def fail(i, message):
        nonlocal error, limit
        error, limit = (int(i), message), int(i)

    lengths = list(map(len, rows))
    if lengths.count(width) != limit:
        i = next(i for i, n in enumerate(lengths) if n != width)
        fail(i, f"row has {lengths[i]} fields, header has {width}")
    flat = list(chain.from_iterable(rows[:limit]))
    ids = list(map(str.strip, flat[at_sid::width]))
    if "" in ids:
        fail(ids.index(""), "empty subject id")

    tokens = flat[at_time : limit * width : width]
    try:
        ints = list(map(int, tokens))
    except ValueError:
        i, _ = _first_rejected(int, tokens)
        fail(i, f"non-integer time index {tokens[i].strip()!r}")
        ints = list(map(int, tokens[:limit]))
    try:
        times = np.array(ints, dtype=np.int64)
    except OverflowError:
        # exact Python ints, so that huge indices still compare and repeat
        times = np.array(ints, dtype=object)
    low = np.flatnonzero(times < 1)
    if low.size:
        fail(low[0], f"time index {ints[low[0]]} must be >= 1")
    if q is not None:
        high = np.flatnonzero(times[:limit] > q)
        if high.size:
            fail(high[0], f"time index {ints[high[0]]} exceeds q={q}")

    columns = []
    for j, column in cell_columns:
        tokens = flat[j : limit * width : width]
        try:
            values = np.array(list(map(float, tokens)))
        except ValueError:
            # a missing token is NaN; anything else that float rejects is bad
            parse = partial(_parse_cell, column=column)
            rejected = _first_rejected(parse, tokens)
            if rejected is not None:
                fail(rejected[0], str(rejected[1]))
            values = np.array(list(map(parse, tokens[:limit])))
        columns.append(values)
    cells = np.column_stack([values[:limit] for values in columns])
    cells[~np.isfinite(cells)] = np.nan
    return ids[:limit], times[:limit], cells, error


def _first_rejected(convert, tokens):
    """The index of the first token ``convert`` rejects and its error, or None."""
    for i, token in enumerate(tokens):
        try:
            convert(token)
        except ValueError as err:
            return i, err
    return None


def _first_duplicate(slot, time):
    """Index of the first row repeating an earlier row's (slot, time), or None."""
    order = np.lexsort((time, slot))
    slot, time = slot[order], time[order]
    again = (slot[1:] == slot[:-1]) & (time[1:] == time[:-1])
    # lexsort is stable: within a repeated pair the first row sorts first
    return int(order[1:][again].min()) if again.any() else None


def _line_of(text, row):
    """The line where data row ``row`` (0-based, no blank rows) ends or the reader fails."""
    reader = csv.reader(_stdio.StringIO(text))
    with suppress(csv.Error):
        next(reader)
        next(islice(filter(None, reader), row, None))
    return reader.line_num


def _rows_until_error(reader, broken):
    """The reader's rows; a csv.Error ends them and is kept in ``broken``."""
    try:
        yield from reader
    except csv.Error as err:
        broken.append(err)


def load_dataset(path, schema: ColumnSchema) -> LoadResult:
    """Assemble a balanced panel from a long-format CSV file.

    Rows may come in any order; subjects keep the order in which their
    first row appears. A cell that is empty, ``na``, ``nan``, ``null`` or
    ``.`` (in any case), or that parses to a non-finite value, is missing.
    Subjects missing any of the q time points, or with any missing cell,
    are dropped and reported. Duplicate time indices within a subject,
    unparseable values and rows whose field count differs from the
    header's are errors; with several, the earliest line's is raised, and
    within a line the field count, the id, the time index, the cells (in
    column order) and then the duplicate.

    The rows are parsed a block of ``BLOCK_ROWS`` at a time, column by
    column: each numeric column is converted with one call and each rule
    is one check over the block, and only a failed check looks for its
    row and line. Duplicates are checked over every row up to the first
    bad one. The value array holds only subjects with q rows, the only
    ones that can be complete, so memory is bounded by the rows read
    whatever the time indices are.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    reader = csv.reader(_stdio.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise MalformedRow(_line_of(text, 0), str(err)) from err
    if header is None:
        raise EmptyDataset("file has no header")
    # a repeated header name refers to its last column
    position = {name: j for j, name in enumerate(header)}
    needed = [schema.subject, schema.time, schema.response, *schema.covariates]
    for column in needed:
        if column not in position:
            raise MalformedRow(1, f"missing column {column!r} in header")
    parse_block = partial(
        _parse_block,
        width=len(header),
        at_sid=position[schema.subject],
        at_time=position[schema.time],
        cell_columns=[(position[c], c) for c in needed[2:]],
        q=schema.q,
    )

    # a csv.Error ranks after every row read before it
    broken = []
    rows = _rows_until_error(reader, broken)
    ids, times, cells, error = [], [], [], None
    while error is None and (block := list(islice(rows, BLOCK_ROWS))):
        block_ids, block_times, block_cells, error = parse_block(list(filter(None, block)))
        if error is not None:
            error = (len(ids) + error[0], error[1])
        ids += block_ids
        times.append(block_times)
        cells.append(block_cells)

    index = {sid: k for k, sid in enumerate(dict.fromkeys(ids))}
    slot = np.fromiter(map(index.__getitem__, ids), np.intp, len(ids))
    time = np.concatenate(times) if times else np.zeros(0, np.int64)
    row = _first_duplicate(slot, time)
    if row is not None:
        raise UnbalancedSubject(ids[row], _line_of(text, row))
    if error is not None:
        raise MalformedRow(_line_of(text, error[0]), error[1])
    if broken:
        raise MalformedRow(_line_of(text, len(ids)), str(broken[0])) from broken[0]
    if not ids:
        raise EmptyDataset("file contains no data rows")

    q = schema.q if schema.q is not None else int(time.max())
    # with duplicates rejected and 1 <= t <= q, only a subject with q rows
    # can be complete, so only those get a slot in the grid: it never holds
    # more values than the rows read, whatever the time indices are
    complete = np.zeros(len(index), bool)
    if q <= len(ids):
        complete = np.bincount(slot, minlength=len(index)) == q
        kept = complete[slot]
        cells = np.concatenate(cells)
        grid = np.full((np.count_nonzero(complete), q, cells.shape[1]), np.nan)
        at = (np.cumsum(complete) - 1)[slot[kept]], time[kept].astype(np.intp) - 1
        grid[at] = cells[kept]
        # a kept subject fills every time point, so a NaN is a missing cell
        full = ~np.isnan(grid).any(axis=(1, 2))
        complete[complete] = full
    if not complete.any():
        raise EmptyDataset("no subject has complete data")
    dataset = LongitudinalDataset(
        grid[full, :, 0], grid[full, :, 1:], tuple(compress(index, complete))
    )
    return LoadResult(dataset, tuple(compress(index, ~complete)))


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
    for k, j in enumerate(columns):
        if j in columns[:k]:
            raise ValueError(f"column {j} is listed more than once")
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
            pv = 2.0 * special.ndtr(-abs(z))
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


def _number(value):
    """A float, or None for NaN and infinities, which JSON cannot hold."""
    value = float(value)
    return value if math.isfinite(value) else None


def _mc_record(name: str, s: MonteCarloSummary) -> dict:
    record = {
        "method": name,
        "replications": s.replications,
        "failures": s.failures,
        "bias": [_number(v) for v in s.bias],
        "sd": [_number(v) for v in s.sd],
        "se": [_number(v) for v in s.se],
        "cp": [_number(v) for v in s.cp],
    }
    if s.re is not None:
        record["re"] = [_number(v) for v in s.re]
        record["baseline"] = s.baseline
    if s.power:
        record["power"] = {k: _number(v) for k, v in s.power.items()}
    return record


def emit_report(results, format: str = "table") -> str:
    """Render fit results or Monte Carlo summaries.

    ``results`` is a FitResult, a mapping of name -> FitResult, or a
    mapping of name -> MonteCarloSummary. Structured mode emits one JSON
    record per line and round-trips FitResult fields losslessly; Monte
    Carlo records are strict JSON, with null for a non-finite value.
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
