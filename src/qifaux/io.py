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
import warnings
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice

import numpy as np
from scipy import special

from .errors import (
    EmptyDataset,
    InvalidSize,
    MalformedRow,
    UnbalancedSubject,
    ZeroVariance,
)
from .estimator import FitResult, _integer
from .model import LongitudinalDataset
from .simulation import MonteCarloSummary

_MISSING_TOKENS = {"", "na", "nan", "null", "."}
# a body holding one of these takes the exact route: the CSV reader rejects
# NUL before Python 3.11, and numpy's parser strips \x1c-\x1f around a
# number, which int() and float() keep in an ASCII token
_UNPLAIN = "\0\x1c\x1d\x1e\x1f"
# bytes.translate with these turns each digit into "0", keeps the delimiters
# and "\r" and drops every other byte, so a field with no digit leaves two
# delimiters side by side
_DIGITS = bytes.maketrans(b"0123456789", b"0" * 10)
_NOT_DIGIT_OR_DELIMITER = bytes(sorted(set(range(256)) - set(b"0123456789,\n\r")))
_NOT_QUOTE_OR_DELIMITER = bytes(sorted(set(range(256)) - set(b'",\n\r')))
_PIECE = 1 << 16


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


def _parse_row(width, at_sid, at_time, cell_columns, q, fields):
    """The id, time index and cells of one data row.

    A bad row raises ValueError naming its first fault: the field count,
    the id, the time index, then the cells in column order.
    """
    if len(fields) != width:
        raise ValueError(f"row has {len(fields)} fields, header has {width}")
    sid = fields[at_sid].strip()
    if not sid:
        raise ValueError("empty subject id")
    # int() keeps \x1c-\x1f around an ASCII token, which str.strip drops
    token = fields[at_time].strip()
    try:
        time = int(token)
    except ValueError:
        raise ValueError(f"non-integer time index {token!r}") from None
    if time < 1:
        raise ValueError(f"time index {time} must be >= 1")
    if q is not None and time > q:
        raise ValueError(f"time index {time} exceeds q={q}")
    return sid, time, [_parse_cell(fields[j], column) for j, column in cell_columns]


def _columns(ids, times, cells):
    """Parsed rows' ids, time indices and cells, as arrays."""
    try:
        times = np.array(times, dtype=np.int64)
    except OverflowError:
        # exact Python ints, so that huge indices still compare and repeat
        times = np.array(times, dtype=object)
    return np.array(ids, dtype=object), times, np.array(cells, float)


def _subjects(ids):
    """The stripped ids by first appearance, and each row's index; one lookup per run of ids."""
    change = np.ones(len(ids), bool)
    change[1:] = ids[1:] != ids[:-1]
    starts = np.flatnonzero(change)
    heads = list(map(str.strip, ids[starts].tolist()))
    subjects = dict.fromkeys(heads)
    if len(subjects) == len(heads):  # each subject's rows are one run
        slots = np.arange(len(heads))
    else:
        index = {sid: k for k, sid in enumerate(subjects)}
        slots = np.fromiter(map(index.__getitem__, heads), np.intp, len(heads))
    return list(subjects), np.repeat(slots, np.diff(starts, append=len(ids)))


def _parse_rows(reader, parse_row):
    """The exact route: the subjects, times and cells up to the first bad row, its error and lines.

    The error is ``(line, message, cause)`` for the first row ``parse_row``
    rejects or the reader's csv.Error, which ranks after every row read
    before it. The lines map each row read to the line that ends it.
    """
    ids, times, cells, lines, error = [], [], [], [], None
    try:
        for fields in filter(None, reader):
            sid, time, values = parse_row(fields)
            ids.append(sid)
            times.append(time)
            cells.append(values)
            lines.append(reader.line_num)
    except ValueError as err:
        error = (reader.line_num, str(err), None)
    except csv.Error as err:
        error = (reader.line_num, str(err), err)
    ids, times, cells = _columns(ids, times, cells)
    return _subjects(ids), times, cells, error, lines.__getitem__


def _parse_plain(text, raw, width, columns, q, parse_row):
    """The subjects, times and cells of a plain body, no error and its line finder; or None.

    A plain body (see load_dataset) splits into the CSV reader's records at
    each "\\n" and into its fields at each comma. ``parse_row`` parses its
    lines with a digitless numeric field, most often a missing-value token,
    and numpy the others, each token only to the value the exact route
    gives it. Any other body, or a row numpy or a rule rejects, gives None
    and is left to the exact route, which reports the errors. ``raw`` is
    ``text`` as UTF-8 bytes.
    """
    if any(map(text.__contains__, _UNPLAIN)) or len(set(columns)) < len(columns):
        return None
    found = _plain_fields(raw, columns[1:])
    if found is None:
        return None
    lines = text.split("\n")
    # no line is over the limit if each whole block of step characters has a "\n"
    limit = csv.field_size_limit()
    step = limit // 2 + 1
    blocks = range(0, len(text) - step + 1, step)
    if not all(text.find("\n", k, k + step) + 1 for k in blocks) and max(map(len, lines)) > limit:
        return None
    missing, at = found
    try:
        rows = [parse_row(fields) for fields in csv.reader(lines[i] for i in missing)]
    except (ValueError, csv.Error):
        return None
    shown = lines.copy() if missing.size else lines
    for i in missing:
        shown[i] = ""  # numpy skips a blank line
    at_sid, at_time, *at_cells = columns
    kinds = {at_time: np.int64, **dict.fromkeys(at_cells, np.float64)}
    dtype = np.dtype([(f"f{j}", kinds.get(j, object)) for j in range(width)])
    # numpy < 2 only warns on a time such as 1.0, which the exact route
    # rejects; a body whose every row is parse_row's leaves numpy none
    with warnings.catch_warnings():
        warnings.filterwarnings("error", category=DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(
                shown, dtype, delimiter=",", comments=None, quotechar='"',
                skiprows=1, ndmin=1,
            )
        except (ValueError, OverflowError, DeprecationWarning):
            return None
    ids, times = table[f"f{at_sid}"], table[f"f{at_time}"]
    cells = np.column_stack([table[f"f{j}"] for j in at_cells])
    if rows:
        # back in file order: numpy's rows fill the places the others leave
        places = np.delete(np.arange(len(table) + len(rows)), at)
        order = np.argsort(np.concatenate([places, at]), kind="stable")
        pairs = zip((ids, times, cells), _columns(*zip(*rows)))
        ids, times, cells = (np.concatenate(pair)[order] for pair in pairs)
    names, slot = _subjects(ids)
    if "" in names or (times < 1).any() or (q is not None and (times > q).any()):
        return None
    return (names, slot), times, cells, None, partial(_plain_line_of, lines)


def _plain_line_of(lines, row):
    """The line of data row ``row`` of a plain body split at "\\n": "" and "\\r" lines hold none."""
    numbers = (k for k, line in enumerate(lines, 1) if k > 1 and line not in ("", "\r"))
    return next(islice(numbers, row, None))


def _plain_fields(raw, numeric):
    """The lines with a digitless field in a ``numeric`` column, and their data rows; or None.

    None unless the body splits into the CSV reader's records at each
    "\\n" and into its fields at each comma: every "\\r" ends a line and
    no quoted field holds a delimiter or line end. A line is counted by its
    index in ``text.split("\\n")``, the header's being 0, and a data row is
    a line with a comma, as numpy and the CSV reader skip a blank line. A
    body with no digit has no valid row: the exact route is cheaper for it.
    ``raw`` is the body as UTF-8 bytes.
    """
    # the CSV reader quotes a field only from its first byte: if each run of
    # quotes between delimiters has even length, no quoted field holds a
    # delimiter and every quote is closed
    quoted = b'"' in raw
    if quoted and b'"' in raw.translate(None, _NOT_QUOTE_OR_DELIMITER).replace(b'""', b""):
        return None
    start = raw.find(b"\n")  # the header's line end
    if start < 0:
        return None
    if not quoted and _every_field_has_a_digit(raw, start):
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    digits = raw.translate(_DIGITS, _NOT_DIGIT_OR_DELIMITER)
    marks = np.frombuffer(digits, np.uint8)
    cr = np.flatnonzero(marks == ord("\r"))
    if cr.size and (cr[-1] + 1 == marks.size or (marks[cr + 1] != ord("\n")).any()):
        return None
    start = digits.find(b"\n")
    if digits.find(b"0", start) < 0:
        return None
    marks = marks[start:]
    if marks[-1] != ord("\n"):
        marks = np.append(marks, np.uint8(ord("\n")))
    delimiter = marks != ord("0")
    if not (delimiter[:-1] & delimiter[1:] & (marks[:-1] != ord("\r"))).any():
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    # field k lies between delimiters k and k + 1, and its column counts
    # from the last line end at or before delimiter k; a blank line, or the
    # gap between a "\r" and its "\n", holds no field
    ends = np.flatnonzero(delimiter)
    line_end = marks[ends] != ord(",")
    empty = np.flatnonzero((np.diff(ends) == 1) & ~(line_end[:-1] & line_end[1:]))
    line_ends = np.flatnonzero(line_end)
    column = empty - line_ends[np.searchsorted(line_ends, empty, "right") - 1]
    # line k follows the k-th "\n", and the commas between two "\n" make
    # the line after the first a data row
    newlines = np.flatnonzero(marks[ends] == ord("\n"))
    lines = np.unique(np.searchsorted(newlines, empty[np.isin(column, numeric)], "right"))
    rows = np.cumsum(np.diff(np.cumsum(~line_end)[newlines]) > 0) - 1
    return lines, rows[lines - 1]


def _every_field_has_a_digit(raw, start):
    """Whether each field after the line end at ``start`` has a digit and each "\\r" ends a line.

    A digitless field puts a non-digit (its last byte, or the delimiter
    before it) before a byte below "-" (the comma or line end after it).
    So does each "\\r\\n"; any other such pair only makes the answer
    False more often. Pieces of the body keep the temporaries in cache.
    """
    if raw.find(b"\r", 0, start) not in (-1, start - 1) or not raw.endswith(b"\n"):
        return False
    body = np.frombuffer(raw, np.uint8)[start:]
    for k in range(0, body.size - 1, _PIECE):
        y = body[k + 1:k + 1 + _PIECE]
        x = body[k:k + y.size]
        cr = x == ord("\r")
        pairs = np.count_nonzero((x - np.uint8(ord("0")) > 9) & (y < ord("-")))
        if not pairs == np.count_nonzero(cr & (y == ord("\n"))) == np.count_nonzero(cr):
            return False
    return body.size > 1


def _lines(text):
    """The lines of ``text`` with their ends, as io.StringIO yields them.

    The text goes to io.StringIO a piece of about 64K characters at a time,
    each cut after a newline, so no UCS-4 copy of all of it is made.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + (1 << 16)) + 1 or len(text)
        yield from _stdio.StringIO(text[start:end])
        start = end


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

    A plain body is read by one call of numpy's C parser. Plain means no
    NUL or ``\\x1c``-``\\x1f`` character, no ``\\r`` outside a ``\\r\\n``,
    no quoted field holding a comma or line end, distinct schema columns,
    a digit in some data row and no line longer than the CSV reader's
    field limit. Its lines with a time, response or covariate field that
    holds no digit, such as a missing-value token, are parsed row by row
    and take their places among numpy's rows. While numpy runs, the global
    warning filters turn a DeprecationWarning into an error and silence
    numpy's warning on a body with no row left for it, in every thread. A
    body that is not plain, or one with a row numpy or a rule rejects, is
    read by the exact route, the one that reports errors: one loop over the
    CSV reader's rows that stops at the first bad one. It also loads the
    valid bodies numpy rejects, such as one with a cell ``1_5``.
    Duplicates are checked over every row up to the first bad one. An
    error names the line where the CSV reader ends its row or fails, which
    the exact route records as it reads and the plain route finds in its
    own split: no load reads the text twice. The value array holds only
    subjects with q rows, the only ones that can be complete, so memory is
    bounded by the rows read whatever the time indices are.
    """
    if hasattr(path, "read"):
        text = path.read()
        raw = text.encode("utf-8", "surrogatepass")
    else:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw.decode("utf-8")
    reader = csv.reader(_lines(text))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise MalformedRow(reader.line_num, str(err)) from err
    if header is None:
        raise EmptyDataset("file has no header")
    # a repeated header name refers to its last column
    position = {name: j for j, name in enumerate(header)}
    needed = [schema.subject, schema.time, schema.response, *schema.covariates]
    for column in needed:
        if column not in position:
            raise MalformedRow(1, f"missing column {column!r} in header")
    parse_row = partial(
        _parse_row,
        len(header),
        position[schema.subject],
        position[schema.time],
        [(position[c], c) for c in needed[2:]],
        schema.q,
    )
    columns = [position[c] for c in needed]
    (subjects, slot), time, cells, error, line_of = _parse_plain(
        text, raw, len(header), columns, schema.q, parse_row
    ) or _parse_rows(reader, parse_row)

    # one stable sort by (slot, time) finds the duplicates and lays out the grid
    order = np.lexsort((time, slot))
    by_slot, by_time = slot[order], time[order]
    again = (by_slot[1:] == by_slot[:-1]) & (by_time[1:] == by_time[:-1])
    if again.any():
        # within a repeated pair the first row sorts first
        row = int(order[1:][again].min())
        raise UnbalancedSubject(subjects[slot[row]], line_of(row))
    if error is not None:
        raise MalformedRow(*error[:2]) from error[2]
    if not subjects:
        raise EmptyDataset("file contains no data rows")

    q = schema.q if schema.q is not None else int(time.max())
    # with duplicates rejected and 1 <= t <= q, only a subject with q rows
    # can be complete, and its rows sort into one block of q in time order:
    # the grid holds only those, never more values than the rows read
    complete = np.zeros(len(subjects), bool)
    if q <= len(time):
        complete = np.bincount(slot, minlength=len(subjects)) == q
        grid = cells[order[complete[by_slot]]].reshape(-1, q, cells.shape[1])
        # a kept subject fills every time point, so a non-finite value is
        # a missing cell
        full = np.isfinite(grid).all(axis=(1, 2))
        complete[complete] = full
    if not complete.any():
        raise EmptyDataset("no subject has complete data")
    dataset = LongitudinalDataset(
        grid[full, :, 0], grid[full, :, 1:], tuple(compress(subjects, complete))
    )
    return LoadResult(dataset, tuple(compress(subjects, ~complete)))


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
    A column that is not an integer, lies outside 0..p-1 or is listed twice
    raises ValueError.
    """
    columns = list(columns)
    if not all(map(_integer, columns)):
        raise ValueError("columns must be integers")
    for k, j in enumerate(columns):
        if not 0 <= j < dataset.p:
            raise ValueError(f"column {j} is outside 0..{dataset.p - 1}")
        if j in columns[:k]:
            raise ValueError(f"column {j} is listed more than once")
    covs = dataset.covariates.copy()
    means, sds = {}, {}
    for j in columns:
        covs[:, :, j], means[j], sds[j] = _standardized(covs[:, :, j], j)
    responses = dataset.responses
    response_mean = response_sd = None
    if include_response:
        responses, response_mean, response_sd = _standardized(responses, "response")
    out = LongitudinalDataset(responses, covs, dataset.subject_ids)
    return out, StandardizationInfo(means, sds, response_mean, response_sd)


def _standardized(values, column):
    """(values - mean) / sd with the mean and sample SD pooled over all of them."""
    pooled = values.ravel()
    mean, sd = pooled.mean(), pooled.std(ddof=1)
    if sd == 0.0:
        raise ZeroVariance(column)
    return (values - mean) / sd, float(mean), float(sd)


def split_sample(
    dataset: LongitudinalDataset, analysis_size: int, seed: int
) -> tuple[LongitudinalDataset, LongitudinalDataset]:
    """Disjoint uniform random split into (analysis, holdout) parts."""
    n = dataset.n
    if not (_integer(analysis_size) and 1 <= analysis_size < n):
        raise InvalidSize(
            f"analysis size must be an integer in 1..{n - 1}, got {analysis_size!r}"
        )
    if seed < 0:
        raise ValueError("seed must be non-negative")
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
    for key, value in results.items():
        if not isinstance(value, type(first)):
            raise TypeError(f"{key!r} holds a {type(value).__name__}, not a {type(first).__name__}")
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
    """Rebuild FitResult objects from structured-mode output; a record that
    is not a fit record raises MalformedRow with its line."""
    required = {"method", "beta", "cov", "q_value", "n_iter", "converged", "gradient_norm"}
    results = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        missing = required - (record.keys() if isinstance(record, dict) else set())
        if missing:
            raise MalformedRow(number, f"not a fit record: no {', '.join(sorted(missing))}")
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
