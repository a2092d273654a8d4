"""Row-at-a-time reference for ``qifaux.io.load_dataset``.

Estimation never uses this. It is the per-row validation loop that the
columnar loader replaced, kept as an oracle: both must give the same
dataset and ``dropped``, or the same error class, message and line. It
differs from the loop it copies in two marked places, the two intended
changes of the columnar loader: a duplicate names its line, and an
inferred q beyond the rows read is an empty dataset instead of an attempt
to allocate a grid of that many time points. Like the columnar loader, it
raises the CSV reader's own error as a MalformedRow naming its line.
"""

import csv
import io
import math
from itertools import compress

import numpy as np

from qifaux import EmptyDataset, LoadResult, LongitudinalDataset, MalformedRow, UnbalancedSubject

_MISSING_TOKENS = {"", "na", "nan", "null", "."}


def _parse_cell(token, line_number, column):
    try:
        value = float(token)
    except ValueError:
        token = token.strip()
        if token.lower() in _MISSING_TOKENS:
            return math.nan
        raise MalformedRow(line_number, f"non-numeric value {token!r} in {column!r}")
    return value if math.isfinite(value) else math.nan


def _rows(reader):
    """The reader's rows; its own error becomes a MalformedRow on its line."""
    try:
        yield from reader
    except csv.Error as err:
        raise MalformedRow(reader.line_num, str(err)) from err


def load_dataset_by_rows(path, schema):
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    reader = csv.reader(io.StringIO(text))
    rows = _rows(reader)
    header = next(rows, None)
    if header is None:
        raise EmptyDataset("file has no header")
    position = {name: j for j, name in enumerate(header)}
    needed = [schema.subject, schema.time, schema.response, *schema.covariates]
    for column in needed:
        if column not in position:
            raise MalformedRow(1, f"missing column {column!r} in header")
    at_sid, at_time = position[schema.subject], position[schema.time]
    cell_columns = [(position[c], c) for c in needed[2:]]

    slots, seen, row_slot, row_time, row_cells = {}, set(), [], [], []
    for fields in rows:
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
            # intended change: the duplicate names its line
            raise UnbalancedSubject(sid, line_number)
        seen.add((slot, t))
        row_slot.append(slot)
        row_time.append(t - 1)
        row_cells.append(cells)

    if not slots:
        raise EmptyDataset("file contains no data rows")
    q = schema.q if schema.q is not None else max(row_time) + 1
    # intended change: no subject can fill more time points than there are
    # rows, so such a q leaves nothing complete and allocates nothing
    if q > len(row_time):
        raise EmptyDataset("no subject has complete data")
    grid = np.full((len(slots), q, len(cell_columns)), np.nan)
    grid[row_slot, row_time] = row_cells
    complete = ~np.isnan(grid).any(axis=(1, 2))
    if not complete.any():
        raise EmptyDataset("no subject has complete data")
    dataset = LongitudinalDataset(
        grid[complete, :, 0], grid[complete, :, 1:], tuple(compress(slots, complete))
    )
    return LoadResult(dataset, tuple(compress(slots, ~complete)))
