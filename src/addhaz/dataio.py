"""CSV ingestion.

Dataset files are UTF-8 CSV, with or without a byte-order mark, with a
header row.  The first column must be ``time``, the second ``event`` (0 or
1), and every remaining column is a covariate.  Occupational-cohort files
with raw columns AFE, YFE and EXP can be loaded through
``read_transformed_cohort_csv``, which applies the standard transforms
log(AFE - 10), (YFE - 1915) / 10, -(YFE - 1915)^2 / 100 and log(EXP + 1);
the third transform is negative-valued, so such data can only be analysed
on the flat-prior path and is loaded with the positivity check disabled.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .data_model import SurvivalDataset
from .errors import DatasetFormatError

__all__ = ["read_dataset_csv", "read_transformed_cohort_csv"]

COHORT_COLUMNS = ("AFE", "YFE", "EXP")
COHORT_COVARIATE_NAMES = (
    "log_afe_minus_10",
    "yfe_decade",
    "neg_yfe_decade_sq",
    "log_exp_plus_1",
)


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DatasetFormatError(f"row {row}: column {col!r} is not numeric: {text!r}") from None
    if not math.isfinite(value):
        raise DatasetFormatError(f"row {row}: column {col!r} is not finite")
    return value


def _plain_layout(path, header):
    if len(header) < 3 or header[0].lower() != "time" or header[1].lower() != "event":
        raise DatasetFormatError(
            f"{path}: header must be time,event,<covariate columns>"
        )
    return 0, 1, range(2, len(header)), tuple(header[2:])


def _cohort_layout(path, header):
    lowered = [h.lower() for h in header]
    try:
        t_col, e_col, *cols = [
            lowered.index(c) for c in ("time", "event", "afe", "yfe", "exp")
        ]
    except ValueError:
        raise DatasetFormatError(
            f"{path}: cohort files need columns time, event, AFE, YFE, EXP"
        ) from None
    return t_col, e_col, cols, COHORT_COLUMNS


def _read_header(handle, path, layout):
    """Read the header row, which may span lines inside a quoted name, in csv's
    strict mode, so that a quote never closed does not swallow the file.
    Returns its line count, its field count and ``layout(path, header)``."""
    reader = csv.reader(handle, strict=True)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise DatasetFormatError(f"{path}: empty file") from None
    except csv.Error as exc:
        message = f"{path}: line 1: the header has an unclosed or misplaced quote ({exc})"
        raise DatasetFormatError(message) from None
    return reader.line_num, len(header), *layout(path, header)


def _parse_rows(handle, path, layout):
    """Parse every non-blank data row of the dataset file open as ``handle``,
    one row at a time, from the header on.

    ``layout(path, header)`` checks the header and returns the positions of
    the time and event columns, the value columns, and the value names.
    Every row must have exactly as many fields as the header.  Returns the
    value names, times, event flags, one list of values per row and each
    row's line number in the file, which errors name as "row N".
    """
    header_lines, width, t_col, e_col, cols, names = _read_header(handle, path, layout)
    reader = csv.reader(handle)
    times, events, values, lines = [], [], [], []
    for row in reader:
        if not row:  # blank line
            continue
        i = header_lines + reader.line_num
        lines.append(i)
        if len(row) != width:
            raise DatasetFormatError(f"row {i}: expected {width} fields")
        times.append(_parse_float(row[t_col], i, "time"))
        flag = row[e_col].strip()
        if flag not in ("0", "1"):
            raise DatasetFormatError(f"row {i}: event must be 0 or 1, got {flag!r}")
        events.append(flag == "1")
        values.append([_parse_float(row[c], i, name) for c, name in zip(cols, names)])
    if not times:
        raise DatasetFormatError(f"{path}: no data rows")
    return names, times, events, values, lines


class _EventFlags(dict):
    """The event field's text to 0.0 or 1.0: only text other than "0" and "1"
    reaches ``__missing__``, so ``loadtxt`` runs no Python on most rows."""

    def __missing__(self, text: str) -> float:
        flag = text.strip()
        if flag not in ("0", "1"):
            raise ValueError(f"event must be 0 or 1, got {flag!r}")
        return self[flag]


_EVENT_FLAG = _EventFlags({"0": 0.0, "1": 1.0}).__getitem__


def _load_body(path, header_lines, e_col):
    """The file after its header as a 2-d float array, or None where
    ``loadtxt`` rejects it or finds no rows."""
    try:
        with warnings.catch_warnings():
            # a header-only file: loadtxt warns "input contained no data"
            warnings.simplefilter("error", UserWarning)
            return np.loadtxt(
                path, delimiter=",", skiprows=header_lines, encoding="utf-8-sig",
                comments=None, ndmin=2, converters={e_col: _EVENT_FLAG},
            )
    except (ValueError, UserWarning):
        return None


def _row_lines(path, layout):
    """Each data row's line in the file, from a second, row-by-row parse."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        return _parse_rows(handle, path, layout)[4]


def _read_table(path, layout):
    """Parse a dataset file into arrays, the body in one ``np.loadtxt`` pass.

    Returns the value names, the (n,) times, the (n,) bool event flags, the
    (n, k) values and a function from a row's index to its line in the file.
    ``loadtxt`` takes a subset of the row parser's text (no quoted fields, no
    ``1_0``) and then gives its arrays bit for bit.  A body it rejects or that
    fails the row parser's checks, and a pipe, which cannot be read twice, go
    to the row parser, which names the line of the first bad row.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        if handle.seekable():
            header_lines, width, t_col, e_col, cols, names = _read_header(handle, path, layout)
            # loadtxt reads a path in chunks, but a file object line by line
            table = _load_body(path, header_lines, e_col)
            if table is not None and table.shape[1] == width and np.isfinite(table).all():
                times, events = table[:, t_col], table[:, e_col] == 1.0
                return names, times, events, table[:, cols], lambda i: _row_lines(path, layout)[i]
            handle.seek(0)
        names, times, events, values, lines = _parse_rows(handle, path, layout)
    return names, np.array(times), np.array(events), np.array(values), lines.__getitem__


def read_dataset_csv(path, *, allow_signed: bool = False):
    """Load a dataset file; returns (SurvivalDataset, covariate names)."""
    names, times, events, covs, _ = _read_table(path, _plain_layout)
    return SurvivalDataset(times, events, covs, allow_signed=allow_signed), names


def _cohort_covariates(raw: np.ndarray, row_line) -> np.ndarray:
    """The four standard transforms of the (n, 3) AFE, YFE, EXP columns;
    ``row_line(i)`` gives row i's file line for the error message."""
    afe, yfe, exposure = raw.T
    bad = np.flatnonzero((afe <= 10.0) | (exposure < 0.0))
    if bad.size:
        i = int(bad[0])
        what = "AFE must exceed 10" if afe[i] <= 10.0 else "EXP must be >= 0"
        raise DatasetFormatError(f"row {row_line(i)}: {what}")
    decade = (yfe - 1915.0) / 10.0
    return np.column_stack(
        [np.log(afe - 10.0), decade, -(decade * decade), np.log(exposure + 1.0)]
    )


def read_transformed_cohort_csv(path):
    """Load a raw cohort file (time, event, AFE, YFE, EXP) and transform it.

    Returns (SurvivalDataset, covariate names) with the four standard
    transformed covariates; the dataset is built with signed covariates
    allowed, since the third transform is always <= 0.
    """
    _, times, events, raw, row_line = _read_table(path, _cohort_layout)
    covs = _cohort_covariates(raw, row_line)
    return SurvivalDataset(times, events, covs, allow_signed=True), COHORT_COVARIATE_NAMES
