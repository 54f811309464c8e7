"""CSV ingestion and serialization.

Dataset files are UTF-8 CSV with a header row.  The first column must be
``time``, the second ``event`` (0 or 1), and every remaining column is a
covariate.  Occupational-cohort files with raw columns AFE, YFE and EXP can
be loaded through ``read_transformed_cohort_csv``, which applies the
standard transforms log(AFE - 10), (YFE - 1915) / 10, -(YFE - 1915)^2 / 100
and log(EXP + 1); the third transform is negative-valued, so such data can
only be analysed on the flat-prior path and is loaded with the positivity
check disabled.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .data_model import SurvivalDataset
from .errors import DatasetFormatError

__all__ = [
    "read_dataset_csv",
    "write_dataset_csv",
    "read_transformed_cohort_csv",
    "COHORT_COLUMNS",
]

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


def _read_table(path, layout):
    """Parse every non-blank data row of a dataset file.

    ``layout(path, header)`` checks the header and returns the positions of
    the time and event columns, the value columns, and the value names.
    Every row must have exactly as many fields as the header.  Returns the
    value names, times, event flags, one list of values per row and each
    row's line number in the file, which errors name as "row N".
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        t_col, e_col, cols, names = layout(path, header)
        times, events, values, lines = [], [], [], []
        for row in reader:
            if not row:  # blank line
                continue
            i = reader.line_num
            lines.append(i)
            if len(row) != len(header):
                raise DatasetFormatError(f"row {i}: expected {len(header)} fields")
            times.append(_parse_float(row[t_col], i, "time"))
            flag = row[e_col].strip()
            if flag not in ("0", "1"):
                raise DatasetFormatError(f"row {i}: event must be 0 or 1, got {flag!r}")
            events.append(flag == "1")
            values.append([_parse_float(row[c], i, name) for c, name in zip(cols, names)])
    if not times:
        raise DatasetFormatError(f"{path}: no data rows")
    return names, times, events, values, lines


def read_dataset_csv(path, *, allow_signed: bool = False):
    """Load a dataset file; returns (SurvivalDataset, covariate names)."""
    names, times, events, covs, _ = _read_table(path, _plain_layout)
    return SurvivalDataset(times, events, covs, allow_signed=allow_signed), names


def write_dataset_csv(ds: SurvivalDataset, path, names=None) -> None:
    """Write a dataset in the documented layout, full float precision."""
    if names is None:
        names = tuple(f"z{i + 1}" for i in range(ds.k))
    if len(names) != ds.k:
        raise DatasetFormatError("one name per covariate column is required")
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("time", "event") + tuple(names))
        for t, e, z in zip(ds.times, ds.events, ds.covariates):
            writer.writerow([repr(float(t)), "1" if e else "0"] + [repr(float(v)) for v in z])


def _cohort_covariates(raw: np.ndarray, lines) -> list[list[float]]:
    """The four standard transforms of the (n, 3) AFE, YFE, EXP columns;
    ``lines`` holds each row's file line for the error message."""
    afe, yfe, exposure = raw.T
    bad = np.flatnonzero((afe <= 10.0) | (exposure < 0.0))
    if bad.size:
        i = int(bad[0])
        what = "AFE must exceed 10" if afe[i] <= 10.0 else "EXP must be >= 0"
        raise DatasetFormatError(f"row {lines[i]}: {what}")
    decade = (yfe - 1915.0) / 10.0
    # math.log, not np.log: the vectorized log may differ in the last ulp
    return [
        [math.log(a - 10.0), d, -(d * d), math.log(e + 1.0)]
        for a, d, e in zip(afe.tolist(), decade.tolist(), exposure.tolist())
    ]


def read_transformed_cohort_csv(path):
    """Load a raw cohort file (time, event, AFE, YFE, EXP) and transform it.

    Returns (SurvivalDataset, covariate names) with the four standard
    transformed covariates; the dataset is built with signed covariates
    allowed, since the third transform is always <= 0.
    """
    _, times, events, raw, lines = _read_table(path, _cohort_layout)
    covs = _cohort_covariates(np.asarray(raw), lines)
    return SurvivalDataset(times, events, covs, allow_signed=True), COHORT_COVARIATE_NAMES
