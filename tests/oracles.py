"""Test-side builders and reference helpers shared by several test modules."""

import csv
import math

import numpy as np

from addhaz.data_model import SurvivalDataset
from addhaz.errors import DatasetFormatError, DimensionMismatch, NoEvents, NonNegativityViolation
from addhaz.poly_coeffs import PolyCoefficients


def validate_dataset(records, *, allow_signed=False):
    """Build a SurvivalDataset from (time, event, covariates) records.

    Checks finiteness, nonnegativity of times and covariates, consistent
    covariate dimension, and that at least one event is present.
    """
    times, events, rows = [], [], []
    for rec in records:
        try:
            t, e, z = rec
        except (TypeError, ValueError):
            raise DimensionMismatch(
                "each record must be a (time, event, covariates) triple"
            ) from None
        times.append(float(t))
        events.append(bool(e))
        rows.append(tuple(float(v) for v in z))
    if not rows:
        raise NoEvents("empty dataset")
    k = len(rows[0])
    if any(len(r) != k for r in rows):
        raise DimensionMismatch("covariate rows disagree on dimension")
    return SurvivalDataset(times, events, rows, allow_signed=allow_signed)


def poly_eval_log(poly: PolyCoefficients, a: float) -> float:
    """log of sum_k d_k a^k for a >= 0, or -inf when the value is 0."""
    a = float(a)
    if not (a >= 0.0):
        raise ValueError("evaluation point a must be >= 0")
    if a == 0.0:
        return float(poly.log_abs[0])
    terms = poly.log_abs + np.arange(poly.log_abs.size) * math.log(a)
    top = np.max(terms)
    if top == -math.inf:
        return -math.inf
    return float(top + math.log(np.sum(np.exp(terms - top))))


def draw_event_times(offsets, rng: np.random.Generator):
    """Event times with the unit baseline hazard plus offsets[i], from the
    draws ``rng.exponential(size=n)``, one row at a time in floats.

    A row's hazard is the constant h = 1 + offset, so its cumulative hazard
    is h t, and the inverse transform of its draw E is the time E / h.
    """
    draws = rng.exponential(size=len(offsets))
    offsets = np.asarray(offsets, dtype=float).tolist()
    return np.array([e / (1.0 + offset) for e, offset in zip(draws.tolist(), offsets)])


def draw_event_time(z, beta, rng: np.random.Generator) -> float:
    """One event time for covariates z under coefficients beta."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if z.shape != beta.shape:
        raise DimensionMismatch("z and beta dimensions disagree")
    if np.any(z < 0) or np.any(beta < 0):
        raise NonNegativityViolation("z and beta must be >= 0")
    return float(draw_event_times([float(z @ beta)], rng)[0])


def write_dataset_csv(ds: SurvivalDataset, path, names=None) -> None:
    """Write a dataset in the documented layout, full float precision."""
    if names is None:
        names = tuple(f"z{i + 1}" for i in range(ds.k))
    if len(names) != ds.k:
        raise DatasetFormatError("one name per covariate column is required")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("time", "event") + tuple(names))
        for t, e, z in zip(ds.times, ds.events, ds.covariates):
            writer.writerow([repr(float(t)), "1" if e else "0"] + [repr(float(v)) for v in z])


def read_dataset_rows(path):
    """The dataset reader as a row loop over ``csv`` and ``float()``.

    It accepts exactly the text the package's reader accepts and raises its
    ``DatasetFormatError`` messages.  Returns the covariate names, times,
    event flags and one list of covariates per row.
    """

    def number(text, row, col):
        try:
            value = float(text)
        except ValueError:
            message = f"row {row}: column {col!r} is not numeric: {text!r}"
            raise DatasetFormatError(message) from None
        if not math.isfinite(value):
            raise DatasetFormatError(f"row {row}: column {col!r} is not finite")
        return value

    with open(path, newline="", encoding="utf-8-sig") as handle:
        # the header alone is read strictly, so an unclosed quote is an error
        reader = csv.reader(handle, strict=True)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        except csv.Error as exc:
            message = f"{path}: line 1: the header has an unclosed or misplaced quote ({exc})"
            raise DatasetFormatError(message) from None
        if len(header) < 3 or header[0].lower() != "time" or header[1].lower() != "event":
            raise DatasetFormatError(f"{path}: header must be time,event,<covariate columns>")
        names = tuple(header[2:])
        header_lines = reader.line_num
        reader = csv.reader(handle)
        times, events, values = [], [], []
        for row in reader:
            if not row:  # blank line
                continue
            i = header_lines + reader.line_num
            if len(row) != len(header):
                raise DatasetFormatError(f"row {i}: expected {len(header)} fields")
            times.append(number(row[0], i, "time"))
            flag = row[1].strip()
            if flag not in ("0", "1"):
                raise DatasetFormatError(f"row {i}: event must be 0 or 1, got {flag!r}")
            events.append(flag == "1")
            values.append([number(text, i, name) for text, name in zip(row[2:], names)])
    if not times:
        raise DatasetFormatError(f"{path}: no data rows")
    return names, times, events, values
