"""Test-side builders and reference helpers shared by several test modules."""

import math

import numpy as np

from addhaz.data_model import SurvivalDataset
from addhaz.errors import DimensionMismatch, NoEvents, NonNegativityViolation
from addhaz.poly_coeffs import PolyCoefficients
from addhaz.simulate import PiecewiseConstantHazard, _draw_event_times


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


def draw_event_time(
    z, beta, baseline: PiecewiseConstantHazard, rng: np.random.Generator
) -> float:
    """One event time for covariates z under coefficients beta, drawn by the
    simulator's own inverse transform."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if z.shape != beta.shape:
        raise DimensionMismatch("z and beta dimensions disagree")
    if np.any(z < 0) or np.any(beta < 0):
        raise NonNegativityViolation("z and beta must be >= 0")
    offset = float(z @ beta)
    return float(_draw_event_times(np.array([offset]), baseline, rng)[0])
