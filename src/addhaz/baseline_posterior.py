"""Conjugate-style posterior of the piecewise baseline hazard increments.

Within interval j = (s_{j-1}, s_j] of width w_j, each subject contributes
exposure min(t_i, s_j) - s_{j-1} (clipped below at 0) to the integrated
baseline level, and each event inside the interval contributes one factor
(a_j + beta'z_i) to the likelihood polynomial in the local level a_j.
Writing the cumulative increment as L_j = a_j w_j and placing independent
Gamma(c * alpha_j, c) prior increments on L_j, the posterior of L_j is a
finite mixture of Gamma distributions:

    component k:   Gamma(k + c alpha_j, c_j),    c_j = exposure_j / w_j + c
    weight    k:   proportional to d_k w_j^-k c_j^-k Gamma(k + c alpha_j)

where d_k are the likelihood polynomial's coefficients.  All weight algebra
is done in the log domain; a zero coefficient (log d_k = -inf) gives its
component weight zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .data_model import (
    BaselineIncrementPosterior,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
)
from .errors import DimensionMismatch, ImproperPosterior, NonNegativityViolation
from .poly_coeffs import PolyCoefficients

__all__ = [
    "IntervalSummary",
    "interval_summaries",
    "event_offsets_by_interval",
    "increment_posterior",
]


@dataclass(frozen=True)
class IntervalSummary:
    """Counts and exposure of one grid interval.

    n_inside is the number of observations with time in (s_{j-1}, s_j]
    (a time of exactly 0 counts toward interval 1), n_beyond the number
    with time > s_j, and exposure the total time at risk accumulated
    inside the interval by all subjects.
    """

    interval: int
    n_inside: int
    n_beyond: int
    exposure: float
    width: float


def interval_summaries(ds: SurvivalDataset, grid: TimeGrid) -> list[IntervalSummary]:
    """Per-interval counts and exposures for every interval of the grid.

    Times beyond t_F are allowed: estimation is truncated at t_F, so such
    observations stay at risk through every interval (full-width exposure,
    captured by the n_beyond terms) but are counted inside none of them.
    """
    t = ds.times
    bounds = np.asarray(grid.boundaries)
    left = np.concatenate(([0.0], bounds[:-1]))
    # interval of each observation; boundary times fall in the left interval
    idx = np.searchsorted(bounds, t, side="left")
    inside = idx < grid.m
    counts = np.bincount(idx[inside], minlength=grid.m)
    t_sorted = np.sort(t)
    beyond = ds.n - np.searchsorted(t_sorted, bounds, side="right")
    inside_sums = np.bincount(
        idx[inside], weights=t[inside] - left[idx[inside]], minlength=grid.m
    )
    widths = bounds - left
    exposures = inside_sums + beyond * widths
    return [
        IntervalSummary(
            interval=j + 1,
            n_inside=int(counts[j]),
            n_beyond=int(beyond[j]),
            exposure=float(exposures[j]),
            width=float(widths[j]),
        )
        for j in range(grid.m)
    ]


def event_offsets_by_interval(
    ds: SurvivalDataset, grid: TimeGrid, beta: np.ndarray
) -> list[np.ndarray]:
    """beta'z of the uncensored observations in each interval.

    These are the offsets of the likelihood polynomial factors; entry j-1
    of the returned list feeds the interval-j polynomial.  Events beyond
    t_F involve only the unmodeled hazard past the grid, so they
    contribute no factor to any interval.  Negative offsets (possible only
    with signed covariates) put the data outside the mixture posterior's
    domain and are rejected.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ds.k,):
        raise DimensionMismatch("beta dimension does not match the dataset")
    t = ds.times
    bounds = np.asarray(grid.boundaries)
    idx = np.searchsorted(bounds, t, side="left")
    offsets = ds.covariates @ beta
    factors = [offsets[(idx == j) & ds.events] for j in range(grid.m)]
    if any(f.size and float(np.min(f)) < 0.0 for f in factors):
        raise NonNegativityViolation(
            "negative beta'z among events; baseline increments need "
            "nonnegative offsets"
        )
    return factors


def increment_posterior(
    summary: IntervalSummary, poly: PolyCoefficients, prior: GammaProcessPrior
) -> BaselineIncrementPosterior:
    """Gamma-mixture posterior of the cumulative increment over one interval.

    The polynomial must be the product of (a + beta'z_i) over the uncensored
    observations inside the interval (the constant 1 when there are none).
    """
    j = summary.interval
    if not 1 <= j <= prior.m:
        raise DimensionMismatch(
            f"interval {j} outside the prior's {prior.m} increments"
        )
    alpha_j = float(prior.increments()[j - 1])
    c = prior.c
    rate = summary.exposure / summary.width + c
    degree = poly.degree
    nonzero = poly.log_abs > -math.inf
    if alpha_j == 0.0 and nonzero[0]:
        # a positive constant coefficient leaves a 1/a factor near 0,
        # which does not integrate; degree 0 is the no-events case
        if degree == 0:
            raise ImproperPosterior(
                f"interval {j}: zero prior increment and no events"
            )
        raise ImproperPosterior(
            f"interval {j}: zero prior increment with a positive "
            "constant likelihood coefficient"
        )
    shapes = np.arange(degree + 1) + c * alpha_j
    log_scale = math.log(summary.width) + math.log(rate)
    with np.errstate(invalid="ignore"):
        log_w = poly.log_abs - np.arange(degree + 1) * log_scale + gammaln(shapes)
    log_w = np.where(nonzero, log_w, -math.inf)
    top = np.max(log_w)
    if top == -math.inf or not np.isfinite(top):
        raise ImproperPosterior(f"interval {j}: all mixture weights vanished")
    log_w = log_w - (top + math.log(np.sum(np.exp(log_w - top))))

    w = np.exp(log_w)
    shape_mean = float(np.dot(w, shapes))
    shape_var = float(np.dot(w, (shapes - shape_mean) ** 2))
    return BaselineIncrementPosterior(
        interval=j,
        log_weights=tuple(float(v) for v in log_w),
        shape_offsets=tuple(float(v) for v in shapes),
        rate=float(rate),
        mean=shape_mean / rate,
        variance=(shape_var + shape_mean) / rate**2,
    )
