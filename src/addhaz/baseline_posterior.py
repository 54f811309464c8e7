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

The same mixture is the law of L_j = u / c_j, where u has the density

    proportional to  u^(s0 - 1) e^-u prod_i (u / (w_j c_j) + b_i),   s0 = c alpha_j,

so the posterior mean is E[u] / c_j and the variance Var[u] / c_j^2.
Building the mixture costs O(N^2) in the N events of the interval, while
quadrature of this 1-d density costs O(N Q) for Q nodes.  Intervals with
more than EXACT_MAX_FACTORS events therefore get their moments by
quadrature (``increment_moments``) and report no mixture; smaller ones keep
the exact mixture (``increment_posterior``).  ``increment_posteriors``
makes that choice for a list of intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .data_model import (
    BaselineIncrementPosterior,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
)
from .errors import DimensionMismatch, ImproperPosterior, NonNegativityViolation
from .poly_coeffs import PolyCoefficients, poly_from_factors

__all__ = [
    "EXACT_MAX_FACTORS",
    "IntervalSummary",
    "interval_summaries",
    "event_offsets_by_interval",
    "increment_moments",
    "increment_posterior",
    "increment_posteriors",
]

# intervals with more events than this get their moments by quadrature
EXACT_MAX_FACTORS = 1000
# the quadrature window ends where the log integrand has dropped this far
_TAIL_DROP = 50.0
# (nodes x factors) temporaries of the quadrature stay within 2 MB
_CHUNK_ELEMENTS = 1 << 18
# Taylor coefficients 1/k! for k = 12 down to 2, for exp(t) - 1 - t
_EXPM1_MINUS_T = tuple(1.0 / math.factorial(k) for k in range(12, 1, -1))


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


def _interval_prior(summary: IntervalSummary, prior: GammaProcessPrior):
    """(interval, prior shape c alpha_j, posterior rate c_j) of one interval."""
    j = summary.interval
    if not 1 <= j <= prior.m:
        raise DimensionMismatch(
            f"interval {j} outside the prior's {prior.m} increments"
        )
    alpha_j = float(prior.increments()[j - 1])
    c = prior.c
    return j, c * alpha_j, summary.exposure / summary.width + c


def _improper(j: int, n_factors: int) -> ImproperPosterior:
    # a zero prior shape with a positive constant coefficient leaves a 1/a
    # factor near 0, which does not integrate; no factors is the no-events case
    if n_factors == 0:
        return ImproperPosterior(f"interval {j}: zero prior increment and no events")
    return ImproperPosterior(
        f"interval {j}: zero prior increment with a positive "
        "constant likelihood coefficient"
    )


def increment_posterior(
    summary: IntervalSummary, poly: PolyCoefficients, prior: GammaProcessPrior
) -> BaselineIncrementPosterior:
    """Gamma-mixture posterior of the cumulative increment over one interval.

    The polynomial must be the product of (a + beta'z_i) over the uncensored
    observations inside the interval (the constant 1 when there are none).
    """
    j, shape0, rate = _interval_prior(summary, prior)
    degree = poly.degree
    nonzero = poly.log_abs > -math.inf
    if shape0 == 0.0 and nonzero[0]:
        raise _improper(j, degree)
    k = np.arange(degree + 1)
    shapes = k + shape0
    log_scale = math.log(summary.width) + math.log(rate)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log Gamma(k + s0) / Gamma(1 + s0) as -log s0 at k = 0 and a sum of
        # log(s0 + i) above it: gammaln(k + s0) alone is ~s0 log s0, which
        # leaves too few absolute digits for the weights at large s0
        log_rising = np.concatenate(([-np.log(shape0), 0.0], np.cumsum(np.log(shapes[1:-1]))))
        log_w = poly.log_abs - k * log_scale + log_rising[: degree + 1]
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


def increment_moments(
    summary: IntervalSummary, offsets, prior: GammaProcessPrior
) -> BaselineIncrementPosterior:
    """Posterior mean and variance of the increment by quadrature.

    Takes the same interval as ``increment_posterior`` but the factor
    offsets b_i themselves instead of their polynomial, and returns empty
    ``log_weights`` and ``shape_offsets``: the mixture is not built.  The
    improper cases and the offset check are those of the exact path.
    """
    j, shape0, rate = _interval_prior(summary, prior)
    b = np.asarray(offsets, dtype=float)
    if b.ndim != 1 or not np.all((b >= 0.0) & (b < math.inf)):
        raise ValueError("factor offsets must be finite and >= 0")
    if shape0 == 0.0 and np.all(b > 0.0):
        raise _improper(j, b.size)
    if b.size == 0:
        mean_u = var_u = shape0  # the prior's Gamma(s0, 1) in u
    else:
        mean_u, var_u = _tilted_gamma_moments(shape0, b, 1.0 / (summary.width * rate))
    return BaselineIncrementPosterior(
        interval=j,
        log_weights=(),
        shape_offsets=(),
        rate=float(rate),
        mean=mean_u / rate,
        variance=var_u / rate**2,
    )


def _expm1_minus_t(t: np.ndarray) -> np.ndarray:
    """exp(t) - 1 - t, without the cancellation of expm1(t) - t near 0."""
    series = np.zeros_like(t)
    for coef in _EXPM1_MINUS_T:
        series = series * t + coef
    return np.where(np.abs(t) < 0.1, series * t * t, np.expm1(t) - t)


def _sum_log1p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k log1p(a_i b_k) for each i, through one buffer of bounded size."""
    out = np.empty(a.size)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, b.size))
    terms = np.empty((min(chunk, a.size), b.size))
    for start in range(0, a.size, chunk):
        rows = a[start : start + chunk]
        part = np.multiply.outer(rows, b, out=terms[: rows.size])
        out[start : start + rows.size] = np.log1p(part, out=part).sum(axis=1)
    return out


def _tilted_gamma_moments(s0: float, b: np.ndarray, x: float) -> tuple[float, float]:
    """Mean and variance of u with density prop. to u^(s0-1) e^-u P(u).

    P(u) = prod_i (u x + b_i) over N >= 1 offsets, and s0 > 0 unless some
    b_i = 0.  P(0) = prod_i b_i contributes the closed-form Gamma(s0, 1)
    component, which carries all of the singularity at u = 0 when s0 < 1;
    the remainder R(u) = P(u) - P(0) is integrated numerically.  In
    t = log(u / u_hat), about the mode u_hat of the remainder, the
    integrand is smooth and decays at least like e^t to the left and like
    exp(-u) to the right, so the trapezoid rule on a uniform grid converges
    geometrically (Trefethen & Weideman, SIAM Review 2014).  The step
    0.6 / sqrt(u_max), at most 0.1, keeps its error below e^-45 of the
    integral, since |integrand(t + i eta)| <= integrand(t) exp(u eta^2 / 2).
    The window ends where the log integrand has dropped by _TAIL_DROP.
    """
    n = b.size
    positive = b[b > 0.0]
    n_zero = n - positive.size

    def log_ratio(u: float) -> float:
        # D(u) = log P(u) / P(0); P(0) = 0 leaves R = P, as D = inf does
        return math.inf if n_zero else float(np.sum(np.log1p(u * x / positive)))

    def slope(u: float) -> float:
        # d/d(log u) of log(u^s0 e^-u R(u)); the log-derivative of R lies
        # in [1, N], so the root lies in [s0 + 1, s0 + N]
        share = float(np.sum(u * x / (u * x + b)))
        return s0 - u + share / -math.expm1(-log_ratio(u))

    lo, hi = s0 + 1.0, s0 + n
    if slope(hi) >= 0.0:
        u_hat = hi
    elif slope(lo) <= 0.0:
        u_hat = lo
    else:
        u_hat = brentq(slope, lo, hi, xtol=1e-3 * math.sqrt(lo))

    ux = u_hat * x
    w = ux / (ux + b)  # log P(u_hat (1 + v)) / P(u_hat) = sum log1p(w_i v)
    d_hat = log_ratio(u_hat)
    log_rem = math.log(-math.expm1(-d_hat))  # log R(u_hat) / P(u_hat)
    linear = s0 - u_hat

    def log_integrand(t: np.ndarray) -> np.ndarray:
        """log of u^s0 e^-u R(u) at u = u_hat e^t, relative to t = 0."""
        v = np.expm1(t)
        with np.errstate(divide="ignore"):
            growth = _sum_log1p(v, w)
            # s0 t - (u - u_hat), written so that a large s0 does not cancel
            out = linear * v - s0 * _expm1_minus_t(t) + growth
            if not n_zero:
                # R = P (1 - e^-D) with D = log P(u) / P(0); below D = 40,
                # where R and P differ, D is summed afresh, since d_hat +
                # growth cancels as u -> 0
                drop = d_hat + growth
                near = drop < 40.0
                drop[near] = _sum_log1p(u_hat * np.exp(t[near]), x / positive)
                out += np.log(-np.expm1(-drop)) - log_rem
        return out

    def reach(sign: float) -> float:
        span = 1.0 / math.sqrt(u_hat)
        while log_integrand(np.array([sign * span]))[0] > -_TAIL_DROP:
            span *= 1.25
        return span

    left, right = reach(-1.0), reach(1.0)
    h = min(0.1, 0.6 / math.sqrt(u_hat * math.exp(right)))
    t = h * np.arange(-math.ceil(left / h), math.ceil(right / h) + 1)
    log_f = log_integrand(t) + math.log(h)
    if n_zero:
        log_p0 = -math.inf
    else:  # log of P(0) Gamma(s0), on the scale of log_f
        log_p0 = gammaln(s0) - s0 * math.log(u_hat) + u_hat - d_hat - log_rem
    top = max(log_p0, float(np.max(log_f)))
    w0 = math.exp(log_p0 - top)
    wq = np.exp(log_f - top)
    total = w0 + float(np.sum(wq))
    mean = (w0 * s0 + float(np.dot(wq, u_hat * np.exp(t)))) / total
    # deviations from u_hat are exact to rounding; the centring error of
    # u_hat - mean adds only its square to the variance
    dev = u_hat * np.expm1(t) + (u_hat - mean)
    var = (w0 * (s0 + (s0 - mean) ** 2) + float(np.dot(wq, dev * dev))) / total
    return mean, var


def increment_posteriors(
    summaries, offsets, priors
) -> list[tuple[BaselineIncrementPosterior, ...]]:
    """Posterior of each interval's increment under each prior.

    Entry [p][j] is the posterior for summaries[j] with factor offsets
    offsets[j] under priors[p].  An interval with more than
    EXACT_MAX_FACTORS offsets gets its moments by quadrature; any other
    gets the exact mixture, from one polynomial shared by all priors.
    """
    columns = []
    for summary, factors in zip(summaries, offsets):
        if len(factors) > EXACT_MAX_FACTORS:
            columns.append([increment_moments(summary, factors, p) for p in priors])
        else:
            poly = poly_from_factors(factors)
            columns.append([increment_posterior(summary, poly, p) for p in priors])
    return [tuple(column[p] for column in columns) for p in range(len(priors))]
