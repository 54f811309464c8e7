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
is done in the log domain.  An event with beta'z_i = 0 is a factor a_j, one
more unit of prior shape, so the mixture lists only live components.

The same mixture is the law of L_j = u / c_j, where u has the density

    proportional to  u^(s0 - 1) e^-u prod_i (u / (w_j c_j) + b_i),   s0 = c alpha_j,

so the posterior mean is E[u] / c_j and the variance Var[u] / c_j^2.
Building the mixture costs O(N^2) in the N events of the interval, while
quadrature of this 1-d density costs O(N Q) for Q nodes.  Intervals with
more than EXACT_MAX_FACTORS events therefore get their moments by
quadrature (``increment_moments``) and report no mixture; smaller ones keep
the exact mixture (``increment_posterior``).  The quadrature finds the
density's mode by safeguarded Newton steps, ends its window where a
closed-form bound of the log density has dropped far enough, and places its
nodes on a trapezoid rule whose step grows away from the mode: a few dozen
to a few hundred nodes, each one pass over the offsets.  Both kernels take
interval j as three numbers, (j, exposure_j, w_j).  The whole baseline stage,
``increment_posteriors(ds, grid, beta, priors)``, makes that choice per
interval for every prior at once, reading the exposures from
``interval_summaries`` and the offsets from ``event_offsets_by_interval``.
"""

from __future__ import annotations

import math

import numpy as np

from .data_model import (
    BaselineIncrementPosterior, GammaProcessPrior, SurvivalDataset, TimeGrid
)
from .errors import DimensionMismatch, ImproperPosterior, NonNegativityViolation, OutOfRange
from .poly_coeffs import PolyCoefficients, check_offsets, poly_from_factors

__all__ = [
    "EXACT_MAX_FACTORS",
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
# ratio of the spans at which the window's ends are sought
_SPAN_RATIO = 1.05
# (nodes x factors) temporaries of the quadrature stay within 2 MB
_CHUNK_ELEMENTS = 1 << 18
# Taylor coefficients 1/k! for k = 12 down to 2, for exp(t) - 1 - t
_EXPM1_MINUS_T = tuple(1.0 / math.factorial(k) for k in range(12, 1, -1))


def interval_summaries(ds: SurvivalDataset, grid: TimeGrid) -> np.ndarray:
    """(m,) exposure of every grid interval: the total time at risk that all
    subjects accumulate inside it, sum_i clip(min(t_i, s_j) - s_{j-1}, 0).

    Times beyond t_F are allowed: estimation is truncated at t_F, so such
    observations stay at risk through every interval (full-width exposure)
    but lie inside none of them.  A time on a boundary lies in the interval
    to its left, and a time of exactly 0 in the first.
    """
    t = ds.times
    bounds = np.asarray(grid.boundaries)
    left = np.concatenate(([0.0], bounds[:-1]))
    idx = np.searchsorted(bounds, t, side="left")
    inside = idx < grid.m
    at = idx[inside]
    beyond = ds.n - np.cumsum(np.bincount(at, minlength=grid.m))  # t <= s_j lies in 1..j
    inside_sums = np.bincount(at, weights=t[inside] - left[at], minlength=grid.m)
    return inside_sums + beyond * (bounds - left)


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
    offsets = ds.covariates @ beta
    rows = np.flatnonzero(ds.events)
    idx = np.searchsorted(np.asarray(grid.boundaries), ds.times[rows], side="left")
    # events by interval, in row order within each; index m lies beyond t_F
    order = np.argsort(idx, kind="stable")
    ends = np.cumsum(np.bincount(idx, minlength=grid.m + 1))
    factors = offsets[rows[order[: ends[grid.m - 1]]]]
    if factors.size and float(np.min(factors)) < 0.0:
        raise NonNegativityViolation(
            "negative beta'z among events; baseline increments need "
            "nonnegative offsets"
        )
    return np.split(factors, ends[: grid.m - 1])


def _interval_prior(j: int, exposure: float, width: float, prior: GammaProcessPrior):
    """(prior shape c alpha_j, posterior rate c_j) of interval j, after
    checking the interval's numbers: the one place the kernels read them."""
    if not 1 <= j <= prior.m:
        raise DimensionMismatch(f"interval {j} outside the prior's {prior.m} increments")
    if not (0.0 <= exposure < math.inf and 0.0 < width < math.inf):  # NaN included
        raise OutOfRange(f"interval {j}: needs a finite exposure >= 0 and width > 0")
    c = prior.c
    return c * float(prior.increments[j - 1]), exposure / width + c


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
    j: int, exposure: float, width: float, poly: PolyCoefficients, prior: GammaProcessPrior
) -> BaselineIncrementPosterior:
    """Gamma-mixture posterior of the cumulative increment over interval j,
    of the given exposure and width.

    The polynomial must be the product of (a + beta'z_i) over the uncensored
    observations inside the interval (the constant 1 when there are none).
    """
    shape0, rate = _interval_prior(j, exposure, width, prior)
    # with nonnegative offsets the zero coefficients are the leading ones,
    # one per zero offset, whose factor a is one more unit of prior shape
    dead = int((poly.log_abs > -math.inf).argmax())
    log_d = poly.log_abs[dead:]
    shape0 += dead
    if shape0 == 0.0:
        raise _improper(j, poly.degree)
    n = log_d.size
    k = np.arange(n, dtype=float)
    shapes = k + shape0
    log_scale = math.log(width) + math.log(rate)
    # log Gamma(k + s0) / Gamma(1 + s0) as -log s0 at k = 0 and a sum of
    # log(s0 + i) above it: gammaln(k + s0) alone is ~s0 log s0, which
    # leaves too few absolute digits for the weights at large s0.  The
    # buffer has a spare slot, so that n = 1 still has room for the 0
    log_rising = np.empty(n + 1)
    log_rising[0] = -np.log(shape0)
    log_rising[1] = 0.0
    np.add.accumulate(np.log(shapes[1:-1]), out=log_rising[2:n])
    log_w = log_d - k * log_scale
    log_w += log_rising[:n]
    top = log_w.max()
    if not math.isfinite(top):
        raise ImproperPosterior(f"interval {j}: all mixture weights vanished")
    log_w -= top + math.log(np.exp(log_w - top).sum())

    w = np.exp(log_w)
    shape_mean = float(w.dot(shapes))
    dev = shapes - shape_mean
    shape_var = float(w.dot(dev * dev))
    return BaselineIncrementPosterior(
        interval=j,
        log_weights=tuple(log_w.tolist()),
        shape_offsets=tuple(shapes.tolist()),
        rate=float(rate),
        mean=shape_mean / rate,
        variance=(shape_var + shape_mean) / (rate * rate),
    )


def increment_moments(
    j: int, exposure: float, width: float, offsets, prior: GammaProcessPrior
) -> BaselineIncrementPosterior:
    """Posterior mean and variance of the increment by quadrature.

    Takes the same interval as ``increment_posterior`` but the factor
    offsets b_i themselves instead of their polynomial, and returns empty
    ``log_weights`` and ``shape_offsets``: the mixture is not built.  The
    improper cases and the offset check are those of the exact path.
    """
    shape0, rate = _interval_prior(j, exposure, width, prior)
    b = check_offsets(np.asarray(offsets, dtype=float))
    positive = b[b > 0.0]
    shape0 += b.size - positive.size  # each zero offset is prior shape
    if shape0 == 0.0:
        raise _improper(j, b.size)
    if positive.size:
        mean_u, var_u = _tilted_gamma_moments(shape0, positive, 1.0 / (width * rate))
    else:
        mean_u = var_u = shape0  # the prior's Gamma(s0, 1) in u
    return BaselineIncrementPosterior(
        interval=j,
        log_weights=(),
        shape_offsets=(),
        rate=float(rate),
        mean=mean_u / rate,
        variance=var_u / (rate * rate),
    )


def _expm1_minus_t(t: np.ndarray) -> np.ndarray:
    """exp(t) - 1 - t, without the cancellation of expm1(t) - t near 0."""
    series = np.zeros_like(t)
    for coef in _EXPM1_MINUS_T:
        series = series * t + coef
    return np.where(np.abs(t) < 0.1, series * t * t, np.expm1(t) - t)


def _sum_log1p(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k log1p(a_i b_k) for each i, through one buffer of bounded size;
    -inf where a_i b_k rounds to -1 (an offset below 1e-16 of u_hat x)."""
    out = np.empty(a.size)
    chunk = max(1, _CHUNK_ELEMENTS // max(1, b.size))
    terms = np.empty((min(chunk, a.size), b.size))
    for start in range(0, a.size, chunk):
        rows = a[start : start + chunk]
        part = np.multiply.outer(rows, b, out=terms[: rows.size])
        with np.errstate(divide="ignore"):
            out[start : start + rows.size] = np.log1p(part, out=part).sum(axis=1)
    return out


def _log1mexp(d: np.ndarray) -> np.ndarray:
    """log(1 - e^-d); -inf where d underflows to 0 (every b_i > ~1e300 u x)."""
    with np.errstate(divide="ignore"):
        return np.log(-np.expm1(-d))


def _tilted_mode(s0: float, b: np.ndarray, x: float) -> tuple[float, np.ndarray, float]:
    """(u_hat, w, D(u_hat)): the mode of u^s0 e^-u R(u), the shares
    w_i = u_hat x / (u_hat x + b_i) there, and D(u) = log P(u) / P(0).

    The log-derivative kappa(u) = u R'(u) / R(u) = sum(w) / (1 - e^-D) of
    R lies in [1, N], so the slope s0 + kappa(u) - u of the log density in
    log u has its root in [s0 + 1, s0 + N].  Newton steps in u, bisected
    whenever they leave the shrinking bracket, stop once a step is below
    1e-3 sqrt(s0 + 1), a thousandth of the narrowest peak's width.
    """
    lo, hi = s0 + 1.0, s0 + b.size
    u = hi
    for _ in range(200):
        ux = u * x
        w = ux / (ux + b)
        d_u = float(np.sum(np.log1p(ux / b)))
        share, kept = float(np.sum(w)), -math.expm1(-d_u)  # kept = R(u) / P(u)
        kappa = share / kept
        slope = s0 + kappa - u
        lo, hi = (u, hi) if slope >= 0.0 else (lo, u)
        # d kappa / d log u, from sum(w (1 - w)) and d D / d log u = sum(w);
        # the slope's derivative in u is (dkappa - u) / u, and only a negative
        # one gives a Newton step toward the root
        dkappa = (share - float(np.dot(w, w))) / kept - kappa * kappa * math.exp(-d_u)
        nxt = u + slope * u / (u - dkappa) if dkappa < u else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= 1e-3 * math.sqrt(s0 + 1.0):
            break
        u = nxt
    return u, w, d_u


def _node_map(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, dt/ds) of t = s - (e^-2s - 1) / 4: steps in t grow to the left,
    are 1.5 times the step in s at t = 0, and tend to it on the right."""
    return s - np.expm1(-2.0 * s) / 4.0, 1.0 + np.exp(-2.0 * s) / 2.0


def _tilted_gamma_moments(s0: float, b: np.ndarray, x: float) -> tuple[float, float]:
    """Mean and variance of u with density prop. to u^(s0-1) e^-u P(u).

    P(u) = prod_i (u x + b_i) over N >= 1 offsets b_i > 0, and s0 > 0.
    P(0) = prod_i b_i contributes the closed-form Gamma(s0, 1) component,
    which carries all of the singularity at u = 0 when s0 < 1; the
    remainder R(u) = P(u) - P(0) is integrated numerically in
    t = log(u / u_hat), about the mode u_hat of u^s0 e^-u R(u), where the
    integrand is smooth and decays at least like e^((s0+1) t) to the left
    and like e^-u to the right.

    The window ends where an upper bound of the log integrand has dropped
    by _TAIL_DROP.  The bound is the smaller of two: one from
    log1p(y) <= y - y^2 / (2 max(1, 1 + y)) for each log1p(w_i v), the other
    from R(u) / R(u_hat) <= (u / u_hat)^k, with k = 1 left of the mode and
    N right of it.  The trapezoid rule runs in s, with t = s - (e^-2s - 1) / 4,
    which keeps its geometric convergence (Trefethen & Weideman, SIAM
    Review 2014) while the steps in t grow geometrically to the left, as in
    Takahasi & Mori's double-exponential maps (1974).  At the mode the step
    in t is 0.6 / sqrt(u_hat), at most 0.2.  That keeps the error below
    e^-45 of the integral, since |integrand(t + i eta)| <= integrand(t)
    exp(u eta^2 / 2).  To the left the step stays within 0.6 / sqrt(u) of
    each node's own u, and to the right it shrinks to 2/3 of the mode's.
    Each node costs one _sum_log1p row: log P(u) / P(u_hat) about the mode,
    or D itself where D may be below 40.
    """
    u_hat, w, d_hat = _tilted_mode(s0, b, x)
    share, w_sq, w_max = float(np.sum(w)), float(np.dot(w, w)), float(np.max(w))
    log_rem = math.log(-math.expm1(-d_hat))  # log R(u_hat) / P(u_hat)

    # candidate window ends in s, from 1 / sqrt(u_hat) (below any peak's
    # half-width) out to s = 3.9 (t = -610) on the left, where u / u_hat is
    # still a normal float
    spans = _SPAN_RATIO ** np.arange(
        math.floor(math.log(700.0 * math.sqrt(u_hat)) / math.log(_SPAN_RATIO)) + 1
    ) / math.sqrt(u_hat)
    ends = []
    for side, power in ((-1.0, 1.0), (1.0, b.size)):
        side_spans = spans[spans <= 3.9] if side < 0 else spans
        t = _node_map(side * side_spans)[0]
        with np.errstate(over="ignore"):
            v = np.expm1(t)
            quad = w_sq * v * v / (2.0 * np.maximum(1.0, 1.0 + w_max * v))
            upper = np.minimum(
                s0 * t - (u_hat - share) * v - quad - log_rem, (s0 + power) * t - u_hat * v
            )
        dropped = np.flatnonzero(upper < -_TAIL_DROP)
        ends.append(side_spans[dropped[0] if dropped.size else -1])

    step = min(0.2, 0.6 / math.sqrt(u_hat)) / 1.5  # in s; dt/ds = 1.5 at the mode
    t, dt_ds = _node_map(step * np.arange(-math.ceil(ends[0] / step), math.ceil(ends[1] / step) + 1))
    v = np.expm1(t)
    # R = P (1 - e^-D) with D = log P(u) / P(0).  Where D may be below 40, R
    # and P differ and d_hat + growth would cancel as u -> 0, so D is summed
    # afresh there; D >= d_hat min(1, u / u_hat), since log1p is concave.
    near = d_hat * np.exp(np.minimum(t, 0.0)) < 40.0
    growth, drop = np.empty_like(t), np.empty_like(t)
    growth[~near] = _sum_log1p(v[~near], w)  # log P(u) / P(u_hat)
    drop[~near] = d_hat + growth[~near]
    drop[near] = _sum_log1p(u_hat * np.exp(t[near]), x / b)
    growth[near] = drop[near] - d_hat
    # log of u^s0 e^-u R(u) at u = u_hat e^t, relative to t = 0, times the
    # node's weight step dt/ds; s0 t - (u - u_hat) is written so that a
    # large s0 does not cancel
    log_f = (s0 - u_hat) * v - s0 * _expm1_minus_t(t) + growth + (_log1mexp(drop) - log_rem)
    log_f += np.log(step * dt_ds)
    # log of P(0) Gamma(s0), on the scale of log_f
    log_p0 = math.lgamma(s0) - s0 * math.log(u_hat) + u_hat - d_hat - log_rem
    top = max(log_p0, float(np.max(log_f)))
    w0 = math.exp(log_p0 - top)
    wq = np.exp(log_f - top)
    total = w0 + float(np.sum(wq))
    mean = (w0 * s0 + float(np.dot(wq, u_hat * np.exp(t)))) / total
    # deviations from u_hat are exact to rounding; the centring error of
    # u_hat - mean adds only its square to the variance
    dev = u_hat * v + (u_hat - mean)
    var = (w0 * (s0 + (s0 - mean) ** 2) + float(np.dot(wq, dev * dev))) / total
    return mean, var


def increment_posteriors(
    ds: SurvivalDataset, grid: TimeGrid, beta, priors
) -> list[tuple[BaselineIncrementPosterior, ...]]:
    """Posterior of the increment over each of the first m grid intervals,
    m the priors' common length, under each prior, given coefficients beta.

    Entry [p][j] is interval j + 1's posterior under priors[p].  An interval
    with more than EXACT_MAX_FACTORS events gets its moments by quadrature;
    any other gets the exact mixture, from one polynomial shared by all priors.
    """
    if not priors:
        raise DimensionMismatch("need at least one prior")
    m = priors[0].m
    if any(p.m != m for p in priors):
        raise DimensionMismatch("the priors differ in their number of increments")
    if grid.m < m:
        raise DimensionMismatch(f"the grid's {grid.m} intervals are fewer than {m} increments")
    # plain floats, so that the posteriors hold no numpy scalars
    exposures = interval_summaries(ds, grid).tolist()
    widths = grid.widths().tolist()
    columns = []
    for j, factors in enumerate(event_offsets_by_interval(ds, grid, beta)[:m]):
        interval = (j + 1, exposures[j], widths[j])
        if len(factors) > EXACT_MAX_FACTORS:
            columns.append([increment_moments(*interval, factors, p) for p in priors])
        else:
            poly = poly_from_factors(factors)
            columns.append([increment_posterior(*interval, poly, p) for p in priors])
    return [tuple(column[p] for column in columns) for p in range(len(priors))]
