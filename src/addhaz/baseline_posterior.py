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
quadrature and report no mixture; smaller ones keep the exact mixture.
The quadrature finds the density's mode by safeguarded Newton steps, ends
its window where a closed-form bound of the log density has dropped far
enough, and places its nodes on a trapezoid rule whose step grows away
from the mode: a few dozen to a few hundred nodes, each one pass over the
offsets.  Both take u's moments in offsets from the prior shape, so that
no large s0 cancels.

One kernel, ``increment_posterior``, takes R rows under a
``GammaProcessPrior`` stack of p weights c: interval j as (j, exposure_j,
w_j) and its event offsets in the partition's CSR form (factors, indptr).
It checks every row's own numbers and the (p, R) shapes, rates and
improper cases at once, and the first failing (row, c) in row-major order
raises.  The exact rows get their polynomials from ``poly_from_factors``
and their mixtures in the flat layout of the ``BaselineMixtures`` it
returns, with log Gamma(k + s0) / Gamma(1 + s0) built once per distinct
s0.  A fit keeps that result as its baseline.  The stage,
``increment_posteriors(ds, bounds, betas, prior)``, places the times of a
stack of r datasets in their intervals once, sums the exposures and sorts
the event offsets of its r m rows, in (dataset, interval) order, from that
one partition, and calls the kernel once.
"""

from __future__ import annotations

import math

import numpy as np

from .data_model import BaselineMixtures, GammaProcessPrior, SurvivalDataset, _reals
from .errors import (
    AddhazError, DegenerateGrid, DimensionMismatch, ImproperPosterior, NonNegativityViolation,
    OutOfRange,
)
from .poly_coeffs import poly_from_factors

__all__ = [
    "EXACT_MAX_FACTORS",
    "increment_posterior",
    "increment_posteriors",
]

# intervals with more events than this get their moments by quadrature
EXACT_MAX_FACTORS = 1000
# the quadrature window ends where the log integrand has dropped this far
_TAIL_DROP = 50.0
# ratio of the spans at which the window's ends are sought
_SPAN_RATIO = 1.05
# the quadrature's largest window, in nodes
_MAX_NODES = 1 << 16
# (nodes x factors) temporaries of the quadrature stay within 2 MB
_CHUNK_ELEMENTS = 1 << 18
# Taylor coefficients 1/k! for k = 12 down to 2, for exp(t) - 1 - t
_EXPM1_MINUS_T = tuple(1.0 / math.factorial(k) for k in range(12, 1, -1))


def _row_intervals(ds, bounds, m) -> tuple[np.ndarray, np.ndarray]:
    """(edges, keys) of a stack of r datasets: the (r, m + 1) edges 0, s_1,
    ..., s_m of each member, from the first m columns of ``bounds``, (m',)
    shared or (r, m'); and for every row, member by member, its key
    i (m + 1) + j - 1 when its time lies in interval j of member i, or
    i (m + 1) + m beyond s_m.  A time on a boundary lies in the interval to
    its left, and a time of 0 in the first.  The bounds read must be finite,
    > 0 and strictly increasing, as a TimeGrid's are."""
    times = ds.times.reshape(-1, ds.n)
    r = times.shape[0]
    bounds = _reals(bounds, "interval bounds")
    if bounds.ndim not in (1, 2) or bounds.shape[:-1] not in ((), (r,)) or bounds.shape[-1] < m:
        raise DimensionMismatch(f"need bounds of shape (m',) or ({r}, m'), m' >= {m} increments")
    bounds = bounds[..., :m]
    edges = np.zeros((r, m + 1))
    edges[:, 1:] = bounds
    # a NaN fails the comparison, and a finite last bound keeps every bound finite
    if not ((edges[:, 1:] > edges[:, :-1]).all() and (edges[:, -1] < math.inf).all()):
        raise DegenerateGrid("interval bounds must be finite, > 0 and strictly increasing")
    if bounds.ndim == 1:
        keys = np.searchsorted(bounds, times, side="left")
    else:
        keys = np.array([np.searchsorted(b, t, side="left") for b, t in zip(bounds, times)])
    keys += np.arange(0, edges.size, m + 1)[:, None]
    return edges, keys.ravel()


def interval_summaries(ds, edges, keys) -> np.ndarray:
    """(r, m) exposure of every grid interval of each member of the stack
    ``ds``, partitioned by ``_row_intervals`` into (edges, keys): the total
    time at risk that all its subjects accumulate inside it,
    sum_i clip(min(t_i, s_j) - s_{j-1}, 0).

    Times beyond s_m are allowed: estimation is truncated there, so such
    observations stay at risk through every interval (full-width exposure)
    but lie inside none of them.
    """
    # one bin a key, each summed in row order as one dataset's alone is;
    # the bin past s_m, whose left edge is s_m, is not read
    times = ds.times.ravel()
    sums = np.bincount(keys, weights=times - edges.ravel()[keys], minlength=edges.size)
    counts = np.bincount(keys, minlength=edges.size).reshape(edges.shape)[:, :-1]
    beyond = ds.n - np.cumsum(counts, axis=1)  # t <= s_j in 1..j
    return sums.reshape(edges.shape)[:, :-1] + beyond * (edges[:, 1:] - edges[:, :-1])


def event_offsets_by_interval(ds, edges, keys, betas) -> tuple[np.ndarray, np.ndarray]:
    """beta'z of the uncensored observations in each interval of each member
    of the stack ``ds``, partitioned by ``_row_intervals`` into (edges, keys),
    as (factors, indptr): interval j of member i, row i * m + j - 1, holds
    ``factors[indptr[row]:indptr[row + 1]]``, in row order.

    These are the offsets of the likelihood polynomial factors, with row i
    of the (r, k) ``betas`` member i's coefficients.  Events beyond s_m
    involve only the hazard past the intervals, so they contribute no factor.
    """
    r, m = edges.shape[0], edges.shape[1] - 1
    betas = _reals(betas, "beta")
    if betas.shape != (r, ds.k):
        raise DimensionMismatch("beta dimension does not match the dataset")
    # each member's own (n, k) @ (k,) product: a stacked one may round otherwise
    offsets = np.empty((r, ds.n))
    for z, beta, out in zip(ds.covariates.reshape(r, ds.n, ds.k), betas, offsets):
        np.matmul(z, beta, out=out)
    events = ds.events.ravel() & (keys % (m + 1) != m)  # inside the m intervals
    at = keys[events]
    # in row order within each row; keys of one or two bytes take a radix sort
    order = np.argsort(at.astype(np.min_scalar_type(edges.size)), kind="stable")
    factors = offsets.ravel()[events][order]
    counts = np.bincount(at, minlength=edges.size).reshape(edges.shape)[:, :-1]
    indptr = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return factors, indptr


def _first_failure(js, exposures, widths, b, indptr, zeros, prior):
    """(s0, c_j, failure) of R rows under a stack of p weights c: (p, R)
    arrays of each interval's prior shape c alpha_j plus one unit per zero
    offset and its posterior rate, and the first failing (row, c), in
    row-major order, as (row * p + q, its error), else None.  A row's own
    numbers fail before any c's, in this order: a non-finite offset, a
    negative one, a j outside the prior's m increments, and an exposure not
    finite and >= 0 or a width not finite and > 0."""
    m, c = prior.m, prior.c.reshape(-1, 1)
    outside = (js < 1) | (js > m)
    # the first failing offset by each of two checks, then the first failing row by two more
    firsts = [np.flatnonzero(mask)[:1] for mask in (
        ~np.isfinite(b), b < 0.0, outside,
        ~((0.0 <= exposures) & (exposures < math.inf) & (0.0 < widths) & (widths < math.inf)),
    )]
    rows = [np.searchsorted(indptr, at, side="right") - 1 for at in firsts[:2]] + firsts[2:]
    rows = [int(at[0]) if at.size else js.size for at in rows]
    row = min(rows)
    alpha = prior.increments[np.where(outside, 0, js - 1)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # fails below
        shape0 = c * alpha + zeros
        rate = exposures / widths + c
    bad = np.flatnonzero(((shape0 == 0.0) | ~((shape0 < math.inf) & (rate < math.inf))).T.ravel())
    if bad.size and bad[0] < row * c.size:  # in a row whose own numbers pass
        i, q = divmod(int(bad[0]), c.size)
        j = js[i]
        if not (shape0[q, i] < math.inf and rate[q, i] < math.inf):
            exc = OutOfRange(f"interval {j}: the prior shape c alpha_j or the rate c_j overflows")
        elif alpha[i] > 0.0:
            exc = OutOfRange(f"interval {j}: the prior shape c alpha_j underflows to 0")
        elif indptr[i] == indptr[i + 1]:
            exc = ImproperPosterior(f"interval {j}: zero prior increment and no events")
        else:  # a zero shape and a positive constant coefficient leave a 1/a factor near 0
            exc = ImproperPosterior(f"interval {j}: zero prior increment with a positive "
                                    "constant likelihood coefficient")
        return shape0, rate, (int(bad[0]), exc)
    if row == js.size:
        return shape0, rate, None
    j = js[row]
    return shape0, rate, (row * c.size, (
        OutOfRange("factor offsets must be finite"),
        NonNegativityViolation("factor offsets must be >= 0"),
        DimensionMismatch(f"interval {j} outside the prior's {m} increments"),
        OutOfRange(f"interval {j}: needs a finite exposure >= 0 and width > 0"),
    )[rows.index(row)])


def _mixtures(log_d, lengths, shape0, rate, log_scale):
    """(mean, variance, log_w, shapes) of B exact rows under p priors, from
    their N live log coefficients end to end, their B lengths, each >= 1,
    and their (p, B) s0, c_j and log(w_j c_j): (p, B) moments, and the
    normalized log weights and shapes s0 + k of the live components, (p, N)
    in row order.  Every live log coefficient is finite, and so is every
    log weight.  The temporaries are a few (p, N) arrays."""
    ends = np.cumsum(lengths)
    starts = ends - lengths
    k_int = np.arange(log_d.size) - np.repeat(starts, lengths)  # each component's k in its row
    k = k_int.astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # in rows read below
        # log Gamma(k + s0) / Gamma(1 + s0) as -log s0 at k = 0 and a sum of
        # log(s0 + i) above it: gammaln(k + s0) alone is ~s0 log s0, which
        # leaves too few absolute digits for the weights at large s0.  It
        # depends on a row only through s0, so it is built once a distinct s0,
        # as long as the longest row under it: distinct s0 d holds
        # log_rising[firsts[d] : firsts[d] + longest[d]]
        distinct, at = np.unique(shape0.ravel(), return_inverse=True)
        longest = np.zeros(distinct.size, dtype=np.intp)
        # the (p, B) lengths in full: numpy 2.4's ufunc.at misreads a broadcast
        np.maximum.at(longest, at, np.tile(lengths, shape0.shape[0]))
        firsts = np.cumsum(longest) - longest
        log_shapes = np.repeat(distinct, longest)
        log_shapes += np.arange(log_shapes.size) - np.repeat(firsts, longest)
        np.log(log_shapes, out=log_shapes)
        log_rising = np.zeros(log_shapes.size)
        for i, n in zip(firsts.tolist(), longest.tolist()):
            np.add.accumulate(log_shapes[i + 1 : i + n - 1], out=log_rising[i + 2 : i + n])
        log_rising[firsts] = -log_shapes[firsts]
        del log_shapes
        log_w = log_rising[np.repeat(firsts[at].reshape(shape0.shape), lengths, axis=-1) + k_int]
        del log_rising
        # w, which serves as scratch before and after it holds the weights
        w = np.empty((2, *log_w.shape))
        np.multiply(k, np.repeat(log_scale, lengths, axis=-1), out=w[1])
        log_w += np.subtract(log_d, w[1], out=w[1])
        top = np.maximum.reduceat(log_w, starts, axis=-1)
        # w and w k, each mixture summed over its own contiguous slice, as a
        # lone row is: a segmented or BLAS sum rounds otherwise
        np.exp(np.subtract(log_w, np.repeat(top, lengths, axis=-1), out=w[0]), out=w[0])
        np.multiply(w[0], k, out=w[1])
        rows = list(zip(starts.tolist(), ends.tolist()))
        sums = np.empty((3, *shape0.shape))
        for i, (a, z) in enumerate(rows):
            np.add.reduce(w[..., a:z], axis=-1, out=sums[:2, :, i])
        totals = sums[0]
        log_total = np.array([math.log(t) for t in totals.ravel().tolist()]).reshape(totals.shape)
        log_w -= np.repeat(top + log_total, lengths, axis=-1)
        # the moments of the shape s0 + k are taken in k, since s0 + k rounds k
        # away once s0 is far above 2^53
        k_mean = sums[1] / totals
        dev = np.subtract(k, np.repeat(k_mean, lengths, axis=-1), out=w[1])
        dev *= dev
        dev *= w[0]
        for i, (a, z) in enumerate(rows):
            np.add.reduce(dev[:, a:z], axis=-1, out=sums[2, :, i])
        shape_mean = shape0 + k_mean
        # the variance is divided by the rate twice, so that no c_j^2 overflows
        mean = shape_mean / rate
        variance = (sums[2] / totals + shape_mean) / rate / rate
    del w, dev  # freed before the shapes are built, to keep the peak down
    return mean, variance, log_w, np.repeat(shape0, lengths, axis=-1) + k


def increment_posterior(js, exposures, widths, factors, indptr, prior):
    """Posteriors of the increments over R rows, under each of the p weights
    c of the ``GammaProcessPrior`` stack ``prior``, as one ``BaselineMixtures``.

    Row i is interval js[i], of exposure exposures[i] and width widths[i],
    and its events' offsets beta'z are ``factors[indptr[i]:indptr[i + 1]]``,
    the partition's CSR form.  A row of more than EXACT_MAX_FACTORS events
    gets its moments by quadrature and an empty mixture; any other gets the
    Gamma mixture of the product of (a + beta'z) over its events.  The first
    (row, c) that fails, in row-major order, raises.
    """
    try:
        sized = len(exposures) == len(widths) == len(indptr) - 1 == len(js) >= 1
    except TypeError:  # one of them is no sequence
        sized = False
    if not (sized and isinstance(prior, GammaProcessPrior)):
        raise DimensionMismatch("need sequences of one j, exposure and width a row and R + 1 "
                                "row offsets, at least one row, and one GammaProcessPrior")
    b = _reals(factors, "factor offsets", 1)
    exposures, widths = _reals(exposures, "exposures", 1), _reals(widths, "widths", 1)
    js, indptr = _reals(js, "interval index", 1, None), _reals(indptr, "row offsets", 1, None)
    if js.dtype.kind not in "iu":
        raise DimensionMismatch(f"interval index must be an integer, got {js.dtype}")
    if not (indptr.dtype.kind in "iu" and indptr[0] == 0 and indptr[-1] == b.size
            and (indptr[1:] >= indptr[:-1]).all()):
        raise DimensionMismatch("row offsets must be integers rising from 0 to the offsets' count")
    p, count, indptr = prior.c.size, js.size, indptr.astype(np.intp)
    sizes, bounds = np.diff(indptr), indptr.tolist()
    # a zero offset is a factor a: one more unit of prior shape, not a live term
    zero_at = np.searchsorted(indptr, np.flatnonzero(b == 0.0), side="right") - 1
    zeros = np.bincount(zero_at, minlength=count)
    shape0, rate, failure = _first_failure(js, exposures, widths, b, indptr, zeros, prior)
    # (row, c) entries from row-major index ``limit`` on are not read, nor
    # rows from ``needed`` on
    limit = failure[0] if failure else count * p
    needed = -(-limit // p)
    # live coefficients of a row's mixture, at least 1; 0 for the quadrature
    lengths = np.where(sizes <= EXACT_MAX_FACTORS, sizes - zeros + 1, 0)
    mean, variance = np.zeros((2, p, count))
    exact = np.flatnonzero(lengths[:needed])
    spans = lengths[exact]
    log_d = np.empty(spans.sum())  # the exact rows' live (last n) log coefficients, end to end
    for i, n, end in zip(exact.tolist(), spans.tolist(), np.cumsum(spans).tolist()):
        log_d[end - n : end] = poly_from_factors(b[bounds[i] : bounds[i + 1]]).log_abs[-n:]
    log_scale = np.reshape([
        [math.log(w) + math.log(c) for c in cs]
        for w, cs in zip(widths[exact].tolist(), rate[:, exact].T.tolist())
    ], (-1, p)).T
    *moments, log_w, shapes = _mixtures(log_d, spans, shape0[:, exact], rate[:, exact], log_scale)
    mean[:, exact], variance[:, exact] = moments
    for i in np.flatnonzero(lengths[:needed] == 0).tolist():
        offsets = b[bounds[i] : bounds[i + 1]]
        positive, width = offsets[offsets > 0.0], widths[i].item()
        for q in range(min(p, limit - i * p)):
            try:
                mean[q, i], variance[q, i] = _quadrature_moments(
                    js[i], shape0[q, i].item(), rate[q, i].item(), width, positive
                )
            except AddhazError as exc:
                failure = i * p + q, exc
                limit = failure[0]
                break
    # a moment that overflows, on either path, fails at its (row, c)
    bad = np.flatnonzero(~((mean < math.inf) & (variance < math.inf)).T.ravel()[:limit])
    if bad.size:
        failure = bad[0], OutOfRange(f"interval {js[bad[0] // p]}: the posterior moments overflow")
    if failure:
        raise failure[1]
    return BaselineMixtures(
        js, rate, mean, variance, log_w.ravel(), shapes.ravel(),
        np.concatenate(([0], np.cumsum(np.tile(lengths, p)))),  # the lengths, once per c
    )


def _quadrature_moments(j, shape0: float, rate: float, width: float, positive: np.ndarray):
    """(mean, variance) of the increment of checked interval j, of prior
    shape s0 and rate c_j, by quadrature over its positive offsets.  It
    takes s0 up to 1e300 and u x / b_i up to 1e300 at u = s0 + N,
    x = 1 / (width c_j), and raises OutOfRange beyond them."""
    mean_u = var_u = shape0  # the prior's Gamma(s0, 1) in u
    if positive.size:
        x = 1.0 / width / rate
        # the largest u x / b_i over the mode's bracket u <= s0 + N; below
        # 1e-290 the offsets move neither moment by a relative 1e-290
        tilt = (shape0 + positive.size) * x / float(positive.min())
        if not (shape0 <= 1e300 and tilt <= 1e300):
            raise OutOfRange(
                f"interval {j}: prior shape {shape0:.3g} or largest u x / b {tilt:.3g} "
                "is above the quadrature's 1e300"
            )
        if tilt >= 1e-290:
            mean_u, var_u = _tilted_gamma_moments(j, shape0, positive, x)
    # L = u / c_j: the variance is divided by the rate twice, as in the mixture
    return mean_u / rate, var_u / rate / rate


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
    """(k_hat, w, D(u_hat)): the mode u_hat = s0 + k_hat of u^s0 e^-u R(u),
    the shares w_i = u_hat x / (u_hat x + b_i) there, and D(u) = log P(u) / P(0).

    The log-derivative kappa(u) = u R'(u) / R(u) = sum(w) / (1 - e^-D) of
    R lies in [1, N], so the slope s0 + kappa(u) - u of the log density in
    log u has its root at k_hat = kappa(s0 + k_hat) in [1, N].  Newton
    steps in k_hat, which stays exact where s0 + k_hat would round k_hat
    away, are bisected whenever they leave the shrinking bracket, and stop
    once a step is below 1e-3 sqrt(s0 + 1), a thousandth of the narrowest
    peak's width.
    """
    lo, hi = 1.0, float(b.size)
    k_hat = hi
    for _ in range(200):
        u = s0 + k_hat
        ux = u * x
        w = ux / (ux + b)
        d_u = float(np.sum(np.log1p(ux / b)))
        share, kept = float(np.sum(w)), -math.expm1(-d_u)  # kept = R(u) / P(u)
        kappa = share / kept
        slope = kappa - k_hat
        lo, hi = (k_hat, hi) if slope >= 0.0 else (lo, k_hat)
        # d kappa / d log u, from sum(w (1 - w)) and d D / d log u = sum(w);
        # the slope's derivative in u is (dkappa - u) / u, and only a negative
        # one gives a Newton step toward the root
        dkappa = (share - float(np.dot(w, w))) / kept - kappa * kappa * math.exp(-d_u)
        nxt = k_hat + slope * u / (u - dkappa) if dkappa < u else lo
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - k_hat) <= 1e-3 * math.sqrt(s0 + 1.0):
            break
        k_hat = nxt
    return k_hat, w, d_u


def _node_map(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, dt/ds) of t = s - (e^-2s - 1) / 4: steps in t grow to the left,
    are 1.5 times the step in s at t = 0, and tend to it on the right."""
    return s - np.expm1(-2.0 * s) / 4.0, 1.0 + np.exp(-2.0 * s) / 2.0


def _log_gamma_at_mode(s0: float, k_hat: float) -> float:
    """log Gamma(s0) - s0 log u_hat + u_hat at u_hat = s0 + k_hat.  Above
    s0 = 10 the three terms would cancel to O(log s0) out of O(s0 log s0),
    so Stirling's series gives lgamma(s0) - s0 log s0 + s0, to 1e-12, and
    k_hat - s0 log(u_hat / s0) is s0 (e^tau - 1 - tau), tau = log(u_hat / s0)."""
    if s0 < 10.0:
        return math.lgamma(s0) - s0 * math.log(s0 + k_hat) + s0 + k_hat
    z = 1.0 / s0
    stirling = 0.5 * math.log(2.0 * math.pi * z) + z / 12 - z**3 / 360 + z**5 / 1260 - z**7 / 1680
    return stirling + s0 * float(_expm1_minus_t(np.array(math.log1p(k_hat * z))))


def _tilted_gamma_moments(j: int, s0: float, b: np.ndarray, x: float) -> tuple[float, float]:
    """Mean and variance of u with density prop. to u^(s0-1) e^-u P(u).

    P(u) = prod_i (u x + b_i) over N >= 1 offsets b_i > 0, and s0 > 0.
    P(0) = prod_i b_i contributes the closed-form Gamma(s0, 1) component,
    which carries all of the singularity at u = 0 when s0 < 1; the
    remainder R(u) = P(u) - P(0) is integrated numerically in
    t = log(u / u_hat), about the mode u_hat = s0 + k_hat of
    u^s0 e^-u R(u), where the integrand is smooth and decays at least like
    e^((s0+1) t) to the left and like e^-u to the right.  Every term is
    written in deviations from the mode, k_hat and t, so that no large s0
    cancels against u_hat.

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
    or D itself where D may be below 40.  A window of more than _MAX_NODES
    nodes raises OutOfRange before any node is placed.
    """
    k_hat, w, d_hat = _tilted_mode(s0, b, x)
    u_hat = s0 + k_hat
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
            v, e = np.expm1(t), _expm1_minus_t(t)
            quad = w_sq * v * v / (2.0 * np.maximum(1.0, 1.0 + w_max * v))
            # both in deviations from the mode: s0 t - u_hat v = -k_hat t - u_hat e
            upper = np.minimum(
                (share - k_hat) * t - (u_hat - share) * e - quad - log_rem,
                (power - k_hat) * t - u_hat * e,
            )
        dropped = np.flatnonzero(upper < -_TAIL_DROP)
        ends.append(side_spans[dropped[0] if dropped.size else -1])

    step = min(0.2, 0.6 / math.sqrt(u_hat)) / 1.5  # in s; dt/ds = 1.5 at the mode
    left, right = math.ceil(ends[0] / step), math.ceil(ends[1] / step)
    if left + right >= _MAX_NODES:
        raise OutOfRange(f"interval {j}: the quadrature would need {left + right + 1} nodes")
    t, dt_ds = _node_map(step * np.arange(-left, right + 1))
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
    # node's weight step dt/ds: s0 t - (u - u_hat) = -k_hat v - s0 E(t)
    log_f = growth - k_hat * v - s0 * _expm1_minus_t(t) + (_log1mexp(drop) - log_rem)
    log_f += np.log(step * dt_ds)
    top = float(np.max(log_f))
    wq = np.exp(log_f - top)
    total = float(np.sum(wq))
    # the R part's mean, u_hat + shift, and variance
    dev = u_hat * v
    shift = float(np.dot(wq, dev)) / total
    dev -= shift
    var_r = float(np.dot(wq, dev * dev)) / total
    # the R part's share p against the P(0) Gamma(s0) part, from their log
    # odds; the parts' means differ by gap, and no term below cancels
    odds = _log_gamma_at_mode(s0, k_hat) - d_hat - log_rem - top - math.log(total)
    small = math.exp(-abs(odds))
    p = (small if odds > 0.0 else 1.0) / (1.0 + small)
    gap = k_hat + shift
    return s0 + p * gap, (1.0 - p) * s0 + p * var_r + p * (1.0 - p) * gap * gap


def increment_posteriors(ds, bounds, betas, prior) -> BaselineMixtures:
    """Posterior of the increment over each of the first m intervals of a
    stack of r datasets ``ds``, one dataset being a stack of one, m the
    prior's length, under each weight c of the ``GammaProcessPrior`` stack
    ``prior``: member i given its coefficients betas[i], of shape (r, k), on
    the right endpoints ``bounds``, (m',) for a grid that all members share
    or (r, m') for one a member, m' >= m.

    Row i * m + j - 1 of the result is interval j of member i.  The
    partition of the stack goes to one ``increment_posterior`` call, which
    takes every row under every c; the first failure in (member, interval,
    c) order raises.
    """
    if not (isinstance(ds, SurvivalDataset) and isinstance(prior, GammaProcessPrior)):
        raise DimensionMismatch("need one SurvivalDataset and one GammaProcessPrior stack")
    edges, keys = _row_intervals(ds, bounds, prior.m)
    exposures = interval_summaries(ds, edges, keys).ravel()
    widths = np.diff(edges).ravel()
    js = np.tile(np.arange(1, prior.m + 1), edges.shape[0])
    return increment_posterior(
        js, exposures, widths, *event_offsets_by_interval(ds, edges, keys, betas), prior
    )
