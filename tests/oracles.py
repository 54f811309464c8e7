"""Test-side builders and reference helpers shared by several test modules."""

import csv
import math
from collections import namedtuple
from unittest import mock

import mpmath
import numpy as np

from addhaz import baseline_posterior
from addhaz.baseline_posterior import (
    _first_failure,
    _row_intervals,
    event_offsets_by_interval,
    increment_posterior,
    interval_summaries,
)
from addhaz.data_model import GammaProcessPrior, SurvivalDataset
from addhaz.errors import (
    DatasetFormatError,
    DimensionMismatch,
    NoEvents,
    NonNegativityViolation,
    OutOfRange,
    SingularDesign,
)
from addhaz.lin_ying import LYStatistics, compute_statistics, ly_solve
from addhaz.poly_coeffs import PolyCoefficients, poly_from_factors


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


def poly_by_slices(offsets) -> PolyCoefficients:
    """The likelihood polynomial by an in-place recursion that slices its one
    buffer per factor: the reference that ``poly_from_factors`` is held to
    bit for bit."""
    b = np.fromiter(offsets, dtype=float)
    # after deg factors, buf[:deg + 1] holds log d_0..d_deg
    buf = np.zeros(b.size + 1)
    for deg, offset in enumerate(b.tolist()):
        log_b = math.log(offset) if offset > 0.0 else -math.inf
        buf[deg + 1] = buf[deg]
        buf[1 : deg + 1] = np.logaddexp(buf[:deg], buf[1 : deg + 1] + log_b)
        buf[0] += log_b
    return PolyCoefficients(buf)


def stack(*datasets, allow_signed=False) -> SurvivalDataset:
    """One SurvivalDataset stack of datasets that share n and k."""
    return SurvivalDataset(
        *([getattr(ds, name) for ds in datasets] for name in SurvivalDataset.__slots__),
        allow_signed=allow_signed,
    )


def interval_exposures(ds: SurvivalDataset, grid) -> np.ndarray:
    """(m,) exposures of one dataset over every interval of its grid."""
    return interval_summaries(ds, *_row_intervals(ds, grid.boundaries, grid.m))[0]


def interval_widths(grid) -> np.ndarray:
    """(m,) widths s_j - s_{j-1} of a grid's intervals, s_0 = 0."""
    return np.diff(grid.boundaries, prepend=0.0)


def interval_offsets(ds: SurvivalDataset, grid, beta) -> list[np.ndarray]:
    """beta'z of one dataset's events, one array an interval of its grid."""
    partition = _row_intervals(ds, grid.boundaries, grid.m)
    factors, indptr = event_offsets_by_interval(ds, *partition, [beta])
    return np.split(factors, indptr[1:-1])


# one interval's posterior under one prior, read out of BaselineMixtures
Posterior = namedtuple("Posterior", "interval log_weights shape_offsets rate mean variance")


def posteriors(mixtures) -> list[tuple[Posterior, ...]]:
    """Entry [q][i]: row i's posterior under prior q, its mixture as tuples."""
    b, r, ends = mixtures, mixtures.intervals.size, mixtures.indptr.tolist()
    return [
        tuple(
            Posterior(j, tuple(b.log_weights[start:end].tolist()),
                      tuple(b.shape_offsets[start:end].tolist()), *moments)
            for j, start, end, *moments in zip(
                b.intervals.tolist(), ends[q * r :], ends[q * r + 1 :],
                b.rate[q].tolist(), b.mean[q].tolist(), b.variance[q].tolist(),
            )
        )
        for q in range(b.rate.shape[0])
    ]


def members(prior) -> list[GammaProcessPrior]:
    """The priors of a stack, one each c, each built on its own."""
    return [GammaProcessPrior(prior.increments, c) for c in prior.c.reshape(-1).tolist()]


def each_member(kernel):
    """``kernel``, a reference for one prior, over every member of a stack:
    one result for a c of shape (), and a tuple of them for shape (p,)."""
    def over_members(*args):
        *args, prior = args
        out = tuple(kernel(*args, member) for member in members(prior))
        return out if prior.c.ndim else out[0]
    return over_members


def kernel(js, exposures, widths, rows, prior):
    """``increment_posterior`` on R rows given as sequences, in the arrays the
    stage builds: intp interval numbers, float exposures and widths, and the
    rows' float offsets end to end with intp row offsets (its CSR form)."""
    factors = np.concatenate([np.asarray(row, dtype=float) for row in rows])
    indptr = np.cumsum([0] + [len(row) for row in rows], dtype=np.intp)
    return increment_posterior(
        np.array(js, dtype=np.intp), np.array(exposures, dtype=float),
        np.array(widths, dtype=float), factors, indptr, prior,
    )


@each_member
def one_interval(j, exposure, width, offsets, prior) -> Posterior:
    """The kernel's batch of one: interval j under one prior, from its
    event offsets; the mixture up to EXACT_MAX_FACTORS of them, else
    quadrature and no mixture."""
    return posteriors(kernel([j], [exposure], [width], [offsets], prior))[0][0]


def _on_one_path(limit):
    def kernel(*args):
        with mock.patch.object(baseline_posterior, "EXACT_MAX_FACTORS", limit):
            return one_interval(*args)
    return kernel


# one_interval with its row on one path, whatever its event count: the
# test-side seam that holds the mixture and the quadrature to each other
by_mixture, by_quadrature = _on_one_path(math.inf), _on_one_path(-1)


@each_member
def mixture_posterior(j, exposure, width, offsets, prior) -> Posterior:
    """The Gamma-mixture posterior written with numpy's module functions and
    a concatenated log-rising sum: the reference that ``increment_posterior``
    is held to bit for bit in all but its mean and variance, for rows of
    valid numbers."""
    offsets = np.asarray(offsets, dtype=float)
    shape0, rate, failure = _first_failure(
        np.array([j]), np.array([exposure]), np.array([width]), offsets,
        np.array([0, offsets.size]), np.array([np.count_nonzero(offsets == 0.0)]), prior,
    )
    if failure:
        raise failure[1]
    poly = poly_from_factors(offsets)
    dead = int(np.argmax(poly.log_abs > -math.inf))
    shape0, rate = shape0.item(), rate.item()
    log_d = poly.log_abs[dead:]
    k = np.arange(log_d.size)
    shapes = k + shape0
    log_scale = math.log(width) + math.log(rate)
    log_rising = np.concatenate(([-np.log(shape0), 0.0], np.cumsum(np.log(shapes[1:-1]))))
    log_w = log_d - k * log_scale + log_rising[: log_d.size]
    top = np.max(log_w)
    log_w = log_w - (top + math.log(np.sum(np.exp(log_w - top))))
    w = np.exp(log_w)
    shape_mean = float(np.dot(w, shapes))
    shape_var = float(np.dot(w, (shapes - shape_mean) ** 2))
    return Posterior(
        interval=j,
        log_weights=tuple(log_w.tolist()),
        shape_offsets=tuple(shapes.tolist()),
        rate=float(rate),
        mean=shape_mean / rate,
        variance=(shape_var + shape_mean) / (rate * rate),
    )


def stage_by_intervals(ds, grid, beta, prior) -> list[tuple[Posterior, ...]]:
    """The baseline stage as loops of one-interval kernel calls, interval by
    interval and each member of the prior stack in turn, entry [q][j] for
    interval j + 1 under member q: the reference that ``increment_posteriors``
    is held to."""
    exposures, widths = interval_exposures(ds, grid).tolist(), interval_widths(grid).tolist()
    columns = []
    for j, factors in enumerate(interval_offsets(ds, grid, beta)[: prior.m]):
        interval = (j + 1, exposures[j], widths[j])
        columns.append([one_interval(*interval, factors, member) for member in members(prior)])
    return list(zip(*columns))


def mixture_moments(log_d, s0, width, rate):
    """(mean, variance) of the increment u / rate, u of density proportional
    to u^(s0 - 1) e^-u sum_k d_k (x u)^k with x = 1 / (width rate): the
    Gamma(s0 + k, 1) mixture with weights d_k x^k (s0)_k, summed in mpmath
    with enough digits to hold s0 + k exactly.  log_d holds log d_k, -inf
    for the leading zeros; s0 = 0 is allowed when d_0 = 0."""
    digits = 40 + (abs(math.floor(math.log10(s0))) if s0 > 0.0 else 0)
    with mpmath.workdps(digits):
        s0, rate = mpmath.mpf(s0), mpmath.mpf(rate)
        x = 1 / (mpmath.mpf(width) * rate)
        # the weights relative to the first live one: d_k x^k (s0 + k0)_(k - k0)
        weights, rising = [], None
        for k, log_dk in enumerate(np.asarray(log_d, dtype=float).tolist()):
            if log_dk == -math.inf:
                weights.append(mpmath.mpf(0))
                continue
            rising = mpmath.mpf(1) if rising is None else rising
            weights.append(mpmath.exp(log_dk) * x**k * rising)
            rising *= s0 + k
        total = mpmath.fsum(weights)
        mean = mpmath.fsum(w * (s0 + k) for k, w in enumerate(weights)) / total
        var = mpmath.fsum(w * (s0 + k + (s0 + k - mean) ** 2) for k, w in enumerate(weights))
        return float(mean / rate), float(var / total / rate**2)


def statistics_by_runs(ds: SurvivalDataset) -> LYStatistics:
    """V1, V2, V3 from a stable sort and the runs of equal times, built for
    every dataset: the reference that ``compute_statistics`` is held to bit
    for bit."""
    n = ds.n
    with np.errstate(over="ignore", invalid="ignore"):
        order = ds.times.argsort(kind="stable")
        t = ds.times[order]
        events = ds.events[order]
        z = ds.covariates[order]
        z -= ds.covariates.mean(axis=0)
        ztz = (z.T * t) @ z
        # run s of equal times starts at row first[s]; event row i is in run inv_events[i]
        starts = np.concatenate(([True], t[1:] != t[:-1]))
        first = starts.nonzero()[0]
        inv_events = (starts.cumsum() - 1)[events]
        lengths = np.diff(np.concatenate(([0.0], t[first])))
        resid = z[events]
        sum_z = z[::-1].cumsum(axis=0)[::-1][first]
        counts = n - first
        zbar = sum_z[inv_events]
        zbar /= counts[inv_events][:, None]
        resid -= zbar
        v1 = resid.sum(axis=0) / n
        v3 = resid.T @ resid / n
        w = sum_z
        w *= np.sqrt(lengths / counts)[:, None]
        v2 = (ztz - w.T @ w) / n
        v2 = (v2 + v2.T) / 2.0
        v3 = (v3 + v3.T) / 2.0
    if not (np.isfinite(v1).all() and np.isfinite(v2).all() and np.isfinite(v3).all()):
        raise OutOfRange("V1, V2 or V3 overflows")
    return LYStatistics(v1=v1, v2=v2, v3=v3, n=n)


def offsets_by_mask(ds: SurvivalDataset, grid, beta) -> list[np.ndarray]:
    """beta'z of each grid interval's events, in row order, picked out by one
    mask per interval: the reference for ``event_offsets_by_interval``."""
    offsets = ds.covariates @ np.asarray(beta, dtype=float)
    rows = np.flatnonzero(ds.events)
    idx = np.searchsorted(np.asarray(grid.boundaries), ds.times[rows], side="left")
    return [offsets[rows[idx == j]] for j in range(grid.m)]


def draw_event_times(offsets, rng: np.random.Generator):
    """Event times with the unit baseline hazard plus offsets[i], from the
    draws ``rng.exponential(size=n)``, one row at a time in floats.

    A row's hazard is the constant h = 1 + offset, so its cumulative hazard
    is h t, and the inverse transform of its draw E is the time E / h.
    """
    draws = rng.exponential(size=len(offsets))
    offsets = np.asarray(offsets, dtype=float).tolist()
    return np.array([e / (1.0 + offset) for e, offset in zip(draws.tolist(), offsets)])


def draw_piecewise_times(levels, bounds, offsets, rng: np.random.Generator):
    """Event times under the additive hazard a_j + offsets[i] on interval j
    of the grid with right endpoints ``bounds``, and a_m past its end, by
    inverting the cumulative hazard at one Exp(1) draw a row.

    The cumulative hazard at s_j is A_j + b s_j, with A_j the baseline's
    sum of a_l w_l over l <= j; a draw E falls in the first interval whose
    end the hazard passes, and inside it the hazard is linear in t.
    """
    a, s = np.asarray(levels, dtype=float), np.asarray(bounds, dtype=float)
    b = np.asarray(offsets, dtype=float)
    left = np.concatenate(([0.0], s[:-1]))
    base = np.concatenate(([0.0], np.cumsum(a * (s - left))))  # A_0, ..., A_m
    draws = rng.exponential(size=b.size)
    at_ends = base[1:] + b[:, None] * s  # (n, m) cumulative hazard at s_1..s_m
    j = np.sum(at_ends < draws[:, None], axis=1)  # 0-based interval, m beyond s_m
    start = np.concatenate(([0.0], s))[j]
    level = np.append(a, a[-1])[j]
    return start + (draws - base[j] - b * start) / (level + b)


def draw_event_time(z, beta, rng: np.random.Generator) -> float:
    """One event time for covariates z under coefficients beta."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if z.shape != beta.shape:
        raise DimensionMismatch("z and beta dimensions disagree")
    if np.any(z < 0) or np.any(beta < 0):
        raise NonNegativityViolation("z and beta must be >= 0")
    return float(draw_event_times([float(z @ beta)], rng)[0])


def draw_dataset(cfg, rng: np.random.Generator) -> SurvivalDataset:
    """One replicate of a study drawn on its own, with numpy's sized draws:
    the reference that the simulator's chunked draw is held to."""
    # chi-squared(1) covariates as squares of standard normal draws
    z = rng.standard_normal((cfg.n, cfg.k)) ** 2
    offsets = z @ np.asarray(cfg.beta_true)
    event_times = rng.exponential(size=cfg.n) / (1.0 + offsets)
    if cfg.censor_rate > 0:
        censor_times = rng.exponential(scale=1.0 / cfg.censor_rate, size=cfg.n)
    else:
        censor_times = np.full(cfg.n, np.inf)
    times = np.minimum(event_times, censor_times)
    events = event_times <= censor_times
    return SurvivalDataset(times, events, z)


def replicate_estimates(cfg):
    """(dataset, estimating-equation solution) for each replicate of a study,
    one replicate at a time from its own (seed, r) stream; the solution is
    None where V2 is singular."""
    out = []
    for r in range(cfg.replicates):
        ds = draw_dataset(cfg, np.random.default_rng([cfg.seed, r]))
        try:
            estimate = ly_solve(compute_statistics(ds))
        except SingularDesign:
            estimate = None
        out.append((ds, estimate))
    return out


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
