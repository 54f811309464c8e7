"""Core value types: datasets, time grids, priors, and fit results, whose
baseline posteriors are one ``BaselineMixtures`` of arrays over rows and priors.

The hazard model is lambda(t) = lambda0(t) + beta'z with nonnegative
regression coefficients and nonnegative covariates, observed under right
censoring as (time, event, covariates) triplets.  The baseline hazard is
treated as piecewise constant on a grid 0 = s_0 < s_1 < ... < s_m = t_final
whose intervals are the left-open, right-closed cells (s_{j-1}, s_j].

Every entry reads a caller's numbers with ``_reals``: bools, integers or
floats, else DimensionMismatch.  Event flags are bools, or numbers 0 or 1.
Then one domain rule, ``_finite``, holds at every entry: NaN and +-inf raise
OutOfRange, and only then does a negative value raise NonNegativityViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateGrid,
    DimensionMismatch,
    NoEvents,
    NonNegativityViolation,
    OutOfRange,
    SingularCovariance,
)

__all__ = [
    "SurvivalDataset",
    "TimeGrid",
    "BetaPrior",
    "GammaProcessPrior",
    "BaselineMixtures",
    "FitResult",
    "DEFAULT_QUANTILES",
    "grid_from_quantiles",
]


def _reals(values, what: str, ndim: int | None = None, dtype=float) -> np.ndarray:
    """A new C-ordered ``dtype`` array (numpy's own type if None) of ``values``,
    read by numpy as bools, integers or floats of ``ndim`` dimensions (any if
    None); anything else raises DimensionMismatch naming ``what``."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged rows: numpy reads no array
        array = np.array(None)
    if array.dtype.kind not in "biuf" or ndim not in (None, array.ndim):
        dims = "" if ndim is None else f" {ndim}-d"
        raise DimensionMismatch(f"{what} must be a rectangular{dims} array of real numbers")
    return np.array(array, dtype=dtype, order="C")


def _finite(array: np.ndarray, what: str, nonneg: bool = True) -> np.ndarray:
    """``array``, if finite (else OutOfRange) and then, if ``nonneg``, >= 0 (else
    NonNegativityViolation), read from its least and largest entry (NaN fails both)."""
    if array.size:
        low = np.minimum.reduce(array, axis=None)
        if not (-math.inf < low and np.maximum.reduce(array, axis=None) < math.inf):
            raise OutOfRange(f"{what} must be finite")
        if nonneg and low < 0.0:
            raise NonNegativityViolation(f"{what} must be >= 0")
    return array


class SurvivalDataset:
    """Immutable observations, stored as numpy arrays: one dataset, or a stack
    of r datasets of n rows each, accepted when each member would be alone.

    Attributes
    ----------
    times : (n,) or (r, n) float array of follow-up times, all finite and >= 0.
    events : (n,) or (r, n) bool array, True where the time is an observed event.
    covariates : (n, k) or (r, n, k) float array, entries >= 0 unless the
        dataset was built with ``allow_signed=True`` (used for pre-transformed
        data whose analysis stays on the flat-prior path).
    """

    __slots__ = ("times", "events", "covariates")

    def __init__(self, times, events, covariates, *, allow_signed=False):
        # copies, so freezing them leaves the caller's arrays writable; C order,
        # because sums over the rows depend on the memory layout in the last bits
        times = _reals(times, "times")
        if times.ndim not in (1, 2):
            raise DimensionMismatch("times must be a rectangular 1-d or 2-d array of real numbers")
        events = _reals(events, "event flags", times.ndim, dtype=None)  # no float copy
        covariates = _reals(covariates, "covariates", times.ndim + 1)
        if events.shape != times.shape or covariates.shape[:-1] != times.shape:
            raise DimensionMismatch(
                "times, events and covariates must agree on the replicates and rows"
            )
        if times.size == 0:
            raise NoEvents("empty dataset")
        if covariates.shape[-1] < 1:
            raise DimensionMismatch("at least one covariate column is required")
        _finite(times, "follow-up times")
        _finite(covariates, "covariates (signed ones need allow_signed)", nonneg=not allow_signed)
        if events.dtype != bool and not np.all((events == 0) | (events == 1)):
            raise OutOfRange("event flags must be bools, or numbers equal to 0 or 1")
        events = events.astype(bool, copy=False)
        if not events.any(axis=-1).all():
            raise NoEvents("dataset contains no uncensored observations")
        for name, values in zip(self.__slots__, (times, events, covariates)):
            values.setflags(write=False)
            setattr(self, name, values)

    def __getitem__(self, index) -> "SurvivalDataset":
        """Member ``index`` of a stack, or the sub-stack a boolean mask picks:
        read-only C-contiguous arrays, not checked again."""
        if self.times.ndim != 2:
            raise DimensionMismatch("only a stack of datasets is indexed")
        out = object.__new__(SurvivalDataset)
        for name in self.__slots__:
            values = getattr(self, name)[index]  # a mask's copy is writable
            values.setflags(write=False)
            setattr(out, name, values)
        return out

    @property
    def n(self) -> int:
        return self.times.shape[-1]

    @property
    def k(self) -> int:
        return self.covariates.shape[-1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SurvivalDataset(times {self.times.shape}, k={self.k})"


def _single(ds: SurvivalDataset) -> None:
    """DimensionMismatch unless ``ds`` holds one dataset."""
    if ds.times.ndim != 1:
        raise DimensionMismatch("need one dataset, not a stack of them")


@dataclass(frozen=True)
class TimeGrid:
    """Baseline-hazard grid 0 < s_1 < ... < s_{m-1} < t_final.

    ``cuts`` holds the interior boundaries; interval j (1-indexed) is
    (s_{j-1}, s_j] with s_0 = 0 and s_m = t_final.
    """

    cuts: tuple[float, ...]
    t_final: float

    def __post_init__(self):
        tf = float(_reals(self.t_final, "t_final", 0))
        cuts = tuple(_reals(self.cuts, "grid cuts", 1).tolist())
        if not math.isfinite(tf) or tf <= 0:
            raise DegenerateGrid("t_final must be finite and > 0")
        if not all(math.isfinite(b) and a < b for a, b in zip((0.0,) + cuts, cuts)):
            raise DegenerateGrid("cuts must be finite and strictly increasing")
        if cuts and cuts[-1] >= tf:
            raise DegenerateGrid("cuts must lie strictly below t_final")
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "t_final", tf)

    @property
    def m(self) -> int:
        """Number of intervals."""
        return len(self.cuts) + 1

    @property
    def boundaries(self) -> tuple[float, ...]:
        """Right endpoints s_1, ..., s_m."""
        return self.cuts + (self.t_final,)


# the default grid's cut probabilities, for a fit and a baseline study alike
DEFAULT_QUANTILES = (0.2, 0.4, 0.6, 0.8)


def grid_from_quantiles(
    ds: SurvivalDataset, probs: Sequence[float] = DEFAULT_QUANTILES, t_final: float | None = None
) -> TimeGrid:
    """Grid whose cuts are nearest-rank quantiles of one dataset's uncensored
    times: the p-quantile of n event times is the max(1, ceil(p n))-th smallest.

    ``t_final=None`` ends the grid at the largest observed time.  Duplicate
    quantiles are collapsed, and quantiles falling on 0 or at or beyond
    ``t_final`` are discarded; at least one usable cut must remain.
    """
    _single(ds)
    probs = _reals(probs, "quantile probabilities", 1).tolist()
    if not probs:
        raise DegenerateGrid("at least one quantile probability is required")
    if any(not 0.0 < p < 1.0 for p in probs):  # NaN included
        raise DegenerateGrid("quantile probabilities must lie in (0, 1)")
    if not all(a < b for a, b in zip(probs, probs[1:])):
        raise DegenerateGrid("quantile probabilities must be strictly increasing")
    t_final = float(np.max(ds.times) if t_final is None else _reals(t_final, "t_final", 0))
    if not t_final >= float(np.max(ds.times)):  # NaN included
        raise OutOfRange("t_final must cover every observed time")
    event_times = np.sort(ds.times[ds.events])
    if event_times.size == 0:
        raise NoEvents("no uncensored times to take quantiles of")
    n = event_times.size
    quantiles = event_times[[max(1, math.ceil(p * n)) - 1 for p in probs]].tolist()
    cuts = sorted({q for q in quantiles if 0.0 < q < t_final})
    if not cuts:
        raise DegenerateGrid("quantiles collapsed; no usable cut below t_final")
    return TimeGrid(tuple(cuts), t_final)


def inverse_cholesky(matrix: np.ndarray, what: str) -> np.ndarray:
    """L^-1 of each symmetric positive definite matrix L L' in a stack."""
    if not np.all(np.isfinite(matrix)):
        raise SingularCovariance(f"{what} has non-finite entries")
    try:
        return np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        raise SingularCovariance(f"{what} is not positive definite") from None


def _spd_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """L^-T L^-1 of each matrix L L' in a stack, if finite, else SingularCovariance."""
    factor_inv = inverse_cholesky(matrix, what)
    with np.errstate(over="ignore"):
        inverse = np.swapaxes(factor_inv, -1, -2) @ factor_inv
    if not np.all(np.isfinite(inverse)):
        raise SingularCovariance(f"{what} has no finite inverse")
    return inverse


@dataclass(frozen=True, eq=False)
class BetaPrior:
    """Gaussian prior for the regression coefficients: N(mu, cov).

    ``mu`` is a read-only (..., k) float array and ``cov`` a read-only
    (..., k, k) one of the same leading axes, each matrix symmetric positive
    definite: a stack of priors, accepted when each member would be alone.
    ``precision`` is the read-only inverse of ``cov``, and ``precision_mu``
    the read-only (..., k) product ``precision @ mu``, which must be finite.
    """

    mu: np.ndarray
    cov: np.ndarray
    precision: np.ndarray = field(init=False, repr=False)
    precision_mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu, cov = _reals(self.mu, "prior mean"), _reals(self.cov, "prior covariance")
        if mu.ndim == 0 or cov.shape != mu.shape + mu.shape[-1:]:
            raise DimensionMismatch("prior mean and covariance dimensions disagree")
        if mu.shape[-1] < 1:
            raise DimensionMismatch("the prior needs k >= 1 coefficients")
        _finite(mu, "prior mean", nonneg=False)
        precision = _spd_inverse(cov, "prior covariance")
        # each matrix over max(1, its largest |entry|), so no difference overflows
        scaled = cov / np.abs(cov).max(axis=(-2, -1), keepdims=True, initial=1.0)
        if not np.all(np.abs(scaled - np.swapaxes(scaled, -1, -2)) <= 1e-10):
            raise SingularCovariance("prior covariance must be symmetric")
        with np.errstate(over="ignore", invalid="ignore"):
            precision_mu = (precision @ mu[..., None])[..., 0]
        if not np.all(np.isfinite(precision_mu)):
            raise OutOfRange("prior mean times the prior precision overflows")
        for name, values in zip(("mu", "cov", "precision", "precision_mu"),
                                (mu, cov, precision, precision_mu)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def k(self) -> int:
        return self.mu.shape[-1]

    @classmethod
    def isotropic(cls, mu, omega, k: int | None = None) -> "BetaPrior":
        """Prior N(mu, omega * I), or a stack: ``mu`` of shape (..., 1 or k), or
        a scalar, is broadcast to (..., k) as numpy does, ``omega`` has shape
        (...), and ``k``, an integer >= 1, defaults to ``mu.shape[-1]``."""
        mu = _reals(mu, "prior mean")
        if mu.ndim == 0 and k is None:
            raise DimensionMismatch("k is required when mu is scalar")
        k = mu.shape[-1] if k is None else k
        if not (type(k) is int or isinstance(k, np.integer)) or k < 1:
            raise DimensionMismatch(f"k must be an integer >= 1, got {k!r}")
        if mu.shape[-1:] not in ((), (1,), (k,)):
            lengths = "1 entry" if k == 1 else f"1 or {k} entries"
            raise DimensionMismatch(f"prior mean has shape {mu.shape}, expected {lengths}")
        omega = _reals(omega, "prior variance")
        cov = np.where(np.eye(k, dtype=bool), omega[..., None, None], 0.0)
        return cls(np.broadcast_to(mu, mu.shape[:-1] + (k,)), cov)


@dataclass(frozen=True, eq=False)
class GammaProcessPrior:
    """Independent-increments gamma prior for the cumulative baseline hazard.

    The increment over interval j has shape c * alpha_j and rate adjusted by
    the interval's exposure.  ``increments`` is the read-only (m,) array of
    the alpha_j >= 0, one per grid interval; ``from_shape`` builds it from a
    shape function evaluated at the grid boundaries.  ``c`` is a read-only
    float array of shape () or (p,): a stack of p priors that share the
    alpha_j, accepted when each member would be alone.
    """

    increments: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        inc = _reals(self.increments, "prior increments", 1)
        c = _reals(self.c, "confidence parameter c")
        if inc.size == 0:
            raise DimensionMismatch("prior increments must form a non-empty 1-d array")
        if c.ndim > 1 or c.size == 0:
            raise DimensionMismatch("confidence parameter c must be a 0-d or non-empty 1-d array")
        _finite(inc, "prior increments alpha_j, the rises of a nondecreasing shape,")
        if (_finite(c, "confidence parameter c") == 0.0).any():
            raise NonNegativityViolation("confidence parameter c must be > 0")
        for name, values in (("increments", inc), ("c", c)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def m(self) -> int:
        return self.increments.size

    @classmethod
    def from_shape(cls, alpha_at_cuts, c) -> "GammaProcessPrior":
        """Prior whose alpha_j = alpha(s_j) - alpha(s_{j-1}), from the shape
        function alpha at the boundaries s_1..s_m, with alpha(0) = 0."""
        # inf - inf and overflow leave non-finite increments, rejected above
        with np.errstate(invalid="ignore", over="ignore"):
            return cls(np.diff(_reals(alpha_at_cuts, "prior shape", 1), prepend=0.0), c)


@dataclass(frozen=True, eq=False)
class BaselineMixtures:
    """Gamma-mixture posteriors of R increments under each of p priors, as arrays.

    ``intervals`` holds each row's interval number j, and ``rate``, ``mean``
    and ``variance`` are (p, R).  Row i's posterior under prior q mixes
    Gamma(shape_offsets[k], rate[q, i]) with weights exp(log_weights[k]) over
    k in ``[indptr[q * R + i], indptr[q * R + i + 1])`` of the flat arrays, a
    range left empty where the moments came by quadrature (an interval of
    more than baseline_posterior.EXACT_MAX_FACTORS events).  The arrays are
    frozen in place; two results are equal when all their arrays are.
    """

    intervals: np.ndarray
    rate: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    log_weights: np.ndarray
    shape_offsets: np.ndarray
    indptr: np.ndarray

    def __post_init__(self):
        for values in vars(self).values():
            values.setflags(write=False)

    def __eq__(self, other) -> bool:
        return type(other) is BaselineMixtures and all(
            np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values())
        )


@dataclass(frozen=True)
class FitResult:
    """Output of the full fit: coefficients, intervals, and the baseline
    posteriors under one prior, or None when the baseline was skipped."""

    beta_hat: tuple[float, ...]
    ly_beta: tuple[float, ...]
    sigma_hat: tuple[float, ...]
    hpd: tuple[tuple[float, float], ...]
    coverage: float
    baseline: BaselineMixtures | None = None

    def to_dict(self) -> dict:
        """Every field by name, shallowly, with ``baseline`` as one dict an
        interval (none when skipped); ``json.dumps`` writes tuples as lists."""
        # shallow, unlike dataclasses.asdict, which deep-copies every float
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        b, out["baseline"] = self.baseline, ()
        if b is not None:
            ends = b.indptr.tolist()
            out["baseline"] = tuple(
                {"interval": j, "log_weights": tuple(b.log_weights[start:end].tolist()),
                 "shape_offsets": tuple(b.shape_offsets[start:end].tolist()),
                 "rate": rate, "mean": mean, "variance": variance}
                for j, start, end, rate, mean, variance in zip(
                    b.intervals.tolist(), ends, ends[1:],
                    b.rate[0].tolist(), b.mean[0].tolist(), b.variance[0].tolist(),
                )
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FitResult":
        """Inverse of ``to_dict``; also reads its output parsed from JSON."""
        out = _tuples(data)
        posts, out["baseline"] = out["baseline"], None
        if posts:
            column = {key: [p[key] for p in posts] for key in posts[0]}
            lengths = [len(mixture) for mixture in column["log_weights"]]
            if lengths != [len(mixture) for mixture in column["shape_offsets"]]:
                raise DimensionMismatch("each interval needs one shape offset a log weight")
            out["baseline"] = BaselineMixtures(
                np.array(column["interval"]),
                *np.array([[column[key]] for key in ("rate", "mean", "variance")], dtype=float),
                *(np.array([x for mixture in column[key] for x in mixture], dtype=float)
                  for key in ("log_weights", "shape_offsets")),
                np.cumsum([0] + lengths),
            )
        return cls(**out)


def _tuples(value):
    """value with every list in it, at any depth, turned into a tuple."""
    if isinstance(value, dict):
        return {name: _tuples(item) for name, item in value.items()}
    return tuple(map(_tuples, value)) if isinstance(value, list) else value
