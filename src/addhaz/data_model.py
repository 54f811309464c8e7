"""Core value types: datasets, time grids, priors, and fit results.

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
    "BaselineIncrementPosterior",
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
    """Immutable collection of observations, stored as numpy arrays.

    Attributes
    ----------
    times : (n,) float array of follow-up times, all finite and >= 0.
    events : (n,) bool array, True where the time is an observed event.
    covariates : (n, k) float array, entries >= 0 unless the dataset was
        built with ``allow_signed=True`` (used for pre-transformed data
        whose analysis stays on the flat-prior path).
    """

    __slots__ = ("times", "events", "covariates")

    def __init__(self, times, events, covariates, *, allow_signed=False):
        # copies, so freezing them leaves the caller's arrays writable; C order,
        # because sums over the rows depend on the memory layout in the last bits
        times = _reals(times, "times", 1)
        events = _reals(events, "event flags", 1, dtype=None)  # no float copy
        covariates = _reals(covariates, "covariates", 2)
        n = times.shape[0]
        if events.shape != (n,) or covariates.shape[0] != n:
            raise DimensionMismatch(
                "times, events and covariates must agree on the number of rows"
            )
        if n == 0:
            raise NoEvents("empty dataset")
        if covariates.shape[1] < 1:
            raise DimensionMismatch("at least one covariate column is required")
        _finite(times, "follow-up times")
        _finite(covariates, "covariates (signed ones need allow_signed)", nonneg=not allow_signed)
        if events.dtype != bool and not np.all((events == 0) | (events == 1)):
            raise OutOfRange("event flags must be bools, or numbers equal to 0 or 1")
        events = events.astype(bool, copy=False)
        if not np.any(events):
            raise NoEvents("dataset contains no uncensored observations")
        for name, values in zip(self.__slots__, (times, events, covariates)):
            values.setflags(write=False)
            setattr(self, name, values)

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(np.count_nonzero(self.events))

    def __repr__(self) -> str:  # pragma: no cover
        return f"SurvivalDataset(n={self.n}, k={self.k}, events={self.n_events})"


def _row_blocks(ds: SurvivalDataset, size: int) -> list[SurvivalDataset]:
    """``ds`` cut into datasets of ``size`` rows, read-only C-contiguous views
    of its arrays, not checked again: the caller makes sure each has an event."""
    blocks = []
    for start in range(0, ds.n, size):
        blocks.append(object.__new__(SurvivalDataset))
        for name in SurvivalDataset.__slots__:
            setattr(blocks[-1], name, getattr(ds, name)[start : start + size])
    return blocks


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

    def widths(self) -> np.ndarray:
        b = np.asarray((0.0,) + self.boundaries)
        return np.diff(b)


# the default grid's cut probabilities, for a fit and a baseline study alike
DEFAULT_QUANTILES = (0.2, 0.4, 0.6, 0.8)


def grid_from_quantiles(
    ds: SurvivalDataset, probs: Sequence[float] = DEFAULT_QUANTILES, t_final: float | None = None
) -> TimeGrid:
    """Grid whose cuts are nearest-rank quantiles of the uncensored times:
    the p-quantile of n event times is the max(1, ceil(p n))-th smallest.

    ``t_final=None`` ends the grid at the largest observed time.  Duplicate
    quantiles are collapsed, and quantiles falling on 0 or at or beyond
    ``t_final`` are discarded; at least one usable cut must remain.
    """
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
    shape function evaluated at the grid boundaries.
    """

    increments: np.ndarray
    c: float

    def __post_init__(self):
        inc = _reals(self.increments, "prior increments", 1)
        if inc.size == 0:
            raise DimensionMismatch("prior increments must form a non-empty 1-d array")
        _finite(inc, "prior increments alpha_j, the rises of a nondecreasing shape,")
        c = float(_finite(_reals(self.c, "confidence parameter c", 0), "confidence parameter c"))
        if c == 0.0:
            raise NonNegativityViolation("confidence parameter c must be > 0")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.increments.size

    @classmethod
    def from_shape(cls, alpha_at_cuts, c: float) -> "GammaProcessPrior":
        """Prior whose alpha_j = alpha(s_j) - alpha(s_{j-1}), from the shape
        function alpha at the boundaries s_1..s_m, with alpha(0) = 0."""
        # inf - inf and overflow leave non-finite increments, rejected above
        with np.errstate(invalid="ignore", over="ignore"):
            return cls(np.diff(_reals(alpha_at_cuts, "prior shape", 1), prepend=0.0), c)


@dataclass(frozen=True)
class BaselineIncrementPosterior:
    """Gamma-mixture posterior of one cumulative-hazard increment.

    The posterior of the increment over interval j is a finite mixture whose
    component k is Gamma(shape_offsets[k], rate) with normalized mixing
    weights exp(log_weights).  Empty log_weights and shape_offsets mean the
    mixture was not built: the interval had more events than
    baseline_posterior.EXACT_MAX_FACTORS, and mean and variance come from
    quadrature of the same posterior density.
    """

    interval: int
    log_weights: tuple[float, ...]
    shape_offsets: tuple[float, ...]
    rate: float
    mean: float
    variance: float


@dataclass(frozen=True)
class FitResult:
    """Output of the full fit: coefficients, intervals, baseline posteriors."""

    beta_hat: tuple[float, ...]
    ly_beta: tuple[float, ...]
    sigma_hat: tuple[float, ...]
    hpd: tuple[tuple[float, float], ...]
    coverage: float
    baseline: tuple[BaselineIncrementPosterior, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """Every field by name, shallowly; ``json.dumps`` writes tuples as lists."""
        out = _fields_dict(self)
        out["baseline"] = tuple(_fields_dict(p) for p in self.baseline)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FitResult":
        """Inverse of ``to_dict``; also reads its output parsed from JSON."""
        out = _tuples(data)
        out["baseline"] = tuple(BaselineIncrementPosterior(**p) for p in out["baseline"])
        return cls(**out)


def _fields_dict(obj) -> dict:
    # shallow, unlike dataclasses.asdict, which deep-copies every float
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _tuples(value):
    """value with every list in it, at any depth, turned into a tuple."""
    if isinstance(value, dict):
        return {name: _tuples(item) for name, item in value.items()}
    return tuple(map(_tuples, value)) if isinstance(value, list) else value
