"""Hybrid pseudo-posterior for the regression coefficients.

The estimating-equation solution m with sandwich covariance d is combined
with a Gaussian prior N(mu, C) exactly as if m were a Gaussian likelihood
summary, giving the pseudo-posterior

    N( (d^-1 + C^-1)^-1 (d^-1 m + C^-1 mu),  (d^-1 + C^-1)^-1 )

restricted to the nonnegative orthant.  Point estimates, per-component
highest-density intervals on [0, inf), a symmetric-width standard deviation
proxy, and a positivity flag are derived from it.  Each function also takes
a batch: m of shape (r, k) with d of shape (r, k, k) gives r posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from ._normal import erfcx, log_ndtr, ndtr, ndtri_exp

from .data_model import BetaPrior, _reals, _spd_inverse, inverse_cholesky
from .errors import AddhazError, DimensionMismatch, InvalidCoverage, SingularCovariance
from .lin_ying import LYEstimate

__all__ = [
    "PseudoPosterior",
    "HpdInterval",
    "pseudo_posterior",
    "beta_mode",
    "hpd_interval",
    "sigma_hat",
    "significance_flag",
]

_FLOAT = np.finfo(float)


@dataclass(frozen=True)
class PseudoPosterior:
    """Gaussian pseudo-posterior truncated to beta >= 0; mean (..., k), cov (..., k, k)."""

    mean: np.ndarray
    cov: np.ndarray


def _coverage(coverage) -> float:
    """``coverage`` as a float in (0, 1), else InvalidCoverage."""
    coverage = float(_reals(coverage, "coverage", 0))
    if not (0.0 < coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {coverage!r}")
    return coverage


@dataclass(frozen=True)
class HpdInterval:
    """Shortest intervals of given coverage in (0, 1) for the truncated marginals, (..., k)."""

    lower: np.ndarray
    upper: np.ndarray
    coverage: float

    def __post_init__(self):
        lower, upper = _reals(self.lower, "lower ends"), _reals(self.upper, "upper ends")
        if lower.shape != upper.shape:  # read as one array, ragged rows
            raise DimensionMismatch("interval ends must be a rectangular array of real numbers")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "coverage", _coverage(self.coverage))


def pseudo_posterior(estimate: LYEstimate, prior: BetaPrior) -> PseudoPosterior:
    """Precision-weighted combination of the estimate and the prior.

    ``estimate.m`` may be (k,) or a batch (r, k) with ``estimate.d`` of
    shape (r, k, k), and the prior may be a stack: a (p, 1, k) prior gives
    (p, r, k) means, each prior's with the bits of its own call.
    """
    m, d = _reals(estimate.m, "estimate m"), _reals(estimate.d, "sandwich covariance")
    if m.shape[-1:] != (prior.k,):  # a 0-d m too
        raise DimensionMismatch(f"prior dimension {prior.k} does not match estimate {m.shape}")
    d_inv = _spd_inverse(d, "sandwich covariance")
    cov = _spd_inverse(d_inv + prior.precision, "posterior precision")
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    rhs = d_inv @ m[..., None] + prior.precision_mu[..., None]
    mean = (cov @ rhs)[..., 0]
    return PseudoPosterior(mean=mean, cov=cov)


def beta_mode(pp: PseudoPosterior, *, orthant_qp: bool = False) -> np.ndarray:
    """Mode of the truncated pseudo-posterior.

    The default clamps each component of the Gaussian mean at zero.  With
    ``orthant_qp=True`` (one posterior, not a batch) the mode is instead the
    exact constrained maximizer of the Gaussian density over the orthant,
    which differs from the clamp when components are correlated and some are
    negative.
    """
    if not orthant_qp:
        return np.maximum(pp.mean, 0.0)
    # scipy, an optional extra, is imported here on first use: no other
    # path of the package needs it, and it is the costliest import in reach
    try:
        from scipy.optimize import nnls
    except ImportError:
        raise AddhazError("orthant_qp needs scipy: pip install addhaz[qp]") from None

    # maximizing the density is minimizing ||R beta - R mean||^2 over beta >= 0
    # with R'R = cov^-1, which R = L^-1 satisfies for cov = L L'
    r = inverse_cholesky(pp.cov, "posterior covariance")
    solution, _ = nnls(r, r @ pp.mean)
    return solution


# elements per pass of the HPD, so that each temporary stays at 32 KiB.
# On a 49000-element study one pass measured about 15% slower, with 5 MB
# more peak RSS and about 2700 page faults against 400: the allocator
# hands larger temporaries back to the system and faults them in again
_HPD_CHUNK = 4096


def _hpd_bulk(mean, sd, coverage: float):
    """HPD endpoints of every element, in passes of ``_HPD_CHUNK``; the
    passes are elementwise, so an element's bits do not depend on them.
    Inputs must be valid and of one shape; returns arrays of at least one
    dimension.
    """
    mean, sd = np.atleast_1d(mean, sd)
    lower, upper = np.empty(mean.shape), np.empty(mean.shape)
    m, s, lo, up = (v.reshape(-1) for v in (mean, sd, lower, upper))
    for start in range(0, m.size, _HPD_CHUNK):
        part = slice(start, start + _HPD_CHUNK)
        lo[part], up[part] = _hpd_pass(m[part], s[part], coverage)
    return lower, upper


def _erfinv_series(terms: int) -> tuple[float, ...]:
    """Coefficients of sqrt(2) erfinv(p) / (sqrt(pi / 2) p) in powers of p^2,
    highest degree first: erfinv's c_k / (2k + 1) (pi / 4)^k, with c_0 = 1
    and c_k = sum_m c_m c_{k-1-m} / ((m + 1)(2m + 1))."""
    c = [1.0]
    for k in range(1, terms):
        c.append(sum(c[m] * c[k - 1 - m] / ((m + 1) * (2 * m + 1)) for m in range(k)))
    return tuple(ck / (2 * k + 1) * (math.pi / 4) ** k for k, ck in enumerate(c))[::-1]


# 14 terms reach rounding (3.3e-16 against mpmath) below p = 0.3
_CENTRAL_SERIES = _erfinv_series(14)


def _central_quantile(p, q):
    """z with P(|Z| <= z) = p for a standard normal Z, elementwise, given p
    and its complement q = 1 - p, each computed without cancellation.

    From p = 0.3 up this is the tail quantile -Phi^-1(q / 2), within 1.8e-15
    of mpmath.  Below it, q has lost p's low digits, and the Maclaurin
    series of sqrt(2) erfinv(p) takes over, down to the smallest normal p.
    """
    p = np.asarray(p, dtype=float)
    w = p * p
    series = np.zeros_like(w)
    for coef in _CENTRAL_SERIES:
        series = series * w + coef
    return np.where(p < 0.3, math.sqrt(math.pi / 2.0) * p * series, -ndtri_exp(np.log(q / 2.0)))


def _hpd_pass(mean, sd, coverage: float):
    """Closed-form HPD of N(mean, sd^2) truncated to [0, inf), elementwise.

    With a = mean / sd it is [mean - r, mean + r], r = sd z with P(|Z| <= z)
    = coverage Phi(a), if that lower end is positive, else [0, sd x] where
    Phi(a - x) = (1 - coverage) Phi(a).  The ndtri_exp start for x cancels as
    a -> -inf, so it is clipped to a bracket of the root and polished by two
    Newton steps on g(x) = log Phi(a - x) - log((1 - coverage) Phi(a)), which
    is concave and decreasing.  Takes and returns 1-d arrays.
    """
    a = mean / sd
    # coverage Phi(a) and its complement, with the tail Phi(-a) kept whole as
    # a grows; where a < 0, so that 1 - tail cancels, the lower end is < 0
    tail = ndtr(-a)
    r = sd * _central_quantile(coverage * (1.0 - tail), 1.0 - coverage + coverage * tail)
    lower, upper = mean - r, mean + r
    pinned = lower <= 0.0
    if not pinned.any():
        return lower, upper
    a = a[pinned]
    log_tail = np.log1p(-coverage)
    # g(x) <= a x - x^2 / 2 - log_tail for x >= 0, so its positive root bounds x
    x_hi = -log_tail / (np.hypot(a / 2.0, np.sqrt(-log_tail / 2.0)) - a / 2.0)
    x = np.clip(a - ndtri_exp(log_tail + log_ndtr(a)), 0.0, x_hi)
    scale_at_zero = erfcx(-a / np.sqrt(2.0))
    for _ in range(2):  # Phi(y) = erfcx(-y / sqrt 2) exp(-y^2 / 2) / 2
        scale = erfcx((x - a) / np.sqrt(2.0))
        g = np.log(scale / scale_at_zero) + a * x - x * x / 2.0 - log_tail
        x = x + g * scale / np.sqrt(2.0 / np.pi)  # g'(x) = -sqrt(2/pi) / scale
    lower[pinned] = 0.0
    upper[pinned] = sd[pinned] * x
    return lower, upper


def hpd_interval(pp: PseudoPosterior, coverage: float) -> HpdInterval:
    """Highest-density interval of every truncated-normal marginal.

    Each component's Gaussian marginal is truncated to [0, inf); either its
    interval starts at 0, or the density is equal at both endpoints.  The
    bounds have the shape of ``pp.mean``.  Every marginal variance must be a
    finite normal float and every mean / sd finite.
    """
    coverage = _coverage(coverage)
    var = np.diagonal(pp.cov, axis1=-2, axis2=-1)
    if not np.all((var >= _FLOAT.tiny) & (var <= _FLOAT.max)):
        raise SingularCovariance("marginal variance must be a normal float (sd in ~[1.5e-154, 1.3e154])")
    sd = np.sqrt(var)
    if not np.all(np.abs(pp.mean) / _FLOAT.max < sd):
        raise SingularCovariance("marginal mean must be finite with |mean| / sd finite")
    lower, upper = _hpd_bulk(pp.mean, sd, coverage)
    return HpdInterval(lower=lower, upper=upper, coverage=coverage)


def sigma_hat(interval: HpdInterval) -> np.ndarray:
    """Standard deviation recovered from the interval width as if symmetric.

    For coverage 1 - alpha this is (upper - lower) / (2 z_{1-alpha/2}); it
    equals the true sd when the interval did not hit the truncation bound.
    """
    z = _central_quantile(interval.coverage, 1.0 - interval.coverage)
    return (interval.upper - interval.lower) / (2.0 * z)


def significance_flag(interval: HpdInterval) -> np.ndarray:
    """True where the interval excludes zero (lower endpoint > 0)."""
    return interval.lower > 0.0
