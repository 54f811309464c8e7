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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp

from .data_model import BetaPrior
from .errors import DimensionMismatch, InvalidCoverage, SingularCovariance
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


@dataclass(frozen=True)
class HpdInterval:
    """Shortest intervals of given coverage for the truncated marginals, (..., k)."""

    lower: np.ndarray
    upper: np.ndarray
    coverage: float


def _spd_inverse(matrix: np.ndarray, what: str) -> np.ndarray:
    """Inverse of each symmetric positive definite matrix in a stack."""
    if not np.all(np.isfinite(matrix)):
        raise SingularCovariance(f"{what} has non-finite entries")
    try:
        factor_inv = np.linalg.inv(np.linalg.cholesky(matrix))
    except np.linalg.LinAlgError:
        raise SingularCovariance(f"{what} is not positive definite") from None
    return np.swapaxes(factor_inv, -1, -2) @ factor_inv


def pseudo_posterior(estimate: LYEstimate, prior: BetaPrior) -> PseudoPosterior:
    """Precision-weighted combination of the estimate and the prior.

    ``estimate.m`` may be (k,) or a batch (r, k) with ``estimate.d`` of
    shape (r, k, k); the result carries the same leading axis.
    """
    m = np.asarray(estimate.m, dtype=float)
    d = np.asarray(estimate.d, dtype=float)
    k = m.shape[-1]
    if prior.k != k:
        raise DimensionMismatch(f"prior dimension {prior.k} does not match estimate dimension {k}")
    d_inv = _spd_inverse(d, "sandwich covariance")
    c_inv = _spd_inverse(prior.cov, "prior covariance")
    cov = _spd_inverse(d_inv + c_inv, "posterior precision")
    cov = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    rhs = d_inv @ m[..., None] + (c_inv @ prior.mu)[:, None]
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
    # maximizing the density is minimizing ||R beta - R mean||^2 over beta >= 0
    # with R'R = cov^-1, which R = L^-1 satisfies for cov = L L'
    r = np.linalg.inv(np.linalg.cholesky(pp.cov))
    solution, _ = nnls(r, r @ pp.mean)
    return solution


def _hpd_bulk(mean, sd, coverage: float):
    """Closed-form HPD of N(mean, sd^2) truncated to [0, inf), elementwise.

    With a = mean / sd it is [mean - r, mean + r], r = -sd ndtri((1 - coverage
    Phi(a)) / 2), if that lower end is positive, else [0, sd x] where
    Phi(a - x) = (1 - coverage) Phi(a).  The ndtri_exp start for x cancels as
    a -> -inf, so it is clipped to a bracket of the root and polished by two
    Newton steps on g(x) = log Phi(a - x) - log((1 - coverage) Phi(a)), which
    is concave and decreasing.  Inputs must be valid; returns arrays of at
    least one dimension.
    """
    mean, sd = np.atleast_1d(mean, sd)
    a = mean / sd
    r = -sd * ndtri((1.0 - coverage * ndtr(a)) / 2.0)
    lower, upper = mean - r, mean + r
    pinned = lower <= 0.0
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
    if not (0.0 < coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {coverage!r}")
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
    if not (0.0 < interval.coverage < 1.0):
        raise InvalidCoverage(f"coverage must lie in (0, 1), got {interval.coverage!r}")
    z = ndtri(0.5 + interval.coverage / 2.0)
    return (interval.upper - interval.lower) / (2.0 * z)


def significance_flag(interval: HpdInterval) -> np.ndarray:
    """True where the interval excludes zero (lower endpoint > 0)."""
    return interval.lower > 0.0
