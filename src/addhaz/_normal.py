"""Normal-law functions on one scaled complementary error function.

``erfcx(x) = exp(x^2) erfc(x)`` is Weideman's rational series for the
Faddeeva function on the imaginary axis, w(iy) = erfcx(y) (J. A. C.
Weideman, "Computation of the complex error function", SIAM J. Numer.
Anal. 31(5), 1994): with L = (N / sqrt 2)^(1/2) and Z = (L - y) / (L + y),

    erfcx(y) = 2 p(Z) / (L + y)^2 + 1 / (sqrt(pi) (L + y)),   y >= 0,

where p is a polynomial of degree N - 1 whose coefficients are a discrete
cosine transform of exp(-t^2) (L^2 + t^2) on t = L tan(theta / 2).  For
y < 0, erfcx(y) = 2 exp(y^2) - erfcx(-y).  The normal cdf, its log and its
inverse all come from this one kernel; the inverse solves log Phi(y) =
target in the lower tail, so no tail probability is ever formed.  Every
function is elementwise: an element's bits do not depend on the batch it
comes in.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erfcx", "ndtr", "log_ndtr", "ndtri_exp"]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_SQRT_HALF = math.sqrt(0.5)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_LOG_HALF = math.log(0.5)


def _series(n: int) -> tuple[float, tuple[float, ...]]:
    """L and p's coefficients, highest degree first, for n terms.

    Weideman's 4n-point FFT of a real function that is even in theta and
    vanishes at theta = -pi, written as the cosine sum it reduces to.
    """
    length = math.sqrt(n / math.sqrt(2.0))
    m = 2 * n
    k = np.arange(1, m)
    t = length * np.tan(k * math.pi / (2 * m))
    f = np.exp(-t * t) * (length * length + t * t)
    j = np.arange(1, n + 1)
    a = (length * length + 2.0 * np.cos(np.outer(j, k) * (math.pi / m)) @ f) / (2 * m)
    return length, tuple(a[::-1].tolist())


# 40 terms reach rounding (relative error under 1e-15 against mpmath);
# 16 terms reach about 1e-7, enough for a first root-finding step
_FULL = _series(40)
_ROUGH = _series(16)


def _erfcx_nonneg(y: np.ndarray, series=_FULL) -> np.ndarray:
    """erfcx(y) for finite y >= 0, by Weideman's series."""
    length, coeffs = series
    d = y + length
    z = length - y
    z /= d
    # elementwise Horner: a matrix product would let BLAS round an element
    # differently with the batch around it
    p = z * coeffs[0]
    p += coeffs[1]
    for c in coeffs[2:]:
        p *= z
        p += c
    # (2 p / d + 1 / sqrt(pi)) / d, in place
    p /= d
    p *= 2.0
    p += _INV_SQRT_PI
    p /= d
    return p


def _floats(x) -> np.ndarray:
    """x as a C-contiguous float array.  numpy's vectorized exp and log
    round some elements of a strided array differently from the same
    elements of a contiguous one, and a result must not depend on layout."""
    return np.asarray(x, dtype=float, order="C")


def _exp_square(x: np.ndarray, scale: float) -> np.ndarray:
    """exp(scale x^2) for scale a power of 2.  x^2 is split exactly into a
    head and a tail, so its rounding is not magnified by the exponential."""
    x = np.clip(x, -1e150, 1e150)  # keeps the split finite; exp saturates
    head = x * x
    hi = x * 134217729.0  # Veltkamp split at 2^27 + 1: hi has 26 bits
    hi -= hi - x
    lo = x - hi
    tail = (hi * hi - head) + lo * (hi + hi + lo)  # x^2 - head
    with np.errstate(over="ignore"):
        return np.exp(scale * head) * (1.0 + scale * tail)


def erfcx(x) -> np.ndarray:
    """exp(x^2) erfc(x) for finite x; inf below about -26.6."""
    return _erfcx(_floats(x), _FULL)


def _erfcx(x: np.ndarray, series) -> np.ndarray:
    """erfcx(x) for any sign of x, by the given series."""
    x = np.asarray(x)  # 0-d arrays, not numpy scalars, take the masks below
    e = np.asarray(_erfcx_nonneg(np.abs(x), series))
    neg = x < 0
    if neg.any():
        e[neg] = 2.0 * _exp_square(x[neg], 1.0) - e[neg]
    return e


def ndtr(x) -> np.ndarray:
    """Standard normal cdf Phi(x) for finite x."""
    x = _floats(x)
    # Phi(-|x|) = erfcx(|x| / sqrt 2) exp(-x^2 / 2) / 2
    tail = 0.5 * _erfcx_nonneg(np.abs(x) * _SQRT_HALF) * _exp_square(x, -0.5)
    return np.where(x < 0, tail, 1.0 - tail)


def log_ndtr(x) -> np.ndarray:
    """log Phi(x) for finite x, finite down to x of about -1.9e154."""
    x = _floats(x)
    z = np.abs(x) * _SQRT_HALF
    e = _erfcx_nonneg(z)
    with np.errstate(over="ignore"):
        return np.where(
            x < 0, np.log(0.5 * e) - z * z, np.log1p(-0.5 * e * _exp_square(x, -0.5))
        )


def _lower_root(target: np.ndarray) -> np.ndarray:
    """y with log Phi(y) = target, for target <= log(1/2); -inf gives -inf.

    The start is Abramowitz & Stegun 26.2.23 with t = sqrt(-2 target), so
    no tail probability is formed; its error is below 4.5e-4.  Two Halley
    steps on f(y) = log Phi(y) - target follow.  One erfcx pass gives both
    log Phi(y) and the Mills ratio m = Phi(y) / phi(y), with f' = 1 / m and
    f'' = -(y m + 1) / m^2.  In the tail f is nearly quadratic, so Halley's
    error constant is about 1 / (4 y^2) there and the steps reach full
    precision at any depth.  The first step only has to bring the error
    near 1e-7, so it uses the 16-term series.
    """
    t = np.sqrt(-target) * math.sqrt(2.0)  # -2 target overflows below -9e307
    ts = np.minimum(t, 1e100)  # beyond it the correction is below rounding
    y = (2.515517 + ts * (0.802853 + ts * 0.010328)) / (
        1.0 + ts * (1.432788 + ts * (0.189269 + ts * 0.001308))
    )
    y -= t
    shifted = target - _LOG_HALF
    for series in (_ROUGH, _FULL):
        z = y * -_SQRT_HALF
        e = _erfcx(z, series)
        f = np.log(e) - z * z - shifted  # log Phi(y) = log(e / 2) - z^2
        mills = e * _SQRT_HALF_PI
        y = y - f * mills / (1.0 + 0.5 * f * (y * mills + 1.0))
    return np.where(target == -np.inf, -np.inf, y)


def ndtri_exp(log_p) -> np.ndarray:
    """y with log Phi(y) = log_p, for log_p <= 0."""
    log_p = _floats(log_p)
    upper = log_p > _LOG_HALF
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # above the median, Phi(-y) = 1 - p = -expm1(log_p)
        y = _lower_root(np.where(upper, np.log(-np.expm1(log_p)), log_p))
    return np.where(upper, -y, y)
