"""Coefficients of products prod_i (a + b_i), held as log values.

Likelihood factors over one grid interval multiply into a polynomial in the
local baseline level a:

    prod_{i=1}^{N} (a + b_i) = sum_{k=0}^{N} d_k a^k,   b_i = beta'z_i >= 0,

built one factor at a time by d_k <- d_{k-1} + d_k * b.  Every term is a
product of nonnegative numbers, so nothing cancels.  ``poly_from_factors``
returns log d_k (-inf for a zero coefficient) by one of two paths.

Linear path.  With lambda the median positive offset and R = sum_i
|log(b_i / lambda)| over the positive ones, each partial coefficient of the
factors (a + b_i / lambda) is 0 or in [e^-R, 2^N e^R].  When R + N log 2 <= 700
none can overflow or go subnormal, so the scaled factors, cut into about
sqrt(N) blocks, are multiplied out in plain floats on all blocks at once, the
blocks are joined by ``np.convolve``, and log d_k = log d'_k + (N - k) log
lambda.  The zeros that pad the blocks are factors a, as a zero offset is, so
they only shift the coefficients, and that shift is dropped.  Each d'_k has
relative error at most gamma_{2N+1} (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, ch. 3), plus one rounding per offset from the
division.  The median minimizes R, and as a data value it scales one offset
to exactly 1, so a row with one positive offset keeps the log path's bits.

Log path.  Any other row may hold coefficients beyond the range of a double.
It runs the recursion on log values with ``np.logaddexp``, one whole-length
pass per factor between two buffers (see ``_log_domain``).

The offsets may be any 1-d array-like of reals, copied once as float64 by
``data_model._reals``; what numpy cannot read so (ragged rows, text, a
generator) raises DimensionMismatch.  By ``data_model._finite``, NaN and +-inf
then raise OutOfRange, and only then does a negative offset raise NonNegativityViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .data_model import _finite, _reals
from .errors import DimensionMismatch, OutOfRange

__all__ = ["PolyCoefficients", "poly_from_factors"]

_LINEAR_RANGE = 700.0  # on R + N log 2; the normal doubles span (e^-708.4, e^709.8)


@dataclass(frozen=True)
class PolyCoefficients:
    """Coefficients d_0..d_degree as log d_k (-inf for a zero coefficient)."""

    log_abs: np.ndarray

    def __post_init__(self):
        log_abs = _reals(self.log_abs, "log_abs", 1)  # a copy, frozen below
        if log_abs.size == 0:
            raise DimensionMismatch("log_abs must be a non-empty 1-d array")
        if not np.maximum.reduce(log_abs) < math.inf:  # NaN included; -inf is a zero
            raise OutOfRange("log coefficients must be below +inf")
        log_abs.setflags(write=False)
        object.__setattr__(self, "log_abs", log_abs)

    @property
    def degree(self) -> int:
        return self.log_abs.size - 1

    @cached_property
    def live(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(dead, log_d, k): the count of leading zero coefficients, the log
        coefficients after them, and k = 0, 1, ... as read-only floats;
        worked out on first use and kept for every later one."""
        dead = int((self.log_abs > -math.inf).argmax())
        k = np.arange(self.log_abs.size - dead, dtype=float)
        k.setflags(write=False)
        return dead, self.log_abs[dead:], k


def check_offsets(offsets) -> np.ndarray:
    """The offsets as a new 1-d float64 array, checked finite and >= 0."""
    return _finite(_reals(offsets, "factor offsets", 1), "factor offsets")


def poly_from_factors(offsets) -> PolyCoefficients:
    """Multiply out prod_i (a + b_i) over a 1-d array-like of offsets b_i,
    each finite and >= 0."""
    b = check_offsets(offsets)
    n, positive = b.size, b[b > 0.0]
    # sorted(), not np.partition, whose first call adds about 0.3 MB of RSS
    scale = sorted(positive.tolist())[(positive.size - 1) // 2] if positive.size else 1.0
    log_scale = math.log(scale)
    spread = np.add.reduce(np.abs(np.log(positive) - log_scale))
    if spread + n * math.log(2.0) > _LINEAR_RANGE:
        return PolyCoefficients(_log_domain(b))
    # step j multiplies factor j * blocks + i into block i; the padding is 0
    blocks = max(1, round(math.sqrt(n)))
    width = -(-n // blocks)
    steps = np.zeros(blocks * width)
    np.divide(b, scale, steps[:n])
    # two buffers laid out as in _log_domain, [d_-1, d_0, ..., d_width] down
    # each column, one column a block, so each step is two contiguous passes
    src, dst = np.zeros((2, width + 2, blocks))
    src[1] = 1.0
    scaled = np.empty((width + 1, blocks))
    cur, nxt = (src[:-1], src[1:]), (dst[:-1], dst[1:])
    for step in steps.reshape(width, blocks):
        np.multiply(cur[1], step, scaled)
        np.add(cur[0], scaled, nxt[1])
        cur, nxt = nxt, cur
    d = reduce(np.convolve, cur[1].T)  # the blocks' polynomials, joined
    with np.errstate(divide="ignore"):  # a zero coefficient's log is -inf
        log_d = np.log(d[blocks * width - n :])
    return PolyCoefficients(log_d + np.arange(n, -1.0, -1.0) * log_scale)


def _log_domain(b: np.ndarray) -> np.ndarray:
    """log d_0..d_N for checked offsets b, by the log-add-exp recursion."""
    # two buffers [d_-1, d_0, ..., d_N] from [-inf, 0, -inf, ...]: d_-1 = 0 is
    # never written, and the -inf tail holds the degrees not reached yet.
    # Each factor writes logaddexp(d_{k-1}, d_k + log b) for every k into the
    # other buffer, and the two swap.  logaddexp(x, -inf) is x and
    # logaddexp(-inf, -inf) is -inf exactly, so the sentinels keep every bit.
    # Each log b reaches np.add through one reused 0-d array: a Python float
    # operand would be converted anew on every call
    src, dst = np.full((2, b.size + 2), -math.inf)
    src[1] = 0.0
    scaled = np.empty(b.size + 1)
    log_b = np.empty(())
    cur, nxt = (src[:-1], src[1:]), (dst[:-1], dst[1:])
    add, logaddexp, log = np.add, np.logaddexp, math.log  # one lookup, not one a factor
    for offset in b.tolist():
        # math.log, not np.log: the vectorized log may differ in the last ulp
        log_b[()] = log(offset) if offset > 0.0 else -math.inf
        add(cur[1], log_b, scaled)
        logaddexp(cur[0], scaled, nxt[1])
        cur, nxt = nxt, cur
    return cur[1]
