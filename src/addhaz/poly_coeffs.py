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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

_LINEAR_RANGE = 700.0  # on R + N log 2; the normal doubles span (e^-708.4, e^709.8)


@dataclass(frozen=True)
class PolyCoefficients:
    """Coefficients d_0..d_degree as log d_k (-inf for a zero coefficient)."""

    log_abs: np.ndarray

    @property
    def degree(self) -> int:
        return self.log_abs.size - 1


def poly_from_factors(b: np.ndarray) -> PolyCoefficients:
    """Multiply out prod_i (a + b_i) over a 1-d float array of offsets b_i,
    each finite and >= 0, as the increment kernel has checked them."""
    n, positive = b.size, b[b > 0.0]
    zeros = n - positive.size  # the leading zero coefficients, one per zero offset
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
    log_d = np.full(n + 1, -math.inf)  # the guard keeps the others positive and normal
    powers = np.arange(n - zeros, -1.0, -1.0)
    log_d[zeros:] = np.log(d[blocks * width - n + zeros :]) + powers * log_scale
    return PolyCoefficients(log_d)


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
