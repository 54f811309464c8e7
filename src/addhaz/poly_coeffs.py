"""Log-domain coefficients of products prod_i (a + b_i).

Likelihood factors over one grid interval multiply into a polynomial in the
local baseline level a:

    prod_{i=1}^{N} (a + b_i) = sum_{k=0}^{N} d_k a^k,   b_i = beta'z_i >= 0.

Coefficients grow combinatorially, so they are held as log values.  With
nonnegative b_i every coefficient is nonnegative, so a zero coefficient is
simply -inf and multiplying in one more factor only needs log-add-exp:

    d_k <- d_{k-1} + d_k * b     (0 <= k <= deg + 1; d_-1 = d_{deg+1} = 0)

where deg is the number of factors multiplied in so far.

``poly_from_factors`` keeps two buffers of length N + 2 laid out as
[d_-1, d_0, ..., d_N].  The leading -inf stands for d_-1 = 0, and the
-inf tail for the degrees not reached yet, so one whole-length pass per
factor writes every new coefficient into the other buffer with no
slicing, and the two buffers swap.  log-add-exp is exact against -inf,
so the sentinels change no coefficient's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NonNegativityViolation, OutOfRange

__all__ = ["PolyCoefficients", "poly_from_factors"]


@dataclass(frozen=True)
class PolyCoefficients:
    """Coefficients d_0..d_degree as log d_k (-inf for a zero coefficient)."""

    log_abs: np.ndarray

    def __post_init__(self):
        log_abs = np.array(self.log_abs, dtype=float)  # a copy, frozen below
        if log_abs.ndim != 1 or log_abs.size == 0:
            raise DimensionMismatch("log_abs must be a non-empty 1-d array")
        log_abs.setflags(write=False)
        object.__setattr__(self, "log_abs", log_abs)

    @property
    def degree(self) -> int:
        return self.log_abs.size - 1


def check_offsets(b: np.ndarray) -> np.ndarray:
    """b itself, once it is known to be a 1-d array of finite offsets >= 0."""
    if b.ndim != 1:
        raise DimensionMismatch("factor offsets must be a 1-d sequence")
    if np.any(b < 0.0):
        raise NonNegativityViolation("factor offsets must be >= 0")
    if not np.all(np.isfinite(b)):
        raise OutOfRange("factor offsets must be finite")
    return b


def poly_from_factors(offsets: Iterable[float]) -> PolyCoefficients:
    """Multiply out prod_i (a + b_i); every offset b_i must be finite and >= 0."""
    b = check_offsets(np.fromiter(offsets, dtype=float))
    # two buffers [d_-1, d_0, ..., d_N] from [-inf, 0, -inf, ...]: d_-1 = 0 is
    # never written, and the -inf tail holds the degrees not reached yet.
    # Each factor writes logaddexp(d_{k-1}, d_k + log b) for every k into the
    # other buffer, and the two swap.  logaddexp(x, -inf) is x and
    # logaddexp(-inf, -inf) is -inf exactly, so the sentinels keep every bit
    src, dst = np.full((2, b.size + 2), -math.inf)
    src[1] = 0.0
    scaled = np.empty(b.size + 1)
    cur, nxt = (src[:-1], src[1:]), (dst[:-1], dst[1:])
    for offset in b.tolist():
        # math.log, not np.log: the vectorized log may differ in the last ulp
        log_b = math.log(offset) if offset > 0.0 else -math.inf
        np.add(cur[1], log_b, out=scaled)
        np.logaddexp(cur[0], scaled, out=nxt[1])
        cur, nxt = nxt, cur
    return PolyCoefficients(cur[1])
