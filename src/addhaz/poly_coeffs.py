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
so the sentinels change no coefficient's bits.  Each log b_i reaches
``np.add`` through one reused 0-d array: a Python float operand would be
converted anew on every call, which costs about as much as the add itself.

The offsets may be any 1-d array-like of reals, copied once as float64 by
``data_model._reals``; what numpy cannot read so (ragged rows, text, a
generator) raises DimensionMismatch.  By ``data_model._finite``, NaN and +-inf
then raise OutOfRange, and only then does a negative offset raise NonNegativityViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import _finite, _reals
from .errors import DimensionMismatch, OutOfRange

__all__ = ["PolyCoefficients", "poly_from_factors"]


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
    # two buffers [d_-1, d_0, ..., d_N] from [-inf, 0, -inf, ...]: d_-1 = 0 is
    # never written, and the -inf tail holds the degrees not reached yet.
    # Each factor writes logaddexp(d_{k-1}, d_k + log b) for every k into the
    # other buffer, and the two swap.  logaddexp(x, -inf) is x and
    # logaddexp(-inf, -inf) is -inf exactly, so the sentinels keep every bit
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
    return PolyCoefficients(cur[1])
