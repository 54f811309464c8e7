"""Log-domain coefficients of products prod_i (a + b_i).

Likelihood factors over one grid interval multiply into a polynomial in the
local baseline level a:

    prod_{i=1}^{N} (a + b_i) = sum_{k=0}^{N} d_k a^k,   b_i = beta'z_i >= 0.

Coefficients grow combinatorially, so they are held as log values.  With
nonnegative b_i every coefficient is nonnegative, so a zero coefficient is
simply -inf and multiplying in one more factor only needs log-add-exp:

    d_0   <- d_0 * b
    d_k   <- d_{k-1} + d_k * b     (1 <= k <= N)
    d_{N+1} <- 1                   (leading coefficient)
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
    # in-place recursion: after deg factors, buf[:deg + 1] holds log d_0..d_deg
    buf = np.zeros(b.size + 1)
    for deg, offset in enumerate(b.tolist()):
        # math.log, not np.log: the vectorized log may differ in the last ulp
        log_b = math.log(offset) if offset > 0.0 else -math.inf
        buf[deg + 1] = buf[deg]
        # shifted copy contributes d_{k-1}; scaled copy contributes d_k * b
        buf[1 : deg + 1] = np.logaddexp(buf[:deg], buf[1 : deg + 1] + log_b)
        buf[0] += log_b
    return PolyCoefficients(buf)
