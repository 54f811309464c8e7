"""Recursion coefficients checked against exact rational convolution.

The oracle expands prod_i (a + b_i) by schoolbook convolution in Fraction
arithmetic (floats are dyadic rationals, so the expansion is exact), fully
independent of the log-domain recursion under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from addhaz.errors import DimensionMismatch, NonNegativityViolation, OutOfRange
from addhaz.poly_coeffs import PolyCoefficients, poly_from_factors

from oracles import poly_eval_log


def exact_coefficients(offsets):
    """Exact d_0..d_N of prod (a + b) via Fraction convolution."""
    coeffs = [Fraction(1)]
    for b in offsets:
        fb = Fraction(b)
        shifted = [Fraction(0)] + coeffs
        scaled = [c * fb for c in coeffs] + [Fraction(0)]
        coeffs = [s + t for s, t in zip(shifted, scaled)]
    return coeffs


def test_empty_product_is_constant_one():
    poly = poly_from_factors([])
    assert poly.degree == 0
    assert poly.log_abs[0] == 0.0
    assert np.exp(poly.log_abs)[0] == 1.0
    assert poly_eval_log(poly, 3.7) == 0.0


def test_single_factor_is_monomial():
    poly = poly_from_factors([2.5])
    np.testing.assert_allclose(np.exp(poly.log_abs), [2.5, 1.0])


def test_two_factor_hand_expansion():
    # (a+1)(a+2) = a^2 + 3a + 2
    poly = poly_from_factors([1.0, 2.0])
    np.testing.assert_allclose(np.exp(poly.log_abs), [2.0, 3.0, 1.0])


def test_zero_offset_shifts_coefficients():
    # multiplying by (a + 0) turns P(a) into a*P(a)
    poly = poly_from_factors([1.0, 2.0, 0.0])
    assert poly.log_abs[0] == -math.inf
    np.testing.assert_allclose(np.exp(poly.log_abs), [0.0, 2.0, 3.0, 1.0])


def test_all_zero_offsets_leave_pure_power():
    poly = poly_from_factors([0.0, 0.0, 0.0])
    np.testing.assert_allclose(np.exp(poly.log_abs), [0.0, 0.0, 0.0, 1.0])
    assert poly_eval_log(poly, 0.0) == -math.inf
    assert poly_eval_log(poly, 2.0) == pytest.approx(3 * math.log(2.0))


def test_leading_coefficient_always_one():
    rng = np.random.default_rng(7)
    poly = poly_from_factors(rng.uniform(0.0, 5.0, size=40))
    assert poly.log_abs[-1] == 0.0


def test_recursion_matches_exact_convolution():
    # 100 random factor sets of <= 12 factors, 1e-10 relative agreement
    rng = np.random.default_rng(20260819)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        offsets = rng.uniform(0.0, 5.0, size=n)
        if rng.random() < 0.3:
            offsets[rng.integers(0, n)] = 0.0
        poly = poly_from_factors(offsets)
        exact = exact_coefficients(offsets)
        assert poly.degree == n
        got = np.exp(poly.log_abs)
        want = np.array([float(c) for c in exact])
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_eval_log_matches_factored_form_200_factors():
    # the coefficients overflow doubles long before 200 factors, but the
    # log-domain evaluation must still agree with sum_i log(a + b_i)
    rng = np.random.default_rng(99)
    offsets = rng.uniform(0.0, 5.0, size=200)
    poly = poly_from_factors(offsets)
    for a in (0.3, 0.7, 1.0, 4.2):
        direct = float(np.sum(np.log(a + offsets)))
        assert poly_eval_log(poly, a) == pytest.approx(direct, rel=1e-12)


def test_eval_constant_term_at_zero():
    poly = poly_from_factors([1.0, 2.0])
    assert poly_eval_log(poly, 0.0) == pytest.approx(math.log(2.0))
    assert poly_eval_log(poly, 1.0) == pytest.approx(math.log(6.0))


def test_insertion_order_irrelevant():
    rng = np.random.default_rng(11)
    offsets = rng.uniform(0.0, 5.0, size=12)
    forward = poly_from_factors(offsets)
    backward = poly_from_factors(offsets[::-1])
    np.testing.assert_allclose(
        forward.log_abs[:-1], backward.log_abs[:-1], rtol=1e-12
    )


def test_degree_counts_multiplications():
    for i in range(18):
        assert poly_from_factors([1.5] * i).degree == i


def test_negative_or_infinite_offset_rejected():
    # every offset is checked, wherever it sits in the sequence
    for bad, error in (
        (-0.5, NonNegativityViolation), (math.inf, OutOfRange), (math.nan, OutOfRange)
    ):
        with pytest.raises(error):
            poly_from_factors([bad])
        with pytest.raises(error):
            poly_from_factors([1.0, 2.0, bad])
    with pytest.raises(ValueError):
        poly_eval_log(poly_from_factors([]), -1.0)


def test_coefficient_container_is_immutable():
    poly = poly_from_factors([1.0])
    with pytest.raises((ValueError, RuntimeError)):
        poly.log_abs[0] = 0.0
    with pytest.raises(DimensionMismatch):
        PolyCoefficients(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        PolyCoefficients(np.zeros(0))


def test_coefficients_leave_the_callers_array_writable():
    log_abs = np.array([0.0, -1.0])
    held = PolyCoefficients(log_abs).log_abs
    with pytest.raises(ValueError):
        held[0] = 1.0
    log_abs[0] = 5.0
    assert held[0] == 0.0
