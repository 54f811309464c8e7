"""Recursion coefficients checked against exact rational convolution.

The oracle expands prod_i (a + b_i) by schoolbook convolution in Fraction
arithmetic (floats are dyadic rationals, so the expansion is exact), fully
independent of the recursion under test on either of its paths.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addhaz import poly_coeffs
from addhaz.errors import DimensionMismatch, NonNegativityViolation, OutOfRange
from addhaz.poly_coeffs import PolyCoefficients, poly_from_factors

from oracles import poly_by_slices, poly_eval_log


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


def test_recursion_matches_exact_convolution_at_study_sizes():
    # 60 to 120 factors, as a baseline study's intervals hold, some of them
    # zero: the buffers' -inf tail and leading sentinel stay exact there too
    rng = np.random.default_rng(20261019)
    for n in (60, 87, 113, 120):
        offsets = rng.exponential(1.0, size=n)
        offsets[rng.choice(n, size=n // 10, replace=False)] = 0.0
        poly = poly_from_factors(offsets)
        want = np.array([float(c) for c in exact_coefficients(offsets)])
        zeros = want == 0.0
        assert zeros.sum() == n // 10 and np.all(poly.log_abs[zeros] == -math.inf)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(poly.log_abs, np.log(want), rtol=1e-12, atol=1e-12)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # mostly small polynomials, a few of up to 1000 factors
    n=st.one_of(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 1000)),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_two_buffer_recursion_keeps_the_sliced_recursions_bits(seed, n, zero_share):
    # offsets log-uniform over [1e-300, 1e300], about zero_share of them 0; the
    # log path itself on every row, also the rows the range guard would admit
    # to the linear path, which is held to exact products instead
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    got = poly_coeffs._log_domain(offsets)
    assert got.tobytes() == poly_by_slices(offsets).log_abs.tobytes()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 120),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    log_span=st.sampled_from([1.0, 10.0, 690.0]),
)
def test_kernel_hands_over_what_the_public_constructor_builds(seed, n, zero_share, log_span):
    # the kernel's coefficients skip the constructor's copy and check; their
    # leading zeros are one per zero offset, which the increment kernel
    # counts from the offsets, and every other one is finite; both paths of
    # the guard
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(-log_span, log_span, size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    got = poly_from_factors(offsets)
    want = PolyCoefficients(got.log_abs)
    assert got.log_abs.tobytes() == want.log_abs.tobytes()
    dead = np.count_nonzero(offsets == 0.0)
    assert np.all(got.log_abs[:dead] == -math.inf) and np.all(np.isfinite(got.log_abs[dead:]))
    assert not got.log_abs.flags.writeable


def _log_exact(offsets):
    """log of each exact coefficient, -inf for a zero one; each is scaled
    by an exact power of 2 into [1/2, 2] first, so none under- or overflows."""
    logs = []
    for c in exact_coefficients(offsets):
        e = c.numerator.bit_length() - c.denominator.bit_length()
        logs.append(math.log(c / Fraction(2) ** e) + e * math.log(2.0) if c else -math.inf)
    return np.array(logs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 120),
    zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_linear_path_matches_exact_convolution(seed, n, zero_share):
    # offsets log-uniform over [1e-6, 1e2], about zero_share of them 0
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(math.log(1e-6), math.log(1e2), size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    # R + N log 2 about their median stays below 700: the linear path
    logs = np.log(offsets[offsets > 0.0])
    if logs.size:
        assert np.abs(logs - np.median(logs)).sum() + n * math.log(2.0) < 690.0
    got, want = poly_from_factors(offsets).log_abs, _log_exact(offsets)
    assert np.array_equal(got == -math.inf, want == -math.inf)
    live = want > -math.inf
    np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=1e-12)


def test_rows_either_side_of_the_range_guard():
    # logs +-t in 20 pairs and one 0, so the median and the mean are both 0,
    # and R + N log 2 = 40 t + 41 log 2 is 700 -+ 1e-6
    rng = np.random.default_rng(5)
    signs = np.concatenate(([0.0], np.ones(20), -np.ones(20)))
    for gap, path in ((1e-6, "linear"), (-1e-6, "log")):
        t = (700.0 - gap - 41 * math.log(2.0)) / 40
        offsets = rng.permutation(np.exp(signs * t))
        with mock.patch.object(poly_coeffs, "_log_domain", wraps=poly_coeffs._log_domain) as log_path:
            got = poly_from_factors(offsets)
        assert log_path.call_count == (path == "log")
        if path == "log":
            assert got.log_abs.tobytes() == poly_by_slices(offsets).log_abs.tobytes()
        else:
            np.testing.assert_allclose(got.log_abs, _log_exact(offsets), rtol=1e-12, atol=1e-12)


def test_one_positive_offset_keeps_the_log_paths_bits():
    # lambda is that offset, so it scales to exactly 1 on the linear path
    for offset in (1e-300, 3.7e-5, 1.0, 2.5, 1e300):
        for zeros in range(4):
            offsets = [0.0] * zeros + [offset] + [0.0] * (3 - zeros)
            got, want = poly_from_factors(offsets), poly_by_slices(offsets)
            assert got.log_abs.tobytes() == want.log_abs.tobytes()


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


def test_non_finite_log_coefficients_rejected():
    # NaN and +inf are no coefficient; -inf is a zero one.  A NaN in front
    # once passed for a zero coefficient, and increment_posterior returned
    # the posterior of the polynomial a with no error
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfRange):
            PolyCoefficients(np.array([bad, 0.0]))
        with pytest.raises(OutOfRange):
            PolyCoefficients(np.array([0.0, 1.0, bad]))
    assert PolyCoefficients(np.array([-math.inf, 0.0])).degree == 1


def test_offsets_of_any_real_array_like_give_the_same_bits():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 0.0, 2.0, 6.0]
    want = poly_from_factors(np.array(values)).log_abs.tobytes()
    held = np.array(values)
    view = held[:]
    view.setflags(write=False)
    for offsets in (values, tuple(values), held, np.array(values, dtype=np.int64), view):
        assert poly_from_factors(offsets).log_abs.tobytes() == want
    # the caller's array is read, never written or frozen
    assert held.tolist() == values and held.flags.writeable


def test_coefficients_leave_the_callers_array_writable():
    log_abs = np.array([0.0, -1.0])
    held = PolyCoefficients(log_abs).log_abs
    with pytest.raises(ValueError):
        held[0] = 1.0
    log_abs[0] = 5.0
    assert held[0] == 0.0
