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

from addhaz import baseline_posterior, poly_coeffs
from addhaz.data_model import GammaProcessPrior
from addhaz.errors import NonNegativityViolation, OutOfRange
from addhaz.poly_coeffs import poly_from_factors

from oracles import one_interval, poly_by_slices, poly_eval_log


def from_list(offsets):
    """The polynomial of a list of offsets, as the float array the kernel hands over."""
    return poly_from_factors(np.array(offsets, dtype=float))


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
    poly = from_list([])
    assert poly.degree == 0
    assert poly.log_abs[0] == 0.0
    assert np.exp(poly.log_abs)[0] == 1.0
    assert poly_eval_log(poly, 3.7) == 0.0


def test_single_factor_is_monomial():
    poly = from_list([2.5])
    np.testing.assert_allclose(np.exp(poly.log_abs), [2.5, 1.0])


def test_two_factor_hand_expansion():
    # (a+1)(a+2) = a^2 + 3a + 2
    poly = from_list([1.0, 2.0])
    np.testing.assert_allclose(np.exp(poly.log_abs), [2.0, 3.0, 1.0])


def test_zero_offset_shifts_coefficients():
    # multiplying by (a + 0) turns P(a) into a*P(a)
    poly = from_list([1.0, 2.0, 0.0])
    assert poly.log_abs[0] == -math.inf
    np.testing.assert_allclose(np.exp(poly.log_abs), [0.0, 2.0, 3.0, 1.0])


def test_all_zero_offsets_leave_pure_power():
    poly = from_list([0.0, 0.0, 0.0])
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
def test_polynomial_has_one_leading_zero_per_zero_offset(seed, n, zero_share, log_span):
    # the increment kernel counts a row's leading zero coefficients from its
    # offsets and keeps the rest as finite: one -inf per zero offset, and
    # every other coefficient finite, on both paths of the guard; the
    # offsets are read, never written
    rng = np.random.default_rng(seed)
    offsets = np.exp(rng.uniform(-log_span, log_span, size=n))
    offsets[rng.random(n) < zero_share] = 0.0
    held = offsets.copy()
    got = poly_from_factors(offsets)
    dead = np.count_nonzero(offsets == 0.0)
    assert np.all(got.log_abs[:dead] == -math.inf) and np.all(np.isfinite(got.log_abs[dead:]))
    assert offsets.tobytes() == held.tobytes()


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
            got, want = from_list(offsets), poly_by_slices(offsets)
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
    poly = from_list([1.0, 2.0])
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
        assert from_list([1.5] * i).degree == i


def test_negative_or_infinite_offset_rejected():
    # every offset is checked by the increment kernel before any polynomial
    # is built, wherever it sits in the row
    prior = GammaProcessPrior([1.0], 1.0)
    for bad, error in (
        (-0.5, NonNegativityViolation), (math.inf, OutOfRange), (math.nan, OutOfRange)
    ):
        with mock.patch.object(baseline_posterior, "poly_from_factors") as built:
            with pytest.raises(error):
                one_interval(1, 2.0, 1.0, [bad], prior)
            with pytest.raises(error):
                one_interval(1, 2.0, 1.0, [1.0, 2.0, bad], prior)
        assert built.call_count == 0
    with pytest.raises(ValueError):
        poly_eval_log(from_list([]), -1.0)
