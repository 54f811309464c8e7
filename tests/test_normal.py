"""The normal-law functions of ``addhaz._normal`` against mpmath.

Each function is checked on hypothesis-drawn points of its stated domain,
at a stated tolerance; the oracle is mpmath at 50 digits.  Quantiles are
found by bracketed root search of mpmath's cdf, with no start taken from
the implementation.  A last test holds that an element's bits do not
depend on the batch it is evaluated in.
"""

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from addhaz._normal import erfcx, log_ndtr, ndtr, ndtri_exp

DPS = 50
# Phi(x) is subnormal below about -37.5, where only absolute error is kept
SUBNORMAL_ATOL = 1e-322


def magnitudes(lo_exp, hi_exp):
    """Floats spread evenly in log10 between 10^lo_exp and 10^hi_exp."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def assert_close(got, want, rtol, atol=0.0):
    got, want = float(got), float(want)
    assert abs(got - want) <= rtol * abs(want) + atol, (got, want)


def erfcx_oracle(x):
    x = mp.mpf(x)
    if x > 1e20:  # mpmath's erfc overflows far out; the next term is 1 / (2 x^2)
        return 1 / (x * mp.sqrt(mp.pi))
    return mp.exp(x * x) * mp.erfc(x)


def lower_quantile_oracle(log_p):
    """y <= 0 with log Phi(y) = log_p, for log_p <= log(1/2).

    Phi(-t) <= exp(-t^2 / 2) / 2, so at t = sqrt(-2 log_p) the cdf is below
    p, while Phi(0) = 1/2 >= p: the root is bracketed.
    """
    if log_p == mp.log(0.5):
        return mp.mpf(0)
    lo = -mp.sqrt(-2 * log_p)
    return mp.findroot(lambda y: mp.log(mp.ncdf(y)) - log_p, (lo, mp.mpf(0)), solver="anderson")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=st.floats(-26.0, 30.0) | magnitudes(-300, 300) | magnitudes(-300, np.log10(26.0)).map(
    lambda v: -v
))
def test_erfcx_matches_mpmath(x):
    # measured worst 8.9e-16 on both sides of 0
    with mp.workdps(DPS):
        assert_close(erfcx(x), erfcx_oracle(x), rtol=2e-15)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(x=st.floats(-1e3, 38.0) | magnitudes(-300, np.log10(38.0)) | magnitudes(-300, 3).map(
    lambda v: -v
))
def test_ndtr_and_log_ndtr_match_mpmath(x):
    # measured worst 8.9e-16 (ndtr) and 1.3e-15 (log_ndtr) on normal results
    with mp.workdps(DPS):
        cdf = mp.ncdf(x)
        log_cdf = mp.log1p(-mp.ncdf(-x)) if x > 0 else mp.log(cdf)
        assert_close(ndtr(x), cdf, rtol=2e-15, atol=SUBNORMAL_ATOL)
        assert_close(log_ndtr(x), log_cdf, rtol=2e-15, atol=SUBNORMAL_ATOL)


# A quantile near the median is known only to its absolute error: p has a
# spacing of 1.1e-16 there and dy/dp = sqrt(2 pi), so 1e-15 is about four
# spacings of p.  Elsewhere the error is relative; measured worst 1.5e-15,
# and 5e-16 absolute at the median.
QUANTILE_RTOL = 2e-15
QUANTILE_ATOL = 1e-15


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    log_p=st.floats(-1e6, 0.0, exclude_max=True)
    | magnitudes(-300, 6).map(lambda v: -v)
    | st.floats(-0.75, -0.65)
)
def test_ndtri_exp_matches_mpmath(log_p):
    with mp.workdps(DPS):
        log_p_mp = mp.mpf(log_p)
        if log_p_mp <= mp.log(0.5):
            want = lower_quantile_oracle(log_p_mp)
        else:
            want = -lower_quantile_oracle(mp.log(-mp.expm1(log_p_mp)))
        assert_close(ndtri_exp(log_p), want, rtol=QUANTILE_RTOL, atol=QUANTILE_ATOL)


def test_quantiles_at_the_ends_of_their_domains():
    assert ndtri_exp(-np.inf) == -np.inf and ndtri_exp(0.0) == np.inf
    # log_p near -1.8e308: -2 log_p overflows, the quantile does not
    assert_close(ndtri_exp(-1.7e308), -np.sqrt(2.0) * np.sqrt(1.7e308), rtol=1e-15)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3000))
def test_each_elements_bits_do_not_depend_on_the_batch(seed, size):
    # the HPD of one coefficient must not change with the other coefficients
    # or replicates it is computed with, so neither may these functions
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, size)
    log_p = -(10.0 ** rng.uniform(-5.0, 5.0, size))
    cut = int(rng.integers(0, size))
    for f, v in ((erfcx, x / 3.0), (ndtr, x), (log_ndtr, x), (ndtri_exp, log_p)):
        whole = f(v)
        np.testing.assert_array_equal(np.concatenate([f(v[:cut]), f(v[cut:])]), whole)
        np.testing.assert_array_equal(f(v[::-1])[::-1], whole)
        np.testing.assert_array_equal(f(v[cut]), whole[cut])
