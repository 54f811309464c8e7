"""Posterior combination, mode, and HPD intervals against oracles.

The HPD oracle is a coarse-to-fine grid search over candidate intervals of
the truncated normal marginal: among all intervals holding the requested
mass, it returns the shortest, refined down to 1e-5 endpoint steps.  A
second oracle solves the HPD mass equations in mpmath by bracketed root
search, for 1e-12 checks far into the tails.  The combination formula is
cross-checked by numerically maximizing the exact log-density with scipy.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.stats import norm

from addhaz.data_model import BetaPrior, SurvivalDataset
from addhaz.errors import DimensionMismatch, InvalidCoverage, SingularCovariance
from addhaz.hybrid_beta import (
    HpdInterval,
    PseudoPosterior,
    beta_mode,
    hpd_interval,
    pseudo_posterior,
    sigma_hat,
    significance_flag,
)
from addhaz.lin_ying import LYEstimate, compute_statistics, ly_solve


def hpd_grid_oracle(mean, sd, coverage, step=1e-5):
    """Shortest interval of the N(mean, sd) law truncated to [0, inf)."""
    total = norm.sf(0.0, loc=mean, scale=sd)

    def mass(lo, hi):
        return (norm.cdf(hi, mean, sd) - norm.cdf(lo, mean, sd)) / total

    def shortest(lo_grid, target):
        best = (np.inf, None, None)
        for lo in lo_grid:
            hi = norm.ppf(norm.cdf(lo, mean, sd) + target * total, mean, sd)
            if not np.isfinite(hi):
                continue
            if hi - lo < best[0]:
                best = (hi - lo, lo, hi)
        return best

    # coarse pass over lower endpoints, then refine around the winner
    width = sd * 10
    lo_grid = np.arange(max(0.0, mean - width), max(mean, 0.0) + sd, sd / 50)
    lo_grid = np.concatenate(([0.0], lo_grid))
    _, lo, hi = shortest(lo_grid, coverage)
    spacing = sd / 50
    while spacing > step:
        spacing /= 20
        lo_grid = np.arange(max(0.0, lo - 25 * spacing), lo + 25 * spacing, spacing)
        lo_grid = np.concatenate(([0.0], lo_grid))
        _, lo, hi = shortest(lo_grid, coverage)
    return lo, hi


def hpd_mpmath_oracle(mean, sd, coverage):
    """HPD endpoints of N(mean, sd^2) on [0, inf) by bracketed root search.

    With a = mean / sd and P = Phi(a), the symmetric interval mean +- sd rho
    solves 2 Phi(rho) - 1 = coverage P; when mean - sd rho <= 0 the interval
    is [0, sd x] with log Phi(a - x) = log((1 - coverage) P) instead.
    Precision grows with |a| so that a - x keeps the digits of x.
    """
    mean, sd, coverage = mp.mpf(mean), mp.mpf(sd), mp.mpf(coverage)
    a = mean / sd
    with mp.workdps(40 + 2 * int(mp.log10(1 + abs(a)))):
        p = mp.ncdf(a)

        def root(f, hi):
            while f(hi) * f(0) > 0:
                hi *= 2
            return mp.findroot(f, (mp.mpf(0), hi), solver="anderson")

        rho = root(lambda r: 2 * mp.ncdf(r) - 1 - coverage * p, mp.mpf(1))
        if a - rho > 0:
            return float(mean - sd * rho), float(mean + sd * rho)
        log_target = mp.log(1 - coverage) + mp.log(p)
        x = root(lambda x: mp.log(mp.ncdf(a - x)) - log_target, 1 / (1 + abs(a)))
        return 0.0, float(sd * x)


def scalar_estimate(m, d):
    return LYEstimate(m=np.atleast_1d(float(m)), d=np.atleast_2d(float(d)))


def test_equal_precision_average():
    pp = pseudo_posterior(scalar_estimate(1.0, 1.0), BetaPrior.isotropic(0.0, 1.0, 1))
    np.testing.assert_allclose(pp.mean, [0.5])
    np.testing.assert_allclose(pp.cov, [[0.5]])


def test_diagonal_combination_and_density_maximum():
    est = LYEstimate(m=np.array([1.0, 2.0]), d=np.diag([1.0, 4.0]))
    prior = BetaPrior(mu=(0.0, 0.0), cov=((1.0, 0.0), (0.0, 1.0)))
    pp = pseudo_posterior(est, prior)
    np.testing.assert_allclose(pp.mean, [0.5, 0.4])
    np.testing.assert_allclose(pp.cov, np.diag([0.5, 0.8]))

    # the mean must maximize the exact combined log-density
    d_inv = np.linalg.inv(est.d)
    c_inv = np.linalg.inv(np.asarray(prior.cov))

    def neg_log_density(b):
        quad = (b - est.m) @ d_inv @ (b - est.m)
        quad += (b - np.asarray(prior.mu)) @ c_inv @ (b - np.asarray(prior.mu))
        return 0.5 * quad

    res = optimize.minimize(neg_log_density, x0=np.array([1.0, 1.0]), tol=1e-12)
    np.testing.assert_allclose(res.x, pp.mean, atol=1e-6)


def test_flat_prior_limit_recovers_estimate():
    pp = pseudo_posterior(
        scalar_estimate(0.7, 0.02), BetaPrior.isotropic(0.0, 1e12, 1)
    )
    np.testing.assert_allclose(pp.mean, [0.7], rtol=1e-9)
    np.testing.assert_allclose(pp.cov, [[0.02]], rtol=1e-9)


def test_flat_prior_mode_matches_positive_solutions():
    # random data-driven check: with omega = 1e6 the mode tracks the
    # unpenalized solution to 1e-6 whenever that solution is positive
    rng = np.random.default_rng(20260819)
    checked = 0
    while checked < 50:
        n = 200
        z = rng.uniform(0.0, 3.0, size=(n, 2))
        times = rng.uniform(0.1, 5.0, size=n)
        events = rng.random(n) < 0.8
        if not events.any():
            continue
        est = ly_solve(compute_statistics(SurvivalDataset(times, events, z)))
        if np.any(est.m <= 0):
            continue
        mode = beta_mode(pseudo_posterior(est, BetaPrior.isotropic(1.0, 1e6, 2)))
        np.testing.assert_allclose(mode, est.m, atol=1e-6)
        checked += 1


def test_tight_prior_mode_goes_to_prior_mean():
    est = scalar_estimate(0.7, 0.02)
    mode = beta_mode(pseudo_posterior(est, BetaPrior.isotropic(3.0, 1e-10, 1)))
    np.testing.assert_allclose(mode, [3.0], rtol=1e-6)
    mode = beta_mode(pseudo_posterior(est, BetaPrior.isotropic(0.0, 1e-10, 1)))
    np.testing.assert_allclose(mode, [0.0], atol=1e-8)


def test_mode_clamps_negative_components():
    pp_mean = np.array([0.5, -0.2])
    est = LYEstimate(m=pp_mean, d=np.eye(2))
    # a flat prior passes the unconstrained mean through to the posterior
    pp = pseudo_posterior(est, BetaPrior.isotropic(0.0, 1e12, 2))
    np.testing.assert_allclose(pp.mean, pp_mean, atol=1e-9)
    np.testing.assert_allclose(beta_mode(pp), [0.5, 0.0], atol=1e-9)


def test_qp_mode_equals_clamp_in_interior():
    est = LYEstimate(m=np.array([0.8, 0.3]), d=np.array([[0.1, 0.02], [0.02, 0.2]]))
    pp = pseudo_posterior(est, BetaPrior.isotropic(0.5, 2.0, 2))
    np.testing.assert_allclose(
        beta_mode(pp), beta_mode(pp, orthant_qp=True), atol=1e-10
    )


def test_qp_mode_beats_clamp_when_correlated():
    # strong correlation: clamping one coordinate should shift the other,
    # so the constrained maximizer differs from naive clamping
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    est = LYEstimate(m=np.array([-0.5, 0.6]), d=cov)
    pp = pseudo_posterior(est, BetaPrior.isotropic(0.0, 1e12, 2))
    clamp = beta_mode(pp)
    qp = beta_mode(pp, orthant_qp=True)
    assert not np.allclose(clamp, qp)

    precision = np.linalg.inv(pp.cov)

    def quad(b):
        return 0.5 * (b - pp.mean) @ precision @ (b - pp.mean)

    assert quad(qp) < quad(clamp) - 1e-12
    assert np.all(qp >= 0)
    # the QP answer must match scipy's box-constrained minimizer
    res = optimize.minimize(
        quad, x0=np.maximum(pp.mean, 0), bounds=[(0, None)] * 2, tol=1e-14
    )
    np.testing.assert_allclose(qp, res.x, atol=1e-7)


def test_hpd_half_normal_case():
    est = scalar_estimate(0.0, 1.0)
    pp = pseudo_posterior(est, BetaPrior.isotropic(0.0, 1e12, 1))
    iv = hpd_interval(pp, 0.95)
    assert iv.lower[0] == 0.0
    assert iv.upper[0] == pytest.approx(1.959964, abs=1e-5)


def test_hpd_symmetric_case_far_from_zero():
    est = scalar_estimate(10.0, 1.0)
    pp = pseudo_posterior(est, BetaPrior.isotropic(10.0, 1e12, 1))
    iv = hpd_interval(pp, 0.95)
    assert iv.lower[0] == pytest.approx(8.0400, abs=1e-4)
    assert iv.upper[0] == pytest.approx(11.9600, abs=1e-4)
    assert sigma_hat(iv)[0] == pytest.approx(1.0, abs=1e-4)


def test_hpd_interval_holds_requested_mass():
    rng = np.random.default_rng(17)
    for _ in range(25):
        mean = rng.uniform(-2.0, 4.0)
        sd = rng.uniform(0.05, 2.0)
        coverage = rng.uniform(0.5, 0.99)
        est = scalar_estimate(mean, sd**2)
        pp = pseudo_posterior(est, BetaPrior.isotropic(mean, 1e12, 1))
        iv = hpd_interval(pp, coverage)
        lower, upper = iv.lower[0], iv.upper[0]
        total = norm.sf(0.0, loc=pp.mean[0], scale=sd)
        mass = (
            norm.cdf(upper, pp.mean[0], sd) - norm.cdf(lower, pp.mean[0], sd)
        ) / total
        assert mass == pytest.approx(coverage, abs=1e-8)
        assert lower >= 0.0
        assert upper > lower


def test_hpd_matches_grid_search_oracle():
    rng = np.random.default_rng(20260819)
    for _ in range(40):
        mean = rng.uniform(-1.5, 3.0)
        sd = rng.uniform(0.1, 1.5)
        coverage = rng.uniform(0.55, 0.99)
        est = scalar_estimate(mean, sd**2)
        pp = pseudo_posterior(est, BetaPrior.isotropic(mean, 1e12, 1))
        iv = hpd_interval(pp, coverage)
        lo, hi = hpd_grid_oracle(pp.mean[0], sd, coverage)
        assert iv.lower[0] == pytest.approx(lo, abs=1e-4)
        assert iv.upper[0] == pytest.approx(hi, abs=1e-4)


def test_hpd_width_shrinks_with_coverage():
    est = scalar_estimate(1.0, 0.25)
    pp = pseudo_posterior(est, BetaPrior.isotropic(1.0, 1e12, 1))
    widths = [
        hpd_interval(pp, c).upper[0] - hpd_interval(pp, c).lower[0]
        for c in (0.99, 0.9, 0.5, 0.1, 1e-4)
    ]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    # vanishing coverage degenerates to the mode: width ~ 2*sd*z_(1+c)/2
    assert widths[-1] < 2e-4


def test_sigma_hat_arithmetic():
    assert sigma_hat(HpdInterval(0.0, 1.96, 0.95)) == pytest.approx(0.5, abs=1e-4)
    assert sigma_hat(HpdInterval(1.0, 1.0, 0.95)) == 0.0


EXTREME_COVERAGES = [1e-300, 1e-17, 1e-12, 1e-8, 1e-4, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53]


def central_z_mpmath(p):
    """z with P(|Z| <= z) = p, at 60 digits."""
    with mp.workdps(60):
        return mp.sqrt(2) * mp.erfinv(p)


@pytest.mark.parametrize("coverage", EXTREME_COVERAGES)
def test_sigma_hat_at_extreme_coverage(coverage):
    # an interval of width 2 z, for the coverage's quantile z, has sd 1
    z = central_z_mpmath(mp.mpf(coverage))
    got = sigma_hat(HpdInterval(np.array([-float(z)]), np.array([float(z)]), coverage))[0]
    want = mp.mpf(float(z)) / z
    assert got > 0
    assert abs(got / want - 1) <= 1e-14


@pytest.mark.parametrize("coverage", EXTREME_COVERAGES)
def test_hpd_radius_at_extreme_coverage(coverage):
    # the unpinned interval is mean +- z, P(|Z| <= z) = coverage Phi(mean),
    # at sd 1; upper - mean keeps z's digits while mean <= 4 z
    checked = 0
    for mean in (2.0 * coverage, 3.0 * coverage, 1.0, 10.0):
        with mp.workdps(60):
            radius = central_z_mpmath(mp.mpf(coverage) * mp.ncdf(mean))
        if not (mean > radius and mean <= 4 * radius):
            continue
        iv = hpd_interval(PseudoPosterior(np.array([mean]), np.array([[1.0]])), coverage)
        assert iv.lower[0] > 0
        assert abs((iv.upper[0] - mean) / radius - 1) <= 1e-14
        checked += 1
    assert checked


def test_significance_flag_cases():
    assert not significance_flag(HpdInterval(0.0, 1.96, 0.95))
    assert significance_flag(HpdInterval(0.1, 2.0, 0.95))
    assert not significance_flag(HpdInterval(0.0, 1e-4, 0.95))


def test_invalid_coverage_rejected():
    est = scalar_estimate(1.0, 1.0)
    pp = pseudo_posterior(est, BetaPrior.isotropic(1.0, 1.0, 1))
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidCoverage):
            hpd_interval(pp, bad)
        with pytest.raises(InvalidCoverage):
            sigma_hat(HpdInterval(np.zeros(1), np.ones(1), bad))


def test_singular_inputs_rejected():
    est = LYEstimate(m=np.array([1.0, 1.0]), d=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance):
        pseudo_posterior(est, BetaPrior.isotropic(0.0, 1.0, 2))
    with pytest.raises(DimensionMismatch, match="prior dimension 3"):
        pseudo_posterior(est, BetaPrior.isotropic(0.0, 1.0, 3))
    with pytest.raises(DimensionMismatch, match="prior dimension 1"):  # an IndexError once
        pseudo_posterior(LYEstimate(1.0, [[1.0]]), BetaPrior.isotropic(0.0, 1.0, 1))
    # the exact constrained mode factors the covariance through the same check
    for cov in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, np.nan], [np.nan, 1.0]]):
        pp = PseudoPosterior(np.array([1.0, -1.0]), np.array(cov))
        with pytest.raises(SingularCovariance):
            beta_mode(pp, orthant_qp=True)


@pytest.mark.parametrize("coverage", [0.5, 0.9, 0.95, 0.99])
def test_hpd_matches_mpmath_oracle_across_tails(coverage):
    # mean/sd over [-1e4, 1e4] plus a few points far below 0, in one batch
    ratios = np.concatenate(
        [-np.logspace(-3, 4, 40), [0.0], np.logspace(-3, 4, 40), [-1e5, -3e5, -1e6]]
    )
    sd = np.full_like(ratios, 0.37)
    mean = ratios * sd
    pp = PseudoPosterior(mean=mean[:, None], cov=(sd**2)[:, None, None])
    iv = hpd_interval(pp, coverage)
    for i in range(ratios.size):
        lo, hi = hpd_mpmath_oracle(mean[i], np.sqrt(pp.cov[i, 0, 0]), coverage)
        assert iv.lower[i, 0] == pytest.approx(lo, rel=1e-12, abs=0.0)
        assert iv.upper[i, 0] == pytest.approx(hi, rel=1e-12, abs=0.0)


def test_hpd_far_below_zero_is_an_exponential_tail():
    # for mean/sd -> -inf the marginal tends to an exponential law with rate
    # |mean| / sd^2, whose HPD is [0, -log(1 - coverage) sd^2 / |mean|]
    for mean in (-1e8, -1e50, -1e200, -1e300):
        pp = PseudoPosterior(mean=np.array([mean]), cov=np.array([[1.0]]))
        iv = hpd_interval(pp, 0.95)
        assert iv.lower[0] == 0.0
        assert iv.upper[0] == pytest.approx(-np.log(0.05) / -mean, rel=1e-13)


def test_batched_posterior_and_hpd_equal_a_loop():
    rng = np.random.default_rng(4)
    r, k = 30, 3
    m = rng.normal(0.2, 0.5, size=(r, k))
    roots = rng.normal(size=(r, k, k)) * 0.3
    d = roots @ np.swapaxes(roots, 1, 2) + 0.05 * np.eye(k)
    prior = BetaPrior(mu=(0.5, 0.0, 1.0), cov=((2.0, 0.3, 0.0), (0.3, 1.0, 0.1), (0.0, 0.1, 0.5)))
    batch = pseudo_posterior(LYEstimate(m, d), prior)
    assert batch.mean.shape == (r, k) and batch.cov.shape == (r, k, k)
    assert batch.mean.shape[-1] == k
    ivs = hpd_interval(batch, 0.9)
    sig = sigma_hat(ivs)
    flag = significance_flag(ivs)
    assert ivs.lower.shape == ivs.upper.shape == sig.shape == flag.shape == (r, k)
    for i in range(r):
        one = pseudo_posterior(LYEstimate(m[i], d[i]), prior)
        np.testing.assert_allclose(batch.mean[i], one.mean, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(batch.cov[i], one.cov, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(beta_mode(batch)[i], beta_mode(one), rtol=1e-14, atol=1e-15)
        iv = hpd_interval(one, 0.9)
        assert iv.lower.shape == iv.upper.shape == (k,)
        for comp in range(k):
            assert ivs.lower[i, comp] == pytest.approx(iv.lower[comp], rel=1e-14, abs=1e-15)
            assert ivs.upper[i, comp] == pytest.approx(iv.upper[comp], rel=1e-14, abs=1e-15)
            assert sig[i, comp] == pytest.approx(sigma_hat(iv)[comp], rel=1e-13, abs=1e-15)
            assert flag[i, comp] == significance_flag(iv)[comp]


def test_each_component_interval_is_its_own_marginal_interval():
    # one call over every component gives, bit for bit, the interval of each
    # component's one-dimensional marginal; 2000 x 3 elements take more
    # than one pass of the HPD, each marginal one
    rng = np.random.default_rng(11)
    for rows, k in [(50, k) for k in range(1, 8)] + [(2000, 3)]:
        mean = rng.normal(0.0, 2.0, size=(rows, k))
        roots = rng.normal(size=(rows, k, k))
        cov = roots @ np.swapaxes(roots, 1, 2) + 0.01 * np.eye(k)
        iv = hpd_interval(PseudoPosterior(mean=mean, cov=cov), 0.95)
        for comp in range(k):
            marginal = PseudoPosterior(
                mean=mean[:, comp : comp + 1], cov=cov[:, comp : comp + 1, comp : comp + 1]
            )
            one = hpd_interval(marginal, 0.95)
            np.testing.assert_array_equal(iv.lower[:, comp], one.lower[:, 0])
            np.testing.assert_array_equal(iv.upper[:, comp], one.upper[:, 0])


@pytest.mark.parametrize(
    "mean, var",
    [
        (1.0, 0.0),
        (1.0, 1e-310),  # subnormal: sd^2 is not a normal float
        (1.0, np.inf),
        (1.0, np.nan),
        (np.nan, 1.0),
        (-np.inf, 1.0),
        (-1e300, 1e-100),  # mean / sd overflows
    ],
)
def test_hpd_rejects_degenerate_marginals(mean, var):
    pp = PseudoPosterior(mean=np.array([mean]), cov=np.array([[var]]))
    with pytest.raises(SingularCovariance):
        hpd_interval(pp, 0.95)


# mean / sd: central values, and magnitudes far into both tails
RATIOS = (
    st.floats(-8.0, 8.0)
    | st.floats(-6.0, 280.0).map(lambda e: -(10.0**e))
    | st.floats(-6.0, 8.0).map(lambda e: 10.0**e)
)
SDS = st.floats(-5.0, 5.0).map(lambda e: 10.0**e)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    ratio=RATIOS,
    sd=SDS,
    coverages=st.lists(st.floats(1e-6, 1.0 - 1e-9), min_size=2, max_size=6, unique=True),
)
def test_hpd_intervals_nest_as_coverage_rises(ratio, sd, coverages):
    # each endpoint is rounded to about 1e-16 of max(|mean|, sd), so two
    # coverages a few ulps apart may cross by that much; coverages closer
    # than 1e-9 are dropped, and the relation is held exactly
    chosen = [c for c in sorted(coverages)]
    kept = chosen[:1]
    for c in chosen[1:]:
        if c - kept[-1] >= 1e-9:
            kept.append(c)
    pp = PseudoPosterior(mean=np.array([ratio * sd]), cov=np.array([[sd * sd]]))
    ivs = [hpd_interval(pp, c) for c in kept]
    for inner, outer in zip(ivs, ivs[1:]):
        assert outer.lower[0] <= inner.lower[0]
        assert inner.upper[0] <= outer.upper[0]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(ratio=RATIOS, sd=SDS, power=st.integers(-60, 60), coverage=st.floats(1e-6, 1.0 - 1e-9))
def test_hpd_interval_scales_with_sd_at_fixed_mean_over_sd(ratio, sd, power, coverage):
    # scaling mean and sd by 2^power keeps mean / sd bit for bit, and every
    # step of the interval then scales exactly
    scale = 2.0**power
    mean = ratio * sd
    iv = hpd_interval(PseudoPosterior(np.array([mean]), np.array([[sd * sd]])), coverage)
    scaled = hpd_interval(
        PseudoPosterior(np.array([mean * scale]), np.array([[(sd * scale) ** 2]])), coverage
    )
    assert scaled.lower[0] == iv.lower[0] * scale
    assert scaled.upper[0] == iv.upper[0] * scale


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 8),
    k=st.integers(1, 3),
    r=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_each_prior_of_a_stack_gives_the_bits_of_its_own_call(cells, k, r, seed):
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=(r, k, k))
    d = roots @ np.swapaxes(roots, 1, 2) + 0.05 * np.eye(k)
    est = LYEstimate(rng.normal(0.2, 0.5, size=(r, k)), d)
    # prior variances over six decades, one scale per prior
    roots = rng.normal(size=(cells, 1, k, k)) * 10.0 ** rng.uniform(-3, 3, size=(cells, 1, 1, 1))
    cov = roots @ np.swapaxes(roots, -1, -2) + 1e-3 * np.eye(k)
    prior = BetaPrior(rng.normal(size=(cells, 1, k)), (cov + np.swapaxes(cov, -1, -2)) / 2)
    stacked = pseudo_posterior(est, prior)
    assert stacked.mean.shape == (cells, r, k) and stacked.cov.shape == (cells, r, k, k)
    for j in range(cells):
        alone = pseudo_posterior(est, BetaPrior(prior.mu[j, 0], prior.cov[j, 0]))
        assert stacked.mean[j].tobytes() == alone.mean.tobytes()
        assert stacked.cov[j].tobytes() == alone.cov.tobytes()
