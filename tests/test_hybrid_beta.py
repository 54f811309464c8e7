"""Posterior combination, mode, and HPD intervals against oracles.

The HPD oracle is a coarse-to-fine grid search over candidate intervals of
the truncated normal marginal: among all intervals holding the requested
mass, it returns the shortest, refined down to 1e-5 endpoint steps.  The
combination formula is cross-checked by numerically maximizing the exact
log-density with scipy.
"""

import numpy as np
import pytest
from scipy import optimize
from scipy.stats import norm

from addhaz.data_model import BetaPrior, SurvivalDataset
from addhaz.errors import InvalidCoverage, SingularCovariance
from addhaz.hybrid_beta import (
    HpdInterval,
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
    iv = hpd_interval(pp, 0, 0.95)
    assert iv.lower == 0.0
    assert iv.upper == pytest.approx(1.959964, abs=1e-5)


def test_hpd_symmetric_case_far_from_zero():
    est = scalar_estimate(10.0, 1.0)
    pp = pseudo_posterior(est, BetaPrior.isotropic(10.0, 1e12, 1))
    iv = hpd_interval(pp, 0, 0.95)
    assert iv.lower == pytest.approx(8.0400, abs=1e-4)
    assert iv.upper == pytest.approx(11.9600, abs=1e-4)
    assert sigma_hat(iv) == pytest.approx(1.0, abs=1e-4)


def test_hpd_interval_holds_requested_mass():
    rng = np.random.default_rng(17)
    for _ in range(25):
        mean = rng.uniform(-2.0, 4.0)
        sd = rng.uniform(0.05, 2.0)
        coverage = rng.uniform(0.5, 0.99)
        est = scalar_estimate(mean, sd**2)
        pp = pseudo_posterior(est, BetaPrior.isotropic(mean, 1e12, 1))
        iv = hpd_interval(pp, 0, coverage)
        total = norm.sf(0.0, loc=pp.mean[0], scale=sd)
        mass = (
            norm.cdf(iv.upper, pp.mean[0], sd) - norm.cdf(iv.lower, pp.mean[0], sd)
        ) / total
        assert mass == pytest.approx(coverage, abs=1e-8)
        assert iv.lower >= 0.0
        assert iv.upper > iv.lower


def test_hpd_matches_grid_search_oracle():
    rng = np.random.default_rng(20260819)
    for _ in range(40):
        mean = rng.uniform(-1.5, 3.0)
        sd = rng.uniform(0.1, 1.5)
        coverage = rng.uniform(0.55, 0.99)
        est = scalar_estimate(mean, sd**2)
        pp = pseudo_posterior(est, BetaPrior.isotropic(mean, 1e12, 1))
        iv = hpd_interval(pp, 0, coverage)
        lo, hi = hpd_grid_oracle(pp.mean[0], sd, coverage)
        assert iv.lower == pytest.approx(lo, abs=1e-4)
        assert iv.upper == pytest.approx(hi, abs=1e-4)


def test_hpd_width_shrinks_with_coverage():
    est = scalar_estimate(1.0, 0.25)
    pp = pseudo_posterior(est, BetaPrior.isotropic(1.0, 1e12, 1))
    widths = [
        hpd_interval(pp, 0, c).upper - hpd_interval(pp, 0, c).lower
        for c in (0.99, 0.9, 0.5, 0.1, 1e-4)
    ]
    assert all(a > b for a, b in zip(widths, widths[1:]))
    # vanishing coverage degenerates to the mode: width ~ 2*sd*z_(1+c)/2
    assert widths[-1] < 2e-4


def test_sigma_hat_arithmetic():
    assert sigma_hat(HpdInterval(0.0, 1.96, 0.95)) == pytest.approx(0.5, abs=1e-4)
    assert sigma_hat(HpdInterval(1.0, 1.0, 0.95)) == 0.0
    # explicit coverage argument overrides the stored one
    assert sigma_hat(HpdInterval(0.0, 2.0, 0.5), 0.95) == pytest.approx(
        1.0 / norm.ppf(0.975), abs=1e-10
    )


def test_significance_flag_cases():
    assert not significance_flag(HpdInterval(0.0, 1.96, 0.95))
    assert significance_flag(HpdInterval(0.1, 2.0, 0.95))
    assert not significance_flag(HpdInterval(0.0, 1e-4, 0.95))


def test_invalid_coverage_rejected():
    est = scalar_estimate(1.0, 1.0)
    pp = pseudo_posterior(est, BetaPrior.isotropic(1.0, 1.0, 1))
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(InvalidCoverage):
            hpd_interval(pp, 0, bad)


def test_singular_inputs_rejected():
    est = LYEstimate(m=np.array([1.0, 1.0]), d=np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularCovariance):
        pseudo_posterior(est, BetaPrior.isotropic(0.0, 1.0, 2))
