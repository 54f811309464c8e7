"""Acceptance gate: ten end-to-end criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  Monte Carlo criteria pin their seeds; tolerance bands around the
expected operating points span roughly three Monte Carlo standard errors.
Oracle criteria recompute every expected value from scratch with an
independent method (exact rational convolution, adaptive quadrature,
grid search) and compare at fixed precision.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from addhaz.data_model import BetaPrior, GammaProcessPrior, SurvivalDataset, TimeGrid
from addhaz.hybrid_beta import (
    PseudoPosterior,
    beta_mode,
    hpd_interval,
    pseudo_posterior,
    sigma_hat,
)
from addhaz.lin_ying import compute_statistics, ly_solve
from addhaz.poly_coeffs import poly_from_factors
from addhaz.simulate import (
    SimConfig,
    _event_times,
    run_baseline_experiment,
    run_beta_experiment,
)

from oracles import (
    interval_exposures, interval_offsets, interval_widths, one_interval, poly_eval_log
)

MC_SEED = 20260819


def test_criterion_01_flat_prior_cell_at_n500():
    # n=500, R=1000, prior mean 0.5 with variance 1000: the flat-prior cell
    # must land on the reference operating point (mean 0.51 +- 0.02,
    # sd proxy 0.104 +- 0.015) in under two minutes single-threaded
    start = time.perf_counter()
    cfg = SimConfig(n=500, replicates=1000, beta_true=(0.5,), seed=MC_SEED)
    report = run_beta_experiment(cfg, (0.5,), (1000.0,))
    elapsed = time.perf_counter() - start
    mean, sd, _ = dict(report.rows)[(0.5, 1000.0, 1)]
    assert elapsed < 120.0
    assert 0.51 - 0.02 < mean < 0.51 + 0.02
    assert 0.104 - 0.015 < sd < 0.104 + 0.015
    print(f"CRITERION 1: PASS (mean {mean:.4f}, sd {sd:.4f}, {elapsed:.1f}s)")


def test_criterion_02_strong_prior_pulls_estimate():
    # n=100, R=1000: a tight prior at 10 with variance 0.1 pulls the cell
    # mean to 3.99 +- 0.05
    cfg = SimConfig(n=100, replicates=1000, beta_true=(0.5,), seed=0)
    report = run_beta_experiment(cfg, (10.0,), (0.1,))
    mean = dict(report.rows)[(10.0, 0.1, 1)][0]
    assert 3.99 - 0.05 < mean < 3.99 + 0.05
    print(f"CRITERION 2: PASS (mean {mean:.4f})")


def test_criterion_03_baseline_increment_recovery_at_n500():
    # n=500, R=1000 on the fixed grid with cuts (0.125, 0.3, 0.6) and
    # t_F = 1.15: at c=0.1 the first increment's Monte Carlo mean must be
    # within +-0.01 of 0.126 (true increment 0.125)
    grid = TimeGrid((0.125, 0.3, 0.6), 1.15)
    cfg = SimConfig(n=500, replicates=1000, beta_true=(0.5,), seed=MC_SEED)
    report = run_baseline_experiment(
        cfg, (0.1,), (5.0, 1.0, 0.3, 0.01), grid=grid
    )
    first = dict(report.rows)[(0.1, 1)][0]
    assert 0.126 - 0.01 < first < 0.126 + 0.01
    print(f"CRITERION 3: PASS (interval-1 mean {first:.4f})")


def test_criterion_04_flat_prior_reduces_to_unpenalized_estimate():
    # on 50 random datasets (n=200, k=2) whose unpenalized solutions are
    # all-positive, prior variance 1e6 leaves the posterior mode within
    # 1e-6 of the plain estimate componentwise
    rng = np.random.default_rng(MC_SEED)
    prior = BetaPrior.isotropic(0.0, 1e6, 2)
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 50:
        attempts += 1
        assert attempts < 400, "not enough all-positive solutions"
        z = rng.standard_normal((200, 2)) ** 2
        t = rng.exponential(size=200) / (0.3 + z @ np.array([0.5, 0.25]))
        events = rng.random(200) < 0.8
        if not events.any():
            continue
        ds = SurvivalDataset(t, events, z)
        est = ly_solve(compute_statistics(ds))
        if not np.all(est.m > 0):
            continue
        mode = beta_mode(pseudo_posterior(est, prior))
        worst = max(worst, float(np.max(np.abs(mode - est.m))))
        accepted += 1
    assert worst < 1e-6
    print(f"CRITERION 4: PASS (max gap {worst:.2e} over {accepted} datasets)")


def exact_coefficients(offsets):
    coeffs = [Fraction(1)]
    for b in offsets:
        fb = Fraction(b)
        coeffs = [
            s + t
            for s, t in zip(
                [Fraction(0)] + coeffs, [c * fb for c in coeffs] + [Fraction(0)]
            )
        ]
    return coeffs


def test_criterion_05_polynomial_recursion_oracle():
    rng = np.random.default_rng(MC_SEED)
    # coefficients of <= 12 factors vs exact rational convolution
    for _ in range(100):
        n_fac = int(rng.integers(0, 13))
        offsets = rng.uniform(0.0, 5.0, size=n_fac)
        if n_fac and rng.random() < 0.3:
            offsets[rng.integers(0, n_fac)] = 0.0
        got = np.exp(poly_from_factors(offsets).log_abs)
        want = np.array([float(v) for v in exact_coefficients(offsets)])
        np.testing.assert_allclose(got, want, rtol=1e-10)
    # evaluated products for <= 200 factors, compared in the log domain
    for _ in range(20):
        n_fac = int(rng.integers(1, 201))
        offsets = rng.uniform(0.1, 4.0, size=n_fac)
        a = float(rng.uniform(0.01, 5.0))
        got = poly_eval_log(poly_from_factors(offsets), a)
        want = float(np.sum(np.log(a + offsets)))
        assert got == pytest.approx(want, rel=1e-12)
    print("CRITERION 5: PASS")


def quadrature_moments(offsets, alpha, c, exposure, width):
    """Increment mean and variance by adaptive quadrature of the factored
    unnormalized density; forced relative error since the absolute scale
    can sit below the integrator's default absolute tolerance."""
    c_rate = exposure / width + c
    shape0 = c * alpha

    def g(L):
        prod = 1.0
        for b in offsets:
            prod *= L / width + b
        return L ** (shape0 - 1.0) * math.exp(-c_rate * L) * prod

    guess = (len(offsets) + shape0 + 1.0) / c_rate
    upper = 50.0 * guess
    moments = None
    for _ in range(60):
        pieces = [
            integrate.quad(
                lambda L, p=p: g(L) * L**p,
                0.0,
                upper,
                limit=800,
                points=[guess / 2, guess, 2 * guess],
                epsabs=0.0,
                epsrel=1e-10,
                full_output=1,
            )[0]
            for p in (0, 1, 2)
        ]
        tail = integrate.quad(
            g, upper / 2, upper, limit=200,
            epsabs=1e-16 * pieces[0], epsrel=1e-8, full_output=1,
        )[0]
        if tail < 1e-12 * pieces[0]:
            moments = pieces
            break
        upper *= 2.0
    total, first, second = moments
    mean = first / total
    return mean, second / total - mean**2


def test_criterion_06_increment_moments_match_quadrature():
    rng = np.random.default_rng(424242)
    for _ in range(100):
        n_events = int(rng.integers(0, 21))
        offsets = rng.uniform(0.0, 4.0, size=n_events)
        alpha = float(rng.uniform(0.05, 5.0))
        c = float(rng.uniform(0.05, 20.0))
        exposure = float(rng.uniform(0.5, 40.0))
        width = float(rng.uniform(0.2, 3.0))
        post = one_interval(1, exposure, width, offsets, GammaProcessPrior((alpha,), c=c))
        mean_q, var_q = quadrature_moments(offsets, alpha, c, exposure, width)
        assert post.mean == pytest.approx(mean_q, rel=1e-6)
        assert post.variance == pytest.approx(var_q, rel=1e-6)
    print("CRITERION 6: PASS")


def _fixed_datasets():
    rng = np.random.default_rng(5150)
    n = 14
    times = rng.uniform(0.05, 2.8, size=n)
    events = rng.random(n) < 0.8
    events[0] = True
    z = rng.uniform(0.0, 2.0, size=(n, 2))
    yield SurvivalDataset(times, events, z), TimeGrid((0.8, 1.8), 3.0), np.array([0.4, 0.9])
    times2 = np.array([0.1, 0.3, 0.35, 0.7, 1.1, 1.6, 2.1, 2.2])
    events2 = np.array([1, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
    z2 = np.array([[0.5], [1.0], [2.0], [0.2], [0.9], [1.4], [0.1], [0.8]])
    yield SurvivalDataset(times2, events2, z2), TimeGrid((0.5, 1.5), 2.5), np.array([0.6])


def test_criterion_07_infinite_confidence_returns_prior_increments():
    # c = 1e6 pins every interval's posterior mean to its prior increment
    for ds, grid, beta in _fixed_datasets():
        for base in (0.01, 0.3, 1.0, 5.0):
            increments = [base * (j + 1) for j in range(grid.m)]
            prior = GammaProcessPrior(increments, c=1e6)
            exposures, widths = interval_exposures(ds, grid), interval_widths(grid)
            offsets = interval_offsets(ds, grid, beta)
            for j in range(grid.m):
                post = one_interval(j + 1, exposures[j], widths[j], offsets[j], prior)
                assert abs(post.mean - increments[j]) < 1e-3
    print("CRITERION 7: PASS")


def test_criterion_08_vanishing_confidence_forgets_prior_shape():
    # c = 1e-8 with informative data: scaling the prior shape tenfold moves
    # the posterior mean by less than 1e-6 relative
    times = np.full(20, 0.05)
    ds = SurvivalDataset(times, np.ones(20, dtype=bool), np.ones((20, 1)))
    grid = TimeGrid((0.9,), 1.0)
    interval = (1, interval_exposures(ds, grid)[0], interval_widths(grid)[0])
    offsets = interval_offsets(ds, grid, np.array([1.0]))[0]
    for alpha in (0.5, 2.0):
        prior_a = GammaProcessPrior((alpha,), c=1e-8)
        prior_b = GammaProcessPrior((10.0 * alpha,), c=1e-8)
        mean_a = one_interval(*interval, offsets, prior_a).mean
        mean_b = one_interval(*interval, offsets, prior_b).mean
        assert mean_a == pytest.approx(mean_b, rel=1e-6)
        assert abs(mean_a - mean_b) < 1e-6 * max(abs(mean_a), abs(mean_b))
    print("CRITERION 8: PASS")


def hpd_grid_oracle(mean, sd, coverage):
    """Shortest-interval search: scan the lower endpoint on a 1e-5 grid,
    solve the matching upper endpoint from the mass condition exactly."""
    total = ndtr(mean / sd)
    target = coverage * total
    hi = max(mean, 0.0)
    lows = np.arange(0.0, hi + 1e-5, 1e-5)
    base = ndtr((lows - mean) / sd)
    arg = base + target
    uppers = np.full(lows.shape, np.inf)
    ok = arg < 1.0
    uppers[ok] = mean + sd * ndtri(arg[ok])
    i = int(np.argmin(uppers - lows))
    return float(lows[i]), float(uppers[i])


def test_criterion_09_hpd_matches_grid_search():
    rng = np.random.default_rng(MC_SEED)
    for _ in range(200):
        mean = float(rng.uniform(-1.0, 3.0))
        sd = float(rng.uniform(0.2, 2.0))
        coverage = float(rng.uniform(0.5, 0.99))
        pp = PseudoPosterior(np.array([mean]), np.array([[sd * sd]]))
        got = hpd_interval(pp, coverage)
        lo, up = hpd_grid_oracle(mean, sd, coverage)
        assert got.lower[0] == pytest.approx(lo, abs=1e-4)
        assert got.upper[0] == pytest.approx(up, abs=1e-4)
    # interior intervals: the width-based sd proxy recovers the true sd
    for _ in range(20):
        sd = float(rng.uniform(0.2, 2.0))
        mean = float(rng.uniform(5.0, 8.0)) * sd
        coverage = float(rng.uniform(0.5, 0.99))
        pp = PseudoPosterior(np.array([mean]), np.array([[sd * sd]]))
        assert sigma_hat(hpd_interval(pp, coverage))[0] == pytest.approx(
            sd, abs=1e-4
        )
    print("CRITERION 9: PASS")


def test_criterion_10_generator_law():
    # 1e5 constant-hazard draws vs the exact exponential law
    rng = np.random.default_rng(MC_SEED)
    draws = _event_times(rng.exponential(size=100_000), np.zeros(100_000))
    stat = kstest(draws, "expon").statistic
    assert stat < 0.006
    print(f"CRITERION 10: PASS (KS {stat:.5f})")