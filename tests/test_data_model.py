"""Dataset validation, grids, priors, and serialization round-trips."""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import addhaz
from addhaz.data_model import (
    BaselineMixtures,
    BetaPrior,
    FitResult,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
    grid_from_quantiles,
)
from addhaz.dataio import read_dataset_csv
from addhaz.hybrid_beta import (
    HpdInterval, hpd_interval, pseudo_posterior, sigma_hat, significance_flag
)
from addhaz.lin_ying import LYEstimate, compute_statistics
from addhaz.simulate import SimConfig, run_baseline_experiment, run_beta_experiment
from addhaz.errors import (
    DegenerateGrid,
    DimensionMismatch,
    NoEvents,
    NonNegativityViolation,
    OutOfRange,
    SingularCovariance,
)
from oracles import (
    Posterior,
    by_mixture,
    by_quadrature,
    interval_exposures,
    interval_offsets,
    validate_dataset,
    write_dataset_csv,
)


def test_minimal_valid_dataset():
    ds = validate_dataset([(1.0, True, [0.5])])
    assert ds.n == 1 and ds.k == 1 and np.count_nonzero(ds.events) == 1
    assert (ds.times.tolist(), ds.events.tolist(), ds.covariates.tolist()) == (
        [1.0],
        [True],
        [[0.5]],
    )


def test_negative_covariate_rejected():
    with pytest.raises(NonNegativityViolation):
        validate_dataset([(1.0, True, [-0.1])])


def test_negative_covariate_allowed_when_signed():
    ds = validate_dataset([(1.0, True, [-0.1])], allow_signed=True)
    assert ds.covariates[0, 0] == -0.1


def test_negative_time_rejected_even_when_signed():
    with pytest.raises(NonNegativityViolation):
        validate_dataset([(-1.0, True, [0.1])], allow_signed=True)


def test_all_censored_rejected():
    with pytest.raises(NoEvents):
        validate_dataset([(1.0, False, [0.5]), (2.0, False, [0.3])])
    with pytest.raises(NoEvents):
        SurvivalDataset([], [], np.empty((0, 1)))
    # a stack is accepted when each member would be: one without an event fails
    with pytest.raises(NoEvents, match="^dataset contains no uncensored observations$"):
        SurvivalDataset([[1.0, 2.0]] * 2, [[True, False], [False, False]], np.ones((2, 2, 1)))
    for empty in ((0, 2), (2, 0)):
        with pytest.raises(NoEvents, match="empty"):
            SurvivalDataset(np.ones(empty), np.ones(empty, dtype=bool), np.ones(empty + (1,)))


def test_ragged_covariates_rejected():
    with pytest.raises(DimensionMismatch):
        validate_dataset([(1.0, True, [0.5, 1.0]), (2.0, True, [0.3])])
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0, 2.0], [True, True], [[0.5]])
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0], [True], [0.5])
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0], [True], np.empty((1, 0)))
    # a stack's axes must agree too: replicates, rows, and one more for covariates
    stack = np.ones((2, 3)), np.ones((2, 3), dtype=bool), np.ones((2, 3, 1))
    for bad in ((np.ones((3, 2)), *stack[1:]), (stack[0], np.ones(3, dtype=bool), stack[2]),
                (*stack[:2], np.ones((2, 3))), (*stack[:2], np.ones((3, 3, 1))),
                (*stack[:2], np.ones((2, 3, 0))), (np.ones((1, 2, 3)), *stack[1:])):
        with pytest.raises(DimensionMismatch):
            SurvivalDataset(*bad)


def test_a_stack_is_one_dataset_to_no_single_dataset_entry():
    stack = SurvivalDataset([[1.0, 2.0, 3.0]] * 2, [[True, True, False]] * 2, np.ones((2, 3, 1)))
    assert (stack.n, stack.k) == (3, 1)
    for entry in (compute_statistics, grid_from_quantiles, addhaz.fit):
        with pytest.raises(DimensionMismatch, match="not a stack"):
            entry(stack)
    grid_from_quantiles(stack[1])


def test_ragged_rows_raise_typed_error():
    # numpy itself raises a bare ValueError for inhomogeneous rows
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0, 2.0], [True, True], [[0.5, 1.0], [0.3]])
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0, [2.0, 3.0]], [True, True], [[0.5], [0.3]])
    with pytest.raises(DimensionMismatch):
        SurvivalDataset([1.0, 2.0], [True, [True, False]], [[0.5], [0.3]])


def test_nonfinite_values_rejected():
    # a non-finite value is named before a negative one: -inf is OutOfRange
    for time, covariate in ((math.inf, 0.5), (-math.inf, 0.5), (1.0, math.nan), (1.0, -math.inf)):
        with pytest.raises(OutOfRange):
            validate_dataset([(time, True, [covariate])])


def test_zero_time_accepted():
    ds = validate_dataset([(0.0, True, [0.5])])
    assert ds.times[0] == 0.0


def test_dataset_preserves_input_order():
    rows = [(3.0, True, [1.0]), (1.0, False, [2.0]), (2.0, True, [0.5])]
    ds = validate_dataset(rows)
    np.testing.assert_allclose(ds.times, [3.0, 1.0, 2.0])


def test_dataset_arrays_immutable():
    ds = validate_dataset([(1.0, True, [0.5]), (2.0, False, [0.1])])
    with pytest.raises((ValueError, RuntimeError)):
        ds.times[0] = 9.0


def test_dataset_leaves_the_callers_arrays_writable():
    times = np.array([1.0, 2.0, 0.5])
    events = np.array([True, False, True])
    covariates = np.array([[0.5], [1.0], [0.2]])
    ds = SurvivalDataset(times, events, covariates)
    for held in (ds.times, ds.events, ds.covariates):
        with pytest.raises(ValueError):
            held[0] = held[0]
    times[0], events[0], covariates[0, 0] = 3.0, False, 9.0
    assert ds.times[0] == 1.0 and ds.events[0] and ds.covariates[0, 0] == 0.5


def test_grid_median_of_five():
    ds = validate_dataset([(t, True, [1.0 + 0.1 * t]) for t in (1, 2, 3, 4, 5)])
    grid = grid_from_quantiles(ds, [0.5], t_final=5.0)
    assert grid.cuts == (3.0,)
    assert grid.m == 2
    assert grid.boundaries == (3.0, 5.0)


def test_grid_nearest_rank_convention():
    # nearest-rank: the p-quantile of n points is the ceil(p*n)-th smallest
    ds = validate_dataset([(t, True, [0.5]) for t in range(1, 11)])
    grid = grid_from_quantiles(ds, [0.2, 0.25, 0.8], t_final=10.0)
    # ceil(0.2*10)=2 and ceil(0.25*10)=3 and ceil(0.8*10)=8
    assert grid.cuts == (2.0, 3.0, 8.0)


def test_grid_quantiles_ignore_censored_rows():
    rows = [(t, True, [0.5]) for t in (1, 2, 3, 4, 5)]
    rows += [(10.0, False, [0.5])] * 20
    ds = validate_dataset(rows)
    grid = grid_from_quantiles(ds, [0.5], t_final=10.0)
    assert grid.cuts == (3.0,)


def test_grid_duplicate_quantiles_collapse():
    ds = validate_dataset([(1.0, True, [0.5])] * 5 + [(4.0, True, [0.5])])
    grid = grid_from_quantiles(ds, [0.2, 0.4, 0.6], t_final=4.0)
    assert grid.cuts == (1.0,)


def test_grid_degenerate_when_all_times_equal():
    ds = validate_dataset([(2.0, True, [0.5])] * 4)
    with pytest.raises(DegenerateGrid):
        grid_from_quantiles(ds, [0.25, 0.5], t_final=2.0)


def test_grid_requires_covering_t_final():
    ds = validate_dataset([(1.0, True, [0.5]), (5.0, True, [0.5])])
    for t_final in (4.0, math.nan):  # NaN covers nothing
        with pytest.raises(OutOfRange):
            grid_from_quantiles(ds, [0.5], t_final=t_final)


def test_grid_rejects_bad_probabilities():
    ds = validate_dataset([(t, True, [0.5]) for t in (1, 2, 3)])
    nan = math.nan  # outside (0, 1), wherever it sits
    for probs in (
        [], [0.5, 0.5], [0.8, 0.2], [0.0, 0.5], [0.5, 1.0], [nan], [nan, 0.5], [0.5, nan]
    ):
        with pytest.raises(DegenerateGrid):
            grid_from_quantiles(ds, probs, t_final=3.0)


def test_time_grid_validation():
    grid = TimeGrid((1.0, 2.0), 3.0)
    assert grid.m == 3
    with pytest.raises(DegenerateGrid):
        TimeGrid((2.0, 1.0), 3.0)
    with pytest.raises(DegenerateGrid):
        TimeGrid((1.0, 3.0), 3.0)
    with pytest.raises(DegenerateGrid):
        TimeGrid((0.0,), 3.0)
    with pytest.raises(DegenerateGrid):
        TimeGrid((), 0.0)


def interval_of(grid, t):
    """1-based interval whose offsets hold a lone event at time t, or None
    when none does; the event's exposure, over the whole grid, is min(t, t_F)."""
    ds = SurvivalDataset([t], [True], [[1.0]])
    assert interval_exposures(ds, grid).sum() == pytest.approx(min(t, grid.t_final))
    sizes = [o.size for o in interval_offsets(ds, grid, np.ones(1))]
    return sizes.index(1) + 1 if 1 in sizes else None


def test_interval_index_conventions():
    grid = TimeGrid((1.0, 2.0), 3.0)
    assert interval_of(grid, 1.5) == 2
    assert interval_of(grid, 1.0) == 1  # boundary goes left
    assert interval_of(grid, 2.0) == 2
    assert interval_of(grid, 0.0) == 1
    assert interval_of(grid, 3.0) == 3
    # beyond t_final a time stays at risk but falls inside no interval
    assert interval_of(grid, 3.5) is None
    with pytest.raises(NonNegativityViolation):
        interval_of(grid, -0.1)


def test_interval_index_monotone():
    grid = TimeGrid((0.5, 1.1, 2.0), 4.0)
    ts = np.linspace(0.0, 4.0, 101)
    idx = [interval_of(grid, t) for t in ts]
    assert all(a <= b for a, b in zip(idx, idx[1:]))


def test_beta_prior_isotropic_and_spd_check():
    prior = BetaPrior.isotropic(0.5, 2.0, 3)
    np.testing.assert_array_equal(prior.mu, [0.5, 0.5, 0.5])
    np.testing.assert_allclose(prior.cov, 2.0 * np.eye(3))
    with pytest.raises(DimensionMismatch, match="k is required"):
        BetaPrior.isotropic(0.5, 1.0)
    # a one-entry mean broadcasts as a scalar does; other lengths name both
    assert BetaPrior.isotropic([0.5], 2.0, 3).mu.tolist() == [0.5, 0.5, 0.5]
    with pytest.raises(DimensionMismatch, match="expected 1 or 3 entries"):
        BetaPrior.isotropic([0.5, 1.0], 2.0, 3)
    with pytest.raises(DimensionMismatch, match=r"\(2,\), expected 1 entry$"):
        BetaPrior.isotropic([0.5, 1.0], 2.0, 1)
    # k is an integer >= 1, given or read from mu; a negative one raised a
    # bare ValueError, a float a bare TypeError, and 0 built an empty prior
    for k in (-1, 0, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(DimensionMismatch, match="k must be an integer >= 1"):
            BetaPrior.isotropic(0.5, 1.0, k)
    with pytest.raises(DimensionMismatch, match="k must be an integer >= 1"):
        BetaPrior.isotropic([], 1.0)
    assert BetaPrior.isotropic(0.5, 2.0, np.int32(2)).cov.tolist() == [[2.0, 0.0], [0.0, 2.0]]
    # the factorization alone rejects a variance that is not positive and
    # finite, or whose inverse overflows
    for omega in (-1.0, 0.0, 1e-310, np.inf, np.nan):
        with pytest.raises(SingularCovariance):
            BetaPrior.isotropic(0.5, omega, 2)
    with pytest.raises(SingularCovariance):
        BetaPrior(mu=(0.0, 0.0), cov=((1.0, 2.0), (2.0, 1.0)))  # not SPD
    # the constructor holds k >= 1 too, alone and stacked: k = 0 built a
    # prior with an empty precision
    for mu, cov in ((np.zeros(0), np.zeros((0, 0))), (np.zeros((3, 0)), np.zeros((3, 0, 0)))):
        with pytest.raises(DimensionMismatch, match="k >= 1"):
            BetaPrior(mu, cov)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_stacked_beta_prior_holds_each_member_as_alone():
    mu = np.array([[0.5, 0.0], [1.0, 2.0], [0.0, 0.0]])
    cov = np.array([np.eye(2), [[2.0, 0.3], [0.3, 1.0]], 1e-3 * np.eye(2)])
    prior = BetaPrior(mu, cov)
    assert prior.k == 2 and prior.precision.shape == (3, 2, 2)
    assert not prior.precision.flags.writeable
    for j in range(3):
        alone = BetaPrior(mu[j], cov[j])
        assert prior.precision[j].tobytes() == alone.precision.tobytes()
        np.testing.assert_allclose(alone.precision @ cov[j], np.eye(2), atol=1e-12)
    # leading axes that disagree, one member not positive definite, and a
    # subnormal covariance, whose inverse overflows
    for bad_mu, bad_cov in ((mu[:2], cov), (mu[:, None], cov), (mu, cov[:, None])):
        with pytest.raises(DimensionMismatch):
            BetaPrior(bad_mu, bad_cov)
    not_pd = cov.copy()
    not_pd[1] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(SingularCovariance, match="not positive definite"):
        BetaPrior(mu, not_pd)
    with pytest.raises(SingularCovariance, match="no finite inverse"):
        BetaPrior(mu, np.array([np.eye(2), np.eye(2), 1e-310 * np.eye(2)]))
    # symmetry at each member's own scale: a 1e-5 asymmetry passes at 1e6
    # and fails at 1, whatever the other members hold
    BetaPrior(mu[:1], np.array([[[1e6, 1e-5], [0.0, 1e6]]]))
    with pytest.raises(SingularCovariance, match="symmetric"):
        BetaPrior(mu[:2], np.array([1e6 * np.eye(2), [[1.0, 1e-5], [0.0, 1.0]]]))
    # the isotropic builder takes a (c, 1) grid of means and variances as a
    # (c, 1, k) stack, each member with the bits of its own call
    grid_mu, grid_omega = np.array([[0.0], [0.5], [2.0]]), np.array([[1e-3], [1.0], [1e8]])
    for k in (1, 3):
        stack = BetaPrior.isotropic(grid_mu[..., None], grid_omega, k)
        assert stack.mu.shape == (3, 1, k) and stack.cov.shape == (3, 1, k, k)
        for i in range(3):
            alone = BetaPrior.isotropic(float(grid_mu[i, 0]), float(grid_omega[i, 0]), k)
            for name in ("mu", "cov", "precision", "precision_mu"):
                assert getattr(stack, name)[i, 0].tobytes() == getattr(alone, name).tobytes()
    # means and variances whose leading axes disagree
    for bad_mu, bad_omega in ((grid_mu, grid_omega), (grid_mu[:2, :, None], grid_omega)):
        with pytest.raises(DimensionMismatch):
            BetaPrior.isotropic(bad_mu, bad_omega, 2)


def test_beta_prior_rejects_nonfinite_mean():
    for mu in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfRange, match="prior mean"):
            BetaPrior(mu=(0.5, mu), cov=((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(OutOfRange, match="prior mean"):
            BetaPrior.isotropic(mu, 1.0, 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_beta_prior_rejects_a_mean_whose_precision_product_overflows():
    # 1e300 over a variance of 1e-10 is finite in mu and in the precision,
    # but not as their product; a stack fails when any member does
    prior = BetaPrior.isotropic(0.5, 4.0, 2)
    assert prior.precision_mu.tolist() == [0.125, 0.125]
    assert not prior.precision_mu.flags.writeable
    with pytest.raises(OutOfRange, match="prior mean"):
        BetaPrior.isotropic(1e300, 1e-10, 2)
    mu = np.array([[[0.5, 1.0]], [[1e300, 0.0]]])
    cov = np.array([[np.eye(2)], [1e-10 * np.eye(2)]])
    with pytest.raises(OutOfRange, match="prior mean"):
        BetaPrior(mu, cov)
    stacked = BetaPrior(mu[:1].repeat(3, axis=0), cov[:1].repeat(3, axis=0))
    assert stacked.precision_mu.shape == (3, 1, 2)
    alone = BetaPrior(mu[0, 0], cov[0, 0])
    assert stacked.precision_mu[2, 0].tobytes() == alone.precision_mu.tobytes()


def test_gamma_prior_increments_roundtrip():
    prior = GammaProcessPrior.from_shape((5.0, 6.0, 6.3, 6.31), c=1.0)
    np.testing.assert_allclose(prior.increments, [5.0, 1.0, 0.3, 0.01])
    rebuilt = GammaProcessPrior.from_shape(np.cumsum([5.0, 1.0, 0.3, 0.01]), 1.0)
    np.testing.assert_allclose(rebuilt.increments, prior.increments)
    assert prior.m == 4
    # increments given directly are held as given, with no round trip
    direct = GammaProcessPrior((5.0, 1.0, 0.3, 0.01), c=1.0)
    assert direct.increments.tolist() == [5.0, 1.0, 0.3, 0.01]
    # alpha(t) = t at the boundaries gives the interval widths bit for bit
    grid = TimeGrid((0.125, 0.3, 0.6), 1.15)
    assert GammaProcessPrior.from_shape(grid.boundaries, 1.0).increments.tolist() == (
        np.diff(grid.boundaries, prepend=0.0).tolist()
    )


def test_priors_hold_read_only_copies():
    mu, cov, inc, c = np.zeros(2), np.eye(2), np.array([1.0, 2.0]), np.array([1.0, 2.0])
    beta = BetaPrior(mu, cov)
    gamma = GammaProcessPrior(inc, c=c)
    assert beta.mu.shape == (2,) and beta.cov.shape == (2, 2) and beta.k == 2
    for held in (beta.mu, beta.cov, gamma.increments, gamma.c):
        assert held.dtype == float
        with pytest.raises(ValueError):
            held[0] = 9.0
    mu[0] = cov[0, 0] = inc[0] = c[0] = 3.0  # the caller's arrays stay writable
    assert beta.mu[0] == 0.0 and beta.cov[0, 0] == 1.0 and gamma.increments[0] == 1.0
    assert gamma.c[0] == 1.0


def test_gamma_prior_validation():
    with pytest.raises(NonNegativityViolation):
        GammaProcessPrior.from_shape((1.0, 0.5), c=1.0)  # decreasing
    with pytest.raises(NonNegativityViolation):
        GammaProcessPrior((1.0, 2.0), c=0.0)
    with pytest.raises(NonNegativityViolation):
        GammaProcessPrior.from_shape((-1.0, 2.0), c=1.0)
    with pytest.raises(NonNegativityViolation):
        GammaProcessPrior((0.5, -0.1), c=1.0)
    for empty in ((), [[]]):
        with pytest.raises(DimensionMismatch):
            GammaProcessPrior(empty, c=1.0)


def test_gamma_prior_stack_is_accepted_when_each_member_is():
    # c of shape () or (p,), one alpha for all: one domain rule over all of c
    # (a non-finite member before a negative one, whatever their order), then c = 0
    assert GammaProcessPrior((1.0, 2.0), c=[0.5, 4.0]).c.tolist() == [0.5, 4.0]
    assert GammaProcessPrior((1.0, 2.0), c=0.5).c.shape == ()
    for c, error in (([1.0, 0.0], NonNegativityViolation), ([1.0, -1.0], NonNegativityViolation),
                     ([-1.0, math.inf], OutOfRange), ([math.nan, 1.0], OutOfRange),
                     ([], DimensionMismatch), ([[1.0]], DimensionMismatch)):
        with pytest.raises(error):
            GammaProcessPrior((1.0, 2.0), c=c)


def test_gamma_prior_rejects_nonfinite_shape():
    # inf - inf and overflowing differences must not warn on the way
    for shape in ((0.2, 0.5, np.nan), (0.2, np.inf, np.inf), (0.2, np.inf), (-1e308, 1e308)):
        with pytest.raises(OutOfRange, match="finite"):
            GammaProcessPrior.from_shape(shape, c=1.0)
    for inc, c in (((0.5, np.nan), 1.0), ((np.inf,), 1.0), ((1.0,), np.inf), ((1.0,), np.nan)):
        with pytest.raises(OutOfRange, match="finite"):
            GammaProcessPrior(inc, c=c)


DS = SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [1.0]])
GRID = TimeGrid((1.5,), 2.0)
PRIOR = BetaPrior.isotropic(0.5, 1.0, 1)


def _posterior():
    return pseudo_posterior(LYEstimate(np.ones(1), np.eye(1)), PRIOR)


# each entry's reading of a caller's numbers; the first cases raised a bare
# ValueError or TypeError, or read the text as numbers
NOT_REALS = {
    "flag text": lambda: SurvivalDataset([1.0, 2.0], ["0", "1"], [[1.0], [1.0]]),
    "ragged increments": lambda: GammaProcessPrior([[1.0, 2.0], [3.0]], 1.0),
    "ragged covariance": lambda: BetaPrior([1.0, 2.0], [[1.0, 0.0], [0.0]]),
    "shape text": lambda: GammaProcessPrior.from_shape(["a"], 1.0),
    "isotropic text": lambda: BetaPrior.isotropic("x", 1.0, 1),
    "coefficient text": lambda: SimConfig(10, 2, ("a",)),
    "quantile text": lambda: grid_from_quantiles(DS, ["a"]),
    "beta text": lambda: interval_offsets(DS, GRID, ["a"]),
    "estimate text": lambda: pseudo_posterior(LYEstimate(["a"], [[1.0]]), PRIOR),
    "cut text": lambda: TimeGrid(("0.5",), 1.0),
    "coverage text": lambda: hpd_interval(_posterior(), "0.9"),
    "numeric text": lambda: GammaProcessPrior(["1", "2"], "2"),
    "numeric c text": lambda: GammaProcessPrior([1.0, 2.0], "2"),
    "prior text": lambda: BetaPrior(["1"], [["1"]]),
    "t_final text": lambda: TimeGrid((), "1"),
    "fractions": lambda: SurvivalDataset([Fraction(1, 2)], [True], [[1.0]]),
    "decimals": lambda: GammaProcessPrior([Decimal("1")], 1.0),
    "none": lambda: TimeGrid((), None),
    "complex": lambda: BetaPrior.isotropic(0.5, 1.0 + 0j, 1),
    "bytes": lambda: SimConfig(10, 2, (0.5,), censor_rate=b"1"),
    "datetimes": lambda: SurvivalDataset(np.array(["2020-01-01"], "M8[D]"), [True], [[1.0]]),
    "generator": lambda: run_baseline_experiment(SimConfig(10, 2, (0.5,)), iter([1.0]), [1.0]),
    "prior grid text": lambda: run_beta_experiment(SimConfig(10, 2, (0.5,)), ["a"], [1.0]),
    "scalar cuts": lambda: TimeGrid(0.5, 1.0),
    "two-d coverage": lambda: hpd_interval(_posterior(), [0.9]),
    "two-d shape": lambda: GammaProcessPrior.from_shape([[1.0, 2.0]], 1.0),
    "interval coverage text": lambda: sigma_hat(HpdInterval(np.zeros(1), np.ones(1), "0.9")),
    "interval end text": lambda: significance_flag(HpdInterval(["0.1"], [1.0], 0.9)),
    "interval ends of two shapes": lambda: sigma_hat(HpdInterval(np.zeros(2), np.ones(3), 0.9)),
}


@pytest.mark.parametrize("case", sorted(NOT_REALS))
def test_caller_numbers_other_than_reals_raise_dimension_mismatch(case):
    with pytest.raises(DimensionMismatch, match="rectangular .*array of real numbers"):
        NOT_REALS[case]()


# each entry of the one domain rule, as a function of one value it reads
DOMAIN = {
    "times": lambda v: SurvivalDataset([v, 1.0], [True, True], [[1.0], [1.0]]),
    "covariates": lambda v: SurvivalDataset([1.0, 2.0], [True, True], [[1.0], [v]]),
    "signed covariates": lambda v: SurvivalDataset(
        [1.0, 2.0], [True, True], [[1.0], [v]], allow_signed=True
    ),
    "stacked times": lambda v: SurvivalDataset([[1.0, 2.0], [v, 1.0]], [[True] * 2] * 2,
                                               np.ones((2, 2, 1))),
    "stacked covariates": lambda v: SurvivalDataset(
        [[1.0, 2.0]] * 2, [[True] * 2] * 2, [[[1.0], [1.0]], [[1.0], [v]]]
    ),
    "prior mean": lambda v: BetaPrior([0.5, v], np.eye(2)),
    "prior increments": lambda v: GammaProcessPrior([1.0, v], 1.0),
    "confidence parameter c": lambda v: GammaProcessPrior([1.0], v),
    "offsets": lambda v: by_mixture(1, 2.0, 1.0, [1.0, v], GammaProcessPrior([1.0], 1.0)),
    "quadrature offsets": lambda v: by_quadrature(
        1, 2.0, 1.0, [1.0, v], GammaProcessPrior([1.0], 1.0)
    ),
    "true coefficients": lambda v: SimConfig(10, 2, (0.5, v)),
    "censor_rate": lambda v: SimConfig(10, 2, (0.5,), censor_rate=v),
}


@pytest.mark.parametrize("entry", sorted(DOMAIN))
def test_one_domain_rule_at_every_entry(entry):
    # NaN and +-inf are out of range before any sign is read; then a
    # negative value, and a zero c, leave the nonnegative domain
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange, match="must be finite"):
            DOMAIN[entry](value)
    if entry in ("signed covariates", "prior mean"):
        DOMAIN[entry](-1.0)
        return
    for value in (-1.0, 0.0) if entry == "confidence parameter c" else (-1.0,):
        with pytest.raises(NonNegativityViolation):
            DOMAIN[entry](value)


@pytest.mark.parametrize("flags", [[2, 1], [0.5, 1.0], [1.0, math.nan], [-1, 1]])
def test_event_flags_other_than_0_or_1_are_out_of_range(flags):
    # each once read as an event, changing V1, V3 and the baseline polynomials
    with pytest.raises(OutOfRange, match="event flags"):
        SurvivalDataset([1.0, 2.0], flags, [[1.0], [1.0]])


def test_bools_and_integers_keep_the_bits_of_floats():
    want = SurvivalDataset([1.0, 2.0, 3.0], [True, False, False], [[1.0, 0.0]] * 3)
    for flags in ([1, 0, 0], [1.0, 0.0, -0.0], np.array([1, 0, 0], np.uint8), (True, 0, 0)):
        ds = SurvivalDataset(np.arange(1, 4), flags, [[True, 0]] * 3)
        for name in SurvivalDataset.__slots__:
            got, expected = getattr(ds, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert TimeGrid((1, np.float32(2.5)), np.int64(3)) == TimeGrid((1.0, 2.5), 3.0)
    gamma = GammaProcessPrior(np.array([1, 2]), np.float32(0.5))
    assert gamma.increments.tolist() == [1.0, 2.0]
    assert gamma.c.dtype == float and gamma.c.shape == () and gamma.c == 0.5
    assert BetaPrior.isotropic(np.int64(1), 2, 2).cov.tobytes() == (
        BetaPrior.isotropic(1.0, 2.0, 2).cov.tobytes()
    )
    assert SimConfig(10, 2, [1, True], censor_rate=1).beta_true == (1.0, 1.0)
    interval = hpd_interval(_posterior(), np.float64(0.9))
    assert type(interval.coverage) is float
    assert interval.upper.tobytes() == hpd_interval(_posterior(), 0.9).upper.tobytes()


def test_csv_round_trip_is_identity(tmp_path):
    rng = np.random.default_rng(42)
    n = 30
    ds = SurvivalDataset(
        rng.uniform(0.01, 9.0, n), rng.random(n) < 0.7, rng.uniform(0, 4, (n, 3))
    )
    if not ds.events.any():
        raise AssertionError("fixture needs at least one event")
    path = tmp_path / "ds.csv"
    write_dataset_csv(ds, path, names=["a", "b", "c"])
    back, names = read_dataset_csv(path)
    assert list(names) == ["a", "b", "c"]
    np.testing.assert_array_equal(back.times, ds.times)
    np.testing.assert_array_equal(back.events, ds.events)
    np.testing.assert_array_equal(back.covariates, ds.covariates)


def one_prior_mixtures(posts):
    """The BaselineMixtures of one prior whose rows are the Posterior
    records ``posts``, or None for no record."""
    if not posts:
        return None
    moments = [[[getattr(p, name) for p in posts]] for name in ("rate", "mean", "variance")]
    return BaselineMixtures(
        np.array([p.interval for p in posts]),
        *np.array(moments, dtype=float),
        np.array([x for p in posts for x in p.log_weights], dtype=float),
        np.array([x for p in posts for x in p.shape_offsets], dtype=float),
        np.cumsum([0] + [len(p.log_weights) for p in posts]),
    )


def test_fit_result_dict_round_trip():
    post = Posterior(
        interval=1,
        log_weights=(-0.5, -1.2),
        shape_offsets=(0.3, 1.3),
        rate=4.2,
        mean=0.31,
        variance=0.07,
    )
    result = FitResult(
        beta_hat=(0.5, 0.0),
        ly_beta=(0.52, -0.01),
        sigma_hat=(0.1, 0.2),
        hpd=((0.3, 0.7), (0.0, 0.4)),
        coverage=0.95,
        baseline=one_prior_mixtures([post]),
    )
    back = FitResult.from_dict(result.to_dict())
    assert back == result
    # a mixture of fewer shapes than weights is rejected, not realigned
    data = result.to_dict()
    data["baseline"] = [{**data["baseline"][0], "shape_offsets": (0.3,)}]
    with pytest.raises(DimensionMismatch, match="one shape offset a log weight"):
        FitResult.from_dict(data)


FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def fit_results(draw):
    k = draw(st.integers(1, 4))
    floats = st.lists(FLOATS, min_size=k, max_size=k).map(tuple)
    posts = []
    for j in range(draw(st.integers(0, 3))):
        size = draw(st.integers(0, 4))
        mixture = st.lists(FLOATS, min_size=size, max_size=size).map(tuple)
        posts.append(
            Posterior(j + 1, draw(mixture), draw(mixture), draw(FLOATS), draw(FLOATS), draw(FLOATS))
        )
    return FitResult(
        beta_hat=draw(floats),
        ly_beta=draw(floats),
        sigma_hat=draw(floats),
        hpd=tuple(zip(draw(floats), draw(floats))),
        coverage=draw(FLOATS),
        baseline=one_prior_mixtures(posts),
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(result=fit_results())
def test_fit_result_json_round_trip_is_the_identity(result):
    # fit.json's "fit" object, read back, gives the same result and text
    text = json.dumps(result.to_dict())
    back = FitResult.from_dict(json.loads(text))
    assert back == result
    assert json.dumps(back.to_dict()) == text
