"""Generator law checks and reproducibility of the replication studies."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from addhaz import simulate
from addhaz.data_model import SurvivalDataset, TimeGrid, _row_blocks
from addhaz.errors import (
    AddhazError,
    DimensionMismatch,
    ExcessiveReplicateDrops,
    NoEvents,
    NonNegativityViolation,
    OutOfRange,
    SingularCovariance,
)
from addhaz.simulate import (
    SimConfig,
    _draw_chunk,
    _event_times,
    run_baseline_experiment,
    run_beta_experiment,
)

from oracles import draw_dataset, draw_event_time, draw_event_times, replicate_estimates


def config(**overrides):
    base = dict(n=100, replicates=10, beta_true=(0.5,), seed=0)
    base.update(overrides)
    return SimConfig(**base)


def test_constant_hazard_is_exact_exponential():
    # criterion: KS distance of 1e5 draws vs Exp(1) below the 99% critical
    # value 1.628/sqrt(n) ~ 0.00515, rounded up to 0.006
    rng = np.random.default_rng(12345)
    draws = _event_times(rng.exponential(size=100_000), np.zeros(100_000))
    stat = kstest(draws, "expon").statistic
    assert stat < 0.006


def test_covariate_shifts_rate():
    rng = np.random.default_rng(7)
    draws = _event_times(rng.exponential(size=100_000), np.full(100_000, 2.0 * 0.5))
    # total hazard 1 + 0.5*2 = 2, so the mean is 0.5 with sd 0.5
    se = 0.5 / np.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3 * se


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    offsets=st.lists(st.just(0.0) | st.floats(1e-6, 1e3), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_draws_match_the_row_oracle_bit_for_bit(offsets, seed):
    want = draw_event_times(offsets, np.random.default_rng(seed))
    draws = np.random.default_rng(seed).exponential(size=len(offsets))
    got = _event_times(draws, np.array(offsets))
    assert got.tobytes() == want.tobytes()


def test_event_time_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        draw_event_time([1.0, 2.0], [0.5], rng)
    with pytest.raises(NonNegativityViolation):
        draw_event_time([-1.0], [0.5], rng)


def test_zero_censor_rate_keeps_every_event():
    cfg = config(n=200, replicates=3, censor_rate=0.0)
    assert _draw_chunk(cfg, 0, cfg.replicates).events.all()


def test_censoring_fraction_frozen_regression():
    # regression value from this generator's first large run; the event
    # fraction at the standard setup is ~0.728
    cfg = config(n=100_000, replicates=2, seed=123)
    ds = _draw_chunk(cfg, 0, 1)
    assert ds.events.mean() == pytest.approx(0.728200, abs=1e-6)
    # stability across a different stream, looser band
    ds2 = _draw_chunk(cfg, 1, 1)
    assert abs(ds2.events.mean() - 0.7282) < 0.01


def test_seeded_runs_are_bit_identical():
    cfg = config(replicates=8, n=60)
    a = run_beta_experiment(cfg, (0.0, 0.5), (0.1, 1000.0))
    b = run_beta_experiment(cfg, (0.0, 0.5), (0.1, 1000.0))
    assert a.to_csv_text() == b.to_csv_text()
    assert a.rows == b.rows

    grid = TimeGrid((0.125, 0.3, 0.6), 1.15)
    c = run_baseline_experiment(cfg, (1.0,), (5.0, 1.0, 0.3, 0.01), grid=grid)
    d = run_baseline_experiment(cfg, (1.0,), (5.0, 1.0, 0.3, 0.01), grid=grid)
    assert c.to_csv_text() == d.to_csv_text()


def test_replicates_use_independent_substreams():
    # rerunning with more replicates must not change the earlier ones'
    # datasets; the first cells of both runs see identical replicate draws
    cfg_small = config(replicates=3, n=50)
    cfg_large = config(replicates=6, n=50)
    # compare through the reported LY column of a single-cell sweep
    a = run_beta_experiment(cfg_small, (0.5,), (1e6,))
    b = run_beta_experiment(cfg_large, (0.5,), (1e6,))
    # means differ (different replicate counts) but determinism of the
    # shared prefix shows through rerunning the small config
    c = run_beta_experiment(cfg_small, (0.5,), (1e6,))
    ref = ("reference", "flat", 1)
    assert dict(a.rows)[ref] == dict(c.rows)[ref]
    assert dict(a.rows)[ref] != dict(b.rows)[ref]


def test_flat_prior_cells_match_reference_column():
    cfg = config(n=500, replicates=200)
    report = run_beta_experiment(cfg, (0.0, 10.0), (1e6,))
    # with omega = 1e6 the prior mean is irrelevant and every cell
    # reproduces the unpenalized estimates
    cells = dict(report.rows)
    ly_mean, _, ly_mc_sd = cells[("reference", "flat", 1)]
    for mu in (0.0, 10.0):
        mean, _, mc_sd = cells[(mu, 1e6, 1)]
        assert abs(mean - ly_mean) < 1e-4
        assert abs(mc_sd - ly_mc_sd) < 1e-4


def test_beta_study_grid_shapes_and_csv():
    cfg = config(replicates=5, n=60)
    report = run_beta_experiment(cfg, (0.0, 0.5, 1.0), (0.1, 1.0))
    assert [labels for labels, _ in report.rows] == [
        (mu, om, 1) for mu in (0.0, 0.5, 1.0) for om in (0.1, 1.0)
    ] + [("reference", "flat", 1)]
    assert all(len(values) == 3 for _, values in report.rows)
    assert report.columns[0] == "mu"
    csv = report.to_csv_text()
    assert csv.count("\n") == 3 * 2 + 1 + 1  # cells + reference row + header
    table = report.to_table_text()
    assert "mu \\ omega" in table
    # every numeric field must be plain digits that float() accepts, and the
    # mean column must round-trip the stored value exactly
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    for row in rows[:-1]:
        assert all(float(field) is not None for field in row)
    assert float(rows[0][3]) == report.rows[0][1][0]
    assert float(rows[-1][3]) == report.rows[-1][1][0]


def test_baseline_study_prior_to_data_ordering():
    grid = TimeGrid((0.125, 0.3, 0.6), 1.15)
    cfg = config(n=100, replicates=60, seed=11)
    report = run_baseline_experiment(
        cfg, (10.0, 1.0, 0.1), (5.0, 1.0, 0.3, 0.01), grid=grid
    )
    cells = dict(report.rows)
    first = [cells[(c, 1)][0] for c in (10.0, 1.0, 0.1)]
    # interval 1: prior shape 5 vs true increment 0.125; the estimate must
    # march from prior-dominated down toward the data value as c shrinks
    assert first[0] > first[1] > first[2]
    assert list(cells) == [(c, j) for c in (10.0, 1.0, 0.1) for j in (1, 2, 3, 4)]
    assert all(sd >= 0 for _, sd, _ in cells.values())
    rows = [line.split(",") for line in report.to_csv_text().strip().splitlines()[1:]]
    assert len(rows) == 3 * 4
    for row in rows:
        assert all(float(field) is not None for field in row)
    assert float(rows[0][2]) == cells[(10.0, 1)][0]


def test_baseline_study_hands_over_the_requested_increments(monkeypatch):
    # the priors reach the posterior holding the increments as given, with
    # no cumsum/diff round trip and no padding past the reported intervals
    seen = []
    original = simulate.increment_posteriors

    def spy(ds, grid, beta, priors):
        seen.append(priors)
        return original(ds, grid, beta, priors)

    monkeypatch.setattr(simulate, "increment_posteriors", spy)
    grid = TimeGrid((0.125, 0.3, 0.6, 0.9), 1.15)
    cfg = config(n=60, replicates=3, seed=2)
    simulate.run_baseline_experiment(cfg, (10.0, 0.1), (5.0, 1.0, 0.3, 0.01), grid=grid)
    assert len(seen) == 3 and all(priors is seen[0] for priors in seen)
    assert [p.c for p in seen[0]] == [10.0, 0.1]
    for prior in seen[0]:
        assert prior.increments.tolist() == [5.0, 1.0, 0.3, 0.01]


def test_baseline_sd_grows_with_interval_index():
    # later intervals have fewer subjects still at risk, so the replicate
    # dispersion of the increment estimates grows along the grid; checked
    # on the standard four-interval setup at n=500
    grid = TimeGrid((0.125, 0.3, 0.6), 1.15)
    cfg = config(n=500, replicates=1000, seed=0)
    report = run_baseline_experiment(
        cfg, (10.0, 1.0, 0.1), (5.0, 1.0, 0.3, 0.01), grid=grid
    )
    cells = dict(report.rows)
    for c in (10.0, 1.0, 0.1):
        sds = [cells[(c, j)][1] for j in (1, 2, 3, 4)]
        assert all(a < b for a, b in zip(sds, sds[1:]))


def test_baseline_quantile_grid_path():
    cfg = config(n=120, replicates=12, seed=4)
    report = run_baseline_experiment(cfg, (1.0,), (5.0, 1.0, 0.3, 0.01))
    assert [labels for labels, _ in report.rows] == [(1.0, j) for j in (1, 2, 3, 4)]
    assert all(values[0] > 0 for _, values in report.rows)


def test_quantile_grid_study_reports_every_interval_of_its_grid():
    # four default quantiles make five intervals, so five increments fit
    cfg = config(n=120, replicates=12, seed=4)
    report = run_baseline_experiment(cfg, (1.0,), (1.0,) * 5)
    assert [labels for labels, _ in report.rows] == [(1.0, j) for j in (1, 2, 3, 4, 5)]
    assert report.dropped == 0


def test_excessive_drops_abort():
    # n=2 gives at most two distinct event times, so a four-cut quantile
    # grid collapses in every replicate; censoring off keeps datasets valid
    cfg = config(n=2, replicates=10, censor_rate=0.0)
    with pytest.raises(ExcessiveReplicateDrops):
        run_baseline_experiment(cfg, (1.0,), (5.0, 1.0, 0.3, 0.01))
    # with two covariates, n=2 leaves V2 of rank 1: every replicate's
    # design is singular, so the coefficient study drops all ten
    cfg = config(n=2, replicates=10, beta_true=(0.5, 0.5), censor_rate=0.0)
    with pytest.raises(ExcessiveReplicateDrops, match="10 of 10"):
        run_beta_experiment(cfg, (0.5,), (1.0,))


# every event at the largest time leaves no quantile cut below it
NO_CUT = SurvivalDataset([1.0, 1.0, 1.0], [True] * 3, [[0.5], [0.2], [0.3]])
# two distinct event times leave one cut: two intervals, fewer than three reported
ONE_CUT = SurvivalDataset([0.5, 1.0, 1.0, 1.0], [True] * 4, [[0.5], [0.2], [0.3], [0.1]])


@pytest.mark.parametrize(
    "bad, dropped",
    [({3: NO_CUT}, 1), ({7: ONE_CUT}, 1), ({0: NO_CUT, 9: ONE_CUT}, 2)],
)
def test_baseline_study_drops_replicates_without_their_own_grid(monkeypatch, bad, dropped):
    # chunks of three replicates, so the replaced ones sit on both sides of
    # chunk boundaries; no replicate of this study is singular, so the r-th
    # dataset seen is replicate r
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 3 * 80)
    original = simulate._chunks

    def chunks(cfg):
        r = 0
        for datasets, estimate in original(cfg):
            yield [bad.get(r + i, ds) for i, ds in enumerate(datasets)], estimate
            r += len(datasets)
        assert r == cfg.replicates

    monkeypatch.setattr(simulate, "_chunks", chunks)
    cfg = config(n=80, replicates=10, seed=5)
    with pytest.raises(ExcessiveReplicateDrops, match=f"^{dropped} of 10 replicates dropped$"):
        run_baseline_experiment(cfg, (1.0,), (5.0, 1.0, 0.3))


def test_config_validation():
    with pytest.raises(DimensionMismatch):
        config(n=1)
    with pytest.raises(NonNegativityViolation):
        config(beta_true=(-0.5,))
    with pytest.raises(DimensionMismatch):
        config(beta_true=())
    with pytest.raises(NonNegativityViolation):
        config(censor_rate=-1.0)
    for bad in (dict(censor_rate=np.inf), dict(censor_rate=np.nan), dict(beta_true=(np.inf,)),
                dict(beta_true=(0.5, np.nan)), dict(beta_true=(-np.inf,))):
        with pytest.raises(OutOfRange, match="finite"):
            config(**bad)
    for bad in (dict(n=30.5), dict(replicates=2.5), dict(n="30")):
        with pytest.raises(DimensionMismatch):
            config(**bad)
    for seed in (-3, 1.5, np.float64(2.0)):
        with pytest.raises(NonNegativityViolation):
            config(seed=seed)
    assert config(n=np.int64(30), seed=np.int64(4)).seed == 4


def test_empty_grids_rejected():
    cfg = config()
    with pytest.raises(DimensionMismatch):
        run_beta_experiment(cfg, (), (1.0,))
    with pytest.raises(SingularCovariance):
        run_beta_experiment(cfg, (0.5,), (0.0,))
    with pytest.raises(DimensionMismatch):
        run_baseline_experiment(cfg, (), (5.0,))
    with pytest.raises(DimensionMismatch):
        run_baseline_experiment(
            cfg, (1.0,), (5.0, 1.0, 0.3), grid=TimeGrid((0.5,), 1.0)
        )


def test_a_coefficient_study_makes_one_posterior_call(monkeypatch):
    # every cell's prior in one stack, over every chunk's estimates at once
    priors = []
    original = simulate.pseudo_posterior

    def spy(estimate, prior):
        priors.append(prior)
        return original(estimate, prior)

    monkeypatch.setattr(simulate, "pseudo_posterior", spy)
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 2 * 60)
    report = run_beta_experiment(config(n=60, replicates=5, seed=3), (0.0, 0.5, 1.0), (0.1, 1.0))
    assert len(priors) == 1 and priors[0].mu.shape == (6, 1, 1)
    assert priors[0].mu[:, 0, 0].tolist() == [0.0, 0.0, 0.5, 0.5, 1.0, 1.0]
    assert priors[0].cov[:, 0, 0, 0].tolist() == [0.1, 1.0] * 3
    assert len(report.rows) == 6 + 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_study_whose_cell_statistics_overflow_fails_typed():
    # the estimates fit a float, but their spread over replicates does not
    cfg = config(n=10, replicates=3)
    for mu in (1e155, 1e308):
        with pytest.raises(OutOfRange, match="cell statistic"):
            run_beta_experiment(cfg, (mu,), (1.0,))
    cfg = config(n=20, replicates=3, seed=1)
    with pytest.raises(OutOfRange, match="cell statistic"):
        run_baseline_experiment(cfg, (1.0,), (1e200, 1.0), grid=TimeGrid((0.5,), 1.0))


def test_studies_need_two_replicates():
    # one replicate has no Monte Carlo sd
    with pytest.raises(DimensionMismatch, match="2 replicates"):
        config(n=30, replicates=1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    n=st.integers(2, 60),
    replicates=st.integers(2, 40),
    k=st.sampled_from([1, 2, 3]),
    censor_rate=st.sampled_from([0.0, 0.5, 5.0]),
    per_chunk=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_chunked_replicates_match_the_one_at_a_time_oracle(n, replicates, k, censor_rate, per_chunk, seed):
    # chunks of 1-3 replicates, so a study crosses several chunk boundaries;
    # n = 2 with k >= 2 leaves V2 singular, and those replicates are dropped
    cfg = SimConfig(n=n, replicates=replicates, beta_true=(0.5, 1.5, 0.25)[:k],
                    censor_rate=censor_rate, seed=seed)
    with mock.patch.object(simulate, "_CHUNK_ROWS", per_chunk * n):
        try:
            want = replicate_estimates(cfg)
        except NoEvents as exc:
            with pytest.raises(NoEvents, match=f"^{re.escape(str(exc))}$"):
                list(simulate._chunks(cfg))
            return
        got = list(simulate._chunks(cfg))
    assert all(len(datasets) <= per_chunk for datasets, _ in got)
    # every replicate's draws, kept or not, do not depend on the chunking
    whole = simulate._draw_chunk(cfg, 0, replicates)
    for name in ("times", "events", "covariates"):
        assert same_bits(getattr(whole, name), np.concatenate([getattr(ds, name) for ds, _ in want]))
    kept = [(ds, est) for ds, est in want if est is not None]
    datasets = [ds for chunk, _ in got for ds in chunk]
    assert len(datasets) == len(kept)  # the same replicates, hence the same drop count
    for ds, (want_ds, _) in zip(datasets, kept):
        for name in ("times", "events", "covariates"):
            assert same_bits(getattr(ds, name), getattr(want_ds, name))
    if kept:
        assert same_bits(np.concatenate([est.m for _, est in got]), np.array([est.m for _, est in kept]))
        assert same_bits(np.concatenate([est.d for _, est in got]), np.array([est.d for _, est in kept]))


def test_a_replicate_without_events_stops_the_study_as_before():
    # replicate 5 of this heavily censored study has no event, while the
    # other nine, drawn into the same chunk, have 16 between them
    cfg = config(n=20, replicates=10, censor_rate=20.0, seed=12)
    assert simulate._CHUNK_ROWS // cfg.n >= cfg.replicates
    assert draw_dataset(cfg, np.random.default_rng([cfg.seed, 0])).n_events > 0
    with pytest.raises(NoEvents) as oracle:
        replicate_estimates(cfg)
    message = f"^{re.escape(str(oracle.value))}$"
    assert str(oracle.value) == "dataset contains no uncensored observations"
    with pytest.raises(NoEvents, match=message):
        run_beta_experiment(cfg, (0.5,), (1.0,))
    with pytest.raises(NoEvents, match=message):
        run_baseline_experiment(cfg, (1.0,), (5.0, 1.0))


def test_row_blocks_are_read_only_views_equal_to_datasets_of_their_rows():
    cfg = config(n=30, replicates=4, beta_true=(0.5, 0.25))
    chunk = _draw_chunk(cfg, 0, cfg.replicates)
    blocks = _row_blocks(chunk, cfg.n)
    assert len(blocks) == cfg.replicates
    for i, block in enumerate(blocks):
        rows = slice(i * cfg.n, (i + 1) * cfg.n)
        alone = SurvivalDataset(chunk.times[rows], chunk.events[rows], chunk.covariates[rows])
        for name in ("times", "events", "covariates"):
            got = getattr(block, name)
            assert same_bits(got, getattr(alone, name))
            assert got.flags.c_contiguous and not got.flags.writeable
            assert np.shares_memory(got, getattr(chunk, name))
        assert (block.n, block.k) == (cfg.n, cfg.k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_true_coefficients_fail_typed_and_warn_nothing():
    # one decade at a time up to 1e308: a coefficient whose sandwich d still
    # fits a float gives finite cells; past that ly_solve's d overflows
    # (SingularCovariance), and at the top beta'z itself does (OutOfRange)
    studies = {
        "coefficient": lambda cfg: run_beta_experiment(cfg, (0.0,), (1.0,)),
        "baseline": lambda cfg: run_baseline_experiment(cfg, (1.0,), (1.0, 1.0)),
    }
    for kind, study in studies.items():
        outcomes = {}
        for decade in range(100, 309):
            cfg = config(n=50, replicates=3, beta_true=(float(f"1e{decade}"),))
            try:
                report = study(cfg)
            except AddhazError as exc:
                outcomes[decade] = type(exc)
                if isinstance(exc, SingularCovariance):
                    assert str(exc) == "sandwich covariance has non-finite entries"
                if isinstance(exc, OutOfRange):
                    assert str(exc) == "beta'z overflows"
            else:
                assert all(math.isfinite(v) for _, values in report.rows for v in values)
                outcomes[decade] = None
        assert outcomes[100] is None, kind
        assert outcomes[200] is SingularCovariance, kind
        assert outcomes[308] is OutOfRange, kind
        assert all(outcomes[d] is not None for d in range(200, 309)), kind
