"""A standing sweep of the prior-weight flags through ``cli.main``.

``simulate`` takes ``--c-grid`` and ``--alpha-increments``, ``fit`` takes
``--gamma-c`` and ``--alpha-at-cuts``; each is drawn log-uniform over the
whole range its validator accepts, subnormals to 1e308, on small data.  A
draw must exit 0 with finite outputs, or exit with the code of a typed
error and its one-line JSON record.  numpy's RuntimeWarnings are errors,
and each draw's traced allocations stay under 4 MB.

Finite outputs must also keep a relation that holds at any magnitude.
The posterior of an increment is a mixture of Gamma(c alpha + k, c_j) over
0 <= k <= N, the interval's N events, and c <= c_j <= c + n for n
subjects; so c_j times the mean lies in [c alpha, c alpha + N], and c_j^2
times the variance in [c alpha, c alpha + N + N^2 / 4].  Both hold to
rounding, and to 1e-300 where a moment underflows.
"""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from addhaz import errors
from addhaz.cli import main
from addhaz.simulate import SimConfig, _draw_chunk
from oracles import write_dataset_csv

# every positive finite float, from the smallest subnormal to 1e308
WEIGHTS = st.floats(-323.0, 308.0).map(lambda e: 10.0**e)
SMALL = dict(n=st.integers(20, 60), seed=st.integers(0, 2**16))


def run_main(argv):
    """(exit code, stderr) of one in-process CLI call, with warnings as
    errors and its traced allocations bounded."""
    err = io.StringIO()
    tracemalloc.start()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    return code, err.getvalue()


def assert_typed(code, err):
    record = json.loads(err.strip().splitlines()[-1])
    error = getattr(errors, record["error"])
    assert issubclass(error, errors.AddhazError)
    assert code == record["exit_code"] == error.exit_code != 0


def reject(constant):
    # json.dumps writes a non-finite float as a bare NaN or Infinity
    raise AssertionError(f"fit.json holds {constant}")


def assert_within(value, low, high):
    assert low * (1.0 - 1e-9) - 1e-300 <= value <= high * (1.0 + 1e-9) + 1e-300, (low, value, high)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    replicates=st.integers(2, 3),
    c_grid=st.lists(WEIGHTS, min_size=1, max_size=2),
    alphas=st.lists(WEIGHTS, min_size=2, max_size=2),
    **SMALL,
)
def test_baseline_study_is_right_or_typed_at_every_prior_weight(n, seed, replicates, c_grid, alphas):
    with tempfile.TemporaryDirectory() as out:
        code, err = run_main([
            "simulate", "--n", str(n), "--replicates", str(replicates), "--seed", str(seed),
            "--c-grid", ",".join(map(repr, c_grid)), "--alpha-increments", ",".join(map(repr, alphas)),
            "--grid-cuts", "0.5", "--t-final", "1.0", "--out", out,
        ])
        if code:
            return assert_typed(code, err)
        lines = (Path(out) / "cells.csv").read_text().splitlines()
    assert lines[0] == "c,interval,mean_increment,mc_sd_increment,mean_posterior_sd"
    for line in lines[1:]:
        c, j, mean, mc_sd, post_sd = map(float, line.split(","))
        assert all(math.isfinite(v) for v in (mean, mc_sd, post_sd))
        # each replicate's c_j lies in [c, c + n]; the bounds of every
        # replicate's variance hold for the squared mean sd too
        s0, high = c * alphas[int(j) - 1], c + n
        assert_within(mean, s0 / high, (s0 + n) / c)
        assert_within(post_sd * post_sd, s0 / high / high, (s0 + n + n * n / 4) / c / c)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(gamma_c=WEIGHTS, at_cuts=st.lists(WEIGHTS, min_size=2, max_size=2).map(sorted), **SMALL)
def test_fit_is_right_or_typed_at_every_prior_weight(n, seed, gamma_c, at_cuts):
    ds = _draw_chunk(SimConfig(n=n, replicates=2, beta_true=(0.5, 0.25), seed=seed), 0, 1)[0]
    with tempfile.TemporaryDirectory() as out:
        write_dataset_csv(ds, Path(out) / "ds.csv")
        code, err = run_main([
            "fit", "--input", str(Path(out) / "ds.csv"), "--grid-cuts", "1.0", "--t-final", "2.0",
            "--gamma-c", repr(gamma_c), "--alpha-at-cuts", ",".join(map(repr, at_cuts)),
            "--out", out,
        ])
        if code:
            return assert_typed(code, err)
        text = (Path(out) / "fit.json").read_text()
    fit = json.loads(text, parse_constant=reject)["fit"]
    increments = np.diff(at_cuts, prepend=0.0)
    events = np.bincount(np.searchsorted([1.0, 2.0], ds.times[ds.events]), minlength=3)
    for post, alpha, count in zip(fit["baseline"], increments.tolist(), events.tolist()):
        rate, mean, variance = post["rate"], post["mean"], post["variance"]
        s0 = gamma_c * alpha
        assert_within(mean, s0 / rate, (s0 + count) / rate)
        assert_within(variance, s0 / rate / rate, (s0 + count + count * count / 4) / rate / rate)
