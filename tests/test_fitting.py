"""The library entry point as the README shows it, and its prior checks."""

import re
from pathlib import Path

import numpy as np
import pytest

import addhaz
from addhaz.data_model import (
    DEFAULT_QUANTILES,
    GammaProcessPrior,
    SurvivalDataset,
    grid_from_quantiles,
)
from addhaz.dataio import read_dataset_csv
from addhaz.errors import DimensionMismatch
from addhaz.simulate import SimConfig, _draw_chunk
from oracles import write_dataset_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def sample_dataset(k=2, n=200):
    cfg = SimConfig(n=n, replicates=2, beta_true=(0.5, 0.25)[:k], seed=3)
    return _draw_chunk(cfg, 0, 1)


def test_readme_library_example_runs_on_the_default_grid():
    (code,) = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    sample = sample_dataset()
    scope = {"times": sample.times, "events": sample.events, "covariates": sample.covariates}
    exec(code, scope)
    ds, result = scope["ds"], scope["result"]
    # the default grid: quantile cuts of the event times up to the largest time
    grid = grid_from_quantiles(ds, DEFAULT_QUANTILES, float(np.max(ds.times)))
    assert grid_from_quantiles(ds) == grid
    assert grid.m == len(DEFAULT_QUANTILES) + 1
    explicit = addhaz.fit(
        ds,
        grid,
        beta_prior=addhaz.BetaPrior.isotropic(0.5, 10.0, ds.k),
        gamma_prior=GammaProcessPrior.from_shape(grid.boundaries, 1.0),
    )
    assert result == explicit
    assert len(result.beta_hat) == len(result.sigma_hat) == len(result.hpd) == ds.k
    assert all(type(v) is float for pair in result.hpd for v in pair)
    assert all(type(v) is float for v in result.sigma_hat)
    assert len(result.baseline) == grid.m


def test_gamma_prior_must_cover_every_grid_interval():
    ds = sample_dataset()
    with pytest.raises(DimensionMismatch, match="one increment per grid interval"):
        addhaz.fit(ds, gamma_prior=GammaProcessPrior([1.0, 1.0], 1.0))


def floats_in(value):
    """Every float in a nested structure of dicts, tuples and lists."""
    if isinstance(value, dict):
        return [x for item in value.values() for x in floats_in(item)]
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in floats_in(item)]
    return [float(value)] if isinstance(value, float) else []


@pytest.mark.parametrize(
    "n, decimals",
    [
        (1500, None),  # every interval on the exact mixture
        (1500, 2),  # times rounded to 2 decimals: about 190 distinct times
        (8000, None),  # about 1200 events per interval: quadrature
    ],
)
def test_fit_does_not_depend_on_the_row_order(tmp_path, n, decimals):
    ds = sample_dataset(n=n)
    if decimals is not None:
        ds = SurvivalDataset(np.round(ds.times, decimals), ds.events, ds.covariates)
    path, shuffled = tmp_path / "ds.csv", tmp_path / "shuffled.csv"
    write_dataset_csv(ds, path)
    header, *rows = path.read_text().splitlines(keepends=True)
    order = np.random.default_rng(5).permutation(len(rows))
    shuffled.write_text(header + "".join(rows[i] for i in order))
    floats = []
    for csv_path in (path, shuffled):
        result = addhaz.fit(read_dataset_csv(csv_path)[0]).to_dict()
        # log_weights are excluded: the smallest weights carry few digits
        result["baseline"] = [{**p, "log_weights": ()} for p in result["baseline"]]
        floats.append(floats_in(result))
    assert len(floats[0]) > 4 * ds.k
    np.testing.assert_allclose(floats[1], floats[0], rtol=1e-10, atol=0)
