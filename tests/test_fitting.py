"""The library entry point as the README shows it, and its prior checks."""

import re
from pathlib import Path

import numpy as np
import pytest

import addhaz
from addhaz.data_model import GammaProcessPrior, grid_from_quantiles
from addhaz.errors import DimensionMismatch
from addhaz.fitting import DEFAULT_QUANTILES
from addhaz.simulate import SimConfig, _draw_dataset, _replicate_rng

README = Path(__file__).resolve().parents[1] / "README.md"


def sample_dataset(k=2):
    cfg = SimConfig(n=200, replicates=1, beta_true=(0.5, 0.25)[:k], seed=3)
    return _draw_dataset(cfg, _replicate_rng(cfg, 0))


def test_readme_library_example_runs_on_the_default_grid():
    (code,) = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    sample = sample_dataset()
    scope = {"times": sample.times, "events": sample.events, "covariates": sample.covariates}
    exec(code, scope)
    ds, result = scope["ds"], scope["result"]
    # the default grid: quantile cuts of the event times up to the largest time
    grid = grid_from_quantiles(ds, DEFAULT_QUANTILES, float(np.max(ds.times)))
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
