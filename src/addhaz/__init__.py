"""Additive hazards estimation with a hybrid Bayesian coefficient posterior
and a conjugate gamma-mixture posterior for the piecewise baseline hazard."""

from .data_model import (
    BaselineIncrementPosterior,
    BetaPrior,
    FitResult,
    GammaProcessPrior,
    SurvivalDataset,
    TimeGrid,
    grid_from_quantiles,
)
from .lin_ying import LYEstimate, LYStatistics, compute_statistics, ly_solve
from .hybrid_beta import (
    HpdInterval,
    PseudoPosterior,
    beta_mode,
    hpd_interval,
    pseudo_posterior,
    sigma_hat,
    significance_flag,
)
from .poly_coeffs import PolyCoefficients, poly_from_factors
from .baseline_posterior import (
    event_offsets_by_interval,
    increment_moments,
    increment_posterior,
    increment_posteriors,
    interval_summaries,
)
from .simulate import (
    PiecewiseConstantHazard,
    SimConfig,
    SimReport,
    run_baseline_experiment,
    run_beta_experiment,
)
from .fitting import fit
from .dataio import read_dataset_csv, read_transformed_cohort_csv, write_dataset_csv
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BaselineIncrementPosterior",
    "BetaPrior",
    "FitResult",
    "GammaProcessPrior",
    "HpdInterval",
    "LYEstimate",
    "LYStatistics",
    "PiecewiseConstantHazard",
    "PolyCoefficients",
    "PseudoPosterior",
    "SimConfig",
    "SimReport",
    "SurvivalDataset",
    "TimeGrid",
    "beta_mode",
    "compute_statistics",
    "errors",
    "event_offsets_by_interval",
    "fit",
    "grid_from_quantiles",
    "hpd_interval",
    "increment_moments",
    "increment_posterior",
    "increment_posteriors",
    "interval_summaries",
    "ly_solve",
    "poly_from_factors",
    "pseudo_posterior",
    "read_dataset_csv",
    "read_transformed_cohort_csv",
    "run_baseline_experiment",
    "run_beta_experiment",
    "sigma_hat",
    "significance_flag",
    "write_dataset_csv",
]
