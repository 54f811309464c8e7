"""Additive hazards estimation with a hybrid Bayesian coefficient posterior
and a conjugate gamma-mixture posterior for the piecewise baseline hazard.

The top level holds the data types, the priors, ``fit`` and the readers;
every other name is imported from its own submodule."""

from .data_model import BetaPrior, FitResult, GammaProcessPrior, SurvivalDataset, TimeGrid
from .fitting import fit
from .dataio import read_dataset_csv, read_transformed_cohort_csv
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BetaPrior",
    "FitResult",
    "GammaProcessPrior",
    "SurvivalDataset",
    "TimeGrid",
    "errors",
    "fit",
    "read_dataset_csv",
    "read_transformed_cohort_csv",
]
