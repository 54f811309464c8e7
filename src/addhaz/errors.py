"""Exception types shared across the package.

Every error that library code raises deliberately derives from AddhazError.
Each class's ``exit_code`` is the stable exit status the command line front
end returns for it, next to a machine readable record; this module is the
only place that maps an error class to its code.
"""

from __future__ import annotations


class AddhazError(Exception):
    """Base class for all domain errors raised by this package."""
    exit_code = 1


class NonNegativityViolation(AddhazError):
    """A time, covariate, or regression coefficient that must be >= 0 is not."""
    exit_code = 10


class DimensionMismatch(AddhazError):
    """Covariate vectors, priors, or grids disagree on dimension."""
    exit_code = 11


class NoEvents(AddhazError):
    """The dataset contains no uncensored observations."""
    exit_code = 12


class DegenerateGrid(AddhazError):
    """A time grid could not be formed (no usable cut points)."""
    exit_code = 13


class OutOfRange(AddhazError):
    """A time, covariate or prior value is non-finite, or a time exceeds t_final."""
    exit_code = 14


class SingularDesign(AddhazError):
    """The integrated design matrix is numerically singular."""
    exit_code = 16


class SingularCovariance(AddhazError):
    """A covariance matrix required to be positive definite is not."""
    exit_code = 17


class ImproperPosterior(AddhazError):
    """The baseline increment posterior does not integrate to a finite mass."""
    exit_code = 18


class InvalidCoverage(AddhazError):
    """A credible-interval coverage level is outside (0, 1)."""
    exit_code = 19


class DatasetFormatError(AddhazError):
    """An input file does not follow the documented CSV layout."""
    exit_code = 21


class ExcessiveReplicateDrops(AddhazError):
    """More than 1% of simulation replicates had to be discarded."""
    exit_code = 20
