"""Exception types shared across the package.

Every error that library code raises deliberately derives from AddhazError,
so the command line front end can map each failure class to a stable exit
code and a machine readable record.
"""

from __future__ import annotations


class AddhazError(Exception):
    """Base class for all domain errors raised by this package."""


class NonNegativityViolation(AddhazError):
    """A time, covariate, or regression coefficient that must be >= 0 is not."""


class DimensionMismatch(AddhazError):
    """Covariate vectors, priors, or grids disagree on dimension."""


class NoEvents(AddhazError):
    """The dataset contains no uncensored observations."""


class DegenerateGrid(AddhazError):
    """A time grid could not be formed (no usable cut points)."""


class OutOfRange(AddhazError):
    """A time, covariate or prior mean is non-finite, or a time exceeds t_final."""


class EmptyRiskSet(AddhazError):
    """No subject remains at risk at the requested time."""


class SingularDesign(AddhazError):
    """The integrated design matrix is numerically singular."""


class SingularCovariance(AddhazError):
    """A covariance matrix required to be positive definite is not."""


class ImproperPosterior(AddhazError):
    """The baseline increment posterior does not integrate to a finite mass."""


class InvalidCoverage(AddhazError):
    """A credible-interval coverage level is outside (0, 1)."""


class DatasetFormatError(AddhazError):
    """An input file does not follow the documented CSV layout."""


class ExcessiveReplicateDrops(AddhazError):
    """More than 1% of simulation replicates had to be discarded."""
