"""Exception types shared across the package."""


class FilteringError(Exception):
    """Base class for every error raised by rsfilt."""


class DimensionMismatch(FilteringError):
    """Array shapes are inconsistent with the declared model dimensions.

    ``param`` names the builder argument at fault when a single one is.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class NotPositiveSemidefinite(FilteringError):
    """A covariance table fails the positive-semidefiniteness check."""

    def __init__(self, message, worst_eigenvalue=None):
        super().__init__(message)
        self.worst_eigenvalue = worst_eigenvalue


class NegativeVariance(FilteringError):
    """A variance parameter is negative; ``param`` names the builder argument."""

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class FactorizationFailure(FilteringError):
    """A covariance could not be factorized even after jitter."""


class InfeasibleCondition(FilteringError):
    """The two-index Riccati recursion left its feasibility region.

    ``first_violation`` is the 1-based step at which the violated clause
    (recorded in ``clause``) first failed.
    """

    def __init__(self, message, first_violation=None, clause=None):
        super().__init__(message)
        self.first_violation = first_violation
        self.clause = clause


class SingularInnovationMatrix(FilteringError):
    """An innovation block is singular or too ill-conditioned to invert."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InconsistentRecursion(FilteringError):
    """Two independent computations of the same quantity disagree."""


class SingularConditioning(FilteringError):
    """The observed block of a joint Gaussian is numerically singular."""


class TransformDiverges(FilteringError):
    """An exponential-quadratic expectation does not exist (integral diverges)."""


class NoConvergence(FilteringError):
    """An iterative search exhausted its evaluation budget."""


class OverflowDominated(FilteringError):
    """Too many Monte Carlo paths overflowed the exponent cap."""


class DomainError(FilteringError):
    """Arguments lie outside the mathematical domain of the operation."""


class ConfigError(FilteringError):
    """A configuration document failed validation.

    ``field`` holds a dotted path to the offending entry when known.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
