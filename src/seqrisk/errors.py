"""Exception types shared across the package."""


class SeqriskError(Exception):
    """Base class for all package-specific errors."""


class ModelValidationError(SeqriskError):
    """A model failed stochasticity or structural validation."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InstanceTooLargeError(SeqriskError):
    """Exhaustive enumeration would exceed the leaf-count guard."""


class CalibrationError(SeqriskError):
    """A requested outcome probability is not achievable for the chain family.

    ``achievable`` holds the (low, high) interval that bisection could reach.
    """

    def __init__(self, message, achievable=None):
        super().__init__(message)
        self.achievable = achievable


class UndefinedMetricError(SeqriskError):
    """A ranking metric was requested on single-class input."""


class EmptyPlotError(SeqriskError, ValueError):
    """A plot has no point to draw."""
