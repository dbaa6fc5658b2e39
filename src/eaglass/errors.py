"""Shared exception types."""


class EaglassError(Exception):
    """Base class for package errors."""


class BudgetExceededError(EaglassError):
    """An enumeration or state space exceeded its configured budget."""


class ConfigError(EaglassError, ValueError):
    """Invalid experiment or distribution configuration."""


class SampleError(EaglassError):
    """One sample of an experiment run raised an exception.

    Carries a reproducer string sufficient to replay the single sample.
    """

    def __init__(self, message, reproducer=None):
        super().__init__(message)
        self.reproducer = reproducer


class HardAssertionFailure(SampleError):
    """A per-sample hard assertion failed during an experiment run."""
