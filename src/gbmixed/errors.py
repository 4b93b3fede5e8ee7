"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
data problems exit 3, numerical failures exit 4.
"""


class GBMixedError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(GBMixedError):
    """Invalid configuration: bad field values, unknown keys, bad usage."""

    exit_code = 2


class DataError(GBMixedError):
    """Invalid or unusable input data."""

    exit_code = 3


class NumericalError(GBMixedError):
    """Numerical failure during fitting or prediction."""

    exit_code = 4


class SingularCovarianceError(NumericalError):
    """A group's marginal covariance stayed non-positive-definite after jitter.

    Raised by the per-group likelihood functions and the BLUP path, which
    factor the n_i x n_i covariance. The stacked kernel used in fitting
    factors only I + W' R^{-1} W and applies no jitter.
    """
