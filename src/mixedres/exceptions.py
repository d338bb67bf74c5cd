"""Exception types shared across the package, and the shared input-domain check."""

import math


class MixedResError(Exception):
    """Base class for every error raised by this package."""


class ModelError(MixedResError, ValueError):
    """Invalid model construction or a dimension mismatch."""


class QuantizerDomainError(MixedResError, ValueError):
    """Quantizer input is not finite."""


class SingularPriorError(MixedResError):
    """Prior covariance could not be factorized (not positive definite)."""


class DegenerateCovarianceError(MixedResError):
    """A covariance matrix has a zero or negative diagonal entry."""


class NumericalDomainError(MixedResError):
    """An intermediate value left its mathematically valid domain."""


class EstimatorUndefinedError(MixedResError):
    """Measurement covariance is singular or too ill-conditioned to solve.

    Carries the condition figure the solver refused (``math.inf`` when the
    factorization failed outright): LAPACK's 1-norm estimate for the
    prefix scan, and for ``lmmse`` and the copy-count scan a bound on the
    condition number of C_x from their copy-reduced factorizations.
    """

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class AssumptionViolationError(MixedResError):
    """Mixing matrices do not have the required orthonormal-block structure."""


class InstanceTooLargeError(MixedResError):
    """Problem instance exceeds the exhaustive reference solver's limits."""


class ConfigError(MixedResError):
    """Invalid experiment configuration."""


def require_finite(name: str, value, *, positive: bool = False) -> None:
    """Raise :class:`ModelError` unless ``value`` is finite and >= 0 (> 0 if ``positive``).

    A plain ``value < 0`` test lets NaN through, which then surfaces as a NaN
    result or an overflow far from the input that caused it.
    """
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        kind = "positive" if positive else "nonnegative"
        raise ModelError(f"{name} must be finite and {kind}, got {value!r}")
