"""Exception types shared across the package, the shared input-domain checks and count text."""

import math

import numpy as np


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
    """Problem instance exceeds a size limit: dense solve rows (``MAX_DENSE_ROWS``),
    Monte-Carlo batch values (``MAX_BATCH_ELEMENTS``) or trials (``MAX_TRIALS``),
    grid points (``MAX_GRID_POINTS``), benchmark repetitions (``MAX_REPEATS``),
    exhaustive-search pairs (``MAX_EXHAUSTIVE_PAIRS``), or block and copy
    counts of the copy scan beyond the int64 range."""


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


def check_integer_kinds(name: str, kinds) -> None:
    """Refuse with :class:`ModelError` any type in ``kinds`` but an integer type other than bool.

    A whole float or a bool is refused too: ``int()`` or an int64 cast would take it for a count."""
    for kind in dict.fromkeys(kinds):
        if not issubclass(kind, (int, np.integer)) or kind is bool:
            raise ModelError(f"{name} must be integers, got {kind.__name__}")


def _count_text(n: int) -> str:
    """``n`` in full up to 15 digits, else its leading digits as ``about -6.25e+307``.

    Read from the digits, not a float: a count may exceed the float range.
    """
    sign, digits = "-" if n < 0 else "", str(abs(n))
    if len(digits) <= 15:
        return sign + digits
    return f"about {sign}{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
