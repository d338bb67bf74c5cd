"""Closed-form LMMSE filter and MSE for the orthonormal-block model.

Under the identity prior and the block structure of
:class:`~mixedres.model.OrthoBlockParams`, the LMMSE solution collapses to
two scalar coefficients and the MSE to O(1) scalar arithmetic in
(m, n_a, n_q, rho_a, rho_q) and the path variances, noise plus any dither.
Every formula here is cross-validated against the matrix-solve path in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AssumptionViolationError, NumericalDomainError
from .estimator import LmmseFilter
from .model import OrthoBlockParams

# Max-abs tolerance, relative to the scale of each Gram or block, when
# verifying the block structure of explicit matrices.
ASSUMPTION_TOL = 1e-8


@dataclass(frozen=True)
class ClosedFormMse:
    """Closed-form MSE value together with its two scalar coefficients.

    ``alpha`` lies in [0, 1) and captures the quantizer correlation loss;
    ``beta`` is positive for all admissible parameters, which is what makes
    an extra quantized measurement always (weakly) helpful.
    """

    value: float
    alpha: float
    beta: float


def alpha(rho_q, var_q_total):
    """Quantizer loss coefficient, (2/pi) * arccos(rho_q / (rho_q + var_q_total)).

    The arccos form is numerically stable as var_q_total -> 0.  Broadcasts
    over array arguments.
    """
    return (2.0 / np.pi) * np.arccos(rho_q / (rho_q + var_q_total))


def beta(n_a, rho_a, rho_q, var_a_total, var_q_total):
    """Quantized-path gain coefficient of the closed-form MSE.

    With no analog measurements the second term vanishes identically, which
    also resolves the 0/0 arising when var_a_total is zero as well.
    Broadcasts over array arguments and selects per element; scalar
    arguments give a NumPy scalar.
    """
    n_a = np.asarray(n_a)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Extreme inputs may overflow; mse_grid checks the value it selects.
        first = (2.0 / np.pi) * np.arcsin(rho_q / (rho_q + var_q_total)) / rho_q
        share = 2.0 * rho_a * n_a / (np.pi * (rho_q + var_q_total) * (rho_a * n_a + var_a_total))
        return np.where(n_a == 0, first, first - share)[()]


def _square(x):
    # Not ``x**2``: an array's ``**`` multiplies, which differs in the last bit
    # for about one value in a thousand from the libm pow that the reference
    # loops in the tests square floats with; float_power calls pow.
    return np.float_power(x, 2.0)


def _pure_analog(m, n_a, rho_a, var_a_total):
    return m - m * rho_a * n_a / (rho_a * n_a + var_a_total)


def _pure_quantized(m, n_q, rho_q, var_q_total, a):
    return m - 2.0 * m * rho_q * n_q / (np.pi * (rho_q + var_q_total) * (a + (1.0 - a) * n_q))


def _mixed(m, n_a, n_q, rho_a, rho_q, var_a_total, var_q_total, a, b):
    da = rho_a * n_a + var_a_total
    s = a + b * rho_q * n_q
    term = rho_a * n_a / da + 2.0 * rho_q * n_q * _square(var_a_total) / (
        np.pi * (rho_q + var_q_total) * s * _square(da)
    )
    return m * (1.0 - term)


# The absent path's rho and variance (1.0) are placeholders: the pure-path
# branch of mse_grid that these counts select does not depend on them.


def mse_pure_analog(m: int, n_a: int, rho_a: float, var_a_total: float) -> float:
    """MSE with analog measurements only (n_q = 0): the scalar view of :func:`mse_grid`."""
    return float(mse_grid(m, n_a, 0, rho_a, 1.0, var_a_total, 1.0))


def mse_pure_quantized(m: int, n_q: int, rho_q: float, var_q_total: float) -> float:
    """MSE with 1-bit quantized measurements only (n_a = 0): the scalar view of :func:`mse_grid`."""
    return float(mse_grid(m, 0, n_q, 1.0, rho_q, 1.0, var_q_total))


def mse_noiseless_quantized_limit(m: int, n_a: int, rho_a: float, var_a: float) -> float:
    """MSE limit as the quantized-path noise vanishes, for any n_q >= 1: :func:`mse_grid` at n_q = 1, var_q = 0.

    The value is constant in n_q: once the quantizer input is noiseless, a
    single quantized block extracts everything further blocks could; rho_q
    cancels from it.
    """
    return float(mse_grid(m, n_a, 1, rho_a, 1.0, var_a, 0.0))


def mse_grid(m, n_a, n_q, rho_a, rho_q, var_a_total, var_q_total) -> np.ndarray:
    """Closed-form MSE broadcast over array arguments.

    The one closed-form evaluator; :func:`mse_closed_form` is its scalar
    view.  Branch cases: with no measurements at all the MSE is the prior
    trace m; with one empty path the corresponding pure-path expression
    applies; with noiseless analog measurements (and n_a, n_q >= 1) the
    parameter is recovered exactly; the result is clamped at zero.  Counts
    may be integer or float arrays.  Finite but extreme inputs can overflow
    an intermediate; a non-finite result raises
    :class:`~mixedres.exceptions.NumericalDomainError`.
    """
    n_a = np.asarray(n_a)
    n_q = np.asarray(n_q)
    va = np.asarray(var_a_total, dtype=np.float64)
    # Branches are laid over each other from the last to the first, so where
    # several conditions hold the first one listed above wins.  Branches not
    # taken may hold NaN or inf, so only the final value is checked.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = alpha(rho_q, var_q_total)
        b = beta(n_a, rho_a, rho_q, va, var_q_total)
        value = _mixed(m, n_a, n_q, rho_a, rho_q, va, var_q_total, a, b)
        value = np.where(va == 0.0, 0.0, value)
        value = np.where(n_a == 0, _pure_quantized(m, n_q, rho_q, var_q_total, a), value)
        value = np.where(n_q == 0, _pure_analog(m, n_a, rho_a, va), value)
        value = np.where((n_a == 0) & (n_q == 0), m, value)
    if not np.all(np.isfinite(value)):
        raise NumericalDomainError("closed-form MSE is not finite; an intermediate overflowed")
    return np.where(value < 0.0, 0.0, value)


def mse_closed_form(params: OrthoBlockParams) -> ClosedFormMse:
    """Closed-form MSE of the LMMSE estimator for the orthonormal-block model.

    The scalar view of :func:`mse_grid`, with the two coefficients at the
    same point.  Dither enters only through the path variances.
    """
    va = params.var_a
    vq = params.var_q
    m, n_a, n_q = params.m, params.n_a, params.n_q
    rho_a, rho_q = params.rho_a, params.rho_q
    return ClosedFormMse(
        value=float(mse_grid(m, n_a, n_q, rho_a, rho_q, va, vq)),
        alpha=float(alpha(rho_q, vq)),
        beta=float(beta(n_a, rho_a, rho_q, va, vq)),
    )


def _check_block_structure(params: OrthoBlockParams, h: np.ndarray, g: np.ndarray) -> None:
    """Refuse matrices that break the orthonormal-block structure of ``params``.

    Each gap is measured against ``ASSUMPTION_TOL`` times the scale of its
    round-off, so that the same blocks in other units pass or fail alike:
    rho_a * n_a for h^H h, rho_q for the Gram of the quantized block and
    sqrt(rho_q) for the entries of its copies.
    """
    m = params.m
    if h.shape != (params.n_analog, m):
        raise AssumptionViolationError(f"h must have shape ({params.n_analog}, {m}), got {h.shape}")
    if g.shape != (params.n_quantized, m):
        raise AssumptionViolationError(f"g must have shape ({params.n_quantized}, {m}), got {g.shape}")
    if params.n_a:
        scale = params.rho_a * params.n_a
        gap = np.max(np.abs(h.conj().T @ h - scale * np.eye(m)))
        if gap > ASSUMPTION_TOL * scale:
            raise AssumptionViolationError(
                f"h^H h deviates from rho_a*n_a*I by {gap:.3e} (tolerance {ASSUMPTION_TOL * scale:.3e})"
            )
    if params.n_q:
        g1 = g[:m]
        gap = np.max(np.abs(g1.conj().T @ g1 - params.rho_q * np.eye(m)))
        if gap > ASSUMPTION_TOL * params.rho_q:
            raise AssumptionViolationError(
                f"g block deviates from rho_q*I by {gap:.3e} (tolerance {ASSUMPTION_TOL * params.rho_q:.3e})"
            )
        # The closed form also needs all quantized blocks to be identical.
        tol = ASSUMPTION_TOL * np.sqrt(params.rho_q)
        gaps = np.abs(g.reshape(params.n_q, m, m) - g1).max(axis=(1, 2))
        k = int(np.argmax(gaps > tol))
        if gaps[k] > tol:
            raise AssumptionViolationError(f"quantized block {k} differs from block 0 by {gaps[k]:.3e}")


def filter_closed_form(params: OrthoBlockParams, h: np.ndarray, g: np.ndarray) -> LmmseFilter:
    """Closed-form LMMSE filter [c1 * h^H | c2 * g^H] for explicit matrices.

    The matrices are verified against the orthonormal-block structure to
    ``ASSUMPTION_TOL``, relative to the block gains, before the scalar
    coefficients are used.
    """
    # First, so that inputs the closed form cannot evaluate are refused
    # before the structure check or the coefficients overflow.
    mse = mse_closed_form(params).value
    h = np.asarray(h, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    _check_block_structure(params, h, g)

    va = params.var_a
    vq = params.var_q
    m, n_a, n_q = params.m, params.n_a, params.n_q
    rho_a, rho_q = params.rho_a, params.rho_q
    # Like mse_grid, check only the coefficients that are used.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = alpha(rho_q, vq)
        b = beta(n_a, rho_a, rho_q, va, vq)
        if n_a == 0 and n_q == 0:
            c1 = c2 = 0.0
        elif n_q == 0:
            c1 = 1.0 / (rho_a * n_a + va)
            c2 = 0.0
        elif n_a == 0:
            # The analog variance cancels from c2 when there is no analog path.
            c1 = 0.0
            c2 = np.sqrt(2.0 / (np.pi * (rho_q + vq))) / (a + (1.0 - a) * n_q)
        else:
            da = rho_a * n_a + va
            s = a + b * rho_q * n_q
            c1 = 1.0 / da - 2.0 * rho_q * n_q * va / (np.pi * (rho_q + vq) * s * _square(da))
            c2 = np.sqrt(2.0 / (np.pi * (rho_q + vq))) * va / (s * da)
        w = np.concatenate([c1 * h.conj().T, c2 * g.conj().T], axis=1)
    if not np.isfinite(w).all():
        raise NumericalDomainError("closed-form filter is not finite; a coefficient overflowed")
    return LmmseFilter(w=w, mse=mse, condition=float("nan"))
