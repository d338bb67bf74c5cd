"""Closed-form LMMSE filter and MSE for the orthonormal-block model.

Under the identity prior and the block structure of
:class:`~mixedres.model.OrthoBlockParams`, the LMMSE solution collapses to
two scalar coefficients and the MSE to O(1) scalar arithmetic in
(m, n_a, n_q, rho_a, rho_q) and the total (noise + dither) path variances.
Every formula here is cross-validated against the matrix-solve path in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AssumptionViolationError
from .estimator import LmmseFilter
from .model import OrthoBlockParams

# Max-abs tolerance when verifying the block structure of explicit matrices.
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
    first = (2.0 / np.pi) * np.arcsin(rho_q / (rho_q + var_q_total)) / rho_q
    with np.errstate(divide="ignore", invalid="ignore"):
        share = 2.0 * rho_a * n_a / (np.pi * (rho_q + var_q_total) * (rho_a * n_a + var_a_total))
        return np.where(n_a == 0, first, first - share)[()]


# The pure-path expressions serve both mse_grid and the public mse_pure_*
# functions, in one operation order, so both round identically.


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


def mse_pure_analog(m: int, n_a: int, rho_a: float, var_a_total: float) -> float:
    """MSE with analog measurements only (n_q = 0)."""
    if n_a == 0:
        return float(m)
    return _pure_analog(m, n_a, rho_a, var_a_total)


def mse_pure_quantized(m: int, n_q: int, rho_q: float, var_q_total: float) -> float:
    """MSE with 1-bit quantized measurements only (n_a = 0)."""
    if n_q == 0:
        return float(m)
    return _pure_quantized(m, n_q, rho_q, var_q_total, alpha(rho_q, var_q_total))


def mse_noiseless_quantized_limit(m: int, n_a: int, rho_a: float, var_a: float) -> float:
    """MSE limit as the quantized-path noise vanishes, for any n_q >= 1.

    The value is constant in n_q: once the quantizer input is noiseless, a
    single quantized block extracts everything further blocks could.
    """
    if n_a == 0:
        return m * (1.0 - 2.0 / np.pi)
    u = rho_a * n_a + var_a
    term = 2.0 * var_a**2 / (np.pi * u**2 - 2.0 * rho_a * n_a * u)
    return m - m * (rho_a * n_a / u + term)


def mse_grid(m, n_a, n_q, rho_a, rho_q, var_a_total, var_q_total) -> np.ndarray:
    """Closed-form MSE broadcast over array arguments.

    The one closed-form evaluator; :func:`mse_closed_form` is its scalar
    view.  Branch cases: with no measurements at all the MSE is the prior
    trace m; with one empty path the corresponding pure-path expression
    applies; with noiseless analog measurements (and n_a, n_q >= 1) the
    parameter is recovered exactly; the result is clamped at zero.  Counts
    may be integer or float arrays.
    """
    n_a = np.asarray(n_a)
    n_q = np.asarray(n_q)
    va = np.asarray(var_a_total, dtype=np.float64)
    a = alpha(rho_q, var_q_total)
    b = beta(n_a, rho_a, rho_q, va, var_q_total)
    # Branches are laid over each other from the last to the first, so where
    # several conditions hold the first one listed above wins.
    with np.errstate(divide="ignore", invalid="ignore"):
        value = _mixed(m, n_a, n_q, rho_a, rho_q, va, var_q_total, a, b)
        value = np.where(va == 0.0, 0.0, value)
        value = np.where(n_a == 0, _pure_quantized(m, n_q, rho_q, var_q_total, a), value)
        value = np.where(n_q == 0, _pure_analog(m, n_a, rho_a, va), value)
        value = np.where((n_a == 0) & (n_q == 0), m, value)
    return np.where(value < 0.0, 0.0, value)


def mse_closed_form(params: OrthoBlockParams) -> ClosedFormMse:
    """Closed-form MSE of the LMMSE estimator for the orthonormal-block model.

    The scalar view of :func:`mse_grid`, with the two coefficients at the
    same point.  Dither enters only through the total path variances.
    """
    va = params.var_a_total
    vq = params.var_q_total
    m, n_a, n_q = params.m, params.n_a, params.n_q
    rho_a, rho_q = params.rho_a, params.rho_q
    return ClosedFormMse(
        value=float(mse_grid(m, n_a, n_q, rho_a, rho_q, va, vq)),
        alpha=float(alpha(rho_q, vq)),
        beta=float(beta(n_a, rho_a, rho_q, va, vq)),
    )


def _check_block_structure(params: OrthoBlockParams, h: np.ndarray, g: np.ndarray) -> None:
    m = params.m
    if h.shape != (params.n_analog, m):
        raise AssumptionViolationError(f"h must have shape ({params.n_analog}, {m}), got {h.shape}")
    if g.shape != (params.n_quantized, m):
        raise AssumptionViolationError(f"g must have shape ({params.n_quantized}, {m}), got {g.shape}")
    if params.n_a:
        gap = np.max(np.abs(h.conj().T @ h - params.rho_a * params.n_a * np.eye(m)))
        if gap > ASSUMPTION_TOL:
            raise AssumptionViolationError(
                f"h^H h deviates from rho_a*n_a*I by {gap:.3e} (tolerance {ASSUMPTION_TOL})"
            )
    if params.n_q:
        g1 = g[:m]
        gap = np.max(np.abs(g1.conj().T @ g1 - params.rho_q * np.eye(m)))
        if gap > ASSUMPTION_TOL:
            raise AssumptionViolationError(
                f"g block deviates from rho_q*I by {gap:.3e} (tolerance {ASSUMPTION_TOL})"
            )
        # The closed form also needs all quantized blocks to be identical.
        for k in range(1, params.n_q):
            gap = np.max(np.abs(g[k * m : (k + 1) * m] - g1))
            if gap > ASSUMPTION_TOL:
                raise AssumptionViolationError(
                    f"quantized block {k} differs from block 0 by {gap:.3e}"
                )


def filter_closed_form(params: OrthoBlockParams, h: np.ndarray, g: np.ndarray) -> LmmseFilter:
    """Closed-form LMMSE filter [c1 * h^H | c2 * g^H] for explicit matrices.

    The matrices are verified against the orthonormal-block structure to
    ``ASSUMPTION_TOL`` before the scalar coefficients are used.
    """
    h = np.asarray(h, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    _check_block_structure(params, h, g)

    va = params.var_a_total
    vq = params.var_q_total
    m, n_a, n_q = params.m, params.n_a, params.n_q
    rho_a, rho_q = params.rho_a, params.rho_q
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
        c1 = 1.0 / da - 2.0 * rho_q * n_q * va / (np.pi * (rho_q + vq) * s * da**2)
        c2 = np.sqrt(2.0 / (np.pi * (rho_q + vq))) * va / (s * da)

    w = np.concatenate([c1 * h.conj().T, c2 * g.conj().T], axis=1)
    return LmmseFilter(w=w, mse=mse_closed_form(params).value, condition=float("nan"))
