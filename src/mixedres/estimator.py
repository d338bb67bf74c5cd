"""Exact second-order statistics and the LMMSE estimator for mixed data.

The quantized blocks follow from two classical results for jointly Gaussian
inputs passed through the sign quantizer: the arcsine law for the
auto-covariance of the quantized vector, and Bussgang's theorem for every
cross-covariance with an unquantized Gaussian quantity.  The estimator is
the standard linear MMSE solution

    w = C_theta_x @ inv(C_x),    mse = trace(Sigma_theta) - trace(w @ C_theta_x^H),

evaluated with a pivoted LU solve (never an explicit inverse) and guarded by
a 1-norm condition bound.

The analog rows H are k_a copies of their first p_a rows and the quantized
rows G are k_q copies of their first p_q, (p, k) being each block's
``copy_layout`` (k = 1 for rows without a shorter period; every MIMO model
repeats both blocks).  Every covariance entry depends only on the two rows
it pairs, so :func:`assemble` runs the stage functions once, on the
p_a + p_q rows of one period of [H; G].  They give A1, the covariance of a
copy with itself, and c_theta, the cross-covariance with theta.  Two copies
of a row differ only in their own white noise, of variance v, so the
cross-copy block A2 is A1 with its noise-free diagonal: C_ii - v on an
analog row and (2/pi) arcsin((C_y,ii - v) / C_y,ii) on a 1-bit row.  So
the dense C_x is A2 gathered on both axes by the copy index, the row of the
period that each row of x copies, with A1's diagonal written on its own.

A unitary change of basis over the k copies of a block splits off the
scaled copy sum s = (x_1 + ... + x_k) / sqrt(k) from k - 1 copy
differences, which carry only noise: they are uncorrelated with theta and
with every copy sum, and have the diagonal covariance D = diag(A1 - A2).
So the LMMSE of theta from x is exactly the LMMSE from the p_a + p_q copy
sums, whose covariance and cross-covariance are, with k_i the copy count of
row i's block,

    C~_ij = [same block] A1_ij + (sqrt(k_i k_j) - [same block]) A2_ij,
    C~_theta,j = sqrt(k_j) c_theta,j.

:func:`lmmse` factors C~ and gives every copy the filter columns of its sum
divided by sqrt(k).  The spectrum of C_x is that of C~ plus D of each row
with k >= 2, k - 1 times, so the condition bound is max(|C~|_1, max D) *
max(est |inv(C~)|_1, 1 / min D) over those rows; without them it is
LAPACK's 1-norm condition estimate of C~ = C_x.  A zero D, a noiseless row
in two or more copies, makes C_x singular.

:func:`prefix_mse` gives the MSE of every leading subset of rows at once.
Each entry of C_x and C_theta_x depends only on its own rows, so the first
k rows have the leading k x k block of C_x as their covariance, and its
Cholesky factor is the leading block of the full factor L.  With
Z = inv(L) @ C_theta_x^H, the MSE of the first k rows is
trace(Sigma_theta) minus the squared norm of the first k rows of Z.  It
factors all n rows, so it reads the dense C_x; the tests use it as the
dense reference, and the runtime benchmark times it.
:func:`lmmse` keeps the pivoted LU: a Cholesky solve there gives
0.5000000000000001 instead of the exact 0.5 for the scalar pure-analog
model.

:func:`copy_scan_mse` is the matrix-solve search's route: the MSE of many
points (first n_a analog rows, k copies of one quantized block) of one
model, with no n x n matrix.  Its analog rows are one copy each, since
every prefix of them is a point, and A1, A2 and D below are the quantized
blocks.  With B the analog-quantized block and L the Cholesky factor of the
largest analog block C_xa, the leading blocks of L factor every smaller
C_xa, and Z = inv(L) C_theta_xa^H and V = inv(L) B serve every n_a.  The Schur
complement of C_xa in C~ is A1 + (k - 1) A2 - k V^H V = k (S0 + D / k) with
S0 = A2 - V^H V, and the cross term is sqrt(k) r with r = C_theta_q - Z^H V.
With the eigenpairs (lambda_j, u_j) of inv(sqrt(D)) S0 inv(sqrt(D)) and
Y = r inv(sqrt(D)) [u_1 ... u_p],

    mse(n_a, k) = trace(Sigma_theta) - |Z|_F^2 - sum_j |Y_j|^2 / (lambda_j + 1/k),

so one p x p eigenproblem per analog count gives every copy count in O(p).
One copy (k = 1) needs no D: its Schur complement A1 - V^H V has its own
eigenproblem, which keeps the noiseless quantizer (var_q = 0, so D = 0)
solvable at n_q <= 1.  V^H V and Z^H V of every n_a are cumulative sums of
the Gram blocks of the rows of [Z, V].

The scan's condition guard bounds kappa_2(C_x) for every requested point.
|inv(C_x)| = max(|inv(C~)|, 1 / min D) (the second term only for k >= 2),
and the block inverse of C~ = [[C_xa, sqrt(k) B], [sqrt(k) B^H, Q]] gives

    |inv(C~)| <= |inv(C_xa)| + (1 + k |inv(C_xa) B|^2) |inv(S)|,
    |inv(S)| <= max_j 1 / (k min D (lambda_j + 1/k)),

hence |inv(C~)| <= |inv(C_xa)| + (1 + |inv(C_xa) B|^2) max_j
1 / (min D (lambda_j + 1/k)); for k = 1 the last factor is 1 over the
smallest eigenvalue of A1 - V^H V.  |inv(C_xa) B|^2 <= |inv(C_xa)| |V|_F^2.
By Cauchy interlacing the largest C_xa has the smallest eigenvalue of all
prefixes, so LAPACK's 1-norm estimate of its inverse (``zpocon``) bounds
|inv(C_xa)| for every n_a, and the 1-norm of the largest C_x,
max(|C_xa|_1 + k |B|_inf, |B|_1 + |A1|_1 + (k - 1) |A2|_1), bounds |C_x|.
A point whose bound exceeds ``CONDITION_LIMIT``, a lambda_j + 1/k <= 0,
or a failed factor of C_xa refuses the whole scan.

:func:`lmmse` and :func:`copy_scan_mse` never form an n x n matrix.  All
three routes refuse more than ``MAX_DENSE_ROWS`` rows before any covariance
is built: :func:`lmmse` and :func:`prefix_mse` count all n_a + n_q rows
(the periods are not known before :func:`assemble`), :func:`copy_scan_mse`
the n_a + p rows it factors.

LAPACK (``scipy.linalg.lapack``) is imported inside the two functions that
call it, :func:`lmmse_from_bundle` and ``_cholesky_solve``, so importing
this module loads no SciPy and the closed-form commands never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateCovarianceError,
    EstimatorUndefinedError,
    InstanceTooLargeError,
    ModelError,
    NumericalDomainError,
    _count_text,
    check_integer_kinds,
)
from .model import MixedModel, copy_layout

# Pearson ratios may drift past 1 by round-off; clip inside this band, error beyond.
ARCSIN_CLIP_TOL = 1e-9
# Bussgang gain of the sign quantizer for a unit-variance input.
_BUSSGANG_GAIN = math.sqrt(2.0 / math.pi)
# Refuse to solve when the condition estimate exceeds this: LAPACK's 1-norm
# estimate in prefix_mse, the copy-reduced bounds in lmmse and copy_scan_mse.
CONDITION_LIMIT = 1e12
# Tolerance for trace cancellation round-off before the MSE is clamped at zero.
MSE_ROUNDOFF_TOL = 1e-9
# Most rows a dense solve accepts.  A complex n x n matrix takes 16 n^2 bytes,
# 1 GiB here, and prefix_mse keeps a few of them alive; the largest model the
# runtime-scaling benchmark solves has 6400 rows.  lmmse and copy_scan_mse
# write no n x n matrix of a whole model but keep the same limit: lmmse on
# all its rows, copy_scan_mse on the rows it factors.
MAX_DENSE_ROWS = 8192
# Largest copy count times block period that the copy scan holds.
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(eq=False)
class CovarianceBundle:
    """Covariance blocks of one period of x = [x_a; x_q].

    ``periods`` is (p_a, p_q) and ``copies`` is (k_a, k_q): the analog rows
    are k_a copies of their first p_a rows and the quantized rows k_q copies
    of their first p_q (k = 1 claims no repetition, and (0, 0) means no
    rows).  Over those p_a + p_q rows, ``a1`` is the covariance of a copy
    with itself, ``a2`` that of two different copies (``a1`` with its
    noise-free diagonal) and ``c_theta`` the cross-covariance with theta.
    ``a1`` and ``a2`` are exactly Hermitian.

    The dense ``c_x`` (n x n) and ``c_theta_x`` are gathered from these
    blocks by the copy index on every read, and not kept; :func:`prefix_mse`
    and perfbench's trace hook read them.  c_x is exactly Hermitian, with a
    real diagonal.
    """

    a1: np.ndarray
    a2: np.ndarray
    c_theta: np.ndarray
    periods: tuple[int, int]
    copies: tuple[int, int]

    def _index(self) -> np.ndarray:
        """The row of the period that each row of x copies."""
        return self._spread(np.arange(sum(self.periods))[None, :])[0]

    @property
    def c_x(self) -> np.ndarray:
        return self._gather_c_x()

    def _gather_c_x(self, fortran: bool = False) -> np.ndarray:
        """The dense c_x, C-ordered, or Fortran-ordered for LAPACK to factor in place.

        The Fortran one is the transpose of the C-ordered gather of a2.T."""
        idx = self._index()
        c_x = (self.a2.T if fortran else self.a2).take(idx, 0).take(idx, 1)
        c_x.reshape(-1)[:: len(idx) + 1] = self.a1.diagonal().take(idx)  # a view of the diagonal
        return c_x.T if fortran else c_x

    @property
    def c_theta_x(self) -> np.ndarray:
        return self._spread(self.c_theta)

    def _spread(self, cols: np.ndarray) -> np.ndarray:
        """``cols.take(self._index(), 1)``: each column, one per row of the period, once per copy of its row."""
        (pa, pq), (ka, kq) = self.periods, self.copies
        m = len(cols)
        out = np.empty((m, ka * pa + kq * pq), dtype=cols.dtype)
        # Each reshape splits the columns of one block into (copies, rows), a
        # view, so the broadcast copy writes into out.
        out[:, : ka * pa].reshape(m, ka, pa)[...] = cols[:, None, :pa]
        out[:, ka * pa :].reshape(m, kq, pq)[...] = cols[:, None, pa:]
        return out


@dataclass(eq=False)
class LmmseFilter:
    """Linear estimator matrix with its analytic MSE and conditioning info.

    ``condition`` bounds the condition number of C_x from the copy-reduced
    factorization (see the module docstring); with no row in two or more
    copies it is the 1-norm condition estimate of C_x.
    """

    w: np.ndarray
    mse: float
    condition: float


# ---------------------------------------------------------------------------
# Covariance blocks
# ---------------------------------------------------------------------------


def _make_hermitian(c: np.ndarray) -> None:
    """Replace the square ``c`` in place by its Hermitian part (c + c^H) / 2.

    A general matrix product or an elementwise map of a Hermitian matrix
    leaves its two triangles differing by round-off, so a solver that reads
    one triangle and one that reads both would see different matrices.
    Entry (i, j) becomes c_ij / 2 + conj(c_ji / 2), which is the exact
    conjugate of entry (j, i) because addition commutes, and the diagonal
    is real.  Halving first keeps a finite ``c`` finite; it can move a
    subnormal entry by half the smallest subnormal, an error the product
    that formed it already carries.
    """
    c *= 0.5
    c += c.conj().T


def _gram_plus_diag(b: np.ndarray, sigma: np.ndarray, var: float) -> np.ndarray:
    """B sigma B^H + var * I without materializing a dense identity.

    Finite but extreme inputs can overflow; a non-finite entry raises
    :class:`NumericalDomainError`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = (b @ sigma) @ b.conj().T
        out.reshape(-1)[:: out.shape[0] + 1] += var  # a view of the diagonal
    if not np.isfinite(out).all():
        raise NumericalDomainError("covariance overflowed to a non-finite value")
    return out


def cov_analog(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the analog measurements, exactly Hermitian."""
    c = _gram_plus_diag(model.h, model.sigma_theta, model.var_a)
    _make_hermitian(c)
    return c


def cov_pre_quantization(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the quantizer input y = G theta + w_q."""
    return _gram_plus_diag(model.g, model.sigma_theta, model.var_q)


def _inv_sqrt_diag(c_y: np.ndarray) -> np.ndarray:
    d = c_y.diagonal().real
    if d.size and d.min() <= 0:
        raise DegenerateCovarianceError(
            "pre-quantization covariance has a non-positive diagonal entry"
        )
    return 1.0 / np.sqrt(d)


def cov_quantized(c_y: np.ndarray) -> np.ndarray:
    """Arcsine-law auto-covariance of the 1-bit quantized vector.

    Applies elementwise (2/pi) * [arcsin(Re r) + j*arcsin(Im r)] to the
    Pearson-normalized matrix r = D^{-1/2} C_y D^{-1/2}, D = diag(C_y).
    The result is exactly Hermitian.
    """
    c_y = np.ascontiguousarray(c_y, dtype=np.complex128)
    if c_y.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y)
    r = (s[:, None] * c_y) * s[None, :]
    # Real and imaginary parts side by side: the map acts on each alone, in place.
    parts = r.view(np.float64)
    overshoot = np.abs(parts).max() - 1.0
    if overshoot > ARCSIN_CLIP_TOL:
        raise NumericalDomainError(
            f"normalized correlation exceeds 1 by {overshoot:.3e}, beyond clip tolerance"
        )
    if overshoot > 0.0:
        np.clip(parts, -1.0, 1.0, out=parts)
    np.arcsin(parts, out=parts)
    r *= 2.0 / np.pi
    _make_hermitian(r)
    # The quantizer output has unit modulus, so the diagonal is exactly one.
    r.reshape(-1)[:: len(r) + 1] = 1.0
    return r


def cross_cov_theta_quantized(model: MixedModel, c_y: np.ndarray) -> np.ndarray:
    """Bussgang cross-covariance of the parameter with the quantized vector."""
    s = _inv_sqrt_diag(c_y)
    return _BUSSGANG_GAIN * (model.sigma_theta @ model.g.conj().T) * s


def cross_cov_analog_quantized(model: MixedModel, c_y: np.ndarray) -> np.ndarray:
    """Bussgang cross-covariance of the analog and quantized measurements."""
    s = _inv_sqrt_diag(c_y)
    return _BUSSGANG_GAIN * (model.h @ model.sigma_theta @ model.g.conj().T) * s


def assemble(model: MixedModel) -> CovarianceBundle:
    """Covariance blocks of ``model`` from one period of H and one of G.

    (p, k) of each is its :func:`~mixedres.model.copy_layout`, and the stage
    functions run once, on the p_a + p_q rows of one period (see the module
    docstring).  No n x n array is written; see :class:`CovarianceBundle`
    for the dense view.
    """
    return _assemble(model, copy_layout(model.h), copy_layout(model.g))


def _assemble(model: MixedModel, analog: tuple[int, int], quantized: tuple[int, int]) -> CovarianceBundle:
    """:func:`assemble` with the (p, k) of H and of G given."""
    (pa, ka), (pq, kq) = analog, quantized
    # The model of one period, from rows of model itself, so not validated again.
    one = object.__new__(MixedModel)
    one.__dict__.update(model.__dict__, h=model.h[:pa], g=model.g[:pq])
    c_y = cov_pre_quantization(one)
    n = pa + pq
    a1 = np.empty((n, n), dtype=np.complex128)
    a1[:pa, :pa] = cov_analog(one)
    a1[:pa, pa:] = cross_cov_analog_quantized(one, c_y)
    np.conjugate(a1[:pa, pa:].T, out=a1[pa:, :pa])
    a1[pa:, pa:] = cov_quantized(c_y)
    c_theta = np.empty((model.m, n), dtype=np.complex128)
    c_theta[:, :pa] = model.sigma_theta @ one.h.conj().T
    c_theta[:, pa:] = cross_cov_theta_quantized(one, c_y)
    # The stages above refused a non-positive diagonal of c_y.
    d = c_y.diagonal().real
    s = 1.0 / np.sqrt(d)
    # Round-off lifts the ratio past 1 for a noiseless quantizer (v = 0).
    r = np.minimum((s * (d - model.var_q)) * s, 1.0)
    a2 = a1.copy()
    noise_free = a2.reshape(-1)[:: n + 1]  # a view of the diagonal
    noise_free[:pa] -= model.var_a
    noise_free[pa:] = (2.0 / np.pi) * np.arcsin(r)
    return CovarianceBundle(a1=a1, a2=a2, c_theta=c_theta, periods=(pa, pq), copies=(ka, kq))


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------


def check_dense_rows(n: int) -> None:
    """Refuse a dense solve of more than ``MAX_DENSE_ROWS`` rows, before any array is built."""
    if n > MAX_DENSE_ROWS:
        raise InstanceTooLargeError(f"a dense solve of {_count_text(n)} rows exceeds the limit of {MAX_DENSE_ROWS}")


def _checked_condition(rcond: float, info: int) -> float:
    """Condition ``1 / rcond`` from a LAPACK ``*con`` result, refused above ``CONDITION_LIMIT``."""
    if info != 0:
        raise EstimatorUndefinedError("condition estimation failed", condition=float("inf"))
    condition = float(1.0 / rcond) if rcond > 0 else float("inf")
    if condition > CONDITION_LIMIT:
        raise EstimatorUndefinedError(
            f"measurement covariance too ill-conditioned (estimate {condition:.3e})",
            condition=condition,
        )
    return condition


def _one_norm(c: np.ndarray) -> float:
    """1-norm of the Hermitian ``c``; a non-finite one is refused like a singular matrix.

    The raw LAPACK calls below scan no input, so this is their only finiteness check.
    |c| is symmetric, so the column sums of a Fortran-ordered ``c`` are taken
    as those of ``c.T``: summed in the same order as a C-ordered ``c``'s, so
    both layouts give the same bytes."""
    with np.errstate(over="ignore"):
        # np.linalg.norm(c, 1), without its argument handling.
        anorm = float(np.abs(c.T if c.flags.f_contiguous else c).sum(axis=0).max())
    if not math.isfinite(anorm):
        raise EstimatorUndefinedError("measurement covariance 1-norm overflowed", condition=float("inf"))
    return anorm


def _cholesky_solve(c: np.ndarray, b: np.ndarray, overwrite_c: bool = False) -> tuple[np.ndarray, float, float]:
    """inv(L) @ b, |c|_1 and the checked condition estimate of ``c`` = L L^H; a failed factor is singular.

    With ``overwrite_c`` a Fortran-ordered ``c`` is factored in place, without LAPACK's copy."""
    from scipy.linalg import lapack

    anorm = _one_norm(c)
    chol, info = lapack.zpotrf(c, lower=1, overwrite_a=int(overwrite_c))
    if info != 0 or not np.isfinite(chol.diagonal()).all():
        raise EstimatorUndefinedError("measurement covariance is singular", condition=float("inf"))
    condition = _checked_condition(*lapack.zpocon(chol, anorm, uplo="L"))
    z, _ = lapack.ztrtrs(chol, b, lower=1)
    return z, anorm, condition


def _prefix_norms(z: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of the first 0, 1, ..., n rows of the n-row ``z``."""
    squares = z.real**2
    squares += z.imag**2
    out = np.empty(len(z) + 1)
    out[0] = 0.0
    squares.sum(axis=1).cumsum(out=out[1:])
    return out


def _clamped_mse(mse):
    """``mse`` clamped at zero; a value below ``-MSE_ROUNDOFF_TOL`` or not finite is an error.

    An array gives an array; a float is checked in plain Python and gives a float."""
    scalar = isinstance(mse, float)
    # NaN propagates through min and max, so both are finite only when every value is.
    low, high = (mse, mse) if scalar else (mse.min(), mse.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalDomainError("MSE evaluated to a non-finite value")
    if low < -MSE_ROUNDOFF_TOL:
        raise NumericalDomainError(f"MSE evaluated to {low:.3e} < 0 beyond round-off tolerance")
    if scalar:
        return mse if mse > 0.0 else 0.0  # np.maximum's choice, +0.0 for -0.0
    return np.maximum(mse, 0.0)


def lmmse(model: MixedModel) -> LmmseFilter:
    """LMMSE filter and its analytic MSE via a pivoted solve of the copy-reduced system.

    Only the p_a + p_q rows of C~ are factored (see the module docstring);
    ``condition`` is the bound max(|C~|_1, max D) * max(est |inv(C~)|_1,
    1 / min D) and a value above ``CONDITION_LIMIT`` is refused.
    """
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = assemble(model)
    return lmmse_from_bundle(model, bundle)


def _copy_reduced(bundle: CovarianceBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """C~, its cross-covariance with theta, D of the rows with k >= 2, and sqrt(k) of each row.

    C~ = [same block] A1 + (sqrt(k_i k_j) - [same block]) A2, block by block.
    Huge variances may overflow to inf or nan here; the caller's
    :func:`_one_norm` and :func:`_clamped_mse` refuse such a system.
    """
    (pa, pq), (k_a, k_q) = bundle.periods, bundle.copies
    rows_a, rows_q = slice(0, pa), slice(pa, pa + pq)
    # Fortran order, so LAPACK factors C~ in place.
    c = bundle.a1.copy(order="F")
    root = np.empty(pa + pq)
    root[rows_a], root[rows_q] = math.sqrt(k_a), math.sqrt(k_q)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, k in ((rows_a, k_a), (rows_q, k_q)):
            if k > 1:
                c[rows, rows] += (k - 1) * bundle.a2[rows, rows]
        cross = np.multiply(math.sqrt(k_a * k_q), bundle.a2[rows_a, rows_q], out=c[rows_a, rows_q])
        # The exact conjugate transpose of the upper cross block, as in the dense C_x.
        np.conjugate(cross.T, out=c[rows_q, rows_a])
        # The rows in two or more copies: all, the analog or the quantized ones, or none.
        multi = slice(0 if k_a > 1 else pa, pa + pq if k_q > 1 else pa)
        d = (bundle.a1.diagonal()[multi] - bundle.a2.diagonal()[multi]).real
        return c, bundle.c_theta * root, d, root


def lmmse_from_bundle(model: MixedModel, bundle: CovarianceBundle) -> LmmseFilter:
    """Same as :func:`lmmse` for a pre-assembled covariance bundle.

    Factors the (p_a + p_q)-row C~ built from the bundle's blocks and gives
    every copy the filter columns of its scaled copy sum.  It reads no dense
    field of the bundle.
    """
    from scipy.linalg import lapack

    prior_trace = float(model.sigma_theta.trace().real)
    c, c_theta, d, root = _copy_reduced(bundle)
    anorm = _one_norm(c)
    lu, piv, info = lapack.zgetrf(c, overwrite_a=1)
    if info != 0 or not np.isfinite(lu.diagonal()).all() or (d.size and not d.min() > 0):
        raise EstimatorUndefinedError("measurement covariance is singular", condition=float("inf"))
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    # 1 / rcond = |C~|_1 * est |inv(C~)|_1.  The bound widens each factor to
    # cover D; both widenings are exactly 1.0 when D is empty (no k >= 2).
    widen_norm = widen_inverse = 1.0
    if d.size:
        widen_norm = max(1.0, d.max() / anorm)
        widen_inverse = max(1.0, rcond * anorm * (1.0 / d.min()))
    condition = _checked_condition(rcond / (widen_norm * widen_inverse), info)

    # Solve C~ X = C~_theta^H; then the reduction term is trace(C~_theta @ X),
    # and w = X^H with each copy-sum row of X spread over its copies.
    x, _ = lapack.zgetrs(lu, piv, c_theta.conj().T)
    mse = prior_trace - float((c_theta @ x).trace().real)
    x /= root[:, None]
    return LmmseFilter(w=bundle._spread(x.conj().T), mse=_clamped_mse(mse), condition=condition)


def prefix_mse(model: MixedModel) -> np.ndarray:
    """LMMSE MSE of every leading subset of rows of x = [x_a; x_q].

    Entry k of the returned length-(n + 1) array is the MSE of the estimator
    that uses only the first k rows; entry 0 is the prior trace.  One
    Cholesky factorization and one triangular solve serve every k (see the
    module docstring).  A singular or non-finite factor, or a 1-norm
    condition estimate of the full C_x above ``CONDITION_LIMIT``, raises
    :class:`EstimatorUndefinedError`.  By Cauchy interlacing no leading
    block has a larger 2-norm condition number than the whole matrix.
    """
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = assemble(model)
    # c_x is a fresh gather that nothing else reads, so it is factored in place.
    z, _, _ = _cholesky_solve(bundle._gather_c_x(fortran=True), bundle.c_theta_x.conj().T, overwrite_c=True)
    return _clamped_mse(float(np.trace(model.sigma_theta).real) - _prefix_norms(z))


def copy_scan_mse(model: MixedModel, analog_rows, copies) -> np.ndarray:
    """LMMSE MSE of many (analog prefix, copy count) points of one model.

    Point i measures with the first ``analog_rows[i]`` rows of ``model.h``
    over ``copies[i]`` copies of the block ``model.g``.  One Cholesky factor
    of all of ``model.h``'s rows and one ``eigh`` of a stack of p x p
    matrices, for one copy and for more, serve every point (see the module
    docstring); no n x n matrix of a point is built.
    Returns the MSE of each point, in order; no points give an empty array.
    A count that is not an integer (a bool or a float, even when whole)
    raises :class:`ModelError`.  A failed or non-finite analog factor, a
    non-positive Schur eigenvalue lambda_j + 1/k of a requested copy count,
    or a condition bound above ``CONDITION_LIMIT`` raises
    :class:`EstimatorUndefinedError`; a copy count whose rows overflow int64
    raises :class:`InstanceTooLargeError`.
    """
    for values in (analog_rows, copies):
        kinds = map(type, values) if isinstance(values, (list, tuple)) else [np.asarray(values).dtype.type]
        check_integer_kinds("analog_rows and copies", kinds)
    try:
        rows = np.asarray(analog_rows, dtype=np.int64)
        copies = np.asarray(copies, dtype=np.int64)
    except OverflowError:
        raise InstanceTooLargeError("analog_rows and copies must fit in int64") from None
    g1, n, m = model.g, model.n_analog, model.m
    if rows.shape != copies.shape or rows.ndim != 1:
        raise ModelError("analog_rows and copies must be 1-d arrays of one length")
    if not rows.size:
        return np.empty(0)
    if rows.min() < 0 or rows.max() > n or copies.min() < 0:
        raise ModelError(f"need 0 <= analog_rows <= {n} and copies >= 0")
    p, per_block = copy_layout(g1)
    if per_block > 1 and copies.max() > _INT64_MAX // per_block:
        raise InstanceTooLargeError(
            f"{_count_text(int(copies.max()))} copies of a block that repeats {per_block} times overflow int64"
        )
    k = copies * per_block
    check_dense_rows(n + p)
    # The points with quantized rows.
    quantized = k.nonzero()[0]
    # Every analog prefix is a point, so the analog rows stay one copy.
    bundle = _assemble(model, (n, min(n, 1)), (p, per_block) if quantized.size else (0, 0))
    prior = float(model.sigma_theta.trace().real)

    # Z = inv(L) C_theta_xa^H and V = inv(L) B from one factor of the largest
    # C_xa; the first rows of each belong to the leading C_xa.
    zv = np.concatenate([bundle.c_theta[:, :n].conj().T, bundle.a1[:n, n:]], axis=1)
    a_norm = a_inv = 0.0
    if n:
        zv, a_norm, condition = _cholesky_solve(bundle.a1[:n, :n], zv)
        a_inv = condition / a_norm
    mse = prior - _prefix_norms(zv[:, :m])[rows]
    if not quantized.size:
        return _clamped_mse(mse)

    # [Z^H V; V^H V] of every analog prefix that is a multiple of step, the
    # gcd of the requested ones: cumulative sums of the Gram blocks of
    # step-row groups.  Quantized point i reads entry group[i].
    step = math.gcd(n, *rows.tolist()) or 1
    groups = zv.reshape(n // step, step, m + p)
    gram = np.zeros((n // step + 1, m + p, p), dtype=np.complex128)
    (groups.conj().transpose(0, 2, 1) @ groups[..., m:]).cumsum(axis=0, out=gram[1:])
    a1, a2 = bundle.a1[n:, n:], bundle.a2[n:, n:]
    r0, vv = bundle.c_theta[:, n:] - gram[:, :m], gram[:, m:]
    # |inv(C_xa) B|^2 <= |inv(C_xa)| |V|^2, with |V|^2 <= trace(V^H V).
    coupling = 1.0 + a_inv * vv.trace(axis1=1, axis2=2).real

    # Two cases, stacked for one eigenproblem and one product: one copy,
    # where C~ is C_x itself and the Schur complement is A1 - V^H V, and
    # more, whose eigenvalues are shifted by 1/k into lambda_j + 1/k.  For
    # more, min D turns those into a bound on the Schur complement's
    # eigenvalues, and the copy differences put the floor 1 / min D under
    # |inv(C_x)|; one copy has neither (scale 1, floor 0).
    k = k[quantized]
    group = rows[quantized] // step
    more = k >= 2
    n_more = np.count_nonzero(more)
    stacks, crosses = [], []
    if n_more < k.size:
        stacks.append(a1 - vv)
        crosses.append(r0)
    # Point i reads entry at[i] of the stack, where more follows one copy.
    at, scale, floor = group, 1.0, 0.0
    if n_more:
        d = (a1 - a2).diagonal().real
        d_min = d.min()
        if not d_min > 0:
            raise EstimatorUndefinedError(
                "measurement covariance is singular: copies of a noiseless quantized row are identical",
                condition=float("inf"),
            )
        root = 1.0 / np.sqrt(d)
        stacks.append(root[:, None] * (a2 - vv) * root)
        crosses.append(r0 * root)
        if len(stacks) > 1:
            at = group + len(gram) * more
        scale, floor = np.where(more, d_min, 1.0), np.where(more, 1.0 / d_min, 0.0)
    # |B|, |A1| and their column sums, from one |[B; A1]|.
    b_abs = np.abs(bundle.a1[:, n:])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lams, u = np.linalg.eigh(np.concatenate(stacks))
        y = np.concatenate(crosses) @ u
        ws = (y.real**2 + y.imag**2).sum(axis=1)
        lam = lams[at]
        if n_more:
            lam += np.where(more, 1.0 / k, 0.0)[:, None]
        if not (lam > 0).all():
            raise EstimatorUndefinedError(
                "measurement covariance is singular: non-positive Schur eigenvalue", condition=float("inf")
            )
        mse[quantized] -= (ws[at] / lam).sum(axis=1)
        cx_inv = np.maximum(a_inv + coupling[group] / (scale * lam.min(axis=1)), floor)
        # |C_x|_1 with the largest analog prefix, which bounds every prefix;
        # A1 and A2 hold correlations, so their 1-norms are at most p.
        cx_norm = np.maximum(
            a_norm + k * b_abs[:n].sum(axis=1).max(initial=0.0),
            b_abs[:n].sum(axis=0).max() + b_abs[n:].sum(axis=0).max() + (k - 1) * np.abs(a2).sum(axis=0).max(),
        )
        # A point without quantized rows has the bound of the analog rows alone.
        condition = np.full(rows.size, a_norm * a_inv)
        condition[quantized] = cx_norm * cx_inv
    if not (condition <= CONDITION_LIMIT).all():
        worst = float(np.nan_to_num(condition, nan=np.inf).max())
        raise EstimatorUndefinedError(
            f"measurement covariance too ill-conditioned (bound {worst:.3e})", condition=worst
        )
    return _clamped_mse(mse)


def estimate(filt: LmmseFilter, x: np.ndarray) -> np.ndarray:
    """Apply the linear estimator to a measurement vector (or column batch)."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[0] != filt.w.shape[1]:
        raise ModelError(f"measurement length {x.shape[0]} does not match filter ({filt.w.shape[1]})")
    return filt.w @ x
