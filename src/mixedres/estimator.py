"""Exact second-order statistics and the LMMSE estimator for mixed data.

The quantized blocks follow from two classical results for jointly Gaussian
inputs passed through the sign quantizer: the arcsine law for the
auto-covariance of the quantized vector, and Bussgang's theorem for every
cross-covariance with an unquantized Gaussian quantity.  The estimator is
the standard linear MMSE solution

    w = C_theta_x @ inv(C_x),    mse = trace(Sigma_theta) - trace(w @ C_theta_x^H),

evaluated with a pivoted LU solve (never an explicit inverse) and guarded by
a 1-norm condition bound.

:func:`assemble` returns the covariance blocks of one period of the
quantized rows.  Every entry depends only on the two rows it pairs, and G
is usually k copies of one p-row block g1 (every orthonormal-block and
MIMO model is).  So the arcsine map and the Bussgang terms of the two-copy
rows [g1; g1] give every quantized entry: the same-copy block A1 on the k
diagonal blocks of C_xq, the cross-copy block A2 on all others, and the
Bussgang columns of g1 in every copy.  The Gram and arcsine work falls from
O(n_q^2) to O(p^2).  A G without a shorter period is its own block (k = 1).
The bundle keeps those blocks; the dense C_x and C_theta_x are tiled from
them only when read.

:func:`lmmse` solves the copy-reduced system.  Copies of the block differ
only by independent noise, so in C_x = [[C_xa, 1^T (x) C_aq1],
[1 (x) C_aq1^H, I (x) (A1 - A2) + J (x) A2]] a unitary change of basis over
the copies splits off the scaled copy sum s = (q_1 + ... + q_k) / sqrt(k)
from k - 1 copy differences that are uncorrelated with theta, x_a and s.
The LMMSE of theta from x is therefore, exactly, the LMMSE from [x_a; s],
whose (n_a + p)-row covariance is

    C~ = [[C_xa, sqrt(k) C_aq1], [sqrt(k) C_aq1^H, A1 + (k - 1) A2]]

with cross-covariance [C_theta_xa, sqrt(k) C_theta_q1].  Each copy gets the
filter columns of s divided by sqrt(k).  A1 - A2 is diagonal, since two
copies differ only in their own noise, so the spectrum of C_x is that of C~
plus D = diag(A1 - A2), each entry k - 1 times, and the condition bound is
max(|C~|_1, max D) * max(est |inv(C~)|_1, 1 / min D).  For k <= 1 (pure
analog, or a G without a period) C~ is C_x and the bound is LAPACK's
1-norm condition estimate of C_x.

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
points (first n_a analog rows, k copies of one block) of one model, with
no n x n matrix.  Write B = C_aq1, D = diag(A1 - A2) and let L be the
Cholesky factor of the largest C_xa; by the prefix property its leading
blocks factor every smaller C_xa, and Z = inv(L) C_theta_xa^H and
V = inv(L) B serve every n_a through their first rows.  The Schur
complement of C_xa in the copy-reduced C~ is
A1 + (k - 1) A2 - k V^H V = k (S0 + D / k) with S0 = A2 - V^H V, and the
cross term is sqrt(k) r with r = C_theta_q1 - Z^H V.  With the eigenpairs
(lambda_j, u_j) of inv(sqrt(D)) S0 inv(sqrt(D)) and
Y = r inv(sqrt(D)) [u_1 ... u_p],

    mse(n_a, k) = trace(Sigma_theta) - |Z|_F^2 - sum_j |Y_j|^2 / (lambda_j + 1/k),

so one p x p eigenproblem per analog count gives every copy count in O(p).
One copy (k = 1) needs no D: its Schur complement A1 - V^H V has its own
eigenproblem, which keeps the noiseless quantizer (var_q = 0, so D = 0)
solvable at n_q <= 1; two or more noiseless copies are identical rows and
are refused as singular.  V^H V and Z^H V of every n_a are cumulative sums
of the Gram blocks of the rows of [Z, V].

The scan's condition guard bounds kappa_2(C_x) for every requested point.
Over the copies C_x is unitarily similar to blkdiag(C~, I_{k-1} (x) D), so
|inv(C_x)| = max(|inv(C~)|, 1 / min D) (the second term only for k >= 2).
The block inverse of C~ = [[C_xa, sqrt(k) B], [sqrt(k) B^H, Q]] gives

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
three routes still refuse more than ``MAX_DENSE_ROWS`` factored rows
before any covariance is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from .exceptions import (
    DegenerateCovarianceError,
    EstimatorUndefinedError,
    InstanceTooLargeError,
    ModelError,
    NumericalDomainError,
)
from .model import MixedModel, block_period

# Pearson ratios may drift past 1 by round-off; clip inside this band, error beyond.
ARCSIN_CLIP_TOL = 1e-9
# Refuse to solve when the condition estimate exceeds this: LAPACK's 1-norm
# estimate in prefix_mse, the copy-reduced bounds in lmmse and copy_scan_mse.
CONDITION_LIMIT = 1e12
# Tolerance for trace cancellation round-off before the MSE is clamped at zero.
MSE_ROUNDOFF_TOL = 1e-9
# Most rows a dense solve accepts.  A complex n x n matrix takes 16 n^2 bytes,
# 1 GiB here, and prefix_mse keeps a few of them alive; the largest model the
# runtime-scaling benchmark solves has 6400 rows.  lmmse and copy_scan_mse
# write no n x n matrix of a whole model but keep the same limit on the rows
# they factor.
MAX_DENSE_ROWS = 8192


@dataclass(eq=False)
class CovarianceBundle:
    """Covariance blocks of x = [x_a; x_q] over one period of the quantized rows.

    The quantized rows are ``copies`` (k) copies of one ``period``-row (p)
    block; k = 1 claims no repetition and k = 0 means no quantized rows.
    ``c_xa`` and ``c_theta_xa`` are the analog auto- and cross-covariance,
    ``c_aq1`` and ``c_theta_q1`` the Bussgang blocks of one copy, ``a1``
    the arcsine block of a copy with itself and ``a2`` the exactly Hermitian
    block of two different copies (``None`` for k <= 1).

    The dense ``c_x`` (n x n) and ``c_theta_x`` are tiled from these blocks
    together, on the first read of either, and then kept; :func:`prefix_mse`
    and perfbench's trace hook read them.  c_x is exactly Hermitian, with a
    real diagonal.
    """

    c_xa: np.ndarray
    c_theta_xa: np.ndarray
    c_aq1: np.ndarray
    c_theta_q1: np.ndarray
    a1: np.ndarray
    a2: np.ndarray | None
    period: int
    copies: int

    _dense: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def _expand(self) -> tuple[np.ndarray, np.ndarray]:
        """c_x and c_theta_x, tiled from the blocks on the first call and then kept."""
        if self._dense is not None:
            return self._dense
        na, p, k = self.c_xa.shape[0], self.period, self.copies
        m = self.c_theta_xa.shape[0]
        n = na + k * p
        c_x = np.empty((n, n), dtype=np.complex128)
        c_theta_x = np.empty((m, n), dtype=np.complex128)
        c_x[:na, :na] = self.c_xa
        c_theta_x[:, :na] = self.c_theta_xa
        if k:
            # Each reshape splits an axis of a view, so it writes into c_x / c_theta_x.
            c_x[:na, na:].reshape(na, k, p)[...] = self.c_aq1[:, None, :]
            c_x[na:, :na].reshape(k, p, na)[...] = self.c_aq1.conj().T
            c_theta_x[:, na:].reshape(m, k, p)[...] = self.c_theta_q1[:, None, :]
            blocks = c_x[na:, na:].reshape(k, p, k, p)
            if k > 1:
                blocks[...] = self.a2[None, :, None, :]
            # einsum returns a writeable view of the k diagonal blocks.
            np.einsum("ijik->ijk", blocks)[...] = self.a1
        self._dense = c_x, c_theta_x
        return self._dense

    @property
    def c_x(self) -> np.ndarray:
        return self._expand()[0]

    @property
    def c_theta_x(self) -> np.ndarray:
        return self._expand()[1]


@dataclass(eq=False)
class LmmseFilter:
    """Linear estimator matrix with its analytic MSE and conditioning info.

    ``condition`` bounds the condition number of C_x from the copy-reduced
    factorization (see the module docstring); with no repeated quantized
    block it is the 1-norm condition estimate of C_x.
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
        idx = np.arange(out.shape[0])
        out[idx, idx] += var
    if not np.isfinite(out).all():
        raise NumericalDomainError("covariance overflowed to a non-finite value")
    return out


def cov_analog(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the analog measurements (noise plus dither), exactly Hermitian."""
    c = _gram_plus_diag(model.h, model.sigma_theta, model.var_a_total)
    _make_hermitian(c)
    return c


def cov_pre_quantization(model: MixedModel) -> np.ndarray:
    """Auto-covariance of the quantizer input y = G theta + w_q + w_dq."""
    return _gram_plus_diag(model.g, model.sigma_theta, model.var_q_total)


def _inv_sqrt_diag(c_y: np.ndarray) -> np.ndarray:
    d = c_y.diagonal().real
    if d.size and d.min() <= 0:
        raise DegenerateCovarianceError(
            "pre-quantization covariance has a non-positive diagonal entry"
        )
    return 1.0 / np.sqrt(d)


def cov_quantized(c_y: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Arcsine-law auto-covariance of the 1-bit quantized vector.

    Applies elementwise (2/pi) * [arcsin(Re r) + j*arcsin(Im r)] to the
    Pearson-normalized matrix r = D^{-1/2} C_y D^{-1/2}, D = diag(C_y).
    ``scale`` is the diagonal of D^{-1/2} when the caller already has it.
    The result is exactly Hermitian.
    """
    c_y = np.asarray(c_y, dtype=np.complex128)
    if c_y.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y) if scale is None else scale
    r = (s[:, None] * c_y) * s[None, :]
    max_re = np.abs(r.real).max()
    max_im = np.abs(r.imag).max()
    overshoot = max(max_re, max_im) - 1.0
    if overshoot > ARCSIN_CLIP_TOL:
        raise NumericalDomainError(
            f"normalized correlation exceeds 1 by {overshoot:.3e}, beyond clip tolerance"
        )
    re = np.arcsin(r.real if max_re <= 1.0 else np.clip(r.real, -1.0, 1.0))
    if max_im <= 1e-8:
        # arcsin(x) == x in float64 for |x| <= 1e-8, so the pass is a no-op.
        im = r.imag
    else:
        im = np.arcsin(r.imag if max_im <= 1.0 else np.clip(r.imag, -1.0, 1.0))
    c_xq = (2.0 / np.pi) * (re + 1j * im)
    _make_hermitian(c_xq)
    # The quantizer output has unit modulus, so the diagonal is exactly one.
    np.fill_diagonal(c_xq, 1.0)
    return c_xq


def cross_cov_theta_quantized(model: MixedModel, c_y: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Bussgang cross-covariance of the parameter with the quantized vector.

    ``scale`` is 1 / sqrt(diag(c_y)) when the caller already has it.
    """
    if model.n_quantized == 0:
        return np.zeros((model.m, 0), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y) if scale is None else scale
    return np.sqrt(2.0 / np.pi) * (model.sigma_theta @ model.g.conj().T) * s[None, :]


def cross_cov_analog_quantized(model: MixedModel, c_y: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """Bussgang cross-covariance of the analog and quantized measurements.

    ``scale`` is 1 / sqrt(diag(c_y)) when the caller already has it.
    """
    if model.n_quantized == 0 or model.n_analog == 0:
        return np.zeros((model.n_analog, model.n_quantized), dtype=np.complex128)
    s = _inv_sqrt_diag(c_y) if scale is None else scale
    return np.sqrt(2.0 / np.pi) * (model.h @ model.sigma_theta @ model.g.conj().T) * s[None, :]


def _with_quantized_rows(model: MixedModel, g: np.ndarray) -> MixedModel:
    """``model`` with quantized rows ``g``, which are rows of ``model.g``, without validating again."""
    out = object.__new__(MixedModel)
    out.__dict__.update(model.__dict__, g=g)
    return out


def assemble(model: MixedModel) -> CovarianceBundle:
    """Covariance blocks of ``model`` from one period of G.

    G is k = n_q / p copies of its first p rows g1, p being its smallest
    block period (k = 1 when G does not repeat).  The stage functions run
    once, on the first min(k, 2) * p rows of G: [g1; g1] when G repeats.
    The arcsine map of those rows holds the same-copy block A1 (top left,
    unit diagonal) and the cross-copy block A2 (top right, replaced by its
    Hermitian part, since two copies are exchangeable).  No n x n array is
    written; see :class:`CovarianceBundle` for the dense view.
    """
    nq = model.n_quantized
    p = block_period(model.g)
    k = nq // p if p else 0
    block = _with_quantized_rows(model, model.g[: min(k, 2) * p])
    c_xa = cov_analog(model)
    c_y = cov_pre_quantization(block)
    scale = _inv_sqrt_diag(c_y)
    a = cov_quantized(c_y, scale)
    a2 = None
    if k > 1:
        # Two copies are exchangeable, so A2 is Hermitian; making it so
        # exactly keeps C~ and the dense c_x Hermitian.
        a2 = a[:p, p:].copy()
        _make_hermitian(a2)
    return CovarianceBundle(
        c_xa=c_xa,
        c_theta_xa=model.sigma_theta @ model.h.conj().T,
        c_aq1=cross_cov_analog_quantized(block, c_y, scale)[:, :p],
        c_theta_q1=cross_cov_theta_quantized(block, c_y, scale)[:, :p],
        a1=a[:p, :p],
        a2=a2,
        period=p,
        copies=k,
    )


# ---------------------------------------------------------------------------
# Estimator
# ---------------------------------------------------------------------------


def check_dense_rows(n: int) -> None:
    """Refuse a dense solve of more than ``MAX_DENSE_ROWS`` rows, before any array is built."""
    if n > MAX_DENSE_ROWS:
        raise InstanceTooLargeError(f"a dense solve of {n} rows exceeds the limit of {MAX_DENSE_ROWS}")


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
    """1-norm of ``c``; one that overflows is refused like a singular matrix."""
    with np.errstate(over="ignore"):
        anorm = np.linalg.norm(c, 1)
    if not np.isfinite(anorm):
        raise EstimatorUndefinedError("measurement covariance 1-norm overflowed", condition=float("inf"))
    return anorm


def _clamped_mse(mse: np.ndarray) -> np.ndarray:
    """``mse`` clamped at zero; a value below ``-MSE_ROUNDOFF_TOL`` is an error."""
    low = np.min(mse)
    if low < -MSE_ROUNDOFF_TOL:
        raise NumericalDomainError(f"MSE evaluated to {low:.3e} < 0 beyond round-off tolerance")
    return np.maximum(mse, 0.0)


def lmmse(model: MixedModel) -> LmmseFilter:
    """LMMSE filter and its analytic MSE via a pivoted solve of the copy-reduced system.

    Only the n_a + p rows of C~ are factored (see the module docstring);
    ``condition`` is the bound max(|C~|_1, max D) * max(est |inv(C~)|_1,
    1 / min D) and a value above ``CONDITION_LIMIT`` is refused.
    """
    check_dense_rows(model.n_analog + model.n_quantized)
    bundle = assemble(model)
    return lmmse_from_bundle(model, bundle)


def _copy_reduced(bundle: CovarianceBundle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C~, the cross-covariance [C_theta_xa, sqrt(k) C_theta_q1] and D of the k-copy bundle."""
    na, p, k = bundle.c_xa.shape[0], bundle.period, bundle.copies
    root_k = np.sqrt(k)
    c = np.empty((na + p, na + p), dtype=np.complex128)
    c[:na, :na] = bundle.c_xa
    c[:na, na:] = root_k * bundle.c_aq1
    c[na:, :na] = c[:na, na:].conj().T
    c[na:, na:] = bundle.a1
    c_theta = np.concatenate([bundle.c_theta_xa, root_k * bundle.c_theta_q1], axis=1)
    d = np.zeros(0)
    if k > 1:
        c[na:, na:] += (k - 1) * bundle.a2
        d = (bundle.a1 - bundle.a2).diagonal().real
    return c, c_theta, d


def lmmse_from_bundle(model: MixedModel, bundle: CovarianceBundle) -> LmmseFilter:
    """Same as :func:`lmmse` for a pre-assembled covariance bundle.

    Factors the (n_a + p)-row C~ built from the bundle's blocks, p being
    ``bundle.period``, and gives every copy of the quantized block the
    filter columns of the scaled copy sum.  It reads no dense field of the
    bundle.
    """
    na, nq = model.n_analog, model.n_quantized
    prior_trace = float(np.trace(model.sigma_theta).real)
    n = na + nq
    if n == 0:
        # No measurements: the estimator is empty and the MSE is the prior trace.
        return LmmseFilter(w=np.zeros((model.m, 0), dtype=np.complex128), mse=prior_trace, condition=1.0)

    p, k = bundle.period, bundle.copies
    c, c_theta, d = _copy_reduced(bundle)
    anorm = _one_norm(c)
    try:
        with warnings.catch_warnings():
            # Exact singularity is detected from the factors right below.
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(c)
    except np.linalg.LinAlgError as exc:
        raise EstimatorUndefinedError(
            "measurement covariance is singular", condition=float("inf")
        ) from exc
    if not np.all(np.isfinite(np.diag(lu))) or np.any(np.diag(lu) == 0) or not np.all(d > 0):
        raise EstimatorUndefinedError(
            "measurement covariance is singular", condition=float("inf")
        )
    rcond, info = lapack.zgecon(lu, anorm, norm="1")
    # 1 / rcond = |C~|_1 * est |inv(C~)|_1.  The bound widens each factor to
    # cover D; both widenings are exactly 1.0 when D is empty (k <= 1).
    widen_norm = max(1.0, d.max(initial=0.0) / anorm)
    widen_inverse = max(1.0, rcond * anorm * (1.0 / d).max(initial=0.0))
    condition = _checked_condition(rcond / (widen_norm * widen_inverse), info)

    # Solve C~ X = C~_theta^H; then the reduction term is trace(C~_theta @ X),
    # and w = X^H with the copy-sum rows of X spread over the k copies.
    x = lu_solve((lu, piv), c_theta.conj().T)
    mse = prior_trace - float(np.trace(c_theta @ x).real)
    x_full = np.empty((n, model.m), dtype=np.complex128, order="F")
    x_full[:na] = x[:na]
    # The reshape splits the row axis of a view, so it writes into x_full.
    x_full[na:].reshape(k, p, model.m)[...] = x[na:] / np.sqrt(max(k, 1))
    return LmmseFilter(w=x_full.conj().T, mse=float(_clamped_mse(mse)), condition=condition)


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
    c_x = bundle.c_x
    anorm = _one_norm(c_x)
    chol, info = lapack.zpotrf(c_x, lower=1)
    if info != 0 or not np.all(np.isfinite(np.diag(chol))):
        raise EstimatorUndefinedError("measurement covariance is singular", condition=float("inf"))
    _checked_condition(*lapack.zpocon(chol, anorm, uplo="L"))
    z, _ = lapack.ztrtrs(chol, bundle.c_theta_x.conj().T, lower=1)
    reduction = np.concatenate([[0.0], np.cumsum(np.sum(z.real**2 + z.imag**2, axis=1))])
    return _clamped_mse(float(np.trace(model.sigma_theta).real) - reduction)


def copy_scan_mse(model: MixedModel, analog_rows, copies) -> np.ndarray:
    """LMMSE MSE of many (analog prefix, copy count) points of one model.

    Point i measures with the first ``analog_rows[i]`` rows of ``model.h``
    over ``copies[i]`` copies of the block ``model.g``.  One Cholesky factor
    of all of ``model.h``'s rows and two stacked p x p ``eigh`` serve every
    point (see the module docstring); no n x n matrix of a point is built.
    Returns the MSE of each point, in order.  A failed or non-finite analog
    factor, a non-positive Schur eigenvalue lambda_j + 1/k of a requested
    copy count, or a condition bound above ``CONDITION_LIMIT`` raises
    :class:`EstimatorUndefinedError`.
    """
    rows = np.asarray(analog_rows, dtype=np.int64)
    g1, n, m = model.g, model.n_analog, model.m
    copies = np.asarray(copies, dtype=np.int64)
    if rows.shape != copies.shape or rows.ndim != 1:
        raise ModelError("analog_rows and copies must be 1-d arrays of one length")
    if rows.min(initial=0) < 0 or rows.max(initial=0) > n or copies.min(initial=0) < 0:
        raise ModelError(f"need 0 <= analog_rows <= {n} and copies >= 0")
    p = block_period(g1)
    k = copies * (g1.shape[0] // p) if p else np.zeros_like(copies)
    check_dense_rows(n + p)
    quantized = bool(k.any())
    bundle = assemble(_with_quantized_rows(model, np.tile(g1[:p], (2 if quantized else 0, 1))))
    prior = float(np.trace(model.sigma_theta).real)

    # Z = inv(L) C_theta_xa^H and V = inv(L) B from one factor of the largest
    # C_xa; the first rows of each belong to the leading C_xa.
    zv = np.concatenate([bundle.c_theta_xa.conj().T, bundle.c_aq1], axis=1)
    a_norm = a_inv = 0.0
    if n:
        a_norm = _one_norm(bundle.c_xa)
        chol, info = lapack.zpotrf(bundle.c_xa, lower=1)
        if info != 0 or not np.all(np.isfinite(np.diag(chol))):
            raise EstimatorUndefinedError("analog measurement covariance is singular", condition=float("inf"))
        a_inv = _checked_condition(*lapack.zpocon(chol, a_norm, uplo="L")) / a_norm
        zv, _ = lapack.ztrtrs(chol, zv, lower=1)
    z = zv[:, :m]
    mse = prior - np.concatenate([[0.0], np.cumsum(np.sum(z.real**2 + z.imag**2, axis=1))])[rows]
    if not quantized:
        return _clamped_mse(mse)

    # [Z^H V; V^H V] of every analog prefix that is a multiple of step, the
    # gcd of the requested ones: cumulative sums of the Gram blocks of
    # step-row groups.  Point i reads entry which[i].
    step = max(int(np.gcd.reduce(np.append(rows, n))), 1)
    which = rows // step
    groups = zv.reshape(n // step, step, m + p)
    gram = np.zeros((n // step + 1, m + p, p), dtype=np.complex128)
    np.cumsum(groups.conj().transpose(0, 2, 1) @ groups[..., m:], axis=0, out=gram[1:])
    r0, vv = bundle.c_theta_q1 - gram[:, :m], gram[:, m:]
    # |inv(C_xa) B|^2 <= |inv(C_xa)| |V|^2, with |V|^2 <= trace(V^H V).
    coupling = 1.0 + a_inv * np.trace(vv, axis1=1, axis2=2).real

    d = (bundle.a1 - bundle.a2).diagonal().real
    # Each case: its points, the stacked matrices whose eigenproblem gives
    # them and the cross terms, the shift that turns an eigenvalue into
    # lambda_j + 1/k, the factor (min D, or 1) that turns that into a bound
    # on the Schur complement's eigenvalues, and the floor 1 / min D that the
    # copy differences put under |inv(C_x)|.
    cases = []
    if np.any(k == 1):
        # One copy: C~ is C_x itself and its Schur complement is A1 - V^H V.
        cases.append((k == 1, bundle.a1 - vv, r0, 0.0, 1.0, 0.0))
    more = k >= 2
    if more.any():
        if not np.all(d > 0):
            raise EstimatorUndefinedError(
                "measurement covariance is singular: copies of a noiseless quantized row are identical",
                condition=float("inf"),
            )
        root = 1.0 / np.sqrt(d)
        shift = 1.0 / k[more][:, None]
        cases.append((more, root[:, None] * (bundle.a2 - vv) * root, r0 * root, shift, d.min(), 1.0 / d.min()))
    b_abs = np.abs(bundle.c_aq1)
    cx_inv = np.full(k.shape, a_inv)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sel, s, r, shift, scale, floor in cases:
            lam, u = np.linalg.eigh(s)
            y = r @ u
            w = np.sum(y.real**2 + y.imag**2, axis=1)
            lam = lam[which[sel]] + shift
            if not np.all(lam > 0):
                raise EstimatorUndefinedError(
                    "measurement covariance is singular: non-positive Schur eigenvalue", condition=float("inf")
                )
            mse[sel] -= np.sum(w[which[sel]] / lam, axis=1)
            cx_inv[sel] = np.maximum(a_inv + coupling[which[sel]] / (scale * lam.min(axis=1)), floor)
        # |C_x|_1 with the largest analog prefix, which bounds every prefix;
        # A1 and A2 hold correlations, so their 1-norms are at most p.
        cx_norm = np.where(
            k > 0,
            np.maximum(
                a_norm + k * b_abs.sum(axis=1).max(initial=0.0),
                b_abs.sum(axis=0).max()
                + np.abs(bundle.a1).sum(axis=0).max()
                + (k - 1) * np.abs(bundle.a2).sum(axis=0).max(),
            ),
            a_norm,
        )
        condition = cx_norm * cx_inv
    if not np.all(condition <= CONDITION_LIMIT):
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
