"""Power-constrained allocation of analog and 1-bit quantized measurements.

An analog block costs ``2**bits * m`` units of normalized power (Walden's
ADC power model at the high-resolution depth) and a quantized block costs
``2 * m``.  Because an extra quantized measurement never increases the MSE,
the optimum always lies on the max-power frontier

    n_q = floor((p_max_norm - 2**bits * m * n_a) / (2 * m)),

so a one-dimensional search over n_a suffices.  The closed-form searches
evaluate the whole (noise level x frontier x dither grid) in one
:func:`frontier_grid` call.
:func:`direct_search` evaluates a list of points with the matrix-solve MSE
instead.  Its points share one analog matrix and one quantized block, so a
single copy-count scan (``estimator.copy_scan_mse``) serves them all: one
Cholesky factor of the largest analog covariance, one p x p eigenproblem
per analog count and O(p) work per copy count.  The exhaustive solver runs
it over every feasible pair and serves as the reference oracle.  Every
search picks its optimum with :func:`argbest`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import mse_grid
from .exceptions import InstanceTooLargeError, ModelError, require_finite
from .estimator import check_dense_rows, copy_scan_mse
from .model import MixedModel, OrthoBlockParams, RngStream, make_ortho_matrices

# Most closed-form points (frontier points x dither values x noise levels)
# one search may evaluate.  The grid is built as dense float64 arrays, a few
# dozen of them alive at once, so this bounds memory near 0.2 GB.
MAX_GRID_POINTS = 1_000_000

# Largest bit depth whose analog cost 2**bits is a finite double.
MAX_BITS = sys.float_info.max_exp - 1


@dataclass(frozen=True)
class PowerBudget:
    """Normalized power budget with the high-resolution ADC bit depth."""

    bits: int
    p_max_norm: float

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_BITS:
            raise ModelError(f"bits must be in [1, {MAX_BITS}], got {self.bits}")
        require_finite("p_max_norm", self.p_max_norm, positive=True)

    @classmethod
    def for_analog_blocks(cls, bits: int, m: int, n_a_max: int) -> PowerBudget:
        """The budget of exactly ``n_a_max`` analog blocks, so its frontier has ``n_a_max + 1`` points."""
        return cls(bits=bits, p_max_norm=cls(bits=bits, p_max_norm=1.0).analog_block_cost(m * n_a_max))

    def analog_block_cost(self, m: int) -> float:
        """``2**bits * m``; a :class:`ModelError` when that exceeds the largest double."""
        cost = 2**self.bits * m
        if cost > sys.float_info.max:
            raise ModelError(f"analog cost 2**{self.bits} * {m} is too large for a double")
        return float(cost)

    def quantized_block_cost(self, m: int) -> float:
        return float(2 * m)


@dataclass(frozen=True)
class DitherScheme:
    """Dither search configuration.

    ``quantized-only`` applies the dither variance to the quantized path
    only (the optimal placement); ``both`` applies the same variance to both
    paths; ``none`` disables the search (grid degenerates to {0}).
    """

    mode: str = "quantized-only"
    grid_max: float = 2.0
    grid_step: float = 0.1

    MODES = ("none", "quantized-only", "both")

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ModelError(f"dither mode must be one of {self.MODES}, got {self.mode!r}")
        searched = self.mode != "none"
        require_finite("grid_max", self.grid_max)
        require_finite("grid_step", self.grid_step, positive=searched)
        if searched and self.grid_step > self.grid_max:
            raise ModelError("grid_step must not exceed grid_max")

    def size(self) -> int:
        """Number of dither variances in :meth:`grid`, without building it."""
        if self.mode == "none":
            return 1
        steps = self.grid_max / self.grid_step + 1e-9
        if not math.isfinite(steps):
            raise InstanceTooLargeError(f"dither grid_max / grid_step = {steps} points")
        return int(math.floor(steps)) + 1

    def grid(self) -> list[float]:
        """Dither variances searched: 0, step, ..., up to grid_max inclusive."""
        if self.mode == "none":
            return [0.0]
        return [k * self.grid_step for k in range(self.size())]


@dataclass
class AllocationResult:
    """Chosen allocation, its MSE, and the full list of evaluated points."""

    n_a_star: int
    n_q_star: int
    dither_var_star: float
    mse_star: float
    trace: list  # (n_a, n_q, dither_var, mse) per evaluated point


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of the noiseless-quantized decision rule.

    Option 1 keeps at least one quantized measurement alongside the analog
    ones; option 2 spends the whole budget on analog measurements.
    """

    option: int
    n_a: int
    n_q: int


def na_range(m: int, budget: PowerBudget) -> range:
    """Feasible analog block counts 0..floor(p_max_norm / (2**bits * m))."""
    return range(int(math.floor(budget.p_max_norm / budget.analog_block_cost(m))) + 1)


def max_nq(n_a: int, m: int, budget: PowerBudget) -> int:
    """Largest quantized block count that fits next to ``n_a`` analog blocks."""
    if n_a not in na_range(m, budget):
        raise ModelError(f"n_a={n_a} outside the feasible range {na_range(m, budget)}")
    residual = budget.p_max_norm - budget.analog_block_cost(m) * n_a
    return int(math.floor(residual / budget.quantized_block_cost(m)))


def frontier(m: int, budget: PowerBudget) -> tuple[list[int], list[int]]:
    """Max-power frontier: every feasible n_a and the largest n_q next to it."""
    n_a = list(na_range(m, budget))
    return n_a, [max_nq(k, m, budget) for k in n_a]


def check_grid_size(m: int, budget: PowerBudget, scheme: DitherScheme, noise_levels: int = 1) -> None:
    """Refuse a closed-form search over more than ``MAX_GRID_POINTS`` points.

    Counts without building anything, so an oversized budget fails fast.
    """
    points = (na_range(m, budget)[-1] + 1) * scheme.size() * noise_levels
    if points > MAX_GRID_POINTS:
        raise InstanceTooLargeError(f"closed-form search has {points} points (limit {MAX_GRID_POINTS})")


def frontier_grid(m, rho_a, rho_q, var_a, var_q, budget: PowerBudget, scheme: DitherScheme):
    """Closed-form MSE of every (noise level, frontier point, dither value).

    ``var_a`` and ``var_q`` hold one noise variance per level.  Returns the
    frontier counts ``n_a`` and ``n_q``, the dither grid and the MSE array
    of shape (levels, frontier points, dither values); the scheme places each
    dither variance on the paths its mode names.  The size is checked
    against ``MAX_GRID_POINTS`` before anything is built.
    """
    va = np.asarray(var_a, dtype=np.float64).reshape(-1, 1, 1)
    vq = np.asarray(var_q, dtype=np.float64).reshape(-1, 1, 1)
    check_grid_size(m, budget, scheme, len(va))
    n_a, n_q = frontier(m, budget)
    grid = scheme.grid()
    dq = np.array(grid)
    da = dq if scheme.mode == "both" else np.zeros_like(dq)
    counts_a = np.asarray(n_a, dtype=np.float64).reshape(-1, 1)
    counts_q = np.asarray(n_q, dtype=np.float64).reshape(-1, 1)
    return n_a, n_q, grid, mse_grid(m, counts_a, counts_q, rho_a, rho_q, va + da, vq + dq)


def argbest(mse, dither_var, n_a) -> np.ndarray:
    """Index of the optimum along the last axis of ``mse``.

    The package's one tie-break rule: least MSE, then least dither variance,
    then least n_a.  The sort is stable, so a full tie keeps the earlier
    point, which in an n_a-major trace is the one with fewer quantized
    blocks.
    """
    mse = np.asarray(mse)
    keys = [np.broadcast_to(np.asarray(k), mse.shape) for k in (n_a, dither_var, mse)]
    return np.lexsort(keys, axis=-1)[..., 0]


def optimum(trace: list) -> AllocationResult:
    """The :func:`argbest` entry of a trace of (n_a, n_q, dither_var, mse) tuples."""
    n_a, _, dither_var, mse = zip(*trace)
    n_a_star, n_q_star, dither_star, mse_star = trace[int(argbest(mse, dither_var, n_a))]
    return AllocationResult(
        n_a_star=n_a_star, n_q_star=n_q_star, dither_var_star=dither_star, mse_star=mse_star, trace=trace
    )


def _require_clean_base(params_base: OrthoBlockParams) -> None:
    if params_base.var_da != 0.0 or params_base.var_dq != 0.0:
        raise ModelError("params_base must carry zero dither variances; dither is a decision variable")


def allocate(params_base: OrthoBlockParams, budget: PowerBudget) -> AllocationResult:
    """Minimize the closed-form MSE over the max-power frontier.

    The counts in ``params_base`` are ignored (they are the decision
    variables).  Ties break toward smaller n_a.  An infeasible budget
    degenerates to the prior-only point (0, 0).
    """
    return allocate_with_dither(params_base, budget, DitherScheme(mode="none"))


def allocate_with_dither(
    params_base: OrthoBlockParams, budget: PowerBudget, scheme: DitherScheme
) -> AllocationResult:
    """Joint grid search over the max-power frontier and the dither variance.

    For each frontier point the dither variance runs over the scheme grid;
    the global best is kept with ties broken toward smaller dither variance,
    then smaller n_a.  The trace lists the points n_a-major.
    """
    _require_clean_base(params_base)
    p = params_base
    n_a, n_q, grid, mse = frontier_grid(p.m, p.rho_a, p.rho_q, p.var_a, p.var_q, budget, scheme)
    points = [(a, q, d) for a, q in zip(n_a, n_q) for d in grid]
    return optimum([(*point, value) for point, value in zip(points, mse.ravel().tolist())])


def allocate_exhaustive(
    params_base: OrthoBlockParams,
    budget: PowerBudget,
    rng: RngStream | None = None,
    max_pairs: int = 10_000,
) -> AllocationResult:
    """Reference solver: scan every feasible pair with the matrix-solve MSE.

    Mixing matrices are drawn once at the largest feasible size and sliced,
    so all evaluated models share the same blocks.  Instances whose feasible
    grid exceeds ``max_pairs`` points, or whose scan would factor more than
    ``MAX_DENSE_ROWS`` rows (m per analog block plus one quantized period),
    are refused before anything is drawn.
    """
    _require_clean_base(params_base)
    m = params_base.m
    rng = rng if rng is not None else RngStream(0)

    # Every feasible n_a adds at least one pair, so the count stops within
    # max_pairs steps however large the budget is.
    counts = []
    n_pairs = 0
    for n_a in na_range(m, budget):
        nq_max = max_nq(n_a, m, budget)
        n_pairs += nq_max + 1
        if n_pairs > max_pairs:
            raise InstanceTooLargeError(f"feasible grid has more than {max_pairs} pairs")
        counts.append((n_a, nq_max))
    # The scan factors the analog rows of the largest n_a and one period
    # (at most m rows) of the quantized block.
    check_dense_rows(m * (counts[-1][0] + 1))

    # One quantized block suffices; each evaluated pair tiles it as needed.
    h_full, g_full = make_ortho_matrices(replace(params_base, n_a=counts[-1][0], n_q=1), rng)
    pairs = [(n_a, n_q) for n_a, nq_max in counts for n_q in range(nq_max + 1)]
    return direct_search(params_base, pairs, h_full, g_full[:m])


def direct_search(params_base: OrthoBlockParams, points, h_full: np.ndarray, g1: np.ndarray) -> AllocationResult:
    """Matrix-solve search: the LMMSE MSE of every (n_a, n_q) point, then :func:`optimum`.

    Point (n_a, n_q) stacks the first ``n_a`` m-row blocks of ``h_full``
    over ``n_q`` copies of the quantized block ``g1``, with the noise
    variances of ``params_base``; the prior-only point (0, 0) has MSE m.
    One :func:`~mixedres.estimator.copy_scan_mse` over the largest
    requested ``n_a`` covers every point: one Cholesky factor of its analog
    rows, then O(p) work per copy count.  The trace keeps the order of
    ``points``.  This is the reference the closed-form searches are checked
    against.  Negative counts, an ``n_a`` beyond the blocks of ``h_full``
    and an ``h_full`` or ``g1`` without m columns raise :class:`ModelError`.
    """
    _require_clean_base(params_base)
    m = params_base.m
    points = list(points)
    counts = np.array(points, dtype=np.int64).reshape(-1, 2)
    if not len(counts):
        raise ModelError("direct_search needs at least one point")
    if counts.min() < 0:
        raise ModelError("block counts must be nonnegative")
    n_a_max = int(counts[:, 0].max())
    if n_a_max > len(h_full) // m:
        raise ModelError(f"n_a={n_a_max} exceeds the {len(h_full) // m} analog blocks of h_full")
    model = MixedModel(
        h=h_full[: m * n_a_max],
        g=g1,
        sigma_theta=np.eye(m, dtype=np.complex128),
        var_a=params_base.var_a,
        var_q=params_base.var_q,
    )
    mse = copy_scan_mse(model, m * counts[:, 0], counts[:, 1])
    return optimum([(n_a, n_q, 0.0, value) for (n_a, n_q), value in zip(points, mse.tolist())])


def noiseless_quantized_policy(
    m: int, budget: PowerBudget, rho_a: float, var_a: float
) -> PolicyDecision:
    """Analytic allocation rule for the vanishing quantized-noise regime.

    With noiseless quantizer input the MSE no longer depends on how many
    quantized blocks are used (beyond the first), so the choice reduces to:
    keep one-or-more quantized measurements next to the analog ones
    (option 1), or spend everything on analog measurements (option 2).
    """
    n_a_max = na_range(m, budget)[-1]
    residual = budget.p_max_norm - n_a_max * budget.analog_block_cost(m)
    if residual >= budget.quantized_block_cost(m):
        # Max analog count still leaves room for a quantized measurement.
        return PolicyDecision(option=1, n_a=n_a_max, n_q=max_nq(n_a_max, m, budget))
    if n_a_max == 0:
        # Nothing is affordable at all.
        return PolicyDecision(option=2, n_a=0, n_q=0)
    lhs = ((np.pi - 2.0) * rho_a**2 - 2.0 * rho_a * var_a) * n_a_max
    rhs = 2.0 * var_a**2 - np.pi * rho_a * var_a + (np.pi - 2.0) * rho_a**2
    if lhs > rhs:
        return PolicyDecision(option=2, n_a=n_a_max, n_q=0)
    return PolicyDecision(option=1, n_a=n_a_max - 1, n_q=max_nq(n_a_max - 1, m, budget))
