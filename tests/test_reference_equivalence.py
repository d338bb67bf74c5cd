"""The array evaluator and grid searches against the scalar reference loops.

Tie-breaks depend on exact equality, so every comparison here is ``==``,
never a tolerance: MSE values over every branch of the closed form, whole
allocation results with their traces, and the noise-sweep rows.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres.allocation import DitherScheme, PowerBudget, allocate, allocate_with_dither, max_nq, na_range
from mixedres.closed_form import alpha, beta, mse_closed_form, mse_grid
from mixedres.model import OrthoBlockParams
from mixedres.simulate import sweep_allocation_vs_noise, sweep_mse_vs_noise
from oracles import (
    reference_allocate,
    reference_allocate_with_dither,
    reference_mse_closed_form,
)

gains = st.floats(min_value=0.1, max_value=10.0)
# Zero is drawn often: it selects the pure-path, prior-only and noiseless branches.
variances = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0))
# A path's noise plus its dither: a dither of variance d is d more noise.
path_variances = st.builds(lambda noise, dither: noise + dither, variances, variances)
counts = st.one_of(st.just(0), st.integers(min_value=1, max_value=12))
modes = st.sampled_from(DitherScheme.MODES)
grids = st.sampled_from([(0.5, 0.5), (1.0, 0.25), (2.0, 0.1), (0.3, 0.1)])

points = st.builds(
    OrthoBlockParams,
    m=st.integers(min_value=1, max_value=8),
    n_a=counts,
    n_q=counts,
    rho_a=gains,
    rho_q=gains,
    var_a=path_variances,
    var_q=path_variances,
)


@st.composite
def budgets(draw):
    """Budgets with at most a few dozen frontier points, some infeasible."""
    m = draw(st.integers(min_value=1, max_value=4))
    bits = draw(st.integers(min_value=1, max_value=5))
    cap = draw(st.integers(min_value=0, max_value=8))
    extra = draw(st.integers(min_value=0, max_value=30))
    frac = draw(st.floats(min_value=0.0, max_value=0.99))
    p = 2**bits * m * cap + 2 * m * (extra + frac)
    return m, PowerBudget(bits=bits, p_max_norm=p if p > 0 else 0.5)


def _scheme(mode, grid):
    return DitherScheme(mode=mode, grid_max=grid[0], grid_step=grid[1])


def _assert_plain_types(result):
    assert type(result.n_a_star) is int and type(result.n_q_star) is int
    assert type(result.dither_var_star) is float and type(result.mse_star) is float
    for n_a, n_q, dvar, mse in result.trace:
        assert (type(n_a), type(n_q), type(dvar), type(mse)) == (int, int, float, float)


def test_each_branch_once():
    """One explicit case for each branch the evaluator masks."""
    cases = [
        OrthoBlockParams(m=2, n_a=0, n_q=0),
        OrthoBlockParams(m=2, n_a=3, n_q=0, var_a=0.0),
        OrthoBlockParams(m=2, n_a=0, n_q=4, var_q=0.0),
        OrthoBlockParams(m=2, n_a=1, n_q=4, var_a=0.0),
        OrthoBlockParams(m=2, n_a=1, n_q=4, var_a=0.5, var_q=0.0),
        OrthoBlockParams(m=2, n_a=2, n_q=5, var_a=0.3),
    ]
    for params in cases:
        ref = reference_mse_closed_form(params)
        assert mse_closed_form(params) == ref
        grid_value = mse_grid(
            params.m, params.n_a, params.n_q, params.rho_a, params.rho_q,
            params.var_a, params.var_q,
        )
        assert grid_value == ref.value


@given(st.lists(points, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_mse_matches_reference(batch):
    refs = [reference_mse_closed_form(p) for p in batch]
    for params, ref in zip(batch, refs):
        assert mse_closed_form(params) == ref
        va, vq = params.var_a, params.var_q
        assert alpha(params.rho_q, vq) == ref.alpha
        assert beta(params.n_a, params.rho_a, params.rho_q, va, vq) == ref.beta

    def col(name, dtype=np.float64):
        return np.array([getattr(p, name) for p in batch], dtype=dtype)

    va, vq = col("var_a"), col("var_q")
    n_a = col("n_a", np.int64)
    values = mse_grid(col("m", np.int64), n_a, col("n_q", np.int64), col("rho_a"), col("rho_q"), va, vq)
    assert values.tolist() == [ref.value for ref in refs]
    betas = beta(n_a, col("rho_a"), col("rho_q"), va, vq)
    assert betas.tolist() == [ref.beta for ref in refs]


@given(budgets(), gains, gains, variances, variances, modes, grids)
@settings(max_examples=150, deadline=None)
def test_allocation_results_match_reference(instance, rho_a, rho_q, var_a, var_q, mode, grid):
    m, budget = instance
    base = OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q, var_a=var_a, var_q=var_q)
    scheme = _scheme(mode, grid)

    dithered = allocate_with_dither(base, budget, scheme)
    assert dithered == reference_allocate_with_dither(base, budget, scheme)
    _assert_plain_types(dithered)

    plain = allocate(base, budget)
    assert plain == reference_allocate(base, budget)
    _assert_plain_types(plain)


@given(budgets(), gains, gains, st.lists(variances, min_size=1, max_size=6), modes, grids)
@settings(max_examples=100, deadline=None)
def test_allocation_sweep_matches_reference(instance, rho_a, rho_q, sigmas, mode, grid):
    m, budget = instance
    scheme = _scheme(mode, grid)
    rows = sweep_allocation_vs_noise(m, budget, sigmas, scheme, rho_a=rho_a, rho_q=rho_q)
    n_a_max = na_range(m, budget)[-1]
    expected = []
    for sigma2 in sigmas:
        base = OrthoBlockParams(m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=rho_q, var_a=sigma2, var_q=sigma2)
        plain = reference_allocate(base, budget)
        dithered = reference_allocate_with_dither(base, budget, scheme)
        expected.append(
            {
                "sigma2": sigma2,
                "mse_all_analog": reference_mse_closed_form(replace(base, n_a=n_a_max, n_q=0)).value,
                "mse_all_quantized": reference_mse_closed_form(replace(base, n_q=max_nq(0, m, budget))).value,
                "mse_optimal": plain.mse_star,
                "mse_optimal_dithered": dithered.mse_star,
                "n_a_star": plain.n_a_star,
                "n_q_star": plain.n_q_star,
                "n_a_star_dither": dithered.n_a_star,
                "n_q_star_dither": dithered.n_q_star,
                "sigma_d2_star": dithered.dither_var_star,
            }
        )
    assert rows == expected
    for row in rows:
        assert all(type(v) in (int, float) for v in row.values())


@given(points, st.lists(variances, min_size=1, max_size=5), st.lists(st.tuples(counts, counts), max_size=5))
@settings(max_examples=100, deadline=None)
def test_mse_sweep_matches_reference(base, sigmas, allocations):
    rows = sweep_mse_vs_noise(base, sigmas, allocations)
    expected = [
        reference_mse_closed_form(replace(base, n_a=n_a, n_q=n_q, var_a=sigma2, var_q=sigma2)).value
        for sigma2 in sigmas
        for n_a, n_q in allocations
    ]
    assert [row["mse_analytic"] for row in rows] == expected
    assert [(row["sigma2"], row["n_a"], row["n_q"]) for row in rows] == [
        (sigma2, n_a, n_q) for sigma2 in sigmas for n_a, n_q in allocations
    ]


def test_large_random_batch_matches_reference():
    """One array call over many mixed points, where a last-bit rounding
    difference (one square in a thousand) would show."""
    rng = np.random.default_rng(20)
    size = 20_000
    m = rng.integers(1, 9, size)
    n_a = rng.integers(0, 13, size)
    n_q = rng.integers(0, 13, size)
    rho_a, rho_q, va, vq = np.exp(rng.uniform(np.log(0.1), np.log(10.0), (4, size)))
    values = mse_grid(m, n_a, n_q, rho_a, rho_q, va, vq)
    expected = [
        reference_mse_closed_form(
            OrthoBlockParams(m=int(m[i]), n_a=int(n_a[i]), n_q=int(n_q[i]), rho_a=float(rho_a[i]),
                             rho_q=float(rho_q[i]), var_a=float(va[i]), var_q=float(vq[i]))
        ).value
        for i in range(size)
    ]
    assert values.tolist() == expected
