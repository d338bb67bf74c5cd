"""Tests for power-constrained allocation, dithering, and decision rules."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mixedres import allocation
from mixedres.allocation import (
    MAX_BITS,
    MAX_GRID_POINTS,
    DitherScheme,
    PowerBudget,
    allocate,
    allocate_exhaustive,
    allocate_with_dither,
    argbest,
    check_grid_size,
    direct_search,
    frontier,
    frontier_grid,
    max_nq,
    na_range,
    noiseless_quantized_policy,
)
from mixedres.closed_form import mse_closed_form, mse_grid, mse_pure_analog
from mixedres.exceptions import EstimatorUndefinedError, InstanceTooLargeError, ModelError, NumericalDomainError
from mixedres.model import OrthoBlockParams, RngStream, make_ortho_matrices
from mixedres.simulate import sweep_allocation_vs_noise
from oracles import log_uniform, reference_argbest, reference_direct_search_mse

REFERENCE_BUDGET = PowerBudget(bits=6, p_max_norm=12800.0)


def _params(m=10, rho=1.0, sigma2=1.0, **kw):
    return OrthoBlockParams(
        m=m, n_a=0, n_q=0, rho_a=rho, rho_q=rho, var_a=sigma2, var_q=sigma2, **kw
    )


class TestRanges:
    def test_reference_budget(self):
        assert na_range(10, REFERENCE_BUDGET) == range(0, 21)

    def test_small_budget(self):
        assert na_range(5, PowerBudget(bits=2, p_max_norm=100.0)) == range(0, 6)

    def test_budget_below_one_analog_block(self):
        assert list(na_range(4, PowerBudget(bits=6, p_max_norm=100.0))) == [0]

    def test_max_nq_values(self):
        assert max_nq(3, 5, PowerBudget(bits=2, p_max_norm=100.0)) == 4
        assert max_nq(0, 10, REFERENCE_BUDGET) == 640
        assert max_nq(20, 10, REFERENCE_BUDGET) == 0

    def test_max_nq_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            max_nq(21, 10, REFERENCE_BUDGET)


class TestBudgetValidation:
    @pytest.mark.parametrize("p", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_power(self, p):
        with pytest.raises(ModelError, match="p_max_norm"):
            PowerBudget(bits=6, p_max_norm=p)

    @pytest.mark.parametrize("bits", [0, MAX_BITS + 1, 2000, 10**12])
    def test_rejects_bad_bits(self, bits):
        with pytest.raises(ModelError, match="bits"):
            PowerBudget(bits=bits, p_max_norm=100.0)

    def test_block_cost_overflow(self):
        budget = PowerBudget(bits=MAX_BITS, p_max_norm=100.0)
        assert budget.analog_block_cost(1) == 2.0**MAX_BITS
        with pytest.raises(ModelError, match="too large"):
            budget.analog_block_cost(2)
        with pytest.raises(ModelError):
            PowerBudget.for_analog_blocks(MAX_BITS, 1, 2)
        # A cost below minus the largest double is refused too, not overflowed.
        with pytest.raises(ModelError, match=r"about -1\.00e\+4299 is too large"):
            PowerBudget(bits=1, p_max_norm=100.0).analog_block_cost(-(10**4299))

    @pytest.mark.parametrize("bits, m, n_a_max", [(6, 10, 20), (1, 3, 7), (1000, 3, 5)])
    def test_budget_for_analog_blocks(self, bits, m, n_a_max):
        budget = PowerBudget.for_analog_blocks(bits, m, n_a_max)
        assert budget.p_max_norm == float(2**bits * m * n_a_max)
        assert na_range(m, budget)[-1] == n_a_max


class TestGridSizeGuard:
    # Finite, but with about 5e14 frontier points: the guard must fire
    # before anything of that size is built.
    HUGE = PowerBudget(bits=1, p_max_norm=1e15)

    def test_limit_far_above_shipped_sweep(self):
        # configs/mimo_allocation.yaml: 25 noise levels x 21 frontier points x 21 dither values.
        check_grid_size(10, REFERENCE_BUDGET, DitherScheme(), 25)
        assert MAX_GRID_POINTS >= 50 * 25 * 21 * 21

    def test_allocate_refuses_oversized_budget(self):
        with pytest.raises(InstanceTooLargeError):
            allocate(_params(m=1), self.HUGE)
        with pytest.raises(InstanceTooLargeError):
            allocate_with_dither(_params(m=1), self.HUGE, DitherScheme())

    def test_message_gives_a_long_count_in_short_form(self):
        # 2.6e+310 points: beyond the float range, so it is shortened as digits.
        with pytest.raises(InstanceTooLargeError) as exc:
            check_grid_size(1, PowerBudget(bits=1, p_max_norm=1e308), DitherScheme(), 25)
        assert str(exc.value) == "closed-form search has about 2.62e+310 points (limit 1000000)"
        with pytest.raises(InstanceTooLargeError, match="has 1000002 points"):
            check_grid_size(1, PowerBudget(bits=1, p_max_norm=2.0 * 1000001), DitherScheme(mode="none"))

    def test_sweep_counts_noise_levels(self):
        budget = PowerBudget(bits=1, p_max_norm=2.0 * 2000)  # 2001 frontier points
        with pytest.raises(InstanceTooLargeError):
            sweep_allocation_vs_noise(1, budget, [1.0] * 30, DitherScheme())
        with pytest.raises(InstanceTooLargeError):
            sweep_allocation_vs_noise(1, self.HUGE, [1.0], DitherScheme(mode="none"))


@st.composite
def frontier_budgets(draw):
    """(m, budget) with at most 2001 frontier points: low bit depths and
    depths near ``MAX_BITS``, some at the largest double, some on a point
    whose residual is exactly zero."""
    m = draw(st.integers(min_value=1, max_value=16))
    bits = draw(st.one_of(st.integers(min_value=1, max_value=12), st.integers(MAX_BITS - 12, MAX_BITS)))
    cost = 2.0**bits * m
    assume(cost <= sys.float_info.max)
    k = draw(st.integers(min_value=0, max_value=2000))
    frac = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
    p = min(cost * (k + frac), sys.float_info.max)  # an overflowing product becomes the largest double
    return m, PowerBudget(bits=bits, p_max_norm=p if p > 0 else 2.0 * m)


class TestFrontier:
    @settings(max_examples=300, deadline=None)
    @given(frontier_budgets())
    def test_frontier_is_the_max_nq_loop(self, case):
        m, budget = case
        n_a, n_q = frontier(m, budget)
        assert n_a == list(na_range(m, budget))
        assert n_q == [max_nq(k, m, budget) for k in n_a]
        assert all(type(v) is int for v in n_a + n_q)

    def test_counts_beyond_int64_stay_exact(self):
        budget = PowerBudget(bits=MAX_BITS - 3, p_max_norm=sys.float_info.max)
        n_a, n_q = frontier(1, budget)
        assert n_a == list(range(16))
        assert n_q[0] == int(sys.float_info.max / 2) > 2**1000
        assert n_q == [max_nq(k, 1, budget) for k in n_a]

    @pytest.mark.parametrize("mode", DitherScheme.MODES)
    @settings(max_examples=40, deadline=None)
    @given(
        budget=st.builds(
            lambda m, bits, p: (m, PowerBudget(bits=bits, p_max_norm=p)),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
            st.floats(min_value=0.5, max_value=300.0),
        ),
        gains=st.tuples(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0)),
        levels=st.lists(
            st.tuples(*[st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0))] * 2),
            min_size=1,
            max_size=4,
        ),
        grid=st.sampled_from([(0.5, 0.5), (1.0, 0.25), (2.0, 0.1)]),
    )
    def test_grid_equals_the_full_broadcast(self, mode, budget, gains, levels, grid):
        """Every dither value added to both variances before the one ``mse_grid``
        call gives the same bits as the grid's own shapes."""
        (m, budget), (rho_a, rho_q) = budget, gains
        var_a, var_q = (np.array(v) for v in zip(*levels))
        scheme = DitherScheme(mode=mode, grid_max=grid[0], grid_step=grid[1])
        n_a, n_q, dither, mse = frontier_grid(m, rho_a, rho_q, var_a, var_q, budget, scheme)
        dq = np.array(dither)
        da = dq if mode == "both" else np.zeros_like(dq)
        ref = mse_grid(
            m,
            np.array(n_a, dtype=np.float64).reshape(-1, 1),
            np.array(n_q, dtype=np.float64).reshape(-1, 1),
            rho_a,
            rho_q,
            var_a.reshape(-1, 1, 1) + da,
            var_q.reshape(-1, 1, 1) + dq,
        )
        assert mse.shape == ref.shape == (len(levels), len(n_a), len(dither))
        assert mse.tobytes() == ref.tobytes()


class TestAllocate:
    def test_noiseless_analog_prefers_single_block(self):
        result = allocate(_params(m=4, sigma2=0.0), PowerBudget(bits=4, p_max_norm=500.0))
        assert result.n_a_star == 1
        assert result.mse_star == 0.0

    def test_low_noise_goes_all_analog(self):
        result = allocate(_params(sigma2=0.1), REFERENCE_BUDGET)
        assert (result.n_a_star, result.n_q_star) == (20, 0)
        assert result.mse_star == pytest.approx(mse_pure_analog(10, 20, 1.0, 0.1), abs=1e-12)

    def test_high_noise_goes_all_quantized(self):
        result = allocate(_params(sigma2=3.0), REFERENCE_BUDGET)
        assert (result.n_a_star, result.n_q_star) == (0, 640)

    def test_result_on_max_power_frontier(self):
        for sigma2 in (0.1, 0.7, 1.8, 3.0):
            result = allocate(_params(sigma2=sigma2), REFERENCE_BUDGET)
            assert result.n_q_star == max_nq(result.n_a_star, 10, REFERENCE_BUDGET)
            used = 640 * result.n_a_star + 20 * result.n_q_star
            # Spent up to the budget minus less than one quantized block.
            assert 0 <= 12800.0 - used < 20.0

    def test_infeasible_budget_returns_prior_point(self):
        result = allocate(_params(m=8), PowerBudget(bits=4, p_max_norm=10.0))
        assert (result.n_a_star, result.n_q_star) == (0, 0)
        assert result.mse_star == 8.0

    def test_mse_star_is_trace_minimum(self):
        result = allocate(_params(sigma2=1.3), REFERENCE_BUDGET)
        assert result.mse_star == min(entry[3] for entry in result.trace)


class TestExhaustiveOracle:
    def test_agrees_with_frontier_search(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = int(rng.integers(1, 4))
            bits = int(rng.integers(2, 5))
            n_a_cap = int(rng.integers(0, 4))
            extra = int(rng.integers(1, 9))
            budget = PowerBudget(bits=bits, p_max_norm=float(2**bits * m * n_a_cap + 2 * m * extra))
            params = _params(
                m=m, rho=log_uniform(rng, 0.1, 10.0), sigma2=log_uniform(rng, 0.1, 10.0)
            )
            fast = allocate(params, budget)
            ref = allocate_exhaustive(params, budget, rng=RngStream(int(rng.integers(1 << 30))))
            assert abs(fast.mse_star - ref.mse_star) <= 1e-12

    def test_interior_points_never_beat_frontier(self):
        budget = PowerBudget(bits=3, p_max_norm=70.0)
        params = _params(m=2, sigma2=1.4)
        ref = allocate_exhaustive(params, budget, rng=RngStream(3))
        frontier_best = min(
            mse for n_a, n_q, _, mse in ref.trace if n_q == max_nq(n_a, 2, budget)
        )
        interior_best = min(
            (mse for n_a, n_q, _, mse in ref.trace if n_q < max_nq(n_a, 2, budget)),
            default=np.inf,
        )
        assert frontier_best <= interior_best + 1e-12

    def test_infeasible_budget(self):
        ref = allocate_exhaustive(_params(m=8), PowerBudget(bits=4, p_max_norm=10.0))
        assert (ref.n_a_star, ref.n_q_star) == (0, 0)
        assert ref.mse_star == 8.0

    def test_size_guards(self, monkeypatch):
        """An analog factor of 8200 rows plus one quantized period is refused
        before any matrix is drawn; so is a grid of more than
        ``MAX_EXHAUSTIVE_PAIRS`` pairs."""
        monkeypatch.setattr(allocation, "make_ortho_matrices", None)
        monkeypatch.setattr(allocation, "MAX_EXHAUSTIVE_PAIRS", 10**6)
        with pytest.raises(InstanceTooLargeError, match="8210 rows"):
            allocate_exhaustive(_params(), PowerBudget.for_analog_blocks(1, 10, 820))
        monkeypatch.setattr(allocation, "MAX_EXHAUSTIVE_PAIRS", 100)
        with pytest.raises(InstanceTooLargeError):
            allocate_exhaustive(_params(m=1), PowerBudget(bits=1, p_max_norm=4000.0))

    @pytest.mark.parametrize("bits, max_pairs", [(1, 10_000), (40, 10_000), (1, 100)])
    def test_pair_count_stops_at_the_limit(self, monkeypatch, bits, max_pairs):
        """A budget of about 5e14 feasible pairs is refused without building a
        frontier of more than ``MAX_EXHAUSTIVE_PAIRS`` points, and before any draw."""
        monkeypatch.setattr(allocation, "MAX_EXHAUSTIVE_PAIRS", max_pairs)
        monkeypatch.setattr(allocation, "make_ortho_matrices", None)
        real_frontier = allocation.frontier

        def short_frontier(m, budget):
            if len(na_range(m, budget)) > max_pairs:
                raise AssertionError("frontier built past the pair limit")
            return real_frontier(m, budget)

        monkeypatch.setattr(allocation, "frontier", short_frontier)
        with pytest.raises(InstanceTooLargeError, match=f"^feasible grid has more than {max_pairs} pairs$"):
            allocate_exhaustive(_params(m=1), PowerBudget(bits=bits, p_max_norm=1e15))

    @pytest.mark.parametrize("bits, p_max_norm, n_pairs", [(1, 88.0, 1035), (20, 19998.0, 10_000)])
    def test_pair_limit_edges(self, monkeypatch, bits, p_max_norm, n_pairs):
        """A grid of exactly ``MAX_EXHAUSTIVE_PAIRS`` pairs is scanned; one pair
        more is refused with the same message.  Bits 1 walks 45 n_a values,
        bits 20 one n_a with 10000 quantized counts (the default limit)."""
        budget = PowerBudget(bits=bits, p_max_norm=p_max_norm)
        n_a, n_q = frontier(1, budget)
        assert len(n_a) + sum(n_q) == n_pairs
        monkeypatch.setattr(allocation, "MAX_EXHAUSTIVE_PAIRS", n_pairs)
        result = allocate_exhaustive(_params(m=1), budget)
        assert len(result.trace) == n_pairs
        monkeypatch.setattr(allocation, "MAX_EXHAUSTIVE_PAIRS", n_pairs - 1)
        with pytest.raises(InstanceTooLargeError, match=f"^feasible grid has more than {n_pairs - 1} pairs$"):
            allocate_exhaustive(_params(m=1), budget)


class TestDirectSearch:
    def _blocks(self, params, n_a_max, seed=4):
        return make_ortho_matrices(replace(params, n_a=n_a_max, n_q=1), RngStream(seed))

    def test_frontier_agrees_with_closed_form(self):
        params = _params(m=3, rho=0.7, sigma2=1.3)
        budget = PowerBudget.for_analog_blocks(4, 3, 3)
        h_full, g1 = self._blocks(params, 3)
        ref = direct_search(params, zip(*frontier(3, budget)), h_full, g1)
        fast = allocate(params, budget)
        assert [entry[:3] for entry in ref.trace] == [entry[:3] for entry in fast.trace]
        for (*_, direct), (*_, closed) in zip(ref.trace, fast.trace):
            assert direct == pytest.approx(closed, abs=1e-9 * 3)
        assert (ref.n_a_star, ref.n_q_star) == (fast.n_a_star, fast.n_q_star)

    def test_points_in_order_and_prior_only_point(self):
        params = _params(m=2, sigma2=0.5)
        h_full, g1 = self._blocks(params, 2)
        points = [(2, 0), (0, 0), (0, 3), (1, 1)]
        res = direct_search(params, iter(points), h_full, g1)
        assert [(n_a, n_q) for n_a, n_q, _, _ in res.trace] == points
        assert res.trace[1] == (0, 0, 0.0, 2.0)
        assert all(dither == 0.0 for _, _, dither, _ in res.trace)
        best = min(res.trace, key=lambda entry: entry[3])
        assert (res.n_a_star, res.n_q_star, res.mse_star) == (best[0], best[1], best[3])

    def test_exhaustive_is_direct_search_over_all_pairs(self):
        params = _params(m=2, rho=1.4, sigma2=0.8)
        budget = PowerBudget(bits=3, p_max_norm=70.0)
        h_full, g1 = self._blocks(params, na_range(2, budget)[-1], seed=9)
        pairs = [(a, q) for a in na_range(2, budget) for q in range(max_nq(a, 2, budget) + 1)]
        assert allocate_exhaustive(params, budget, rng=RngStream(9)) == direct_search(params, pairs, h_full, g1)

    def test_prefix_scan_equals_one_solve_per_point(self):
        """All pairs of criterion-4-shaped instances: every MSE within 1e-12
        of a per-point LU solve, and the same optimum."""
        rng = np.random.default_rng(606)
        for trial in range(30):
            m = int(rng.integers(1, 4))
            bits = int(rng.integers(2, 5))
            n_a_cap = int(rng.integers(0, 4))
            extra = int(rng.integers(1, 9))
            budget = PowerBudget(bits=bits, p_max_norm=float(2**bits * m * n_a_cap + 2 * m * extra))
            params = OrthoBlockParams(
                m=m, n_a=0, n_q=0,
                rho_a=log_uniform(rng, 0.1, 10.0), rho_q=log_uniform(rng, 0.1, 10.0),
                var_a=log_uniform(rng, 0.1, 10.0), var_q=log_uniform(rng, 0.1, 10.0),
            )
            h_full, g1 = self._blocks(params, na_range(m, budget)[-1], seed=trial)
            pairs = [(a, q) for a in na_range(m, budget) for q in range(max_nq(a, m, budget) + 1)]
            res = direct_search(params, pairs, h_full, g1)
            expected = reference_direct_search_mse(params, pairs, h_full, g1)
            assert [(n_a, n_q) for n_a, n_q, _, _ in res.trace] == pairs
            for (*_, mse), ref in zip(res.trace, expected):
                assert abs(mse - ref) <= 1e-12, f"trial {trial}"
            best = min(range(len(pairs)), key=lambda i: (expected[i], pairs[i][0]))
            assert (res.n_a_star, res.n_q_star) == pairs[best], f"trial {trial}"

    def test_singular_largest_model_of_a_group_is_refused(self):
        """Two identical noiseless analog rows make every n_a = 2 model singular;
        the n_a = 1 group alone still solves."""
        params = replace(_params(m=1), var_a=0.0)
        h_full, g1 = np.ones((2, 1), dtype=complex), np.ones((1, 1), dtype=complex)
        assert len(direct_search(params, [(1, 0), (1, 1)], h_full, g1).trace) == 2
        with pytest.raises(EstimatorUndefinedError):
            direct_search(params, [(1, 0), (1, 1), (2, 0), (2, 1)], h_full, g1)

    @pytest.mark.parametrize(
        "points",
        [
            [(3, 5)], [(3, 0), (1, 0)], [(-1, 1)], [(1, -1)], [],
            [(1.5, 2.7)], [(1, 2.0)], [(True, 1)], [(1, np.True_)], [(1, "2")], [(1, 2, 3)], [(1, 2), (1,)], [1, 2],
        ],
        ids=[
            "n_a-beyond-blocks", "n_a-beyond-blocks-later", "negative-n_a", "negative-n_q", "no-points",
            "fractions", "whole-float", "bool", "numpy-bool", "string", "triple", "single", "not-pairs",
        ],
    )
    def test_rejects_bad_points(self, points):
        """Among them counts that are not integers: a float was once truncated
        while the trace reported it as given."""
        params = _params(m=2)
        h_full, g1 = self._blocks(params, 1)
        with pytest.raises(ModelError):
            direct_search(params, points, h_full, g1)

    def test_numpy_counts_give_an_int_trace(self):
        params = _params(m=2, sigma2=0.5)
        h_full, g1 = self._blocks(params, 2)
        points = [(1, 0), (2, 3), (0, 1), (2, 1)]
        res = direct_search(params, np.array(points, dtype=np.uint8), h_full, g1)
        assert res == direct_search(params, points, h_full, g1)
        assert {type(count) for entry in res.trace for count in entry[:2]} == {int}
        assert type(res.n_a_star) is int and type(res.n_q_star) is int

    def test_rejects_counts_beyond_int64(self):
        """Such a count once ended in a raw OverflowError from NumPy."""
        params = _params(m=2)
        h_full, g1 = self._blocks(params, 1)
        with pytest.raises(InstanceTooLargeError, match=r"^n_q=about 9\.22e\+18 exceeds the int64 range"):
            direct_search(params, [(1, 0), (1, 2**63)], h_full, g1)
        with pytest.raises(ModelError, match=r"^n_a=about 9\.22e\+18 exceeds the 1 analog blocks"):
            direct_search(params, [(2**63, 0)], h_full, g1)

    def test_rejects_blocks_without_m_columns(self):
        params = _params(m=2)
        h_full, g1 = self._blocks(params, 1)
        with pytest.raises(ModelError):
            direct_search(params, [(1, 1)], h_full[:, :1], g1)
        with pytest.raises(ModelError):
            direct_search(params, [(0, 1)], h_full, np.ones((2, 3)))

    def test_noiseless_quantizer_solves_single_copies_only(self):
        """At var_q = 0 two copies of a sign row are identical, so every
        point with n_q >= 2 is singular; n_q <= 1 still solves."""
        params = replace(_params(m=2), var_q=0.0)
        h_full, g1 = self._blocks(params, 1)
        points = [(1, 1), (0, 1), (1, 0), (0, 0)]
        res = direct_search(params, points, h_full, g1)
        expected = reference_direct_search_mse(params, points, h_full, g1)
        for (*_, mse), ref in zip(res.trace, expected):
            assert abs(mse - ref) <= 1e-12
        for point in [(1, 2), (0, 2)]:
            with pytest.raises(EstimatorUndefinedError):
                direct_search(params, [*points, point], h_full, g1)


class TestDitherScheme:
    def test_grid_reproduces_reference_design(self):
        grid = DitherScheme(mode="quantized-only", grid_max=2.0, grid_step=0.1).grid()
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == 2.0

    def test_mode_none_grid(self):
        assert DitherScheme(mode="none").grid() == [0.0]

    def test_validation(self):
        with pytest.raises(ModelError):
            DitherScheme(mode="analog-only")
        with pytest.raises(ModelError):
            DitherScheme(mode="both", grid_max=0.05, grid_step=0.1)
        with pytest.raises(ModelError):
            DitherScheme(mode="both", grid_step=0.0)

    @pytest.mark.parametrize("mode", DitherScheme.MODES)
    @pytest.mark.parametrize("field", ["grid_max", "grid_step"])
    def test_rejects_non_finite(self, mode, field):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ModelError, match=field):
                DitherScheme(mode=mode, **{field: value})

    def test_size_matches_grid(self):
        for scheme in (DitherScheme(), DitherScheme(mode="none"), DitherScheme(grid_max=0.3, grid_step=0.1)):
            assert scheme.size() == len(scheme.grid())


class TestAllocateWithDither:
    def test_mode_none_equals_plain_allocate(self):
        plain = allocate(_params(sigma2=1.0), REFERENCE_BUDGET)
        dithered = allocate_with_dither(_params(sigma2=1.0), REFERENCE_BUDGET, DitherScheme(mode="none"))
        assert (dithered.n_a_star, dithered.n_q_star) == (plain.n_a_star, plain.n_q_star)
        assert dithered.mse_star == plain.mse_star
        assert dithered.dither_var_star == 0.0

    def test_never_worse_than_undithered(self):
        scheme = DitherScheme()
        for sigma2 in (0.1, 0.5, 1.0, 2.0, 3.0):
            plain = allocate(_params(sigma2=sigma2), REFERENCE_BUDGET)
            dithered = allocate_with_dither(_params(sigma2=sigma2), REFERENCE_BUDGET, scheme)
            assert dithered.mse_star <= plain.mse_star + 1e-15

    def test_strict_improvement_at_moderate_noise(self):
        plain = allocate(_params(sigma2=1.0), REFERENCE_BUDGET)
        dithered = allocate_with_dither(_params(sigma2=1.0), REFERENCE_BUDGET, DitherScheme())
        assert dithered.mse_star < plain.mse_star

    def test_no_dither_at_low_noise(self):
        dithered = allocate_with_dither(_params(sigma2=0.05), REFERENCE_BUDGET, DitherScheme())
        assert dithered.dither_var_star == 0.0

    def test_both_mode_dominated_by_quantized_only_placement(self):
        """Moving the chosen dither variance off the analog path never hurts."""
        scheme = DitherScheme(mode="both")
        for sigma2 in (0.4, 1.0, 2.5):
            result = allocate_with_dither(_params(sigma2=sigma2), REFERENCE_BUDGET, scheme)
            # The chosen dither added to the noise of both paths, then taken off the analog one.
            chosen = replace(
                _params(sigma2=sigma2 + result.dither_var_star),
                n_a=result.n_a_star,
                n_q=result.n_q_star,
            )
            analog_dither_removed = replace(chosen, var_a=sigma2)
            assert (
                mse_closed_form(analog_dither_removed).value
                <= mse_closed_form(chosen).value + 1e-15
            )

    def test_trace_covers_full_grid(self):
        scheme = DitherScheme(grid_max=0.5, grid_step=0.25)
        budget = PowerBudget(bits=2, p_max_norm=16.0)
        result = allocate_with_dither(_params(m=2, sigma2=1.0), budget, scheme)
        assert len(result.trace) == len(na_range(2, budget)) * 3


@st.composite
def optimum_inputs(draw):
    """``(mse, dither_var, n_a)`` for :func:`argbest`: a trace or a (levels x
    points) grid over n_a-major (n_a, dither) points, with keys along the last
    axis and ties forced in the MSE, the dither variance and n_a."""
    n_counts, n_dither = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = n_counts * n_dither
    n_a = np.repeat(np.arange(n_counts), n_dither)
    dither = np.tile(draw(st.lists(st.sampled_from([0.0, 0.1, 0.2]), min_size=n_dither, max_size=n_dither)), n_counts)
    shape = draw(st.sampled_from([(n,), (1, n), (3, n)]))
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5]) | st.floats(min_value=0.0, max_value=4.0)
    mse = draw(arrays(np.float64, shape, elements=values))
    if draw(st.booleans()):
        # The n_q = 0 frontier point: one MSE for every quantized-only dither value.
        mse[..., -n_dither:] = mse[..., -n_dither:][..., :1]
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(range(n))))
        mse, n_a, dither = mse[..., order], n_a[order], dither[order]
    keys = [0.0 if draw(st.booleans()) else dither, 0 if draw(st.booleans()) else n_a]
    return mse, *keys


class TestArgbest:
    @settings(max_examples=400, deadline=None)
    @given(optimum_inputs())
    def test_matches_the_three_key_sort(self, case):
        np.testing.assert_array_equal(argbest(*case), reference_argbest(*case))

    def test_shipped_sweep_grid(self):
        """configs/mimo_allocation.yaml's grid, whose n_q = 0 point ties over
        its 21 dither values and is the optimum at low noise."""
        levels = np.geomspace(0.05, 3.0, 25)
        budget = PowerBudget.for_analog_blocks(6, 10, 20)
        n_a, n_q, grid, mse = frontier_grid(10, 1.0, 1.0, levels, levels, budget, DitherScheme(grid_max=2.0))
        assert n_q[-1] == 0 and (mse[:, -1, :] == mse[:, -1, :1]).all()
        flat = mse.reshape(len(levels), -1)
        keys = np.tile(grid, len(n_a)), np.repeat(n_a, len(grid))
        picked = argbest(flat, *keys)
        np.testing.assert_array_equal(picked, reference_argbest(flat, *keys))
        assert (picked == (len(n_a) - 1) * len(grid)).any()
        np.testing.assert_array_equal(argbest(mse[:, :, 0], 0.0, n_a), reference_argbest(mse[:, :, 0], 0.0, n_a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_mse_is_refused(self, bad):
        """Two NaN points gave mse_star = nan."""
        with pytest.raises(NumericalDomainError):
            argbest(np.array([bad, bad]), 0.0, [0, 1])
        with pytest.raises(NumericalDomainError):
            argbest(np.array([0.5, bad]), 0.0, [0, 1])
        with pytest.raises(NumericalDomainError):
            argbest(np.array([[0.5, 0.25], [bad, 0.25]]), 0.0, [0, 1])


class TestNoiselessQuantizedPolicy:
    def test_residual_power_keeps_quantized_measurement(self):
        # Analog block cost 2^3*2 = 16; budget 150 fits 9 blocks leaving
        # residual 6 >= 2m = 4, so one quantized measurement stays.
        budget = PowerBudget(bits=3, p_max_norm=150.0)
        decision = noiseless_quantized_policy(2, budget, rho_a=1.0, var_a=1.0)
        assert decision.option == 1
        assert decision.n_a == 9
        assert decision.n_q == max_nq(9, 2, budget) == 1

    def test_all_analog_when_analog_noise_small(self):
        # Exact budget: no residual; small analog noise favors option 2.
        budget = PowerBudget(bits=4, p_max_norm=float(2**4 * 1 * 4))
        decision = noiseless_quantized_policy(1, budget, rho_a=1.0, var_a=0.2)
        assert decision.option == 2
        assert (decision.n_a, decision.n_q) == (4, 0)

    def test_mixed_when_analog_noise_large(self):
        budget = PowerBudget(bits=4, p_max_norm=float(2**4 * 1 * 4))
        decision = noiseless_quantized_policy(1, budget, rho_a=1.0, var_a=3.0)
        assert decision.option == 1
        assert decision.n_a == 3
        assert decision.n_q >= 1

    def test_nothing_affordable(self):
        # One 6-bit analog block costs 64 and a quantized one 2: a budget of 1 buys neither.
        decision = noiseless_quantized_policy(1, PowerBudget(bits=6, p_max_norm=1.0), rho_a=1.0, var_a=1.0)
        assert (decision.option, decision.n_a, decision.n_q) == (2, 0, 0)

    def test_agrees_with_numerical_limit(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            m = int(rng.integers(1, 6))
            bits = int(rng.integers(2, 7))
            n_a_cap = int(rng.integers(0, 5))
            extra = int(rng.integers(0, 2 ** (bits - 1) + 3))
            p = 2**bits * m * n_a_cap + 2 * m * extra
            if p == 0:
                extra, p = 1, 2 * m
            budget = PowerBudget(bits=bits, p_max_norm=float(p))
            rho_a = log_uniform(rng, 0.1, 10.0)
            var_a = log_uniform(rng, 0.1, 10.0)
            decision = noiseless_quantized_policy(m, budget, rho_a, var_a)
            params = OrthoBlockParams(
                m=m, n_a=0, n_q=0, rho_a=rho_a, rho_q=1.0, var_a=var_a, var_q=1e-12
            )
            numerical = allocate(params, budget)
            assert (decision.n_a, decision.n_q) == (numerical.n_a_star, numerical.n_q_star)
