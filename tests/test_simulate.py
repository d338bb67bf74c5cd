"""Tests for the Monte-Carlo harness, analytic sweeps, and benchmark."""

import numpy as np
import pytest

from mixedres import simulate
from mixedres.allocation import DitherScheme, PowerBudget
from mixedres.closed_form import filter_closed_form
from mixedres.estimator import LmmseFilter, lmmse
from mixedres.exceptions import InstanceTooLargeError, ModelError
from mixedres.model import MixedModel, OrthoBlockParams, RngStream, make_mimo_model, make_scalar_model
from mixedres.simulate import (
    DEFAULT_ANALOG_QUANTIZER,
    MAX_BATCH_ELEMENTS,
    SimConfig,
    _copy_periods,
    _timeit,
    bench_runtime,
    run_monte_carlo,
    sweep_allocation_vs_noise,
    sweep_mse_vs_noise,
)
from oracles import reference_run_monte_carlo


class TestRunMonteCarlo:
    def test_pure_analog_scalar(self):
        model = make_scalar_model(1, 0, 1.0)
        res = run_monte_carlo(model, lmmse(model), SimConfig(trials=100_000, rng_seed=1))
        assert res.analytic_mse == 0.5
        assert abs(res.empirical_mse - 0.5) <= 3 * res.std_error
        assert res.trials_run == 100_000

    def test_pure_quantized_scalar(self):
        model = make_scalar_model(0, 1, 1.0)
        res = run_monte_carlo(model, lmmse(model), SimConfig(trials=100_000, rng_seed=2))
        assert abs(res.empirical_mse - (1 - 1 / np.pi)) <= 3 * res.std_error

    def test_dithered_bbit_emulation_matches_analytic_mse(self):
        model = MixedModel(
            h=np.ones((2, 1)), g=np.ones((2, 1)), sigma_theta=np.eye(1),
            var_a=0.7, var_q=0.7, var_da=0.3, var_dq=0.5,
        )
        filt = lmmse(model)
        cfg = SimConfig(trials=30_000, rng_seed=3, batch_size=4096, analog_quantizer=DEFAULT_ANALOG_QUANTIZER)
        base = run_monte_carlo(model, filt, cfg)
        assert abs(base.empirical_mse - filt.mse) <= 4 * base.std_error

    def test_batch_size_does_not_change_distribution_quality(self):
        # Different batch sizes are different (valid) random partitions.
        model = make_scalar_model(1, 1, 1.0)
        filt = lmmse(model)
        for batch in (1000, 4096):
            res = run_monte_carlo(
                model, filt, SimConfig(trials=50_000, rng_seed=4, batch_size=batch)
            )
            assert abs(res.empirical_mse - filt.mse) <= 4 * res.std_error

    def test_bbit_emulation_close_to_ideal(self):
        """At 6 bits on [-5, 5] the analog-path quantization error is far
        below Monte-Carlo resolution at matched seeds."""
        model = make_scalar_model(1, 1, 1.0)
        filt = lmmse(model)
        ideal = run_monte_carlo(model, filt, SimConfig(trials=100_000, rng_seed=5))
        emulated = run_monte_carlo(
            model, filt,
            SimConfig(trials=100_000, rng_seed=5, analog_quantizer=DEFAULT_ANALOG_QUANTIZER),
        )
        gap_ideal = abs(ideal.empirical_mse - ideal.analytic_mse)
        gap_emulated = abs(emulated.empirical_mse - emulated.analytic_mse)
        assert gap_emulated - gap_ideal < emulated.std_error

    def test_filter_shape_checked(self):
        model = make_scalar_model(1, 1, 1.0)
        filt = lmmse(make_scalar_model(2, 1, 1.0))
        with pytest.raises(ModelError):
            run_monte_carlo(model, filt, SimConfig(trials=10))

    def test_oversized_batch_refused_before_sampling(self, monkeypatch):
        from mixedres import simulate

        def no_batch(*args):
            raise AssertionError("batch sampled past the size limit")

        monkeypatch.setattr(simulate, "_run_batch", no_batch)
        model = make_scalar_model(1, 1, 1.0)
        cfg = SimConfig(trials=MAX_BATCH_ELEMENTS, batch_size=MAX_BATCH_ELEMENTS // 2 + 1)
        with pytest.raises(InstanceTooLargeError, match="lower batch_size"):
            run_monte_carlo(model, lmmse(model), cfg)

    def test_std_error_definition(self):
        """std_error is the sample std of per-trial squared errors / sqrt(trials)."""
        from mixedres.model import RngStream, sample_copy_sums, sample_parameter

        model = make_scalar_model(1, 1, 1.0)
        filt = lmmse(model)
        cfg = SimConfig(trials=500, rng_seed=6, batch_size=128)
        res = run_monte_carlo(model, filt, cfg)

        errors = []
        for b in range((cfg.trials + 127) // 128):
            count = min(128, cfg.trials - b * 128)
            theta = sample_parameter(model.sigma_theta, RngStream(6, 2 * b), size=count)
            # One analog and one quantized row: both periods are 1.
            s_a, s_q = sample_copy_sums(model, theta, RngStream(6, 2 * b + 1), 1, 1)
            x = np.concatenate([s_a, s_q], axis=0)
            errors.extend((np.abs(filt.w @ x - theta) ** 2).sum(axis=0))
        errors = np.asarray(errors)
        assert res.empirical_mse == pytest.approx(errors.mean(), rel=1e-12)
        assert res.std_error == pytest.approx(
            errors.std(ddof=1) / np.sqrt(cfg.trials), rel=1e-9
        )


def _general_model(seed, m, n_a, g, var_da=0.0, var_dq=0.0):
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return MixedModel(
        h=rng.standard_normal((n_a, m)) + 1j * rng.standard_normal((n_a, m)),
        g=g,
        sigma_theta=root @ root.conj().T / m + 0.5 * np.eye(m),
        var_a=0.9, var_q=0.6, var_da=var_da, var_dq=var_dq,
    )


def _mimo_closed(var_da=0.0, var_dq=0.0):
    model = make_mimo_model(3, 2, 4, rho=1.2, var=0.7, rng=RngStream(5))
    model = MixedModel(
        h=model.h, g=model.g, sigma_theta=model.sigma_theta,
        var_a=0.7, var_q=0.7, var_da=var_da, var_dq=var_dq,
    )
    params = OrthoBlockParams(m=3, n_a=2, n_q=4, rho_a=1.2, rho_q=1.2, var_a=0.7, var_q=0.7,
                              var_da=var_da, var_dq=var_dq)
    return model, filter_closed_form(params, model.h, model.g)


def _tiled_general(dither):
    rng = np.random.default_rng(21)
    block = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    model = _general_model(22, 2, 3, np.tile(block, (3, 1)), *((0.4, 0.5) if dither else (0.0, 0.0)))
    return model, lmmse(model)


def _untiled_general(dither):
    rng = np.random.default_rng(23)
    model = _general_model(24, 2, 2, rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)),
                           *((0.4, 0.5) if dither else (0.0, 0.0)))
    return model, lmmse(model)


def _scalar_lmmse():
    model = make_scalar_model(2, 5, 0.8)
    return model, lmmse(model)


# name -> (model and filter, analog quantizer, expected (analog, quantized) periods).
# The LMMSE solve gives each analog row its own columns, which may differ by
# round-off, so an LMMSE filter need not repeat over the analog copies.
COPY_SUM_CASES = {
    "scalar-lmmse": (_scalar_lmmse, None, (2, 1)),
    "scalar-lmmse-bbit": (_scalar_lmmse, DEFAULT_ANALOG_QUANTIZER, (2, 1)),
    "mimo-closed": (_mimo_closed, None, (3, 3)),
    "mimo-closed-dither-bbit": (lambda: _mimo_closed(0.3, 0.5), DEFAULT_ANALOG_QUANTIZER, (6, 3)),
    "tiled-lmmse": (lambda: _tiled_general(False), None, (3, 2)),
    "tiled-lmmse-dither": (lambda: _tiled_general(True), None, (3, 2)),
    "tiled-lmmse-dither-bbit": (lambda: _tiled_general(True), DEFAULT_ANALOG_QUANTIZER, (3, 2)),
    "untiled-lmmse": (lambda: _untiled_general(False), None, (2, 5)),
    "untiled-lmmse-dither-bbit": (lambda: _untiled_general(True), DEFAULT_ANALOG_QUANTIZER, (2, 5)),
}


class TestCopySums:
    """The copy-sum batches against the batch that draws every row."""

    TRIALS = 40_000

    @pytest.mark.parametrize("case", sorted(COPY_SUM_CASES))
    def test_agrees_with_every_row_reference(self, case):
        build, quantizer, periods = COPY_SUM_CASES[case]
        model, filt = build()
        cfg = SimConfig(trials=self.TRIALS, rng_seed=31, analog_quantizer=quantizer)
        assert _copy_periods(model, filt, cfg) == periods
        got = run_monte_carlo(model, filt, cfg)
        want = reference_run_monte_carlo(model, filt, cfg)
        assert abs(got.empirical_mse - want.empirical_mse) <= 4 * np.hypot(got.std_error, want.std_error)
        assert got.std_error == pytest.approx(want.std_error, rel=0.1)

    def test_filter_with_differing_copy_columns_falls_back_to_one_copy(self):
        """G repeats, but one copy's filter columns differ, so W_q x_q is not
        W_q1 times the copy sum: the quantized period is then n_q."""
        model, filt = _mimo_closed()
        w = filt.w.copy()
        w[:, 6 + 3 : 6 + 6] *= 1.25
        skewed = LmmseFilter(w=w, mse=filt.mse, condition=filt.condition)
        cfg = SimConfig(trials=self.TRIALS, rng_seed=32)
        assert _copy_periods(model, skewed, cfg) == (3, 12)
        got = run_monte_carlo(model, skewed, cfg)
        want = reference_run_monte_carlo(model, skewed, cfg)
        assert abs(got.empirical_mse - want.empirical_mse) <= 4 * np.hypot(got.std_error, want.std_error)

    def test_batch_draws_no_normal_block_per_quantized_row(self, monkeypatch):
        """A batch draws one normal block for theta and one for the analog
        copy sum, and one uniform block of shape (k, 2, p, t); no normal
        block spans the n_q quantized rows."""
        calls = []
        generator = RngStream.generator

        class Recorder:
            def __init__(self, g):
                self.g = g

            def __getattr__(self, name):
                method = getattr(self.g, name)

                def record(*args, **kwargs):
                    calls.append((name, args[0] if args else kwargs.get("size")))
                    return method(*args, **kwargs)

                return record

        model, filt = _mimo_closed()
        monkeypatch.setattr(RngStream, "generator", lambda self: Recorder(generator(self)))
        run_monte_carlo(model, filt, SimConfig(trials=100, rng_seed=33))
        assert calls == [("standard_normal", (2, 3, 100)), ("standard_normal", (2, 3, 100)), ("random", (4, 2, 3, 100))]


class TestSweepMseVsNoise:
    GRID = [0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0]

    def test_pure_analog_column_monotone_in_noise(self):
        base = OrthoBlockParams(m=1, n_a=0, n_q=0)
        rows = sweep_mse_vs_noise(base, self.GRID, [(1, 0)])
        values = [r["mse_analytic"] for r in rows]
        assert np.all(np.diff(values) > 0)

    def test_extra_quantized_never_hurts_columnwise(self):
        base = OrthoBlockParams(m=1, n_a=0, n_q=0)
        rows_lo = sweep_mse_vs_noise(base, self.GRID, [(1, 5)])
        rows_hi = sweep_mse_vs_noise(base, self.GRID, [(1, 15)])
        for lo, hi in zip(rows_lo, rows_hi):
            assert hi["mse_analytic"] <= lo["mse_analytic"] + 1e-15

    def test_mixed_column_not_monotone(self):
        """With many highly correlated quantized blocks, moderate noise can
        genuinely help, so the column dips."""
        base = OrthoBlockParams(m=1, n_a=0, n_q=0)
        rows = sweep_mse_vs_noise(base, self.GRID, [(1, 100)])
        values = np.array([r["mse_analytic"] for r in rows])
        assert np.any(np.diff(values) < 0)

    @pytest.mark.parametrize("grid", [[0.5, float("nan")], [float("inf")], [-0.5]])
    def test_rejects_bad_noise_levels(self, grid):
        with pytest.raises(ModelError, match="sigma2"):
            sweep_mse_vs_noise(OrthoBlockParams(m=1, n_a=0, n_q=0), grid, [(1, 0)])

    def test_rejects_negative_counts(self):
        with pytest.raises(ModelError):
            sweep_mse_vs_noise(OrthoBlockParams(m=1, n_a=0, n_q=0), [1.0], [(-1, 2)])

    def test_row_layout(self):
        base = OrthoBlockParams(m=1, n_a=0, n_q=0)
        rows = sweep_mse_vs_noise(base, [0.5, 1.0], [(1, 0), (0, 1)])
        assert len(rows) == 4
        assert set(rows[0]) == {"sigma2", "n_a", "n_q", "mse_analytic"}


class TestSweepAllocationVsNoise:
    def test_columns_and_dither_dominance(self):
        budget = PowerBudget(bits=4, p_max_norm=float(2**4 * 2 * 4))
        rows = sweep_allocation_vs_noise(2, budget, [0.2, 1.0, 2.5], DitherScheme())
        for row in rows:
            assert row["mse_optimal"] <= row["mse_all_analog"] + 1e-15
            assert row["mse_optimal"] <= row["mse_all_quantized"] + 1e-15
            assert row["mse_optimal_dithered"] <= row["mse_optimal"] + 1e-15

    def test_rejects_non_finite_noise(self):
        budget = PowerBudget(bits=4, p_max_norm=float(2**4 * 2 * 4))
        with pytest.raises(ModelError, match="sigma2"):
            sweep_allocation_vs_noise(2, budget, [0.5, float("nan")], DitherScheme())


class TestBenchRuntime:
    def test_shapes_and_ordering(self):
        results = bench_runtime(
            [2], [2, 4], bits=5, sigma2=1.0, repeats=3, direct_repeats=2, warmup=1
        )
        assert len(results) == 2
        for res in results:
            assert res.closed_form_time.median_s > 0
            assert res.direct_time.median_s > res.closed_form_time.median_s
            assert res.closed_form_time.repeats == 3
            assert res.direct_time.repeats == 2

    def test_direct_time_grows_superlinearly(self):
        """Compares the fastest repetition of each arm: a host stall only
        lengthens a repetition, and with two repetitions one stall moves the
        median but not the minimum."""
        results = bench_runtime(
            [2], [2, 6], bits=5, sigma2=1.0, repeats=3, direct_repeats=2, warmup=1
        )
        t_small = results[0].direct_time.best_s
        t_large = results[1].direct_time.best_s
        assert t_large > 3.0 * t_small  # budget (and matrix sizes) tripled

    def test_repetitions_interleave_across_callables(self):
        calls = []
        stats = _timeit([lambda k=k: calls.append(k) for k in range(3)], repeats=4, warmup=2)
        assert calls == [0, 0, 1, 1, 2, 2] + [0, 1, 2] * 4
        assert [s.repeats for s in stats] == [4, 4, 4]

    @pytest.mark.parametrize("repeats, warmup", [(0, 1), (-3, 1), (2, -1)])
    def test_timeit_rejects_bad_counts(self, repeats, warmup):
        calls = []
        with pytest.raises(ModelError, match="repeats"):
            _timeit([lambda: calls.append(1)], repeats=repeats, warmup=warmup)
        assert calls == []

    def test_direct_arm_times_the_dense_route(self, monkeypatch):
        """One repetition factors all rows of each frontier analog count's
        model, the n_a = 0 one with all 16 quantized blocks."""
        rows = []
        real_prefix_mse = simulate.prefix_mse

        def recording_prefix_mse(model):
            rows.append(model.n_analog + model.n_quantized)
            return real_prefix_mse(model)

        monkeypatch.setattr(simulate, "prefix_mse", recording_prefix_mse)
        bench_runtime([2], [2], bits=4, repeats=1, warmup=0)
        assert sorted(rows) == [4, 2 + 16, 32]

    def test_direct_arm_optional(self):
        results = bench_runtime([1], [2], bits=4, repeats=3, include_direct=False)
        assert results[0].direct_time is None
