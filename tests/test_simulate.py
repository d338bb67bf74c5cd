"""Tests for the Monte-Carlo harness, analytic sweeps, and benchmark."""

import inspect
import itertools
import math
import threading
from concurrent import futures

import numpy as np
import pytest
from scipy import special

from mixedres import model as model_module
from mixedres import simulate
from mixedres.allocation import DitherScheme, PowerBudget
from mixedres.closed_form import filter_closed_form
from mixedres.estimator import LmmseFilter, lmmse
from mixedres.exceptions import InstanceTooLargeError, ModelError, NumericalDomainError, QuantizerDomainError
from mixedres.model import (
    MIN_CHUNK_TRIALS,
    TILE_TRIALS,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    SampleBuffers,
    _copy_sums,
    _matmul_tiles,
    _part_std,
    _spans,
    _tiles,
    make_mimo_model,
    make_scalar_model,
    sample_parameter,
)
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
from oracles import reference_run_monte_carlo, reference_word_run_monte_carlo


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
            var_a=0.7 + 0.3, var_q=0.7 + 0.5,
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

    def test_more_than_255_quantized_copies(self):
        """300 quantized copies of one row, past what a byte could count: the run matches the analytic MSE."""
        model = make_scalar_model(1, 300, 1.0)
        filt = lmmse(model)
        cfg = SimConfig(trials=20_000, rng_seed=8)
        assert _copy_periods(model, filt, cfg)[1] == 1
        res = run_monte_carlo(model, filt, cfg)
        assert abs(res.empirical_mse - filt.mse) <= 5 * res.std_error

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

    @pytest.mark.parametrize(
        "field, value, kind",
        [("trials", 1000.0, "float"), ("batch_size", 100.0, "float"), ("batch_size", True, "bool"),
         ("rng_seed", 1.5, "float"), ("rng_seed", True, "bool")],
    )
    def test_config_counts_and_seed_are_integers(self, field, value, kind):
        """A float or a bool ends in ModelError: numpy refused the floats with
        a TypeError, and rng_seed=True ran seed 1."""
        with pytest.raises(ModelError, match=f"^trials, rng_seed and batch_size must be integers, got {kind}$"):
            SimConfig(**{field: value})
        SimConfig(trials=np.int64(1000), rng_seed=np.uint64(3), batch_size=np.int32(100))

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
        """std_error is the sample std of the per-trial conditional squared errors / sqrt(trials)."""
        model = make_scalar_model(1, 1, 1.0)
        filt = lmmse(model)
        cfg = SimConfig(trials=500, rng_seed=6, batch_size=128)
        res = run_monte_carlo(model, filt, cfg)

        errors = []
        for b in range((cfg.trials + 127) // 128):
            count = min(128, cfg.trials - b * 128)
            theta = sample_parameter(model.sigma_theta, RngStream(6, 2 * b), size=count)
            z_analog = RngStream(6, 2 * b + 1).generator().standard_normal((2, 1, count))
            # One analog and one quantized row: both periods are 1.  A batch of
            # at most 128 trials of this model is one chunk.
            s_a, s_q, s_q_var = _copy_sums(theta, z_analog, SampleBuffers(model, count, 1, 1))
            x = np.concatenate([s_a, s_q], axis=0)
            spread = np.abs(filt.w[0, 1]) ** 2 * s_q_var[0]
            errors.extend((np.abs(filt.w @ x - theta) ** 2).sum(axis=0) + spread)
        errors = np.asarray(errors)
        assert res.empirical_mse == pytest.approx(errors.mean(), rel=1e-12)
        assert res.std_error == pytest.approx(
            errors.std(ddof=1) / np.sqrt(cfg.trials), rel=1e-9
        )


class TestRunWorkspace:
    """One set of sample buffers serves every batch of a run."""

    def test_two_runs_in_one_process_give_identical_bytes(self):
        model, filt = _mimo_closed(0.3, 0.5)
        cfg = SimConfig(trials=5000, batch_size=2048, rng_seed=7)
        first, second = run_monte_carlo(model, filt, cfg), run_monte_carlo(model, filt, cfg)
        assert repr(first) == repr(second)

    def test_every_batch_matches_buffers_of_its_own(self, monkeypatch):
        """Each batch, the partial last one too, gives the same sums from the
        run's shared buffers as from buffers made for that batch alone."""
        model, filt = _mimo_closed(0.3, 0.5)
        seen = []
        run_batch = simulate._run_batch

        def both(w1, c, cfg, buffers, z_theta, z_analog):
            count = z_theta.shape[-1]
            own_buffers = SampleBuffers(model, count, *buffers.periods)
            # A batch scales its blocks in place, so each call gets its own copy.
            own = run_batch(w1, c, cfg, own_buffers, z_theta.copy(), z_analog.copy())
            shared = run_batch(w1, c, cfg, buffers, z_theta, z_analog)
            seen.append((count, shared, own))
            return shared

        monkeypatch.setattr(simulate, "_run_batch", both)
        run_monte_carlo(model, filt, SimConfig(trials=5000, batch_size=2048, rng_seed=7))
        assert [count for count, _, _ in seen] == [2048, 2048, 904]
        for _, shared, own in seen:
            assert shared == own

    @pytest.mark.parametrize("batches", [1, 2, 13])
    @pytest.mark.parametrize("quantizer, calls", [(None, 4), (DEFAULT_ANALOG_QUANTIZER, 3)], ids=["ideal", "b-bit"])
    def test_copy_layout_is_found_once_per_run(self, monkeypatch, batches, quantizer, calls):
        """_copy_periods finds the periods (two calls, or one under b-bit
        emulation, which checks only the quantized rows) and SampleBuffers
        checks them on the model's rows (two calls); a batch adds none."""
        model, filt = _mimo_closed()
        real, seen = model_module.copy_layout, []

        def counting(*args):
            seen.append(args)
            return real(*args)

        for module in (simulate, model_module):
            monkeypatch.setattr(module, "copy_layout", counting)
        run_monte_carlo(model, filt, SimConfig(trials=64 * batches, batch_size=64, analog_quantizer=quantizer))
        assert len(seen) == calls

    # H is 2 copies and G 4 copies of a 3-row block; 2 divides both row
    # counts, but neither repeats with it.
    @pytest.mark.parametrize("periods", [(3, 2), (2, 3)])
    def test_periods_that_do_not_tile_are_refused_before_any_batch(self, monkeypatch, periods):
        """SampleBuffers is the one check of the periods a run draws with."""
        model, filt = _mimo_closed()

        def no_batch(*args):
            raise AssertionError("batch drawn with periods that do not tile the rows")

        monkeypatch.setattr(simulate, "_copy_periods", lambda *args: periods)
        monkeypatch.setattr(simulate, "_run_batch", no_batch)
        with pytest.raises(ModelError, match="period"):
            run_monte_carlo(model, filt, SimConfig(trials=100))


def _cpus(monkeypatch, count):
    """Make the run see ``count`` CPUs; return the list of draw-ahead executors it starts."""
    started = []
    executor = futures.ThreadPoolExecutor
    monkeypatch.setattr(simulate, "_cpu_count", lambda: count)
    monkeypatch.setattr(futures, "ThreadPoolExecutor", lambda **kwargs: started.append(kwargs) or executor(**kwargs))
    return started


def _with_lmmse(model):
    return model, lmmse(model)


# name -> (model and filter, analog quantizer).
DRAW_AHEAD_CASES = {
    "mimo-dither": (lambda: _mimo_closed(0.3, 0.5), None),
    "mimo-bbit": (lambda: _mimo_closed(0.3, 0.5), DEFAULT_ANALOG_QUANTIZER),
    "no-analog-rows": (lambda: _with_lmmse(make_mimo_model(3, 0, 4, 1.2, 0.7, rng=RngStream(5))), None),
    "zero-analog-variance": (
        lambda: _with_lmmse(MixedModel(h=np.array([[1.0, 0.5j], [0.2, 1.0]]), g=np.array([[1.0, 1j], [0.5, -1.0]]),
                                       sigma_theta=np.eye(2), var_a=0.0, var_q=0.8)),
        None,
    ),
    "zero-quantized-variance": (lambda: _with_lmmse(CONDITIONAL_CASES["zero-quantized-variance"][0]()), None),
}


class TestDrawAhead:
    """A worker thread draws each next batch's normal blocks; the result is the one-thread result."""

    @pytest.mark.parametrize("var_a", [0.7, 0.0])
    def test_draw_gives_each_streams_block(self, var_a):
        """Batch b's blocks are the first values of streams (seed, 2b) and
        (seed, 2b + 1), in slot b % 2, also for a shorter last batch; without
        analog noise there is no analog block."""
        model = MixedModel(h=np.ones((4, 3)), g=np.ones((2, 3)), sigma_theta=np.eye(3), var_a=var_a, var_q=0.8)
        cfg = SimConfig(trials=500, batch_size=200, rng_seed=11)
        buffers = SampleBuffers(model, 200, 2, 1)
        for b, t in enumerate([200, 200, 100]):
            z_theta, z_analog = simulate._draw(cfg, buffers, b)()
            assert z_theta.tobytes() == RngStream(11, 2 * b).generator().standard_normal((2, 3, t)).tobytes()
            assert np.shares_memory(z_theta, buffers.slot(b % 2, t)[0])
            if var_a:
                assert z_analog.tobytes() == RngStream(11, 2 * b + 1).generator().standard_normal((2, 2, t)).tobytes()
            else:
                assert z_analog is None

    def test_a_failed_draw_on_the_worker_ends_the_run(self, monkeypatch):
        """The worker's error is raised by the run, and the worker is joined."""
        started = _cpus(monkeypatch, 2)
        draw, workers = simulate._draw, []

        def failing(cfg, buffers, b):
            fill = draw(cfg, buffers, b)

            def fill_or_fail():
                if b == 1:
                    workers.append(threading.current_thread())
                    raise RuntimeError("batch 1 could not be drawn")
                return fill()

            return fill_or_fail

        monkeypatch.setattr(simulate, "_draw", failing)
        model, filt = _mimo_closed()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch 1 could not be drawn"):
            run_monte_carlo(model, filt, SimConfig(trials=13 * 300, batch_size=300))
        assert len(started) == 1 and workers[0] is not threading.current_thread()
        assert threading.active_count() == before

    # (trials, batch_size): 1 batch, 2 batches with a partial last one, and
    # 13 batches whose last has one trial.  A batch of 300 trials runs its
    # products in two tiles.
    @pytest.mark.parametrize("trials, batch", [(400, 400), (700, 400), (12 * 300 + 1, 300)], ids=["1", "2", "13"])
    @pytest.mark.parametrize("case", sorted(DRAW_AHEAD_CASES))
    def test_result_equals_the_one_thread_result(self, monkeypatch, case, trials, batch):
        build, quantizer = DRAW_AHEAD_CASES[case]
        model, filt = build()
        cfg = SimConfig(trials=trials, batch_size=batch, rng_seed=17, analog_quantizer=quantizer)
        assert all(map(_tiles, (model.h, model.g, filt.w)))
        started = _cpus(monkeypatch, 1)
        alone = run_monte_carlo(model, filt, cfg)
        assert started == []
        started = _cpus(monkeypatch, 2)
        helped = run_monte_carlo(model, filt, cfg)
        assert len(started) == (trials > batch)
        assert repr(helped) == repr(alone)

    def test_products_too_large_to_tile_draw_on_one_thread(self, monkeypatch):
        """A 17 x 17 prior's products do not tile, so OpenBLAS's pool takes
        the second CPU and the run starts no worker."""
        model = make_mimo_model(17, 1, 1, 1.0, 1.0, rng=RngStream(2))
        started = _cpus(monkeypatch, 2)
        run_monte_carlo(model, lmmse(model), SimConfig(trials=600, batch_size=300))
        assert not _tiles(model.sigma_theta) and started == []

    @staticmethod
    def _failing_run(kind):
        if kind == "quantizer":
            # G theta overflows to a non-finite mean of the 1-bit outputs in the first batch.
            model = MixedModel(h=np.ones((1, 2)), g=np.full((1, 2), 1e308), sigma_theta=np.eye(2), var_a=1.0, var_q=1.0)
            return model, LmmseFilter(w=np.full((2, 2), 0.1), mse=1.0, condition=1.0), QuantizerDomainError
        if kind == "numerical":
            # Weights of 1e200 overflow their squared norms and the error.
            model = _mimo_closed()[0]
            w = np.full((3, model.n_analog + model.n_quantized), 1e200)
            return model, LmmseFilter(w=w, mse=1.0, condition=1.0), NumericalDomainError
        model, filt = _mimo_closed()
        return model, filt, None

    @pytest.mark.parametrize("kind", ["returns", "quantizer", "numerical"])
    def test_helper_is_joined_before_the_run_ends(self, monkeypatch, kind):
        model, filt, error = self._failing_run(kind)
        started = _cpus(monkeypatch, 2)
        before = threading.active_count()
        cfg = SimConfig(trials=13 * 300, batch_size=300, rng_seed=5)
        if error is None:
            run_monte_carlo(model, filt, cfg)
        else:
            with pytest.raises(error):
                run_monte_carlo(model, filt, cfg)
        assert len(started) == 1
        assert threading.active_count() == before

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        """Only the fills of _draw run on the worker: every public model or simulate
        function a run calls is called on the run's own thread (perfbench's
        tracer keeps one call stack)."""
        started = _cpus(monkeypatch, 2)
        calls = []

        def on_thread(name, fn):
            def record(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)

            return record

        homes = {model_module.__name__, simulate.__name__}
        for module in (model_module, simulate):
            for name, fn in list(vars(module).items()):
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ in homes:
                    monkeypatch.setattr(module, name, on_thread(name, fn))
        model, filt = _mimo_closed(0.3, 0.5)
        cfg = SimConfig(trials=13 * 300, batch_size=300, rng_seed=9, analog_quantizer=DEFAULT_ANALOG_QUANTIZER)
        run_monte_carlo(model, filt, cfg)
        assert len(started) == 1
        assert {"copy_layout", "quantize_bbit"} <= {n for n, _ in calls}
        assert {thread for _, thread in calls} == {threading.current_thread()}

    def test_generators_are_made_on_the_calling_thread(self, monkeypatch):
        """The worker only fills blocks: each batch's two generators are made
        on the run's own thread, so the worker holds the interpreter lock for
        no seeding."""
        model, filt = _mimo_closed(0.3, 0.5)
        started = _cpus(monkeypatch, 2)
        threads, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda self: threads.append(threading.current_thread()) or generator(self))
        run_monte_carlo(model, filt, SimConfig(trials=13 * 300, batch_size=300, rng_seed=9))
        assert len(started) == 1 and len(threads) == 2 * 13
        assert set(threads) == {threading.current_thread()}

    def test_prior_is_factored_once_per_run(self, monkeypatch):
        model = _general_model(25, 2, 2, np.ones((3, 2)))
        filt = lmmse(model)
        factors = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factors.append(a) or cholesky(a))
        run_monte_carlo(model, filt, SimConfig(trials=13 * 300, batch_size=300))
        assert len(factors) == 1 and factors[0] is model.sigma_theta


class TestMatmulTiles:
    """Products in column tiles of TILE_TRIALS trials give np.matmul's bytes."""

    @pytest.mark.parametrize("t", [TILE_TRIALS - 1, TILE_TRIALS, 3 * TILE_TRIALS + 1])
    @pytest.mark.parametrize("rows", [0, 20])
    def test_equals_one_product(self, t, rows):
        rng = np.random.default_rng(7 * t + rows)
        a = rng.standard_normal((rows, 10)) + 1j * rng.standard_normal((rows, 10))
        b = rng.standard_normal((10, t)) + 1j * rng.standard_normal((10, t))
        assert _tiles(a)
        got = _matmul_tiles(a, b, np.empty((rows, t), dtype=np.complex128))
        assert got.tobytes() == np.matmul(a, b).tobytes()

    @pytest.mark.parametrize("t", [TILE_TRIALS - 1, TILE_TRIALS, 3 * TILE_TRIALS + 1])
    @pytest.mark.parametrize("p", [0, 10])
    def test_vector_times_matrix_equals_one_product(self, t, p):
        """The weights c_i times the variances of s_q, as a batch forms them."""
        rng = np.random.default_rng(5 * t + p)
        c, s_q_var = rng.uniform(size=p), rng.uniform(size=(p, t))
        got = _matmul_tiles(c, s_q_var, np.empty(t))
        assert got.tobytes() == (c @ s_q_var).tobytes()

    def test_operand_too_large_to_tile_runs_whole(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((40, 40)), rng.standard_normal((40, 3 * TILE_TRIALS))
        assert not _tiles(a)
        assert _matmul_tiles(a, b, np.empty((40, 3 * TILE_TRIALS))).tobytes() == (a @ b).tobytes()


def _general_model(seed, m, n_a, g, dither_a=0.0, dither_q=0.0):
    """A random model whose paths carry noise plus the given dither variances."""
    rng = np.random.default_rng(seed)
    root = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return MixedModel(
        h=rng.standard_normal((n_a, m)) + 1j * rng.standard_normal((n_a, m)),
        g=g,
        sigma_theta=root @ root.conj().T / m + 0.5 * np.eye(m),
        var_a=0.9 + dither_a, var_q=0.6 + dither_q,
    )


def _mimo_closed(dither_a=0.0, dither_q=0.0):
    """A MIMO model whose paths carry noise 0.7 plus the given dither variances, with its closed-form filter."""
    params = OrthoBlockParams(m=3, n_a=2, n_q=4, rho_a=1.2, rho_q=1.2, var_a=0.7 + dither_a, var_q=0.7 + dither_q)
    model = make_mimo_model(3, 2, 4, rho=1.2, var=0.7, rng=RngStream(5))
    model = MixedModel(h=model.h, g=model.g, sigma_theta=model.sigma_theta, var_a=params.var_a, var_q=params.var_q)
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


def _mimo_lmmse():
    model = _mimo_closed()[0]
    return model, lmmse(model)


# name -> (model and filter, analog quantizer, expected (analog, quantized) periods).
COPY_SUM_CASES = {
    "scalar-lmmse": (_scalar_lmmse, None, (1, 1)),
    "mimo-lmmse": (_mimo_lmmse, None, (3, 3)),
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

    @pytest.mark.parametrize(
        "model, periods",
        [
            (make_scalar_model(2, 5, 0.8), (1, 1)),
            (make_mimo_model(10, 2, 8, rho=1.0, var=1.0, rng=RngStream(3)), (10, 10)),
        ],
        ids=["scalar", "mimo"],
    )
    def test_lmmse_filter_repeats_over_every_copy(self, model, periods):
        """lmmse gives every analog copy, as every quantized one, the same columns."""
        assert _copy_periods(model, lmmse(model), SimConfig()) == periods

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
        # Averaging over the 1-bit outputs never raises the variance.
        assert got.std_error <= 1.1 * want.std_error

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
        copy sum, and nothing for the 1-bit outputs, which it integrates out."""
        calls = []
        generator = RngStream.generator

        class Recorder:
            def __init__(self, target):
                self.target = target

            def __getattr__(self, name):
                attr = getattr(self.target, name)
                if name == "bit_generator":
                    return Recorder(attr)

                def record(*args, **kwargs):
                    out = kwargs.get("out")
                    calls.append((name, out.shape if out is not None else args[0]))
                    return attr(*args, **kwargs)

                return record

        model, filt = _mimo_closed()
        trials = 2000
        monkeypatch.setattr(RngStream, "generator", lambda self: Recorder(generator(self)))
        run_monte_carlo(model, filt, SimConfig(trials=trials, rng_seed=33))
        assert calls == [("standard_normal", (2, 3, trials)), ("standard_normal", (2, 3, trials))]


# name -> (model, analog quantizer); each run applies the model's LMMSE filter.
CONDITIONAL_CASES = {
    "k1-scalar": (lambda: make_scalar_model(1, 1, 1.0), None),
    "k300-scalar": (lambda: make_scalar_model(1, 300, 1.0), None),
    "bbit-scalar": (lambda: make_scalar_model(1, 10, 1.0), DEFAULT_ANALOG_QUANTIZER),
    "dithered-mimo": (lambda: _mimo_closed(0.3, 0.5)[0], None),
    "zero-quantized-variance": (
        lambda: MixedModel(
            h=np.array([[1.0, 0.5j], [0.2, 1.0]]), g=np.array([[1.0, 1.0j], [0.5, -1.0], [1j, 0.3]]),
            sigma_theta=np.eye(2), var_a=0.8, var_q=0.0,
        ),
        None,
    ),
    "mimo-lmmse": (lambda: make_mimo_model(4, 2, 3, 1.5, 0.8, rng=RngStream(3)), None),
}


class TestConditionalError:
    """Each trial records its squared error averaged over the 1-bit outputs."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2])
    def test_per_trial_value_averages_every_count(self, k, p):
        """For a fixed theta and a fixed analog draw, the value a trial
        records is the sum over every count of both parts of each quantized
        row of pmf * |e|**2, with the binomial pmf from math.comb.  Each
        batch holds one trial, so its sum is that trial's value."""
        rng = np.random.default_rng(40 + 10 * k + p)
        m, p_a, count = 2, 1, 6
        g1 = rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m))
        model = MixedModel(
            h=np.tile(rng.standard_normal((p_a, m)) + 1j * rng.standard_normal((p_a, m)), (2, 1)),
            g=np.tile(g1, (k, 1)), sigma_theta=np.eye(m), var_a=0.6, var_q=0.9 + 0.4,
        )
        w1 = rng.standard_normal((m, p_a + p)) + 1j * rng.standard_normal((m, p_a + p))
        cfg = SimConfig(trials=count, rng_seed=k, batch_size=1)
        c = (np.abs(w1[:, p_a:]) ** 2).sum(axis=0)
        buffers = SampleBuffers(model, 1, p_a, p)
        got = [simulate._run_batch(w1, c, cfg, buffers, *simulate._draw(cfg, buffers, b)())[0] for b in range(count)]

        theta, s_a = [], []
        for b in range(count):
            theta.append(sample_parameter(model.sigma_theta, RngStream(k, 2 * b), size=1))
            z_analog = RngStream(k, 2 * b + 1).generator().standard_normal((2, p_a, 1))
            s_a.append(_copy_sums(theta[-1], z_analog, SampleBuffers(model, 1, p_a, p))[0].copy())
        theta, s_a = np.concatenate(theta, axis=1), np.concatenate(s_a, axis=1)
        mu = g1 @ theta
        prob = special.ndtr(np.stack([mu.real, mu.imag]) / _part_std(model.var_q))
        want = np.zeros(count)
        for counts in itertools.product(range(k + 1), repeat=2 * p):
            c = np.array(counts).reshape(2, p, 1)
            comb = np.array([[math.comb(k, int(v)) for v in part] for part in c[..., 0]])[..., None]
            pmf = (comb * prob**c * (1 - prob) ** (k - c)).prod(axis=(0, 1))
            levels = (2.0 * c - k) / np.sqrt(2)
            err = w1[:, :p_a] @ s_a + w1[:, p_a:] @ (levels[0] + 1j * levels[1]) - theta
            want += pmf * (np.abs(err) ** 2).sum(axis=0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", sorted(CONDITIONAL_CASES))
    def test_agrees_with_sampled_outputs(self, case):
        """The run agrees with the word sampler, which draws the same theta
        and analog sums and samples every 1-bit copy count, and with the
        batch that draws every row, within their combined standard error;
        its own standard error is no larger than the word sampler's."""
        build, quantizer = CONDITIONAL_CASES[case]
        model = build()
        filt = lmmse(model)
        cfg = SimConfig(trials=20_000, rng_seed=41, analog_quantizer=quantizer)
        got = run_monte_carlo(model, filt, cfg)
        words = reference_word_run_monte_carlo(model, filt, cfg)
        for want in (words, reference_run_monte_carlo(model, filt, cfg)):
            assert abs(got.empirical_mse - want.empirical_mse) <= 4 * np.hypot(got.std_error, want.std_error)
        assert got.std_error <= words.std_error


# name -> (model and filter, analog quantizer).
CHUNK_CASES = {
    "mimo-closed": (lambda: _mimo_closed(0.3, 0.5), None),
    "general-filter": (lambda: _untiled_general(True), None),
    "bbit-scalar": (_scalar_lmmse, DEFAULT_ANALOG_QUANTIZER),
    "zero-analog-variance": (DRAW_AHEAD_CASES["zero-analog-variance"][0], None),
    "untiled-products": (lambda: _with_lmmse(make_mimo_model(17, 1, 1, 1.0, 1.0, rng=RngStream(2))), None),
}


class TestColumnChunks:
    """A batch computed in column chunks gives the bytes of one chunk per batch."""

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_result_does_not_depend_on_the_chunk_size(self, monkeypatch, case):
        """Chunks of the whole batch, of one tile with a joined last column,
        and of the fewest trials (CHUNK_BYTES at 1) give one result."""
        build, quantizer = CHUNK_CASES[case]
        model, filt = build()
        # Two full batches of 2 tiles and a column, and a shorter last one.
        batch = 2 * TILE_TRIALS + 1
        cfg = SimConfig(trials=2 * batch + 100, batch_size=batch, rng_seed=19, analog_quantizer=quantizer)
        monkeypatch.setattr(model_module, "CHUNK_BYTES", 2**40)
        whole = SampleBuffers(model, batch, *_copy_periods(model, filt, cfg))
        per_trial = (whole.theta.nbytes + whole.scratch.nbytes + whole.sums.nbytes) // batch
        run_chunk, widths = simulate._run_chunk, []

        def recording(*args):
            widths.append(args[-1].shape[0])
            return run_chunk(*args)

        monkeypatch.setattr(simulate, "_run_chunk", recording)
        fewest = [MIN_CHUNK_TRIALS] * (2 * TILE_TRIALS // MIN_CHUNK_TRIALS - 1) + [MIN_CHUNK_TRIALS + 1]
        results = {}
        for budget, want in [
            (2**40, [batch, batch, 100]),
            (per_trial * (TILE_TRIALS + 1), [TILE_TRIALS, TILE_TRIALS + 1] * 2 + [100]),
            (1, fewest * 2 + [MIN_CHUNK_TRIALS] * (100 // MIN_CHUNK_TRIALS) + [100 % MIN_CHUNK_TRIALS]),
        ]:
            monkeypatch.setattr(model_module, "CHUNK_BYTES", budget)
            widths.clear()
            results[budget] = repr(run_monte_carlo(model, filt, cfg))
            assert widths == want
        assert len(set(results.values())) == 1


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

    @pytest.mark.parametrize("pair, kind", [((1.5, 2), "float"), ((True, 2), "bool"), ((1, 2.0), "float")])
    def test_rejects_counts_that_are_not_integers(self, pair, kind):
        """int() once truncated them: (1.5, 2) and (True, 2) gave the row of n_a = 1."""
        with pytest.raises(ModelError, match=f"^block counts must be integers, got {kind}$"):
            sweep_mse_vs_noise(OrthoBlockParams(m=1, n_a=0, n_q=0), [1.0], [(1, 2), pair])

    def test_rejects_counts_beyond_the_float_range(self):
        with pytest.raises(ModelError, match=r"about 1\.00e\+400 is too large"):
            sweep_mse_vs_noise(OrthoBlockParams(m=1, n_a=0, n_q=0), [1.0], [(1, 2), (10**400, 0)])

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
        lengthens a repetition, and of seven repetitions (each about a
        millisecond) all would have to stall to move the minimum."""
        results = bench_runtime(
            [2], [2, 6], bits=5, sigma2=1.0, repeats=3, direct_repeats=7, warmup=1
        )
        t_small = results[0].direct_time.best_s
        t_large = results[1].direct_time.best_s
        assert t_large > 3.0 * t_small  # budget (and matrix sizes) tripled

    def test_repetitions_interleave_across_callables(self):
        calls = []
        stats = _timeit([lambda k=k: calls.append(k) for k in range(3)], repeats=4, warmup=2)
        assert calls == [0, 0, 1, 1, 2, 2] + [0, 1, 2] * 4
        assert [s.repeats for s in stats] == [4, 4, 4]

    def test_direct_arm_interleaves_across_cases(self, monkeypatch):
        """The direct arms of all cases share one timing loop: each case warms
        up on its last frontier point, then every round times every case's
        full frontier, in case order, so a slow spell after start-up lands
        on all cases alike instead of on the first one."""
        calls = []

        def recording_dense_mse(params, points, h_full, g1):
            calls.append((params.m, len(h_full) // params.m, len(points)))
            return [0.0] * len(points)

        monkeypatch.setattr(simulate, "_dense_mse", recording_dense_mse)
        results = bench_runtime([1, 2], [1, 3], bits=3, repeats=2, direct_repeats=3, warmup=2)
        cases = [(1, 1), (1, 3), (2, 1), (2, 3)]
        warmups = [(m, n, 1) for m, n in cases for _ in range(2)]
        rounds = [(m, n, n + 1) for m, n in cases] * 3
        assert calls == warmups + rounds
        assert [(r.m, r.n_a_max, r.direct_time.repeats) for r in results] == [(m, n, 3) for m, n in cases]

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
