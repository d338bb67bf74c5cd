"""Tests for the matrix-solve LMMSE estimator."""

import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from mixedres import estimator
from mixedres.closed_form import mse_closed_form, mse_grid
from mixedres.estimator import MAX_DENSE_ROWS, assemble, copy_scan_mse, estimate, lmmse, prefix_mse
from mixedres.exceptions import EstimatorUndefinedError, InstanceTooLargeError, ModelError, NumericalDomainError
from mixedres.model import (
    MixedModel,
    OrthoBlockParams,
    RngStream,
    make_mimo_model,
    make_ortho_matrices,
    make_ortho_model,
    block_model,
    make_scalar_model,
    sample_measurements,
    sample_parameter,
)
from oracles import random_ortho_params, reference_assemble, reference_lmmse


class TestKnownScalarValues:
    def test_pure_analog_half(self):
        filt = lmmse(make_scalar_model(1, 0, 1.0))
        assert filt.mse == 0.5

    def test_pure_quantized_one_minus_inv_pi(self):
        filt = lmmse(make_scalar_model(0, 1, 1.0))
        assert filt.mse == pytest.approx(1.0 - 1.0 / np.pi, abs=1e-12)

    def test_matches_closed_form_small_instance(self):
        params = random_ortho_params(np.random.default_rng(0), m_max=2, n_a_max=2, n_q_max=3)
        model = make_ortho_model(params, RngStream(1))
        assert lmmse(model).mse == pytest.approx(mse_closed_form(params).value, abs=1e-9 * params.m)


class TestPureAnalogClassicalForm:
    def test_equals_textbook_gaussian_lmmse(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        model = MixedModel(h=h, g=np.zeros((0, 3)), sigma_theta=np.eye(3), var_a=0.8, var_q=1.0)
        filt = lmmse(model)
        gram = h @ h.conj().T + 0.8 * np.eye(5)
        expected = np.linalg.solve(gram, h).conj().T
        np.testing.assert_allclose(filt.w, expected, atol=1e-12)


class TestConditioning:
    def test_singular_covariance_rejected(self):
        # Two identical noiseless analog measurements: rank-1 covariance.
        model = MixedModel(
            h=np.ones((2, 1)), g=np.zeros((0, 1)), sigma_theta=np.eye(1),
            var_a=0.0, var_q=1.0,
        )
        with pytest.raises(EstimatorUndefinedError):
            lmmse(model)
        with pytest.raises(EstimatorUndefinedError):
            prefix_mse(model)
        with pytest.raises(EstimatorUndefinedError):
            copy_scan_mse(model, [2], [0])

    def test_condition_guard_carries_estimate(self):
        model = MixedModel(
            h=np.array([[1.0], [1.0 + 1e-14]]), g=np.zeros((0, 1)),
            sigma_theta=np.eye(1), var_a=0.0, var_q=1.0,
        )
        with pytest.raises(EstimatorUndefinedError) as exc_info:
            lmmse(model)
        assert exc_info.value.condition > 1e12

    def test_overflowing_covariance_rejected(self):
        model = MixedModel(h=np.array([[1e200]]), g=np.zeros((0, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)
        with pytest.raises(NumericalDomainError, match="^covariance overflowed to a non-finite value$"):
            lmmse(model)

    def test_condition_reported_for_healthy_model(self):
        filt = lmmse(make_scalar_model(2, 2, 1.0))
        assert 1.0 <= filt.condition < 1e6


class TestEstimate:
    def test_zero_input(self):
        filt = lmmse(make_scalar_model(2, 1, 1.0))
        np.testing.assert_array_equal(estimate(filt, np.zeros(3, dtype=complex)), np.zeros(1))

    def test_dimension_mismatch(self):
        filt = lmmse(make_scalar_model(2, 1, 1.0))
        with pytest.raises(ModelError):
            estimate(filt, np.zeros(4, dtype=complex))

    def test_empirical_mse_matches_analytic(self):
        """Simulation oracle: the realized error of w @ x attains the
        predicted MSE within Monte-Carlo resolution."""
        model = make_scalar_model(1, 2, 1.0)
        filt = lmmse(model)
        trials = 100_000
        theta = sample_parameter(model.sigma_theta, RngStream(41), size=trials)
        x_a, x_q = sample_measurements(model, theta, RngStream(42))
        err = np.abs(estimate(filt, np.concatenate([x_a, x_q])) - theta) ** 2
        per_trial = err.sum(axis=0)
        se = per_trial.std(ddof=1) / np.sqrt(trials)
        assert abs(per_trial.mean() - filt.mse) <= 3 * se


class TestMseBounds:
    def test_zero_le_mse_le_prior_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = random_ortho_params(rng, m_max=4, n_a_max=3, n_q_max=4)
            model = make_ortho_model(params, RngStream(int(rng.integers(1 << 30))))
            filt = lmmse(model)
            assert 0.0 <= filt.mse <= params.m + 1e-9

    @pytest.mark.parametrize("mse", [np.array([np.nan, 0.5]), np.array([0.5, np.inf]), np.float64(np.nan)])
    def test_non_finite_mse_is_refused(self, mse):
        """The minimum of an array holding a NaN is NaN, which passed the round-off test."""
        with pytest.raises(NumericalDomainError):
            estimator._clamped_mse(mse)

    def test_negative_mse_beyond_round_off_is_refused(self):
        """Down to -MSE_ROUNDOFF_TOL an MSE clamps to 0; below it, a float or
        any value of an array is refused."""
        tol = estimator.MSE_ROUNDOFF_TOL
        assert estimator._clamped_mse(-tol) == 0.0
        for mse in (-2 * tol, np.array([0.5, -2 * tol])):
            with pytest.raises(NumericalDomainError, match="beyond round-off tolerance"):
                estimator._clamped_mse(mse)

    def test_no_measurements_returns_prior_trace(self):
        # Exercised through the exhaustive solver's (0, 0) corner: an empty
        # model cannot be constructed directly, so call the solver path.
        model = make_scalar_model(1, 0, 1.0)
        bundle = assemble(model)
        assert bundle.c_x.shape == (1, 1)


@st.composite
def general_models(draw):
    """Random mixed models: general H and prior, tiled or untiled G, at most 60 rows."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    n_a = draw(st.integers(min_value=0, max_value=30))
    copies = draw(st.integers(min_value=0 if n_a else 1, max_value=30 // m))
    tiled = draw(st.booleans())

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    root = cplx(m, m)
    g = np.tile(cplx(m, m), (copies, 1)) if tiled else cplx(m * copies, m)
    return MixedModel(
        h=cplx(n_a, m),
        g=g,
        sigma_theta=root @ root.conj().T + 0.1 * np.eye(m),
        var_a=draw(st.floats(min_value=0.05, max_value=5.0)),
        var_q=draw(st.floats(min_value=0.05, max_value=5.0)),
    )


class TestPrefixMse:
    @settings(max_examples=40, deadline=None)
    @given(general_models())
    def test_every_prefix_equals_lmmse_on_its_rows(self, model):
        """Entry k is the MSE of the model cut to its first k rows, for every
        k from 0 through the analog/quantized boundary to n."""
        n_a, n = model.n_analog, model.n_analog + model.n_quantized
        scan = prefix_mse(model)
        assert scan.shape == (n + 1,)
        prior = float(np.trace(model.sigma_theta).real)
        assert scan[0] == prior
        for k in range(1, n + 1):
            cut = MixedModel(
                h=model.h[:min(k, n_a)], g=model.g[: max(k - n_a, 0)],
                sigma_theta=model.sigma_theta, var_a=model.var_a, var_q=model.var_q,
            )
            assert abs(scan[k] - lmmse(cut).mse) <= 1e-12 * model.m, f"k={k}"

    def test_pure_analog_scalar(self):
        assert prefix_mse(make_scalar_model(3, 0, 1.0)) == pytest.approx([1.0, 1 / 2, 1 / 3, 1 / 4], abs=1e-15)


class TestDenseRowLimit:
    @pytest.mark.parametrize("solver", [lmmse, prefix_mse])
    def test_refused_before_assembly(self, monkeypatch, solver):
        from mixedres import estimator

        def no_assembly(model):
            raise AssertionError("covariance assembled for an oversized model")

        monkeypatch.setattr(estimator, "assemble", no_assembly)
        with pytest.raises(InstanceTooLargeError, match=str(MAX_DENSE_ROWS)):
            solver(make_scalar_model(MAX_DENSE_ROWS, 1, 1.0))


@st.composite
def copy_models(draw):
    """General models (any prior): H is k_a >= 1 copies of one block, G k >= 2 copies or untiled."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=4))
    n_a = draw(st.integers(min_value=0, max_value=12))
    k_a = draw(st.integers(min_value=1, max_value=4))
    tiled = draw(st.booleans())
    k = draw(st.integers(min_value=2, max_value=30)) if tiled else draw(st.integers(min_value=0, max_value=8))
    if n_a + p * k == 0:
        n_a = 1

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    g = np.tile(cplx(p, m), (k, 1)) if tiled else cplx(p * k, m)
    root = cplx(m, m)
    variance = st.floats(min_value=0.05, max_value=5.0)
    dither = st.one_of(st.just(0.0), variance)
    var_a, var_q = draw(variance), draw(variance)
    return MixedModel(
        h=np.tile(cplx(n_a, m), (k_a, 1)),
        g=g,
        sigma_theta=root @ root.conj().T + 0.1 * np.eye(m),
        # A dither of variance d is d more noise on its path.
        var_a=var_a + draw(dither),
        var_q=var_q + draw(dither),
    )


class TestCopyReducedSolve:
    """``lmmse`` factors only n_a + p rows; the full-matrix LU is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(copy_models())
    def test_matches_the_full_matrix_solve(self, model):
        try:
            ref = reference_lmmse(model)
        except EstimatorUndefinedError:
            return
        try:
            got = lmmse(model)
        except EstimatorUndefinedError:
            # The two guards bound different quantities; a refusal is fine
            # only where the full-matrix estimate is not far inside the limit.
            assert ref.condition > 1e-4 * estimator.CONDITION_LIMIT
            return
        assert abs(got.mse - ref.mse) <= 1e-12 * model.m
        assert got.w.shape == ref.w.shape
        if ref.w.size:
            assert np.max(np.abs(got.w - ref.w)) <= 1e-10 * np.max(np.abs(ref.w))
        if max(assemble(model).copies) <= 1:
            assert got.mse == ref.mse
            assert got.condition == ref.condition
            np.testing.assert_array_equal(got.w, ref.w)

    @pytest.mark.parametrize(
        "model",
        [
            make_scalar_model(0, 3, 0.0),
            make_scalar_model(1, 3, 0.0),
            make_ortho_model(OrthoBlockParams(m=2, n_a=1, n_q=3, var_q=0.0), RngStream(4)),
        ],
        ids=["scalar-quantized", "scalar-mixed", "ortho"],
    )
    def test_zero_noise_copies_refused_by_both_routes(self, model):
        with pytest.raises(EstimatorUndefinedError):
            reference_lmmse(model)
        with pytest.raises(EstimatorUndefinedError):
            lmmse(model)

    @pytest.mark.parametrize("shape", [(1, 2, 0), (2, 2, 2), (1, 3, 2)])
    def test_overflowing_copy_sums_refused_without_a_warning(self, shape):
        """At rho = 1e308 the copy-sum entries (k - 1) * A2 and sqrt(k_a k_q) * A2
        overflow while C~ is built; the solve refuses the system, and warns of nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((EstimatorUndefinedError, NumericalDomainError)):
                lmmse(make_mimo_model(*shape, 1e308, 1.0))

    def test_condition_bound_covers_the_copy_differences(self):
        """A strong analog row and nearly noiseless copies: C~ alone has a
        condition near 1e6, but the copy differences have variance D near
        1e-7 (var_q = 1e-14) or 1e-5 (var_q = 1e-10), which the bound must
        count as the full-matrix estimate does."""

        def model(var_q):
            return MixedModel(h=np.array([[1e3]]), g=np.ones((3, 1)), sigma_theta=np.eye(1), var_a=1e6, var_q=var_q)

        for solve in (reference_lmmse, lmmse):
            with pytest.raises(EstimatorUndefinedError):
                solve(model(1e-14))
        ref, got = reference_lmmse(model(1e-10)), lmmse(model(1e-10))
        assert 0.5 * ref.condition < got.condition < 2.0 * ref.condition

    def test_factors_no_more_than_the_reduced_rows(self, monkeypatch):
        shapes = []
        real_zgetrf = lapack.zgetrf

        def recording_zgetrf(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_zgetrf(a, *args, **kwargs)

        monkeypatch.setattr(lapack, "zgetrf", recording_zgetrf)
        model = make_ortho_model(OrthoBlockParams(m=3, n_a=2, n_q=20), RngStream(2))
        filt = lmmse(model)
        p = sum(assemble(model).periods)
        assert shapes and all(rows <= p for rows, _ in shapes)
        assert filt.w.shape == (3, model.n_analog + model.n_quantized)

    def test_writes_no_dense_matrix(self):
        """On a 1920-row tiled model the call allocates less than one complex
        n x n matrix at its peak, so it never reads the bundle's dense c_x."""
        model = make_ortho_model(OrthoBlockParams(m=10, n_a=0, n_q=192), RngStream(5))
        n = model.n_analog + model.n_quantized
        assert n == 1920
        tracemalloc.start()
        try:
            lmmse(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**2

    def test_copies_get_equal_columns_of_a_c_contiguous_filter(self):
        """A MIMO model repeats one m-row block in both paths: every copy of a
        row gets exactly that row's filter column, in a C-contiguous w."""
        m, n_a, n_q = 3, 2, 4
        w = lmmse(make_mimo_model(m, n_a, n_q, rho=1.2, var=0.7, rng=RngStream(5))).w
        assert w.shape == (m, m * (n_a + n_q)) and w.flags.c_contiguous
        for copies in (w[:, : m * n_a], w[:, m * n_a :]):
            blocks = copies.reshape(m, -1, m)
            assert np.array_equal(blocks, np.broadcast_to(blocks[:, :1], blocks.shape))


def _dithered_mimo():
    model = make_mimo_model(3, 2, 4, rho=1.2, var=0.7, rng=RngStream(5))
    return MixedModel(h=model.h, g=model.g, sigma_theta=model.sigma_theta, var_a=0.7 + 0.3, var_q=0.7 + 0.5)


# name -> (model with k_a >= 2 analog copies, rows that lmmse factors: p_a + p_q).
ANALOG_COPY_MODELS = {
    "scalar-2+5": (lambda: make_scalar_model(2, 5, 0.8), 2),
    "scalar-100+100": (lambda: make_scalar_model(100, 100, 0.8), 2),
    "mimo-random": (lambda: make_mimo_model(10, 2, 8, rho=1.0, var=1.0, rng=RngStream(3)), 20),
    "mimo-dft": (lambda: make_mimo_model(4, 3, 2, rho=1.5, var=0.7, pilot="dft"), 8),
    "mimo-dither": (_dithered_mimo, 6),
    "analog-only": (lambda: make_mimo_model(3, 4, 0, rho=0.9, var=0.5, rng=RngStream(6)), 3),
}


class TestAnalogCopies:
    """Repeated analog rows are one copy block, like the quantized rows:
    the all-rows LU of ``reference_lmmse`` is the reference."""

    @pytest.mark.parametrize("case", sorted(ANALOG_COPY_MODELS))
    def test_matches_the_all_rows_reference(self, case, monkeypatch):
        build, reduced_rows = ANALOG_COPY_MODELS[case]
        model = build()
        ref = reference_lmmse(model)
        shapes = []
        real_zgetrf = lapack.zgetrf

        def recording_zgetrf(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_zgetrf(a, *args, **kwargs)

        monkeypatch.setattr(lapack, "zgetrf", recording_zgetrf)
        got = lmmse(model)
        assert shapes == [(reduced_rows, reduced_rows)]
        assert abs(got.mse - ref.mse) <= 1e-12 * model.m
        assert np.max(np.abs(got.w - ref.w)) <= 1e-12 * model.m
        # Every copy of a block gets exactly the same filter columns.
        bundle = assemble(model)
        (pa, pq), (ka, kq) = bundle.periods, bundle.copies
        assert ka >= 2
        analog, quantized = got.w[:, : ka * pa], got.w[:, ka * pa :]
        for c in range(ka):
            np.testing.assert_array_equal(analog[:, c * pa : (c + 1) * pa], analog[:, :pa])
        for c in range(kq):
            np.testing.assert_array_equal(quantized[:, c * pq : (c + 1) * pq], quantized[:, :pq])

    @pytest.mark.parametrize("case", sorted(ANALOG_COPY_MODELS))
    def test_condition_bound_covers_the_dense_matrix(self, case):
        """The bound is at least the 2-norm condition number of the dense C_x.

        It is not a bound on LAPACK's 1-norm estimate of C_x: for k copies
        that estimate grows with k (487 against 256 on the 100 + 100 scalar
        model), while the spectrum it is bounded through does not."""
        model = ANALOG_COPY_MODELS[case][0]()
        eig = np.linalg.eigvalsh(reference_assemble(model).c_x)
        assert lmmse(model).condition >= (1.0 - 1e-12) * eig.max() / eig.min()

    @pytest.mark.parametrize(
        "model",
        [
            MixedModel(h=np.ones((2, 1)), g=np.ones((3, 1)), sigma_theta=np.eye(1), var_a=0.0, var_q=1.0),
            replace(_dithered_mimo(), var_a=0.0),
        ],
        ids=["scalar", "mimo"],
    )
    def test_noiseless_analog_copies_refused_by_both_routes(self, model):
        with pytest.raises(EstimatorUndefinedError):
            reference_lmmse(model)
        with pytest.raises(EstimatorUndefinedError):
            lmmse(model)


@st.composite
def scan_instances(draw):
    """A model whose G is one block g1, and every (analog prefix, copy count) point of it.

    H and g1 are general (any rows, with g1 possibly repeating a shorter
    block) or an orthonormal-block draw; the prior is general with general
    blocks.  A noiseless quantizer (var_q = 0) comes with copy counts of at
    most 1 of a g1 that does not repeat, the only points it leaves regular.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    noiseless = draw(st.booleans())
    variance = st.floats(min_value=0.05, max_value=5.0)
    var_a, var_q = draw(variance), 0.0 if noiseless else draw(variance)

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    if draw(st.booleans()):
        params = OrthoBlockParams(
            m=m, n_a=draw(st.integers(min_value=0, max_value=4)), n_q=1,
            rho_a=draw(variance), rho_q=draw(variance), var_a=var_a, var_q=var_q,
        )
        h, g1 = make_ortho_matrices(params, RngStream(int(rng.integers(1 << 30))))
        sigma = np.eye(m)
    else:
        h = cplx(draw(st.integers(min_value=0, max_value=12)), m)
        period = draw(st.integers(min_value=1, max_value=3))
        g1 = np.tile(cplx(period, m), (1 if noiseless else draw(st.integers(min_value=1, max_value=3)), 1))
        root = cplx(m, m)
        sigma = root @ root.conj().T + 0.1 * np.eye(m)
    copies_max = 1 if noiseless else draw(st.integers(min_value=0, max_value=8))
    model = MixedModel(h=h, g=g1, sigma_theta=sigma, var_a=var_a, var_q=var_q)
    points = [(a, c) for a in range(model.n_analog + 1) for c in range(copies_max + 1)]
    return model, points


class TestCopyScanMse:
    """``copy_scan_mse`` against the dense prefix scan of each point's model."""

    @settings(max_examples=150, deadline=None)
    @given(scan_instances())
    def test_equals_the_dense_prefix_scan(self, instance):
        model, points = instance
        rows, copies = np.array(points).T
        got = copy_scan_mse(model, rows, copies)
        r = model.n_quantized
        for (a, c), value in zip(points, got):
            if a == 0 and c == 0:
                assert value == float(np.trace(model.sigma_theta).real)
                continue
            cut = MixedModel(
                h=model.h[:a], g=np.tile(model.g, (c, 1)), sigma_theta=model.sigma_theta,
                var_a=model.var_a, var_q=model.var_q,
            )
            assert cut.n_analog + cut.n_quantized <= 2000
            assert abs(value - prefix_mse(cut)[a + c * r]) <= 1e-12 * model.m, (a, c)

    def test_equals_the_closed_form_on_orthonormal_blocks(self):
        """Criterion 1's tolerance, 1e-9 * m, at every (n_a, n_q) point."""
        rng = np.random.default_rng(77)
        for _ in range(40):
            params = random_ortho_params(rng, m_max=4, n_a_max=5, n_q_max=12)
            h, g1 = make_ortho_matrices(replace(params, n_q=1), RngStream(int(rng.integers(1 << 30))))
            model = MixedModel(h=h, g=g1, sigma_theta=np.eye(params.m), var_a=params.var_a, var_q=params.var_q)
            n_a, n_q = np.meshgrid(np.arange(params.n_a + 1), np.arange(params.n_q + 1), indexing="ij")
            got = copy_scan_mse(model, params.m * n_a.ravel(), n_q.ravel())
            closed = mse_grid(params.m, n_a.ravel(), n_q.ravel(), params.rho_a, params.rho_q, params.var_a, params.var_q)
            assert np.max(np.abs(got - closed)) <= 1e-9 * params.m

    def test_noiseless_copies_refused(self):
        """var_q = 0: one copy solves, and any point with two copies refuses the scan."""
        model = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        single = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        assert abs(copy_scan_mse(model, [1, 0], [1, 1])[0] - lmmse(single).mse) <= 1e-15
        with pytest.raises(EstimatorUndefinedError, match="identical"):
            copy_scan_mse(model, [1, 0], [1, 2])

    def test_block_with_a_shorter_period(self):
        """g1 = [b; b] is two copies of b per requested copy: at var_q = 0 even
        one copy of g1 is singular, and with noise it is the model of 2 n_q rows."""
        g1 = np.array([[1.0 + 0.5j], [1.0 + 0.5j]])
        noisy = MixedModel(h=np.ones((1, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.5)
        got = copy_scan_mse(noisy, [1, 1], [1, 3])
        for value, c in zip(got, [1, 3]):
            tiled = MixedModel(h=np.ones((1, 1)), g=np.tile(g1, (c, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=0.5)
            assert abs(value - lmmse(tiled).mse) <= 1e-14
        noiseless = MixedModel(h=np.ones((1, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        with pytest.raises(EstimatorUndefinedError):
            copy_scan_mse(noiseless, [1], [1])

    def test_pure_analog_points_skip_the_quantized_rows(self):
        """With no copy requested the scan assembles no quantized row, so a
        zero row of a noiseless g1, whose arcsine map is undefined, is never read."""
        g1 = np.array([[0.0], [1.0]])
        model = MixedModel(h=np.ones((2, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        got = copy_scan_mse(model, [0, 1, 2], [0, 0, 0])
        np.testing.assert_array_equal(got, prefix_mse(make_scalar_model(2, 0, 1.0)))

    @pytest.mark.parametrize(
        "var_a, text, condition",
        [(3e-11, "bound 1.655e+12", 1.655e12), (5e-12, "estimate 1.211e+12", 1.211e12)],
        ids=["copy-bound", "analog-estimate"],
    )
    def test_near_singular_analog_rows_are_refused(self, var_a, text, condition):
        """At var_a = 3e-11 the analog factor passes LAPACK's estimate, one copy
        solves, and four copies refuse the scan on its condition bound; at
        5e-12 the analog factor's own estimate refuses it first."""
        params = OrthoBlockParams(m=2, n_a=3, n_q=1, var_a=var_a, var_q=1.0)
        model = block_model(params, *make_ortho_matrices(params, RngStream(0)))
        with pytest.raises(EstimatorUndefinedError, match=re.escape(text)) as exc:
            copy_scan_mse(model, [6, 6], [1, 4])
        assert exc.value.condition == pytest.approx(condition, rel=1e-3)

    def test_opposite_noiseless_rows_refused(self):
        """One copy of the block [b; -b] at var_q = 0: the two signs are exact
        negatives, so the Schur complement A1 - V^H V has a zero eigenvalue."""
        model = MixedModel(h=np.ones((1, 1)), g=np.array([[1.0], [-1.0]]), sigma_theta=np.eye(1), var_a=1.0, var_q=0.0)
        for rows in ([0], [1]):
            with pytest.raises(EstimatorUndefinedError, match="non-positive Schur eigenvalue") as exc:
                copy_scan_mse(model, rows, [1])
            assert exc.value.condition == float("inf")

    @pytest.mark.parametrize(
        "rows, copies, kind",
        [([1.5], [2], "float"), ([1], [2.7], "float"), ([True], [1], "bool"), ([1], np.array([True]), "bool"),
         (np.array([1.0]), [2], "float64")],
        ids=["float-rows", "float-copies", "bool-rows", "bool-array", "float-array"],
    )
    def test_rejects_counts_that_are_not_integers(self, rows, copies, kind):
        """A float or a bool count was once cast to int64: (1.5, 2.7) scanned the point (1, 2)."""
        model = MixedModel(h=np.ones((2, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)
        with pytest.raises(ModelError, match=f"^analog_rows and copies must be integers, got {kind}$"):
            copy_scan_mse(model, rows, copies)

    @pytest.mark.parametrize("rows, copies", [([2], [0]), ([-1], [0]), ([0], [-1]), ([0, 1], [0])])
    def test_rejects_points_outside_the_model(self, rows, copies):
        model = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)
        with pytest.raises(ModelError):
            copy_scan_mse(model, rows, copies)

    def test_no_points_give_an_empty_array(self):
        """No points once ended in a raw ValueError from an empty reduction."""
        model = MixedModel(h=np.ones((1, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0)
        got = copy_scan_mse(model, [], [])
        assert got.shape == (0,) and got.dtype == np.float64

    def test_copy_counts_beyond_int64_are_refused(self):
        """g1 = [b; b] holds two periods, so 2**62 copies of it are 2**63 rows of b,
        a count that once wrapped around int64 (here to a negative one, which
        ended in a raw ValueError)."""
        g1 = np.array([[1.0 + 0.5j], [1.0 + 0.5j]])
        model = MixedModel(h=np.ones((1, 1)), g=g1, sigma_theta=np.eye(1), var_a=1.0, var_q=0.5)
        with pytest.raises(InstanceTooLargeError, match=r"^about 4\.61e\+18 copies of a block"):
            copy_scan_mse(model, [1], [2**62])
        with pytest.raises(InstanceTooLargeError, match="int64"):
            copy_scan_mse(model, [1], [2**63])
        # One copy fewer fits, and meets the condition bound instead.
        with pytest.raises(EstimatorUndefinedError, match="ill-conditioned"):
            copy_scan_mse(model, [1], [2**62 - 1])

    def test_refused_before_assembly(self, monkeypatch):
        def no_assembly(model):
            raise AssertionError("covariance assembled for an oversized scan")

        monkeypatch.setattr(estimator, "assemble", no_assembly)
        model = MixedModel(
            h=np.ones((MAX_DENSE_ROWS, 1)), g=np.ones((1, 1)), sigma_theta=np.eye(1), var_a=1.0, var_q=1.0
        )
        with pytest.raises(InstanceTooLargeError, match=str(MAX_DENSE_ROWS)):
            copy_scan_mse(model, [0], [1])
