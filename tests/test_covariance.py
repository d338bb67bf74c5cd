"""Tests for the covariance blocks of the stacked measurement vector."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedres import estimator
from mixedres.closed_form import alpha
from mixedres.estimator import (
    assemble,
    cov_analog,
    cov_pre_quantization,
    cov_quantized,
    cross_cov_analog_quantized,
    cross_cov_theta_quantized,
    lmmse,
    lmmse_from_bundle,
)
from mixedres.exceptions import DegenerateCovarianceError, ModelError, NumericalDomainError
from mixedres.model import (
    PILOTS,
    MixedModel,
    OrthoBlockParams,
    RngStream,
    block_model,
    copy_layout,
    make_mimo_model,
    make_ortho_matrices,
    make_ortho_model,
    make_scalar_model,
)
from oracles import assert_within_se, dense_blocks, empirical_second_moments, reference_assemble


def _random_model(seed, m=3, n_a=2, n_q=2, **variances):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    sigma = a @ a.conj().T + m * np.eye(m)
    h = rng.standard_normal((n_a, m)) + 1j * rng.standard_normal((n_a, m))
    g = rng.standard_normal((n_q, m)) + 1j * rng.standard_normal((n_q, m))
    # Noise plus a dither on each path: a dither of variance d is d more noise.
    variances = {"var_a": 0.7 + 0.1, "var_q": 1.3 + 0.2, **variances}
    return MixedModel(h=h, g=g, sigma_theta=sigma, **variances)


class TestAnalogCovariance:
    def test_zero_mixing(self):
        model = MixedModel(
            h=np.zeros((3, 2)), g=np.ones((1, 2)), sigma_theta=np.eye(2),
            var_a=0.5 + 0.25, var_q=1.0,
        )
        np.testing.assert_allclose(cov_analog(model), 0.75 * np.eye(3), atol=0)

    def test_scalar_two_measurements(self):
        model = make_scalar_model(2, 0, 1.0)
        np.testing.assert_allclose(cov_analog(model), [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)

    def test_hermitian_psd(self):
        c = cov_analog(_random_model(0))
        assert np.max(np.abs(c - c.conj().T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(c)) >= -1e-10

    def test_symmetrizing_keeps_the_largest_finite_entries_finite(self):
        """Entries near the float64 maximum survive the Hermitian averaging."""
        model = MixedModel(
            h=np.ones((2, 1)), g=np.ones((1, 1)), sigma_theta=np.array([[1e308]]),
            var_a=0.0, var_q=1.0,
        )
        np.testing.assert_array_equal(cov_analog(model), np.full((2, 2), 1e308))


class TestPreQuantizationCovariance:
    def test_zero_mixing(self):
        model = MixedModel(
            h=np.ones((1, 2)), g=np.zeros((3, 2)), sigma_theta=np.eye(2),
            var_a=1.0, var_q=0.5 + 0.2,
        )
        np.testing.assert_allclose(cov_pre_quantization(model), 0.7 * np.eye(3), atol=0)

    def test_block_structure_for_ortho_draw(self):
        """Repeated quantized blocks give rho_q on every cross-block diagonal."""
        params = OrthoBlockParams(m=3, n_a=0, n_q=4, rho_q=1.6, var_q=0.9)
        model = make_ortho_model(params, RngStream(21))
        c_y = cov_pre_quantization(model)
        expected = 1.6 * np.kron(np.ones((4, 4)), np.eye(3)) + 0.9 * np.eye(12)
        np.testing.assert_allclose(c_y, expected, atol=1e-12)
        np.testing.assert_allclose(np.diag(c_y).real, 1.6 + 0.9, atol=1e-12)


class TestQuantizedCovariance:
    def test_diagonal_input_gives_identity(self):
        c_y = np.diag([1.0, 2.5, 0.3]).astype(complex)
        np.testing.assert_array_equal(cov_quantized(c_y), np.eye(3, dtype=complex))

    def test_half_correlation(self):
        """Pearson ratio 1/2 maps to (2/pi) * arcsin(1/2) = 1/3."""
        c_y = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        c_xq = cov_quantized(c_y)
        np.testing.assert_allclose(c_xq[0, 1], 1.0 / 3.0, atol=1e-15)
        assert c_xq[0, 0] == 1.0

    def test_diagonal_is_exactly_one(self):
        c = cov_quantized(cov_pre_quantization(_random_model(1)))
        np.testing.assert_array_equal(np.diag(c), np.ones(2, dtype=complex))

    def test_degenerate_diagonal_rejected(self):
        with pytest.raises(DegenerateCovarianceError):
            cov_quantized(np.zeros((2, 2), dtype=complex))

    def test_overshoot_beyond_clip_rejected(self):
        c_y = np.array([[1.0, 1.1], [1.1, 1.0]], dtype=complex)
        with pytest.raises(NumericalDomainError):
            cov_quantized(c_y)

    def test_marginal_overshoot_clipped(self):
        c_y = np.array([[1.0, 1.0 + 5e-10], [1.0 + 5e-10, 1.0]], dtype=complex)
        c_xq = cov_quantized(c_y)
        np.testing.assert_allclose(c_xq[0, 1], 1.0, atol=1e-12)

    def test_pearson_ratios_bounded(self):
        for seed in range(20):
            c_y = cov_pre_quantization(_random_model(seed))
            d = np.diag(c_y).real
            s = 1.0 / np.sqrt(d)
            r = (s[:, None] * c_y) * s[None, :]
            assert np.max(np.abs(r.real)) <= 1.0 + 1e-12
            assert np.max(np.abs(r.imag)) <= 1.0 + 1e-12


class TestCrossCovariances:
    def test_zero_mixing_gives_zero(self):
        model = MixedModel(
            h=np.ones((2, 2)), g=np.zeros((2, 2)), sigma_theta=np.eye(2),
            var_a=1.0, var_q=1.0,
        )
        c_y = cov_pre_quantization(model)
        assert np.all(cross_cov_theta_quantized(model, c_y) == 0)
        assert np.all(cross_cov_analog_quantized(model, c_y) == 0)

    def test_scalar_values(self):
        """Unit gains and unit noise give the 1/sqrt(pi) cross terms."""
        model = make_scalar_model(1, 1, 1.0)
        c_y = cov_pre_quantization(model)
        np.testing.assert_allclose(
            cross_cov_theta_quantized(model, c_y), [[1 / np.sqrt(np.pi)]], atol=1e-15
        )
        np.testing.assert_allclose(
            cross_cov_analog_quantized(model, c_y), [[1 / np.sqrt(np.pi)]], atol=1e-15
        )


class TestAssemble:
    def test_no_quantized_block(self):
        """Three copies of one analog row: the noise-free diagonal 1.5 - 0.5 is
        exactly the Gram entry 1, so the tiled c_x is the dense one."""
        model = make_scalar_model(3, 0, 0.5)
        bundle = assemble(model)
        assert (bundle.periods, bundle.copies) == ((1, 0), (3, 0))
        np.testing.assert_array_equal(bundle.c_x, cov_analog(model))
        np.testing.assert_array_equal(bundle.c_theta_x, model.sigma_theta @ model.h.conj().T)

    def test_no_analog_block(self):
        model = make_scalar_model(0, 3, 0.5)
        bundle = assemble(model)
        np.testing.assert_array_equal(bundle.c_x, dense_blocks(bundle)["c_xq"])

    def test_hermitian_and_psd_random_models(self):
        """Eigenvalue check over many random models is its own oracle."""
        rng = np.random.default_rng(7)
        for trial in range(200):
            m = int(rng.integers(1, 7))
            n_a = int(rng.integers(0, 4))
            n_q = int(rng.integers(0, 4))
            if n_a + n_q == 0:
                n_q = 1
            model = _random_model(int(rng.integers(1 << 30)), m=m, n_a=n_a, n_q=n_q)
            c_x = assemble(model).c_x
            assert np.max(np.abs(c_x - c_x.conj().T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(c_x)) >= -1e-8


class TestBlockPeriod:
    """``copy_layout`` without a period: the smallest period and its copy count."""

    ROWS = np.array([[1.0, 2.0], [3.0, 1j], [1.0, 2.0], [0.5, 0.0]])

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_or_one_row(self, n):
        assert copy_layout(self.ROWS[:n]) == (n, n)

    def test_equal_rows_have_period_one(self):
        assert copy_layout(np.tile(self.ROWS[:1], (7, 1))) == (1, 7)

    def test_tiled_block(self):
        assert copy_layout(np.tile(self.ROWS, (5, 1))) == (4, 5)

    def test_repeated_row_inside_the_block(self):
        block = self.ROWS[[0, 0, 1]]
        assert copy_layout(np.tile(block, (3, 1))) == (3, 3)

    def test_repeating_prefix_that_does_not_tile(self):
        # Rows a b a: period 2 does not divide 3.  Rows a b a c: 2 divides 4,
        # but the second pair differs from the first.
        assert copy_layout(self.ROWS[:3]) == (3, 1)
        assert copy_layout(self.ROWS) == (4, 1)

    def test_cut_copy_is_not_a_period(self):
        assert copy_layout(np.tile(self.ROWS[:2], (4, 1))[:-1]) == (7, 1)


LAYOUTS = ["tiled", "untiled", "all-equal", "repeat-inside", "cut"]


def _layout_rows(rng, m, p, k, layout, cut):
    """Rows of width m: k copies of a random p-row block, or rows that break
    that tiling as ``layout`` says ("cut" drops the last ``cut`` rows, keeping one)."""

    def cplx(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    block = cplx(p, m)
    if layout == "untiled":
        return cplx(p * k, m)
    if layout == "all-equal":
        return np.tile(block[:1], (p * k, 1))
    if layout == "repeat-inside":
        block[-1] = block[0]
    rows = np.tile(block, (k, 1))
    return rows[: max(p * k - cut, 1)] if layout == "cut" else rows


@st.composite
def _layout_draws(draw, layouts):
    """(rng, m, p, k, layout, cut) for :func:`_layout_rows`."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=8))
    return rng, m, p, k, draw(st.sampled_from(layouts)), draw(st.integers(min_value=1, max_value=p))


def _brute_force_tiles(rows, period):
    """Whether ``rows`` are copies of their first ``period`` rows: 1 to n of them, or 0 of no rows."""
    n = rows.shape[0]
    if not 1 <= period <= n:
        return period == n == 0
    return n % period == 0 and np.array_equal(rows, np.tile(rows[:period], (n // period, 1)))


class TestCopyLayout:
    @settings(max_examples=300, deadline=None)
    @given(_layout_draws(LAYOUTS + ["empty"]))
    def test_matches_brute_force(self, draw):
        """The smallest tiling period without one; a given period is accepted
        exactly when the rows tile with it, and refused otherwise."""
        rng, m, p, k, layout, cut = draw
        rows = np.zeros((0, m), dtype=np.complex128) if layout == "empty" else _layout_rows(*draw)
        n = rows.shape[0]
        tiling = [period for period in range(n + 2) if _brute_force_tiles(rows, period)]
        assert copy_layout(rows) == (tiling[0], n // max(tiling[0], 1))
        for period in range(n + 2):
            if period in tiling:
                assert copy_layout(rows, period) == (period, n // max(period, 1))
            else:
                with pytest.raises(ModelError, match=f"period {period} "):
                    copy_layout(rows, period)


@st.composite
def copy_layouts(draw):
    """Mixed models whose G and H are each tiled, untiled, all-equal, tiled
    from a block with a repeated row, or tiled and then cut inside a copy;
    H may also have no rows."""
    rng, m, p, k, layout, cut = draw(_layout_draws(LAYOUTS))
    _, _, p_a, k_a, layout_a, cut_a = draw(_layout_draws(LAYOUTS + ["empty"]))
    variance = st.floats(min_value=0.05, max_value=5.0)
    dither = st.one_of(st.just(0.0), variance)
    var_a, var_q = draw(variance), draw(variance)
    model = _layout_model(rng, m, p, k, layout, cut, 0, var_a + draw(dither), var_q + draw(dither))
    h = np.zeros((0, m)) if layout_a == "empty" else _layout_rows(rng, m, p_a, k_a, layout_a, cut_a)
    return replace(model, h=h)


def _layout_model(rng, m, p, k, layout, cut, n_a, var_a, var_q):
    """A model with the G of :func:`_layout_rows`, then a random prior and H, all drawn from ``rng``."""
    g = _layout_rows(rng, m, p, k, layout, cut)
    root = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return MixedModel(
        h=rng.standard_normal((n_a, m)) + 1j * rng.standard_normal((n_a, m)),
        g=g,
        sigma_theta=root @ root.conj().T + 0.1 * np.eye(m),
        var_a=var_a,
        var_q=var_q,
    )


class TestBlockAssembly:
    @settings(max_examples=200, deadline=None)
    @given(copy_layouts())
    def test_matches_assembly_over_every_row(self, model):
        self._check_matches_assembly_over_every_row(model)

    def test_cancelling_cross_covariance_terms(self):
        """A draw whose analog-quantized cross-covariance cancels: its gap,
        1.6e-16, exceeds 1e-15 times the largest entry, 1.4e-16, and stays
        far inside the bound on the magnitudes of its terms."""
        model = _layout_model(np.random.default_rng(4), 4, 3, 1, "all-equal", 1, 1, 1.0, 1.0)
        self._check_matches_assembly_over_every_row(model)

    @staticmethod
    def _check_matches_assembly_over_every_row(model):
        """One-period assembly equals the dense assembly over all n_q rows.

        The two Grams run over different rows, so entries may differ by
        round-off.  The arcsine map multiplies such a difference by its
        derivative, at most 1 / sqrt(1 - r^2) for the largest off-diagonal
        Pearson ratio r, so the quantized block gets that factor on its bound.
        The analog-quantized block sqrt(2/pi) H Sigma G^H s is bounded entry
        by entry on the magnitudes of its terms, which can cancel.
        """
        bundle = assemble(model)
        ref = reference_assemble(model)
        c_y = cov_pre_quantization(model)
        s = 1.0 / np.sqrt(np.diag(c_y).real)
        r = (s[:, None] * c_y) * s[None, :]
        np.fill_diagonal(r, 0.0)
        r_max = max(np.max(np.abs(r.real), initial=0.0), np.max(np.abs(r.imag), initial=0.0))
        arcsine_gain = 1.0 / np.sqrt(1.0 - r_max**2)
        terms = np.sqrt(2.0 / np.pi) * (np.abs(model.h) @ np.abs(model.sigma_theta) @ np.abs(model.g).T) * s
        blocks, ref_blocks = dense_blocks(bundle), dense_blocks(ref)
        for name in ("c_xa", "c_xq", "c_xa_xq", "c_theta_xa", "c_theta_xq", "c_theta_x"):
            got, want = blocks[name], ref_blocks[name]
            assert got.shape == want.shape, name
            if name == "c_xa_xq":
                assert np.all(np.abs(got - want) <= 1e-15 * terms), name
            elif want.size:
                bound = 1e-15 * np.max(np.abs(want)) * (arcsine_gain if name == "c_xq" else 1.0)
                assert np.max(np.abs(got - want)) <= bound, name
        c_x, c_theta_x = bundle.c_x, bundle.c_theta_x
        assert c_x.shape == (len(ref.a1), len(ref.a1))
        # The one-period blocks are the blocks of the dense expansion: per
        # copy of each block, its rows of x and its rows of the period.
        (pa, pq), (ka, kq) = bundle.periods, bundle.copies
        spans = [(slice(i * pa, (i + 1) * pa), slice(0, pa)) for i in range(ka)]
        spans += [(slice(ka * pa + j * pq, ka * pa + (j + 1) * pq), slice(pa, pa + pq)) for j in range(kq)]
        for i, (x_rows, rows) in enumerate(spans):
            np.testing.assert_array_equal(c_theta_x[:, x_rows], bundle.c_theta[:, rows])
            for j, (x_cols, cols) in enumerate(spans):
                np.testing.assert_array_equal(c_x[x_rows, x_cols], (bundle.a1 if i == j else bundle.a2)[rows, cols])
        assert np.all(np.diag(blocks["c_xq"]) == 1.0)
        np.testing.assert_array_equal(c_x, c_x.conj().T)
        mse = lmmse_from_bundle(model, bundle).mse
        assert abs(mse - lmmse_from_bundle(model, ref).mse) <= 1e-12 * model.m

    @settings(max_examples=200, deadline=None)
    @given(copy_layouts())
    def test_c_x_is_exactly_hermitian(self, model):
        """Both triangles of c_x are exact conjugates and the diagonal is
        real, so a solver that reads one triangle sees the matrix that a
        solver reading both does."""
        c_x = assemble(model).c_x
        np.testing.assert_array_equal(c_x, c_x.conj().T)
        assert np.all(c_x.diagonal().imag == 0)
        for c in (cov_analog(model), cov_quantized(cov_pre_quantization(model))):
            np.testing.assert_array_equal(c, c.conj().T)
            assert np.all(c.diagonal().imag == 0)

    def test_arcsine_map_runs_on_one_period(self, monkeypatch):
        """k >= 2 copies of a p-row block: the arcsine map sees p x p."""
        shapes = []
        real_cov_quantized = estimator.cov_quantized

        def recording_cov_quantized(c_y):
            shapes.append(np.shape(c_y))
            return real_cov_quantized(c_y)

        monkeypatch.setattr(estimator, "cov_quantized", recording_cov_quantized)
        model = make_ortho_model(OrthoBlockParams(m=3, n_a=1, n_q=4), RngStream(3))
        bundle = assemble(model)
        assert (bundle.periods, bundle.copies) == ((3, 3), (1, 4))
        assert shapes == [(3, 3)]

    @pytest.mark.parametrize(
        "params",
        [
            OrthoBlockParams(m=2, n_a=1, n_q=3, rho_q=0.4, var_q=1.7),
            OrthoBlockParams(m=3, n_a=0, n_q=2, rho_q=2.5, var_q=0.3 + 0.2),
            OrthoBlockParams(m=4, n_a=2, n_q=5, rho_a=1.5, rho_q=1.1, var_a=0.6, var_q=1e-3),
        ],
    )
    def test_copy_difference_variance_is_the_quantizer_loss(self, params):
        """On orthonormal blocks A2 is A1 off the diagonal, and D = diag(A1 - A2)
        is the closed form's alpha(rho_q, var_q) on every quantized row.

        D is 1 - (2/pi) arcsin(x) at x = rho_q / (rho_q + var_q); the
        arcsine multiplies the round-off of x by 1 / sqrt(1 - x^2), which is
        large for a nearly noiseless quantizer, so the bound carries it.  On
        an analog row D is the noise variance, up to the round-off of the
        diagonal it is taken from."""
        bundle = assemble(make_ortho_model(params, RngStream(9)))
        pa, pq = bundle.periods
        off = ~np.eye(pa + pq, dtype=bool)
        np.testing.assert_array_equal(bundle.a2[off], bundle.a1[off])
        d = (bundle.a1 - bundle.a2).diagonal()
        assert np.all(d.imag == 0)
        x = params.rho_q / (params.rho_q + params.var_q)
        bound = 1e-15 / np.sqrt(1.0 - x**2)
        np.testing.assert_allclose(d.real[pa:], alpha(params.rho_q, params.var_q), rtol=0, atol=bound)
        diag = bundle.a1.diagonal()[:pa].real
        np.testing.assert_allclose(d.real[:pa], params.var_a, rtol=0, atol=4e-16 * diag.max(initial=0.0))

    def test_solve_leaves_the_bundle_intact(self, monkeypatch):
        """The solves read the bundle's blocks, so they must not factor them in
        place, and no stage may write into the model or into the c_y that the
        arcsine stage maps in place of a copy.  Checked for lmmse_from_bundle,
        lmmse and copy_scan_mse on models with copies of both blocks; each
        filter is C-ordered."""
        names = ("a1", "a2", "c_theta")
        fields = ("h", "g", "sigma_theta")
        bundles, c_ys = [], []
        real_assemble, real_cov_quantized = estimator._assemble, estimator.cov_quantized

        def recording_assemble(*args):
            bundle = real_assemble(*args)
            bundles.append((bundle, {name: getattr(bundle, name).copy() for name in names}))
            return bundle

        def recording_cov_quantized(c_y):
            c_ys.append((c_y, c_y.copy()))
            return real_cov_quantized(c_y)

        monkeypatch.setattr(estimator, "_assemble", recording_assemble)
        monkeypatch.setattr(estimator, "cov_quantized", recording_cov_quantized)
        for model in (make_scalar_model(2, 3, 1.0), make_mimo_model(2, 2, 3, 1.5, 0.8, rng=RngStream(3))):
            bundles.clear()
            c_ys.clear()
            model_before = {name: getattr(model, name).copy() for name in fields}
            filters = [lmmse_from_bundle(model, assemble(model)), estimator.lmmse(model)]
            estimator.copy_scan_mse(model, [0, model.m, 2 * model.m], [1, 2, 3])
            assert len(bundles) == len(c_ys) == 3
            assert all(bundle.copies[1] > 1 for bundle, _ in bundles)
            for bundle, before in bundles:
                for name in names:
                    np.testing.assert_array_equal(getattr(bundle, name), before[name], err_msg=name)
            for c_y, before in c_ys:
                np.testing.assert_array_equal(c_y, before)
            for name in fields:
                np.testing.assert_array_equal(getattr(model, name), model_before[name], err_msg=name)
            assert all(filt.w.flags.c_contiguous for filt in filters)


def _identity_prior_models(m):
    """block_model and make_mimo_model models with m parameters, with two analog
    blocks over three quantized copies, and the same models with one quantized block."""
    params = OrthoBlockParams(m=m, n_a=2, n_q=3, rho_a=1.3, rho_q=0.6, var_a=0.8, var_q=1.1)
    h, g1 = make_ortho_matrices(replace(params, n_q=1), RngStream(m))
    for pilot in PILOTS:
        yield f"mimo-{pilot}", make_mimo_model(m, 2, 3, 0.9, 0.7, pilot=pilot, rng=RngStream(m, 1))
        yield f"mimo-{pilot}-one-block", make_mimo_model(m, 2, 1, 0.9, 0.7, pilot=pilot, rng=RngStream(m, 1))
    yield "block", block_model(params, h, g1)
    yield "block-one-block", block_model(replace(params, n_q=1), h, g1)


class TestIdentityPrior:
    """A block_model model skips the covariance stages' products with its identity
    prior; the same h and g with the prior given as a matrix take them."""

    @pytest.mark.parametrize("m", [1, 3, 4, 8])
    def test_skipped_products_change_no_output(self, m):
        """Every lmmse and copy_scan_mse output byte for byte, and every bundle
        block equal: the skip may change only the sign of an exact zero."""
        rows = [0, m, 2 * m, 2 * m, m, 0, 2 * m]
        copies = [0, 1, 2, 5, 1, 3, 1]
        for name, model in _identity_prior_models(m):
            plain = MixedModel(h=model.h, g=model.g, sigma_theta=np.eye(m), var_a=model.var_a, var_q=model.var_q)
            assert model._identity_prior and not plain._identity_prior, name
            flagged, general = lmmse(model), lmmse(plain)
            assert flagged.w.tobytes() == general.w.tobytes(), name
            assert (flagged.mse, flagged.condition) == (general.mse, general.condition), name
            for block in ("a1", "a2", "c_theta"):
                assert np.array_equal(getattr(assemble(model), block), getattr(assemble(plain), block)), (name, block)
            if model.n_quantized == m:
                scans = [estimator.copy_scan_mse(one, rows, copies) for one in (model, plain)]
                assert scans[0].tobytes() == scans[1].tobytes(), name

    def test_prior_trace_is_m(self):
        model = make_mimo_model(4, 1, 1, 1.0, 1.0)
        assert estimator._prior_trace(model) == 4.0 and type(estimator._prior_trace(model)) is float


class TestMonteCarloConsistency:
    """Sampled second moments agree with the analytic blocks (loose SE budget
    here; the strict 3-SE / 1e6-trial versions run in the acceptance suite)."""

    def test_scalar_arcsine_block(self):
        params = OrthoBlockParams(m=1, n_a=0, n_q=2, rho_q=1.0, var_q=1.0)
        model = make_ortho_model(params, RngStream(31))
        c_xq = dense_blocks(assemble(model))["c_xq"]
        np.testing.assert_allclose(c_xq, [[1.0, 1 / 3], [1 / 3, 1.0]], atol=1e-12)
        moments = empirical_second_moments(model, 100_000, seed=77, pairs=[("xq", "xq")])
        mean, se_r, se_i = moments[("xq", "xq")]
        assert_within_se(mean, c_xq, se_r, se_i, n_se=4.0)

    def test_bussgang_blocks(self):
        model = make_scalar_model(1, 1, 1.0)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 100_000, seed=78, pairs=[("theta", "xq"), ("xa", "xq")]
        )
        for key, analytic in (
            (("theta", "xq"), blocks["c_theta_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.0)

    def test_general_complex_model_blocks(self):
        model = _random_model(99, m=2, n_a=2, n_q=3)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 200_000, seed=79,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), blocks["c_xa"]),
            (("xq", "xq"), blocks["c_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
            (("theta", "xq"), blocks["c_theta_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)

    def test_dither_only_noise_blocks(self):
        """Paths whose noise is all dither (0.6 on the analog path, 0.9 on the
        quantized one) are paths with that much noise: their moments match
        the analytic blocks of those variances."""
        model = _random_model(101, m=2, n_a=2, n_q=3, var_a=0.6, var_q=0.9)
        blocks = dense_blocks(assemble(model))
        moments = empirical_second_moments(
            model, 200_000, seed=80,
            pairs=[("xa", "xa"), ("xq", "xq"), ("xa", "xq"), ("theta", "xq")],
        )
        for key, analytic in (
            (("xa", "xa"), blocks["c_xa"]),
            (("xq", "xq"), blocks["c_xq"]),
            (("xa", "xq"), blocks["c_xa_xq"]),
            (("theta", "xq"), blocks["c_theta_xq"]),
        ):
            mean, se_r, se_i = moments[key]
            assert_within_se(mean, analytic, se_r, se_i, n_se=4.5)
