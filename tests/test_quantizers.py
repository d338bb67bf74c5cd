"""Tests for the 1-bit and uniform b-bit quantizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mixedres.exceptions import ModelError, QuantizerDomainError
from mixedres.model import INV_SQRT2, MAX_QUANTIZER_BITS, QuantizerSpec, quantize_1bit, quantize_bbit
from oracles import reference_quantize_1bit

ONE_BIT_OUTPUTS = {
    complex(INV_SQRT2, INV_SQRT2),
    complex(INV_SQRT2, -INV_SQRT2),
    complex(-INV_SQRT2, INV_SQRT2),
    complex(-INV_SQRT2, -INV_SQRT2),
}

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e200)

# Float32-exact components, so every dtype below holds them unchanged; both
# signed zeros are drawn often.
component = st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def quantizer_inputs(draw):
    """Python scalars and real or complex arrays of any rank, some non-contiguous."""
    if draw(st.booleans()):
        return draw(st.builds(complex, component, component) | component)
    dtype = draw(st.sampled_from([np.complex128, np.complex64, np.float64]))
    elements = st.builds(complex, component, component) if np.dtype(dtype).kind == "c" else component
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
    z = draw(hnp.arrays(dtype, shape, elements=elements))
    view = draw(st.sampled_from(["as-is", "transposed", "strided"]))
    if view == "transposed":
        return z.T
    if view == "strided" and z.ndim:
        return z[..., ::2]
    return z


class TestOneBit:
    def test_sign_branches(self):
        assert quantize_1bit(1.2 - 0.3j) == complex(INV_SQRT2, -INV_SQRT2)
        assert quantize_1bit(-0.5 + 2j) == complex(-INV_SQRT2, INV_SQRT2)

    def test_zero_maps_to_plus_branch(self):
        """Both components of zero hit the >= 0 branch."""
        assert quantize_1bit(0 + 0j) == complex(INV_SQRT2, INV_SQRT2)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        np.testing.assert_allclose(np.abs(quantize_1bit(z)), 1.0, rtol=0, atol=1e-15)

    def test_nonfinite_rejected(self):
        for bad in (np.nan + 0j, np.inf + 0j, 1 - 1j * np.inf):
            with pytest.raises(QuantizerDomainError):
                quantize_1bit(bad)
        with pytest.raises(QuantizerDomainError):
            quantize_1bit(np.array([0j, np.nan + 0j]))

    @given(quantizer_inputs())
    @settings(max_examples=300)
    def test_matches_reference_bit_for_bit(self, z):
        got, want = quantize_1bit(z), reference_quantize_1bit(z)
        assert type(got) is type(want)
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_signed_zeros_map_to_plus(self):
        z = np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)])
        np.testing.assert_array_equal(quantize_1bit(z), complex(INV_SQRT2, INV_SQRT2))
        assert np.signbit(quantize_1bit(z).view(np.float64)).sum() == 0

    def test_does_not_modify_input(self):
        z = np.array([-0.0 - 2j, 3.0 + 0j])
        quantize_1bit(z)
        assert z.tobytes() == np.array([-0.0 - 2j, 3.0 + 0j]).tobytes()

    @given(finite_complex)
    @settings(max_examples=200)
    def test_output_set_and_idempotence(self, z):
        q = quantize_1bit(z)
        assert q in ONE_BIT_OUTPUTS
        assert quantize_1bit(q) == q


class TestBBit:
    SPEC_B6 = QuantizerSpec(bits=6, lo=-5.0, hi=5.0)

    def test_spec_validation(self):
        with pytest.raises(ModelError):
            QuantizerSpec(bits=0, lo=-1.0, hi=1.0)
        with pytest.raises(ModelError):
            QuantizerSpec(bits=4, lo=1.0, hi=1.0)

    @pytest.mark.parametrize(
        "bits, lo, hi",
        [
            (6, -float("inf"), float("inf")),
            (6, float("nan"), 1.0),
            (6, -1.0, float("inf")),
            (MAX_QUANTIZER_BITS + 1, -1.0, 1.0),
            (2000, -1.0, 1.0),
            (6, -1e308, 1e308),  # hi - lo overflows
        ],
    )
    def test_spec_rejects_unusable_ranges(self, bits, lo, hi):
        with pytest.raises(ModelError):
            QuantizerSpec(bits=bits, lo=lo, hi=hi)

    def test_widest_spec_quantizes(self):
        spec = QuantizerSpec(bits=MAX_QUANTIZER_BITS, lo=-1.0, hi=1.0)
        assert abs(quantize_bbit(0.3 - 0.7j, spec) - (0.3 - 0.7j)) <= spec.step

    def test_zero_snaps_to_nearest_midrise_level(self):
        """No level sits at zero on a 64-level midrise grid; ties go up."""
        out = quantize_bbit(0 + 0j, self.SPEC_B6)
        half_step = self.SPEC_B6.step / 2
        assert out.real == pytest.approx(half_step, abs=0)
        assert out.imag == out.real

    def test_saturation(self):
        out = quantize_bbit(7 - 9j, self.SPEC_B6)
        edge = 5.0 - self.SPEC_B6.step / 2
        assert out == complex(edge, -edge)

    def test_in_range_error_bound(self):
        z = 0.3 + 0.3j
        out = quantize_bbit(z, self.SPEC_B6)
        bound = self.SPEC_B6.step / 2  # = 10/64/2
        assert abs(out.real - z.real) <= bound
        assert abs(out.imag - z.imag) <= bound

    def test_error_bound_random(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-5, 5, 500) + 1j * rng.uniform(-5, 5, 500)
        out = quantize_bbit(z, self.SPEC_B6)
        assert np.max(np.abs(out.real - z.real)) <= self.SPEC_B6.step / 2
        assert np.max(np.abs(out.imag - z.imag)) <= self.SPEC_B6.step / 2

    def test_nonfinite_rejected(self):
        with pytest.raises(QuantizerDomainError):
            quantize_bbit(np.inf + 0j, self.SPEC_B6)

    @given(finite_complex)
    @settings(max_examples=200)
    def test_one_bit_reduction(self, z):
        """bits=1 with levels rescaled to +-1/sqrt(2) equals the sign quantizer.

        The [-1, 1] single-bit grid has levels exactly +-0.5, and
        0.5*sqrt(2) == sqrt(0.5) bit for bit, so the comparison is exact.
        """
        spec = QuantizerSpec(bits=1, lo=-1.0, hi=1.0)
        rescaled = quantize_bbit(z, spec) * np.sqrt(2.0)
        assert rescaled == quantize_1bit(z)
