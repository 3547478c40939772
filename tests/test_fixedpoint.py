"""Unit tests for the fixed-point substrate."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fixedpoint import (
    INT16,
    QFormat,
    accumulator_to_output,
    dequantize,
    fixed_hadamard_mac,
    fixed_matmul,
    quantize,
    saturate,
)
from repro.fixedpoint.quantize import STRIP_ELEMENTS


def _near_half(k: int, ulps: int) -> float:
    """The value whose code lies ``ulps`` ulps from ``k + 0.5``."""
    code = k + 0.5
    step = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        code = float(np.nextafter(code, step))
    return code / 256


class TestQFormat:
    def test_default_is_int16_q8(self):
        assert INT16.total_bits == 16
        assert INT16.frac_bits == 8

    def test_range(self):
        fmt = QFormat(16, 8)
        assert fmt.raw_min == -32768
        assert fmt.raw_max == 32767

    def test_scale(self):
        assert QFormat(16, 8).scale == 1 / 256
        assert QFormat(16, 0).scale == 1.0

    def test_storage_dtype(self):
        assert QFormat(8, 4).storage_dtype() == np.int8
        assert QFormat(16, 8).storage_dtype() == np.int16
        assert QFormat(32, 16).storage_dtype() == np.int32
        assert QFormat(48, 16).storage_dtype() == np.int64

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            QFormat(1, 0)
        with pytest.raises(ValueError):
            QFormat(16, 16)
        with pytest.raises(ValueError):
            QFormat(16, -1)


class TestQuantize:
    def test_roundtrip_exact_for_representable(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, -127.0, 100.25])
        assert np.allclose(dequantize(quantize(values, INT16), INT16), values)

    def test_rounding_nearest(self):
        # 0.001953125 is half an LSB: rounds away from zero.
        raw = quantize(np.array([1 / 512]), INT16)
        assert raw[0] == 1

    def test_saturation(self):
        raw = quantize(np.array([1e6, -1e6]), INT16)
        assert raw[0] == INT16.raw_max
        assert raw[1] == INT16.raw_min

    def test_scalar_input(self):
        assert quantize(1.0, INT16) == 256

    @given(st.floats(min_value=-127, max_value=127, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_error_within_half_lsb(self, value):
        err = abs(float(dequantize(quantize(value, INT16), INT16)) - value)
        assert err <= INT16.scale / 2 + 1e-12

    @pytest.mark.parametrize("code", [0.49999999999999994, -0.49999999999999994])
    def test_just_below_half_rounds_toward_zero(self, code):
        # code + 0.5 rounds up to 1.0 in float64; half away from zero
        # still has to give 0.
        assert quantize(np.array([code / 256]), INT16)[0] == 0

    @given(
        st.integers(min_value=-(1 << 14), max_value=(1 << 14)),
        st.integers(min_value=-4, max_value=4),
    )
    @example(k=0, ulps=-1)
    @example(k=-1, ulps=1)
    @settings(max_examples=200, deadline=None)
    def test_near_half_matches_exact_half_away_from_zero(self, k, ulps):
        # Floats within a few ulps of k + 0.5 against exact rational
        # rounding: floor(|x| + 1/2) with the sign of x.
        code = _near_half(k, ulps) * 256
        exact = Fraction(code)
        expected = int(abs(exact) + Fraction(1, 2)) * (1 if exact >= 0 else -1)
        assert quantize(np.array([code / 256]), INT16)[0] == expected

    @given(
        st.lists(
            st.one_of(
                st.builds(
                    _near_half,
                    st.integers(min_value=-(1 << 15) - 4, max_value=1 << 15),
                    st.integers(min_value=-4, max_value=4),
                ),
                st.floats(min_value=128.0, max_value=1e300).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                st.sampled_from([np.inf, -np.inf, 0.0, -0.0]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=64,
        ),
        st.sampled_from(["short", "long", "rows", "strided", "transposed"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_float64_codes_equal_the_integer_codes(self, values, layout):
        # The hot paths quantize to float64 codes; they must be the
        # integer codes byte for byte, with no -0.0, on every layout the
        # strip path (arrays past STRIP_ELEMENTS) walks.
        x = np.asarray(values)
        if layout != "short":
            x = np.resize(x, 6 * (STRIP_ELEMENTS // 3 + 7))
        if layout in ("rows", "strided", "transposed"):
            x = x.reshape(-1, 6)
        if layout == "strided":
            x = x[:, ::2]
        elif layout == "transposed":
            x = x.T
        with np.errstate(over="ignore"):  # past 2**1016 a code is inf: saturated
            codes = quantize(x, INT16, dtype=np.float64)
            integers = quantize(x, INT16)
        assert codes.dtype == np.float64 and codes.shape == x.shape
        assert codes.tobytes() == integers.astype(np.float64).tobytes()
        assert not np.signbit(codes[codes == 0]).any()


class TestArithmetic:
    def test_saturate_clamps(self):
        out = saturate(np.array([40000, -40000, 5]), INT16)
        assert list(out) == [32767, -32768, 5]

    def test_mac_accumulates_wide(self):
        acc = np.zeros(1, dtype=np.int64)
        a = quantize(np.array([100.0]), INT16)
        b = quantize(np.array([100.0]), INT16)
        # One product is 10000 — far over INT16 range — but the wide
        # accumulator must carry it without saturation.
        acc += a.astype(np.int64) * b
        acc += quantize(np.array([-100.0]), INT16).astype(np.int64) * b
        out = accumulator_to_output(acc, INT16)
        assert dequantize(out, INT16)[0] == pytest.approx(0.0)

    def test_matmul_matches_float_for_small_values(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-2, 2, size=(5, 7))
        b = rng.uniform(-2, 2, size=(7, 3))
        out = dequantize(
            fixed_matmul(quantize(a, INT16), quantize(b, INT16), INT16), INT16
        )
        assert np.allclose(out, a @ b, atol=0.1)

    def test_matmul_shape_validation(self):
        with pytest.raises(ValueError):
            fixed_matmul(np.zeros((2, 3)), np.zeros((4, 2)), INT16)
        with pytest.raises(ValueError):
            fixed_matmul(np.zeros(3), np.zeros((3, 2)), INT16)

    def test_matmul_saturates_output_only(self):
        # Products that overflow INT16 but cancel must not clip early.
        a = quantize(np.array([[120.0, -120.0]]), INT16)
        b = quantize(np.array([[100.0], [100.0]]), INT16)
        out = dequantize(fixed_matmul(a, b, INT16), INT16)
        assert out[0, 0] == pytest.approx(0.0)

    def test_hadamard_mac_is_kx_plus_b(self):
        x = quantize(np.array([[2.0, -1.0]]), INT16)
        k = quantize(np.array([[0.5, 3.0]]), INT16)
        b = quantize(np.array([[1.0, -0.5]]), INT16)
        out = dequantize(fixed_hadamard_mac(x, k, b, INT16), INT16)
        assert np.allclose(out, [[2.0, -3.5]])

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_hadamard_against_float_reference(self, xs):
        x = np.array(xs)
        k = np.linspace(-1, 1, x.size)
        b = np.linspace(0.5, -0.5, x.size)
        out = dequantize(
            fixed_hadamard_mac(
                quantize(x, INT16), quantize(k, INT16), quantize(b, INT16), INT16
            ),
            INT16,
        )
        assert np.allclose(out, x * k + b, atol=0.1)


class TestBatchedFixedMatmul:
    """The N-D stacked GEMM must be bit-identical to the per-matrix loop."""

    def test_3d_stack_matches_loop(self):
        rng = np.random.default_rng(2)
        a = quantize(rng.normal(size=(6, 5, 4)), INT16)
        b = quantize(rng.normal(size=(6, 4, 3)), INT16)
        stacked = fixed_matmul(a, b, INT16)
        assert stacked.shape == (6, 5, 3)
        for i in range(6):
            assert np.array_equal(stacked[i], fixed_matmul(a[i], b[i], INT16))

    def test_broadcast_leading_axes(self):
        rng = np.random.default_rng(3)
        a = quantize(rng.normal(size=(2, 3, 4, 5)), INT16)
        b = quantize(rng.normal(size=(5, 6)), INT16)
        out = fixed_matmul(a, b, INT16)
        assert out.shape == (2, 3, 4, 6)
        assert np.array_equal(out[1, 2], fixed_matmul(a[1, 2], b, INT16))

    def test_saturating_stack_matches_loop(self):
        # Large cancelling products exercise the wide accumulator and
        # the saturating writeback on the stacked path too.
        rng = np.random.default_rng(4)
        a = quantize(rng.uniform(-120, 120, size=(8, 7, 9)), INT16)
        b = quantize(rng.uniform(-120, 120, size=(8, 9, 2)), INT16)
        stacked = fixed_matmul(a, b, INT16)
        loop = np.stack([fixed_matmul(x, y, INT16) for x, y in zip(a, b)])
        assert np.array_equal(stacked, loop)

    def test_wide_format_falls_back_exactly(self):
        # INT32 exceeds the float64-exact accumulator bound, so the
        # int64 path runs; results still match the 2-D calls.
        fmt = QFormat(32, 16)
        rng = np.random.default_rng(5)
        a = quantize(rng.normal(size=(3, 4, 4)), fmt)
        b = quantize(rng.normal(size=(3, 4, 4)), fmt)
        stacked = fixed_matmul(a, b, fmt)
        for i in range(3):
            assert np.array_equal(stacked[i], fixed_matmul(a[i], b[i], fmt))

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_stack_equals_loop_property(self, m, k, n, batch):
        rng = np.random.default_rng(m * 1000 + k * 100 + n * 10 + batch)
        a = quantize(rng.uniform(-50, 50, size=(batch, m, k)), INT16)
        b = quantize(rng.uniform(-50, 50, size=(batch, k, n)), INT16)
        stacked = fixed_matmul(a, b, INT16)
        loop = np.stack([fixed_matmul(x, y, INT16) for x, y in zip(a, b)])
        assert np.array_equal(stacked, loop)
