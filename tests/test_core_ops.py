"""Unit tests for IPF, MHP and the composite nonlinear operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    build_segment_table,
    cpwl_batchnorm,
    cpwl_gelu,
    cpwl_layernorm,
    cpwl_relu,
    cpwl_sigmoid,
    cpwl_softmax,
    cpwl_tanh,
    fetch_parameters,
    segment_indices,
)
from repro.core.granularity import (
    PAPER_GRANULARITIES,
    recommend_granularity,
    sweep_granularity,
)
from repro.core.nonlinear_ops import (
    APPROXIMATORS,
    cpwl_rsqrt_range_reduced,
    get_approximator,
)
from repro.fixedpoint import INT16, dequantize, fixed_hadamard_mac, quantize

from tests.reference.rearrange import rearrange_for_mhp


class TestSegmentIndices:
    def test_shift_path_matches_float_path(self):
        """The power-of-two shift datapath must agree with float floor-div."""
        table = build_segment_table("gelu", 0.25)
        xs = np.linspace(-9, 9, 500)
        raw = quantize(xs, INT16)
        hw = segment_indices(raw, table, INT16)
        ref = table.segment_of(dequantize(raw, INT16))
        assert np.array_equal(hw, ref)

    def test_non_pow2_scale_path(self):
        table = build_segment_table("gelu", 0.1)
        xs = np.linspace(-7, 7, 300)
        raw = quantize(xs, INT16)
        hw = segment_indices(raw, table, INT16)
        ref = table.segment_of(dequantize(raw, INT16))
        assert np.array_equal(hw, ref)

    @given(
        arrays(
            np.float64,
            (4, 4),
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_indices_always_in_range(self, xs):
        table = build_segment_table("gelu", 0.5)
        seg = segment_indices(quantize(xs, INT16), table, INT16)
        assert seg.min() >= 0
        assert seg.max() < table.n_segments

    def test_edge_domain_shift_and_scale_paths_agree(self):
        """Regression: with a table domain beyond the representable
        range, the origin register saturates; both datapaths must index
        from that same saturated register (the shift path used to
        subtract an unsaturated ``np.round`` origin instead)."""
        from dataclasses import replace

        table = build_segment_table("relu", 0.5, domain=(-160.0, 160.0))
        assert table.shift_path
        # Same geometry forced through the scale-multiplier branch.
        scale_table = replace(table, shift_path=False)
        raw = quantize(np.linspace(-140.0, 140.0, 2001), INT16)
        shift_idx = segment_indices(raw, table, INT16)
        scale_idx = segment_indices(raw, scale_table, INT16)
        assert np.array_equal(shift_idx, scale_idx)
        # The saturated origin register puts the format's minimum value
        # in segment 0: the first *reachable* segment of the table.
        lowest = segment_indices(quantize(np.array([-128.0]), INT16), table, INT16)
        assert lowest[0] == 0

    def test_edge_domain_array_matches_approximator(self):
        """The full CPWL pipeline stays bit-identical to the addressing
        datapath on an edge domain."""
        approx = get_approximator("relu", 0.5, INT16, domain=(-160.0, 160.0))
        raw = quantize(np.linspace(-140.0, 140.0, 501), INT16)
        seg_hw = segment_indices(raw, approx.table, INT16)
        k_raw, b_raw = approx.qtable.lookup_raw(seg_hw)
        from repro.fixedpoint import fixed_hadamard_mac

        expected = fixed_hadamard_mac(raw, k_raw, b_raw, INT16)
        assert np.array_equal(approx.evaluate_raw(raw), expected)


class TestIPF:
    def test_fetch_shapes_and_metadata(self):
        qtable = build_segment_table("gelu", 0.25).quantized(INT16)
        x = quantize(np.random.default_rng(0).normal(size=(6, 5)), INT16)
        result = fetch_parameters(x, qtable, INT16)
        assert result.k_raw.shape == (6, 5)
        assert result.b_raw.shape == (6, 5)
        assert result.elements == 30
        assert result.shift_path

    @pytest.mark.parametrize("granularity", [0.25, 0.1])
    def test_fetch_addresses_through_the_tables_own_registers(self, granularity):
        """The origin and shift registers are constants of (table, fmt):
        the quantized table holds them, and IPF through them indexes
        exactly like ``segment_indices``, from integer or float64 codes."""
        table = build_segment_table("gelu", granularity)
        qtable = table.quantized(INT16)
        origin, shift = qtable.registers
        assert origin == int(quantize(table.x_min, INT16))
        assert shift == (6 if table.shift_path else None)  # 8 frac bits, g = 2**-2
        assert qtable.registers is qtable.registers
        raw = quantize(np.linspace(-9, 9, 257), INT16)
        expected = segment_indices(raw, table, INT16)
        assert np.array_equal(fetch_parameters(raw, qtable, INT16).segments, expected)
        as_codes = raw.astype(np.float64)
        assert np.array_equal(fetch_parameters(as_codes, qtable, INT16).segments, expected)

    def test_fetched_parameters_reconstruct_function(self):
        qtable = build_segment_table("gelu", 0.25).quantized(INT16)
        xs = np.linspace(-3, 3, 64).reshape(8, 8)
        x_raw = quantize(xs, INT16)
        result = fetch_parameters(x_raw, qtable, INT16)
        y = fixed_hadamard_mac(x_raw, result.k_raw, result.b_raw, INT16)
        from repro.core.functions import gelu

        assert np.allclose(dequantize(y, INT16), gelu(xs), atol=0.05)


class TestMHP:
    def test_rearranged_streams_preserve_values(self):
        x = np.arange(6.0).reshape(2, 3)
        k = x * 2
        b = x + 1
        streams = rearrange_for_mhp(x, k, b, pe_rows=2, one_raw=1)
        inp, wgt = streams.input_stream, streams.weight_stream
        assert inp.shape == (2, 6)
        # Two-term dot products of adjacent pairs reproduce the MHP.
        pairs_in = inp.reshape(2, 3, 2)
        pairs_w = wgt.reshape(2, 3, 2)
        y = (pairs_in * pairs_w).sum(axis=-1)
        assert np.allclose(y, x * k + b)


class TestCompositeOps:
    def test_gelu_close_to_exact(self):
        xs = np.random.default_rng(0).normal(size=(16, 16))
        from repro.core.functions import gelu

        assert np.allclose(cpwl_gelu(xs, 0.25), gelu(xs), atol=0.05)

    def test_relu_error_bounded_by_quarter_granularity(self):
        xs = np.random.default_rng(1).normal(size=(10, 10))
        for g in PAPER_GRANULARITIES:
            out = cpwl_relu(xs, g)
            assert np.max(np.abs(out - np.maximum(xs, 0))) <= g / 4 + 2 * INT16.scale

    def test_sigmoid_tanh_bounded_outputs(self):
        xs = np.random.default_rng(2).normal(scale=3, size=(8, 8))
        assert np.all(np.abs(cpwl_tanh(xs, 0.25)) <= 1.01)
        sig = cpwl_sigmoid(xs, 0.25)
        assert np.all(sig >= -0.01) and np.all(sig <= 1.01)

    def test_softmax_rows_near_one(self):
        xs = np.random.default_rng(3).normal(size=(12, 10))
        out = cpwl_softmax(xs, 0.25)
        # The reciprocal chord overshoots slightly, so rows land near
        # (not exactly at) one — the approximation error the paper's
        # granularity study quantifies end to end.
        assert np.allclose(out.sum(axis=-1), 1.0, atol=0.08)
        assert np.all(out >= 0)

    @pytest.mark.parametrize("width", [22, 32, 64, 128])
    def test_uniform_wide_row_sums_to_one(self, width):
        # 1/sum is read on [1, 2) after a power-of-two shift, so a wide
        # row's sum never leaves the reciprocal table's sloped segments.
        total = cpwl_softmax(np.zeros((1, width)), 0.25).sum()
        assert abs(total - 1.0) <= 0.25

    def test_softmax_matches_exact_at_fine_granularity(self):
        xs = np.random.default_rng(4).normal(size=(6, 8))
        exact = np.exp(xs - xs.max(-1, keepdims=True))
        exact /= exact.sum(-1, keepdims=True)
        assert np.allclose(cpwl_softmax(xs, 0.1), exact, atol=0.03)

    def test_softmax_argmax_preserved(self):
        xs = np.random.default_rng(5).normal(size=(20, 10))
        out = cpwl_softmax(xs, 0.25)
        assert np.array_equal(out.argmax(-1), xs.argmax(-1))

    def test_layernorm_normalizes(self):
        xs = np.random.default_rng(6).normal(loc=2.0, scale=3.0, size=(8, 32))
        out = cpwl_layernorm(xs, 0.25)
        assert np.all(np.abs(out.mean(axis=-1)) < 0.25)
        assert np.all(np.abs(out.std(axis=-1) - 1.0) < 0.3)

    def test_layernorm_affine_params(self):
        xs = np.random.default_rng(7).normal(size=(4, 16))
        gamma = 2.0 * np.ones(16)
        beta = np.ones(16)
        out = cpwl_layernorm(xs, 0.1, gamma=gamma, beta=beta)
        plain = cpwl_layernorm(xs, 0.1)
        assert np.allclose(out, plain * 2 + 1, atol=0.05)

    def test_batchnorm_is_exact_affine(self):
        xs = np.random.default_rng(8).normal(size=(2, 3, 4, 4))
        scale = np.array([1.0, 2.0, 0.5])
        shift = np.array([0.0, -1.0, 1.0])
        out = cpwl_batchnorm(xs, scale, shift)
        ref = xs * scale[None, :, None, None] + shift[None, :, None, None]
        assert np.allclose(out, ref, atol=2 * INT16.scale)

    def test_rsqrt_range_reduced_accuracy(self):
        xs = np.logspace(-3, 3, 200)
        # Float mode isolates the chord error: the range reduction keeps
        # it below 1% relative at the default granularity.
        out_float = cpwl_rsqrt_range_reduced(xs, 0.25, fmt=None)
        rel = np.abs(out_float - 1 / np.sqrt(xs)) * np.sqrt(xs)
        assert rel.max() < 0.01
        # INT16 adds the output-quantization floor (LSB relative to tiny
        # rsqrt values of large inputs), still bounded.
        out_q = cpwl_rsqrt_range_reduced(xs, 0.25)
        rel_q = np.abs(out_q - 1 / np.sqrt(xs)) * np.sqrt(xs)
        assert rel_q.max() < 0.07

    def test_rsqrt_range_reduced_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cpwl_rsqrt_range_reduced(np.array([0.0]), 0.25)

    def test_float_mode_no_quantization(self):
        xs = np.random.default_rng(9).normal(size=(4, 4))
        out = cpwl_gelu(xs, 0.25, fmt=None)
        table = build_segment_table("gelu", 0.25)
        assert np.allclose(out, table.evaluate(xs))

    @given(
        arrays(
            np.float64,
            (3, 6),
            elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_softmax_always_a_distribution(self, xs):
        out = cpwl_softmax(xs, 0.5)
        assert np.all(out >= 0)
        assert np.all(out.sum(axis=-1) < 1.3)
        assert np.all(out.sum(axis=-1) > 0.7)


class TestGranularity:
    def test_sweep_returns_all_candidates(self):
        choices = sweep_granularity("gelu", (0.25, 1.0))
        assert len(choices) == 2
        assert choices[0].n_segments > choices[1].n_segments

    def test_recommend_prefers_coarsest_feasible(self):
        choice = recommend_granularity("gelu", max_error=0.1)
        assert choice.granularity == 1.0

    def test_recommend_tight_error_picks_finer(self):
        loose = recommend_granularity("gelu", max_error=0.1)
        tight = recommend_granularity("gelu", max_error=0.02)
        assert tight.granularity < loose.granularity

    def test_recommend_raises_when_infeasible(self):
        with pytest.raises(ValueError):
            recommend_granularity("gelu", max_error=1e-9)

    def test_l3_budget_excludes_large_tables(self):
        choices = sweep_granularity("gelu", (0.1,), l3_budget_bytes=100)
        assert not choices[0].fits_l3

    def test_approximator_cache_reuse(self):
        get_approximator.cache_clear()
        a1 = get_approximator("gelu", 0.25)
        a2 = get_approximator("gelu", 0.25)
        assert a1 is a2
        # Keys are normalised: an int granularity and keyword arguments
        # find the same entry.
        assert get_approximator("gelu", 1) is get_approximator("gelu", 1.0, fmt=INT16)
        get_approximator.cache_clear()
        assert get_approximator("gelu", 0.25) is not a1


class TestApproximatorLRU:
    """The approximator memo is bounded: serving traffic must not leak."""

    def teardown_method(self):
        get_approximator.cache_clear()

    def test_capacity_bounds_occupancy(self):
        get_approximator.cache_clear()
        for i in range(APPROXIMATORS + 8):
            get_approximator("relu", 0.25 + i / 1024)
        info = get_approximator.cache_info()
        assert info.maxsize == APPROXIMATORS
        assert info.currsize == APPROXIMATORS

    def test_least_recently_used_is_evicted(self):
        get_approximator.cache_clear()
        a = get_approximator("gelu", 0.25)
        b = get_approximator("tanh", 0.25)
        assert get_approximator("gelu", 0.25) is a  # refresh gelu
        for i in range(APPROXIMATORS - 1):  # evicts tanh (LRU), keeps gelu
            get_approximator("relu", 0.25 + i / 1024)
        assert get_approximator("gelu", 0.25) is a
        assert get_approximator("tanh", 0.25) is not b
