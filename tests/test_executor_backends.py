"""Backend tests: float / quantized / CPWL / array agreement contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.executor import (
    ArrayBackend,
    CPWLBackend,
    FloatBackend,
    QuantizedFloatBackend,
)
from repro.nn.models import SmallResNet
from repro.systolic import SystolicArray, SystolicConfig

RNG = np.random.default_rng(0)


class TestFloatBackend:
    def test_linear(self):
        b = FloatBackend()
        x = RNG.normal(size=(3, 4))
        w = RNG.normal(size=(2, 4))
        bias = RNG.normal(size=2)
        assert np.allclose(b.linear(x, w, bias), x @ w.T + bias)

    def test_softmax_rows(self):
        out = FloatBackend().softmax(RNG.normal(size=(5, 7)))
        assert np.allclose(out.sum(-1), 1.0)

    def test_layernorm_moments(self):
        out = FloatBackend().layernorm(
            RNG.normal(loc=3, size=(4, 16)), np.ones(16), np.zeros(16)
        )
        assert np.allclose(out.mean(-1), 0, atol=1e-9)

    def test_batchnorm_stats_folds(self):
        b = FloatBackend()
        x = RNG.normal(size=(2, 3, 4, 4))
        gamma, beta = np.ones(3), np.zeros(3)
        mean, var = np.zeros(3), np.ones(3)
        assert np.allclose(b.batchnorm_stats(x, gamma, beta, mean, var), x, atol=1e-5)


class TestQuantizedFloatBackend:
    def test_close_to_float(self):
        qb = QuantizedFloatBackend()
        fb = FloatBackend()
        x = RNG.normal(size=(4, 8))
        assert np.allclose(qb.gelu(x), fb.gelu(x), atol=0.01)
        assert np.allclose(qb.softmax(x), fb.softmax(x), atol=0.01)

    def test_quantization_grid(self):
        qb = QuantizedFloatBackend()
        out = qb.relu(RNG.normal(size=(5, 5)))
        assert np.allclose(out * 256, np.round(out * 256))


class TestCPWLBackend:
    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            CPWLBackend(0.0)

    def test_matmul_2d_close(self):
        cb = CPWLBackend(0.25)
        a = RNG.normal(size=(5, 6))
        b = RNG.normal(size=(6, 3))
        assert np.max(np.abs(cb.matmul(a, b) - a @ b)) < 0.1

    def test_matmul_batched_matches_loop(self):
        cb = CPWLBackend(0.25)
        a = RNG.normal(size=(2, 4, 5))
        b = RNG.normal(size=(2, 5, 3))
        out = cb.matmul(a, b)
        for i in range(2):
            assert np.allclose(out[i], cb.matmul(a[i], b[i]))

    def test_matmul_broadcast_leading(self):
        cb = CPWLBackend(0.25)
        a = RNG.normal(size=(2, 3, 4, 5))
        b = RNG.normal(size=(5, 6))
        out = cb.matmul(a, b)
        assert out.shape == (2, 3, 4, 6)
        assert np.allclose(out[0, 0], cb.matmul(a[0, 0], b))

    def test_linear_preserves_leading_shape(self):
        cb = CPWLBackend(0.25)
        x = RNG.normal(size=(2, 7, 6))
        w = RNG.normal(size=(4, 6))
        out = cb.linear(x, w, np.zeros(4))
        assert out.shape == (2, 7, 4)

    def test_nonlinears_close_at_fine_granularity(self):
        cb = CPWLBackend(0.1)
        fb = FloatBackend()
        x = RNG.normal(size=(6, 6))
        for op in ("gelu", "relu"):
            assert np.max(np.abs(getattr(cb, op)(x) - getattr(fb, op)(x))) < 0.05

    def test_error_grows_with_granularity(self):
        fb = FloatBackend()
        x = np.linspace(-4, 4, 500).reshape(10, 50)
        fine = np.abs(CPWLBackend(0.1).gelu(x) - fb.gelu(x)).max()
        coarse = np.abs(CPWLBackend(1.0).gelu(x) - fb.gelu(x)).max()
        assert coarse > fine

    def test_batchnorm_stats_granularity_dependence(self):
        x = RNG.normal(size=(2, 4, 3, 3))
        gamma, beta = np.ones(4), np.zeros(4)
        mean = np.zeros(4)
        var = np.array([0.3, 0.9, 2.7, 8.1])
        fine = CPWLBackend(0.1).batchnorm_stats(x, gamma, beta, mean, var)
        coarse = CPWLBackend(1.0).batchnorm_stats(x, gamma, beta, mean, var)
        exact = FloatBackend().batchnorm_stats(x, gamma, beta, mean, var)
        assert np.abs(fine - exact).max() < np.abs(coarse - exact).max() + 1e-6


class TestArrayBackend:
    def test_matches_cpwl_backend_bitwise(self):
        """The array-routed backend must agree with the fast CPWL path."""
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        ab = ArrayBackend(SystolicArray(config), 0.25)
        cb = CPWLBackend(0.25)
        a = RNG.normal(size=(6, 8))
        b = RNG.normal(size=(8, 4))
        assert np.array_equal(ab.matmul(a, b), cb.matmul(a, b))
        x = RNG.normal(size=(4, 6))
        assert np.array_equal(ab.gelu(x), cb.gelu(x))
        assert np.array_equal(ab.relu(x), cb.relu(x))

    def test_records_cycles(self):
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        array = SystolicArray(config)
        ab = ArrayBackend(array, 0.25)
        ab.matmul(RNG.normal(size=(4, 4)), RNG.normal(size=(4, 4)))
        ab.gelu(RNG.normal(size=(4, 4)))
        kinds = array.trace.cycles_by_kind()
        assert kinds.get("gemm", 0) > 0
        assert kinds.get("mhp", 0) > 0

    def test_full_model_on_array(self):
        """End-to-end: a small CNN inferring through the array model."""
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        array = SystolicArray(config)
        model = SmallResNet(in_channels=1, n_classes=3, seed=0)
        model.train()
        from repro.nn.autograd import Tensor

        model.forward(Tensor(RNG.normal(size=(4, 1, 8, 8))))
        model.eval()
        x = RNG.normal(size=(2, 1, 8, 8))
        on_array = model.infer(x, ArrayBackend(array, 0.25))
        fast = model.infer(x, CPWLBackend(0.25))
        assert np.allclose(on_array, fast)
        assert array.total_cycles > 0


def _per_row_causal_softmax(backend, scores, row_offset):
    """Reference: one ``backend.softmax`` per query row over its visible
    slice — the loop ``MultiHeadSelfAttention._attend`` used to run."""
    attn = np.zeros_like(scores)
    for row in range(scores.shape[-2]):
        limit = row_offset + row + 1
        attn[..., row, :limit] = backend.softmax(scores[..., row, :limit], axis=-1)
    return attn


class TestCausalSoftmax:
    @given(
        shape=st.sampled_from(
            # (row_offset, rows): prefill, warm suffix, decode step
            [(0, 1), (0, 5), (0, 8), (3, 2), (2, 6), (1, 1), (7, 1)]
        ),
        batch=st.integers(1, 3),
        heads=st.integers(1, 2),
        spread=st.sampled_from([0.05, 1.0, 4.0, 40.0, 400.0]),
        granularity=st.sampled_from([0.1, 0.25, 1.0]),
        on_array=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_bit_identical_to_per_row_loop(
        self, shape, batch, heads, spread, granularity, on_array, seed
    ):
        """Fixed-point backends: the masked pass equals the row loop bit
        for bit, from near-uniform rows through saturated scores."""
        row_offset, rows = shape
        rng = np.random.default_rng(seed)
        scores = rng.normal(0.0, spread, size=(batch, heads, rows, row_offset + rows))
        if on_array:
            config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
            backend = ArrayBackend(SystolicArray(config), granularity)
        else:
            backend = CPWLBackend(granularity)
        one_pass = backend.causal_softmax(scores, row_offset)
        assert np.array_equal(
            one_pass, _per_row_causal_softmax(backend, scores, row_offset)
        )
        hidden = np.arange(row_offset + rows) > row_offset + np.arange(rows)[:, None]
        assert not one_pass[..., hidden].any()

    @pytest.mark.parametrize("backend", [FloatBackend(), QuantizedFloatBackend()])
    def test_float_backends_keep_the_row_loop(self, backend):
        scores = RNG.normal(size=(2, 2, 4, 6))
        attn = backend.causal_softmax(scores, 2)
        assert np.array_equal(attn, _per_row_causal_softmax(backend, scores, 2))
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-2)
        assert not attn[..., 0, 3:].any()

    def test_causal_model_matches_a_row_looping_backend(self):
        """Prefill and decode step through ``causal_softmax`` equal the
        same model on a backend that still loops per query row."""
        from repro.nn.models import TinyBERT

        class LoopBackend(CPWLBackend):
            def causal_softmax(self, scores, row_offset):
                return _per_row_causal_softmax(self, scores, row_offset)

        model = TinyBERT(
            vocab=16, seq_len=12, dim=8, heads=2, ff_dim=16, n_layers=2,
            causal=True, seed=0,
        )
        tokens = RNG.integers(0, 16, size=(3, 6))
        outputs = []
        for backend in (CPWLBackend(0.25), LoopBackend(0.25)):
            logits, state = model.prefill(tokens, backend)
            step = model.decode_step(state, np.argmax(logits, axis=-1), backend)
            outputs.append((logits, step))
        assert np.array_equal(outputs[0][0], outputs[1][0])
        assert np.array_equal(outputs[0][1], outputs[1][1])
