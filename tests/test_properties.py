"""Cross-cutting property-based tests (hypothesis).

Invariants that must hold across the whole stack, independent of the
specific calibration: quantization ordering, CPWL bracketing, tiling
equivalence, lane partitioning, timing monotonicity, Pareto soundness —
and the causality/prefix-reuse invariants the KV cache rides on.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cpwl import CPWLApproximator
from repro.core.segment_table import build_segment_table
from repro.fixedpoint import INT16, dequantize, fixed_matmul, quantize
from repro.hardware.pareto import pareto_front
from repro.hardware.power import power_watts
from repro.hardware.resources import total_resources
from repro.nn.executor import CPWLBackend, KVState
from repro.nn.models import TinyBERT
from repro.nn.workload import (
    GemmOp,
    transformer_prefix_savings,
    transformer_prefix_workload,
    transformer_serving_workload,
)
from repro.systolic.config import SystolicConfig
from repro.systolic.mhp_dataflow import plan_mhp
from repro.systolic.timing import gemm_cycles, nonlinear_cycles

from tests.reference.dataflow import execute_gemm_per_tile, lane_rows

floats_small = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestQuantizationProperties:
    @given(st.lists(floats_small, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_quantization_preserves_order(self, values):
        """Quantization is monotone: sorted inputs stay sorted."""
        arr = np.sort(np.array(values))
        raw = quantize(arr, INT16)
        assert np.all(np.diff(raw.astype(np.int64)) >= 0)

    @given(st.lists(floats_small, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_quantize_idempotent(self, values):
        """Quantizing an already-quantized value is the identity."""
        arr = np.array(values)
        once = dequantize(quantize(arr, INT16), INT16)
        twice = dequantize(quantize(once, INT16), INT16)
        assert np.array_equal(once, twice)


class TestCPWLProperties:
    @given(
        st.sampled_from(["gelu", "tanh", "sigmoid"]),
        st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_chord_bracketing(self, name, granularity):
        """Inside each segment the chord stays between the function's
        segment-endpoint values (chords of monotone pieces do)."""
        table = build_segment_table(name, granularity)
        xs = np.linspace(table.x_min, table.x_max - 1e-9, 400)
        seg = table.segment_of(xs)
        starts = table.x_min + seg * granularity
        ends = starts + granularity
        from repro.core.functions import get_function

        fn = get_function(name)
        lo = np.minimum(fn(starts), fn(ends))
        hi = np.maximum(fn(starts), fn(ends))
        approx = table.evaluate(xs)
        assert np.all(approx >= lo - 1e-9)
        assert np.all(approx <= hi + 1e-9)

    @given(st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=20, deadline=None)
    def test_any_positive_granularity_builds(self, granularity):
        approx = CPWLApproximator("gelu", granularity, fmt=None)
        assert approx.table.n_segments >= 1
        # Midpoint evaluation stays finite and near the function.
        x = np.array([0.5])
        assert np.isfinite(approx(x)).all()


class TestDataflowProperties:
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_tiled_gemm_equals_whole(self, m, k, n):
        """Tile-by-tile execution equals one whole-matrix GEMM."""
        rng = np.random.default_rng(m * 400 + k * 20 + n)
        a = quantize(rng.normal(size=(m, k)), INT16)
        b = quantize(rng.normal(size=(k, n)), INT16)
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        out, _ = execute_gemm_per_tile(config, a, b)
        assert np.array_equal(out, fixed_matmul(a, b, INT16))

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_mhp_lanes_partition_rows(self, rows, pe_dim):
        """Every row is assigned to exactly one diagonal lane."""
        config = SystolicConfig(pe_rows=pe_dim, pe_cols=pe_dim)
        schedule = plan_mhp(config, rows, 4)
        seen = np.concatenate([r for r in lane_rows(schedule) if r.size])
        assert sorted(seen.tolist()) == list(range(rows))


class TestTimingProperties:
    @given(
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=40, deadline=None)
    def test_gemm_cycles_monotone_in_problem(self, m, n):
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
        small = gemm_cycles(config, m, 32, n).total
        large = gemm_cycles(config, m + 4, 32, n + 4).total
        assert large >= small

    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=30, deadline=None)
    def test_nonlinear_cycles_monotone(self, m):
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
        assert (
            nonlinear_cycles(config, m + 8, 16).total
            >= nonlinear_cycles(config, m, 16).total
        )

    @given(st.sampled_from([2, 4, 8, 16]), st.sampled_from([2, 4, 8, 16, 32]))
    @settings(max_examples=20, deadline=None)
    def test_power_positive_and_bounded(self, pe_dim, macs):
        config = SystolicConfig(pe_rows=pe_dim, pe_cols=pe_dim, macs_per_pe=macs)
        p = power_watts(config)
        assert 0.5 < p < 100

    @given(st.sampled_from([2, 4, 8, 16]))
    @settings(max_examples=10, deadline=None)
    def test_resources_nonnegative(self, pe_dim):
        res = total_resources(SystolicConfig(pe_rows=pe_dim, pe_cols=pe_dim))
        assert min(res.bram, res.lut, res.ff, res.dsp) >= 0


class TestCausalPrefixProperties:
    """The invariants KV-prefix reuse is built on.

    The serving-level claims (bit-identity through the engine, exact
    traced-cycle accounting on the array) live in
    ``tests/test_prefix_cache.py``; here are the underlying model-level
    properties, on the cheap untraced CPWL backend.
    """

    @staticmethod
    def _model(seq_len, dim, heads, ff_dim, n_layers, seed):
        return TinyBERT(
            vocab=16, seq_len=seq_len, dim=dim, heads=heads, ff_dim=ff_dim,
            n_layers=n_layers, causal=True, seed=seed,
        )

    @given(
        seq_len=st.sampled_from([6, 8, 12]),
        dims=st.sampled_from([(8, 2), (16, 4)]),
        n_layers=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_causal_prefix_activations_independent_of_suffix(
        self, seq_len, dims, n_layers, seed
    ):
        """Per-layer K/V and final hidden rows of a prompt are identical
        no matter what tokens follow it — the soundness condition for
        caching them at all."""
        dim, heads = dims
        rng = np.random.default_rng(seed)
        prefix_len = max(1, seq_len // 2)
        model = self._model(seq_len, dim, heads, 2 * dim, n_layers, seed % 11)
        backend = CPWLBackend(0.25)
        prefix = rng.integers(0, 16, size=prefix_len)

        payloads = []
        for _ in range(2):
            suffix = rng.integers(0, 16, size=(2, seq_len - prefix_len))
            tokens = np.concatenate(
                [np.broadcast_to(prefix, (2, prefix_len)), suffix], axis=1
            )
            kv = KVState(n_layers)
            model.infer(tokens, backend, kv=kv)
            payloads.append(kv.prefix(prefix_len))
        first, second = payloads
        for i in range(n_layers):
            assert np.array_equal(first.k[i], second.k[i])
            assert np.array_equal(first.v[i], second.v[i])
        assert np.array_equal(first.final_hidden, second.final_hidden)

    @given(
        seq_len=st.sampled_from([6, 8, 10]),
        dims=st.sampled_from([(8, 2), (16, 4)]),
        batch=st.integers(min_value=1, max_value=3),
        prefix_len=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_suffix_inference_bit_identical_to_cold(
        self, seq_len, dims, batch, prefix_len, seed
    ):
        """Reusing a captured prefix reproduces cold outputs exactly."""
        assume(prefix_len < seq_len)
        dim, heads = dims
        rng = np.random.default_rng(seed)
        model = self._model(seq_len, dim, heads, 2 * dim, 1, seed % 7)
        backend = CPWLBackend(0.25)
        prefix = rng.integers(0, 16, size=prefix_len)
        tokens = np.concatenate(
            [
                np.broadcast_to(prefix, (batch, prefix_len)),
                rng.integers(0, 16, size=(batch, seq_len - prefix_len)),
            ],
            axis=1,
        )
        kv = KVState(model.n_layers)
        cold = model.infer(tokens, backend, kv=kv)
        warm = model.infer(tokens, backend, kv=kv.prefix(prefix_len))
        assert np.array_equal(cold, warm)

    @given(
        batch=st.integers(min_value=1, max_value=8),
        seq_len=st.integers(min_value=2, max_value=64),
        dims=st.sampled_from([(8, 2), (32, 4), (64, 8)]),
        n_layers=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_savings_positive_and_monotone(
        self, batch, seq_len, dims, n_layers
    ):
        """The closed-form savings are positive and grow with the
        prefix: caching more of the prompt never costs cycles."""
        dim, heads = dims
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
        previous = 0
        for prefix_len in range(1, seq_len):
            saved = transformer_prefix_savings(
                batch, seq_len, prefix_len, dim, heads, 2 * dim, n_layers, config
            )
            assert saved > 0
            assert saved >= previous
            previous = saved

    def test_prefix_savings_validates_bounds(self):
        config = SystolicConfig(pe_rows=4, pe_cols=4)
        with pytest.raises(ValueError):
            transformer_prefix_savings(1, 8, 0, 8, 2, 16, 1, config)
        with pytest.raises(ValueError):
            transformer_prefix_savings(1, 8, 8, 8, 2, 16, 1, config)

    @given(
        batch=st.integers(min_value=1, max_value=6),
        seq_len=st.integers(min_value=2, max_value=32),
        prefix_len=st.integers(min_value=1, max_value=31),
        dims=st.sampled_from([(8, 2), (32, 4)]),
        n_layers=st.integers(min_value=1, max_value=3),
        config=st.sampled_from(
            [
                SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8),
                SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16),
            ]
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_workload_inventory_matches_savings(
        self, batch, seq_len, prefix_len, dims, n_layers, config
    ):
        """The suffix (hit-path) op inventory and the savings closed
        form describe the same execution: over the traced op subset
        (GEMMs + the GELU MHP), full inventory minus suffix inventory
        equals ``transformer_prefix_savings`` — which the cache tests
        pin to the live trace, so the inventory cannot drift from the
        real suffix path."""
        assume(prefix_len < seq_len)
        dim, heads = dims
        ff_dim = 2 * dim
        full = transformer_serving_workload(
            batch, seq_len, dim, heads, ff_dim, n_layers
        )
        suffix = transformer_prefix_workload(
            batch, seq_len, prefix_len, dim, heads, ff_dim, n_layers
        )

        def traced_cycles(workload):
            total = 0
            for op in workload.ops:
                if isinstance(op, GemmOp):
                    total += gemm_cycles(config, op.m, op.k, op.n).total * op.count
                elif op.kind == "gelu":
                    total += (
                        nonlinear_cycles(config, op.m, op.n).total
                        * op.mhp_passes
                        * op.count
                    )
            return total

        assert traced_cycles(full) - traced_cycles(suffix) == (
            transformer_prefix_savings(
                batch, seq_len, prefix_len, dim, heads, ff_dim, n_layers, config
            )
        )


class TestParetoProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_is_mutually_nondominating(self, points):
        objs = (lambda p: p[0], lambda p: p[1])
        front = pareto_front(points, objs)
        assert front  # at least one survivor
        for a in front:
            for b in front:
                if a is b:
                    continue
                strictly_dominates = (
                    b[0] <= a[0] and b[1] <= a[1] and (b[0] < a[0] or b[1] < a[1])
                )
                assert not strictly_dominates

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=10, allow_nan=False),
                st.floats(min_value=0, max_value=10, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_point_dominated_by_some_front_point(self, points):
        objs = (lambda p: p[0], lambda p: p[1])
        front = pareto_front(points, objs)
        for p in points:
            assert any(f[0] <= p[0] and f[1] <= p[1] for f in front)
