"""Equivalence suite pinning the plan-cached whole-matrix refactor.

The traced execution path was rebuilt around cached plans, whole-operand
compute and analytic trace synthesis.  These tests pin the refactor to
the seed semantics: bit-identical raw outputs, identical schedules and
identical per-op cycle accounting versus the per-tile / per-lane /
per-pair references of ``tests/reference/``.
"""

import numpy as np
import pytest

from repro.core.ipf import fetch_parameters
from repro.core.nonlinear_ops import get_approximator, relu_domain
from repro.fixedpoint import INT16, fixed_hadamard_mac, quantize
from repro.nn.executor import ArrayBackend
from repro.systolic import SystolicArray, SystolicConfig
from repro.systolic.gemm import GEMM_PLANS, plan_gemm
from repro.systolic.mhp_dataflow import plan_mhp
from repro.systolic.trace import Trace, TraceEvent

from tests.reference.cycle_sim import CycleSimulator
from tests.reference.dataflow import (
    execute_gemm_per_tile,
    execute_mhp_per_lane,
    lane_rows,
    tiles,
)
from tests.reference.rearrange import rearrange_cycles, rearrange_for_mhp


def small_config(**kw):
    return SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, **kw)


def rect_config():
    return SystolicConfig(pe_rows=2, pe_cols=8, macs_per_pe=4, nonlinear_enabled=False)


class TestWholeMatrixGemmEquivalence:
    @pytest.mark.parametrize(
        "config, m, k, n",
        [
            (small_config(), 9, 13, 7),
            (small_config(), 4, 4, 4),
            (small_config(), 33, 17, 29),
            (rect_config(), 9, 13, 17),
            (rect_config(), 7, 4, 11),
        ],
        ids=["square", "single-tile", "ragged", "rect", "rect-ragged"],
    )
    def test_whole_matrix_matches_per_tile(self, config, m, k, n):
        rng = np.random.default_rng(m * 1000 + n)
        a = quantize(rng.normal(size=(m, k)), INT16)
        b = quantize(rng.normal(size=(k, n)), INT16)
        array = SystolicArray(config)
        out_whole = array.gemm_raw(a, b)
        out_tiled, sched_tiled = execute_gemm_per_tile(
            config, a, b, use_plan_cache=False
        )
        assert np.array_equal(out_whole, out_tiled)
        assert out_whole.dtype == out_tiled.dtype
        assert array.total_cycles == sched_tiled.breakdown.total

    def test_saturating_operands_still_identical(self):
        # Drive the accumulator into saturation territory: whole-matrix
        # and per-tile must saturate identically on writeback.
        rng = np.random.default_rng(5)
        a = quantize(rng.normal(scale=60.0, size=(12, 20)), INT16)
        b = quantize(rng.normal(scale=60.0, size=(20, 9)), INT16)
        out_whole = SystolicArray(small_config()).gemm_raw(a, b)
        out_tiled, _ = execute_gemm_per_tile(small_config(), a, b)
        assert np.array_equal(out_whole, out_tiled)


class TestGemmPlanCache:
    def setup_method(self):
        plan_gemm.cache_clear()

    def teardown_method(self):
        plan_gemm.cache_clear()

    def test_repeat_shapes_hit_cache(self):
        config = small_config()
        first = plan_gemm(config, 64, 32, 16)
        again = plan_gemm(config, 64, 32, 16)
        assert again is first  # steady-state planning is a dict hit
        info = plan_gemm.cache_info()
        assert info.hits == 1
        assert info.currsize == 1

    def test_distinct_configs_do_not_collide(self):
        sq = plan_gemm(small_config(), 8, 8, 8)
        rect = plan_gemm(rect_config(), 8, 8, 8)
        assert sq is not rect
        assert sq.breakdown != rect.breakdown or sq.config != rect.config

    def test_uncached_plan_builds_fresh(self):
        config = small_config()
        cached = plan_gemm(config, 16, 16, 16)
        fresh = plan_gemm(config, 16, 16, 16, use_cache=False)
        assert fresh is not cached
        assert fresh.breakdown == cached.breakdown

    def test_capacity_bounds_occupancy(self):
        config = small_config()
        first = plan_gemm(config, 1, 8, 8)
        for m in range(2, GEMM_PLANS + 11):
            plan_gemm(config, m, 8, 8)
        info = plan_gemm.cache_info()
        assert info.maxsize == info.currsize == GEMM_PLANS
        # Least-recently-used shapes were evicted, the newest retained.
        newest = plan_gemm(config, GEMM_PLANS + 10, 8, 8)
        assert plan_gemm(config, GEMM_PLANS + 10, 8, 8) is newest
        assert plan_gemm.cache_info().hits == 2
        assert plan_gemm(config, 1, 8, 8) is not first


class TestLazyTileEnumeration:
    def test_len_and_iter_agree(self):
        tiling = tiles(plan_gemm(small_config(), 10, 8, 6, use_cache=False))
        assert len(tiling) == 6
        assert [t.index for t in tiling] == list(range(6))

    def test_tiles_cover_output_exactly_once(self):
        schedule = plan_gemm(rect_config(), 7, 4, 11, use_cache=False)
        covered = np.zeros((7, 11), dtype=int)
        for t in tiles(schedule):
            covered[t.row_start : t.row_end, t.col_start : t.col_end] += 1
        assert np.all(covered == 1)

    def test_enumeration_is_allocation_free_metadata(self):
        # A huge schedule must be cheap to *hold*; only iteration pays.
        schedule = plan_gemm(small_config(), 4096, 4096, 4096, use_cache=False)
        assert len(tiles(schedule)) == 1024 * 1024


class TestMhpEquivalence:
    def test_whole_matrix_matches_per_lane(self):
        rng = np.random.default_rng(1)
        config = small_config()
        x = quantize(rng.normal(size=(10, 6)), INT16)
        k = quantize(rng.normal(size=(10, 6)), INT16)
        b = quantize(rng.normal(size=(10, 6)), INT16)
        # The array computes an MHP as one whole-operand MAC, charged
        # from the cached plan; the lane loop must agree with both.
        out_lane, sched_lane = execute_mhp_per_lane(config, x, k, b)
        assert np.array_equal(out_lane, fixed_hadamard_mac(x, k, b, INT16))
        assert sched_lane.breakdown == plan_mhp(config, 10, 6).breakdown

    def test_mhp_plan_cache_hit(self):
        config = small_config()
        plan_mhp.cache_clear()
        first = plan_mhp(config, 12, 12)
        assert plan_mhp(config, 12, 12) is first
        assert plan_mhp(config, 12, 12, fused_ipf=True) is first
        info = plan_mhp.cache_info()
        assert info.hits == 2 and info.currsize == 1

    def test_lazy_lane_rows_cover_rows(self):
        schedule = plan_mhp(small_config(), 10, 5, use_cache=False)
        all_rows = np.sort(np.concatenate(lane_rows(schedule)))
        assert np.array_equal(all_rows, np.arange(10))


def _expanded(tape):
    """A GEMM tape as one event per recorded occurrence."""
    return [event for event, count in tape for _ in range(count)]


class TestBatchedArrayBackendEquivalence:
    def _backends(self):
        config = small_config()
        return (
            ArrayBackend(SystolicArray(config), 0.25),
            ArrayBackend(SystolicArray(config), 0.25),
        )

    def test_stacked_matmul_matches_per_pair_loop(self):
        rng = np.random.default_rng(2)
        batched, looped = self._backends()
        a = rng.normal(size=(6, 5, 7))
        b = rng.normal(size=(6, 7, 4))

        with batched.array.capture() as tape_batched:
            out_batched = batched.matmul(a, b)
        with looped.array.capture() as tape_looped:
            out_looped = np.stack(
                [looped.matmul(a[i], b[i]) for i in range(a.shape[0])]
            )
        assert np.array_equal(out_batched, out_looped)

        # Trace content must be identical: same event count, same
        # per-kind cycle totals, same per-event cycles/ops.
        t_batched, t_looped = batched.array.trace, looped.array.trace
        assert len(t_batched) == len(t_looped) == 6
        assert t_batched.total_cycles == t_looped.total_cycles
        assert t_batched.cycles_by_kind() == t_looped.cycles_by_kind()
        assert t_batched.ops_by_kind() == t_looped.ops_by_kind()
        events_batched = _expanded(tape_batched)
        events_looped = _expanded(tape_looped)
        assert len(events_batched) == len(events_looped) == 6
        for eb, el in zip(events_batched, events_looped):
            assert (eb.kind, eb.cycles, eb.ops) == (el.kind, el.cycles, el.ops)
            assert eb.breakdown == el.breakdown

    def test_broadcast_leading_axes(self):
        rng = np.random.default_rng(3)
        batched, looped = self._backends()
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(5, 6))
        out = batched.matmul(a, b)
        assert out.shape == (2, 3, 4, 6)
        assert np.array_equal(out[1, 2], looped.matmul(a[1, 2], b))
        assert len(batched.array.trace) == 6

    def test_batched_result_breakdown_scales(self):
        config = small_config()
        array = SystolicArray(config)
        rng = np.random.default_rng(4)
        a = quantize(rng.normal(size=(3, 4, 4)), INT16)
        b = quantize(rng.normal(size=(3, 4, 4)), INT16)
        array.gemm_raw_batched(a, b)
        batched = array.total_cycles
        array.gemm_raw(a[0], b[0])
        assert batched == 3 * (array.total_cycles - batched)

    def test_batched_rejects_bad_shapes(self):
        array = SystolicArray(small_config())
        with pytest.raises(ValueError):
            array.gemm_raw_batched(np.zeros((2, 3, 4)), np.zeros((3, 4, 2)))
        with pytest.raises(ValueError):
            array.gemm_raw_batched(np.zeros((2, 3, 4)), np.zeros((2, 5, 2)))
        with pytest.raises(ValueError):
            array.gemm_raw_batched(np.zeros((3, 4)), np.zeros((4, 2)))


class TestChargeApi:
    """``charge_gemm`` / ``charge_nonlinear`` record what the computing
    ops record, from shapes alone."""

    @pytest.fixture
    def no_compute(self, monkeypatch):
        """From here on, computing a GEMM or a nonlinear value fails."""
        import sys

        from repro.core.cpwl import CPWLApproximator
        from repro.fixedpoint import fixed_matmul

        def refuse(*args, **kwargs):
            raise AssertionError("a charge computed a value")

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and vars(module).get("fixed_matmul") is fixed_matmul:
                monkeypatch.setattr(module, "fixed_matmul", refuse)
        monkeypatch.setattr(CPWLApproximator, "evaluate_raw", refuse)

    @pytest.mark.parametrize(
        "m, k, n, count", [(4, 4, 4, 1), (9, 13, 7, 3), (1, 33, 5, 2)]
    )
    def test_charge_gemm_equals_gemm_raw_calls(self, m, k, n, count, request):
        rng = np.random.default_rng(m * k * n)
        a = quantize(rng.normal(size=(m, k)), INT16)
        b = quantize(rng.normal(size=(k, n)), INT16)
        computed = SystolicArray(small_config())
        with computed.capture() as computed_tape:
            for _ in range(count):
                computed.gemm_raw(a, b, label="x")
        charged = SystolicArray(small_config())
        request.getfixturevalue("no_compute")
        with charged.capture() as charged_tape:
            charged.charge_gemm(m, k, n, count, label="x")
        assert _expanded(charged_tape) == _expanded(computed_tape)
        for trace in (computed.trace, charged.trace):
            assert len(trace) == count
        assert charged.trace.cycles_by_label() == computed.trace.cycles_by_label()
        assert charged.trace.ops_by_kind() == computed.trace.ops_by_kind()

    @pytest.mark.parametrize(
        "function, shape, fused_ipf, domain",
        [
            ("gelu", (4, 6), True, None),
            ("relu", (3, 17), False, relu_domain(0.25)),
            ("gelu", (1, 40), False, None),
        ],
    )
    def test_charge_nonlinear_equals_apply_nonlinear_raw(
        self, function, shape, fused_ipf, domain, request
    ):
        x = quantize(np.random.default_rng(5).normal(size=shape), INT16)
        computed = SystolicArray(small_config())
        with computed.capture() as computed_tape:
            # The second call meets a resident table: no preload cycles.
            for _ in range(2):
                computed.apply_nonlinear_raw(
                    function, x, 0.25, fused_ipf=fused_ipf, domain=domain
                )
        charged = SystolicArray(small_config())
        request.getfixturevalue("no_compute")
        with charged.capture() as charged_tape:
            for _ in range(2):
                charged.charge_nonlinear(
                    function, shape, 0.25, fused_ipf=fused_ipf, domain=domain
                )
        assert charged_tape == computed_tape
        for trace in (computed.trace, charged.trace):
            assert len(trace) == 5  # one preload, then ipf + mhp twice
        assert charged.trace.cycles_by_label() == computed.trace.cycles_by_label()
        assert charged.trace.ops_by_kind() == computed.trace.ops_by_kind()

    def test_cpwl_backend_charges_nothing(self, monkeypatch):
        from repro.nn.executor import CPWLBackend

        for name in ("charge_gemm", "charge_nonlinear"):
            monkeypatch.setattr(
                SystolicArray, name, lambda *a, **k: pytest.fail("charged")
            )
        backend = CPWLBackend(0.25)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4))
        backend.matmul(x, rng.normal(size=(4, 5)))
        backend.linear(x, rng.normal(size=(5, 4)), rng.normal(size=5))
        backend.conv_cols(
            rng.normal(size=(1, 2, 4, 4)), 3, 1, 1,
            rng.normal(size=(3, 18)), rng.normal(size=3),
        )
        backend.relu(x)
        backend.gelu(x)
        assert backend.array is None


class TestCycleSimCrossCheck:
    """The event-level PE grid still agrees with the whole-matrix path."""

    @pytest.mark.parametrize(
        "config", [small_config(), rect_config()], ids=["square", "rect"]
    )
    def test_single_tile_matches_cycle_sim(self, config):
        rng = np.random.default_rng(6)
        m, n = config.pe_rows, config.pe_cols
        a = quantize(rng.normal(size=(m, 10)), INT16)
        b = quantize(rng.normal(size=(10, n)), INT16)
        fast = SystolicArray(config).gemm_raw(a, b)
        sim = CycleSimulator(config).run_gemm_tile(a, b)
        assert np.array_equal(fast, sim.output)

    def test_multi_tile_blocks_match_cycle_sim(self):
        config = rect_config()
        rng = np.random.default_rng(7)
        a = quantize(rng.normal(size=(5, 6)), INT16)
        b = quantize(rng.normal(size=(6, 11)), INT16)
        whole = SystolicArray(config).gemm_raw(a, b)
        for tile in tiles(plan_gemm(config, 5, 6, 11)):
            sim = CycleSimulator(config).run_gemm_tile(
                a[tile.row_start : tile.row_end, :],
                b[:, tile.col_start : tile.col_end],
            )
            assert np.array_equal(
                whole[tile.row_start : tile.row_end, tile.col_start : tile.col_end],
                sim.output,
            )


class TestRearrangeMetadataOnly:
    def test_streams_carry_the_operands(self):
        config = small_config()
        x = quantize(np.random.default_rng(9).normal(size=(6, 6)), INT16)
        ipf = fetch_parameters(x, get_approximator("gelu", 0.25, INT16).qtable, INT16)
        streams = rearrange_for_mhp(
            x, ipf.k_raw, ipf.b_raw, config.pe_rows, 1 << INT16.frac_bits,
            port_width=config.l3_in_width,
        )
        # The materialized pass agrees with the closed-form cycle cost
        # the MHP event carries and holds the operands losslessly.
        assert streams.cycles == rearrange_cycles(6, 6, port_width=config.l3_in_width)
        assert np.array_equal(streams.input_stream[:, 0::2], x)
        assert np.all(streams.input_stream[:, 1::2] == 1 << INT16.frac_bits)
        assert np.array_equal(streams.weight_stream[:, 0::2], ipf.k_raw)
        assert np.array_equal(streams.weight_stream[:, 1::2], ipf.b_raw)

    def test_rearrange_cycles_matches_constructed(self):
        out = rearrange_for_mhp(
            np.zeros((5, 4)), np.zeros((5, 4)), np.zeros((5, 4)), 4, 256,
            port_width=16,
        )
        assert out.cycles == rearrange_cycles(5, 4, port_width=16)


class TestTraceAggregateMode:
    def _event(self, kind="gemm", label="l", cycles=10, ops=100):
        return TraceEvent(kind, label, cycles=cycles, ops=ops)

    def test_aggregate_only_is_memory_bounded(self):
        trace = Trace()
        for i in range(10_000):
            trace.record(self._event(cycles=i % 7, ops=1))
        assert not hasattr(trace, "events")  # no log to grow
        assert len(trace) == 10_000
        assert trace.total_cycles == sum(i % 7 for i in range(10_000))
        assert trace.ops_by_kind() == {"gemm": 10_000}

    def test_aggregates_match_event_scan(self):
        trace = Trace()
        rng = np.random.default_rng(10)
        events = []
        for _ in range(200):
            kind = ("gemm", "mhp", "ipf")[int(rng.integers(3))]
            events.append(
                self._event(
                    kind=kind,
                    label=f"{kind}.x",
                    cycles=int(rng.integers(1, 50)),
                    ops=int(rng.integers(1, 500)),
                )
            )
            trace.record(events[-1])
        assert trace.total_cycles == sum(e.cycles for e in events)
        by_kind, ops_by_kind, by_label = {}, {}, {}
        for e in events:
            by_kind[e.kind] = by_kind.get(e.kind, 0) + e.cycles
            ops_by_kind[e.kind] = ops_by_kind.get(e.kind, 0) + e.ops
            by_label[e.label] = by_label.get(e.label, 0) + e.cycles
        assert trace.cycles_by_kind() == by_kind
        assert trace.ops_by_kind() == ops_by_kind
        assert trace.cycles_by_label() == by_label
        assert len(trace) == len(events)

    def test_clear_preserves_mode(self):
        """``clear`` zeroes the aggregates; an open namespace and an open
        tape go on receiving what is recorded after it."""
        trace = Trace()
        trace.tape = tape = []
        with trace.namespace("tenant"):
            trace.record(self._event())
            trace.clear()
            assert trace.total_cycles == 0
            assert len(trace) == 0
            assert trace.cycles_by_namespace() == {}
            trace.record(self._event(cycles=4))
        assert trace.cycles_by_namespace() == {"tenant": 4}
        assert [count for _, count in tape] == [1, 1]

    def test_array_o1_aggregates_follow_mode(self):
        array = SystolicArray(small_config())
        array.matmul(np.ones((8, 8)), np.ones((8, 8)))
        array.apply_nonlinear("gelu", np.zeros((4, 4)), 0.25)
        assert array.total_cycles > 0
        assert len(array.trace) == 4  # gemm, preload, ipf, mhp
        summary = array.utilization_summary()
        assert sum(summary.values()) == pytest.approx(1.0)
        array.reset()
        assert array.total_cycles == 0
        array.matmul(np.ones((4, 4)), np.ones((4, 4)))
        assert len(array.trace) == 1
