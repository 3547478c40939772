"""Equivalence suite pinning the plan-cached whole-matrix refactor.

The traced execution path was rebuilt around cached plans, whole-operand
compute and analytic trace synthesis.  These tests pin the refactor to
the seed semantics: bit-identical raw outputs, identical schedules and
identical per-op cycle accounting versus the retained per-tile /
per-lane / per-pair references.
"""

import numpy as np
import pytest

from repro.core.ipf import fetch_parameters
from repro.core.nonlinear_ops import get_approximator
from repro.fixedpoint import INT16, fixed_hadamard_mac, quantize
from repro.nn.executor import ArrayBackend
from repro.systolic import SystolicArray, SystolicConfig
from repro.systolic.cycle_sim import CycleSimulator
from repro.systolic.gemm import (
    GEMM_PLANS,
    execute_gemm,
    execute_gemm_per_tile,
    plan_gemm,
)
from repro.systolic.mhp_dataflow import (
    execute_mhp_per_lane,
    plan_mhp,
)
from repro.systolic.rearrange import rearrange_cycles, rearrange_for_mhp
from repro.systolic.trace import Trace, TraceEvent


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
        out_whole, sched_whole = execute_gemm(config, a, b)
        out_tiled, sched_tiled = execute_gemm_per_tile(
            config, a, b, use_plan_cache=False
        )
        assert np.array_equal(out_whole, out_tiled)
        assert out_whole.dtype == out_tiled.dtype
        assert sched_whole.breakdown == sched_tiled.breakdown
        assert len(sched_whole.tiles) == len(sched_tiled.tiles)

    def test_saturating_operands_still_identical(self):
        # Drive the accumulator into saturation territory: whole-matrix
        # and per-tile must saturate identically on writeback.
        rng = np.random.default_rng(5)
        a = quantize(rng.normal(scale=60.0, size=(12, 20)), INT16)
        b = quantize(rng.normal(scale=60.0, size=(20, 9)), INT16)
        out_whole, _ = execute_gemm(small_config(), a, b)
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
        tiles = plan_gemm(small_config(), 10, 8, 6, use_cache=False).tiles
        assert len(tiles) == 6
        assert [t.index for t in tiles] == list(range(6))

    def test_tiles_cover_output_exactly_once(self):
        schedule = plan_gemm(rect_config(), 7, 4, 11, use_cache=False)
        covered = np.zeros((7, 11), dtype=int)
        for t in schedule.tiles:
            covered[t.row_start : t.row_end, t.col_start : t.col_end] += 1
        assert np.all(covered == 1)

    def test_enumeration_is_allocation_free_metadata(self):
        # A huge schedule must be cheap to *hold*; only iteration pays.
        schedule = plan_gemm(small_config(), 4096, 4096, 4096, use_cache=False)
        assert len(schedule.tiles) == 1024 * 1024


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
        all_rows = np.sort(np.concatenate(schedule.lane_rows))
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
        fast, _ = execute_gemm(config, a, b)
        sim = CycleSimulator(config).run_gemm_tile(a, b)
        assert np.array_equal(fast, sim.output)

    def test_multi_tile_blocks_match_cycle_sim(self):
        config = rect_config()
        rng = np.random.default_rng(7)
        a = quantize(rng.normal(size=(5, 6)), INT16)
        b = quantize(rng.normal(size=(6, 11)), INT16)
        whole, schedule = execute_gemm(config, a, b)
        for tile in schedule.tiles:
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
