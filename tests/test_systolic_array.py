"""Tests for the SystolicArray facade, dataflow schedules and modules."""

import numpy as np
import pytest

from repro.core.nonlinear_ops import get_approximator
from repro.core.segment_table import build_segment_table
from repro.fixedpoint import INT16, dequantize, fixed_hadamard_mac, fixed_matmul, quantize
from repro.systolic import ONE_SA_PAPER_CONFIG, SystolicArray, SystolicConfig
from repro.systolic.addressing import DataAddressing
from repro.systolic.buffers import ParameterStore
from repro.systolic.gemm import execute_gemm, plan_gemm
from repro.systolic.mhp_dataflow import execute_mhp_per_lane, naive_mhp_cycles, plan_mhp
from repro.systolic.rearrange import rearrange_for_mhp


def small_config(**kw):
    return SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, **kw)


class TestGemmSchedule:
    def test_tile_enumeration_covers_output(self):
        schedule = plan_gemm(small_config(), 10, 8, 6)
        covered = np.zeros((10, 6), dtype=int)
        for t in schedule.tiles:
            covered[t.row_start : t.row_end, t.col_start : t.col_end] += 1
        assert np.all(covered == 1)

    def test_tile_count(self):
        schedule = plan_gemm(small_config(), 10, 8, 6)
        assert len(schedule.tiles) == 3 * 2  # ceil(10/4) * ceil(6/4)

    def test_macs_property(self):
        schedule = plan_gemm(small_config(), 4, 5, 6)
        assert schedule.macs == 4 * 5 * 6

    def test_execute_matches_reference(self):
        rng = np.random.default_rng(0)
        a = quantize(rng.normal(size=(9, 13)), INT16)
        b = quantize(rng.normal(size=(13, 7)), INT16)
        out, schedule = execute_gemm(small_config(), a, b)
        assert np.array_equal(out, fixed_matmul(a, b, INT16))
        assert schedule.breakdown.total > 0

    def test_execute_validates_shapes(self):
        with pytest.raises(ValueError):
            execute_gemm(small_config(), np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            execute_gemm(small_config(), np.zeros(3), np.zeros((3, 2)))


class TestRectangularGridSchedule:
    """Regression: rectangular (plain-SA) grids must tile rows with
    pe_rows and columns with pe_cols, not pe_rows for both."""

    def rect_config(self):
        return SystolicConfig(
            pe_rows=2, pe_cols=8, macs_per_pe=4, nonlinear_enabled=False
        )

    def test_tile_shapes_follow_grid(self):
        schedule = plan_gemm(self.rect_config(), 6, 5, 16)
        assert len(schedule.tiles) == 3 * 2  # ceil(6/2) * ceil(16/8)
        shapes = [
            (t.row_end - t.row_start, t.col_end - t.col_start) for t in schedule.tiles
        ]
        assert all(rows <= 2 and cols <= 8 for rows, cols in shapes)
        full = [shape for shape in shapes if shape == (2, 8)]
        assert full, "expected at least one full 2x8 tile"

    def test_tiles_cover_output_exactly_once(self):
        schedule = plan_gemm(self.rect_config(), 7, 4, 11)
        covered = np.zeros((7, 11), dtype=int)
        for t in schedule.tiles:
            covered[t.row_start : t.row_end, t.col_start : t.col_end] += 1
        assert np.all(covered == 1)

    def test_execute_matches_reference_on_rect_grid(self):
        rng = np.random.default_rng(7)
        a = quantize(rng.normal(size=(9, 13)), INT16)
        b = quantize(rng.normal(size=(13, 17)), INT16)
        out, schedule = execute_gemm(self.rect_config(), a, b)
        assert np.array_equal(out, fixed_matmul(a, b, INT16))
        assert schedule.breakdown.total > 0

    def test_square_schedule_unchanged(self):
        # The rectangular fix must not disturb square-grid schedules.
        sq = plan_gemm(small_config(), 10, 8, 6)
        assert len(sq.tiles) == 3 * 2

    def test_drain_width_follows_column_lanes(self):
        from repro.systolic.timing import effective_out_width

        # Results drain through the pe_cols column lanes: a tall
        # narrow grid must not report more drain bandwidth than it
        # has lanes, and a short wide grid must use all of them.
        tall = SystolicConfig(
            pe_rows=8, pe_cols=2, nonlinear_enabled=False, l3_out_width=8
        )
        assert effective_out_width(tall) == 2
        wide = SystolicConfig(pe_rows=2, pe_cols=8, nonlinear_enabled=False)
        assert effective_out_width(wide) == 2  # 8 // 4 column lanes
        assert effective_out_width(small_config()) == 1  # square unchanged


class TestMHPSchedule:
    def test_lane_assignment_covers_rows(self):
        schedule = plan_mhp(small_config(), 10, 5)
        all_rows = np.sort(np.concatenate(schedule.lane_rows))
        assert np.array_equal(all_rows, np.arange(10))

    def test_execute_matches_reference(self):
        rng = np.random.default_rng(1)
        x = quantize(rng.normal(size=(10, 6)), INT16)
        k = quantize(rng.normal(size=(10, 6)), INT16)
        b = quantize(rng.normal(size=(10, 6)), INT16)
        out, schedule = execute_mhp_per_lane(small_config(), x, k, b)
        assert np.array_equal(out, fixed_hadamard_mac(x, k, b, INT16))
        assert schedule.breakdown == plan_mhp(small_config(), 10, 6).breakdown

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            execute_mhp_per_lane(
                small_config(), np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2))
            )

    def test_naive_dataflow_slower(self):
        """The ablation baseline: naive MHP ignores the MAC count."""
        c = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)
        naive = naive_mhp_cycles(c, 256, 256).total
        improved = plan_mhp(c, 256, 256).breakdown.total
        assert improved < naive
        # With one MAC pair per PE the two dataflows converge.
        c1 = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=2)
        assert (
            abs(naive_mhp_cycles(c1, 256, 256).total - plan_mhp(c1, 256, 256).breakdown.total)
            / naive_mhp_cycles(c1, 256, 256).total
            < 0.05
        )


class TestRearrange:
    def test_interleave_roundtrip(self):
        rng = np.random.default_rng(2)
        x = quantize(rng.normal(size=(5, 4)), INT16)
        k = quantize(rng.normal(size=(5, 4)), INT16)
        b = quantize(rng.normal(size=(5, 4)), INT16)
        out = rearrange_for_mhp(x, k, b, pe_rows=4, one_raw=256)
        assert np.array_equal(out.input_stream[:, 0::2], x)
        assert np.all(out.input_stream[:, 1::2] == 256)
        assert np.array_equal(out.weight_stream[:, 0::2], k)
        assert np.array_equal(out.weight_stream[:, 1::2], b)

    def test_row_assignment_round_robin(self):
        out = rearrange_for_mhp(
            np.zeros((6, 2)), np.zeros((6, 2)), np.zeros((6, 2)), pe_rows=4, one_raw=256
        )
        assert list(out.row_assignment) == [0, 1, 2, 3, 0, 1]

    def test_cycle_cost_positive(self):
        out = rearrange_for_mhp(
            np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 4)), pe_rows=4, one_raw=256
        )
        assert out.cycles == -(-64 // 16)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rearrange_for_mhp(
                np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), 4, 256
            )


class TestDataAddressing:
    def test_requires_preload(self):
        module = DataAddressing(INT16)
        with pytest.raises(RuntimeError):
            module.run(np.zeros((2, 2), dtype=np.int16))

    def test_run_reports_capping(self):
        module = DataAddressing(INT16)
        qtable = build_segment_table("gelu", 0.25).quantized(INT16)
        module.preload(qtable, ParameterStore(256))
        xs = np.array([[-100.0, 0.0, 100.0]])
        result, stats = module.run(quantize(xs, INT16))
        assert stats.capped_low >= 1
        assert stats.capped_high >= 1
        assert stats.shift_path
        assert stats.elements == 3
        assert stats.cycles >= 1

    def test_fifo_high_water_bounded(self):
        module = DataAddressing(INT16, port_width=4, fifo_depth=16)
        qtable = build_segment_table("gelu", 0.25).quantized(INT16)
        module.preload(qtable, ParameterStore(256))
        _, stats = module.run(quantize(np.random.default_rng(0).normal(size=(16, 16)), INT16))
        assert stats.fifo_high_water <= 16

    def test_preload_counts_once(self):
        module = DataAddressing(INT16)
        store = ParameterStore(256)
        qtable = build_segment_table("gelu", 0.25).quantized(INT16)
        assert module.preload(qtable, store)
        assert not module.preload(qtable, store)


class TestSystolicArray:
    def test_matmul_close_to_float(self):
        array = SystolicArray(small_config())
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 10))
        b = rng.normal(size=(10, 4))
        out = array.matmul(a, b)
        assert np.max(np.abs(out - a @ b)) < 0.2

    def test_nonlinear_matches_cpwl_reference(self):
        """The full microarchitecture chain equals the fast CPWL path."""
        array = SystolicArray(small_config())
        xs = np.random.default_rng(4).normal(size=(8, 8))
        out = array.apply_nonlinear("gelu", xs, 0.25)
        ref_raw = get_approximator("gelu", 0.25, INT16).evaluate_raw(quantize(xs, INT16))
        assert np.allclose(out, dequantize(ref_raw, INT16))

    def test_plain_sa_rejects_nonlinear(self):
        array = SystolicArray(small_config(nonlinear_enabled=False))
        with pytest.raises(RuntimeError):
            array.apply_nonlinear("gelu", np.zeros((2, 2)), 0.25)
        with pytest.raises(RuntimeError):
            array.charge_nonlinear("gelu", (2, 2), 0.25)

    def test_trace_records_events(self):
        array = SystolicArray(small_config())
        array.matmul(np.zeros((4, 4)), np.zeros((4, 4)))
        array.apply_nonlinear("gelu", np.zeros((4, 4)), 0.25)
        kinds = array.trace.cycles_by_kind()
        assert "gemm" in kinds
        assert "mhp" in kinds
        assert array.total_cycles > 0
        assert array.elapsed_seconds() > 0

    def test_table_preload_traced_once(self):
        array = SystolicArray(small_config())
        x = np.zeros((4, 4))
        array.apply_nonlinear("gelu", x, 0.25)
        preload = array.trace.cycles_by_kind()["preload"]
        assert preload > 0 and len(array.trace) == 3  # preload, ipf, mhp
        array.apply_nonlinear("gelu", x, 0.25)
        assert array.trace.cycles_by_kind()["preload"] == preload
        assert len(array.trace) == 5  # ipf and mhp only

    def test_reset_clears_state(self):
        array = SystolicArray(small_config())
        array.matmul(np.zeros((4, 4)), np.zeros((4, 4)))
        array.reset()
        assert array.total_cycles == 0
        assert len(array.trace) == 0

    def test_utilization_summary_fractions(self):
        array = SystolicArray(small_config())
        array.matmul(np.zeros((8, 8)), np.zeros((8, 8)))
        array.apply_nonlinear("relu", np.zeros((8, 8)), 0.5)
        summary = array.utilization_summary()
        assert sum(summary.values()) == pytest.approx(1.0)

    def test_paper_config_default(self):
        array = SystolicArray()
        assert array.config is ONE_SA_PAPER_CONFIG
