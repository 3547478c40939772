"""Cycle-level simulator tests: bit-exactness and dataflow properties.

These are the validation tests DESIGN.md promises: the event-level PE
grid must agree with the vectorized functional paths bit for bit, and
its measured behaviour must back the closed-form timing model's
structural assumptions (who computes, who forwards, how long).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint import INT16, fixed_hadamard_mac, fixed_matmul, quantize
from repro.systolic.config import SystolicConfig

from tests.reference.cycle_sim import CycleSimulator
from tests.reference.dataflow import execute_mhp_per_lane
from tests.reference.pe import PEMode, ProcessingElement


def cfg(p=4, m=4):
    return SystolicConfig(pe_rows=p, pe_cols=p, macs_per_pe=m)


class TestProcessingElement:
    def make_pe(self, mode):
        pe = ProcessingElement(row=0, col=0, macs=4, fmt=INT16)
        pe.configure(mode)
        return pe

    def test_gemm_mode_controls(self):
        pe = self.make_pe(PEMode.GEMM)
        assert pe.c1_forward and pe.c2_compute

    def test_computation_mode_controls(self):
        pe = self.make_pe(PEMode.COMPUTATION)
        assert not pe.c1_forward and pe.c2_compute

    def test_transmission_mode_controls(self):
        pe = self.make_pe(PEMode.TRANSMISSION)
        assert pe.c1_forward and not pe.c2_compute

    def test_gemm_accumulates(self):
        pe = self.make_pe(PEMode.GEMM)
        a = quantize(np.array([1.0, 2.0, 0.0, 0.0]), INT16).astype(np.int64)
        b = quantize(np.array([3.0, 0.5, 0.0, 0.0]), INT16).astype(np.int64)
        pe.step(a, b)
        pe.step(a, b)
        from repro.fixedpoint import dequantize

        assert dequantize(pe.writeback(), INT16) == pytest.approx(8.0)

    def test_transmission_never_computes(self):
        pe = self.make_pe(PEMode.TRANSMISSION)
        a = np.ones(4, dtype=np.int64)
        pe.step(a, a)
        pe.step(a, a)
        assert pe.stats.mac_ops == 0
        assert pe.stats.forwards > 0

    def test_forward_is_one_cycle_delayed(self):
        pe = self.make_pe(PEMode.GEMM)
        first = np.array([1], dtype=np.int64)
        second = np.array([2], dtype=np.int64)
        east, _ = pe.step(first, None)
        assert east is None  # nothing registered yet
        east, _ = pe.step(second, None)
        assert east is first

    def test_computation_pe_emits_per_pair(self):
        pe = self.make_pe(PEMode.COMPUTATION)
        one = np.int64(1) << 8
        x = quantize(np.array([2.0]), INT16).astype(np.int64)
        pe.step(np.array([x[0], one]), np.array([quantize(0.5, INT16), quantize(1.0, INT16)]).astype(np.int64))
        assert len(pe.output_buffer) == 1
        from repro.fixedpoint import dequantize

        assert dequantize(np.array([pe.output_buffer[0]]), INT16)[0] == pytest.approx(2.0)


class TestGemmCycleSim:
    @pytest.mark.parametrize("m,k,n", [(4, 8, 4), (3, 7, 2), (4, 4, 4), (1, 16, 1), (2, 1, 3)])
    def test_bit_exact_vs_reference(self, m, k, n):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a = quantize(rng.normal(size=(m, k)), INT16)
        b = quantize(rng.normal(size=(k, n)), INT16)
        sim = CycleSimulator(cfg())
        result = sim.run_gemm_tile(a, b)
        assert np.array_equal(result.output, fixed_matmul(a, b, INT16))

    def test_all_output_pes_active(self):
        rng = np.random.default_rng(0)
        a = quantize(rng.normal(size=(4, 8)), INT16)
        b = quantize(rng.normal(size=(8, 4)), INT16)
        result = CycleSimulator(cfg()).run_gemm_tile(a, b)
        assert result.active_pes == 16

    def test_mac_count_matches_problem(self):
        rng = np.random.default_rng(1)
        a = quantize(rng.normal(size=(4, 8)), INT16)
        b = quantize(rng.normal(size=(8, 4)), INT16)
        result = CycleSimulator(cfg()).run_gemm_tile(a, b)
        assert result.mac_ops_by_pe.sum() == 4 * 8 * 4

    def test_cycle_count_close_to_model(self):
        """Measured tile cycles ≈ compute + skew of the closed form."""
        sim = CycleSimulator(cfg())
        a = quantize(np.random.default_rng(2).normal(size=(4, 32)), INT16)
        b = quantize(np.random.default_rng(3).normal(size=(32, 4)), INT16)
        result = sim.run_gemm_tile(a, b)
        chunks = 32 // 4
        assert result.cycles == chunks + 2 * (4 - 1) + 1

    def test_oversized_tile_rejected(self):
        sim = CycleSimulator(cfg())
        with pytest.raises(ValueError):
            sim.run_gemm_tile(np.zeros((5, 4)), np.zeros((4, 5)))

    def test_shape_mismatch_rejected(self):
        sim = CycleSimulator(cfg())
        with pytest.raises(ValueError):
            sim.run_gemm_tile(np.zeros((4, 4)), np.zeros((5, 4)))

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_bit_exact_random_k(self, k):
        rng = np.random.default_rng(k)
        a = quantize(rng.normal(size=(4, k)), INT16)
        b = quantize(rng.normal(size=(k, 4)), INT16)
        result = CycleSimulator(cfg()).run_gemm_tile(a, b)
        assert np.array_equal(result.output, fixed_matmul(a, b, INT16))


class TestMHPCycleSim:
    @pytest.mark.parametrize("rows,cols", [(4, 4), (8, 5), (3, 7), (1, 1), (9, 2)])
    def test_bit_exact_vs_reference(self, rows, cols):
        rng = np.random.default_rng(rows * 10 + cols)
        x = quantize(rng.normal(size=(rows, cols)), INT16)
        k = quantize(rng.normal(size=(rows, cols)), INT16)
        b = quantize(rng.normal(size=(rows, cols)), INT16)
        result = CycleSimulator(cfg()).run_mhp(x, k, b)
        assert np.array_equal(result.output, fixed_hadamard_mac(x, k, b, INT16))

    def test_only_diagonal_pes_compute(self):
        """The Section IV-B dataflow: computation PEs on the diagonal,
        transmission PEs everywhere else."""
        rng = np.random.default_rng(5)
        shape = (8, 6)
        x = quantize(rng.normal(size=shape), INT16)
        result = CycleSimulator(cfg()).run_mhp(x, x, x)
        off_diag = result.mac_ops_by_pe.copy()
        np.fill_diagonal(off_diag, 0)
        assert off_diag.max() == 0
        assert np.all(np.diag(result.mac_ops_by_pe) > 0)

    def test_transmission_pes_forward(self):
        rng = np.random.default_rng(6)
        x = quantize(rng.normal(size=(8, 6)), INT16)
        result = CycleSimulator(cfg()).run_mhp(x, x, x)
        # PEs west of the last diagonal lane must have forwarded data.
        assert result.forwards_by_pe[3, 0] > 0

    def test_diagonal_macs_proportional_to_lane_load(self):
        x = quantize(np.random.default_rng(7).normal(size=(4, 5)), INT16)
        result = CycleSimulator(cfg()).run_mhp(x, x, x)
        # Each lane got one row of 5 elements, 2 MACs per element.
        assert np.all(np.diag(result.mac_ops_by_pe) == 10)

    def test_mismatched_operands_rejected(self):
        sim = CycleSimulator(cfg())
        with pytest.raises(ValueError):
            sim.run_mhp(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_agreement_with_vectorized_dataflow(self):
        """Cycle sim, the lane-based reference and the whole-operand MAC
        the array computes an MHP with must agree."""
        rng = np.random.default_rng(8)
        x = quantize(rng.normal(size=(10, 4)), INT16)
        k = quantize(rng.normal(size=(10, 4)), INT16)
        b = quantize(rng.normal(size=(10, 4)), INT16)
        slow = CycleSimulator(cfg()).run_mhp(x, k, b)
        lanes, _ = execute_mhp_per_lane(cfg(), x, k, b)
        assert np.array_equal(slow.output, fixed_hadamard_mac(x, k, b, INT16))
        assert np.array_equal(lanes, slow.output)
