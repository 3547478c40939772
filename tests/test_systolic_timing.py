"""Unit tests for the closed-form cycle model (Figs. 8/10 substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.systolic.config import SystolicConfig
from repro.systolic.timing import (
    CycleBreakdown,
    effective_out_width,
    gemm_cycles,
    gemm_throughput_gops,
    nonlinear_cycles,
    nonlinear_throughput_gnfs,
    peak_gnfs,
    peak_gops,
)


def cfg(p=8, m=16, **kw):
    return SystolicConfig(pe_rows=p, pe_cols=p, macs_per_pe=m, **kw)


class TestCycleBreakdown:
    def test_total_sums_phases(self):
        bd = CycleBreakdown(fill=10, compute=100, drain=20, overhead=3)
        assert bd.total == 133

    def test_drain_fraction(self):
        bd = CycleBreakdown(fill=0, compute=50, drain=50)
        assert bd.drain_fraction == 0.5

    def test_seconds(self):
        bd = CycleBreakdown(fill=0, compute=250, drain=0)
        assert bd.seconds(250e6) == pytest.approx(1e-6)

    def test_merge(self):
        a = CycleBreakdown(1, 2, 3, 4)
        b = CycleBreakdown(10, 20, 30, 40)
        merged = a.merged(b)
        assert merged.total == a.total + b.total


class TestGemmCycles:
    def test_throughput_cliff_example(self):
        """Section V-C: 32x32 on 16x16 PEs is drain-dominated (~85%)."""
        bd = gemm_cycles(cfg(16, 16), 32, 32, 32)
        assert 0.80 <= bd.drain_fraction <= 0.90

    def test_large_matrix_high_utilization_at_paper_point(self):
        c = cfg(8, 16)
        assert gemm_throughput_gops(c, 512, 512, 512) / peak_gops(c) > 0.95

    def test_big_array_drain_bound_on_512(self):
        """The 512-dim curve falls below max on the largest array (Fig. 8a)."""
        c = cfg(16, 16)
        assert gemm_throughput_gops(c, 512, 512, 512) / peak_gops(c) < 0.7

    def test_cycles_scale_down_with_macs(self):
        slow = gemm_cycles(cfg(8, 2), 256, 256, 256).total
        fast = gemm_cycles(cfg(8, 16), 256, 256, 256).total
        assert fast < slow

    def test_more_pes_never_slower(self):
        small = gemm_cycles(cfg(4, 16), 256, 256, 256).total
        big = gemm_cycles(cfg(8, 16), 256, 256, 256).total
        assert big <= small

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            gemm_cycles(cfg(), 0, 4, 4)

    def test_peak_gops_formula(self):
        assert peak_gops(cfg(8, 16)) == pytest.approx(64 * 16 * 0.25)

    def test_throughput_below_peak(self):
        c = cfg(8, 16)
        for dim in (32, 128, 512):
            assert gemm_throughput_gops(c, dim, dim, dim) <= peak_gops(c) + 1e-9

    def test_out_width_defaults_to_quarter_rows(self):
        assert effective_out_width(cfg(16, 16)) == 4
        assert effective_out_width(cfg(8, 16)) == 2
        assert effective_out_width(cfg(2, 2)) == 1

    def test_out_width_override_clamped_to_rows(self):
        c = SystolicConfig(pe_rows=2, pe_cols=2, l3_out_width=16)
        assert effective_out_width(c) == 2

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_cycles_lower_bounded_by_ideal(self, m, k, n):
        c = cfg(4, 4)
        bd = gemm_cycles(c, m, k, n)
        ideal = m * k * n / c.macs_per_cycle
        assert bd.total >= ideal

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_cycles_monotone_in_k(self, scale):
        c = cfg(4, 4)
        base = gemm_cycles(c, 64, 32, 64).total
        bigger = gemm_cycles(c, 64, 32 * scale, 64).total
        assert bigger >= base


class TestNonlinearCycles:
    def test_requires_one_sa(self):
        sa = SystolicConfig(pe_rows=8, pe_cols=8, nonlinear_enabled=False)
        with pytest.raises(RuntimeError, match="nonlinear"):
            nonlinear_cycles(sa, 64, 64)

    def test_peak_gnfs_formula(self):
        assert peak_gnfs(cfg(8, 16)) == pytest.approx(8 * 16 / 2 * 0.25)

    def test_large_matrix_approaches_peak(self):
        c = cfg(8, 16)
        achieved = nonlinear_throughput_gnfs(c, 512, 512)
        assert achieved > 0.95 * peak_gnfs(c)

    def test_small_matrix_cliff(self):
        c = cfg(16, 32)
        achieved = nonlinear_throughput_gnfs(c, 32, 32)
        assert achieved < 0.5 * peak_gnfs(c)

    def test_macs_increase_nonlinear_throughput(self):
        """Fig. 8(b): MAC count matters for nonlinear throughput."""
        low = nonlinear_throughput_gnfs(cfg(8, 2), 256, 256)
        high = nonlinear_throughput_gnfs(cfg(8, 16), 256, 256)
        assert high > 2 * low

    def test_standalone_ipf_charged(self):
        fused = nonlinear_cycles(cfg(), 128, 128, fused_ipf=True).total
        standalone = nonlinear_cycles(cfg(), 128, 128, fused_ipf=False).total
        assert standalone > fused

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            nonlinear_cycles(cfg(), 0, 8)

    @given(st.integers(min_value=1, max_value=512), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_nonlinear_cycles_lower_bounded(self, m, n):
        c = cfg(4, 8)
        bd = nonlinear_cycles(c, m, n)
        ideal = m * n / c.mhp_elements_per_cycle
        assert bd.total >= ideal
