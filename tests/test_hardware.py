"""Tests for the FPGA resource, power, device and Pareto models."""

import numpy as np
import pytest

from repro.hardware import (
    ArrayResources,
    VIRTEX7_XC7VX485T,
    l3_resources,
    pareto_front,
    pe_resources,
    power_watts,
    total_resources,
)
from repro.hardware.power import phase_weighted_activity
from repro.hardware.resources import fabric_resources
from repro.systolic.config import SystolicConfig


def design(dim, macs=16, nonlinear=True):
    return SystolicConfig(
        pe_rows=dim, pe_cols=dim, macs_per_pe=macs, nonlinear_enabled=nonlinear
    )


class TestPEResources:
    def test_table1_sa_pe(self):
        r = pe_resources(16, nonlinear=False)
        assert (r.bram, r.lut, r.ff, r.dsp) == (1, 824, 1862, 16)

    def test_table1_one_sa_pe(self):
        r = pe_resources(16, nonlinear=True)
        assert (r.bram, r.lut, r.ff, r.dsp) == (1, 826, 2380, 16)

    def test_one_sa_pe_ff_overhead_is_27_percent(self):
        """Section IV-C: the ONE-SA PE costs ~27% more FFs."""
        sa = pe_resources(16, nonlinear=False)
        one = pe_resources(16, nonlinear=True)
        assert one.ff / sa.ff == pytest.approx(1.278, abs=0.01)

    def test_dsp_linear_in_macs(self):
        assert pe_resources(32).dsp == 32
        assert pe_resources(2).dsp == 2

    def test_ff_growth_band_when_doubling_macs(self):
        """Fig. 9 text: doubling MACs grows FFs by ~2.6%-53.8%."""
        for m in (2, 4, 8, 16):
            ratio = pe_resources(2 * m).ff / pe_resources(m).ff
            assert 1.026 <= ratio <= 1.538

    def test_bram_flat_in_macs(self):
        assert pe_resources(2).bram == pe_resources(32).bram == 1

    def test_invalid_macs(self):
        with pytest.raises(ValueError):
            pe_resources(0)


class TestL3Resources:
    def test_table1_sa_l3(self):
        r = l3_resources(8, 16, nonlinear_output=False)
        assert (r.bram, r.lut, r.ff, r.dsp) == (0, 174, 566, 0)

    def test_table1_one_sa_l3(self):
        r = l3_resources(8, 16, nonlinear_output=True)
        assert (r.bram, r.lut, r.ff, r.dsp) == (2, 1021, 1209, 0)

    def test_paper_l3_ratios(self):
        """Section IV-C: ONE-SA L3 needs 4.87x more LUTs, 1.14x more FFs."""
        sa = l3_resources(8, 16)
        one = l3_resources(8, 16, nonlinear_output=True)
        assert (one.lut - sa.lut) / sa.lut == pytest.approx(4.87, abs=0.01)
        assert (one.ff - sa.ff) / sa.ff == pytest.approx(1.14, abs=0.01)


class TestTotalResources:
    @pytest.mark.parametrize(
        "dim,expected",
        [
            (4, (470, 67976, 66924, 256)),
            (8, (822, 179247, 179247, 1024)),
            (16, (1366, 730225, 552539, 4096)),
        ],
    )
    def test_table2_sa_exact(self, dim, expected):
        r = total_resources(design(dim, nonlinear=False))
        assert (r.bram, r.lut, r.ff, r.dsp) == expected

    @pytest.mark.parametrize(
        "dim,expected",
        [
            (4, (472, 68855, 75855, 256)),
            (8, (824, 180222, 213042, 1024)),
            (16, (1368, 731584, 685790, 4096)),
        ],
    )
    def test_table2_one_sa_exact(self, dim, expected):
        r = total_resources(design(dim, nonlinear=True))
        assert (r.bram, r.lut, r.ff, r.dsp) == expected

    def test_ff_overhead_band(self):
        """Table II: ONE-SA adds 13.3%-24.1% FFs, nothing else notable."""
        for dim in (4, 8, 16):
            sa = total_resources(design(dim, nonlinear=False))
            one = total_resources(design(dim, nonlinear=True))
            assert 1.13 <= one.ff / sa.ff <= 1.25
            assert one.lut / sa.lut < 1.015
            assert one.dsp == sa.dsp
            assert one.bram - sa.bram == 2

    def test_fig9_lut_linear_in_pes(self):
        luts = [total_resources(design(d)).lut for d in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(luts, luts[1:]))
        # Approximately linear in PE count: ratio of ratios near 1.
        growth = luts[3] / luts[1]
        assert 10 < growth < 16  # 16x PEs -> about linear

    def test_fig9_bram_slow_growth(self):
        brams = [total_resources(design(d)).bram for d in (4, 8, 16)]
        assert brams[2] / brams[0] < 4  # much slower than the 16x PE growth

    def test_fig9_dsp_linear_in_macs(self):
        assert total_resources(design(8, 32)).dsp == 2 * total_resources(design(8, 16)).dsp

    def test_fabric_interpolation_smooth(self):
        f8 = fabric_resources(64)
        f6 = fabric_resources(36)
        f4 = fabric_resources(16)
        assert f4.lut < f6.lut < f8.lut

    def test_fabric_invalid(self):
        with pytest.raises(ValueError):
            fabric_resources(0)

    def test_resources_addition_and_scaling(self):
        a = ArrayResources(1, 2, 3, 4)
        b = ArrayResources(10, 20, 30, 40)
        assert (a + b).lut == 22
        assert a.scaled(2).dsp == 8


class TestDevice:
    def test_paper_point_fits(self):
        assert VIRTEX7_XC7VX485T.fits(total_resources(design(8)))

    def test_16x16_exceeds_device(self):
        """The paper's own 16x16 totals exceed the XC7VX485T (see
        EXPERIMENTS.md) — the model must flag that."""
        assert not VIRTEX7_XC7VX485T.fits(total_resources(design(16)))


class TestPower:
    def test_anchor_reproduced(self):
        """Table IV: 7.61 W at the 64-PE / 16-MAC point."""
        assert power_watts(design(8)) == pytest.approx(7.61, abs=0.01)

    def test_power_monotone_in_size(self):
        p = [power_watts(design(d)) for d in (2, 4, 8, 16)]
        assert all(b > a for a, b in zip(p, p[1:]))

    def test_power_monotone_in_macs(self):
        assert power_watts(design(8, 32)) > power_watts(design(8, 16))

    def test_activity_scales_dynamic(self):
        idle = power_watts(design(8), activity=0.0)
        busy = power_watts(design(8), activity=1.0)
        assert idle < busy
        from repro.hardware.power import STATIC_WATTS

        assert idle == pytest.approx(STATIC_WATTS)

    def test_activity_validation(self):
        with pytest.raises(ValueError):
            power_watts(design(8), activity=1.5)

    def test_clock_scaling(self):
        half = power_watts(design(8), clock_hz=125e6)
        full = power_watts(design(8), clock_hz=250e6)
        assert half < full

    def test_mhp_phase_draws_less(self):
        """Fig. 10(b): nonlinear execution toggles fewer PEs."""
        gemm = phase_weighted_activity(design(8), 1.0, 0.0)
        mhp = phase_weighted_activity(design(8), 0.0, 1.0)
        assert mhp < gemm

    def test_phase_weighting_blends(self):
        mixed = phase_weighted_activity(design(8), 0.5, 0.5)
        gemm = phase_weighted_activity(design(8), 1.0, 0.0)
        mhp = phase_weighted_activity(design(8), 0.0, 1.0)
        assert mhp < mixed < gemm

    def test_zero_shares(self):
        assert phase_weighted_activity(design(8), 0.0, 0.0) == 0.0


class TestPareto:
    def test_front_extraction(self):
        points = [(1, 10), (2, 5), (3, 6), (4, 1), (5, 5)]
        front = pareto_front(points, (lambda p: p[0], lambda p: p[1]))
        assert front == [(1, 10), (2, 5), (4, 1)]

    def test_duplicates_survive(self):
        points = [(1, 1), (1, 1)]
        front = pareto_front(points, (lambda p: p[0], lambda p: p[1]))
        assert len(front) == 2

    def test_empty(self):
        assert pareto_front([], (lambda p: p,)) == []
