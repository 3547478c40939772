"""Unit tests for the design-point configuration and buffer geometry."""

import numpy as np
import pytest

from repro.systolic import SystolicArray
from repro.systolic.buffers import BufferOverflowError, Fifo, ParameterStore
from repro.systolic.config import ONE_SA_PAPER_CONFIG, SA_PAPER_CONFIG, SystolicConfig


class TestSystolicConfig:
    def test_paper_config_geometry(self):
        cfg = ONE_SA_PAPER_CONFIG
        assert cfg.n_pes == 64
        assert cfg.macs_per_pe == 16
        assert cfg.nonlinear_enabled

    def test_table5_buffer_sizes(self):
        """The buffer geometry reproduces Table V exactly."""
        cfg = ONE_SA_PAPER_CONFIG
        assert cfg.l1_bytes == 32  # 0.031 KB
        assert cfg.pe_buffer_bytes == 96  # 0.094 KB
        assert cfg.l2_bytes == 512  # 0.5 KB
        assert cfg.l3_bytes == 288  # 0.28 KB
        assert cfg.n_l3_buffers == 3
        assert cfg.n_l2_banks == 24
        assert cfg.n_pes == 64

    def test_peak_rates(self):
        cfg = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)
        assert cfg.macs_per_cycle == 1024
        assert cfg.mhp_elements_per_cycle == 64.0

    def test_rectangular_grid_rejected_for_one_sa(self):
        # The diagonal MHP dataflow needs a square grid, so ONE-SA
        # design points must reject rectangular geometries.
        with pytest.raises(ValueError, match="square"):
            SystolicConfig(pe_rows=4, pe_cols=8)

    def test_rectangular_grid_allowed_for_plain_sa(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=8, nonlinear_enabled=False)
        assert cfg.n_pes == 32
        assert cfg.pe_rows == 4
        assert cfg.pe_cols == 8

    def test_rectangular_bank_geometry_counts_lanes(self):
        # Input banks per row lane, weight/output banks per column lane;
        # buffers sized for the longer edge.  Square grids keep Table V.
        cfg = SystolicConfig(
            pe_rows=4, pe_cols=8, macs_per_pe=16, nonlinear_enabled=False
        )
        assert cfg.n_l2_banks == 4 + 2 * 8
        assert cfg.l2_bytes == 2 * 8 * 16 * 2
        assert cfg.l3_bytes == 8 * 16 * 2 + 32

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SystolicConfig(pe_rows=0, pe_cols=0)
        with pytest.raises(ValueError):
            SystolicConfig(macs_per_pe=0)
        with pytest.raises(ValueError):
            SystolicConfig(clock_hz=0)
        # A NaN clock would price every makespan NaN, and an infinite
        # one would serve every batch in 0 s.
        for clock_hz in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="clock_hz must be a finite number > 0"):
                SystolicConfig(clock_hz=clock_hz)
        with pytest.raises(ValueError):
            SystolicConfig(l3_out_width=0)
        # A grid that cannot exist: 2.5x2.5 served a trace in 5665.0
        # cycles, True as a 1x1 grid, and 1.5 MACs per PE in 6264.0.
        for size in (2.5, True):
            with pytest.raises(ValueError, match="pe_rows must be an integer >= 1"):
                SystolicConfig(pe_rows=size, pe_cols=size)
        with pytest.raises(ValueError, match="macs_per_pe must be an integer >= 1"):
            SystolicConfig(macs_per_pe=1.5)
        for width in (2.5, True):
            with pytest.raises(ValueError, match="l3_in_width must be an integer >= 1"):
                SystolicConfig(l3_in_width=width)
        with pytest.raises(ValueError, match="l3_out_width must be an integer >= 1 or None"):
            SystolicConfig(l3_out_width=2.5)
        # An integral value is stored as the int it is.
        config = SystolicConfig(pe_rows=4.0, pe_cols=4, l3_out_width=2.0)
        assert config == SystolicConfig(pe_rows=4, pe_cols=4, l3_out_width=2)
        assert type(config.pe_rows) is int and type(config.l3_out_width) is int

    def test_cycle_key_is_built_once_and_stays_out_of_identity(self):
        """Placement asks for the clock-free design point on every
        estimate: one object per config, invisible to ==, hash, replace."""
        from dataclasses import replace

        config = SystolicConfig(pe_rows=4, pe_cols=4, clock_hz=100e6)
        twin = SystolicConfig(pe_rows=4, pe_cols=4, clock_hz=100e6)
        assert config.cycle_key == replace(config, clock_hz=1.0)
        assert config.cycle_key is config.cycle_key
        assert config == twin and hash(config) == hash(twin)
        assert replace(config, clock_hz=250e6).cycle_key == config.cycle_key
        assert "cycle_key" not in vars(replace(config, macs_per_pe=2))

    def test_describe_distinguishes_designs(self):
        assert "ONE-SA" in ONE_SA_PAPER_CONFIG.describe()
        assert ONE_SA_PAPER_CONFIG.describe() != SA_PAPER_CONFIG.describe()

    def test_total_buffer_bytes_sums_components(self):
        cfg = ONE_SA_PAPER_CONFIG
        expected = 3 * 288 + 24 * 512 + 64 * 96 + 64 * 32
        assert cfg.total_buffer_bytes == expected


class TestBuffers:
    def test_fifo_order(self):
        fifo = Fifo("f", 4)
        for i in range(3):
            fifo.push(i)
        assert [fifo.pop() for _ in range(3)] == [0, 1, 2]
        assert fifo.high_water == 3

    def test_fifo_overflow(self):
        fifo = Fifo("f", 1)
        fifo.push(1)
        with pytest.raises(BufferOverflowError):
            fifo.push(2)

    def test_fifo_underflow(self):
        with pytest.raises(IndexError):
            Fifo("f", 1).pop()


class TestParameterStore:
    def test_preload_once(self):
        store = ParameterStore(128)
        assert store.ensure("gelu@0.25", 64)
        assert not store.ensure("gelu@0.25", 64)
        assert store.used_segments == 64

    def test_eviction_on_pressure(self):
        store = ParameterStore(100)
        store.ensure("a", 60)
        store.ensure("b", 60)  # evicts a
        assert store.swaps == 1
        assert "a" not in store.resident
        assert "b" in store.resident

    def test_oversized_table_rejected(self):
        store = ParameterStore(32)
        with pytest.raises(BufferOverflowError):
            store.ensure("big", 64)


class TestHierarchy:
    def test_build_hierarchy_structure(self):
        """The array holds the k/b store sized by the design point, and
        ``reset()`` hands it an empty one."""
        array = SystolicArray(ONE_SA_PAPER_CONFIG)
        params = array.params
        assert isinstance(params, ParameterStore)
        assert params.capacity_segments == ONE_SA_PAPER_CONFIG.segment_capacity
        params.ensure("gelu@0.25", 64)
        array.reset()
        assert array.params is not params and array.params.resident == {}

    def test_hierarchy_capacities_match_config(self):
        for capacity in (32, 64, 256):
            cfg = SystolicConfig(segment_capacity=capacity)
            params = SystolicArray(cfg).params
            assert params.capacity_segments == capacity
            assert params.ensure("fits", capacity)
            with pytest.raises(BufferOverflowError):
                params.ensure("too_big", capacity + 1)
