"""Unit tests for the design-point configuration and buffer geometry."""

import numpy as np
import pytest

from repro.systolic.buffers import (
    Buffer,
    BufferOverflowError,
    Fifo,
    ParameterStore,
    build_hierarchy,
)
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
        h = build_hierarchy(cfg)
        assert len(h["l2"]["input"]) == 4
        assert len(h["l2"]["weight"]) == 8
        assert len(h["l2"]["output"]) == 8

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SystolicConfig(pe_rows=0, pe_cols=0)
        with pytest.raises(ValueError):
            SystolicConfig(macs_per_pe=0)
        with pytest.raises(ValueError):
            SystolicConfig(clock_hz=0)
        with pytest.raises(ValueError):
            SystolicConfig(l3_out_width=0)

    def test_with_size_derives_new_point(self):
        cfg = ONE_SA_PAPER_CONFIG.with_size(4, 8)
        assert cfg.pe_rows == 4
        assert cfg.macs_per_pe == 8
        assert cfg.nonlinear_enabled == ONE_SA_PAPER_CONFIG.nonlinear_enabled

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
    def test_buffer_load_read_cycle(self):
        buf = Buffer("t", 100)
        buf.load(60)
        assert buf.occupancy == 60
        buf.read(50)
        assert buf.occupancy == 10
        assert buf.elements_in == 60
        assert buf.elements_out == 50
        assert buf.high_water == 60

    def test_buffer_overflow(self):
        buf = Buffer("t", 10)
        with pytest.raises(BufferOverflowError):
            buf.load(11)

    def test_buffer_underflow(self):
        buf = Buffer("t", 10)
        buf.load(2)
        with pytest.raises(BufferOverflowError):
            buf.read(3)

    def test_buffer_drain(self):
        buf = Buffer("t", 10)
        buf.load(5)
        buf.drain()
        assert buf.occupancy == 0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            Buffer("t", 10).load(-1)

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
        h = build_hierarchy(ONE_SA_PAPER_CONFIG)
        assert set(h["l3"]) == {"input", "weight", "output"}
        assert len(h["l2"]["input"]) == 8
        assert len(h["l1"]) == 64
        assert h["params"].capacity_segments == ONE_SA_PAPER_CONFIG.segment_capacity

    def test_hierarchy_capacities_match_config(self):
        cfg = ONE_SA_PAPER_CONFIG
        h = build_hierarchy(cfg)
        assert h["l3"]["input"].capacity_elements == cfg.l3_bytes // 2
        assert h["l2"]["weight"][0].capacity_elements == cfg.l2_bytes // 2
        assert h["l1"][0].capacity_elements == cfg.l1_bytes // 2
