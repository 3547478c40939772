"""The per-tile GEMM, the lane-by-lane MHP and the structural addressing
walk: the loops the array's shape charges stand for.

* :func:`execute_gemm_per_tile` dispatches one ``fixed_matmul`` per
  output tile of :func:`tiles`, the seed's GEMM loop.  Every output
  element is one wide-accumulated dot product with one saturating
  writeback however the schedule partitions it, so the array's
  whole-operand call equals it bit for bit;
* :func:`execute_mhp_per_lane` runs one ``fixed_hadamard_mac`` per
  diagonal lane of :func:`lane_rows`.  Each output element is computed
  by exactly one diagonal PE, so the whole-operand call equals it too;
* :class:`StructuralAddressing` streams ``X`` through the addressing
  module's FIFOs batch by batch (Fig. 5), where the array charges
  :meth:`~repro.systolic.addressing.DataAddressing.cycles` from the
  element count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterator, List

import numpy as np

from repro.core.ipf import IPFResult, fetch_parameters
from repro.core.segment_table import QuantizedSegmentTable
from repro.fixedpoint import QFormat, fixed_hadamard_mac, fixed_matmul
from repro.systolic.addressing import DataAddressing
from repro.systolic.buffers import BufferOverflowError, ParameterStore
from repro.systolic.config import SystolicConfig
from repro.systolic.gemm import GemmSchedule, plan_gemm
from repro.systolic.mhp_dataflow import MHPSchedule, plan_mhp


# --------------------------------------------------------------------------
# GEMM: output-stationary tiles
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class GemmTile:
    """One output tile of the GEMM schedule."""

    row_start: int
    row_end: int
    col_start: int
    col_end: int
    index: int


class GemmTiling:
    """Lazy row-major tile enumeration of one GEMM's output.

    Has a ``len`` and iterates :class:`GemmTile` in row-major order,
    each derived from the geometry on demand, so holding a tiling costs
    O(1) memory no matter how many tiles the schedule has.
    """

    __slots__ = ("m_dim", "n_dim", "tile_rows", "tile_cols", "tiles_m", "tiles_n")

    def __init__(self, m_dim: int, n_dim: int, tile_rows: int, tile_cols: int):
        self.m_dim = m_dim
        self.n_dim = n_dim
        self.tile_rows = tile_rows
        self.tile_cols = tile_cols
        self.tiles_m = -(-m_dim // tile_rows)
        self.tiles_n = -(-n_dim // tile_cols)

    def __len__(self) -> int:
        return self.tiles_m * self.tiles_n

    def _make(self, index: int) -> GemmTile:
        bi, bj = divmod(index, self.tiles_n)
        row_start = bi * self.tile_rows
        col_start = bj * self.tile_cols
        return GemmTile(
            row_start=row_start,
            row_end=min(row_start + self.tile_rows, self.m_dim),
            col_start=col_start,
            col_end=min(col_start + self.tile_cols, self.n_dim),
            index=index,
        )

    def __iter__(self) -> Iterator[GemmTile]:
        for index in range(len(self)):
            yield self._make(index)


def tiles(schedule: GemmSchedule) -> GemmTiling:
    """The output tiles of ``schedule``: rows tile with ``pe_rows`` and
    columns with ``pe_cols``, so rectangular grids get their own shape."""
    return GemmTiling(
        schedule.m_dim, schedule.n_dim, schedule.config.pe_rows, schedule.config.pe_cols
    )


def execute_gemm_per_tile(
    config: SystolicConfig,
    a_raw: np.ndarray,
    b_raw: np.ndarray,
    use_plan_cache: bool = True,
) -> tuple[np.ndarray, GemmSchedule]:
    """Seed-faithful per-tile GEMM: the result tile by tile in schedule
    order, one :func:`fixed_matmul` per output tile."""
    a_raw = np.asarray(a_raw)
    b_raw = np.asarray(b_raw)
    if a_raw.ndim != 2 or b_raw.ndim != 2:
        raise ValueError("execute_gemm_per_tile expects 2-D raw operands")
    if a_raw.shape[1] != b_raw.shape[0]:
        raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
    m_dim, k_dim, n_dim = a_raw.shape[0], a_raw.shape[1], b_raw.shape[1]
    schedule = plan_gemm(config, m_dim, k_dim, n_dim, use_cache=use_plan_cache)
    out = np.zeros((m_dim, n_dim), dtype=config.fmt.storage_dtype())
    for tile in tiles(schedule):
        a_block = a_raw[tile.row_start : tile.row_end, :]
        b_block = b_raw[:, tile.col_start : tile.col_end]
        out[tile.row_start : tile.row_end, tile.col_start : tile.col_end] = (
            fixed_matmul(a_block, b_block, config.fmt)
        )
    return out, schedule


# --------------------------------------------------------------------------
# MHP: diagonal lanes
# --------------------------------------------------------------------------
def lane_rows(schedule: MHPSchedule) -> List[np.ndarray]:
    """Row indices assigned to each diagonal lane: rows round-robin over
    the ``pe_rows`` lanes."""
    return [
        np.arange(lane, schedule.m_dim, schedule.config.pe_rows)
        for lane in range(schedule.config.pe_rows)
    ]


def _validate_mhp_operands(
    x_raw: np.ndarray, k_raw: np.ndarray, b_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x_raw = np.atleast_2d(np.asarray(x_raw))
    k_raw = np.atleast_2d(np.asarray(k_raw))
    b_raw = np.atleast_2d(np.asarray(b_raw))
    if not (x_raw.shape == k_raw.shape == b_raw.shape):
        raise ValueError(
            f"MHP operands must share a shape, got {x_raw.shape}, "
            f"{k_raw.shape}, {b_raw.shape}"
        )
    return x_raw, k_raw, b_raw


def execute_mhp_per_lane(
    config: SystolicConfig,
    x_raw: np.ndarray,
    k_raw: np.ndarray,
    b_raw: np.ndarray,
    fused_ipf: bool = True,
) -> tuple[np.ndarray, MHPSchedule]:
    """Seed-faithful lane-by-lane MHP execution."""
    x_raw, k_raw, b_raw = _validate_mhp_operands(x_raw, k_raw, b_raw)
    m_dim, n_dim = x_raw.shape
    schedule = plan_mhp(config, m_dim, n_dim, fused_ipf=fused_ipf, use_cache=False)
    out = np.zeros_like(x_raw)
    for rows in lane_rows(schedule):
        if rows.size == 0:
            continue
        out[rows] = fixed_hadamard_mac(x_raw[rows], k_raw[rows], b_raw[rows], config.fmt)
    return out, schedule


# --------------------------------------------------------------------------
# The L3 data-addressing module (Fig. 5)
# --------------------------------------------------------------------------
@dataclass
class Fifo:
    """Bounded FIFO used inside the L3 data-addressing module (Fig. 5).

    Tracks pushes/pops and the high-water mark so tests can check the
    module never needs more storage than the 32 B FIFO region the L3
    geometry reserves.
    """

    name: str
    capacity: int
    _items: Deque = field(default_factory=deque)
    pushes: int = 0
    pops: int = 0
    high_water: int = 0

    def push(self, item) -> None:
        if len(self._items) >= self.capacity:
            raise BufferOverflowError(
                f"FIFO {self.name!r} overflow (capacity {self.capacity})"
            )
        self._items.append(item)
        self.pushes += 1
        self.high_water = max(self.high_water, len(self._items))

    def pop(self):
        if not self._items:
            raise IndexError(f"FIFO {self.name!r} underflow")
        self.pops += 1
        return self._items.popleft()


@dataclass
class AddressingStats:
    """Traffic and occupancy statistics of one addressing run."""

    elements: int
    capped_low: int
    capped_high: int
    shift_path: bool
    fifo_high_water: int
    cycles: int


class StructuralAddressing(DataAddressing):
    """The addressing module with its datapath: the C, k and Reg FIFOs
    of ``fifo_depth`` entries (the 32 B region holds 16 INT16 entries)
    and the segment table :meth:`preload` made current, which
    :meth:`run` streams ``X`` against in format ``fmt``."""

    def __init__(self, fmt: QFormat, port_width: int = 4, fifo_depth: int = 16):
        super().__init__(port_width)
        self.fmt = fmt
        self.c_fifo = Fifo("C", fifo_depth)
        self.k_fifo = Fifo("k", fifo_depth)
        self.reg_fifo = Fifo("Reg", fifo_depth)
        self.params = None  # type: QuantizedSegmentTable | None

    def preload(self, qtable: QuantizedSegmentTable, store: ParameterStore) -> bool:
        self.params = qtable
        return super().preload(qtable, store)

    def run(self, x_raw: np.ndarray) -> tuple[IPFResult, AddressingStats]:
        """Stream the matrix ``X`` through the addressing datapath.

        Functionally identical to :func:`repro.core.ipf.fetch_parameters`;
        additionally models the FIFO staging batch by batch and reports
        cycle count (:meth:`cycles`) and capping statistics.
        """
        if self.params is None:
            raise RuntimeError("no segment table preloaded into the k/b buffers")
        x_raw = np.asarray(x_raw)
        result = fetch_parameters(x_raw, self.params, self.fmt)

        flat = x_raw.reshape(-1)
        n = flat.size
        # FIFO staging: each cycle, up to port_width elements enter the
        # C FIFO, are shifted/scaled, and their parameters leave through
        # the k and Reg FIFOs.  Because drain matches fill rate, the
        # high-water mark stays at one batch.
        for start in range(0, min(n, 4 * self.port_width), self.port_width):
            batch = flat[start : start + self.port_width]
            for item in batch:
                self.c_fifo.push(item)
            for item in batch:
                self.c_fifo.pop()
                self.k_fifo.push(item)
                self.reg_fifo.push(item)
            for _ in batch:
                self.k_fifo.pop()
                self.reg_fifo.pop()

        segments = result.segments
        table = self.params.table
        capped_low = int(np.count_nonzero(segments == 0))
        capped_high = int(np.count_nonzero(segments == table.n_segments - 1))
        stats = AddressingStats(
            elements=n,
            capped_low=capped_low,
            capped_high=capped_high,
            shift_path=result.shift_path,
            fifo_high_water=max(
                self.c_fifo.high_water,
                self.k_fifo.high_water,
                self.reg_fifo.high_water,
            ),
            cycles=self.cycles(n),
        )
        return result, stats
