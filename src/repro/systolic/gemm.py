"""GEMM dataflow schedule and tiling.

The *modelled hardware* computes ``C = A @ B`` as output-stationary
P×P tiles: a weight tile is preloaded, the matching input rows stream
through, every PE accumulates one output element (``macs_per_pe``
reduction lanes per cycle), and the finished tile drains through the
L2 output banks into the single L3 output buffer.  The *software* does
not loop over those tiles: since PR 2 the functional result is one
whole-operand :func:`repro.fixedpoint.fixed_matmul` call, and the tile
schedule survives purely as analytic metadata for the trace and energy
accounting.

This module derives that tile schedule analytically, computes cycle
costs consistent with :mod:`repro.systolic.timing`, and provides the
bit-accurate whole-matrix functional execution.

Two hot-path properties matter for serving throughput:

* **Plans are memoised.**  Serving traffic repeats a handful of layer
  shapes, so :func:`plan_gemm` keeps a bounded per-process LRU keyed on
  ``(config, M, K, N)`` (as :mod:`repro.core.nonlinear_ops` does for
  approximators) — steady-state planning is a dict hit.
* **Tiles are enumerated lazily.**  :class:`GemmSchedule.tiles` is a
  :class:`GemmTiling` sequence that *derives* each
  :class:`GemmTile` analytically; consumers that only need the tile
  count never force an O(tiles) allocation.

Functional execution is one whole-operand :func:`fixed_matmul` call:
every output element is a single dot product with one saturating
writeback regardless of how the schedule partitions it into tiles, so
the whole-matrix result is bit-identical to the per-tile loop
(:func:`execute_gemm_per_tile` keeps the loop as the equivalence
reference the test suite pins the refactor against).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.fixedpoint import fixed_matmul
from repro.systolic.config import SystolicConfig
from repro.systolic.timing import CycleBreakdown, gemm_cycles


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


@dataclass(frozen=True)
class GemmSchedule:
    """Complete schedule of one GEMM on a design point.

    The schedule is pure analytic metadata — tile geometry and cycle
    breakdown — so instances are immutable and shared
    freely through the plan cache.
    """

    config: SystolicConfig
    m_dim: int
    k_dim: int
    n_dim: int
    breakdown: CycleBreakdown

    @property
    def tiles(self) -> GemmTiling:
        """Lazy tile enumeration (row-major, O(1) memory)."""
        return GemmTiling(
            self.m_dim, self.n_dim, self.config.pe_rows, self.config.pe_cols
        )

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations."""
        return self.m_dim * self.k_dim * self.n_dim


#: Plans kept per process.  A plan is a pure function of ``(config, M,
#: K, N)``, so it is memoised where it is defined and never shared: on a
#: 2-core x86 host a cold build takes 3-6 us and reading a pickled plan
#: back from disk 190-280 us.  Serving repeats a handful of shapes; the
#: bound only stops a shape-churning design-space sweep from growing the
#: memo without limit.
GEMM_PLANS = 512


@functools.lru_cache(maxsize=GEMM_PLANS)
def _gemm_plan(
    config: SystolicConfig, m_dim: int, k_dim: int, n_dim: int
) -> GemmSchedule:
    return GemmSchedule(
        config=config,
        m_dim=m_dim,
        k_dim=k_dim,
        n_dim=n_dim,
        breakdown=gemm_cycles(config, m_dim, k_dim, n_dim),
    )


def plan_gemm(
    config: SystolicConfig,
    m_dim: int,
    k_dim: int,
    n_dim: int,
    use_cache: bool = True,
) -> GemmSchedule:
    """Build (or fetch) the schedule for ``C[M,N] = A[M,K] @ B[K,N]``.

    Output rows tile with ``pe_rows`` and output columns with
    ``pe_cols``, so rectangular PE grids produce correctly shaped tiles.
    Schedules are immutable and memoised per process (at most
    :data:`GEMM_PLANS`, least recently used first out; inspect with
    ``plan_gemm.cache_info()``, empty with ``plan_gemm.cache_clear()``);
    pass ``use_cache=False`` to force a fresh build (the equivalence
    tests and seed-faithful benchmarks use this).
    """
    build = _gemm_plan if use_cache else _gemm_plan.__wrapped__
    return build(config, m_dim, k_dim, n_dim)


plan_gemm.cache_info = _gemm_plan.cache_info
plan_gemm.cache_clear = _gemm_plan.cache_clear


def _validate_operands(a_raw: np.ndarray, b_raw: np.ndarray) -> tuple[int, int, int]:
    if a_raw.ndim != 2 or b_raw.ndim != 2:
        raise ValueError("execute_gemm expects 2-D raw operands")
    if a_raw.shape[1] != b_raw.shape[0]:
        raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
    return a_raw.shape[0], a_raw.shape[1], b_raw.shape[1]


def execute_gemm(
    config: SystolicConfig, a_raw: np.ndarray, b_raw: np.ndarray
) -> tuple[np.ndarray, GemmSchedule]:
    """Run a GEMM functionally (bit-accurate) with its schedule.

    The functional result is one whole-operand :func:`fixed_matmul`:
    every output element is a single wide-accumulated dot product with
    one saturating writeback, exactly what the PE grid produces tile by
    tile, so the whole-matrix call equals the concatenated per-tile
    results (:func:`execute_gemm_per_tile` is the retained reference and
    the test suite asserts the equivalence).  Tile geometry stays
    available as analytic metadata on the returned schedule.
    """
    a_raw = np.asarray(a_raw)
    b_raw = np.asarray(b_raw)
    m_dim, k_dim, n_dim = _validate_operands(a_raw, b_raw)
    schedule = plan_gemm(config, m_dim, k_dim, n_dim)
    out = fixed_matmul(a_raw, b_raw, config.fmt)
    return out, schedule


def execute_gemm_per_tile(
    config: SystolicConfig,
    a_raw: np.ndarray,
    b_raw: np.ndarray,
    use_plan_cache: bool = True,
) -> tuple[np.ndarray, GemmSchedule]:
    """Seed-faithful per-tile GEMM execution (equivalence reference).

    Computes the result tile by tile in schedule order, the way the
    original implementation dispatched one :func:`fixed_matmul` per
    output tile.  Kept for the equivalence tests and the traced-path
    benchmark; the production path is :func:`execute_gemm`.
    """
    a_raw = np.asarray(a_raw)
    b_raw = np.asarray(b_raw)
    m_dim, k_dim, n_dim = _validate_operands(a_raw, b_raw)
    schedule = plan_gemm(config, m_dim, k_dim, n_dim, use_cache=use_plan_cache)
    out = np.zeros((m_dim, n_dim), dtype=config.fmt.storage_dtype())
    for tile in schedule.tiles:
        a_block = a_raw[tile.row_start : tile.row_end, :]
        b_block = b_raw[:, tile.col_start : tile.col_end]
        out[tile.row_start : tile.row_end, tile.col_start : tile.col_end] = (
            fixed_matmul(a_block, b_block, config.fmt)
        )
    return out, schedule
