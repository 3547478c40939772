"""Event-level (PE-by-PE) cycle simulator.

This simulator steps an actual grid of
:class:`~tests.reference.pe.ProcessingElement` objects cycle by cycle,
with skewed operand wavefronts and one-cycle forwarding latency, for
both operating modes:

* **GEMM** — output-stationary: A rows stream from the west, B columns
  from the north, every PE accumulates one output element;
* **MHP** — diagonal dataflow: the interleaved ``(x, 1)`` stream of
  :func:`~tests.reference.rearrange.rearrange_for_mhp` flows along the
  rows and the ``(k, b)`` stream down the columns, ``macs_per_pe``
  elements (``macs_per_pe / 2`` pairs) per lane per cycle; the diagonal
  computation PEs consume them (C1 off) while all other PEs are pure
  transmission (C2 off).

It is deliberately small-scale (used on grids up to ~8×8 in the tests)
and exists to *validate* what the array computes and charges: its
results must be bit-identical to ``fixed_matmul`` /
``fixed_hadamard_mac``, and its measured cycle counts must match the
closed-form :mod:`repro.systolic.timing` model's compute phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.systolic.config import SystolicConfig
from tests.reference.pe import PEMode, ProcessingElement
from tests.reference.rearrange import rearrange_for_mhp


@dataclass
class CycleSimResult:
    """Output of one cycle-level run."""

    output: np.ndarray
    cycles: int
    mac_ops_by_pe: np.ndarray  # (rows, cols) MAC counters
    forwards_by_pe: np.ndarray  # (rows, cols) forward counters

    @property
    def active_pes(self) -> int:
        """PEs that performed at least one MAC."""
        return int(np.count_nonzero(self.mac_ops_by_pe))


class CycleSimulator:
    """Steps a PE grid with synchronous one-cycle links."""

    def __init__(self, config: SystolicConfig) -> None:
        self.config = config
        self.grid: List[List[ProcessingElement]] = [
            [
                ProcessingElement(row=i, col=j, macs=config.macs_per_pe, fmt=config.fmt)
                for j in range(config.pe_cols)
            ]
            for i in range(config.pe_rows)
        ]

    def _configure(self, mode_of) -> None:
        for row in self.grid:
            for pe in row:
                pe.configure(mode_of(pe.row, pe.col))

    def _run(self, west_inject, north_inject, n_cycles: int) -> int:
        """Advance the grid ``n_cycles`` with the given injectors.

        ``west_inject(i, cycle)`` / ``north_inject(j, cycle)`` return the
        operand chunk entering row ``i`` / column ``j`` edge at a cycle,
        or ``None``.  Returns the number of cycles stepped.
        """
        rows, cols = self.config.pe_rows, self.config.pe_cols
        for cycle in range(n_cycles):
            # Operands flow strictly east and south, so stepping PEs in
            # ascending (i, j) order within a cycle lets each PE read the
            # value its west/north neighbour just emitted — which is that
            # neighbour's register from the *previous* cycle, giving the
            # correct one-cycle hop latency.
            east_cur = [[None] * cols for _ in range(rows)]
            south_cur = [[None] * cols for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    west = east_cur[i][j - 1] if j > 0 else west_inject(i, cycle)
                    north = south_cur[i - 1][j] if i > 0 else north_inject(j, cycle)
                    east, south = self.grid[i][j].step(west, north)
                    east_cur[i][j] = east
                    south_cur[i][j] = south
        return n_cycles

    def _stats(self) -> tuple[np.ndarray, np.ndarray]:
        rows, cols = self.config.pe_rows, self.config.pe_cols
        macs = np.zeros((rows, cols), dtype=np.int64)
        fwd = np.zeros((rows, cols), dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                macs[i, j] = self.grid[i][j].stats.mac_ops
                fwd[i, j] = self.grid[i][j].stats.forwards
        return macs, fwd

    # ------------------------------------------------------------------
    # GEMM mode
    # ------------------------------------------------------------------
    def run_gemm_tile(self, a_raw: np.ndarray, b_raw: np.ndarray) -> CycleSimResult:
        """Compute one output tile ``A[MxK] @ B[KxN]`` (M, N <= grid).

        A's rows stream east in ``macs_per_pe``-element chunks, skewed by
        one cycle per row; B's columns stream south, skewed by one cycle
        per column.  After the last chunk has traversed the grid every
        PE(i, j) holds the accumulated dot product ``A[i, :] . B[:, j]``.
        """
        a_raw = np.asarray(a_raw, dtype=np.int64)
        b_raw = np.asarray(b_raw, dtype=np.int64)
        m_dim, k_dim = a_raw.shape
        k2, n_dim = b_raw.shape
        if k2 != k_dim:
            raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
        rows, cols = self.config.pe_rows, self.config.pe_cols
        if m_dim > rows or n_dim > cols:
            raise ValueError(
                f"tile {m_dim}x{n_dim} exceeds the {rows}x{cols} grid; "
                "tile the problem first"
            )
        macs = self.config.macs_per_pe
        n_chunks = -(-k_dim // macs)
        # Zero-pad K to a whole number of chunks (zeros do not change sums).
        padded_k = n_chunks * macs
        a_pad = np.zeros((m_dim, padded_k), dtype=np.int64)
        a_pad[:, :k_dim] = a_raw
        b_pad = np.zeros((padded_k, n_dim), dtype=np.int64)
        b_pad[:k_dim, :] = b_raw

        self._configure(lambda i, j: PEMode.GEMM)

        def west_inject(i: int, cycle: int) -> Optional[np.ndarray]:
            if i >= m_dim:
                return None
            t = cycle - i  # one-cycle skew per row
            if 0 <= t < n_chunks:
                return a_pad[i, t * macs : (t + 1) * macs]
            return None

        def north_inject(j: int, cycle: int) -> Optional[np.ndarray]:
            if j >= n_dim:
                return None
            t = cycle - j
            if 0 <= t < n_chunks:
                return b_pad[t * macs : (t + 1) * macs, j]
            return None

        # Last chunk enters row m-1 at cycle (m-1) + n_chunks - 1 and needs
        # n_dim - 1 forwarding hops plus its own compute cycle.
        n_cycles = n_chunks + (m_dim - 1) + (n_dim - 1) + 1
        cycles = self._run(west_inject, north_inject, n_cycles)

        out = np.zeros((m_dim, n_dim), dtype=self.config.fmt.storage_dtype())
        for i in range(m_dim):
            for j in range(n_dim):
                out[i, j] = self.grid[i][j].writeback()
        mac_ops, forwards = self._stats()
        return CycleSimResult(
            output=out, cycles=cycles, mac_ops_by_pe=mac_ops, forwards_by_pe=forwards
        )

    # ------------------------------------------------------------------
    # MHP mode
    # ------------------------------------------------------------------
    def run_mhp(
        self, x_raw: np.ndarray, k_raw: np.ndarray, b_raw: np.ndarray
    ) -> CycleSimResult:
        """Run a Matrix Hadamard Product through the diagonal dataflow.

        Row ``r`` of the operand matrices is assigned to lane
        ``r % pe_rows``; its interleaved ``(x, 1)`` stream enters that row
        from the west while the matching ``(k, b)`` stream enters the
        lane's column from the north, ``macs_per_pe`` elements per cycle
        — the injection rate the closed form charges (a one-MAC PE takes
        a pair over two cycles).  They meet at the diagonal computation
        PE after exactly ``lane`` forwarding hops on each path, so no
        extra skew is needed.
        """
        x_raw = np.atleast_2d(np.asarray(x_raw, dtype=np.int64))
        k_raw = np.atleast_2d(np.asarray(k_raw, dtype=np.int64))
        b_raw = np.atleast_2d(np.asarray(b_raw, dtype=np.int64))
        if not (x_raw.shape == k_raw.shape == b_raw.shape):
            raise ValueError("MHP operands must share a shape")
        m_dim, n_dim = x_raw.shape
        p = self.config.pe_rows
        macs = self.config.macs_per_pe
        streams = rearrange_for_mhp(
            x_raw, k_raw, b_raw, p, np.int64(1) << self.config.fmt.frac_bits
        )

        self._configure(
            lambda i, j: PEMode.COMPUTATION if i == j else PEMode.TRANSMISSION
        )

        # Per-lane streams, in row-major order.
        lane_row_order = [np.arange(lane, m_dim, p) for lane in range(p)]
        lane_in = [streams.input_stream[rows].reshape(-1) for rows in lane_row_order]
        lane_weight = [streams.weight_stream[rows].reshape(-1) for rows in lane_row_order]

        def chunk(stream: np.ndarray, cycle: int) -> Optional[np.ndarray]:
            if cycle * macs < stream.size:
                return stream[cycle * macs : (cycle + 1) * macs]
            return None

        def west_inject(i: int, cycle: int) -> Optional[np.ndarray]:
            return chunk(lane_in[i], cycle)

        def north_inject(j: int, cycle: int) -> Optional[np.ndarray]:
            return chunk(lane_weight[j], cycle)

        longest = max(-(-stream.size // macs) for stream in lane_in)
        # The deepest lane (p-1) needs p-1 hops after its last injection.
        n_cycles = longest + p + 1
        cycles = self._run(west_inject, north_inject, n_cycles)

        out = np.zeros((m_dim, n_dim), dtype=self.config.fmt.storage_dtype())
        for lane in range(p):
            rows = lane_row_order[lane]
            if rows.size == 0:
                continue
            produced = np.array(
                self.grid[lane][lane].output_buffer,
                dtype=self.config.fmt.storage_dtype(),
            )
            out[rows] = produced.reshape(rows.size, n_dim)
        mac_ops, forwards = self._stats()
        return CycleSimResult(
            output=out, cycles=cycles, mac_ops_by_pe=mac_ops, forwards_by_pe=forwards
        )
