"""L3 data-addressing module (Fig. 5).

The module sits in the L3 output path.  As the previous operation's
output ``C`` (now re-interpreted as the nonlinear input ``X``) streams
through, each element passes the **data-shift** stage (segment index by
arithmetic shift — segment lengths are powers of two), then the
**scale** stage (``s = max[min(s, s_max), s_min]`` capping, plus the
multiply path for non-power-of-two granularities), and the scaled index
addresses the preloaded **k/b buffers**; the fetched parameters leave
through the k FIFO and Reg FIFO toward DRAM, laid out exactly like a
conventional GEMM output.

The functional math lives in :mod:`repro.core.ipf`; this module adds the
structural model: FIFO staging, throughput, and traffic accounting used
by the timing model and the cycle-level tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ipf import IPFResult, fetch_parameters
from repro.core.segment_table import QuantizedSegmentTable
from repro.fixedpoint import QFormat
from repro.systolic.buffers import Fifo, ParameterStore


@dataclass
class AddressingStats:
    """Traffic and occupancy statistics of one addressing run."""

    elements: int
    capped_low: int
    capped_high: int
    shift_path: bool
    fifo_high_water: int
    cycles: int


class DataAddressing:
    """Structural model of the L3 data-addressing datapath.

    Parameters
    ----------
    fmt:
        Datapath fixed-point format.
    port_width:
        Elements per cycle the module accepts — the L3 output port width
        (``l3_out_width`` of the design point); the module is pipelined
        at one batch per cycle.
    fifo_depth:
        Depth of the C/k/Reg FIFOs (the 32 B region → 16 INT16 entries).
    """

    def __init__(self, fmt: QFormat, port_width: int = 4, fifo_depth: int = 16):
        self.fmt = fmt
        self.port_width = port_width
        self.c_fifo = Fifo("C", fifo_depth)
        self.k_fifo = Fifo("k", fifo_depth)
        self.reg_fifo = Fifo("Reg", fifo_depth)
        self.params = None  # type: QuantizedSegmentTable | None

    def preload(self, qtable: QuantizedSegmentTable, store: ParameterStore) -> bool:
        """Load a segment table into the k/b buffers.

        Returns True when a preload transaction actually occurred (the
        table was not already resident in ``store``).
        """
        self.params = qtable
        return store.ensure(
            f"{qtable.table.name}@{qtable.table.granularity}",
            qtable.n_segments,
        )

    def run(self, x_raw: np.ndarray) -> tuple[IPFResult, AddressingStats]:
        """Stream the matrix ``X`` through the addressing datapath.

        Functionally identical to :func:`repro.core.ipf.fetch_parameters`;
        additionally models the FIFO staging batch by batch and reports
        cycle count (:meth:`cycles`) and capping statistics.  The array
        charges the same cycles from the shape alone; this walk is the
        structural reference the traced-inference benchmark runs.
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

    def cycles(self, elements: int) -> int:
        """Cycles to stream ``elements`` through the module: one port-wide
        batch per cycle plus the three-stage pipeline latency (Fig. 5)."""
        return -(-elements // self.port_width) + 3
