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

The functional math lives in :mod:`repro.core.ipf`.  This module holds
what the array charges for the pass: the table preload into the k/b
store and the streaming cycles.  The FIFO-by-FIFO walk is the test
oracle ``tests/reference/dataflow.py``.
"""

from __future__ import annotations

from repro.core.segment_table import QuantizedSegmentTable
from repro.systolic.buffers import ParameterStore


class DataAddressing:
    """Cost model of the L3 data-addressing datapath.

    Parameters
    ----------
    port_width:
        Elements per cycle the module accepts — the L3 output port width
        (``l3_out_width`` of the design point); the module is pipelined
        at one batch per cycle.
    """

    def __init__(self, port_width: int = 4):
        self.port_width = port_width

    def preload(self, qtable: QuantizedSegmentTable, store: ParameterStore) -> bool:
        """Load a segment table into the k/b buffers.

        Returns True when a preload transaction actually occurred (the
        table was not already resident in ``store``).
        """
        return store.ensure(
            f"{qtable.table.name}@{qtable.table.granularity}",
            qtable.n_segments,
        )

    def cycles(self, elements: int) -> int:
        """Cycles to stream ``elements`` through the module: one port-wide
        batch per cycle plus the three-stage pipeline latency (Fig. 5)."""
        return -(-elements // self.port_width) + 3
