"""The k/b parameter store ONE-SA adds to the L3 level.

The classic systolic array (Fig. 2) has an L3 buffer per stream (input,
weight, output), an L2 bank per array edge lane and an L1 register file
per PE; their sizes are :class:`~repro.systolic.config.SystolicConfig`
geometry (Table V), which the cycle model reads.  ONE-SA extends the L3
level with the data-addressing module (:mod:`repro.systolic.addressing`)
and the :class:`ParameterStore` holding the CPWL ``(k, b)`` tables, which
carries *capacity accounting*: it tracks occupancy, raises on overflow
and counts traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class BufferOverflowError(RuntimeError):
    """Raised when a write exceeds a buffer's configured capacity."""


@dataclass
class ParameterStore:
    """The L3-resident CPWL ``(k, b)`` store added by ONE-SA.

    Holds the quantized slope/intercept arrays of the currently loaded
    segment tables, bounded by ``capacity_segments`` (the
    ``segment_capacity`` of the design point).  ``resident`` maps a table
    identity to its segment count so the executor can decide when a
    table swap — and its preload traffic — is needed.
    """

    capacity_segments: int
    resident: dict = field(default_factory=dict)
    swaps: int = 0
    preloaded_segments: int = 0

    @property
    def used_segments(self) -> int:
        return sum(self.resident.values())

    def ensure(self, table_id: str, n_segments: int) -> bool:
        """Make a table resident; returns True when a preload happened.

        Eviction is least-recently-loaded; a table larger than the whole
        store is rejected (the granularity is "limited by the size of the
        L3 buffer", Section V-B).
        """
        if n_segments > self.capacity_segments:
            raise BufferOverflowError(
                f"segment table {table_id!r} needs {n_segments} segments; "
                f"parameter store holds {self.capacity_segments}"
            )
        if table_id in self.resident:
            return False
        while self.used_segments + n_segments > self.capacity_segments:
            evicted = next(iter(self.resident))
            del self.resident[evicted]
            self.swaps += 1
        self.resident[table_id] = n_segments
        self.preloaded_segments += n_segments
        return True
