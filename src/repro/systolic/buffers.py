"""The k/b parameter store and FIFOs ONE-SA adds to the L3 level.

The classic systolic array (Fig. 2) has an L3 buffer per stream (input,
weight, output), an L2 bank per array edge lane and an L1 register file
per PE; their sizes are :class:`~repro.systolic.config.SystolicConfig`
geometry (Table V), which the cycle model reads.  ONE-SA extends the L3
level with the data-addressing module (:mod:`repro.systolic.addressing`),
whose :class:`Fifo` stages, and the :class:`ParameterStore` holding the
CPWL ``(k, b)`` tables.  Both carry *capacity accounting*: they track
occupancy, raise on overflow and count traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque


class BufferOverflowError(RuntimeError):
    """Raised when a write exceeds a buffer's configured capacity."""


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
