"""Buffer and FIFO models of the three-level memory hierarchy.

The classic systolic array (Fig. 2) has an L3 buffer per stream (input,
weight, output), an L2 bank per array edge lane and an L1 register file
per PE.  ONE-SA extends the L3 buffers with the data-addressing module
(:mod:`repro.systolic.addressing`) and the k/b parameter store.

These classes carry *capacity accounting*: they track occupancy in
elements, raise on overflow, and count total traffic so the cycle-level
simulator and the tests can verify that the dataflow respects the
Table V buffer geometry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional

import numpy as np


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
class Buffer:
    """A capacity-checked scratch buffer holding fixed-point elements.

    ``capacity_elements`` is derived from the byte geometry in
    :class:`~repro.systolic.config.SystolicConfig`.  ``load``/``read``
    model whole-row transactions (the granularity the dataflow schedules
    use); traffic counters accumulate element counts for the energy and
    bandwidth accounting.
    """

    name: str
    capacity_elements: int
    occupancy: int = 0
    loads: int = 0
    reads: int = 0
    elements_in: int = 0
    elements_out: int = 0
    high_water: int = 0

    def load(self, n_elements: int) -> None:
        """Account an ``n_elements``-element write into the buffer."""
        if n_elements < 0:
            raise ValueError("n_elements must be non-negative")
        if self.occupancy + n_elements > self.capacity_elements:
            raise BufferOverflowError(
                f"buffer {self.name!r}: load of {n_elements} exceeds capacity "
                f"{self.capacity_elements} (occupancy {self.occupancy})"
            )
        self.occupancy += n_elements
        self.loads += 1
        self.elements_in += n_elements
        self.high_water = max(self.high_water, self.occupancy)

    def read(self, n_elements: int) -> None:
        """Account an ``n_elements``-element read (and drain) out."""
        if n_elements > self.occupancy:
            raise BufferOverflowError(
                f"buffer {self.name!r}: read of {n_elements} exceeds occupancy "
                f"{self.occupancy}"
            )
        self.occupancy -= n_elements
        self.reads += 1
        self.elements_out += n_elements

    def drain(self) -> None:
        """Empty the buffer (end of a tile's lifetime)."""
        self.occupancy = 0


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


def build_hierarchy(config) -> dict:
    """Instantiate the full buffer hierarchy for a design point.

    Returns a dict with the three L3 buffers, the L2 bank lists and the
    per-PE L1 entries, all sized per :class:`SystolicConfig`.
    """
    eb = config.element_bytes
    l3_capacity = config.l3_bytes // eb
    l2_capacity = config.l2_bytes // eb
    l1_capacity = config.l1_bytes // eb
    hierarchy = {
        "l3": {
            name: Buffer(f"L3.{name}", l3_capacity)
            for name in ("input", "weight", "output")
        },
        # Input banks sit on the row lanes; weight and output banks on
        # the column lanes (identical counts on square grids).
        "l2": {
            name: [
                Buffer(f"L2.{name}[{i}]", l2_capacity)
                for i in range(
                    config.pe_rows if name == "input" else config.pe_cols
                )
            ]
            for name in ("input", "weight", "output")
        },
        "l1": [
            Buffer(f"L1[{i}]", l1_capacity) for i in range(config.n_pes)
        ],
        "params": ParameterStore(config.segment_capacity),
    }
    return hierarchy
