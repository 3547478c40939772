"""Execution trace of operations issued to the array.

The trace records one event per architecture-level operation (GEMM, IPF,
MHP, preload) with its cycle breakdown, so utilization, the Fig. 1-style
op mix and the energy accounting can all be derived from a single run.

Aggregates (total cycles, cycles/ops per kind, cycles per label) are
maintained *streaming* on :meth:`Trace.record`, so consulting them is
O(1) in the number of recorded events — a long-lived serving process can
read ``total_cycles`` per request without re-scanning its history.

Memory
------
A trace keeps aggregates only, so its memory is bounded by the number
of distinct kinds and labels, never by event count.  The
ordered ``(event, count)`` log of a stretch of work is what
:meth:`~repro.systolic.array.SystolicArray.capture` tapes, for whoever
needs one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.systolic.timing import CycleBreakdown


@dataclass(frozen=True)
class TraceEvent:
    """One operation executed by the array."""

    kind: str  # 'gemm' | 'mhp' | 'ipf' | 'preload'
    label: str
    cycles: int
    ops: int  # MACs for GEMM, elements for nonlinear events
    breakdown: Optional[CycleBreakdown] = None


class Trace:
    """O(1) streaming aggregates of the events recorded on an array."""

    def __init__(self) -> None:
        #: While a list, every :meth:`record` call is appended to it as
        #: ``(event, count)`` (see :meth:`SystolicArray.capture`).
        self.tape: Optional[list] = None
        self._n_events = 0
        self._total_cycles = 0
        self._cycles_by_kind: Dict[str, int] = {}
        self._ops_by_kind: Dict[str, int] = {}
        self._cycles_by_label: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event: TraceEvent, count: int = 1) -> None:
        """Account ``count`` occurrences of one event, as ``count`` calls
        would."""
        if self.tape is not None:
            self.tape.append((event, count))
        cycles = event.cycles * count
        self._n_events += count
        self._total_cycles += cycles
        kind = self._cycles_by_kind
        kind[event.kind] = kind.get(event.kind, 0) + cycles
        ops = self._ops_by_kind
        ops[event.kind] = ops.get(event.kind, 0) + event.ops * count
        label = self._cycles_by_label
        label[event.label] = label.get(event.label, 0) + cycles

    # ------------------------------------------------------------------
    # Aggregate views (O(1) / O(distinct keys), never O(events))
    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return self._total_cycles

    def cycles_by_kind(self) -> Dict[str, int]:
        """Aggregate cycles per operation kind."""
        return dict(self._cycles_by_kind)

    def ops_by_kind(self) -> Dict[str, int]:
        """Aggregate op counts per operation kind."""
        return dict(self._ops_by_kind)

    def cycles_by_label(self) -> Dict[str, int]:
        """Aggregate cycles per event label (e.g. per layer)."""
        return dict(self._cycles_by_label)

    def clear(self) -> None:
        """Zero every aggregate (an open tape stays open)."""
        self._n_events = 0
        self._total_cycles = 0
        self._cycles_by_kind.clear()
        self._ops_by_kind.clear()
        self._cycles_by_label.clear()

    def __len__(self) -> int:
        """Number of events recorded since the last :meth:`clear`."""
        return self._n_events
