"""Execution trace of operations issued to the array.

The trace records one event per architecture-level operation (GEMM, IPF,
MHP, preload) with its cycle breakdown, so utilization, the Fig. 1-style
op mix and the energy accounting can all be derived from a single run.

Aggregates (total cycles, cycles/ops per kind, cycles per label) are
maintained *streaming* on :meth:`Trace.record`, so consulting them is
O(1) in the number of recorded events — a long-lived serving process can
read ``total_cycles`` per request without re-scanning its history.

Label namespaces
----------------
A trace can attribute cycles to a *namespace* — e.g. the serving
engine's tenant executing the current batch — without retaining a
single event: :meth:`Trace.namespace` is a context manager that tags
every event recorded inside it, and the per-namespace aggregates
(:meth:`cycles_by_namespace`, and per-label within a namespace via
``cycles_by_label(namespace=...)``) are maintained streaming exactly
like the global ones.  Memory is bounded by
``distinct namespaces x distinct labels``, never by event count, so
aggregate-only retention and tenant attribution compose.

Retention modes
---------------
* ``retain_events=True`` (default) — every :class:`TraceEvent` stays in
  :attr:`Trace.events` for post-hoc inspection (the examples and the
  Fig.-1-style breakdowns want the full log).
* ``retain_events=False`` — aggregate-only: nothing is appended to
  ``events`` and memory stays constant no matter how many operations
  run.  The serving engine puts its shard arrays in this mode by
  default.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

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
    """Ordered event log with O(1) streaming aggregates.

    Parameters
    ----------
    retain_events:
        Keep the per-event log in :attr:`events`.  When False the trace
        is aggregate-only (bounded memory; ``events`` stays empty).
        Aggregates always cover every event ever recorded, retained or
        not.
    """

    def __init__(self, retain_events: bool = True) -> None:
        self.retain_events = retain_events
        self.events: List[TraceEvent] = []
        #: While a list, every :meth:`record` call is appended to it as
        #: ``(event, count)`` (see :meth:`SystolicArray.capture`).
        self.tape: Optional[list] = None
        self._n_events = 0
        self._total_cycles = 0
        self._cycles_by_kind: Dict[str, int] = {}
        self._ops_by_kind: Dict[str, int] = {}
        self._cycles_by_label: Dict[str, int] = {}
        self._namespace: Optional[str] = None
        self._cycles_by_namespace: Dict[str, int] = {}
        self._ns_cycles_by_label: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, event: TraceEvent, count: int = 1) -> None:
        """Account ``count`` occurrences of one event, as ``count`` calls
        would; a retaining log gains ``count`` references to the event."""
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
        if self._namespace is not None:
            ns = self._cycles_by_namespace
            ns[self._namespace] = ns.get(self._namespace, 0) + cycles
            ns_labels = self._ns_cycles_by_label.setdefault(self._namespace, {})
            ns_labels[event.label] = ns_labels.get(event.label, 0) + cycles
        if self.retain_events:
            self.events.extend(repeat(event, count))

    @contextmanager
    def namespace(self, name: str) -> Iterator["Trace"]:
        """Attribute events recorded inside the block to ``name``.

        Nested namespaces replace each other (the innermost wins), and
        recording outside any namespace touches only the global
        aggregates.  The serving engine wraps each batch execution in
        the owning tenant's namespace so aggregate-only traces can
        still attribute cycles per tenant.
        """
        previous = self._namespace
        self._namespace = name
        try:
            yield self
        finally:
            self._namespace = previous

    def configure(self, retain_events: bool) -> None:
        """Switch retention mode in place.

        Aggregates are untouched, and events already retained stay in
        the log (turning retention off only stops *future* appends —
        nothing a caller collected is destroyed).
        """
        self.retain_events = retain_events

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

    def cycles_by_label(self, namespace: Optional[str] = None) -> Dict[str, int]:
        """Aggregate cycles per event label (e.g. per layer).

        With ``namespace``, only cycles recorded inside that
        :meth:`namespace` block are reported (empty dict for a
        namespace the trace has never seen).
        """
        if namespace is not None:
            return dict(self._ns_cycles_by_label.get(namespace, {}))
        return dict(self._cycles_by_label)

    def cycles_by_namespace(self) -> Dict[str, int]:
        """Aggregate cycles per namespace (see :meth:`namespace`)."""
        return dict(self._cycles_by_namespace)

    @property
    def events_recorded(self) -> int:
        """Events accounted since the last clear (retained or not)."""
        return self._n_events

    @property
    def events_retained(self) -> int:
        """Events currently held in the log."""
        return len(self.events)

    def clear(self) -> None:
        """Drop the log and zero every aggregate (retention mode kept)."""
        self.events.clear()
        self._n_events = 0
        self._total_cycles = 0
        self._cycles_by_kind.clear()
        self._ops_by_kind.clear()
        self._cycles_by_label.clear()
        self._cycles_by_namespace.clear()
        self._ns_cycles_by_label.clear()

    def __len__(self) -> int:
        """Number of events *recorded* (see :attr:`events_retained`)."""
        return self._n_events
