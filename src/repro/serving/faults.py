"""Deterministic worker deaths for the multi-worker serving front.

A :class:`FaultPlan` is a *schedule* of :class:`WorkerDeath` events in
simulated time — the same clock the discrete-event serving loop runs
on — so a supervised run under a plan is exactly as reproducible as a
healthy one.  A death makes a worker *process* of
:func:`~repro.serving.multiproc.serve_multiproc` exit with ``exit_code``
at simulated time ``at``, losing its in-memory state; the front's
supervisor consumes it, not the engine.

Plans are frozen and picklable (they cross the worker process boundary
inside :class:`~repro.serving.multiproc.WorkerConfig`);
:meth:`FaultPlan.without_worker_death` strips a death event before the
supervisor restarts its worker (so the restart does not die again).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple


@dataclass(frozen=True)
class WorkerDeath:
    """Worker process ``worker`` exits ``exit_code`` at simulated ``at``."""

    worker: int
    at: float
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.exit_code == 0:
            raise ValueError("a death must exit nonzero (0 is a clean exit)")
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not (math.isfinite(self.at) and self.at >= 0.0):
            raise ValueError(f"a death must strike at a finite at >= 0, got {self.at}")


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of worker deaths in simulated time.

    A pure value: querying it never mutates anything, so the same plan
    replayed over the same request stream yields the same run.
    """

    events: Tuple[WorkerDeath, ...] = ()

    def worker_death(self, worker: int) -> Optional[WorkerDeath]:
        for event in self.events:
            if event.worker == worker:
                return event
        return None

    def without_worker_death(self, worker: int) -> "FaultPlan":
        """The plan minus ``worker``'s death event (supervisor restarts
        must not die again on the same schedule)."""
        return replace(
            self, events=tuple(e for e in self.events if e.worker != worker)
        )
