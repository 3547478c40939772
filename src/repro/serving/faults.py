"""Deterministic fault injection for the serving runtime.

A :class:`FaultPlan` is a *schedule* of failures expressed in simulated
time — the same clock the discrete-event serving loop runs on — so a
chaos run is exactly as reproducible as a healthy one: the same seed
produces the same plan, the same plan produces the same crashes at the
same instants, and the report's fault section is a deterministic
function of (requests, plan).  Four event kinds cover the failure
domains of the stack:

* :class:`ShardCrash` — the shard is dead for a window ``[at, until)``.
  A batch that would *start* inside the window fails dead-on-arrival
  (nothing executes); a batch already executing when ``at`` passes is
  killed mid-flight, its outputs discarded and the partial occupancy
  charged as wasted work.  The engine's per-shard circuit breaker
  (:class:`~repro.serving.cluster.ShardHealth`) opens on these
  failures and the batch retries elsewhere.
* :class:`ShardSlowdown` — service time of batches *starting* inside
  the window is multiplied by ``factor`` (a straggler, not a corpse:
  results stay bit-identical, only the timeline stretches).
* :class:`WorkerDeath` — a worker *process* of
  :func:`~repro.serving.multiproc.serve_multiproc` exits with
  ``exit_code`` at simulated time ``at``, losing its in-memory state.
  Consumed by the multiproc supervisor, not the engine.
* :class:`FabricFault` — a shared-store failure: ``"corrupt"`` entries
  (torn/garbage data files, applied by :func:`corrupt_fabric_entries`)
  or a ``"lock_timeout"`` (a stuck lock holder; tests inject it by
  actually holding the namespace lock).  :class:`~repro.store.FileStore`
  quarantines corrupt entries as misses; a lock held past the store's
  ``lock_timeout`` raises :class:`~repro.store.StoreLockTimeout` to the
  caller.

Plans are frozen, picklable (they cross the worker process boundary
inside :class:`~repro.serving.multiproc.WorkerConfig`) and composable:
:meth:`FaultPlan.for_shard_block` re-maps global shard indices onto a
worker's local block, :meth:`FaultPlan.without_worker_death` strips a
death event before the supervisor restarts its worker (so the restart
does not die again).

Recovery is bounded by fixed constants: capped exponential
:func:`backoff` in simulated time, at most :data:`MAX_RETRIES`
re-executions per request.  :class:`FaultRecord` is the engine's
per-failed-attempt log entry, the raw material of
:meth:`~repro.serving.report.ServingReport.fault_section`.
:class:`RetryQueue` is what the engine does about a failed attempt: the
accounting, the retry-or-abandon decision per request, and the
simulated-time queue re-executions wait in (one of its work sources).
"""

from __future__ import annotations

import heapq
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple, Union

from repro.serving.request import FailureRecord, InferenceRequest
from repro.serving.tenancy import effective_deadline


# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardCrash:
    """Shard ``shard`` is dead over ``[at, until)`` (simulated seconds)."""

    shard: int
    at: float
    until: float

    def __post_init__(self) -> None:
        if not self.until > self.at >= 0.0:
            raise ValueError(
                f"crash window must satisfy 0 <= at < until, got "
                f"[{self.at}, {self.until})"
            )

    def covers(self, t: float) -> bool:
        return self.at <= t < self.until


@dataclass(frozen=True)
class ShardSlowdown:
    """Batches starting in ``[at, until)`` run ``factor``x slower."""

    shard: int
    at: float
    until: float
    factor: float

    def __post_init__(self) -> None:
        if not self.until > self.at >= 0.0:
            raise ValueError(
                f"slowdown window must satisfy 0 <= at < until, got "
                f"[{self.at}, {self.until})"
            )
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1, got {self.factor}")

    def covers(self, t: float) -> bool:
        return self.at <= t < self.until


@dataclass(frozen=True)
class WorkerDeath:
    """Worker process ``worker`` exits ``exit_code`` at simulated ``at``."""

    worker: int
    at: float
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.exit_code == 0:
            raise ValueError("a death must exit nonzero (0 is a clean exit)")


@dataclass(frozen=True)
class FabricFault:
    """A shared-fabric failure: ``"corrupt"`` or ``"lock_timeout"``."""

    kind: str
    namespace: str
    at: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("corrupt", "lock_timeout"):
            raise ValueError(
                f"fabric fault kind must be 'corrupt' or 'lock_timeout', "
                f"got {self.kind!r}"
            )


FaultEvent = Union[ShardCrash, ShardSlowdown, WorkerDeath, FabricFault]


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of fault events in simulated time.

    Build one explicitly from events, or draw one from a seed with
    :meth:`from_seed`; either way the plan is a pure value — querying
    it never mutates anything, so the same plan replayed over the same
    request stream yields the same run.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_shards: int,
        horizon: float,
        *,
        crash_rate: float = 0.5,
        slowdown_rate: float = 0.3,
        max_downtime_frac: float = 0.3,
        max_slowdown: float = 4.0,
        n_workers: int = 0,
        death_rate: float = 0.0,
    ) -> "FaultPlan":
        """Draw a plan from ``seed`` over a ``horizon`` of simulated time.

        Per shard, with probability ``crash_rate`` one crash starts
        uniformly in ``[0, horizon)`` and lasts up to
        ``max_downtime_frac * horizon``; with probability
        ``slowdown_rate`` one slowdown window applies a factor up to
        ``max_slowdown``.  Per worker (when ``n_workers`` > 0), with
        probability ``death_rate`` the worker dies mid-horizon.  All
        draws come from one ``random.Random(seed)``, so the plan is a
        pure function of its arguments.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        for shard in range(n_shards):
            if rng.random() < crash_rate:
                at = rng.uniform(0.0, horizon)
                downtime = rng.uniform(0.05, max(max_downtime_frac, 0.05)) * horizon
                events.append(ShardCrash(shard=shard, at=at, until=at + downtime))
            if rng.random() < slowdown_rate:
                at = rng.uniform(0.0, horizon)
                span = rng.uniform(0.05, 0.5) * horizon
                factor = rng.uniform(1.5, max(max_slowdown, 1.5))
                events.append(
                    ShardSlowdown(shard=shard, at=at, until=at + span, factor=factor)
                )
        for worker in range(n_workers):
            if rng.random() < death_rate:
                events.append(
                    WorkerDeath(worker=worker, at=rng.uniform(0.2, 0.8) * horizon)
                )
        return cls(events=tuple(events), seed=seed)

    # -- queries ---------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.events)

    def crashes(self, shard: int) -> Tuple[ShardCrash, ...]:
        return tuple(
            e for e in self.events if isinstance(e, ShardCrash) and e.shard == shard
        )

    def crash_covering(self, shard: int, t: float) -> Optional[ShardCrash]:
        """The crash window containing instant ``t``, if any (DOA check)."""
        for event in self.crashes(shard):
            if event.covers(t):
                return event
        return None

    def crash_within(
        self, shard: int, start: float, finish: float
    ) -> Optional[ShardCrash]:
        """The earliest crash striking strictly inside ``(start, finish)``.

        A batch that *started* before the crash and would finish after
        it dies mid-flight; a crash at exactly ``start`` is the DOA
        case (:meth:`crash_covering`), at or past ``finish`` a miss.
        """
        best: Optional[ShardCrash] = None
        for event in self.crashes(shard):
            if start < event.at < finish and (best is None or event.at < best.at):
                best = event
        return best

    def slowdown_factor(self, shard: int, t: float) -> float:
        """Product of slowdown factors whose window covers instant ``t``."""
        factor = 1.0
        for event in self.events:
            if (
                isinstance(event, ShardSlowdown)
                and event.shard == shard
                and event.covers(t)
            ):
                factor *= event.factor
        return factor

    def worker_death(self, worker: int) -> Optional[WorkerDeath]:
        for event in self.events:
            if isinstance(event, WorkerDeath) and event.worker == worker:
                return event
        return None

    def fabric_faults(self, kind: Optional[str] = None) -> Tuple[FabricFault, ...]:
        return tuple(
            e
            for e in self.events
            if isinstance(e, FabricFault) and (kind is None or e.kind == kind)
        )

    # -- derivation ------------------------------------------------------
    def without_worker_death(self, worker: int) -> "FaultPlan":
        """The plan minus ``worker``'s death event (supervisor restarts
        must not die again on the same schedule)."""
        return replace(
            self,
            events=tuple(
                e
                for e in self.events
                if not (isinstance(e, WorkerDeath) and e.worker == worker)
            ),
        )

    def for_shard_block(self, offset: int, n_shards: int) -> "FaultPlan":
        """Re-map global shard indices onto a worker's local block.

        Keeps shard events targeting global shards
        ``[offset, offset + n_shards)`` with their indices shifted to
        worker-local numbering, drops shard events outside the block,
        and keeps worker/fabric events untouched (their indices are
        already global).
        """
        kept: List[FaultEvent] = []
        for event in self.events:
            if isinstance(event, (ShardCrash, ShardSlowdown)):
                if offset <= event.shard < offset + n_shards:
                    kept.append(replace(event, shard=event.shard - offset))
            else:
                kept.append(event)
        return replace(self, events=tuple(kept))


def corrupt_fabric_entries(plan: FaultPlan, root: str) -> int:
    """Apply the plan's ``"corrupt"`` fabric faults to a FileStore root.

    Overwrites every data file in each faulted namespace with garbage
    bytes (a torn write / bad sector stand-in), returning the number of
    files corrupted.  Each file still says its entry exists while its
    payload is unreadable — the dangerous shape, which
    :class:`~repro.store.FileStore` must quarantine as misses.
    """
    corrupted = 0
    for fault in plan.fabric_faults("corrupt"):
        ns_dir = os.path.join(root, fault.namespace)
        if not os.path.isdir(ns_dir):
            continue
        for name in sorted(os.listdir(ns_dir)):
            if name.endswith((".pkl", ".json")):
                with open(os.path.join(ns_dir, name), "wb") as handle:
                    handle.write(b"\x00corrupt\x00")
                corrupted += 1
    return corrupted


# ---------------------------------------------------------------------------
# The retry budget
# ---------------------------------------------------------------------------
#: Re-executions a request gets before it is reported failed
#: (``"max_retries"``): each re-places away from the shard that just
#: failed it, and on a pool that stays dead the request fails after four
#: attempts instead of looping.
MAX_RETRIES = 3
#: Simulated delay before the first retry: a tenth of the breaker's base
#: quarantine, so the retry finds the failed shard still quarantined.
BACKOFF_BASE = 1e-4
#: Each further failed attempt doubles the delay ...
BACKOFF_FACTOR = 2.0
#: ... up to ten milliseconds, a hundred times the base.
BACKOFF_CAP = 1e-2


def backoff(attempt: int) -> float:
    """Simulated delay before re-queueing a batch whose 0-based
    ``attempt`` just failed: capped exponential backoff."""
    return min(BACKOFF_BASE * BACKOFF_FACTOR**attempt, BACKOFF_CAP)


# ---------------------------------------------------------------------------
# The engine's per-failure log entry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRecord:
    """One failed (or parked) batch attempt in the engine's fault log.

    ``kind`` is what went wrong (``"crash"`` — DOA or mid-flight on a
    crashed shard — or ``"all_shards_down"``), ``action`` what the
    engine did about it: ``"retry"`` (re-queued with backoff),
    ``"abandon"`` (retry budget exhausted, or every survivor was
    deadline-doomed — requests reported failed), ``"park"`` (every
    shard's breaker open; the batch waits, without consuming a retry,
    for the earliest re-admission probe time).  The reconciliation the
    chaos suite pins: every ``"retry"`` action at attempt *a* produces
    exactly one placement or crash record at attempt *a + 1*.
    """

    kind: str
    shard: Optional[int]
    batch_index: int
    at: float
    attempt: int
    action: str
    requests: int = 0


# ---------------------------------------------------------------------------
# Failure accounting and the retry queue
# ---------------------------------------------------------------------------
class RetryQueue:
    """Crashed and parked batches, waiting in simulated time to run again.

    One of the engine's work sources (``next_ready`` / ``pop`` /
    ``len``; a retry tied with anything runs first — it is strictly
    older work), and where a failed attempt is accounted.  ``health_of``
    maps a shard to its breaker, ``log`` is the event sink, ``forget``
    drops what was computed ahead for a request that will never run and
    ``unit_of(batch, attempt=, exclude_shard=)`` makes a batch's unit.
    """

    def __init__(
        self, tenants, dispatcher, health_of: Callable, log: Callable,
        forget: Callable, unit_of: Callable,
    ) -> None:
        self._tenants = tenants
        self._dispatcher = dispatcher
        self._health_of = health_of
        self._log = log
        self._forget = forget
        self._unit_of = unit_of
        # Heap of (wake_time, seq, attempt, excluded_shard, batch); seq
        # breaks wake-time ties deterministically (batches don't
        # compare) in requeue order.
        self._heap: List[tuple] = []
        self._seq = 0

    def next_ready(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def pop(self, ready: float):
        _wake, _seq, attempt, exclude, batch = heapq.heappop(self._heap)
        return self._unit_of(batch, attempt=attempt, exclude_shard=exclude), None

    def __len__(self) -> int:
        return sum(entry[4].size for entry in self._heap)

    def push(
        self, batch, wake: float, attempt: int, exclude_shard: Optional[int]
    ) -> None:
        """Queue ``batch`` to re-execute at simulated time ``wake``."""
        if batch.ready_time != wake:
            batch = replace(batch, ready_time=wake)
        heapq.heappush(self._heap, (wake, self._seq, attempt, exclude_shard, batch))
        self._seq += 1

    def wake(
        self, request: InferenceRequest, attempt: int, at: float, shard: int,
        attempts: int,
    ) -> Optional[float]:
        """Backoff wake time of ``request``'s next attempt — or None,
        after recording it failed: retry budget spent, or the wake
        would overshoot its effective deadline."""
        if attempt >= MAX_RETRIES:
            reason = "max_retries"
        else:
            wake = at + backoff(attempt)
            due = effective_deadline(request, self._tenants)
            if due is None or wake <= due:
                return wake
            reason = "retry_deadline"
        self._forget(request)
        self._log(
            FailureRecord(
                request=request, reason=reason, at=at, shard=shard, attempts=attempts
            )
        )
        return None

    def failed(self, batch, attempt: int, shard: int, at: float) -> int:
        """Absorb a failed batch attempt.

        Abandon when the retry budget is spent, shed the requests whose
        effective deadline precedes the backoff wake time (a doomed
        retry is dropped, not looped), and re-queue the survivors as a
        new attempt that will re-place on the remaining healthy shards.
        Returns the survivor count.
        """
        survivors = [
            request
            for request in batch.requests
            if self.wake(request, attempt, at, shard, attempt + 1) is not None
        ]
        if survivors:
            self.push(
                replace(batch, requests=tuple(survivors)),
                at + backoff(attempt), attempt + 1, shard,
            )
        return len(survivors)

    def crashed(self, unit, shard: int, crash: ShardCrash, at: float) -> None:
        """One attempt of ``unit`` died on ``shard`` at simulated ``at``.

        Holds the crashed shard's horizon through its outage window (so
        every subsequent placement sees it occupied until recovery),
        feeds the shard's breaker, lets the unit absorb the failure —
        abandon or re-schedule its requests — and logs the outcome.
        """
        busy_until = self._dispatcher.busy_until
        busy_until[shard] = max(busy_until.get(shard, 0.0), crash.until)
        self._health_of(shard).record_failure(at)
        survivors = unit.fail(shard, at)
        self._log(
            FaultRecord(
                kind="crash",
                shard=shard,
                batch_index=unit.batch_index,
                at=at,
                attempt=unit.attempt,
                action="retry" if survivors else "abandon",
                requests=survivors if survivors else unit.profile.batch_size,
            )
        )
