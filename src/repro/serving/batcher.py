"""Dynamic batching of queued inference requests.

Batches group requests *per (tenant, model, prefix-key, sample
shape)* in arrival order — one batch never mixes tenants, so its traced
cycles attribute to exactly one tenant, never mixes prompt prefixes, so
a prefix-cache decision applies to the whole batch (hits and misses
cannot silently share one stacked inference), and never mixes sample
shapes, which cannot stack into one array.  Requests without a prefix
key (``prefix_key=None``, every endpoint without a prefix adapter)
group on the other three.  Generation requests use the prefix slot for
their prompt length.  An open batch flushes when either knob fires:

* **max_batch_size** — the batch is full the moment the Nth request
  joins; it becomes ready at that request's arrival time;
* **flush_timeout** — an incomplete batch stops waiting for company
  ``flush_timeout`` seconds after its oldest request arrived and
  becomes ready at that deadline.

Two front-ends share those semantics:

* :class:`DynamicBatcher` plans a complete request list offline
  (the PR-1 drain model; kept as the reference semantics);
* :class:`BatchAssembler` applies the same rules *incrementally* —
  requests are admitted one at a time, open groups can be inspected
  and popped as simulated time advances — which is what lets the
  scheduler loop accept new requests while a batch is in flight.

Batching is planned deterministically from the arrival timestamps
(discrete-event style) rather than with threads, so a request stream
always produces the same batches — the property the equivalence tests
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.domains import NON_NEGATIVE, POSITIVE_INT
from repro.serving.request import InferenceRequest
from repro.serving.tenancy import DEFAULT_TENANT


#: A batch's group: ``(tenant, model, prefix_key, sample shape)``.
GroupKey = Tuple[str, str, Optional[str], Tuple[int, ...]]


def _group_key(request: InferenceRequest) -> GroupKey:
    return (request.tenant, request.model, request.prefix_key, request.inputs.shape)


def _flush_order(timer: "Tuple[float, GroupKey]"):
    """Total order for expiring flush timers.

    Deadline first, then the group key with ``prefix_key=None`` sorted
    before real keys (``None`` and ``str`` do not compare directly);
    prefix-less groups keep the exact pre-prefix ordering.
    """
    when, (tenant, model, prefix_key, shape) = timer
    return (when, tenant, model, prefix_key is not None, prefix_key or "", shape)


@dataclass(frozen=True)
class Batch:
    """A group of same-tenant, same-model, same-prefix, same-shape
    requests executed as one stacked inference."""

    index: int
    model: str
    requests: Tuple[InferenceRequest, ...]
    ready_time: float
    tenant: str = DEFAULT_TENANT
    prefix_key: Optional[str] = None

    @property
    def size(self) -> int:
        return len(self.requests)


class DynamicBatcher:
    """Plans batches from a request stream with size/timeout knobs.

    Parameters
    ----------
    max_batch_size:
        Largest number of requests packed into one batch (>= 1).
    flush_timeout:
        Simulated seconds an incomplete batch waits for more requests
        before flushing.  ``0.0`` disables coalescing across distinct
        arrival times (same-time requests still share a batch).
    """

    def __init__(self, max_batch_size: int = 8, flush_timeout: float = 1e-3):
        self.max_batch_size = POSITIVE_INT("max_batch_size", max_batch_size)
        self.flush_timeout = NON_NEGATIVE("flush_timeout", flush_timeout)

    def plan(self, requests: Sequence[InferenceRequest]) -> List[Batch]:
        """Group ``requests`` into batches, ordered by ready time."""
        pending: Dict[GroupKey, List[InferenceRequest]] = {}
        deadline: Dict[GroupKey, float] = {}
        batches: List[Batch] = []

        def flush(key: GroupKey, at: float) -> None:
            group = pending.pop(key, [])
            deadline.pop(key, None)
            if group:
                batches.append(
                    Batch(
                        index=len(batches),
                        model=key[1],
                        requests=tuple(group),
                        ready_time=at,
                        tenant=key[0],
                        prefix_key=key[2],
                    )
                )

        for req in sorted(requests, key=lambda r: (r.arrival, r.request_id)):
            # Timers that expired strictly before this arrival fire
            # first, in deadline order, so batch indices are
            # deterministic.  A request landing exactly at a deadline
            # still joins (this is what keeps a same-instant burst in
            # one batch even with flush_timeout=0).
            expired = sorted(
                (
                    (when, key)
                    for key, when in deadline.items()
                    if when < req.arrival
                ),
                key=_flush_order,
            )
            for when, key in expired:
                flush(key, at=when)

            key = _group_key(req)
            group = pending.setdefault(key, [])
            group.append(req)
            if len(group) == 1:
                deadline[key] = req.arrival + self.flush_timeout
            if len(group) >= self.max_batch_size:
                flush(key, at=req.arrival)

        # End of stream: remaining timers run out.
        for when, key in sorted(
            ((when, key) for key, when in deadline.items()), key=_flush_order
        ):
            flush(key, at=when)

        batches.sort(key=lambda b: (b.ready_time, b.index))
        return [replace(b, index=i) for i, b in enumerate(batches)]


@dataclass
class OpenGroup:
    """One in-assembly batch of a ``(tenant, model, prefix_key, shape)``
    group (its key is its first request's, :func:`_group_key`).

    ``closed_at`` is set the moment the group stops accepting requests
    — at the size-capping request's arrival when it fills, or at its
    flush deadline when a later same-key arrival proves the deadline
    has passed; until then the group's ready time is its oldest
    arrival plus the flush timeout.
    """

    tenant: str
    model: str
    seq: int
    requests: List[InferenceRequest] = field(default_factory=list)
    closed_at: Optional[float] = None
    prefix_key: Optional[str] = None

    def ready_time(self, flush_timeout: float) -> float:
        if self.closed_at is not None:
            return self.closed_at
        return self.requests[0].arrival + flush_timeout

    @property
    def size(self) -> int:
        return len(self.requests)


class BatchAssembler:
    """Incremental batch assembly with the :class:`DynamicBatcher` rules.

    Requests are admitted one at a time into at most one *open* group
    per group key; a group that reaches
    ``max_batch_size`` closes immediately (ready at the filling
    arrival) and the next same-key request starts a fresh group, while
    a partial group becomes ready ``flush_timeout`` after its oldest
    arrival.  The scheduler polls :meth:`earliest_ready` /
    :meth:`ready_groups` as its simulated clock advances and pops
    groups for execution — admission between pops is what the
    admit-while-in-flight serving path rides on.

    Fed the same request stream, the assembler produces exactly the
    *batch compositions and ready times* :meth:`DynamicBatcher.plan`
    would (the scheduler tests assert this).  Execution order of
    batches tied at the same ready instant is admission (seq) order —
    policy-arbitrated across tenants — rather than the offline
    planner's flush order, which for timer ties was an artifact of
    key iteration.
    """

    def __init__(self, max_batch_size: int = 8, flush_timeout: float = 1e-3):
        self.max_batch_size = POSITIVE_INT("max_batch_size", max_batch_size)
        self.flush_timeout = NON_NEGATIVE("flush_timeout", flush_timeout)
        self._open: Dict[GroupKey, OpenGroup] = {}
        self._closed: Dict[int, OpenGroup] = {}  # seq -> group, insertion order
        self._seq = 0
        self._pending_by_tenant: Dict[str, int] = {}
        # Cached min ready time over all groups.  Admission only ever
        # adds a group or *lowers* one's ready time (closing on fill),
        # so the cache updates in O(1) per admit; a pop recomputes it
        # (O(groups), once per executed batch).
        self._earliest: Optional[float] = None

    def pending_of(self, tenant: str) -> int:
        """Requests of one tenant admitted and not yet popped (O(1)).

        The quantity per-tenant queue-depth caps are enforced against.
        """
        return self._pending_by_tenant.get(tenant, 0)

    def _groups(self) -> List[OpenGroup]:
        return list(self._closed.values()) + list(self._open.values())

    def _close(self, group: OpenGroup, at: float) -> None:
        group.closed_at = at
        del self._open[_group_key(group.requests[0])]
        self._closed[group.seq] = group

    def admit(self, request: InferenceRequest) -> None:
        """Add one request to its group (O(1)).

        A same-key group whose flush deadline already passed (strictly
        before this arrival) is sealed first, exactly as
        :meth:`DynamicBatcher.plan` fires expired timers before a new
        request joins — the request then opens a fresh group.
        """
        key = _group_key(request)
        group = self._open.get(key)
        if group is not None and group.ready_time(self.flush_timeout) < request.arrival:
            self._close(group, at=group.ready_time(self.flush_timeout))
            group = None
        if group is None:
            group = OpenGroup(
                tenant=request.tenant,
                model=request.model,
                seq=self._seq,
                prefix_key=request.prefix_key,
            )
            self._seq += 1
            self._open[key] = group
        group.requests.append(request)
        self._pending_by_tenant[request.tenant] = (
            self._pending_by_tenant.get(request.tenant, 0) + 1
        )
        if group.size >= self.max_batch_size:
            self._close(group, at=request.arrival)
        ready = group.ready_time(self.flush_timeout)
        if self._earliest is None or ready < self._earliest:
            self._earliest = ready

    def earliest_ready(self) -> Optional[float]:
        """Soonest simulated time any group is ready (None if empty, O(1))."""
        return self._earliest

    def ready_groups(self, now: float) -> List[OpenGroup]:
        """Groups ready at or before ``now``, in (ready, seq) order."""
        ready = [
            g
            for g in self._groups()
            if g.ready_time(self.flush_timeout) <= now
        ]
        ready.sort(key=lambda g: (g.ready_time(self.flush_timeout), g.seq))
        return ready

    def pop(self, group: OpenGroup, index: int) -> Batch:
        """Remove ``group`` from assembly as an executable :class:`Batch`."""
        if group.closed_at is not None:
            del self._closed[group.seq]
        else:
            del self._open[_group_key(group.requests[0])]
        remaining = self._pending_by_tenant.get(group.tenant, 0) - group.size
        if remaining > 0:
            self._pending_by_tenant[group.tenant] = remaining
        else:
            self._pending_by_tenant.pop(group.tenant, None)
        times = [g.ready_time(self.flush_timeout) for g in self._groups()]
        self._earliest = min(times) if times else None
        return Batch(
            index=index,
            model=group.model,
            requests=tuple(group.requests),
            ready_time=group.ready_time(self.flush_timeout),
            tenant=group.tenant,
            prefix_key=group.prefix_key,
        )
