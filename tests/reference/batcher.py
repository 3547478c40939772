"""The offline batch planner: the batching rules over a whole request list.

:class:`~repro.serving.batcher.BatchAssembler` admits requests one at a
time as simulated time advances; :class:`DynamicBatcher` plans a
complete request list in one pass (the original drain model).  Fed the same
stream, both must compose the same batches with the same ready times,
which ``tests/test_scheduler.py`` asserts on random streams.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.domains import NON_NEGATIVE, POSITIVE_INT
from repro.serving.batcher import Batch, GroupKey, _group_key
from repro.serving.request import InferenceRequest


def _flush_order(timer: "Tuple[float, GroupKey]"):
    """Total order for expiring flush timers.

    Deadline first, then the group key with ``prefix_key=None`` sorted
    before real keys (``None`` and ``str`` do not compare directly);
    prefix-less groups keep the exact pre-prefix ordering.
    """
    when, (tenant, model, prefix_key, shape) = timer
    return (when, tenant, model, prefix_key is not None, prefix_key or "", shape)


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
