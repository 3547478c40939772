"""Fault plans shaped to reach a fault path at the fixed serving constants.

The retry budget and the breaker quarantine are module constants
(:data:`repro.serving.faults.MAX_RETRIES`,
:data:`repro.serving.cluster.QUARANTINE`), so a test reaches abandonment
by the shape of its plan, not by turning a knob.
"""

from repro.serving import FaultPlan, ShardCrash
from repro.serving.cluster import QUARANTINE, QUARANTINE_FACTOR
from repro.serving.faults import MAX_RETRIES


def retry_spending_outage(shard=0, at=0.0):
    """Chained crash windows on ``shard`` that fail a unit on every one of
    its ``MAX_RETRIES + 1`` attempts, so it is abandoned
    (``"max_retries"``) — when its first attempt is in flight at ``at``
    or starts less than ``QUARANTINE / 2`` after it.

    Meant for a one-shard pool: a failed attempt holds the shard busy to
    the end of its window and (re-)opens the breaker for a quarantine
    that doubles per failure, so attempt *k* starts once both have
    passed — at the end of window *k - 1*, which window *k* already
    covers.  The last window ends ``(2 ** (MAX_RETRIES + 1) - 1) *
    QUARANTINE`` (15 ms) after ``at``.
    """
    ends, quarantine = [], QUARANTINE
    for _ in range(MAX_RETRIES + 1):
        ends.append((ends[-1] if ends else at) + quarantine)
        quarantine *= QUARANTINE_FACTOR
    starts = [at] + [end - QUARANTINE / 2 for end in ends[:-1]]
    return FaultPlan(
        events=tuple(ShardCrash(shard, s, e) for s, e in zip(starts, ends))
    )
