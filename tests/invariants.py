"""Run-level invariants of a ``ServingReport``, whatever the knobs.

``check_invariants(report)`` reads only the report — the event log, the
completions and the per-shard / per-tenant tallies — so it applies to
every run of every suite; ``tests/conftest.py`` calls it on each report
``InferenceEngine.run`` returns.  What it holds a run to:

* **exactly once** — completed, shed and failed request ids are pairwise
  disjoint and none repeats (with ``ids``, they are exactly the requests
  submitted);
* **one unit per shard at a time** — no two committed placements overlap
  on a shard;
* **causality** — ``ready_time <= start <= finish`` on every placement,
  ``arrival <= start <= finish`` on every completion;
* **busy time reconciles** — a shard's ``shard_busy`` is the sum of its
  committed durations plus the partial occupancy of attempts that
  crashed mid-flight on it (zero on a shard that logged no crash, and
  never more than the shard's span);
* **cycles reconcile** — ``tenant_cycles`` sums to ``total_cycles``;
* **a retry is one more attempt** — every ``"retry"`` action at attempt
  *a* of a batch is followed by exactly one attempt *a + 1* of it (a
  placement, or another crash), and no attempt past the first comes
  from anything else.  A decode iteration re-forms under a new batch
  index after a failure, so in a run with generation traffic a retry
  and its follow-up may carry different indices (their requests are
  still held to exactly-once).
"""

from collections import Counter

import pytest


def check_invariants(report, ids=None):
    completed = [record.request.request_id for record in report.completed]
    failed = [record.request.request_id for record in report.failed]
    shed = [record.request.request_id for record in report.shed]
    outcomes = completed + failed + shed
    assert len(outcomes) == len(set(outcomes)), "a request met two fates"
    if ids is not None:
        assert sorted(outcomes) == sorted(ids)

    placements = report.placements
    for placed in placements:
        assert placed.ready_time <= placed.start <= placed.finish, placed
    for record in report.completed:
        assert record.request.arrival <= record.start <= record.finish, record

    crashes = [e for e in report.fault_events if e.kind == "crash"]
    for shard in {placed.shard for placed in placements} | set(report.shard_busy):
        on_shard = sorted(
            (p.start, p.finish) for p in placements if p.shard == shard
        )
        for (_, finish), (start, _) in zip(on_shard, on_shard[1:]):
            assert start >= finish, f"two units overlap on shard {shard}"
        if shard not in report.shard_busy:
            continue  # a merged report keeps no busy time for the shard
        busy = report.shard_busy[shard]
        committed = sum(finish - start for start, finish in on_shard)
        crashed_at = [e.at for e in crashes if e.shard == shard]
        if not crashed_at:
            assert busy == pytest.approx(committed, rel=1e-9, abs=1e-15)
        else:
            span = max(crashed_at + [finish for _, finish in on_shard])
            assert committed * (1 - 1e-9) <= busy <= span * (1 + 1e-9)

    assert sum(report.tenant_cycles.values()) == report.total_cycles

    attempts = Counter(
        (event.batch_index, event.attempt) for event in list(placements) + crashes
    )
    generation = bool(report.generation_steps) or any(
        record.request.generation is not None
        for record in report.completed + report.failed
    )
    retried = Counter(
        (event.batch_index, event.attempt + 1)
        for event in report.fault_events
        if event.action == "retry"
    )
    for key in {key for key in attempts.keys() | retried.keys() if key[1] > 0}:
        assert attempts[key] == retried[key] == 1 or (
            generation and attempts[key] + retried[key] == 1
        ), (key, attempts[key], retried[key])
