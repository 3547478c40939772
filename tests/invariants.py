"""Run-level invariants of a ``ServingReport``, whatever the knobs.

``check_invariants(report, charged=...)`` reads the report — the event
log, the completions and the per-shard / per-tenant folds of it — and,
with ``charged``, what each shard's array counted over the run, so it
applies to every run of every suite; ``tests/conftest.py`` calls it on
each report ``InferenceEngine.run`` returns.  What it holds a run to:

* **exactly once** — completed and shed request ids are disjoint and
  none repeats (with ``ids``, they are exactly the requests
  submitted);
* **one unit per shard at a time** — no two committed placements overlap
  on a shard;
* **causality** — ``ready_time <= start <= finish`` on every placement,
  ``arrival <= start <= finish`` on every completion;
* **busy time reconciles** — on every shard, ``shard_busy`` is the sum
  of its committed durations (to float rounding of the sum, and of each
  ``finish = start + duration``: half an ulp of ``finish`` per unit);
* **cycles reconcile** — every shard's array ``total_cycles`` moved by
  exactly ``shard_cycles[shard]`` (``charged``: the arrays' own count,
  independent of the log, so a charge made outside a unit fails here),
  and ``tenant_cycles`` sums to ``total_cycles``.
"""

import math

import pytest


def check_invariants(report, ids=None, charged=None):
    completed = [record.request.request_id for record in report.completed]
    shed = [record.request.request_id for record in report.shed]
    outcomes = completed + shed
    assert len(outcomes) == len(set(outcomes)), "a request met two fates"
    if ids is not None:
        assert sorted(outcomes) == sorted(ids)

    placements = report.placements
    for placed in placements:
        assert placed.ready_time <= placed.start <= placed.finish, placed
    for record in report.completed:
        assert record.request.arrival <= record.start <= record.finish, record

    for shard in {placed.shard for placed in placements} | set(report.shard_busy):
        on_shard = sorted(
            (p.start, p.finish) for p in placements if p.shard == shard
        )
        for (_, finish), (start, _) in zip(on_shard, on_shard[1:]):
            assert start >= finish, f"two units overlap on shard {shard}"
        committed = sum(finish - start for start, finish in on_shard)
        rounding = sum(math.ulp(finish) for _, finish in on_shard) / 2
        assert report.shard_busy[shard] == pytest.approx(
            committed, rel=1e-9, abs=1e-15 + rounding
        ), f"busy time of shard {shard} does not reconcile"

    if charged is not None:
        assert charged == report.shard_cycles, "array cycles do not reconcile"
    assert sum(report.tenant_cycles.values()) == report.total_cycles
