"""Invariants every suite holds its runs to, and the fixtures that do it.

``check_invariants(report, charged=...)`` reads a ``ServingReport`` —
the event log, the completions and the per-shard / per-tenant folds of
it — and, with ``charged``, what each shard's array counted over the
run, so it applies to every run of every suite.  What it holds a run to:

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

Two autouse fixtures, which ``tests/conftest.py`` and
``benchmarks/conftest.py`` both import, apply them everywhere:
``every_report_holds_the_run_invariants`` calls ``check_invariants`` on
each report an in-process ``InferenceEngine.run`` returns (engines in
forked children inherit the check), and
``every_skipped_rounding_is_exact`` checks each op input a
``CPWLBackend`` takes as exact codes without rounding it (an op output
of the open model pass): ``round_saturate(x * 2**frac)`` must be
``x * 2**frac`` byte for byte, so an in-place write into an
intermediate inside a pass fails the test instead of feeding unrounded
codes on.
"""

import functools
import math

import pytest

from repro.fixedpoint import round_saturate
from repro.nn.executor import CPWLBackend
from repro.serving import InferenceEngine


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


@pytest.fixture(autouse=True)
def every_report_holds_the_run_invariants(monkeypatch):
    run = InferenceEngine.run

    @functools.wraps(run)
    def checked_run(self, *args, **kwargs):
        pool = self.dispatcher
        arrays = {shard: pool.array_of(shard) for shard in range(pool.n_shards)}
        before = {
            shard: array.total_cycles
            for shard, array in arrays.items()
            if array is not None
        }
        report = run(self, *args, **kwargs)
        charged = {
            shard: arrays[shard].total_cycles - cycles
            for shard, cycles in before.items()
        }
        check_invariants(report, charged=charged)
        return report

    monkeypatch.setattr(InferenceEngine, "run", checked_run)


@pytest.fixture(autouse=True)
def every_skipped_rounding_is_exact(monkeypatch):
    on_grid = CPWLBackend._on_grid

    @functools.wraps(on_grid)
    def checked_on_grid(self, x):
        skipped = on_grid(self, x)
        if skipped:
            codes = x * float(1 << self.fmt.frac_bits)
            rounded = round_saturate(codes.copy(), self.fmt)
            assert rounded.tobytes() == codes.tobytes(), (
                "an op input taken as exact codes is off the grid: something "
                "wrote into an op output inside a model pass"
            )
        return skipped

    monkeypatch.setattr(CPWLBackend, "_on_grid", checked_on_grid)
