"""The engine's one execute-and-commit pipeline, pinned from the outside.

``InferenceEngine`` runs every kind of work — a plain classifier batch,
a prefix-keyed classifier batch, a generation prefill, a decode step —
through a single place -> run -> fault -> commit skeleton.  These tests
hold that skeleton to one contract for all four kinds, reading only the
public logs:

* each skeleton exit (dead-on-arrival crash, crash inside the
  slowdown-stretched window, all-breakers-open park, clean run under a
  slowdown) leaves the same shared post-conditions whatever the kind;
* the source of ``serving/engine.py`` contains each skeleton call once,
  so a new kind of work cannot re-grow a private copy; likewise the
  KV-prefix cache and the transformer layer inventory exist once.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterDispatcher,
    ElasticConfig,
    FaultPlan,
    GenerationAdapter,
    InferenceEngine,
    RadixKVCache,
    ShardCrash,
    ShardSlowdown,
    TransformerPrefixAdapter,
)
from repro.systolic import SystolicArray, SystolicConfig

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
GRANULARITY = 0.25
OUTAGE = 5e-4  # shorter than the default 1e-3 breaker quarantine
SLOWDOWN = 3.0

KINDS = ("classify", "prefix", "prefill", "decode")
EXITS = ("doa", "crash_in_stretched_window", "park", "slowdown")

_MODEL = TinyBERT(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1, causal=True, seed=0
)


def _engine(kind, n_shards, faults=None, elastic=None):
    """A fresh engine whose unit under test is one batch of two requests."""
    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(CONFIG) for _ in range(n_shards)], GRANULARITY
    )
    generation = kind in ("prefill", "decode")
    engine = InferenceEngine(
        pool,
        max_batch_size=2,
        flush_timeout=1e-4,
        prefix_cache=(
            RadixKVCache(namespace="serving.prefix") if kind == "prefix" else None
        ),
        radix_cache=RadixKVCache() if generation else None,
        faults=faults,
        elastic=elastic,
    )
    if generation:
        engine.register("m", generation_adapter=GenerationAdapter(_MODEL))
    elif kind == "prefix":
        engine.register("m", _MODEL, prefix_adapter=TransformerPrefixAdapter(_MODEL, 4))
    else:
        engine.register("m", _MODEL)
    return engine


def _submit(engine, kind, n_batches=1):
    rng = np.random.default_rng(5)
    ids = []
    for _ in range(n_batches):
        if kind in ("prefill", "decode"):
            prompts = rng.integers(0, 16, size=(2, 4))
            ids += [engine.submit_generation("m", p, 3, arrival=0.0) for p in prompts]
        else:
            rows = rng.integers(0, 16, size=(2, _MODEL.seq_len))
            rows[1, :4] = rows[0, :4]  # one shared prefix -> one prefix-keyed batch
            ids += [engine.submit("m", row, arrival=0.0) for row in rows]
    return ids


def _run(kind, n_shards, faults=None):
    engine = _engine(kind, n_shards, faults)
    ids = _submit(engine, kind)
    report = engine.run()
    return engine, report, [engine.result(i) for i in ids]


def _fault_plan(exit_, shard, start, duration):
    """The plan that drives the unit starting at ``start`` out ``exit_``."""
    stretch = ShardSlowdown(shard, at=start, until=start + duration / 2, factor=SLOWDOWN)
    if exit_ == "slowdown":
        return None, FaultPlan(events=(stretch,))
    if exit_ == "crash_in_stretched_window":
        # Past the unstretched finish, inside the stretched one.
        at = start + 2 * duration
        crash = ShardCrash(shard, at=at, until=at + OUTAGE)
        return crash, FaultPlan(events=(stretch, crash))
    crash = ShardCrash(shard, at=start, until=start + OUTAGE)
    return crash, FaultPlan(events=(crash,))


@pytest.mark.parametrize("exit_", EXITS)
@pytest.mark.parametrize("kind", KINDS)
def test_skeleton_contract(kind, exit_):
    # The park needs every breaker open at the retry's wake time: a
    # one-shard pool, where the default backoff (1e-4) lands inside the
    # default quarantine (1e-3).
    n_shards = 1 if exit_ == "park" else 2
    _, clean, expected = _run(kind, n_shards)
    target_index = 1 if kind == "decode" else 0
    target = next(p for p in clean.placements if p.batch_index == target_index)
    duration = target.finish - target.start
    crash, plan = _fault_plan(exit_, target.shard, target.start, duration)

    engine, report, outputs = _run(kind, n_shards, plan)

    # Outputs are bit-identical to the fault-free run; nothing was lost.
    assert report.failed == ()
    for got, want in zip(outputs, expected):
        assert np.array_equal(got, want)

    # The placement and prefix logs are written exactly once per unit of
    # committed work, and only by the attempt that survived.
    placements = report.placements
    indices = [p.batch_index for p in placements]
    assert len(set(indices)) == len(indices) == len(clean.placements)
    assert len(report.prefix_events) == len(clean.prefix_events)
    retried = [p for p in placements if p.attempt > 0]

    wasted = {shard: 0.0 for shard in report.shard_busy}
    if crash is None:
        # Clean run under a slowdown: the timeline stretches, nothing else.
        assert report.fault_events == () and retried == []
        slowed = next(p for p in placements if p.batch_index == target_index)
        assert slowed.shard == target.shard and slowed.start == target.start
        assert slowed.batch_cycles == target.batch_cycles
        assert slowed.finish - slowed.start == pytest.approx(SLOWDOWN * duration)
        assert all(record.attempts == 1 for record in report.completed)
    else:
        failed_at = target.start if exit_ != "crash_in_stretched_window" else crash.at
        first = report.fault_events[0]
        assert (first.kind, first.action, first.shard) == ("crash", "retry", crash.shard)
        assert (first.batch_index, first.attempt) == (target_index, 0)
        assert first.at == failed_at and first.requests == target.batch_size
        # A dead-on-arrival unit is charged nothing; one killed mid-run
        # is charged its partial occupancy up to the crash.
        wasted[crash.shard] = failed_at - target.start

        (survivor,) = retried
        assert survivor.attempt == 1 and survivor.recovered_from == crash.shard
        if kind != "decode":  # a decode retry re-forms under a new index
            assert survivor.batch_index == target_index
        if exit_ == "park":
            # Every breaker was open at the retry's wake: the unit parked
            # until the quarantine expired — and consumed no retry.
            park = report.fault_events[1]
            assert (park.kind, park.action, park.shard) == ("all_shards_down", "park", None)
            assert park.attempt == 1 and park.requests == target.batch_size
            assert survivor.ready_time == target.start + 1e-3
            assert len(report.fault_events) == 2
        else:
            assert survivor.shard != crash.shard
            assert len(report.fault_events) == 1
        assert max(record.attempts for record in report.completed) == 2

        # The crashed shard is held busy through its outage.
        assert engine.dispatcher.busy_until[crash.shard] >= crash.until
        assert not any(
            p.shard == crash.shard and crash.at <= p.start < crash.until
            for p in placements
        )

    for shard, busy in report.shard_busy.items():
        committed = sum(p.finish - p.start for p in placements if p.shard == shard)
        assert busy == pytest.approx(committed + wasted[shard], rel=1e-9, abs=1e-15)


@pytest.mark.parametrize("lookahead", [False, True])
def test_fresh_batch_parks_identically_planned_or_not(lookahead):
    """A look-ahead-planned batch whose shard went down after the plan
    was made parks through the same code as any other unit."""
    crash = ShardCrash(0, at=0.0, until=OUTAGE)
    engine = _engine(
        "classify", 1, FaultPlan(events=(crash,)),
        ElasticConfig(lookahead=lookahead, steal=lookahead),
    )
    ids = _submit(engine, "classify", n_batches=2)
    report = engine.run()
    # Batch 0 dies on arrival and opens the only breaker; batch 1 (ready
    # at the same instant, already planned under look-ahead) parks.
    crashed, parked = report.fault_events[:2]
    assert (crashed.kind, crashed.batch_index) == ("crash", 0)
    assert (parked.kind, parked.action, parked.shard) == ("all_shards_down", "park", None)
    assert (parked.batch_index, parked.attempt, parked.requests) == (1, 0, 2)
    assert parked.at == 0.0
    first_try = next(p for p in report.placements if p.batch_index == 1)
    assert first_try.attempt == 0  # the park consumed no retry
    assert report.failed == () and len(report.completed) == len(ids)


SKELETON_CALLS = (
    "crash_covering(",
    "crash_within(",
    "slowdown_factor(",
    "record_success(",
    "trace.namespace(",
    "elapsed_wall =",
    "PlacementDecision(",
)


@pytest.mark.parametrize("call", SKELETON_CALLS)
def test_skeleton_exists_once(call):
    """A new kind of work supplies hooks to ``_execute``; it does not
    get its own copy of the place/fault/commit skeleton."""
    source = Path(engine_module.__file__).read_text()
    assert source.count(call) == 1, (
        f"{call!r} occurs {source.count(call)}x in serving/engine.py; the "
        "execute-and-commit skeleton must exist exactly once"
    )


SINGLE_COPY = (
    ("repro.serving.prefix_cache", "set_limit("),
    ("repro.serving.prefix_cache", "def _namespace"),
    ("repro.serving.prefix_cache", "def resident_bytes"),
    ("repro.serving.prefix_cache", "def namespace_stats"),
    ("repro.nn.workload", "def gemm("),
)


@pytest.mark.parametrize("module, marker", SINGLE_COPY)
def test_no_second_copy(module, marker):
    """One KV-prefix cache class, one transformer layer inventory: a new
    kind of traffic or closed form is a client of the existing code, not
    a fork of it."""
    source = Path(importlib.import_module(module).__file__).read_text()
    assert source.count(marker) <= 1, (
        f"{marker!r} occurs {source.count(marker)}x in {module}"
    )
