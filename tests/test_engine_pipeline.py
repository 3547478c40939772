"""The engine's one execute-and-commit pipeline, pinned from the outside.

``InferenceEngine`` runs every kind of work — a plain classifier batch,
a prefix-keyed classifier batch, a generation prefill, a decode step —
through a single place -> run -> fault -> commit skeleton.  These tests
hold that skeleton to one contract for all four kinds, reading only the
public logs:

* each skeleton exit (dead-on-arrival crash, crash inside the
  slowdown-stretched window, all-breakers-open park, clean run under a
  slowdown) leaves the same shared post-conditions whatever the kind;
* the one event log tells each batch's story in the order the
  skeleton decided it, and the report's nine views are that log
  filtered by record type;
* the source of ``serving/engine.py`` contains each skeleton call once,
  so a new kind of work cannot re-grow a private copy; likewise the
  KV-prefix cache, the transformer layer inventory, the per-run record
  list and the merge re-mapping rule exist once.
"""

import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.nn.models import TinyBERT
from repro.serving import (
    BreakerTransition,
    ClusterDispatcher,
    DecodeStepRecord,
    ElasticConfig,
    FailureRecord,
    FaultPlan,
    FaultRecord,
    GenerationAdapter,
    InferenceEngine,
    PlacementDecision,
    PrefixEvent,
    RadixKVCache,
    ScalingEvent,
    ShardCrash,
    ShardSlowdown,
    ShedRecord,
    StealEvent,
    TransformerPrefixAdapter,
)
from repro.serving.multiproc import merge_reports
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


VIEWS = {
    "placements": PlacementDecision,
    "shed": ShedRecord,
    "prefix_events": PrefixEvent,
    "failed": FailureRecord,
    "fault_events": FaultRecord,
    "breaker_transitions": BreakerTransition,
    "generation_steps": DecodeStepRecord,
    "steals": StealEvent,
    "scaling_events": ScalingEvent,
}
# One batch's records, in log order: failed attempts (each optionally
# preceded by its steal), then at most one surviving placement directly
# followed by that batch's prefix event or decode step.
STORY = re.compile(r"(S?F)*(S?P[XD]?)?")
STORY_LETTER = {
    StealEvent: "S", FaultRecord: "F", PlacementDecision: "P",
    PrefixEvent: "X", DecodeStepRecord: "D",
}
ALL_ELASTIC = ElasticConfig(
    lookahead=True, steal=True, autoscale=True,
    autoscale_window=4, autoscale_cooldown=0.0, min_shards=2,
)


def _index_of(event):
    return event.step_index if isinstance(event, DecodeStepRecord) else event.batch_index


def _staggered_run(kind, seed, faults=None):
    """Twelve requests in three bursts over a 3-shard pool: chaos +
    look-ahead + steal + autoscale for classifier kinds, generation +
    radix for ``decode``."""
    engine = _engine(kind, 3, faults, None if kind == "decode" else ALL_ELASTIC)
    rng = np.random.default_rng(seed)
    for i in range(12):
        arrival = (i // 4) * 2e-5
        if kind == "decode":
            engine.submit_generation("m", rng.integers(0, 16, size=4), 3, arrival=arrival)
        else:
            row = rng.integers(0, 16, size=_MODEL.seq_len)
            row[:4] = (i % 3, 1, 2, 3)  # three prompts -> prefix-affine batches
            # Every other request carries a tight deadline, so the
            # autoscaler's attainment window has something to react to.
            due = arrival + (5e-5 if i % 2 else 1.0)
            engine.submit("m", row, arrival=arrival, deadline=due)
    return engine.run()


@pytest.mark.parametrize("kind", ["classify", "prefix", "decode"])
def test_event_log_tells_each_batch_story_in_order(kind):
    seen = set()
    for seed in range(4):
        horizon = max(c.finish for c in _staggered_run(kind, seed).completed)
        plan = FaultPlan.from_seed(
            seed, n_shards=3, horizon=horizon, crash_rate=0.7, slowdown_rate=0.7
        )
        report = _staggered_run(kind, seed, plan)
        events = report.events
        seen.update(type(event) for event in events)

        stories = {}
        for event in events:
            if type(event) in STORY_LETTER:
                stories.setdefault(_index_of(event), []).append(STORY_LETTER[type(event)])
        assert stories
        for index, letters in stories.items():
            assert STORY.fullmatch("".join(letters)), (seed, index, letters)
        # "Directly followed" holds in the whole log, not just per batch.
        for before, event in zip(events, events[1:]):
            if isinstance(event, (PrefixEvent, DecodeStepRecord)):
                assert isinstance(before, PlacementDecision)
                assert before.batch_index == _index_of(event)

        # Each view is the log filtered by record type, in log order.
        for view, record_type in VIEWS.items():
            assert getattr(report, view) == tuple(
                event for event in events if type(event) is record_type
            )
        assert sum(len(getattr(report, view)) for view in VIEWS) == len(events)
    # The sweep is not vacuous: the kinds each setup can produce occurred.
    expected = {PlacementDecision, FaultRecord, BreakerTransition}
    expected |= {DecodeStepRecord, PrefixEvent} if kind == "decode" else {
        StealEvent, ScalingEvent
    }
    assert expected <= seen


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


def test_one_record_list_and_one_merge_rule():
    """The engine keeps its per-run records in one list, and
    ``merge_reports`` re-maps shard indices through one rule."""
    record_types = "|".join(record_type.__name__ for record_type in VIEWS.values())
    source = Path(engine_module.__file__).read_text()
    assert not re.findall(rf"self\._\w+\s*:\s*List\[\"?({record_types})\b", source)
    assert inspect.getsource(merge_reports).count("replace(") <= 1
