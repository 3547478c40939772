"""A work unit is priced once — and placed exactly as before.

The placement path builds each decision's ``ShardView`` list in one
pass from the dispatcher's static per-shard fields, hands a look-ahead
round's views and profiles to the unit that executes next, gives
``LookaheadPlacement.plan`` the round's horizons instead of copied
views, and ranks through one ETA rule.  None of that may change a
decision, so this file keeps the construction it replaced as the
**reference** and compares at every decision of seeded runs:

* the engine's views equal ``dispatcher.shard_views()`` +
  ``replace(view, breaker=...)`` field for field — with breakers
  tripping and re-closing, multi-batch look-ahead rounds over a prefix
  cache, and generation over a radix cache;
* executing a round's first unit on the planned-on views logs the same
  events, in the same order, as rebuilding them;
* ``plan`` given horizons equals ``plan`` over views copied with those
  horizons (the old call shape, still accepted);
* structural guards in the style of ``test_engine_pipeline.py``: no
  ``dataclasses.replace`` on a ``ShardView`` per executed unit, one
  ``_batch_profile`` per prefix-less batch (a prefix-keyed one is
  re-read at execution), one copy of the half-open surcharge.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
import repro.serving.faults as faults_module
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_serving_workload
from repro.serving import (
    BatchProfile,
    ClusterSpec,
    FaultPlan,
    GenerationAdapter,
    InferenceEngine,
    LookaheadPlacement,
    RadixKVCache,
    ShardCrash,
    ShardSlowdown,
    ShardView,
    TransformerPrefixAdapter,
    workload_cost_model,
)
from repro.systolic import SystolicConfig

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
TINY = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6)
SKEWED_POOL = (BIG, MID, SLOW, TINY)
BERT_KW = dict(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
_MODEL = TinyBERT(**BERT_KW, causal=True, seed=0)
_COST = workload_cost_model(
    lambda batch, shape: transformer_serving_workload(batch, 8, 8, 2, 16, 1)
)


# ---------------------------------------------------------------------------
# The reference: the view construction this file pins the engine against
# ---------------------------------------------------------------------------
def reference_views(engine, now):
    """Copy the dispatcher's snapshot, one ``replace`` per admitted shard."""
    views = []
    health_of = engine.shard_health
    for view in engine.dispatcher.shard_views():
        health = health_of[view.index]
        if not health.available(now):
            continue
        views.append(dataclasses.replace(view, breaker=health.state))
    return views


def _watch(engine):
    """Compare the engine's views with the reference at every decision
    (a placement or an all-breakers-open park); returns what was seen."""
    seen = []
    select, all_down = engine._select_shard, engine._all_down

    def checked_select(unit, healthy):
        assert healthy == reference_views(engine, unit.profile.ready_time)
        seen.append((unit, healthy))
        return select(unit, healthy)

    def checked_all_down(unit):
        assert reference_views(engine, unit.profile.ready_time) == []
        seen.append((unit, []))
        return all_down(unit)

    engine._select_shard, engine._all_down = checked_select, checked_all_down
    return seen


def _engine(pool=SKEWED_POOL, cost_model=_COST, **kw):
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    engine = InferenceEngine(ClusterSpec.heterogeneous(pool).build(), **kw)
    engine.register("bert", _MODEL, cost_model=cost_model)
    return engine


def _submit_rows(engine, n, spacing=1e-5, seed=0, **kw):
    rows = np.random.default_rng(seed).integers(0, 16, size=(n, 8))
    return [
        engine.submit("bert", row, arrival=i * spacing, **kw)
        for i, row in enumerate(rows)
    ]


# ---------------------------------------------------------------------------
# Views equal the reference at every decision
# ---------------------------------------------------------------------------
class TestViewsMatchReference:
    @pytest.mark.parametrize("lookahead", [False, True], ids=["greedy", "lookahead"])
    def test_breaker_trips_probes_and_recloses(self, lookahead):
        """The ``test_chaos.py`` breaker-lifecycle plan: a dead-on-arrival
        crash opens the only shard, work parks, the half-open probe
        re-closes it."""
        plan = FaultPlan(events=(ShardCrash(shard=0, at=0.0, until=5e-4),))
        engine = _engine(
            pool=(MID,), faults=plan,
            placement="lookahead" if lookahead else "cost_aware",
            steal=lookahead,
        )
        seen = _watch(engine)
        ids = _submit_rows(engine, 4)
        report = engine.run()
        assert len(report.completed) == len(ids)
        states = [(t.from_state, t.to_state) for t in report.breaker_transitions]
        assert states == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")
        ]
        assert [] in [views for _, views in seen]  # a park was checked
        assert {v.breaker for _, views in seen for v in views} == {
            "closed", "half_open"
        }

    def test_failed_probe_reopens(self):
        """Two overlapping outages: the probe dies, quarantine doubles."""
        plan = FaultPlan(events=(
            ShardCrash(shard=0, at=0.0, until=2.5e-3),
            ShardCrash(shard=0, at=2e-3, until=6e-3),
        ))
        engine = _engine(pool=(MID,), faults=plan)
        seen = _watch(engine)
        ids = _submit_rows(engine, 2)
        report = engine.run()
        assert len(report.completed) == len(ids)
        assert ("half_open", "open") in [
            (t.from_state, t.to_state) for t in report.breaker_transitions
        ]
        assert len(seen) > len(report.placements)  # failed attempts too

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_chaos_with_every_elastic_knob(self, seed):
        """The ``TestElasticChaos`` sweep: crashes and slowdowns under
        look-ahead and stealing together, on its time scale (arrivals
        0.1 ms apart)."""
        plan = FaultPlan.from_seed(
            seed, n_shards=4, horizon=1e-2, crash_rate=0.6, slowdown_rate=0.6
        )
        engine = _engine(
            pool=(MID,) * 4, faults=plan, placement="lookahead", steal=True,
            cost_model=None,
        )
        seen = _watch(engine)
        ids = _submit_rows(engine, 20, spacing=1e-4, seed=seed)
        report = engine.run()
        assert len(report.completed) + len(report.failed) == len(ids)
        assert len(seen) >= len(report.placements) > 0

    def test_lookahead_rounds_over_a_prefix_cache(self):
        """Several batches per round, a hot prompt whose residency moves
        placement, and affinity steals that migrate the entry."""
        engine = InferenceEngine(
            ClusterSpec.heterogeneous(SKEWED_POOL).build(),
            max_batch_size=4, flush_timeout=1e-7, placement="lookahead",
            radix_cache=RadixKVCache(1 << 20),
            steal=True,
        )
        engine.register(
            "bert", _MODEL, cost_model=_COST,
            prefix_adapter=TransformerPrefixAdapter(_MODEL, 6),
        )
        seen = _watch(engine)
        rng = np.random.default_rng(11)
        prefix = rng.integers(0, 16, size=6)
        ids = [
            engine.submit("bert", row, arrival=0.0, tenant=f"t{i % 3}")
            for i, row in enumerate(rng.integers(0, 16, size=(12, 8)))
        ]
        for i in range(24):
            row = np.concatenate([prefix, rng.integers(0, 16, size=2)])
            ids.append(engine.submit("bert", row, arrival=1e-6 * (i + 1)))
        report = engine.run()
        assert len(report.completed) == len(ids)
        assert any(event.hit for event in report.prefix_events)
        planned = [unit for unit, _ in seen if unit.planned_shard is not None]
        assert len(planned) == len(report.placements)
        # Rounds of several batches: later units rebuilt their views on
        # horizons the round's earlier units had already advanced.
        ready_times = [unit.profile.ready_time for unit in planned]
        assert len(set(ready_times)) < len(ready_times)

    def test_generation_over_a_radix_cache(self):
        """Prefills, decode steps and radix-affine placement."""
        engine = InferenceEngine(
            ClusterSpec.heterogeneous((MID, MID)).build(),
            max_batch_size=4, flush_timeout=1e-4, placement="cost_aware",
            radix_cache=RadixKVCache(1 << 20),
        )
        engine.register("gen", generation_adapter=GenerationAdapter(_MODEL))
        seen = _watch(engine)
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, 16, size=(6, 3), dtype=np.int64)
        ids = [
            engine.submit_generation("gen", prompt, 3, arrival=i * 2e-6)
            for i, prompt in enumerate(prompts)
        ]
        first = engine.run()
        # Follow-ups extend a finished transcript: radix hits, and
        # affinity towards the shard that holds it.
        follow_ups = [
            engine.submit_generation(
                "gen", np.concatenate([prompt, engine.result(rid)]), 2,
                arrival=1e-3 + i * 2e-6,
            )
            for i, (rid, prompt) in enumerate(zip(ids[:3], prompts))
        ]
        second = engine.run()
        assert len(first.completed) == len(ids)
        assert len(second.completed) == len(follow_ups)
        assert first.generation_steps and second.generation_steps
        assert any(event.hit for event in second.prefix_events)
        assert len(seen) == len(first.placements) + len(second.placements)


# ---------------------------------------------------------------------------
# The one hand-off: a round's first unit executes on the planned-on views
# ---------------------------------------------------------------------------
class TestRoundHandOff:
    @staticmethod
    def _run(rebuild):
        # Times on the scale of the 1 ms base quarantine, so shard 0's
        # breaker opens, expires and probes within the burst.
        plan = FaultPlan(events=(
            ShardCrash(shard=0, at=0.0, until=1.5e-3),
            ShardSlowdown(shard=1, at=0.0, until=5e-3, factor=8.0),
        ))
        engine = _engine(faults=plan, placement="lookahead", steal=True)
        built = []
        available = engine._available_views
        engine._available_views = lambda now: built.append(now) or available(now)
        if rebuild:
            execute = engine._execute
            engine._execute = lambda unit, views=None: execute(unit)
        ids = _submit_rows(engine, 32, spacing=1e-4, seed=3)
        report = engine.run()
        return report, [engine.result(i) for i in ids if i in engine._results], built

    def test_same_events_as_rebuilding_the_views(self):
        """Every record — placements, steals, faults and the open ->
        half-open ``BreakerTransition`` that building views can log —
        lands once, at the same place in the event log."""
        handed, handed_out, handed_builds = self._run(rebuild=False)
        rebuilt, rebuilt_out, rebuilt_builds = self._run(rebuild=True)
        assert handed.events == rebuilt.events
        assert all(np.array_equal(a, b) for a, b in zip(handed_out, rebuilt_out))
        kinds = {type(event).__name__ for event in handed.events}
        assert {"PlacementDecision", "BreakerTransition", "FaultRecord"} <= kinds
        assert ("open", "half_open") in [
            (t.from_state, t.to_state) for t in handed.breaker_transitions
        ]
        # The hand-off is what saves the second construction per round.
        assert len(handed_builds) < len(rebuilt_builds)

    def test_a_leftover_from_an_earlier_round_rebuilds(self):
        """A request submitted mid-run with an *earlier* arrival starts a
        new round while the previous round's batches still queue: the
        unit executed next is the old round's, ready at another instant,
        and must not be placed on the new round's views.  Here shard 1's
        quarantine ends between the two instants, so the views differ."""
        engine = _engine(
            pool=(MID, MID), max_batch_size=1, flush_timeout=0.0,
            placement="lookahead",
        )
        seen = _watch(engine)
        rows = np.random.default_rng(1).integers(0, 16, size=(4, 8))
        late = []

        def infer(inputs, backend):
            if not late:  # the first batch, in flight at 2e-3:
                # shard 1 reports a failure dated 5e-4 (open until 1.5e-3)
                # and a request arrives dated 1e-3.
                engine.shard_health[1].record_failure(5e-4)
                late.append(engine.submit("bert", rows[3], arrival=1e-3))
            return _MODEL.infer(inputs, backend)

        engine.register("bert", infer_fn=infer, cost_model=_COST)
        ids = [engine.submit("bert", row, arrival=2e-3) for row in rows[:3]]
        report = engine.run()
        assert len(report.completed) == len(ids) + 1
        decisions = [
            (unit.profile.ready_time, [(v.index, v.breaker) for v in views])
            for unit, views in seen
        ]
        both, probing = [(0, "closed"), (1, "closed")], [(0, "closed"), (1, "half_open")]
        assert decisions == [
            (2e-3, both),     # round 1's first unit, on the round's views
            (2e-3, probing),  # round 1's second: NOT round 2's [(0, closed)]
            (2e-3, both),     # ...its probe re-closed shard 1
            (1e-3, both),     # round 2's batch, by then a leftover itself
        ]


# ---------------------------------------------------------------------------
# LookaheadPlacement.plan: horizons == views copied with those horizons
# ---------------------------------------------------------------------------
_TIMES = st.sampled_from([0.0, 1e-6, 2e-6, 5e-6, 1e-5, 3.5e-5])
_CONFIGS = (BIG, MID, SLOW, None)  # None: a functional (unpriceable) shard


@st.composite
def _rounds(draw):
    n_shards = draw(st.integers(1, 5))
    views = []
    for index in range(n_shards):
        config = draw(st.sampled_from(_CONFIGS))
        views.append(
            ShardView(
                index=index,
                busy_until=draw(_TIMES),
                clock_hz=None if config is None else config.clock_hz,
                config=config,
                breaker=draw(st.sampled_from(["closed", "closed", "half_open", "open"])),
            )
        )
    # Cycles per (batch size, design point); a missing pair is unpriced.
    cycles = draw(
        st.dictionaries(
            st.tuples(st.integers(1, 4), st.sampled_from(_CONFIGS[:3])),
            st.sampled_from([100.0, 250.0, 1000.0, 4000.0]),
        )
    )
    estimator = lambda profile, config: cycles.get((profile.batch_size, config))
    batches = [
        BatchProfile(
            model="m", tenant="t", batch_size=draw(st.integers(1, 4)),
            sample_shape=(8,), ready_time=draw(_TIMES),
            estimator=draw(st.sampled_from([estimator, estimator, None])),
        )
        for _ in range(draw(st.integers(0, 6)))
    ]
    horizons = {view.index: draw(_TIMES) for view in views}
    return batches, views, horizons


class TestPlanHorizons:
    @given(_rounds())
    @settings(max_examples=200, deadline=None)
    def test_horizons_equal_copied_views(self, round_):
        batches, views, horizons = round_
        given_horizons = dict(horizons)
        planner = LookaheadPlacement()
        copied = [
            dataclasses.replace(view, busy_until=horizons[view.index])
            for view in views
        ]
        assert planner.plan(batches, views, horizons) == planner.plan(batches, copied)
        assert horizons == given_horizons  # the caller's dict is not advanced
        own = {view.index: view.busy_until for view in views}
        assert planner.plan(batches, views) == planner.plan(batches, views, own)

    @given(_rounds())
    @settings(max_examples=100, deadline=None)
    def test_single_batch_round_is_greedy_placement(self, round_):
        """One ranking rule: a round of one is ``place`` on the views."""
        batches, views, _ = round_
        planner = LookaheadPlacement()
        for batch in batches:
            assert planner.plan([batch], views) == [planner.place(batch, views)]


# ---------------------------------------------------------------------------
# Structural guards
# ---------------------------------------------------------------------------
def _lookahead_burst(engine, n=24):
    """Same-instant arrivals: look-ahead rounds of several batches."""
    rows = np.random.default_rng(4).integers(0, 16, size=(n, 8))
    return [
        engine.submit("bert", row, arrival=(i // 8) * 1e-5, tenant=f"t{i % 2}")
        for i, row in enumerate(rows)
    ]


def test_no_replace_on_a_shard_view_per_executed_unit(monkeypatch):
    copies = []
    real_replace = dataclasses.replace

    def counting_replace(obj, **changes):
        copies.append(type(obj).__name__)
        return real_replace(obj, **changes)

    monkeypatch.setattr(dataclasses, "replace", counting_replace)
    monkeypatch.setattr(faults_module, "replace", counting_replace)
    plan = FaultPlan(events=(ShardCrash(shard=0, at=0.0, until=2e-5),))
    engine = _engine(faults=plan, placement="lookahead", steal=True)
    ids = _lookahead_burst(engine)
    report = engine.run()
    assert len(report.completed) == len(ids) and report.retries > 0
    # The retry path still copies its Batch; no view is ever copied.
    assert "Batch" in copies and "ShardView" not in copies


def test_one_batch_profile_per_prefix_less_batch():
    engine = _engine(placement="lookahead", steal=True)
    built = []
    batch_profile = engine._batch_profile
    engine._batch_profile = lambda batch: built.append(batch.index) or batch_profile(batch)
    ids = _lookahead_burst(engine)
    report = engine.run()
    assert len(report.completed) == len(ids)
    assert sorted(built) == sorted(d.batch_index for d in report.placements)
    assert len(built) == len(set(built)) > 3


def test_prefix_keyed_batch_rereads_residency_at_execution():
    """Two batches of one prompt in one round: neither is resident when
    the round is planned, but the first has inserted the prompt by the
    time the second executes — its profile must say so."""
    engine = InferenceEngine(
        ClusterSpec.heterogeneous((MID, MID)).build(),
        max_batch_size=2, flush_timeout=1e-4, placement="lookahead",
        radix_cache=RadixKVCache(1 << 20),
    )
    engine.register(
        "bert", _MODEL, cost_model=_COST,
        prefix_adapter=TransformerPrefixAdapter(_MODEL, 6),
    )
    seen = _watch(engine)
    built = []
    batch_profile = engine._batch_profile
    engine._batch_profile = lambda batch: built.append(batch.index) or batch_profile(batch)
    rng = np.random.default_rng(8)
    prefix = rng.integers(0, 16, size=6)
    for _ in range(4):
        row = np.concatenate([prefix, rng.integers(0, 16, size=2)])
        engine.submit("bert", row, arrival=0.0)
    report = engine.run()
    (first, _), (second, _) = seen
    assert first.profile.prefix_key == second.profile.prefix_key is not None
    assert first.profile.ready_time == second.profile.ready_time
    assert first.profile.resident_shards == ()
    assert second.profile.resident_shards == (report.placements[0].shard,)
    assert built == [0, 1, 0, 1]  # planned once, re-read once, each


def test_half_open_surcharge_exists_once():
    """Greedy placement, look-ahead rounds and steal re-pricing rank by
    one ETA rule; a new ranking site calls it instead of re-growing the
    surcharge."""
    serving = Path(engine_module.__file__).parent
    sources = {path.name: path.read_text() for path in serving.glob("*.py")}
    surcharges = {
        name: source.count("service +=") for name, source in sources.items()
        if "service +=" in source
    }
    assert surcharges == {"cluster.py": 1}
    assert sum(s.count("def estimated_finish(") for s in sources.values()) == 1
    assert "replace(view" not in sources["engine.py"]
