"""A work unit is priced once — and placed exactly as before.

The placement path builds each decision's ``ShardView`` list in one
pass from the dispatcher's static per-shard fields, hands a look-ahead
round's views and profiles to the unit that executes next, gives
``LookaheadPlacement.plan`` the round's horizons instead of copied
views, and ranks through one ETA rule.  None of that may change a
decision, so this file keeps the construction it replaced as the
**reference** and compares at every decision of seeded runs:

* the views a unit is placed on equal a fresh
  ``dispatcher.shard_views()`` snapshot field for field — through
  look-ahead rounds handing their views to the unit executed next
  (a leftover from an earlier round included), steals, multi-batch
  rounds over a prefix cache, and generation over a radix cache;
* executing the queue's head on the planned-on views logs the same
  events, in the same order, as rebuilding them;
* ``plan`` given horizons equals ``plan`` over views copied with those
  horizons (the old call shape, still accepted);
* structural guards in the style of ``test_engine_pipeline.py``: no
  ``dataclasses.replace`` on a ``ShardView`` per executed unit, one
  ``_batch_profile`` per prefix-less batch (a prefix-keyed one is
  re-read at execution), one ETA rule.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.engine as engine_module
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_serving_workload
from repro.serving import (
    BatchProfile,
    ClusterDispatcher,
    ClusterSpec,
    GenerationAdapter,
    InferenceEngine,
    LookaheadPlacement,
    RadixKVCache,
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
# The SLOW shard priced 64x cheaper than it runs: look-ahead rounds plan
# work onto it, it drifts slow against its estimates, and bursts steal.
_MISPRICED = lambda profile, config: _COST(profile, config) / (
    64.0 if config == SLOW else 1.0
)


# ---------------------------------------------------------------------------
# The reference: a fresh snapshot of the pool at the decision
# ---------------------------------------------------------------------------
def _watch(engine):
    """Compare the views every placement decision is made on with a fresh
    ``dispatcher.shard_views()``; returns what was seen."""
    seen = []
    select = engine._select_shard

    def checked_select(unit, views):
        assert views == engine.dispatcher.shard_views()
        seen.append((unit, views))
        return select(unit, views)

    engine._select_shard = checked_select
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
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_bursts_with_every_elastic_knob(self, seed):
        """Look-ahead and stealing together on a shard that drifts slow,
        one burst."""
        engine = _engine(
            placement="lookahead", steal=True, cost_model=_MISPRICED,
        )
        seen = _watch(engine)
        ids = _submit_rows(engine, 20, spacing=0.0, seed=seed)
        report = engine.run()
        assert len(report.completed) == len(ids) and report.steals
        assert len(seen) == len(report.placements) > 0

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
    def _run(rebuild, monkeypatch):
        engine = _engine(placement="lookahead", steal=True, cost_model=_MISPRICED)
        built = []
        snapshot = ClusterDispatcher.shard_views
        monkeypatch.setattr(
            ClusterDispatcher, "shard_views",
            lambda pool: built.append(pool) or snapshot(pool),
        )
        if rebuild:
            execute = engine._execute
            engine._execute = lambda unit, views=None: execute(unit)
        ids = _submit_rows(engine, 32, spacing=0.0, seed=3)
        report = engine.run()
        monkeypatch.undo()
        return report, [engine.result(i) for i in ids if i in engine._results], built

    def test_same_events_as_rebuilding_the_views(self, monkeypatch):
        """Every record — placements and the steals re-pricing reads the
        views for — lands once, at the same place in the event log."""
        handed, handed_out, handed_builds = self._run(False, monkeypatch)
        rebuilt, rebuilt_out, rebuilt_builds = self._run(True, monkeypatch)
        assert handed.events == rebuilt.events
        assert all(np.array_equal(a, b) for a, b in zip(handed_out, rebuilt_out))
        kinds = {type(event).__name__ for event in handed.events}
        assert {"PlacementDecision", "StealEvent"} <= kinds
        # The hand-off is what saves the second construction per round.
        assert len(handed_builds) < len(rebuilt_builds)

    def test_a_leftover_from_an_earlier_round_is_placed_on_current_views(self):
        """A request submitted mid-run with an *earlier* arrival starts a
        new round while the previous round's batches still queue: the
        unit executed next is the old round's, ready at another instant.
        Nothing commits between planning the new round and executing it,
        so the views handed to it are the pool as it stands — here with
        the first batch's horizon on shard 0."""
        engine = _engine(
            pool=(MID, MID), max_batch_size=1, flush_timeout=0.0,
            placement="lookahead",
        )
        seen = _watch(engine)
        rows = np.random.default_rng(1).integers(0, 16, size=(4, 8))
        late = []

        def infer(inputs, backend):
            if not late:  # the first batch, in flight at 2e-3:
                late.append(engine.submit("bert", rows[3], arrival=1e-3))
            return _MODEL.infer(inputs, backend)

        engine.register("bert", infer_fn=infer, cost_model=_COST)
        ids = [engine.submit("bert", row, arrival=2e-3) for row in rows[:3]]
        report = engine.run()
        assert len(report.completed) == len(ids) + 1
        ready = [unit.profile.ready_time for unit, _ in seen]
        assert ready == [2e-3, 2e-3, 2e-3, 1e-3]
        busy = [[view.busy_until > 2e-3 for view in views] for _, views in seen]
        assert busy[:2] == [[False, False], [True, False]]


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
    engine = _engine(placement="lookahead", steal=True, cost_model=_MISPRICED)
    ids = _lookahead_burst(engine)
    report = engine.run()
    assert len(report.completed) == len(ids) and report.steals
    assert "ShardView" not in copies


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


def test_one_eta_rule():
    """Greedy placement, look-ahead rounds and steal re-pricing rank by
    one ETA rule; a new ranking site calls it instead of growing its own."""
    serving = Path(engine_module.__file__).parent
    sources = {path.name: path.read_text() for path in serving.glob("*.py")}
    assert sum(s.count("def estimated_finish(") for s in sources.values()) == 1
    assert "replace(view" not in sources["engine.py"]
