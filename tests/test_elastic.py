"""Elastic cluster runtime: look-ahead placement, stealing, autoscaling.

The load-bearing contracts:

* **defaults are the baseline** — an engine with every elastic knob
  off produces a report bit-identical (fingerprint-equal) to one built
  without an :class:`ElasticConfig` at all;
* **look-ahead placement moves work, never changes arithmetic** —
  outputs match greedy placement bit-for-bit, plans are deterministic,
  and the skewed pool stops funnelling into the fastest shard;
* **work-stealing re-places queued-but-unstarted batches** off
  drifted / tripped shards, migrating prefix-cache entries through the
  store fabric when affinity breaks — and every completed request is
  still answered exactly once with baseline-identical bits;
* **the autoscaler** grows on missed SLOs, shrinks on headroom, honors
  min/max bounds, hysteresis and the priced power budget;
* the satellite regressions: open-breaker shards are filtered *before*
  cost ranking, equal-cost ties break by shard index everywhere, and a
  stale cross-worker calibration snapshot revalidates through the
  store fabric.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.autotune.replay import report_fingerprint
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_serving_workload
from repro.serving import (
    BatchProfile,
    CalibratingCostModel,
    ClusterSpec,
    CostAwarePlacement,
    ElasticConfig,
    EndpointSpec,
    FaultPlan,
    InferenceEngine,
    LeastLoadedPlacement,
    LookaheadPlacement,
    RadixKVCache,
    ScalingEvent,
    ShardHealth,
    ShardSlowdown,
    ShardStats,
    ShardView,
    StealEvent,
    TransformerPrefixAdapter,
    cluster_desc,
    load_calibration,
    render_cluster_desc,
    save_calibration,
    serve_multiproc,
    workload_cost_model,
)
from repro.store import FileStore
from repro.serving.elastic import AUTOSCALE_COOLDOWN, STEAL_DRIFT_THRESHOLD
from repro.systolic import SystolicConfig

# The skewed heterogeneous pool of the placement benchmarks: ~160x
# capability spread end to end, so greedy earliest-finish placement
# funnels everything into shard 0.
SKEWED_POOL = (
    SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6),
    SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6),
    SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6),
    SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6),
)
SMALL_KW = dict(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
LARGE_KW = dict(vocab=16, seq_len=16, dim=16, heads=4, ff_dim=32, n_layers=2)


def _cost(kw):
    return workload_cost_model(
        lambda batch, shape: transformer_serving_workload(
            batch, kw["seq_len"], kw["dim"], kw["heads"],
            kw["ff_dim"], kw["n_layers"],
        )
    )


def _engine(pool=SKEWED_POOL, placement="cost_aware", elastic=None, **kw):
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(pool).build(),
        placement=placement,
        elastic=elastic,
        **kw,
    )
    engine.register(
        "bert_small", TinyBERT(**SMALL_KW, seed=0), cost_model=_cost(SMALL_KW)
    )
    return engine


def _mixed_burst(engine, n_small=16, n_large=4, seed=4):
    engine.register(
        "bert_large", TinyBERT(**LARGE_KW, seed=0), cost_model=_cost(LARGE_KW)
    )
    rng = np.random.default_rng(seed)
    ids = [
        engine.submit("bert_small", row, arrival=0.0)
        for row in rng.integers(0, 16, size=(n_small, SMALL_KW["seq_len"]))
    ]
    ids += [
        engine.submit("bert_large", row, arrival=0.0)
        for row in rng.integers(0, 16, size=(n_large, LARGE_KW["seq_len"]))
    ]
    return ids


def _outputs(engine, ids):
    return [engine.result(i, keep=True) for i in ids]


# ---------------------------------------------------------------------------
# Knobs
# ---------------------------------------------------------------------------
class TestElasticConfig:
    def test_defaults_are_off(self):
        config = ElasticConfig()
        assert not config.enabled
        assert config.describe() == "elastic: off"

    def test_enabled_tracks_any_knob(self):
        assert ElasticConfig(steal=True).enabled
        assert ElasticConfig(autoscale=True).enabled

    @pytest.mark.parametrize("bad", [
        # Thresholds that became module constants: a caller still passing
        # one is refused outright, not run at the constant's value.
        dict(steal_drift_threshold=0.5),
        dict(affinity_break_factor=0.0),
        dict(autoscale_window=0),
        dict(grow_below_attainment=1.5),
        dict(shrink_above_attainment=-0.1),
        dict(grow_below_attainment=0.95, shrink_above_attainment=0.9),
        dict(autoscale_cooldown=-1.0),
        dict(min_shards=0),
        dict(min_shards=3, max_shards=2),
        dict(power_budget_watts=0.0),
    ])
    def test_validation(self, bad):
        fields = {field.name for field in dataclasses.fields(ElasticConfig)}
        with pytest.raises(ValueError if set(bad) <= fields else TypeError):
            ElasticConfig(**bad)

    def test_round_trips_through_dict(self):
        config = ElasticConfig(
            steal=True, autoscale=True,
            min_shards=2, max_shards=6, power_budget_watts=40.0,
        )
        assert ElasticConfig.from_dict(config.to_dict()) == config
        assert ElasticConfig.from_dict({}) == ElasticConfig()

    def test_saved_configs_with_the_retired_lookahead_key_still_load(self):
        saved = dict(ElasticConfig(steal=True).to_dict(), lookahead=True)
        assert ElasticConfig.from_dict(saved) == ElasticConfig(steal=True)
        assert "lookahead" not in ElasticConfig().to_dict()

    def test_describe_names_active_behaviors(self):
        text = ElasticConfig(steal=True, autoscale=True).describe()
        assert "steal" in text
        assert "autoscale" in text


# ---------------------------------------------------------------------------
# Defaults pinned bit-identical
# ---------------------------------------------------------------------------
class TestDefaultsPinned:
    def test_elastic_off_is_fingerprint_identical_to_baseline(self):
        """ElasticConfig() == no elastic config at all, bit for bit."""
        reports = []
        for elastic in (None, ElasticConfig()):
            engine = _engine(elastic=elastic)
            _mixed_burst(engine)
            reports.append(engine.run())
        assert report_fingerprint(reports[0]) == report_fingerprint(reports[1])
        assert not reports[1].has_elastic_activity

    def test_elastic_off_logs_stay_empty(self):
        engine = _engine(elastic=ElasticConfig())
        _mixed_burst(engine)
        report = engine.run()
        assert report.steals == ()
        assert report.scaling_events == ()
        assert not any(
            isinstance(e, (StealEvent, ScalingEvent)) for e in engine.events
        )


# ---------------------------------------------------------------------------
# Look-ahead placement
# ---------------------------------------------------------------------------
class TestLookaheadPlacement:
    def _run(self, elastic, placement="cost_aware"):
        engine = _engine(placement=placement, elastic=elastic)
        ids = _mixed_burst(engine)
        report = engine.run()
        return _outputs(engine, ids), report

    def test_outputs_bit_identical_to_greedy(self):
        greedy_out, _ = self._run(None)
        ahead_out, report = self._run(
            ElasticConfig(), placement="lookahead"
        )
        for a, b in zip(greedy_out, ahead_out):
            assert np.array_equal(a, b), "placement changed results"
        assert report.n_requests == 20

    def test_plan_is_deterministic(self):
        first_out, first = self._run(
            ElasticConfig(), placement="lookahead"
        )
        second_out, second = self._run(
            ElasticConfig(), placement="lookahead"
        )
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_lookahead_spreads_the_skewed_pool(self):
        """Joint planning uses shards greedy cost_aware leaves idle."""
        _, greedy = self._run(None)
        _, ahead = self._run(
            ElasticConfig(), placement="lookahead"
        )
        used = lambda report: {
            decision.shard for decision in report.placements
        }
        assert used(ahead) >= used(greedy)
        assert ahead.makespan <= greedy.makespan * 1.0001
        spread = ahead.utilization_spread()
        assert spread is None or spread >= 1.0

    def test_plan_ties_break_by_shard_index(self):
        """Equal shards, equal batches: LPT assigns round-robin from 0."""
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        views = [
            ShardView(index=i, busy_until=0.0, clock_hz=config.clock_hz,
                      config=config)
            for i in range(3)
        ]
        estimator = lambda profile, cfg: 1000.0
        profiles = [
            BatchProfile(model="m", tenant="t", batch_size=1,
                         sample_shape=(8,), ready_time=0.0,
                         estimator=estimator)
            for _ in range(3)
        ]
        assert LookaheadPlacement().plan(profiles, views) == [0, 1, 2]


# ---------------------------------------------------------------------------
# Work stealing
# ---------------------------------------------------------------------------
class TestWorkStealing:
    def test_drift_steal_rescues_a_slowed_shard(self):
        """A slowdown fault inflates drift; queued batches migrate off."""
        elastic = ElasticConfig(steal=True)
        faults = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1.0, factor=16.0),
        ))
        baseline = _engine()
        ids = _mixed_burst(baseline, n_small=24)
        base_out = (baseline.run(), _outputs(baseline, ids))[1]

        engine = _engine(placement="lookahead", elastic=elastic, faults=faults)
        ids = _mixed_burst(engine, n_small=24)
        report = engine.run()
        assert len(report.completed) == len(ids)
        drift_steals = [s for s in report.steals if s.reason == "drift"]
        assert drift_steals, "no drift steal despite a 16x slowdown"
        assert any(s.from_shard == 0 for s in drift_steals), (
            "no steal off the slowed shard"
        )
        for steal in drift_steals:
            assert steal.planned_eta > STEAL_DRIFT_THRESHOLD * steal.stolen_eta
        # Stealing moved work, never changed bits.
        for a, b in zip(base_out, _outputs(engine, ids)):
            assert np.array_equal(a, b)
        # The drift EWMA that triggered it is visible in the stats tree.
        assert engine.shard_stats[0].drift > 1.2

    def test_breaker_steal_reroutes_planned_batches(self):
        """A tripped planned shard hands its queue to the live pool."""
        elastic = ElasticConfig(steal=True)
        faults = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1.0, factor=16.0),
        ))
        engine = _engine(placement="lookahead", elastic=elastic, faults=faults)
        ids = _mixed_burst(engine, n_small=24)
        report = engine.run()
        assert len(report.completed) + len(report.failed) == len(ids)
        # Whatever the reason mix, every steal left a consistent record.
        for steal in report.steals:
            assert steal.from_shard != steal.to_shard
            assert steal.reason in {"drift", "breaker", "affinity"}

    def test_steal_off_honors_the_plan(self):
        elastic = ElasticConfig()
        faults = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1.0, factor=16.0),
        ))
        engine = _engine(placement="lookahead", elastic=elastic, faults=faults)
        ids = _mixed_burst(engine, n_small=24)
        report = engine.run()
        assert report.steals == ()
        assert len(report.completed) == len(ids)


def _hot_prefix_engine(elastic, prefix_len=6):
    cache = RadixKVCache(1 << 20)
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(SKEWED_POOL).build(),
        max_batch_size=4,
        flush_timeout=1e-7,
        placement="lookahead" if elastic is not None else "cost_aware",
        radix_cache=cache,
        elastic=elastic,
    )
    model = TinyBERT(**SMALL_KW, causal=True, seed=0)
    engine.register(
        "bert_small", model, cost_model=_cost(SMALL_KW),
        prefix_adapter=TransformerPrefixAdapter(model, prefix_len),
    )
    engine.register(
        "bert_large", TinyBERT(**LARGE_KW, seed=0), cost_model=_cost(LARGE_KW)
    )
    return engine, cache


def _hot_prefix_burst(engine, repeats=24, seed=11):
    """Warmup large batches occupy the fast shards; then one hot prompt
    repeats — greedy affinity pins every repeat to its cold shard."""
    rng = np.random.default_rng(seed)
    ids = [
        engine.submit("bert_large", row, arrival=0.0)
        for row in rng.integers(0, 16, size=(8, LARGE_KW["seq_len"]))
    ]
    prefix = rng.integers(0, 16, size=6)
    for i in range(repeats):
        suffix = rng.integers(0, 16, size=SMALL_KW["seq_len"] - 6)
        row = np.concatenate([prefix, suffix])
        ids.append(engine.submit("bert_small", row, arrival=1e-6 * (i + 1)))
    return ids


class TestAffinityBreak:
    def test_affinity_steal_migrates_the_cache_entry(self):
        elastic = ElasticConfig(steal=True)
        engine, cache = _hot_prefix_engine(elastic)
        ids = _hot_prefix_burst(engine)
        report = engine.run()
        assert len(report.completed) == len(ids)
        affinity = [s for s in report.steals if s.reason == "affinity"]
        assert affinity, "hot prefix stayed pinned to its cold shard"
        assert any(s.cache_migrated for s in affinity)
        assert cache.migrations >= 1
        # The migrated prompt keeps serving hits from its new home.
        assert cache.stats()["hits"] > 0

    def test_affinity_break_beats_pinned_greedy(self):
        """The pathology the elastic runtime exists to fix: entry
        migration off the cold shard beats affinity-pinned greedy."""
        greedy_engine, _ = _hot_prefix_engine(None)
        greedy_ids = _hot_prefix_burst(greedy_engine)
        greedy = greedy_engine.run()

        elastic = ElasticConfig(steal=True)
        engine, _ = _hot_prefix_engine(elastic)
        ids = _hot_prefix_burst(engine)
        report = engine.run()

        for a, b in zip(
            _outputs(greedy_engine, greedy_ids), _outputs(engine, ids)
        ):
            assert np.array_equal(a, b), "stealing changed results"
        assert report.makespan < greedy.makespan

    def test_prefix_cache_migrate_moves_exactly_one_entry(self):
        class _Payload:
            nbytes = 64
            pos = 6

        cache = RadixKVCache(1 << 12)
        tokens, payload = np.arange(6), _Payload()
        assert cache.insert(2, "t", "m", tokens, payload)
        assert cache.resident_shards("t", "m", tokens) == (2,)
        assert cache.migrate(2, 0, "t", "m", tokens)
        assert cache.resident_shards("t", "m", tokens) == (0,)
        assert cache.migrations == 1
        # Store and index moved together: the destination serves the
        # whole prompt, the source index no longer matches any of it.
        assert cache.lookup(0, "t", "m", tokens) == (6, payload)
        assert cache.lookup(2, "t", "m", tokens) == (0, None)
        assert cache.namespace_stats()["serving.radix.shard2"]["misses"] == 0
        # Self-moves and missing entries are no-ops, not errors.
        assert not cache.migrate(0, 0, "t", "m", tokens)
        assert not cache.migrate(2, 1, "t", "m", tokens)
        assert cache.migrations == 1


# ---------------------------------------------------------------------------
# SLO-driven autoscaling
# ---------------------------------------------------------------------------
def _autoscale_engine(n_shards, elastic, deadline=None, n_requests=16, spacing=1e-4):
    """Arrivals ``spacing`` apart: at the default 0.1 ms a trace of 16+
    requests spans several 8-completion windows and 1 ms cooldowns."""
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
    engine = InferenceEngine(
        ClusterSpec.homogeneous(config, n_shards).build(),
        max_batch_size=1,
        flush_timeout=1e-7,
        placement="cost_aware",
        elastic=elastic,
    )
    engine.register(
        "bert_small", TinyBERT(**SMALL_KW, seed=0), cost_model=_cost(SMALL_KW)
    )
    rng = np.random.default_rng(2)
    ids = [
        engine.submit(
            "bert_small", row, arrival=i * spacing,
            deadline=None if deadline is None else i * spacing + deadline,
        )
        for i, row in enumerate(
            rng.integers(0, 16, size=(n_requests, SMALL_KW["seq_len"]))
        )
    ]
    return engine, ids


class TestAutoscaling:
    GROW = ElasticConfig(autoscale=True, max_shards=3)

    def test_grows_on_missed_slos(self):
        engine, ids = _autoscale_engine(1, self.GROW, deadline=1e-9)
        report = engine.run()
        grows = [e for e in report.scaling_events if e.action == "grow"]
        assert grows, "every deadline missed yet the pool never grew"
        assert grows[0].reason == "slo_attainment"
        assert grows[0].slo_attainment < 0.9
        assert grows[0].pool_power_watts > 0
        assert engine.dispatcher.n_live_shards > 1
        assert len(report.completed) == len(ids)

    def test_max_shards_caps_growth(self):
        engine, _ = _autoscale_engine(1, self.GROW, deadline=1e-9,
                                      n_requests=64)
        report = engine.run()
        # Grown to the cap early; the missed windows after it grow nothing.
        assert [e.action for e in report.scaling_events] == ["grow", "grow"]
        assert report.scaling_events[-1].at < report.makespan / 2
        assert engine.dispatcher.n_live_shards == 3
        # The report renders the block: a tally, then one line per event.
        lines = report.elastic_section().split("\n")
        final = report.scaling_events[-1].pool_power_watts
        assert lines[0] == (
            f"autoscaling          : 2 grow / 0 shrink (final pool power {final:.2f} W)"
        )
        for line, event in zip(lines[1:3], report.scaling_events):
            assert line == (
                f"  grow   shard {event.shard} at {event.at * 1e6:,.1f} us "
                f"(slo_attainment; slo {event.slo_attainment:.0%}, "
                f"shed {event.shed_rate:.0%})"
            )
        assert lines[3] == "cluster stats        :"
        assert report.elastic_section() in report.summary()

    def test_power_budget_refuses_growth(self):
        budgeted = ElasticConfig(autoscale=True, power_budget_watts=1e-9)
        engine, _ = _autoscale_engine(1, budgeted, deadline=1e-9)
        report = engine.run()
        assert report.scaling_events == ()
        assert engine.dispatcher.n_live_shards == 1

    def test_shrinks_on_headroom_but_never_below_min(self):
        relaxed = ElasticConfig(autoscale=True, min_shards=2)
        engine, ids = _autoscale_engine(3, relaxed, n_requests=32)
        report = engine.run()
        shrinks = [e for e in report.scaling_events if e.action == "shrink"]
        assert shrinks, "full attainment with 3 shards never shrank"
        assert all(e.reason == "slo_headroom" for e in shrinks)
        assert engine.dispatcher.n_live_shards >= 2
        assert len(report.completed) == len(ids)

    def test_cooldown_is_hysteresis(self):
        """Four full windows inside one cooldown resize the pool once;
        the same requests spread past it shrink it twice."""
        lazy = ElasticConfig(autoscale=True)
        engine, _ = _autoscale_engine(3, lazy, n_requests=32, spacing=1e-6)
        report = engine.run()
        assert report.makespan < AUTOSCALE_COOLDOWN
        assert len(report.scaling_events) == 1
        engine, _ = _autoscale_engine(3, lazy, n_requests=32)
        assert len(engine.run().scaling_events) == 2

    def test_outputs_unchanged_by_scaling(self):
        baseline, base_ids = _autoscale_engine(1, None, deadline=1e-9)
        baseline.run()
        engine, ids = _autoscale_engine(1, self.GROW, deadline=1e-9)
        engine.run()
        for a, b in zip(_outputs(baseline, base_ids), _outputs(engine, ids)):
            assert np.array_equal(a, b), "autoscaling changed results"


# ---------------------------------------------------------------------------
# Stats descriptor tree + report rendering
# ---------------------------------------------------------------------------
class TestStatsTree:
    def test_shard_stats_drift_ewma_in_seconds(self):
        stats = ShardStats(0)
        stats.observe(1000, 2e-5, estimated_seconds=1e-5)
        assert stats.drift == pytest.approx(1.0 + 0.25 * (2.0 - 1.0))
        stats.observe(1000, 1e-5)  # unpriced: bookkeeping only
        assert stats.batches == 2
        assert stats.drift == pytest.approx(1.25)
        stats.reset()
        assert stats.drift == 1.0
        assert stats.batches == 0

    def test_cluster_desc_shape_and_rendering(self):
        elastic = ElasticConfig(steal=True)
        engine = _engine(placement="lookahead", elastic=elastic)
        _mixed_burst(engine)
        report = engine.run()
        desc = cluster_desc(report)
        assert desc["type"] == "Cluster"
        assert desc["stats"]["batches"] == len(report.placements)
        shard_nodes = desc["sinks"]
        assert [node["name"] for node in shard_nodes] == [
            f"shard{i}" for i in sorted(report.shard_cycles)
        ]
        assert all(
            sink["type"] == "Model"
            for node in shard_nodes
            for sink in node["sinks"]
        )
        text = render_cluster_desc(desc)
        assert "↳" in text
        assert "util=" in text
        assert "makespan_s=" in text

    def test_elastic_section_in_summary(self):
        elastic = ElasticConfig(steal=True)
        faults = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1.0, factor=16.0),
        ))
        engine = _engine(placement="lookahead", elastic=elastic, faults=faults)
        _mixed_burst(engine, n_small=24)
        report = engine.run()
        assert report.has_elastic_activity
        section = report.elastic_section()
        assert "work stealing" in section
        assert "shard" in section
        assert report.steal_count == len(report.steals)
        by_reason = report.steals_by_reason()
        assert sum(by_reason.values()) == report.steal_count
        assert report.elastic_section() in report.summary()


# ---------------------------------------------------------------------------
# Satellite: breaker filtering before cost ranking
# ---------------------------------------------------------------------------
class TestBreakerFilteredBeforeRanking:
    def _views(self, open_state):
        fast = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)
        slow = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2)
        return [
            ShardView(index=0, busy_until=0.0, clock_hz=fast.clock_hz,
                      config=fast, breaker=open_state),
            ShardView(index=1, busy_until=0.0, clock_hz=slow.clock_hz,
                      config=slow, breaker=ShardHealth.CLOSED),
        ]

    def _profile(self):
        return BatchProfile(
            model="m", tenant="t", batch_size=2, sample_shape=(8,),
            ready_time=0.0, estimator=lambda p, c: float(c.pe_rows),
        )

    @pytest.mark.parametrize("policy", [
        CostAwarePlacement(), LeastLoadedPlacement(), LookaheadPlacement(),
    ])
    def test_open_fast_shard_never_wins_on_cost(self, policy):
        """The flapping-shard bug: an open shard with the best estimate
        must be filtered before ranking, not outpriced after."""
        chosen = policy.place(self._profile(), self._views(ShardHealth.OPEN))
        assert chosen == 1

    @pytest.mark.parametrize("policy", [
        CostAwarePlacement(), LeastLoadedPlacement(),
    ])
    def test_half_open_fast_shard_is_priced_pessimistically(self, policy):
        chosen = policy.place(
            self._profile(), self._views(ShardHealth.HALF_OPEN)
        )
        assert chosen == 1

    def test_flapping_fast_shard_does_not_recapture_the_burst(self):
        """Seeded fault plan: the fast shard flaps; with the filter in
        place the rest of the pool still completes the work."""
        faults = FaultPlan.from_seed(
            3, n_shards=4, horizon=5e-4, crash_rate=0.9, slowdown_rate=0.5
        )
        engine = _engine(faults=faults)
        ids = _mixed_burst(engine, n_small=24)
        report = engine.run()
        completed = {r.request.request_id for r in report.completed}
        failed = {r.request.request_id for r in report.failed}
        assert completed | failed == set(ids)
        assert not completed & failed


# ---------------------------------------------------------------------------
# Satellite: deterministic tie-breaking
# ---------------------------------------------------------------------------
class TestDeterministicTieBreaks:
    @pytest.mark.parametrize("policy", [
        CostAwarePlacement(), LeastLoadedPlacement(), LookaheadPlacement(),
    ])
    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_equal_cost_breaks_to_lowest_index(self, policy, order):
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        views = [
            ShardView(index=i, busy_until=0.5, clock_hz=config.clock_hz,
                      config=config)
            for i in order
        ]
        profile = BatchProfile(
            model="m", tenant="t", batch_size=2, sample_shape=(8,),
            ready_time=0.0, estimator=lambda p, c: 100.0,
        )
        assert policy.place(profile, views) == 0

    def test_ties_stable_under_repeated_runs(self):
        homogeneous = (SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4),) * 4
        prints = set()
        for _ in range(3):
            engine = _engine(pool=homogeneous)
            _mixed_burst(engine)
            prints.add(report_fingerprint(engine.run()))
        assert len(prints) == 1


# ---------------------------------------------------------------------------
# Satellite: stale cross-worker calibration
# ---------------------------------------------------------------------------
class TestCrossWorkerCalibrationStaleness:
    CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)

    def _profile(self, model="m", batch=2):
        return BatchProfile(model=model, tenant="t", batch_size=batch,
                            sample_shape=(8,), ready_time=0.0)

    def test_version_stamped_snapshot_revalidates(self, tmp_path):
        # Each worker's view of the fleet fabric is its own FileStore on
        # the shared root, and every load reads the fabric itself: the
        # snapshot (stamped with its schema version) is one file, which
        # each save replaces whole.
        worker_a = FileStore(str(tmp_path))
        worker_b = FileStore(str(tmp_path))

        calibrator = CalibratingCostModel()
        calibrator.observe("m", 2, (8,), self.CONFIG, 1000)
        save_calibration(calibrator, worker_a, name="fleet")

        # Worker B loads the first snapshot.
        stale = load_calibration(worker_b, name="fleet")
        assert stale.estimate(self._profile(), self.CONFIG) == 1000

        # Worker A learns more and saves again.
        calibrator.observe("m", 4, (8,), self.CONFIG, 2000)
        save_calibration(calibrator, worker_a, name="fleet")

        # B's next load sees A's newer snapshot, never a stale copy.
        fresh = load_calibration(worker_b, name="fleet")
        assert fresh.estimate(self._profile(batch=4), self.CONFIG) == 2000


# ---------------------------------------------------------------------------
# Multi-worker + autotune wiring
# ---------------------------------------------------------------------------
def _mp_model():
    return TinyBERT(**SMALL_KW, seed=0)


class TestElasticWiring:
    def test_multiproc_carries_elastic_config(self, tmp_path):
        elastic = ElasticConfig(steal=True)
        rng = np.random.default_rng(7)
        requests = [
            {"model": "bert_small", "inputs": row, "arrival": i * 1e-5}
            for i, row in enumerate(
                rng.integers(0, 16, size=(8, SMALL_KW["seq_len"]))
            )
        ]
        result = serve_multiproc(
            ClusterSpec.heterogeneous(SKEWED_POOL),
            [EndpointSpec("bert_small", _mp_model)],
            requests,
            n_workers=1,
            store_root=str(tmp_path),
            placement="lookahead",
            elastic=elastic,
        )
        assert result.merged.n_requests == 8
        assert result.merged.placement_policy == "lookahead"

    def test_merge_remaps_steal_and_scaling_shards(self):
        from dataclasses import replace as dc_replace

        from repro.serving import (
            BreakerTransition, DecodeStepRecord, FailureRecord, FaultRecord,
            PlacementDecision, PrefixEvent, ShedRecord,
        )
        from repro.serving.multiproc import merge_reports
        from repro.serving.report import EVENT_TYPES, ServingReport
        from repro.serving.request import InferenceRequest

        steal = StealEvent(batch_index=0, model="m", tenant="t",
                           from_shard=0, to_shard=1, at=0.0, reason="drift")
        scaling = ScalingEvent(at=0.0, action="grow", shard=1,
                               reason="slo_attainment", slo_attainment=0.5,
                               shed_rate=0.0)
        request = InferenceRequest(request_id=0, model="m", inputs=np.zeros(2))
        placed = PlacementDecision(
            batch_index=0, model="m", tenant="t", batch_size=1, shard=1,
            policy="lookahead", ready_time=0.0, start=0.0, finish=1.0,
            attempt=1, recovered_from=0,
        )
        prefix = PrefixEvent(batch_index=0, model="m", tenant="t", shard=1,
                             batch_size=1, prefix_key="k", hit=False)
        step = DecodeStepRecord(step_index=1, model="m", tenant="t", shard=0,
                                batch_size=1, position=4, cycles=10,
                                start=1.0, finish=2.0)
        crash = FaultRecord(kind="crash", shard=0, batch_index=0, at=0.0,
                            attempt=0, action="retry", requests=1)
        park = FaultRecord(kind="all_shards_down", shard=None, batch_index=2,
                           at=0.0, attempt=0, action="park", requests=1)
        lost = FailureRecord(request=request, reason="max_retries", at=0.0,
                             shard=1, attempts=2)
        unbound = FailureRecord(request=request, reason="worker_lost", at=0.0,
                                attempts=0)
        shed = ShedRecord(request, "queue_full", 0.0)
        tripped = BreakerTransition(shard=0, at=0.0, from_state="closed",
                                    to_state="open")
        log = (shed, steal, crash, lost, tripped, park, unbound, placed,
               prefix, step, scaling)
        worker = ServingReport(
            completed=(), shard_cycles={}, wall_seconds=0.0, events=log,
        )
        assert {type(event) for event in log} == set(EVENT_TYPES)
        empty = ServingReport(completed=(), shard_cycles={}, wall_seconds=0.0)
        partitions = [
            ClusterSpec.homogeneous(self_config, 2)
            for self_config in (TestCrossWorkerCalibrationStaleness.CONFIG,) * 2
        ]
        merged = merge_reports([empty, worker], partitions)
        assert merged.steals == (
            dc_replace(steal, from_shard=2, to_shard=3),
        )
        assert merged.scaling_events == (dc_replace(scaling, shard=3),)
        # Every kind crosses the merge through the same rule — log order
        # kept, worker-local shards in cluster numbering, None untouched.
        assert merged.events == (
            shed,
            dc_replace(steal, from_shard=2, to_shard=3),
            dc_replace(crash, shard=2),
            dc_replace(lost, shard=3),
            dc_replace(tripped, shard=2),
            park,
            unbound,
            dc_replace(placed, shard=3, recovered_from=2),
            dc_replace(prefix, shard=3),
            dc_replace(step, shard=2),
            dc_replace(scaling, shard=3),
        )
        # The decode step used to be dropped by the merge.
        assert merged.generation_steps == (dc_replace(step, shard=2),)
        assert merged.has_generation_activity
        assert merged.fault_events == (dc_replace(crash, shard=2), park)
        assert merged.failed == (dc_replace(lost, shard=3), unbound)
        assert merged.replacements == 1  # shard 3 vs recovered_from 2

    def test_tuning_config_elastic_round_trip(self):
        from repro.autotune.tuning import TuningConfig

        config = TuningConfig(
            pool=(self_config := SystolicConfig(pe_rows=4, pe_cols=4,
                                                macs_per_pe=4),),
            placement="lookahead",
            steal=True,
        )
        restored = TuningConfig.from_dict(config.to_dict())
        assert restored == config
        elastic = restored.elastic()
        assert elastic == ElasticConfig(steal=True)
        assert "lookahead" in restored.describe()
        # Pre-elastic snapshots (no elastic keys) still load.
        legacy = {k: v for k, v in config.to_dict().items()
                  if k in TuningConfig(pool=(self_config,)).to_dict()
                  and not k.startswith(("steal", "autoscale"))}
        legacy["placement"] = "cost_aware"
        loaded = TuningConfig.from_dict(legacy)
        assert not loaded.elastic().enabled

    def test_replay_build_engine_passes_elastic(self):
        from repro.autotune.replay import EndpointSpec, build_engine
        from repro.autotune.tuning import TuningConfig

        tuning = TuningConfig(
            pool=SKEWED_POOL, placement="lookahead", steal=True,
        )
        engine = build_engine(
            tuning, [EndpointSpec("bert_small", _mp_model)]
        )
        assert engine.elastic.steal
        assert isinstance(engine.placement, LookaheadPlacement)

    def test_saved_configs_naming_retired_thresholds_still_load(self):
        """Dicts and fronts saved while the thresholds were fields load;
        the thresholds they name are ignored for the module constants."""
        from repro.autotune.front import TuningFront
        from repro.autotune.tuning import TuningConfig

        retired = dict(steal_drift_threshold=1.25, affinity_break_factor=3.0,
                       autoscale_window=4)
        pool = (SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4),)
        tuning = TuningConfig(pool=pool, placement="lookahead", steal=True)
        assert TuningConfig.from_dict(dict(tuning.to_dict(), **retired)) == tuning
        elastic = ElasticConfig(autoscale=True, min_shards=2)
        assert ElasticConfig.from_dict(dict(elastic.to_dict(), **retired)) == elastic
        assert not set(retired) & (set(tuning.to_dict()) | set(elastic.to_dict()))

        # A front the pre-change code wrote (each config carries the
        # thresholds at their defaults).
        path = Path(__file__).parent / "data" / "front_with_elastic_thresholds.json"
        saved = json.loads(path.read_text())
        assert all("steal_drift_threshold" in e["config"] for e in saved["entries"])
        front = TuningFront.from_dict(saved)
        assert [entry.config for entry in front.entries] == [
            tuning, TuningConfig(pool=pool * 2, autoscale=True)
        ]
        assert front.evaluated == 5
        assert TuningFront.from_dict(front.to_dict()) == front
