"""Elastic cluster runtime: look-ahead placement and work-stealing.

The load-bearing contracts:

* **defaults are the baseline** — ``steal=True`` moves only batches a
  look-ahead round planned, so under any other placement it produces a
  report bit-identical (fingerprint-equal) to the default engine's;
* **look-ahead placement moves work, never changes arithmetic** —
  outputs match greedy placement bit-for-bit, plans are deterministic,
  and the skewed pool stops funnelling into the fastest shard;
* **work-stealing re-places queued-but-unstarted batches** off
  drifted shards, migrating prefix-cache entries between shards when
  affinity breaks — and every completed request is still answered
  exactly once with baseline-identical bits;
* the satellite regression: equal-cost ties break by shard index
  everywhere.
"""

import numpy as np
import pytest

from repro.autotune.replay import report_fingerprint
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_serving_workload
from repro.serving import (
    BatchProfile,
    ClusterSpec,
    CostAwarePlacement,
    InferenceEngine,
    LeastLoadedPlacement,
    LookaheadPlacement,
    RadixKVCache,
    ShardStats,
    ShardView,
    StealEvent,
    TransformerPrefixAdapter,
    cluster_desc,
    render_cluster_desc,
    workload_cost_model,
)
from repro.serving.elastic import STEAL_DRIFT_THRESHOLD
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


def _slow_shard_0(kw):
    """``_cost``, with shard 0 of the skewed pool priced 16x cheaper than
    it runs: measured against its estimates, the shard drifts 16x slow."""
    full = _cost(kw)
    return lambda profile, config: full(profile, config) / (
        16.0 if config == SKEWED_POOL[0] else 1.0
    )


def _engine(pool=SKEWED_POOL, placement="cost_aware", cost=_cost, **kw):
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(pool).build(), placement=placement, **kw
    )
    engine.register(
        "bert_small", TinyBERT(**SMALL_KW, seed=0), cost_model=cost(SMALL_KW)
    )
    return engine


def _mixed_burst(engine, n_small=16, n_large=4, seed=4, cost=_cost):
    engine.register(
        "bert_large", TinyBERT(**LARGE_KW, seed=0), cost_model=cost(LARGE_KW)
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
# Defaults pinned bit-identical
# ---------------------------------------------------------------------------
class TestDefaultsPinned:
    def test_elastic_off_is_fingerprint_identical_to_baseline(self):
        """Stealing re-places only planned batches: without look-ahead
        rounds ``steal=True`` is the default engine, bit for bit."""
        reports = []
        for steal in (False, True):
            engine = _engine(steal=steal)
            _mixed_burst(engine)
            reports.append(engine.run())
        assert report_fingerprint(reports[0]) == report_fingerprint(reports[1])
        assert not reports[1].has_elastic_activity

    def test_elastic_off_logs_stay_empty(self):
        engine = _engine(steal=False)
        _mixed_burst(engine)
        report = engine.run()
        assert report.steals == ()
        assert not any(isinstance(e, StealEvent) for e in engine.events)


# ---------------------------------------------------------------------------
# Look-ahead placement
# ---------------------------------------------------------------------------
class TestLookaheadPlacement:
    def _run(self, placement="cost_aware"):
        engine = _engine(placement=placement)
        ids = _mixed_burst(engine)
        report = engine.run()
        return _outputs(engine, ids), report

    def test_outputs_bit_identical_to_greedy(self):
        greedy_out, _ = self._run()
        ahead_out, report = self._run(placement="lookahead")
        for a, b in zip(greedy_out, ahead_out):
            assert np.array_equal(a, b), "placement changed results"
        assert report.n_requests == 20

    def test_plan_is_deterministic(self):
        first_out, first = self._run(placement="lookahead")
        second_out, second = self._run(placement="lookahead")
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_lookahead_spreads_the_skewed_pool(self):
        """Joint planning uses shards greedy cost_aware leaves idle."""
        _, greedy = self._run()
        _, ahead = self._run(placement="lookahead")
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
        """A shard 16x slower than its price drifts; queued batches
        migrate off."""
        baseline = _engine()
        ids = _mixed_burst(baseline, n_small=24)
        base_out = (baseline.run(), _outputs(baseline, ids))[1]

        engine = _engine(placement="lookahead", steal=True, cost=_slow_shard_0)
        ids = _mixed_burst(engine, n_small=24, cost=_slow_shard_0)
        report = engine.run()
        assert len(report.completed) == len(ids)
        drift_steals = [s for s in report.steals if s.reason == "drift"]
        assert drift_steals, "no drift steal despite a 16x mispriced shard"
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

    def test_steal_off_honors_the_plan(self):
        engine = _engine(placement="lookahead", cost=_slow_shard_0)
        ids = _mixed_burst(engine, n_small=24, cost=_slow_shard_0)
        report = engine.run()
        assert report.steals == ()
        assert len(report.completed) == len(ids)

    def test_steal_log_replays_identically(self):
        """The steal log replays exactly.  The requests arrive as one
        burst, so look-ahead rounds plan several batches at once, and the
        shard slower than its price has planned batches stolen."""
        reports = []
        for _ in range(2):
            engine = _engine(placement="lookahead", steal=True, cost=_slow_shard_0)
            _mixed_burst(engine, n_small=24, cost=_slow_shard_0)
            reports.append(engine.run())
        first, second = reports
        assert first.steals
        assert first.steals == second.steals


def _hot_prefix_engine(steal, prefix_len=6):
    cache = RadixKVCache(1 << 20)
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(SKEWED_POOL).build(),
        max_batch_size=4,
        flush_timeout=1e-7,
        placement="lookahead" if steal else "cost_aware",
        radix_cache=cache,
        steal=steal,
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
        engine, cache = _hot_prefix_engine(steal=True)
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
        greedy_engine, _ = _hot_prefix_engine(steal=False)
        greedy_ids = _hot_prefix_burst(greedy_engine)
        greedy = greedy_engine.run()

        engine, _ = _hot_prefix_engine(steal=True)
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
        engine = _engine(placement="lookahead", steal=True)
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
        engine = _engine(placement="lookahead", steal=True, cost=_slow_shard_0)
        _mixed_burst(engine, n_small=24, cost=_slow_shard_0)
        report = engine.run()
        assert report.has_elastic_activity
        assert report.steal_count == len(report.steals) == 1
        assert report.steals_by_reason() == {"drift": 1}
        # The section: the steal tally, then the stats tree line for line.
        lines = report.elastic_section().split("\n")
        assert lines[:2] == [
            "work stealing        : 1 batches re-placed (drift 1; 0 cache migrations)",
            "cluster stats        :",
        ]
        tree = render_cluster_desc(cluster_desc(report)).split("\n")
        assert lines[2:] == ["  " + line for line in tree]
        assert tree[0] == (
            "lookahead (batches=7; makespan_s=8.83e-05; shards=4; steals=1; "
            "util_spread=inf)"
        )
        assert report.elastic_section() in report.summary()


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
# Autotune wiring
# ---------------------------------------------------------------------------
def _small_bert():
    return TinyBERT(**SMALL_KW, seed=0)


class TestElasticWiring:
    def test_tuning_config_describes_elastic_steal(self):
        from repro.autotune.tuning import TuningConfig

        pool = (SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4),)
        config = TuningConfig(pool=pool, placement="lookahead", steal=True)
        assert config.steal is True
        assert "lookahead" in config.describe()
        assert "elastic: steal" in config.describe()
        assert "steal" not in TuningConfig(pool=pool, placement="cost_aware").describe()

    def test_replay_build_engine_passes_elastic(self):
        from repro.autotune.replay import EndpointSpec, build_engine
        from repro.autotune.tuning import TuningConfig

        tuning = TuningConfig(
            pool=SKEWED_POOL, placement="lookahead", steal=True,
        )
        engine = build_engine(
            tuning, [EndpointSpec("bert_small", _small_bert)]
        )
        assert engine._controller.steal
        assert isinstance(engine.placement, LookaheadPlacement)
