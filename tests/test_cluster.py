"""Cluster placement API tests: policies, cost models, admission control.

The load-bearing contracts:

* the default ``round_robin`` placement reproduces the PR 3 acquire-time
  batch→shard mapping *exactly* (randomized regression);
* ``cost_aware`` placement is deterministic under a fixed request
  stream, and on a skewed heterogeneous pool it finishes the same work
  in less simulated time than round-robin;
* heterogeneous grids/clocks never change results — only timing;
* admission control sheds over-cap and deadline-doomed requests at
  admit time and accounts for them in the report;
* the quantized-weight cache is bit-identical and staleness-safe
  under optimizer steps / explicit dirty marks.
"""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, bump_data_version, data_version
from repro.nn.executor import ArrayBackend, CPWLBackend
from repro.nn.models import TinyBERT
from repro.nn.training import Adam
from repro.nn.workload import Workload
from repro.serving import (
    BatchProfile,
    CalibratingCostModel,
    ClusterSpec,
    CostAwarePlacement,
    InferenceEngine,
    LeastLoadedPlacement,
    RoundRobinPlacement,
    ShardSpec,
    ShardView,
    ShedRecord,
    make_placement_policy,
    workload_cost_model,
)
from repro.systolic import SystolicConfig

RNG = np.random.default_rng(11)

SMALL = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=50e6)


def tiny_bert():
    return TinyBERT(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)


def profile(model="m", batch=2, shape=(8,), ready=0.0, estimator=None):
    return BatchProfile(
        model=model,
        tenant="default",
        batch_size=batch,
        sample_shape=shape,
        ready_time=ready,
        estimator=estimator,
    )


def view(index, busy=0.0, config=None):
    return ShardView(
        index=index,
        busy_until=busy,
        clock_hz=None if config is None else config.clock_hz,
        config=config,
    )


class TestClusterSpec:
    def test_homogeneous_builds_identical_shards(self):
        spec = ClusterSpec.homogeneous(SMALL, 3, granularity=0.25)
        pool = spec.build()
        assert pool.n_shards == 3
        assert [config for config, _ in pool.design_points] == [SMALL] * 3

    def test_heterogeneous_design_points(self):
        spec = ClusterSpec.heterogeneous([BIG, SMALL, SLOW])
        pool = spec.build()
        assert [config for config, _ in pool.design_points] == [BIG, SMALL, SLOW]
        assert pool.design_points[2][0].clock_hz == 50e6
        assert "50 MHz" in spec.describe()

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(())

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec(SMALL, granularity=0.0)


class TestPolicies:
    def test_make_placement_policy_names(self):
        assert isinstance(make_placement_policy("round_robin"), RoundRobinPlacement)
        assert isinstance(make_placement_policy("least_loaded"), LeastLoadedPlacement)
        assert isinstance(make_placement_policy("cost_aware"), CostAwarePlacement)
        custom = CostAwarePlacement()
        assert make_placement_policy(custom) is custom
        with pytest.raises(ValueError):
            make_placement_policy("random")

    def test_round_robin_cycles(self):
        policy = RoundRobinPlacement()
        shards = [view(0), view(1), view(2)]
        assert [policy.place(profile(), shards) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_least_loaded_picks_smallest_backlog(self):
        policy = LeastLoadedPlacement()
        shards = [view(0, busy=3.0, config=SMALL), view(1, busy=1.0, config=SMALL)]
        assert policy.place(profile(ready=0.0), shards) == 1
        # Backlog is measured at the batch's ready time: by t=3 both
        # are free and the tie breaks to the lowest index.
        assert policy.place(profile(ready=3.0), shards) == 0

    def test_least_loaded_occupancy_in_own_cycles(self):
        # Same one-second backlog, but shard 1's clock makes that fewer
        # of *its* cycles: the faster shard's backlog weighs more.
        policy = LeastLoadedPlacement()
        shards = [view(0, busy=1.0, config=SMALL), view(1, busy=1.0, config=SLOW)]
        assert policy.place(profile(ready=0.0), shards) == 1

    def test_cost_aware_prefers_earliest_finish(self):
        # Free slow shard vs busy fast shard: with the closed-form
        # estimate the fast shard still finishes first.
        def estimator(prof, config):
            return config.estimate_gemm_cycles(64, 64, 64)

        policy = CostAwarePlacement()
        slow_free = view(0, busy=0.0, config=SLOW)
        big_busy = view(1, busy=1e-5, config=BIG)
        chosen = policy.place(profile(estimator=estimator), [slow_free, big_busy])
        slow_eta = SLOW.estimate_gemm_cycles(64, 64, 64) / SLOW.clock_hz
        big_eta = 1e-5 + BIG.estimate_gemm_cycles(64, 64, 64) / BIG.clock_hz
        assert big_eta < slow_eta
        assert chosen == 1

    def test_cost_aware_without_estimates_is_earliest_available(self):
        policy = CostAwarePlacement()
        shards = [view(0, busy=2.0, config=SMALL), view(1, busy=0.5, config=SMALL)]
        assert policy.place(profile(), shards) == 1

    def test_mixed_pool_does_not_funnel_to_functional_shard(self):
        # Regression: a shard without a cycle model must not win on
        # ignorance.  least_loaded compares the mixed pool in seconds
        # (cycles are incomparable with a clock-less shard), and
        # cost_aware charges the unpriceable shard the most expensive
        # known service time.
        backlogged_functional = view(1, busy=1.0, config=None)
        assert LeastLoadedPlacement().place(
            profile(ready=0.0),
            [view(0, busy=1e-3, config=SMALL), backlogged_functional],
        ) == 0

        def estimator(prof, config):
            return None if config is None else config.estimate_gemm_cycles(64, 64, 64)

        free_functional = view(1, busy=0.0, config=None)
        array_shard = view(0, busy=0.0, config=SMALL)
        chosen = CostAwarePlacement().place(
            profile(estimator=estimator), [array_shard, free_functional]
        )
        assert chosen == 0  # ties on the pessimistic charge break by index


class TestCostModels:
    def test_calibrator_exact_and_per_row(self):
        model = CalibratingCostModel()
        model.observe("bert", 4, (8,), SMALL, 1000)
        assert model.estimate(profile("bert", 4, (8,)), SMALL) == 1000.0
        # Clock differences don't change cycle counts.
        retimed = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=1e6)
        assert model.estimate(profile("bert", 4, (8,)), retimed) == 1000.0
        # Unseen batch size: per-row scaling.
        assert model.estimate(profile("bert", 8, (8,)), SMALL) == 2000.0

    def test_calibrator_cross_config_scaling(self):
        model = CalibratingCostModel()
        model.observe("bert", 2, (8,), SMALL, 1000)
        estimate = model.estimate(profile("bert", 2, (8,)), BIG)
        dim = CalibratingCostModel.PROXY_DIM
        ratio = BIG.estimate_gemm_cycles(dim, dim, dim) / SMALL.estimate_gemm_cycles(
            dim, dim, dim
        )
        assert estimate == pytest.approx(1000.0 * ratio)
        # The big grid needs fewer cycles, so the estimate shrinks.
        assert estimate < 1000.0

    def test_calibrator_unknown_is_none(self):
        model = CalibratingCostModel()
        assert model.estimate(profile("ghost"), SMALL) is None
        model.observe("bert", 2, (8,), SMALL, 100)
        assert model.estimate(profile("bert", 2, (4,)), SMALL) is None  # other shape

    def test_workload_cost_model_closed_form(self):
        calls = []

        def builder(batch, shape):
            calls.append((batch, shape))
            return Workload("wl").add_gemm(batch * 8, 8, 8)

        estimator = workload_cost_model(builder)
        cycles = estimator(profile(batch=2), SMALL)
        assert cycles == SMALL.estimate_gemm_cycles(16, 8, 8)
        estimator(profile(batch=2), SMALL)  # memoised
        assert len(calls) == 1
        # Bigger array, same workload: fewer cycles.
        assert estimator(profile(batch=2), BIG) < cycles

    def test_calibrator_config_dict_round_trip(self):
        from repro.serving import config_from_dict, config_to_dict

        for config in (SMALL, BIG, SystolicConfig(
            pe_rows=8, pe_cols=4, macs_per_pe=2, nonlinear_enabled=False,
            l3_out_width=3, clock_hz=123e6,
        )):
            assert config_from_dict(config_to_dict(config)) == config

    def test_workload_cost_model_gemm_only_on_plain_sa(self):
        plain = SystolicConfig(
            pe_rows=4, pe_cols=4, macs_per_pe=4, nonlinear_enabled=False
        )
        estimator = workload_cost_model(
            lambda batch, shape: Workload("wl")
            .add_gemm(8, 8, 8)
            .add_nonlinear("relu", 8, 8)
        )
        gemm_only = estimator(profile(), plain)
        assert gemm_only == plain.estimate_gemm_cycles(8, 8, 8)
        assert estimator(profile(), SMALL) > gemm_only  # ONE-SA adds the MHP


def build_engine(configs, placement, cost_model=None, **engine_kw):
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(list(configs)).build(),
        max_batch_size=2,
        flush_timeout=1e-4,
        placement=placement,
        **engine_kw,
    )
    engine.register("bert", tiny_bert(), cost_model=cost_model)
    return engine


def random_stream(rng, n=14):
    arrivals = np.sort(rng.uniform(0.0, 5e-4, size=n))
    rows = rng.integers(0, 16, size=(n, 8))
    tenants = rng.choice(["a", "b", "default"], size=n)
    return [
        dict(model="bert", inputs=rows[i], arrival=float(arrivals[i]), tenant=str(tenants[i]))
        for i in range(n)
    ]


class TestEnginePlacement:
    def test_round_robin_reproduces_pr3_mapping_randomized(self):
        # The pinned regression: under the default policy the i-th
        # executed batch lands on shard i % n_shards — exactly the old
        # acquire-time iterator — for arbitrary multi-tenant streams.
        rng = np.random.default_rng(5)
        for trial in range(4):
            engine = build_engine([SMALL, SMALL, SMALL], "round_robin")
            for item in random_stream(rng):
                engine.submit(**item)
            report = engine.run()
            assert report.n_requests == 14
            assert report.placements  # the decision log is populated
            for decision in report.placements:
                assert decision.shard == decision.batch_index % 3
            for record in report.completed:
                assert record.shard == record.batch_index % 3

    def test_round_robin_mapping_persists_across_runs(self):
        engine = build_engine([SMALL, SMALL], "round_robin")
        engine.submit("bert", RNG.integers(0, 16, size=8))
        first = engine.run().completed[0]
        engine.submit("bert", RNG.integers(0, 16, size=8))
        second = engine.run().completed[0]
        # The counter continues across runs, like the old acquire loop.
        assert (first.shard, second.shard) == (0, 1)

    def test_heterogeneous_pool_results_identical_to_reference(self):
        # Mixed grids and clocks change timing, never results: every
        # policy returns bit-identical outputs on a same-format pool.
        tokens = RNG.integers(0, 16, size=(10, 8))
        model = tiny_bert()
        reference = [
            model.infer(row[None, :], CPWLBackend(0.25))[0] for row in tokens
        ]
        for placement in ("round_robin", "least_loaded", "cost_aware"):
            engine = build_engine([BIG, SMALL, SLOW], placement)
            ids = [engine.submit("bert", row) for row in tokens]
            report = engine.run()
            assert report.n_requests == 10
            for request_id, expected in zip(ids, reference):
                assert np.array_equal(engine.result(request_id), expected)

    def test_cost_aware_deterministic_under_fixed_seed(self):
        def placements_of(seed):
            rng = np.random.default_rng(seed)
            engine = build_engine([BIG, SMALL, SLOW, SMALL], "cost_aware")
            engine.enqueue(random_stream(rng, n=20))
            report = engine.run()
            return [
                (d.batch_index, d.shard, d.start, d.finish)
                for d in report.placements
            ]

        assert placements_of(7) == placements_of(7)
        assert placements_of(7) != placements_of(8)  # streams differ

    def test_cost_aware_beats_round_robin_on_skewed_pool(self):
        # One fast shard + three slow shards, same-instant burst: the
        # cost model routes work to capacity; blind round-robin queues
        # it behind the slow shards.
        configs = [BIG, SLOW, SLOW, SLOW]
        tokens = RNG.integers(0, 16, size=(16, 8))

        def makespan(placement):
            engine = build_engine(configs, placement)
            for row in tokens:
                engine.submit("bert", row, arrival=0.0)
            report = engine.run()
            assert report.n_requests == 16
            return report.makespan, report

        rr_span, rr_report = makespan("round_robin")
        ca_span, ca_report = makespan("cost_aware")
        assert ca_span < rr_span
        # The report's imbalance metric sees the skew the cost model
        # *should* produce: the fast shard does most of the work.
        fast_busy = ca_report.shard_busy[0]
        assert fast_busy == max(ca_report.shard_busy.values())

    def test_placement_section_and_utilization_in_report(self):
        engine = build_engine([SMALL, SMALL], "round_robin")
        for row in RNG.integers(0, 16, size=(8, 8)):
            engine.submit("bert", row)
        report = engine.run()
        assert set(report.shard_busy) == {0, 1}
        assert all(busy > 0 for busy in report.shard_busy.values())
        utilization = report.shard_utilization()
        assert all(0 < u <= 1 for u in utilization.values())
        assert report.imbalance() >= 1.0
        section = report.placement_section()
        assert "round_robin" in section
        assert "imbalance" in section
        assert section in report.summary()

    def test_single_shard_summary_has_no_placement_block(self):
        engine = build_engine([SMALL], "round_robin")
        engine.submit("bert", RNG.integers(0, 16, size=8))
        report = engine.run()
        assert "placement" not in report.summary()

    def test_invalid_policy_shard_rejected(self):
        class Broken(RoundRobinPlacement):
            def place(self, batch, shards):
                return 99

        engine = build_engine([SMALL], Broken())
        engine.submit("bert", RNG.integers(0, 16, size=8))
        with pytest.raises(ValueError, match="returned shard"):
            engine.run()


class TestAdmissionControl:
    def engine(self, **tenant_kw):
        engine = build_engine([SMALL], "round_robin")
        if tenant_kw:
            from repro.serving import TenantConfig

            engine.tenants.register(TenantConfig("capped", **tenant_kw))
        return engine

    def test_queue_depth_cap_sheds_overflow(self):
        engine = self.engine(max_queue_depth=2)
        ids = [
            engine.submit("bert", row, arrival=0.0, tenant="capped")
            for row in RNG.integers(0, 16, size=(5, 8))
        ]
        report = engine.run()
        assert report.n_requests == 2
        assert report.shed_count == 3
        assert report.tenant_shed("capped") == 3
        assert report.shed_by_reason() == {"queue_full": 3}
        served = {c.request.request_id for c in report.completed}
        for request_id in ids:
            if request_id in served:
                engine.result(request_id)
            else:
                with pytest.raises(KeyError):
                    engine.result(request_id)
        assert "requests shed" in report.summary()

    def test_cap_applies_to_queue_not_lifetime(self):
        # Staggered arrivals: earlier requests drain before later ones
        # arrive, so the cap never trips.
        engine = self.engine(max_queue_depth=2)
        for i, row in enumerate(RNG.integers(0, 16, size=(6, 8))):
            engine.submit("bert", row, arrival=i * 1.0, tenant="capped")
        report = engine.run()
        assert report.n_requests == 6
        assert report.shed_count == 0

    def test_deadline_doomed_shed_without_estimates(self):
        # No cost information: only a deadline already in the past at
        # arrival is provably doomed.
        engine = self.engine(shed_doomed=True)
        engine.submit(
            "bert", RNG.integers(0, 16, size=8),
            arrival=1.0, tenant="capped", deadline=0.5,
        )
        engine.submit(
            "bert", RNG.integers(0, 16, size=8),
            arrival=1.0, tenant="capped", deadline=2.0,
        )
        report = engine.run()
        assert report.shed_count == 1
        assert report.shed_by_reason() == {"deadline_doomed": 1}
        assert report.shed[0].request.deadline == 0.5

    def test_deadline_doomed_uses_cost_model(self):
        # With a declared cost model the gate knows the best-case
        # service time and sheds a deadline no shard can meet.
        estimator = workload_cost_model(
            lambda batch, shape: Workload("wl").add_gemm(batch * 8, 8, 8)
        )
        engine = build_engine([SMALL], "round_robin", cost_model=estimator)
        from repro.serving import TenantConfig

        engine.tenants.register(TenantConfig("strict", shed_doomed=True))
        best_case = SMALL.estimate_gemm_cycles(8, 8, 8) / SMALL.clock_hz
        row = RNG.integers(0, 16, size=8)
        engine.submit("bert", row, arrival=0.0, tenant="strict",
                      deadline=best_case / 2)  # unmeetable
        engine.submit("bert", row, arrival=0.0, tenant="strict",
                      deadline=1.0)  # generous
        report = engine.run()
        assert report.shed_by_reason() == {"deadline_doomed": 1}
        assert report.n_requests == 1

    def test_deadlines_stay_accounting_only_by_default(self):
        engine = self.engine()  # no admission-control fields
        engine.submit(
            "bert", RNG.integers(0, 16, size=8),
            arrival=1.0, tenant="capped", deadline=0.0,
        )
        report = engine.run()
        assert report.shed_count == 0
        assert report.n_requests == 1
        assert report.deadline_misses("capped") == 1

    def test_shed_log_visible_between_steps(self):
        engine = self.engine(max_queue_depth=1)
        rows = RNG.integers(0, 16, size=(3, 8))
        for row in rows:
            engine.submit("bert", row, arrival=0.0, tenant="capped")
        engine.step()
        shed = [e for e in engine.events if isinstance(e, ShedRecord)]
        assert len(shed) == 2 and {r.reason for r in shed} == {"queue_full"}

    def test_max_queue_depth_validated(self):
        from repro.serving import TenantConfig

        with pytest.raises(ValueError):
            TenantConfig("bad", max_queue_depth=0)


class TestQuantizedWeightCache:
    """Staleness-safe parameter caching on the fixed-point backends."""

    def test_repeat_inference_hits_cache_bit_identically(self):
        model = tiny_bert()
        backend = CPWLBackend(0.25)
        tokens = RNG.integers(0, 16, size=(4, 8))
        first = model.infer(tokens, backend)
        hits_before = backend.param_cache.hits
        second = model.infer(tokens, backend)
        assert backend.param_cache.hits > hits_before
        assert np.array_equal(first, second)
        # And identical to a cache-cold backend.
        assert np.array_equal(first, model.infer(tokens, CPWLBackend(0.25)))

    def test_conv_reshaped_weight_view_hits_cache(self):
        from repro.nn.models import SmallResNet

        model = SmallResNet(in_channels=1, n_classes=3, seed=0)
        model.eval()
        backend = CPWLBackend(0.25)
        images = RNG.normal(size=(2, 1, 8, 8))
        model.infer(images, backend)
        misses = backend.param_cache.misses
        model.infer(images, backend)
        # Steady state: no new derivations, only hits.
        assert backend.param_cache.misses == misses
        assert backend.param_cache.hits > 0

    def test_optimizer_step_invalidates(self):
        model = tiny_bert()
        backend = CPWLBackend(0.25)
        tokens = RNG.integers(0, 16, size=(2, 8))
        before = model.infer(tokens, backend)
        # One visible training step: gradients flow, weights move.
        from repro.nn.autograd import cross_entropy

        optimizer = Adam(model.parameters(), lr=0.5)
        logits = model.forward(tokens)
        loss = cross_entropy(logits, np.zeros(2, dtype=int))
        loss.backward()
        optimizer.step()
        after = model.infer(tokens, backend)
        fresh = model.infer(tokens, CPWLBackend(0.25))
        assert np.array_equal(after, fresh)  # no stale quantized weights
        assert not np.array_equal(before, after)  # the step was visible

    def test_mark_dirty_invalidates_manual_mutation(self):
        model = tiny_bert()
        backend = CPWLBackend(0.25)
        tokens = RNG.integers(0, 16, size=(2, 8))
        model.infer(tokens, backend)
        weight = model.classifier.weight
        weight.data[...] += 1.0
        weight.mark_dirty()
        fresh = model.infer(tokens, CPWLBackend(0.25))
        assert np.array_equal(model.infer(tokens, backend), fresh)

    def test_rebound_parameter_invalidates_by_identity(self):
        model = tiny_bert()
        backend = CPWLBackend(0.25)
        tokens = RNG.integers(0, 16, size=(2, 8))
        model.infer(tokens, backend)
        # Rebinding to a new array needs no dirty mark at all.
        model.classifier.weight.data = model.classifier.weight.data + 1.0
        fresh = model.infer(tokens, CPWLBackend(0.25))
        assert np.array_equal(model.infer(tokens, backend), fresh)

    def test_data_version_tracks_base_buffer(self):
        array = np.zeros((4, 4))
        assert data_version(array) == 0
        bump_data_version(array)
        assert data_version(array) == 1
        assert data_version(array.reshape(2, 8)) == 1  # views share it
        assert data_version(array.T) == 1
        t = Tensor(np.ones(3), requires_grad=True)
        t.mark_dirty()
        assert data_version(t.data) == 1

    def test_array_backend_serving_uses_cache(self):
        engine = build_engine([SMALL], "round_robin")
        backend = engine.dispatcher.backends[0]
        for row in RNG.integers(0, 16, size=(4, 8)):
            engine.submit("bert", row)
        engine.run()
        misses = backend.param_cache.misses
        for row in RNG.integers(0, 16, size=(4, 8)):
            engine.submit("bert", row)
        engine.run()
        assert backend.param_cache.misses == misses  # steady state
        assert backend.param_cache.hits > 0
