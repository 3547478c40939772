"""Multi-tenant scheduler tests: fairness, priority, SLOs, async admission.

The load-bearing contracts:

* tenancy never changes results — serving the same requests through
  any tenant split stays bit-identical to single-tenant execution;
* per-tenant cycle totals in the report sum exactly to the engine's
  aggregate ``total_cycles``, which is what the shard arrays counted
  (the placement-log fold is lossless);
* the incremental :class:`BatchAssembler` composes exactly the batches
  the offline :class:`~tests.reference.batcher.DynamicBatcher` plan would;
* the legacy single-tenant ``submit``/``run`` API behaves as in PR 1.
"""

import numpy as np
import pytest

from repro.nn.executor import ArrayBackend, CPWLBackend, FloatBackend
from repro.nn.models import TinyBERT
from repro.serving import (
    BatchAssembler,
    InferenceEngine,
    InferenceRequest,
    ClusterDispatcher,
    StrictPriority,
    TenantConfig,
    TenantRegistry,
    TenantScheduler,
    WeightedRoundRobin,
)
from repro.serving.scheduler import TenantCandidate, make_policy
from repro.systolic import SystolicArray, SystolicConfig

from tests.reference.batcher import DynamicBatcher

RNG = np.random.default_rng(7)


def req(
    i, model="m", arrival=0.0, tenant="default", priority=0, deadline=None,
    prefix_key=None, shape=(1,),
):
    return InferenceRequest(
        request_id=i,
        model=model,
        inputs=np.zeros(shape),
        arrival=arrival,
        tenant=tenant,
        priority=priority,
        deadline=deadline,
        prefix_key=prefix_key,
    )


def tiny_bert():
    return TinyBERT(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)


def array_pool(n=1):
    cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
    return ClusterDispatcher.from_arrays([SystolicArray(cfg) for _ in range(n)], 0.25)


class TestTenantConfig:
    def test_defaults(self):
        cfg = TenantConfig("alice")
        assert cfg.weight == 1.0 and cfg.priority == 0 and cfg.slo_latency is None

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantConfig("")
        with pytest.raises(ValueError):
            TenantConfig("a", weight=0.0)
        with pytest.raises(ValueError):
            TenantConfig("a", weight=-1.0)
        with pytest.raises(ValueError):
            TenantConfig("a", slo_latency=0.0)
        for slo in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="slo_latency must be a finite number > 0"):
                TenantConfig("a", slo_latency=slo)
        with pytest.raises(ValueError, match="weight must be a finite number > 0"):
            TenantConfig("a", weight=float("inf"))

    def test_registry_materialises_defaults(self):
        registry = TenantRegistry()
        assert "ghost" not in registry
        cfg = registry.get("ghost")
        assert cfg.weight == 1.0
        assert "ghost" in registry
        registry.register(TenantConfig("ghost", weight=5.0))
        assert registry.get("ghost").weight == 5.0


class TestBatchAssembler:
    """The incremental assembler must match the offline plan."""

    def drain(self, assembler):
        batches = []
        while True:
            at = assembler.earliest_ready()
            if at is None:
                return batches
            group = assembler.ready_groups(at)[0]
            batches.append(assembler.pop(group, index=len(batches)))

    def test_matches_dynamic_batcher_on_random_streams(self):
        rng = np.random.default_rng(3)
        for trial in range(6):  # the last stream mixes two sample shapes
            n = int(rng.integers(5, 30)) if trial < 5 else 40
            arrivals = np.sort(rng.uniform(0, 1.0 if trial < 5 else 0.1, size=n))
            requests = [
                req(
                    i,
                    model=rng.choice(["m1", "m2"]),
                    arrival=float(arrivals[i]),
                    tenant=rng.choice(["a", "b"]),
                    prefix_key=[None, "p1", "p2"][int(rng.integers(0, 3))],
                    shape=(1 + i % 2,) if trial == 5 else (1,),
                )
                for i in range(n)
            ]
            batcher = DynamicBatcher(max_batch_size=3, flush_timeout=0.05)
            planned = batcher.plan(requests)

            assembler = BatchAssembler(max_batch_size=3, flush_timeout=0.05)
            for r in requests:
                assembler.admit(r)
            incremental = self.drain(assembler)

            def key(b):
                assert len({r.inputs.shape for r in b.requests}) == 1
                return (
                    b.tenant,
                    b.model,
                    b.prefix_key,
                    b.requests[0].inputs.shape,
                    tuple(r.request_id for r in b.requests),
                    round(b.ready_time, 12),
                )

            assert {key(b) for b in planned} == {key(b) for b in incremental}

    def test_full_group_closes_and_next_opens(self):
        assembler = BatchAssembler(max_batch_size=2, flush_timeout=1.0)
        for i in range(3):
            assembler.admit(req(i, arrival=0.0))
        assert assembler.pending_of("default") == 3
        assert assembler.earliest_ready() == 0.0  # the full pair
        batches = self.drain(assembler)
        assert [b.size for b in batches] == [2, 1]
        assert batches[1].ready_time == 1.0  # oldest arrival + timeout

    def test_expired_group_sealed_on_late_same_key_arrival(self):
        assembler = BatchAssembler(max_batch_size=8, flush_timeout=0.5)
        assembler.admit(req(0, arrival=0.0))
        assembler.admit(req(1, arrival=2.0))  # past the 0.5 deadline
        batches = self.drain(assembler)
        assert [b.size for b in batches] == [1, 1]
        assert batches[0].ready_time == 0.5
        assert batches[1].ready_time == 2.5

    def test_tenants_never_share_a_batch(self):
        assembler = BatchAssembler(max_batch_size=8, flush_timeout=1.0)
        assembler.admit(req(0, tenant="a"))
        assembler.admit(req(1, tenant="b"))
        batches = self.drain(assembler)
        assert len(batches) == 2
        assert {b.tenant for b in batches} == {"a", "b"}


class TestPolicies:
    def candidate(self, tenant_id, weight=1.0, priority=0, oldest=0.0):
        return TenantCandidate(
            config=TenantConfig(tenant_id, weight=weight, priority=priority),
            effective_priority=priority,
            oldest_ready=oldest,
            n_ready=1,
        )

    def test_make_policy_names(self):
        assert isinstance(make_policy("wrr"), WeightedRoundRobin)
        assert isinstance(make_policy("weighted_round_robin"), WeightedRoundRobin)
        assert isinstance(make_policy("strict_priority"), StrictPriority)
        custom = StrictPriority()
        assert make_policy(custom) is custom
        with pytest.raises(ValueError):
            make_policy("fifo")

    def test_wrr_share_matches_weights(self):
        policy = WeightedRoundRobin()
        candidates = [self.candidate("a", weight=3.0), self.candidate("b", weight=1.0)]
        wins = [policy.select(candidates) for _ in range(40)]
        assert wins.count("a") == 30
        assert wins.count("b") == 10
        # Interleaved, not bunched: b appears within every 4-round window.
        for start in range(0, 40, 4):
            assert "b" in wins[start : start + 4]

    def test_wrr_idle_tenant_accumulates_no_credit(self):
        policy = WeightedRoundRobin()
        a, b = self.candidate("a"), self.candidate("b")
        # b sits out 10 rounds, then contends: it must not burst ahead
        # with banked credit — equal weights resume 1:1 alternation.
        for _ in range(10):
            assert policy.select([a]) == "a"
        wins = [policy.select([a, b]) for _ in range(6)]
        assert wins.count("a") == 3 and wins.count("b") == 3

    def test_strict_priority_highest_wins(self):
        policy = StrictPriority()
        low = self.candidate("low", priority=0)
        high = self.candidate("high", priority=5)
        assert policy.select([low, high]) == "high"

    def test_strict_priority_ties_break_fifo_then_id(self):
        policy = StrictPriority()
        early = self.candidate("z", priority=1, oldest=0.0)
        late = self.candidate("a", priority=1, oldest=1.0)
        assert policy.select([early, late]) == "z"
        same = self.candidate("a", priority=1, oldest=0.0)
        assert policy.select([early, same]) == "a"


class TestTenantScheduler:
    def scheduler(self, policy="weighted_round_robin", **tenant_weights):
        registry = TenantRegistry()
        for tenant_id, weight in tenant_weights.items():
            registry.register(TenantConfig(tenant_id, weight=weight))
        return TenantScheduler(
            registry, policy, max_batch_size=2, flush_timeout=0.0
        )

    def drain_tenants(self, scheduler):
        order = []
        while True:
            at = scheduler.earliest_ready()
            if at is None:
                return order
            batch = scheduler.pop_ready(at)
            order.append(batch.tenant)
        return order

    def test_empty_tenant_queue_does_not_starve_others(self):
        # "idle" is registered with a huge weight but never submits;
        # "busy" must be served immediately and completely.
        scheduler = self.scheduler(idle=100.0, busy=1.0)
        for i in range(4):
            scheduler.admit(req(i, tenant="busy"))
        order = self.drain_tenants(scheduler)
        assert order == ["busy", "busy"]
        assert scheduler.next_ready() is None
        assert scheduler.pop_ready(0.0) is None

    def test_wrr_interleaves_by_weight(self):
        scheduler = self.scheduler(a=3.0, b=1.0)
        for i in range(12):
            scheduler.admit(req(i, tenant="a"))
        for i in range(12, 24):
            scheduler.admit(req(100 + i, tenant="b"))
        order = self.drain_tenants(scheduler)
        # While both tenants contend (first 8 pops), a gets ~3/4.
        contended = order[:8]
        assert contended.count("a") == 6
        assert contended.count("b") == 2
        # No starvation: b appears among the first 4 decisions.
        assert "b" in order[:4]

    def test_no_priority_inversion_under_strict_priority(self):
        # A low-priority flood ready at the same instant must not run
        # before the high-priority tenant's batch (priority inversion).
        registry = TenantRegistry()
        registry.register(TenantConfig("low", priority=0))
        registry.register(TenantConfig("high", priority=5))
        scheduler = TenantScheduler(
            registry, "strict_priority", max_batch_size=2, flush_timeout=0.0
        )
        for i in range(8):
            scheduler.admit(req(i, tenant="low", priority=0))
        for i in range(8, 10):
            scheduler.admit(req(i, tenant="high", priority=5))
        order = self.drain_tenants(scheduler)
        assert order[0] == "high"
        assert order.count("high") == 1 and order.count("low") == 4

    def test_winner_executes_its_highest_priority_group(self):
        # Regression: tenant A wins arbitration via its priority-9
        # group, so that group (not A's older priority-0 group) must
        # run — otherwise B's priority-5 batch waits behind priority 0.
        registry = TenantRegistry()
        scheduler = TenantScheduler(
            registry, "strict_priority", max_batch_size=2, flush_timeout=0.0
        )
        scheduler.admit(req(0, model="x", tenant="a", priority=0))
        scheduler.admit(req(1, model="y", tenant="a", priority=9))
        scheduler.admit(req(2, model="z", tenant="b", priority=5))
        order = []
        while (at := scheduler.earliest_ready()) is not None:
            batch = scheduler.pop_ready(at)
            order.append(max(r.priority for r in batch.requests))
        assert order == [9, 5, 0]

    def test_request_priority_overrides_tenant_priority(self):
        registry = TenantRegistry()
        registry.register(TenantConfig("meek", priority=0))
        registry.register(TenantConfig("proud", priority=3))
        scheduler = TenantScheduler(
            registry, "strict_priority", max_batch_size=2, flush_timeout=0.0
        )
        scheduler.admit(req(0, tenant="meek", priority=9))  # escalated request
        scheduler.admit(req(1, tenant="proud", priority=3))
        batch = scheduler.pop_ready(scheduler.earliest_ready())
        assert batch.tenant == "meek"

    def test_wrr_flood_cannot_capture_every_slot(self):
        # The WRR analogue of priority inversion: a floods 20 batches,
        # b submits 2; b still lands inside the contended window.
        scheduler = self.scheduler(a=1.0, b=1.0)
        for i in range(40):
            scheduler.admit(req(i, tenant="a"))
        for i in range(40, 44):
            scheduler.admit(req(i, tenant="b"))
        order = self.drain_tenants(scheduler)
        assert order[:4].count("b") == 2  # equal weights: alternation

    def test_wrr_solo_rounds_drop_idle_tenants_credit(self):
        # Regression: solo rounds must still consult the policy so
        # WRR's stale-credit cleanup runs.  Round 1: a and b contend
        # (a wins), then b runs a solo round while a idles — a's
        # negative credit must be dropped, not frozen.  Round 2: a vs
        # fresh tenant c then ties 1:1 and a (first by id) must win;
        # with frozen credit a would lose to c.
        scheduler = self.scheduler(a=1.0, b=1.0, c=1.0)
        scheduler.admit(req(0, tenant="a"))
        scheduler.admit(req(1, tenant="b"))
        assert self.drain_tenants(scheduler) == ["a", "b"]  # b's was solo
        scheduler.admit(req(2, tenant="a"))
        scheduler.admit(req(3, tenant="c"))
        first = scheduler.pop_ready(scheduler.earliest_ready())
        assert first.tenant == "a"

    def test_admission_between_pops(self):
        scheduler = self.scheduler(a=1.0)
        scheduler.admit(req(0, tenant="a"))
        scheduler.admit(req(1, tenant="a"))
        first = scheduler.pop_ready(scheduler.earliest_ready())
        assert first.size == 2
        # Admission while "in flight": new work lands mid-stream.
        scheduler.admit(req(2, tenant="a"))
        second = scheduler.pop_ready(scheduler.earliest_ready())
        assert second.size == 1
        assert scheduler.earliest_ready() is None


class TestEngineMultiTenant:
    def engine(self, n_shards=1, **kw):
        pool = array_pool(n_shards)
        engine = InferenceEngine(
            pool, max_batch_size=2, flush_timeout=1e-4, **kw
        )
        engine.register("bert", tiny_bert())
        return engine, pool

    def test_two_tenant_weighted_fair_cycle_attribution(self):
        """Acceptance: per-tenant cycles sum to total_cycles and the
        tenant split stays bit-identical to single-tenant serving."""
        tokens = RNG.integers(0, 16, size=(10, 8))

        # Single-tenant reference run (legacy API, separate engine).
        ref_engine, _ = self.engine()
        ref_ids = [ref_engine.submit("bert", row) for row in tokens]
        ref_engine.run()
        reference = [ref_engine.result(i) for i in ref_ids]

        engine, pool = self.engine()
        engine.register_tenant("alice", weight=3.0, slo_latency=1.0)
        engine.register_tenant("bob", weight=1.0)
        ids = [
            engine.submit("bert", row, tenant="alice" if i < 5 else "bob")
            for i, row in enumerate(tokens)
        ]
        report = engine.run()

        assert report.n_requests == 10
        assert set(report.tenant_ids) == {"alice", "bob"}
        # Lossless attribution: tenant totals sum to the aggregate,
        # which is every cycle the pool's one array counted.
        assert report.total_cycles > 0
        assert sum(report.tenant_cycles.values()) == report.total_cycles
        assert report.total_cycles == pool.array_of(0).total_cycles
        assert report.tenant_cycles["alice"] > 0
        assert report.tenant_cycles["bob"] > 0
        # Bit-identical to the single-tenant run of the same requests.
        for request_id, expected in zip(ids, reference):
            assert np.array_equal(engine.result(request_id), expected)
        # The SLO section appears in the summary for named tenants.
        assert "tenant 'alice'" in report.summary()

    def test_wrr_weight_shapes_latency_under_contention(self):
        engine, _ = self.engine()
        engine.register_tenant("gold", weight=4.0)
        engine.register_tenant("free", weight=1.0)
        tokens = RNG.integers(0, 16, size=(16, 8))
        for i, row in enumerate(tokens):
            engine.submit("bert", row, tenant="gold" if i % 2 == 0 else "free")
        report = engine.run()
        # Same demand, one shard: the weight-4 tenant waits less.
        gold = report.tenant_latencies("gold").mean()
        free = report.tenant_latencies("free").mean()
        assert gold < free

    def test_strict_priority_orders_execution(self):
        engine, _ = self.engine(policy="strict_priority")
        engine.register_tenant("batchjob", priority=0)
        engine.register_tenant("interactive", priority=10)
        tokens = RNG.integers(0, 16, size=(6, 8))
        for row in tokens[:4]:
            engine.submit("bert", row, tenant="batchjob")
        for row in tokens[4:]:
            engine.submit("bert", row, tenant="interactive")
        report = engine.run()
        first = min(report.completed, key=lambda c: (c.start, c.batch_index))
        assert first.request.tenant == "interactive"
        assert max(
            c.finish for c in report.tenant_completed("interactive")
        ) <= min(c.finish for c in report.tenant_completed("batchjob"))

    def test_register_tenant_after_submit_applies(self):
        # Priorities resolve lazily at scheduling time, like weights:
        # configuring the tenant after its requests are queued works.
        engine, _ = self.engine(policy="strict_priority")
        tokens = RNG.integers(0, 16, size=(4, 8))
        for row in tokens[:2]:
            engine.submit("bert", row, tenant="vip")
        for row in tokens[2:]:
            engine.submit("bert", row, tenant="low")
        engine.register_tenant("vip", priority=10)  # after submit
        report = engine.run()
        first = min(report.completed, key=lambda c: (c.start, c.batch_index))
        assert first.request.tenant == "vip"

    def test_deadline_expired_request_accounting(self):
        engine, _ = self.engine()
        engine.register_tenant("slo", slo_latency=1e-12)  # impossibly tight
        tokens = RNG.integers(0, 16, size=(2, 8))
        engine.submit("bert", tokens[0], tenant="slo")
        # Explicit per-request deadline, generous: met.
        engine.submit("bert", tokens[1], tenant="slo", deadline=10.0)
        report = engine.run()
        assert report.deadline_misses("slo") == 1
        assert report.slo_attainment("slo") == 0.5
        missed = [c for c in report.completed if c.deadline_missed]
        # Only the explicit-deadline request carries deadline_missed;
        # the SLO-derived miss is scored by the report.
        assert len(missed) == 0
        assert "SLO attainment" in report.slo_section()

    def test_source_accepts_explicit_none_arrival(self):
        engine, _ = self.engine()
        rows = RNG.integers(0, 16, size=(2, 8))
        engine.enqueue([
            {"model": "bert", "inputs": rows[0], "arrival": None},
            {"model": "bert", "inputs": rows[1]},
        ])
        report = engine.run()
        assert report.n_requests == 2
        assert all(c.request.arrival == 0.0 for c in report.completed)

    def test_default_tenant_deadline_shows_slo_in_summary(self):
        engine, _ = self.engine()
        engine.submit("bert", RNG.integers(0, 16, size=8), deadline=1e-12)
        report = engine.run()
        assert report.deadline_misses("default") == 1
        assert "SLO attainment" in report.summary()

    def test_no_deadlines_means_no_slo_score(self):
        engine, _ = self.engine()
        engine.submit("bert", RNG.integers(0, 16, size=8))
        report = engine.run()
        assert report.slo_attainment("default") is None
        assert report.deadline_misses("default") == 0

    def test_default_tenant_backward_compat(self):
        """The PR-1 API unchanged: no tenant anywhere, same report shape."""
        engine, pool = self.engine(n_shards=2)
        tokens = RNG.integers(0, 16, size=(8, 8))
        ids = [engine.submit("bert", row) for row in tokens]
        report = engine.run()
        assert report.n_requests == 8
        assert {c.shard for c in report.completed} == {0, 1}
        assert report.tenant_ids == ["default"]
        assert report.tenant_cycles == {"default": report.total_cycles}
        # No tenant SLO section in the single-tenant summary.
        assert "tenant" not in report.summary()
        for request_id, row in zip(ids, tokens):
            assert engine.result(request_id) is not None

    def test_submit_while_in_flight_via_run(self):
        # Code running while the first batch executes submits more; the
        # same run admits and serves it — submission never waits for a
        # drain.
        engine = InferenceEngine(array_pool(1), max_batch_size=2, flush_timeout=1e-4)
        model = tiny_bert()
        tokens = RNG.integers(0, 16, size=(6, 8))
        later = []

        def submitting_infer(x, backend):
            if not later:
                later.extend(engine.submit("bert", row) for row in tokens[2:])
            return model.infer(x, backend)

        engine.register("bert", infer_fn=submitting_infer)
        first = [engine.submit("bert", row) for row in tokens[:2]]
        served = [c.request.request_id for c in engine.run().completed]
        assert len(later) == 4
        assert served[:2] == first and sorted(served[2:]) == later
        for request_id in first + later:
            assert engine.result(request_id) is not None

    def test_source_rejects_inference_request_instances(self):
        # Caller-built InferenceRequest ids would silently stop
        # matching result() after the engine re-ids them, so the type
        # is rejected outright — and so is a positional tuple: an item
        # is a TracedRequest or a mapping.
        engine, _ = self.engine()
        row = RNG.integers(0, 16, size=8)
        for item in (
            InferenceRequest(request_id=0, model="bert", inputs=row),
            ("bert", row, 0.0),
        ):
            with pytest.raises(TypeError):
                engine.enqueue([item])
        assert not engine.run().completed

    def test_source_items_validated_like_submit(self):
        engine, _ = self.engine()
        row = RNG.integers(0, 16, size=8)
        with pytest.raises(ValueError):
            engine.enqueue([{"model": "bert", "inputs": row, "arrival": -1.0}])
        with pytest.raises(KeyError):
            engine.enqueue([{"model": "nope", "inputs": row}])
        for missing in ("model", "inputs"):
            item = {"model": "bert", "inputs": row}
            del item[missing]
            with pytest.raises(ValueError, match=missing):
                engine.enqueue([item])
        assert not engine.run().completed

    def test_source_dict_rejects_unknown_keys(self):
        engine, _ = self.engine()
        row = RNG.integers(0, 16, size=8)
        with pytest.raises(ValueError, match="dealine"):
            engine.enqueue([{"model": "bert", "inputs": row, "dealine": 1e-3}])  # typo
        assert not engine.run().completed

    def test_source_interleaves_with_buffered_submissions(self):
        engine, _ = self.engine()
        rows = RNG.integers(0, 16, size=(4, 8))
        submitted = [
            engine.submit("bert", rows[0], arrival=0.0),
            engine.submit("bert", rows[1], arrival=3e-4),
        ]
        enqueued = engine.enqueue([
            {"model": "bert", "inputs": rows[2], "arrival": 1e-4},
            {"model": "bert", "inputs": rows[3], "arrival": 2e-4},
        ])
        report = engine.run()
        assert report.n_requests == 4
        # Admitted by arrival, whichever door each came through.
        admitted = sorted(report.completed, key=lambda c: c.request.arrival)
        assert [c.request.request_id for c in admitted] == [
            submitted[0], *enqueued, submitted[1]
        ]
        for request_id in submitted + enqueued:
            assert engine.result(request_id) is not None

    def test_report_names_only_this_runs_tenants(self):
        # Regression: the shard arrays keep counting across runs, but a
        # run's report must not list tenants served in earlier runs.
        engine, _ = self.engine()
        engine.submit("bert", RNG.integers(0, 16, size=8), tenant="early")
        assert engine.run().tenant_ids == ["early"]
        engine.submit("bert", RNG.integers(0, 16, size=8), tenant="late")
        report = engine.run()
        assert report.tenant_ids == ["late"]
        assert sum(report.tenant_cycles.values()) == report.total_cycles > 0

    def test_functional_backend_tenants_have_zero_cycles(self):
        engine = InferenceEngine(
            ClusterDispatcher([FloatBackend()]), max_batch_size=2, flush_timeout=1e-4
        )
        engine.register("bert", tiny_bert())
        engine.submit("bert", RNG.integers(0, 16, size=8), tenant="t1")
        report = engine.run()
        assert report.tenant_cycles == {"t1": 0}
        assert report.total_cycles == 0
