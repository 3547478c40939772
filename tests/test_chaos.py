"""Chaos suite: the fault-tolerance invariants of the serving runtime.

The load-bearing contract, pinned over explicit plans and seeded
sweeps: **every admitted, non-shed request either completes exactly
once, bit-identical to a fault-free run, or is reported failed with a
reason** — and the fault counters reconcile exactly (every ``retry``
action produces exactly one follow-up attempt; completed + failed
partition the admitted requests).

Everything runs in simulated time off deterministic plans, so each
test is exactly as reproducible as a healthy run: no sleeps, no real
clocks, no flaky timing.
"""

import os

import numpy as np
import pytest
from chaos_plans import retry_spending_outage
from invariants import check_invariants

from repro.nn.executor import ArrayBackend
from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterDispatcher,
    ClusterSpec,
    ElasticConfig,
    EndpointSpec,
    FabricFault,
    FaultPlan,
    InferenceEngine,
    ShardCrash,
    ShardSlowdown,
    WorkerDeath,
    WorkerFailedError,
    corrupt_fabric_entries,
    serve_multiproc,
)
from repro.serving.cluster import QUARANTINE, QUARANTINE_FACTOR
from repro.serving.faults import MAX_RETRIES, backoff
from repro.store import MISSING, FileStore
from repro.systolic import SystolicArray, SystolicConfig

pytestmark = pytest.mark.chaos

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
MODEL_KWARGS = dict(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
    causal=True, seed=0,
)


def _pool(n_shards):
    return ClusterDispatcher.from_arrays(
        [SystolicArray(CONFIG) for _ in range(n_shards)], 0.25
    )


def _engine(n_shards, faults=None, **kw):
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    engine = InferenceEngine(_pool(n_shards), faults=faults, **kw)
    engine.register("bert", TinyBERT(**MODEL_KWARGS))
    return engine


def _tokens(n, seed=0):
    return np.random.default_rng(seed).integers(0, 16, size=(n, 8))


def _run(engine, tokens, spacing=1e-5, **submit_kw):
    ids = [engine.submit("bert", row, arrival=i * spacing, **submit_kw)
           for i, row in enumerate(tokens)]
    return ids, engine.run()


def _outputs_by_input(report):
    """Output bytes keyed by input bytes — the placement-free identity
    of a request, comparable across runs with different engine ids."""
    return {
        record.request.inputs.tobytes(): record.outputs.tobytes()
        for record in report.completed
    }


class TestPlanConstruction:
    def test_from_seed_reproducible(self):
        kw = dict(n_shards=4, horizon=1.0, crash_rate=1.0,
                  n_workers=2, death_rate=1.0)
        assert FaultPlan.from_seed(7, **kw) == FaultPlan.from_seed(7, **kw)
        assert FaultPlan.from_seed(7, **kw) != FaultPlan.from_seed(8, **kw)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="at < until"):
            ShardCrash(shard=0, at=2.0, until=1.0)
        with pytest.raises(ValueError, match="at < until"):
            ShardSlowdown(shard=0, at=-1.0, until=1.0, factor=2.0)
        with pytest.raises(ValueError, match="factor"):
            ShardSlowdown(shard=0, at=0.0, until=1.0, factor=0.5)
        with pytest.raises(ValueError, match="nonzero"):
            WorkerDeath(worker=0, at=1.0, exit_code=0)
        with pytest.raises(ValueError, match="fabric fault kind"):
            FabricFault(kind="gremlins", namespace="ns")
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.from_seed(0, n_shards=1, horizon=0.0)

    def test_retry_policy_backoff_capped(self):
        assert backoff(0) == 1e-4
        assert backoff(1) == 2e-4
        assert backoff(6) == 6.4e-3
        assert backoff(7) == backoff(50) == 1e-2  # capped, never unbounded

    def test_for_shard_block_remaps_and_drops(self):
        plan = FaultPlan(events=(
            ShardCrash(shard=2, at=0.0, until=1.0),
            ShardCrash(shard=5, at=0.0, until=1.0),
            ShardSlowdown(shard=3, at=0.0, until=1.0, factor=2.0),
            WorkerDeath(worker=1, at=0.5),
            FabricFault(kind="corrupt", namespace="ns"),
        ))
        block = plan.for_shard_block(2, 2)  # global shards 2..3
        assert block.crashes(0) and block.crashes(0)[0].shard == 0
        assert not block.crashes(3)  # shard 5 dropped
        assert block.slowdown_factor(1, 0.5) == 2.0
        assert block.worker_death(1) is not None  # worker events kept
        assert block.fabric_faults("corrupt")  # fabric events kept

    def test_without_worker_death(self):
        plan = FaultPlan(events=(WorkerDeath(worker=0, at=0.5),
                                 WorkerDeath(worker=1, at=0.5)))
        stripped = plan.without_worker_death(1)
        assert stripped.worker_death(1) is None
        assert stripped.worker_death(0) is not None


class TestFaultFreeEquivalence:
    def test_empty_plan_is_a_noop(self):
        tokens = _tokens(8)
        ids_plain, plain = _run(_engine(2), tokens)
        ids_chaos, chaos = _run(_engine(2, faults=FaultPlan()), tokens)
        assert ids_plain == ids_chaos
        assert not chaos.has_fault_activity
        assert _outputs_by_input(plain) == _outputs_by_input(chaos)
        # The timeline is untouched too, not just the outputs.
        assert [c.finish for c in plain.completed] == [
            c.finish for c in chaos.completed
        ]


class TestCrashRecovery:
    def test_crashed_shard_recovers_bit_identical(self):
        tokens = _tokens(16)
        ids, baseline = _run(_engine(2), tokens)
        horizon = max(c.finish for c in baseline.completed)
        # Shard 0 is dead for the entire run: every batch placed there
        # fails DOA, the breaker opens, and everything re-places on
        # shard 1.
        plan = FaultPlan(events=(ShardCrash(shard=0, at=0.0, until=2 * horizon),))
        chaos_ids, chaos = _run(_engine(2, faults=plan), tokens)
        check_invariants(chaos, chaos_ids)
        assert not chaos.failed  # a healthy shard existed throughout
        assert chaos.retries > 0
        assert chaos.recovered_requests > 0
        assert chaos.replacements > 0  # retries moved off the dead shard
        assert all(c.shard == 1 for c in chaos.completed)
        assert _outputs_by_input(baseline) == _outputs_by_input(chaos)
        # The breaker opened on the dead shard and was never re-closed
        # by traffic (everything healthy ran on shard 1).
        opens = [t for t in chaos.breaker_transitions if t.to_state == "open"]
        assert opens and all(t.shard == 0 for t in opens)
        assert "faults" in chaos.summary()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_seeded_chaos_invariants(self, seed):
        tokens = _tokens(12, seed=seed)
        ids, baseline = _run(_engine(3), tokens)
        horizon = max(c.finish for c in baseline.completed)
        plan = FaultPlan.from_seed(
            seed, n_shards=3, horizon=horizon,
            crash_rate=0.9, slowdown_rate=0.5, max_slowdown=3.0,
        )
        chaos_ids, chaos = _run(_engine(3, faults=plan), tokens)
        check_invariants(chaos, chaos_ids)
        # Whatever completed is bit-identical to the fault-free run.
        reference = _outputs_by_input(baseline)
        for key, out in _outputs_by_input(chaos).items():
            assert out == reference[key]

    def test_seeded_chaos_reproducible(self):
        tokens = _tokens(10)
        plan = FaultPlan.from_seed(5, n_shards=2, horizon=5e-3, crash_rate=1.0)
        _, first = _run(_engine(2, faults=plan), tokens)
        _, second = _run(_engine(2, faults=plan), tokens)
        assert _outputs_by_input(first) == _outputs_by_input(second)
        assert len(first.fault_events) == len(second.fault_events)
        assert [c.finish for c in first.completed] == [
            c.finish for c in second.completed
        ]


class TestBreakerLifecycle:
    def test_all_shards_down_parks_then_probe_recovers(self):
        # One shard, dead at t=0 for 5e-4 s.  The first attempt fails
        # DOA and opens the breaker; with no healthy alternative the
        # retry parks until the quarantine expires, and the half-open
        # probe (after the outage) succeeds and closes the breaker.
        plan = FaultPlan(events=(ShardCrash(shard=0, at=0.0, until=5e-4),))
        engine = _engine(1, faults=plan)
        ids, report = _run(engine, _tokens(4))
        check_invariants(report, ids)
        assert not report.failed
        parks = [e for e in report.fault_events if e.action == "park"]
        assert parks
        states = [(t.from_state, t.to_state) for t in report.breaker_transitions]
        assert ("closed", "open") in states
        assert ("open", "half_open") in states
        assert ("half_open", "closed") in states

    def test_failed_probe_doubles_quarantine(self):
        # A crashed shard parks work until its outage ends (the DOA
        # handler holds busy_until through the window), so a *second*
        # overlapping outage is what kills the re-admission probe: the
        # re-open must then quarantine for twice as long (capped).  The
        # first outage outlasts the 1 ms base quarantine; the second
        # covers the probe the expiry admits.
        plan = FaultPlan(events=(
            ShardCrash(shard=0, at=0.0, until=2.5e-3),
            ShardCrash(shard=0, at=2e-3, until=6e-3),
        ))
        engine = _engine(1, faults=plan)
        ids, report = _run(engine, _tokens(2))
        check_invariants(report, ids)
        assert not report.failed
        transitions = report.breaker_transitions
        reopens = [
            t for t in transitions
            if t.from_state == "half_open" and t.to_state == "open"
        ]
        assert reopens  # at least one probe failed inside the outage
        # Opened for QUARANTINE at the first failure, re-opened for twice
        # that at the failed probe.
        opened = [t.at for t in transitions if t.to_state == "open"]
        expiries = [t.at for t in transitions if t.to_state == "half_open"]
        assert [e - o for o, e in zip(opened, expiries)] == pytest.approx(
            [QUARANTINE, QUARANTINE_FACTOR * QUARANTINE]
        )
        health = engine.shard_health[0]
        assert health.state == "closed"  # recovered by the end
        assert health.failures >= 2


class TestRetryBudgets:
    def test_max_retries_exhausts_to_failure(self):
        # A DOA failure holds the shard busy through its outage, so a
        # retry on a single window always lands at recovery time and
        # succeeds.  Chained overlapping outages keep every retry
        # landing inside a dead window: the budget must bound the loop
        # and report every request failed — termination is the meat of
        # this test.
        engine = _engine(1, faults=retry_spending_outage())
        ids, report = _run(engine, _tokens(4))
        check_invariants(report, ids)
        assert not report.completed
        assert report.failed_by_reason() == {"max_retries": 4}
        assert all(r.attempts == MAX_RETRIES + 1 for r in report.failed)
        abandons = [e for e in report.fault_events if e.action == "abandon"]
        assert abandons
        assert "failed requests" in report.fault_section()

    def test_doomed_retry_is_shed_not_looped(self):
        # A request whose deadline precedes the backoff wake time is
        # failed immediately ("retry_deadline"), not retried into a
        # guaranteed miss.  The batch flushes and dies at 1e-4; its
        # retry would wake backoff(0) later, past the 1.5e-4 deadline.
        plan = FaultPlan(events=(ShardCrash(shard=0, at=0.0, until=1e6),))
        engine = _engine(1, faults=plan)
        ids, report = _run(engine, _tokens(2), deadline=1.5e-4)
        check_invariants(report, ids)
        assert not report.completed
        assert report.failed_by_reason() == {"retry_deadline": 2}
        assert all(r.attempts == 1 for r in report.failed)


class TestSlowdowns:
    def test_slowdown_stretches_timeline_only(self):
        tokens = _tokens(8)
        ids, baseline = _run(_engine(1), tokens)
        plan = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1e6, factor=3.0),
        ))
        chaos_ids, chaos = _run(_engine(1, faults=plan), tokens)
        check_invariants(chaos, chaos_ids)
        assert not chaos.failed and not chaos.fault_events
        assert _outputs_by_input(baseline) == _outputs_by_input(chaos)
        assert chaos.makespan > baseline.makespan
        # Total cycles are untouched — a straggler is slow, not wasteful.
        assert chaos.total_cycles == baseline.total_cycles


class TestWorkerSupervision:
    """Worker-death chaos through real fork + exit-code detection."""

    def _serve(self, requests, **kw):
        kw.setdefault("n_workers", 2)
        kw.setdefault("max_batch_size", 4)
        kw.setdefault("flush_timeout", 1e-4)
        return serve_multiproc(
            ClusterSpec.homogeneous(CONFIG, 2),
            [EndpointSpec(name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS)],
            requests,
            **kw,
        )

    def _requests(self, n):
        rng = np.random.default_rng(0)
        return [
            {"model": "bert", "inputs": rng.integers(0, 16, size=8),
             "arrival": i * 1e-5}
            for i in range(n)
        ]

    def test_unsupervised_death_raises(self):
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5, exit_code=7),))
        with pytest.raises(WorkerFailedError) as excinfo:
            self._serve(self._requests(8), fault_plan=plan)
        assert excinfo.value.worker == 1
        assert excinfo.value.exit_code == 7
        assert excinfo.value.shard_block == (1,)
        assert "worker 1" in str(excinfo.value)

    def test_supervised_restart_completes_exactly_once(self):
        requests = self._requests(8)
        healthy = self._serve(requests)
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        result = self._serve(requests, fault_plan=plan,
                             supervise=True, max_restarts=1)
        merged = result.merged
        assert merged.worker_restarts == 1
        assert merged.worker_redistributions == 0
        assert merged.n_requests == len(requests)
        assert not merged.failed
        assert _outputs_by_input(merged) == _outputs_by_input(healthy.merged)
        assert "supervision" in merged.fault_section()

    def test_supervised_redistribution_completes_exactly_once(self):
        requests = self._requests(8)
        healthy = self._serve(requests)
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        result = self._serve(requests, fault_plan=plan,
                             supervise=True, max_restarts=0)
        merged = result.merged
        assert merged.worker_restarts == 0
        assert merged.worker_redistributions == 1
        assert merged.n_requests == len(requests)
        assert not merged.failed
        assert _outputs_by_input(merged) == _outputs_by_input(healthy.merged)
        # The re-run landed on the donor's block: every completion is
        # on global shard 0, and the donor's shards carry the extra
        # busy time of the serial re-run.
        assert {c.shard for c in merged.completed} == {0}

    def test_redistribution_keeps_defaulted_arrivals_in_order(self):
        # ``arrival`` is optional: a request without one arrives with the
        # previous request *of the caller's list*, resolved once by the
        # front.  The redistribution shift used to read a missing arrival
        # as 0.0, handing the donor an unsorted list (ValueError out of
        # the supervisor).
        requests = self._requests(8)
        requests[1]["arrival"] = 1e-4
        for request in requests[2:]:
            del request["arrival"]
        offered = dict(zip((r["inputs"].tobytes() for r in requests),
                           [0.0] + [1e-4] * 7))
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        merged = self._serve(requests, fault_plan=plan,
                             supervise=True, max_restarts=0).merged
        assert merged.worker_redistributions == 1
        assert not merged.failed and not merged.shed
        served = [c.request.inputs.tobytes() for c in merged.completed]
        assert sorted(served) == sorted(offered)  # each exactly once
        for record in merged.completed:
            assert record.request.arrival >= offered[record.request.inputs.tobytes()]
        # Worker 0 kept its slice where the front put it; worker 1's
        # re-ran behind everything worker 0 had completed.
        kept = [c for c in merged.completed if c.request.arrival <= 1e-4]
        moved = [c for c in merged.completed if c.request.arrival > 1e-4]
        assert sorted(c.request.arrival for c in kept) == [0.0, 1e-4, 1e-4, 1e-4]
        assert len(moved) == 4
        assert min(c.request.arrival for c in moved) > max(c.finish for c in kept)


class TestFabricChaos:
    def test_corruption_quarantined_as_misses(self, tmp_path):
        root = str(tmp_path / "fabric")
        store = FileStore(root)
        for i in range(3):
            store.put("serving.plans", f"k{i}", {"plan": i})
        plan = FaultPlan(events=(
            FabricFault(kind="corrupt", namespace="serving.plans"),
        ))
        assert corrupt_fabric_entries(plan, root) == 3
        fresh = FileStore(root)  # a different worker's view of the root
        for i in range(3):
            assert fresh.get("serving.plans", f"k{i}", default=MISSING) is MISSING
        # Each read quarantined its entry: the three data files are gone.
        ns_dir = os.path.join(root, "serving.plans")
        assert [name for name in os.listdir(ns_dir) if name.endswith(".pkl")] == []
        # The namespace still works — corruption cost misses, not the
        # namespace.
        fresh.put("serving.plans", "k0", {"plan": "rebuilt"})
        assert fresh.get("serving.plans", "k0") == {"plan": "rebuilt"}


class TestElasticChaos:
    """The elastic runtime under fire: with look-ahead, stealing and
    autoscaling all on, seeded crashes and slowdowns must not breach
    the exactly-once, bit-identical completion-or-reported-failure
    contract — re-placement moves work and resizing moves capacity,
    neither ever changes arithmetic or double-answers a request."""

    ELASTIC = ElasticConfig(steal=True, autoscale=True, min_shards=2)
    #: Arrivals 0.1 ms apart, and plans on the same scale: a run of 20
    #: requests then spans two 8-completion autoscaler windows more than
    #: the 1 ms cooldown apart, so the pool shrinks twice, to min_shards.
    SPACING = 1e-4

    def _elastic_engine(self, faults=None):
        return _engine(
            4, faults=faults, placement="lookahead", elastic=self.ELASTIC
        )

    def _run(self, tokens, faults=None):
        return _run(self._elastic_engine(faults), tokens, spacing=self.SPACING)

    def test_elastic_outputs_match_healthy_run_under_faults(self):
        tokens = _tokens(24, seed=5)
        _, healthy = self._run(tokens)
        plan = FaultPlan(events=(
            ShardCrash(shard=0, at=0.0, until=5e-3),
            ShardSlowdown(shard=1, at=0.0, until=1e-2, factor=8.0),
        ))
        ids, chaotic = self._run(tokens, plan)
        check_invariants(chaotic, ids)
        assert chaotic.retries > 0 and len(chaotic.scaling_events) == 2
        healthy_outputs = _outputs_by_input(healthy)
        for inputs, outputs in _outputs_by_input(chaotic).items():
            assert outputs == healthy_outputs[inputs]

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sweep_with_all_elastic_knobs(self, seed):
        tokens = _tokens(20, seed=seed)
        plan = FaultPlan.from_seed(
            seed, n_shards=4, horizon=1e-2,
            crash_rate=0.6, slowdown_rate=0.6,
        )
        ids, report = self._run(tokens, plan)
        check_invariants(report, ids)
        repeat_ids, repeat = self._run(tokens, plan)
        check_invariants(repeat, repeat_ids)
        assert _outputs_by_input(report) == _outputs_by_input(repeat)

    def test_steal_and_scaling_logs_replay_identically(self):
        plan = FaultPlan(events=(
            ShardSlowdown(shard=0, at=0.0, until=1e-2, factor=8.0),
        ))
        tokens = _tokens(20, seed=9)
        _, first = self._run(tokens, plan)
        _, second = self._run(tokens, plan)
        assert first.steals == second.steals
        assert len(first.scaling_events) == 2
        assert first.scaling_events == second.scaling_events

    def test_autoscaler_never_strands_work_when_shards_crash(self):
        """Shrinking under headroom + a crash on a survivor: parked
        batches must still drain (the all-down wake ignores retired
        shards, not crashed ones)."""
        plan = FaultPlan(events=(
            ShardCrash(shard=1, at=0.0, until=3e-3),
        ))
        tokens = _tokens(20, seed=13)
        ids, report = self._run(tokens, plan)
        check_invariants(report, ids)
        assert len(report.completed) + len(report.failed) == len(ids)
        assert report.retries > 0
        assert [e.action for e in report.scaling_events] == ["shrink", "shrink"]
