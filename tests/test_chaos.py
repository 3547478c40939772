"""Chaos suite: worker deaths under the multi-worker front's supervision.

The load-bearing contract, pinned over explicit plans: **every
admitted request either completes exactly once, bit-identical to a
healthy run, or is reported failed with a reason** — a dead worker is
detected by exit code, then restarted or its requests redistributed,
never silently dropped.  A plan that cannot be honoured is refused
before anything starts.

Everything runs in simulated time off deterministic plans: no sleeps,
no real clocks, no flaky timing.
"""

import numpy as np
import pytest

from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterSpec,
    EndpointSpec,
    FaultPlan,
    WorkerDeath,
    WorkerFailedError,
    serve_multiproc,
)
from repro.systolic import SystolicConfig

pytestmark = pytest.mark.chaos

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
MODEL_KWARGS = dict(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
    causal=True, seed=0,
)


def _outputs_by_input(report):
    """Output bytes keyed by input bytes — the placement-free identity
    of a request, comparable across runs with different engine ids."""
    return {
        record.request.inputs.tobytes(): record.outputs.tobytes()
        for record in report.completed
    }


def _serve(requests, **kw):
    kw.setdefault("n_workers", 2)
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    return serve_multiproc(
        ClusterSpec.homogeneous(CONFIG, 2),
        [EndpointSpec(name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS)],
        requests,
        **kw,
    )


def _requests(n):
    rng = np.random.default_rng(0)
    return [
        {"model": "bert", "inputs": rng.integers(0, 16, size=8),
         "arrival": i * 1e-5}
        for i in range(n)
    ]


class TestPlanConstruction:
    def test_event_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            WorkerDeath(worker=0, at=1.0, exit_code=0)
        for at in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite at >= 0"):
                WorkerDeath(worker=0, at=at)
        with pytest.raises(ValueError, match="worker must be >= 0"):
            WorkerDeath(worker=-1, at=1.0)

    def test_without_worker_death(self):
        plan = FaultPlan(events=(WorkerDeath(worker=0, at=0.5),
                                 WorkerDeath(worker=1, at=0.5)))
        stripped = plan.without_worker_death(1)
        assert stripped.worker_death(1) is None
        assert stripped.worker_death(0) is not None


class TestFaultFreeEquivalence:
    def test_empty_plan_is_a_noop(self):
        requests = _requests(8)
        plain = _serve(requests).merged
        chaos = _serve(requests, fault_plan=FaultPlan(), supervise=True).merged
        assert not chaos.has_fault_activity
        assert _outputs_by_input(plain) == _outputs_by_input(chaos)
        # The timeline is untouched too, not just the outputs.
        assert [c.finish for c in plain.completed] == [
            c.finish for c in chaos.completed
        ]


class TestWorkerSupervision:
    """Worker-death chaos through real fork + exit-code detection."""

    def test_unsupervised_death_raises(self):
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5, exit_code=7),))
        with pytest.raises(WorkerFailedError) as excinfo:
            _serve(_requests(8), fault_plan=plan)
        assert excinfo.value.worker == 1
        assert excinfo.value.exit_code == 7
        assert excinfo.value.shard_block == (1,)
        assert "worker 1" in str(excinfo.value)

    def test_supervised_restart_completes_exactly_once(self):
        requests = _requests(8)
        healthy = _serve(requests)
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        result = _serve(requests, fault_plan=plan,
                             supervise=True, max_restarts=1)
        merged = result.merged
        assert merged.worker_restarts == 1
        assert merged.worker_redistributions == 0
        assert merged.n_requests == len(requests)
        assert not merged.failed
        assert _outputs_by_input(merged) == _outputs_by_input(healthy.merged)
        assert "supervision" in merged.fault_section()

    def test_supervised_redistribution_completes_exactly_once(self):
        requests = _requests(8)
        healthy = _serve(requests)
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        result = _serve(requests, fault_plan=plan,
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
        requests = _requests(8)
        requests[1]["arrival"] = 1e-4
        for request in requests[2:]:
            del request["arrival"]
        offered = dict(zip((r["inputs"].tobytes() for r in requests),
                           [0.0] + [1e-4] * 7))
        plan = FaultPlan(events=(WorkerDeath(worker=1, at=5e-5),))
        merged = _serve(requests, fault_plan=plan,
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


    @pytest.mark.parametrize(
        "death, n_workers",
        [(WorkerDeath(worker=5, at=5e-5), 2), (WorkerDeath(worker=2, at=5e-5), 2),
         (WorkerDeath(worker=0, at=5e-5), 1)],
        ids=["past-the-fleet", "one-past-the-last", "in-process"],
    )
    def test_a_death_no_worker_can_die_is_refused(self, death, n_workers):
        """A death naming no worker process of the fleet — or any death
        when ``n_workers=1`` serves in-process — used to be accepted and
        ignored: the run completed as if healthy.  Refused up front."""
        with pytest.raises(ValueError, match=f"cannot kill worker {death.worker}"):
            _serve(_requests(4), fault_plan=FaultPlan(events=(death,)),
                   n_workers=n_workers, supervise=True)

    def test_a_death_before_time_zero_is_refused(self):
        """``at=-1.0`` used to be accepted and cost a restart."""
        with pytest.raises(ValueError, match="finite at >= 0"):
            FaultPlan(events=(WorkerDeath(worker=1, at=-1.0),))

