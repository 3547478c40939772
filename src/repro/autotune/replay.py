"""Deterministic trace replay: one candidate deployment, one scored report.

:func:`replay_trace` stands up a fresh
:class:`~repro.serving.engine.InferenceEngine` from a
:class:`~repro.autotune.tuning.TuningConfig`, enqueues the requests of
a :class:`~repro.autotune.trace.TrafficTrace` as they are (a trace row
*is* a front-door item), and runs the discrete-event loop to
completion.  The engine has no threads and no wall-clock dependencies,
every replay builds its models from seeded factories and its caches
afresh — so the same trace under the same config produces a bit-identical
:class:`~repro.serving.report.ServingReport`, which
:func:`report_fingerprint` pins as a digest the tests and the search
drivers can compare.

Endpoints are :class:`~repro.serving.deploy.EndpointSpec` values
(re-exported here, with :class:`~repro.serving.deploy.WorkloadCostSpec`),
and :func:`build_engine` only maps a ``TuningConfig`` onto
:func:`~repro.serving.deploy.assemble_engine` — the one function a
:func:`~repro.serving.multiproc.serve_multiproc` worker builds its
engine through too, so a replay and a fleet given the same deployment
run the same engine.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.autotune.objective import Objective, objective_from_report
from repro.autotune.trace import TrafficTrace
from repro.autotune.tuning import TuningConfig
from repro.serving.cluster import ClusterSpec, CostAwarePlacement
from repro.serving.deploy import (
    EndpointSpec,
    WorkloadCostSpec,  # re-exported: callers import both specs from here
    assemble_engine,
)
from repro.serving.engine import InferenceEngine
from repro.serving.report import ServingReport
from repro.serving.tenancy import TenantConfig


def build_engine(
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
    tenants: Sequence[str] = (),
) -> InferenceEngine:
    """Materialise one candidate deployment, models registered.

    The K/V cache exists only when the config budgets it *and* an
    endpoint can use it; ``tenants`` (typically the trace's
    tenant list) are registered up front so the config's
    ``max_queue_depth`` admission cap applies from the first arrival.
    """
    placement = tuning.placement
    if tuning.placement == "cost_aware" and tuning.occupancy_penalty > 0:
        placement = CostAwarePlacement(occupancy_penalty=tuning.occupancy_penalty)
    return assemble_engine(
        ClusterSpec.heterogeneous(tuning.pool),
        endpoints,
        radix_budget_bytes=tuning.radix_budget_bytes,
        max_batch_size=tuning.max_batch_size,
        flush_timeout=tuning.flush_timeout,
        placement=placement,
        tenants=tuple(
            TenantConfig(tenant, max_queue_depth=tuning.max_queue_depth)
            for tenant in tenants
        ),
        steal=tuning.steal,
    )


def replay_trace(
    trace: TrafficTrace,
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
) -> ServingReport:
    """Re-drive ``trace`` through a fresh engine built from ``tuning``.

    A candidate's report depends on the trace and the config, nothing
    else.  The engine is new, so its K/V and parameter caches start
    empty; what replays do share is pure — GEMM / MHP plans and CPWL
    approximators, memoised per process where they are defined — so it
    can move host time, never a report.

    Replays given the same :class:`~repro.serving.deploy.EndpointSpec`
    *object* also share its trace tapes: a unit of a shape an earlier
    replay executed is charged by replaying that tape from the first
    unit on.  No report can see it — a replayed unit records the events
    an executed one records — so the fingerprint is the one a freshly
    constructed equal spec gives.
    """
    engine = build_engine(tuning, endpoints, tenants=trace.tenants)
    engine.enqueue(trace.requests)
    return engine.run()


def evaluate(
    trace: TrafficTrace,
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
) -> Objective:
    """Replay and score: the candidate's objective tuple."""
    report = replay_trace(trace, tuning, endpoints)
    return objective_from_report(report, tuning.pool)


def report_fingerprint(report: ServingReport) -> str:
    """A digest over everything a replay determines.

    Two reports share a fingerprint iff their completions (ids,
    timing, shard, and output *bits*), placement log, shed/failure
    records, per-shard and per-tenant cycle counters and decode steps
    are identical — the "bit-identical replay" contract
    in one comparable value.  Host wall time is excluded (it is
    measured, not modelled).
    """
    digest = hashlib.sha256()

    def feed(*parts: object) -> None:
        for part in parts:
            digest.update(repr(part).encode())
            digest.update(b"\x1f")

    for record in sorted(report.completed, key=lambda c: c.request.request_id):
        outputs = np.ascontiguousarray(record.outputs)
        feed(
            record.request.request_id,
            record.request.model,
            record.request.tenant,
            record.request.arrival,
            record.start,
            record.finish,
            record.shard,
            record.batch_index,
            record.batch_cycles,
            outputs.dtype.str,
            outputs.shape,
        )
        digest.update(outputs.tobytes())
    for decision in report.placements:
        feed(
            decision.batch_index,
            decision.model,
            decision.tenant,
            decision.batch_size,
            decision.shard,
            decision.ready_time,
            decision.start,
            decision.finish,
        )
    for shed in report.shed:
        feed(shed.request.request_id, shed.reason, shed.at)
    for failure in report.failed:
        feed(failure.request.request_id, failure.reason, failure.at)
    for step in report.generation_steps:
        feed(
            step.step_index,
            step.shard,
            step.batch_size,
            step.position,
            step.cycles,
            step.finish,
        )
    feed(sorted(report.shard_cycles.items()))
    feed(sorted(report.tenant_cycles.items()))
    feed(sorted(report.shard_busy.items()))
    return digest.hexdigest()
