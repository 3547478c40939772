"""Deterministic trace replay: one candidate deployment, one scored report.

:func:`replay_trace` stands up a fresh
:class:`~repro.serving.engine.InferenceEngine` from a
:class:`~repro.autotune.tuning.TuningConfig`, re-issues every request
of a :class:`~repro.autotune.trace.TrafficTrace` at its recorded
arrival time, and runs the discrete-event loop to completion.  The
engine has no threads and no wall-clock dependencies, every replay
builds its models from seeded factories, and the process-global cache
store is swapped for a private one for the duration — so the same
trace under the same config (and the same optional
:class:`~repro.serving.faults.FaultPlan`) produces a bit-identical
:class:`~repro.serving.report.ServingReport`, which
:func:`report_fingerprint` pins as a digest the tests and the search
drivers can compare.

Endpoints cross process boundaries as :class:`EndpointSpec` values —
the same factory-plus-kwargs idiom as
:class:`~repro.serving.multiproc.ModelSpec`, extended with the
generation flag and a picklable :class:`WorkloadCostSpec` (the
closed-form transformer cost model ``cost_aware`` placement prices
batches with; the memoising closure is rebuilt inside the evaluating
process).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.autotune.objective import Objective, objective_from_report
from repro.autotune.trace import TrafficTrace
from repro.autotune.tuning import TuningConfig
from repro.serving.cluster import ClusterSpec, CostAwarePlacement, workload_cost_model
from repro.serving.engine import InferenceEngine
from repro.serving.faults import FaultPlan
from repro.serving.generation import GenerationAdapter
from repro.serving.prefix_cache import RadixKVCache, TransformerPrefixAdapter
from repro.serving.report import ServingReport
from repro.serving.tenancy import TenantConfig
from repro.store import InProcessLRU, get_store, set_store


@dataclass(frozen=True)
class WorkloadCostSpec:
    """Picklable description of a transformer endpoint's cost model.

    Rebuilds :func:`~repro.serving.cluster.workload_cost_model` over
    :func:`~repro.nn.workload.transformer_serving_workload` inside the
    evaluating process (the memoised closure itself does not pickle).
    """

    seq_len: int
    dim: int
    heads: int
    ff_dim: int
    n_layers: int

    def build(self) -> Callable:
        from repro.nn.workload import transformer_serving_workload

        return workload_cost_model(
            lambda batch, shape: transformer_serving_workload(
                batch,
                self.seq_len,
                self.dim,
                self.heads,
                self.ff_dim,
                self.n_layers,
            )
        )


@dataclass(frozen=True)
class EndpointSpec:
    """One replayable endpoint, described by construction.

    ``factory(**kwargs)`` must be importable and deterministic (seeded
    weight init), so every replay serves bit-identical weights.
    ``generation=True`` wraps the model in a
    :class:`~repro.serving.generation.GenerationAdapter`;
    ``prefix_len`` opts plain-inference traffic into KV-prefix reuse
    when the candidate config budgets a prefix cache.
    """

    name: str
    factory: Callable[..., object]
    kwargs: Dict[str, object] = field(default_factory=dict)
    prefix_len: Optional[int] = None
    generation: bool = False
    cost: Optional[WorkloadCostSpec] = None


def build_engine(
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
    tenants: Sequence[str] = (),
    faults: Optional[FaultPlan] = None,
) -> InferenceEngine:
    """Materialise one candidate deployment, models registered.

    The prefix/radix caches exist only when the config budgets them
    *and* an endpoint can use them; ``tenants`` (typically the trace's
    tenant list) are registered up front so the config's
    ``max_queue_depth`` admission cap applies from the first arrival.
    """
    dispatcher = ClusterSpec.heterogeneous(tuning.pool).build()
    placement = tuning.placement
    if tuning.placement == "cost_aware" and tuning.occupancy_penalty > 0:
        placement = CostAwarePlacement(occupancy_penalty=tuning.occupancy_penalty)
    prefix_cache = None
    if tuning.prefix_budget_bytes is not None and any(
        spec.prefix_len is not None for spec in endpoints
    ):
        prefix_cache = RadixKVCache(
            tuning.prefix_budget_bytes, namespace="serving.prefix"
        )
    radix_cache = None
    if tuning.radix_budget_bytes is not None and any(
        spec.generation for spec in endpoints
    ):
        radix_cache = RadixKVCache(tuning.radix_budget_bytes)
    elastic = tuning.elastic()
    engine = InferenceEngine(
        dispatcher,
        max_batch_size=tuning.max_batch_size,
        flush_timeout=tuning.flush_timeout,
        placement=placement,
        tenants=tuple(
            TenantConfig(tenant, max_queue_depth=tuning.max_queue_depth)
            for tenant in tenants
        ),
        prefix_cache=prefix_cache,
        radix_cache=radix_cache,
        faults=faults,
        elastic=elastic if elastic.enabled else None,
    )
    for spec in endpoints:
        model = spec.factory(**dict(spec.kwargs))
        engine.register(
            spec.name,
            model,
            cost_model=spec.cost.build() if spec.cost is not None else None,
            prefix_adapter=(
                TransformerPrefixAdapter(model, spec.prefix_len)
                if spec.prefix_len is not None and prefix_cache is not None
                else None
            ),
            generation_adapter=(
                GenerationAdapter(model) if spec.generation else None
            ),
        )
    return engine


def replay_trace(
    trace: TrafficTrace,
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
    faults: Optional[FaultPlan] = None,
) -> ServingReport:
    """Re-drive ``trace`` through a fresh engine built from ``tuning``.

    The process-global store is swapped for a private
    :class:`~repro.store.InProcessLRU` for the duration (and restored
    afterwards), so replays never share plan/approximator caches with
    the caller or each other — a candidate's report depends on the
    trace and the config, nothing else.
    """
    previous = get_store()
    try:
        set_store(InProcessLRU())
        engine = build_engine(
            tuning, endpoints, tenants=trace.tenants, faults=faults
        )
        for request in trace.requests:
            if request.is_generation:
                engine.submit_generation(
                    request.model,
                    request.inputs_array(),
                    request.max_new_tokens,
                    request.arrival,
                    stop_token=request.stop_token,
                    tenant=request.tenant,
                    priority=request.priority,
                    deadline=request.deadline,
                )
            else:
                engine.submit(
                    request.model,
                    request.inputs_array(),
                    request.arrival,
                    tenant=request.tenant,
                    priority=request.priority,
                    deadline=request.deadline,
                )
        return engine.run()
    finally:
        set_store(previous)


def evaluate(
    trace: TrafficTrace,
    tuning: TuningConfig,
    endpoints: Sequence[EndpointSpec],
    faults: Optional[FaultPlan] = None,
) -> Objective:
    """Replay and score: the candidate's objective tuple."""
    report = replay_trace(trace, tuning, endpoints, faults=faults)
    return objective_from_report(report, tuning.pool)


def report_fingerprint(report: ServingReport) -> str:
    """A digest over everything a replay determines.

    Two reports share a fingerprint iff their completions (ids,
    timing, shard, and output *bits*), placement log, shed/failure
    records, per-shard and per-tenant cycle counters, fault events and
    decode steps are identical — the "bit-identical replay" contract
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
            decision.attempt,
        )
    for shed in report.shed:
        feed(shed.request.request_id, shed.reason, shed.at)
    for failure in report.failed:
        feed(failure.request.request_id, failure.reason, failure.at)
    for event in report.fault_events:
        feed(event.kind, event.shard, event.batch_index, event.at, event.action)
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
