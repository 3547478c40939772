"""Multi-worker serving over one cluster and a shared cache fabric.

One :class:`~repro.serving.engine.InferenceEngine` is single-process by
design — the discrete-event loop, the batcher and the placement policy
all mutate one pool's state.  This module scales the serving front
*out* instead of up: the declared :class:`~repro.serving.cluster.ClusterSpec`
is partitioned into contiguous shard blocks, one worker process runs a
full engine over each block, and the workers share a cache **fabric** —
a :class:`~repro.store.FileStore` at ``store_root`` — for what is worth
sharing:

* the **K/V cache** writes computed prompts through and promotes
  fabric hits onto the local shard, so one worker's cold pass serves
  every other worker's first request for that prompt;
* **calibration** snapshots persist under
  :data:`~repro.serving.cluster.CALIBRATION_NAMESPACE`, so a worker
  (or a later run) prices placements from observations the fleet has
  already made.

GEMM / MHP plans and CPWL approximators are not shared: each is a pure
function of its key, memoised per process where it is defined, and
rebuilding one costs less than one fabric read.  Forked workers inherit
the parent's memos.

Everything a worker needs crosses the process boundary as one
picklable :class:`WorkerConfig`; models cross as
:class:`~repro.serving.deploy.EndpointSpec` (factory + kwargs, rebuilt
inside the worker) because live model objects and engines do not
pickle; traffic crosses as
:class:`~repro.serving.request.TracedRequest` descriptions, coerced and
given their arrivals once by the front.  A worker assembles its engine
through :func:`~repro.serving.deploy.assemble_engine` and enqueues its
list whole, as a :func:`~repro.autotune.replay.replay_trace` candidate
does, so a fleet can set every option and serve every kind of request
(generation included) a replay can.  Workers return their
:class:`~repro.serving.report.ServingReport`; :func:`merge_reports`
re-maps worker-local shard indices onto the global cluster numbering
and merges the logs so the fleet-level invariants hold exactly:
merged ``tenant_cycles`` / ``shard_cycles`` / shed counts are the
element-wise sums of the per-worker reports.

**Failure domains.**  Worker processes are spawned individually
(:func:`~repro.serving.deploy.fan_out`: one ``Process`` + result pipe
each, not a pool) so a worker that dies — via an injected
:class:`~repro.serving.faults.WorkerDeath` or a real crash — is
*detected by exit code* instead of hanging the front.
Unsupervised (``supervise=False``), a dead worker raises
:class:`WorkerFailedError` naming the worker, its shard block and the
exit code — never a silently partial merge.  Supervised, the front
restarts the worker (with the death event stripped from its fault
plan) up to ``max_restarts`` times; past that its requests are
*redistributed*: re-run in-process on a surviving worker's shard
block, arrival-shifted past that donor's last completion so the serial
reuse of the donor shards is honestly priced into the merged
timeline.  Either way every admitted request ends up completed exactly
once or failed with a reason — the in-memory state of a dead worker
(and any partial results it computed) is lost with the process, and
the re-run starts from the request list, not from salvage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.serving.cluster import (
    CALIBRATION_NAMESPACE,
    ClusterSpec,
    make_placement_policy,
    save_calibration,
)
from repro.serving.deploy import (
    EndpointSpec,
    assemble_engine,
    check_deployment,
    fan_out,
)
from repro.serving.faults import FaultPlan
from repro.serving.report import ServingReport
from repro.serving.request import (
    FailureRecord,
    InferenceRequest,
    TracedRequest,
    describe_request,
    generation_of,
    resolve_arrivals,
)
from repro.serving.tenancy import TenantConfig
from repro.store import FileStore


# ---------------------------------------------------------------------------
# Crossing the process boundary
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker process needs, in one picklable record.

    ``fault_plan`` is the run's plan of worker deaths (worker indices
    are global); the worker honors its own.  ``requests`` are descriptions whose
    arrivals the front has resolved.  ``options`` are the keywords of
    :func:`~repro.serving.deploy.assemble_engine` every worker engine is
    built with — the cache budget and any
    :class:`~repro.serving.engine.InferenceEngine` option (values must
    pickle) — checked here, in the front's process, not in the child.
    """

    index: int
    cluster: ClusterSpec
    models: Tuple[EndpointSpec, ...]
    requests: Tuple[TracedRequest, ...]
    store_root: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_deployment(fabric=None, **self.options)


class WorkerFailedError(RuntimeError):
    """A worker process died before delivering its report.

    Raised by :func:`serve_multiproc` when supervision is off
    (``supervise=False``) and a worker exits nonzero — the run refuses
    to hand back a silently partial merge.  Carries the failure
    coordinates as attributes:

    Attributes
    ----------
    worker:
        Index of the dead worker.
    shard_block:
        Global shard indices of the block the worker was serving.
    exit_code:
        The process exit code (negative = killed by that signal).
    """

    def __init__(
        self, worker: int, shard_block: Tuple[int, ...], exit_code: int
    ) -> None:
        self.worker = worker
        self.shard_block = tuple(shard_block)
        self.exit_code = exit_code
        block = (
            f"shards {self.shard_block[0]}..{self.shard_block[-1]}"
            if self.shard_block
            else "no shards"
        )
        super().__init__(
            f"worker {worker} ({block}) exited with code {exit_code} before "
            f"delivering its report; pass supervise=True to restart it or "
            f"redistribute its requests onto surviving workers"
        )


@dataclass(frozen=True)
class MultiprocResult:
    """Outcome of one :func:`serve_multiproc` run."""

    #: Per-worker reports, in worker order (shard indices worker-local).
    reports: Tuple[ServingReport, ...]
    #: The fleet view: shard indices re-mapped onto the cluster
    #: numbering, logs concatenated, counters summed exactly.
    merged: ServingReport
    #: The contiguous shard block each worker served.
    partitions: Tuple[ClusterSpec, ...]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
def partition_cluster(cluster: ClusterSpec, n_workers: int) -> List[ClusterSpec]:
    """Split a cluster into ``n_workers`` contiguous shard blocks.

    Blocks are as even as possible (sizes differ by at most one, larger
    blocks first) and preserve shard order, so global shard ``g`` of
    the declared cluster is worker-local shard ``g - offset`` of
    exactly one partition — the inverse of the re-mapping
    :func:`merge_reports` applies.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers > cluster.n_shards:
        raise ValueError(
            f"cannot split {cluster.n_shards} shard(s) across "
            f"{n_workers} workers; each worker needs at least one shard"
        )
    base, extra = divmod(cluster.n_shards, n_workers)
    partitions: List[ClusterSpec] = []
    start = 0
    for worker in range(n_workers):
        size = base + (1 if worker < extra else 0)
        partitions.append(ClusterSpec(cluster.shards[start : start + size]))
        start += size
    return partitions


# ---------------------------------------------------------------------------
# The worker body
# ---------------------------------------------------------------------------
def _worker_main(config: WorkerConfig) -> ServingReport:
    """Run one engine over one partition; the body of a worker process
    (also called in-process: the single-worker path and the tests)."""
    fabric = FileStore(config.store_root) if config.store_root is not None else None
    engine = assemble_engine(
        config.cluster,
        config.models,
        fabric=fabric,
        **config.options,
    )
    if fabric is not None:
        # The slot save_calibration() writes when given no name.
        state = fabric.get(CALIBRATION_NAMESPACE, "default")
        if state is not None:
            engine.calibrator.load_dict(state)
    engine.enqueue(config.requests)
    report = engine.run()
    if fabric is not None:
        save_calibration(engine.calibrator, fabric)
    return report


def _injected_death(config: WorkerConfig):
    """The :class:`~repro.serving.faults.WorkerDeath` planned for this
    worker, or None."""
    if config.fault_plan is None:
        return None
    return config.fault_plan.worker_death(config.index)


def _worker_entry(config: WorkerConfig) -> ServingReport:
    """What one worker process runs (:func:`~repro.serving.deploy.fan_out`
    sends the report back).

    Honors an injected :class:`~repro.serving.faults.WorkerDeath`: the
    worker serves only the requests that arrived before the death
    time, then dies via ``os._exit`` with the injected exit code —
    *without* returning a report, so the partial work is genuinely lost
    with the process (the front recovers from the request list, never
    from salvage).
    """
    death = _injected_death(config)
    if death is None:
        return _worker_main(config)
    served = tuple(
        request for request in config.requests if request.arrival < death.at
    )
    _worker_main(replace(config, requests=served))
    os._exit(death.exit_code)


def _shift_requests(
    requests: Sequence[TracedRequest], shift: float
) -> Tuple[TracedRequest, ...]:
    """Shift arrivals (and absolute deadlines) by ``shift`` seconds.

    Used when a dead worker's requests are re-run on a surviving
    worker's shard block: the donor shards are busy until their own
    run's last completion, so the re-run is scheduled *after* it —
    serial reuse honestly priced into the merged timeline.  Deadlines
    shift by the same amount, preserving each request's slack.
    """
    return tuple(
        replace(
            request,
            arrival=request.arrival + shift,
            deadline=None if request.deadline is None else request.deadline + shift,
        )
        for request in requests
    )


def _lost_report(config: WorkerConfig, at: float) -> ServingReport:
    """A report declaring every request of a dead worker failed.

    The terminal fallback when a worker cannot be restarted and no
    surviving worker exists to take its requests: the exactly-once
    invariant still holds because every admitted request is accounted
    for — as a :class:`~repro.serving.request.FailureRecord` with
    reason ``"worker_lost"``.
    """
    failed = tuple(
        FailureRecord(
            request=InferenceRequest(
                request_id=index,
                model=request.model,
                inputs=request.inputs_array(),
                arrival=request.arrival,
                tenant=request.tenant,
                priority=request.priority,
                deadline=request.deadline,
                generation=generation_of(
                    request.inputs, request.max_new_tokens, request.stop_token
                ),
            ),
            reason="worker_lost",
            at=at,
        )
        for index, request in enumerate(config.requests)
    )
    return ServingReport(
        completed=(),
        shard_cycles={},
        wall_seconds=0.0,
        placement_policy=make_placement_policy(
            config.options.get("placement", "round_robin")
        ).name,
        events=failed,
    )


# ---------------------------------------------------------------------------
# The front
# ---------------------------------------------------------------------------
def serve_multiproc(
    cluster: ClusterSpec,
    models: Sequence[EndpointSpec],
    requests: Sequence[object],
    n_workers: int = 2,
    store_root: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    supervise: bool = False,
    max_restarts: int = 1,
    **options,
) -> MultiprocResult:
    """Serve ``requests`` with ``n_workers`` engine processes.

    The cluster splits into contiguous shard blocks
    (:func:`partition_cluster`), requests round-robin over workers
    (``requests[i::n_workers]``, preserving each worker's arrival
    order), and — when ``store_root`` is given — every worker mounts
    the same :class:`~repro.store.FileStore` fabric, sharing prompts and
    calibration across the fleet.

    ``requests`` is an arrival-sorted sequence of
    :meth:`~repro.serving.engine.InferenceEngine.enqueue` items:
    :class:`~repro.serving.request.TracedRequest` descriptions (a
    trace's ``requests``, a recorder's capture) or mappings of their
    field names, generation included.  An omitted arrival is resolved
    here, once, before the split: the previous request's in *this*
    list's order, 0.0 for the first — deliberately what one engine given
    the whole list would assign.  Worker processes fork on POSIX;
    ``n_workers=1`` runs in-process (no fork), which is also the
    fallback the tests exercise for coverage.

    ``fault_plan`` schedules :class:`~repro.serving.faults.WorkerDeath`
    events, honored by the worker processes; a death naming no worker
    of the fleet, or any death when ``n_workers=1`` (there is no process
    to kill), raises ``ValueError`` before anything starts.  When a
    worker dies:

    * ``supervise=False`` — raise :class:`WorkerFailedError`;
    * ``supervise=True`` — restart it (death event stripped from its
      plan) up to ``max_restarts`` times, then *redistribute*: re-run
      its requests in-process on the first surviving worker's shard
      block, arrival-shifted past everything that block has already
      completed.  If no worker survives, the dead worker's requests
      are reported failed with reason ``"worker_lost"``.  Supervision
      actions land in the merged report's ``worker_restarts`` /
      ``worker_redistributions`` counters.

    ``options`` go to :func:`~repro.serving.deploy.assemble_engine` in
    every worker: the per-shard K/V cache budget (``radix_budget_bytes``)
    and any
    :class:`~repro.serving.engine.InferenceEngine` option.
    ``placement="lookahead"`` and ``steal=True`` thus turn on the
    elastic runtime in every worker engine, each over its own shard
    block; the merged report carries the fleet's steal log in cluster
    shard numbering.

    Returns per-worker reports plus the merged fleet report; merged
    counters are exact sums of the per-worker ones (see
    :func:`merge_reports`).
    """
    partitions = partition_cluster(cluster, n_workers)
    for death in fault_plan.events if fault_plan is not None else ():
        if n_workers == 1 or death.worker >= n_workers:
            raise ValueError(
                f"cannot kill worker {death.worker}: "
                + (
                    "n_workers=1 serves in-process"
                    if n_workers == 1
                    else f"the fleet's workers are 0..{n_workers - 1}"
                )
            )
    offsets = _block_offsets(partitions)
    model_specs = tuple(models)
    described = resolve_arrivals(map(describe_request, requests))
    configs = [
        WorkerConfig(
            index=worker,
            cluster=partitions[worker],
            models=model_specs,
            requests=tuple(described[worker::n_workers]),
            store_root=store_root,
            fault_plan=fault_plan,
            options=options,
        )
        for worker in range(n_workers)
    ]
    restarts = 0
    redistributions = 0
    merge_offsets = list(offsets)
    if n_workers == 1:
        reports: List[Optional[ServingReport]] = [_worker_main(configs[0])]
    else:
        outcomes = fan_out(_worker_entry, [(config,) for config in configs])
        reports = [report for report, _ in outcomes]
        for worker in range(n_workers):
            if reports[worker] is not None:
                continue
            config = configs[worker]
            if not supervise:
                start = offsets[worker]
                shard_block = range(start, start + partitions[worker].n_shards)
                raise WorkerFailedError(worker, shard_block, outcomes[worker][1])
            # Restart-or-redistribute.  Restarts re-fork the worker on
            # its own block with the death event stripped; past the
            # budget, its requests re-run on a surviving block.
            attempts = 0
            while reports[worker] is None and attempts < max_restarts:
                attempts += 1
                restarts += 1
                stripped = (
                    config.fault_plan.without_worker_death(worker)
                    if config.fault_plan is not None
                    else None
                )
                [(reports[worker], _)] = fan_out(
                    _worker_entry, [(replace(config, fault_plan=stripped),)]
                )
            if reports[worker] is not None:
                continue
            donor = next(
                (
                    other
                    for other in range(n_workers)
                    if other != worker and reports[other] is not None
                ),
                None,
            )
            if donor is None:
                death = _injected_death(config)
                reports[worker] = _lost_report(
                    config, at=death.at if death is not None else 0.0
                )
                continue
            # Earlier redistributions onto the donor block count too.
            handoff = max(
                (
                    record.finish
                    for other, other_report in enumerate(reports)
                    if other_report is not None
                    and merge_offsets[other] == offsets[donor]
                    for record in other_report.completed
                ),
                default=0.0,
            )
            reports[worker] = _worker_main(
                replace(
                    config,
                    cluster=partitions[donor],
                    fault_plan=None,
                    requests=_shift_requests(config.requests, handoff),
                )
            )
            merge_offsets[worker] = offsets[donor]
            redistributions += 1
    merged = merge_reports(reports, partitions, offsets=merge_offsets)
    if restarts or redistributions:
        merged = replace(
            merged,
            worker_restarts=merged.worker_restarts + restarts,
            worker_redistributions=merged.worker_redistributions
            + redistributions,
        )
    return MultiprocResult(
        reports=tuple(reports), merged=merged, partitions=tuple(partitions)
    )


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------
def _block_offsets(partitions: Sequence[ClusterSpec]) -> List[int]:
    """First cluster shard index of each contiguous partition block."""
    return list(accumulate((p.n_shards for p in partitions), initial=0))[:-1]


def _shift_shards(record, offset: int):
    """``record`` with whichever shard-index fields it carries moved
    by ``offset`` (None passes through)."""
    moved = {
        name: value + offset
        for name in ("shard", "from_shard", "to_shard")
        if (value := getattr(record, name, None)) is not None
    }
    return replace(record, **moved) if moved else record


def merge_reports(
    reports: Sequence[ServingReport],
    partitions: Sequence[ClusterSpec],
    offsets: Optional[Sequence[int]] = None,
) -> ServingReport:
    """One fleet report from per-worker reports.

    Worker-local shard indices shift by the cumulative size of the
    preceding partitions, recovering the declared cluster's numbering.
    Counters merge without loss: ``tenant_cycles``, ``shard_cycles``
    and shed counts sum exactly; the event logs concatenate in worker
    order (so every typed view reads worker order, then log order),
    each record re-mapped by the one :func:`_shift_shards` rule;
    ``wall_seconds`` is the slowest worker (the fleet ran
    concurrently).  Request ids stay worker-local
    (each engine numbers from zero) — batch identity in the merged
    view rests on the now-globally-unique ``(shard, batch_index)``
    pairs, not on request ids.

    ``offsets`` overrides the per-report shard shift (one global base
    index per report).  The supervised front needs this for
    redistribution: a re-run of a dead worker's requests executes on a
    *donor's* partition, so its shard indices must map onto the donor's
    block — cumulative offsets would misattribute them.  When two
    reports share an offset (donor + redistribution), their per-shard
    cycle and busy counters sum on the shared shard ids.

    Supervision counters sum.

    Per-worker ``cache_stats`` namespaces are qualified as
    ``worker<N>/<namespace>`` — each worker owns a private store (plus
    its view of the fabric), so same-named namespaces are distinct
    caches, not one cache to sum.
    """
    if len(reports) != len(partitions):
        raise ValueError(
            f"got {len(reports)} reports for {len(partitions)} partitions"
        )
    if offsets is None:
        offsets = _block_offsets(partitions)
    elif len(offsets) != len(reports):
        raise ValueError(f"got {len(offsets)} offsets for {len(reports)} reports")
    completed: List[object] = []
    events: List[object] = []
    shard_cycles: Dict[int, int] = {}
    shard_busy: Dict[int, float] = {}
    tenant_cycles: Dict[str, int] = {}
    tenants: Dict[str, TenantConfig] = {}
    cache_stats: Dict[str, Dict[str, int]] = {}
    wall_seconds = 0.0
    worker_restarts = 0
    worker_redistributions = 0
    for worker, (report, offset) in enumerate(zip(reports, offsets)):
        completed.extend(_shift_shards(record, offset) for record in report.completed)
        events.extend(_shift_shards(event, offset) for event in report.events)
        for shard, cycles in report.shard_cycles.items():
            shard_cycles[shard + offset] = (
                shard_cycles.get(shard + offset, 0) + cycles
            )
        for shard, busy in report.shard_busy.items():
            shard_busy[shard + offset] = shard_busy.get(shard + offset, 0.0) + busy
        for tenant, cycles in report.tenant_cycles.items():
            tenant_cycles[tenant] = tenant_cycles.get(tenant, 0) + cycles
        tenants.update(report.tenants)
        for namespace, stats in report.cache_stats.items():
            cache_stats[f"worker{worker}/{namespace}"] = stats
        wall_seconds = max(wall_seconds, report.wall_seconds)
        worker_restarts += report.worker_restarts
        worker_redistributions += report.worker_redistributions
    policy = reports[0].placement_policy if reports else "round_robin"
    return ServingReport(
        completed=tuple(completed),
        shard_cycles=shard_cycles,
        wall_seconds=wall_seconds,
        tenant_cycles=tenant_cycles,
        tenants=tenants,
        events=tuple(events),
        shard_busy=shard_busy,
        placement_policy=policy,
        cache_stats=cache_stats,
        worker_restarts=worker_restarts,
        worker_redistributions=worker_redistributions,
    )
