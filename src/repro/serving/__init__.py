"""Multi-tenant batched inference serving on top of the (ONE-)SA simulator.

This subpackage turns the single-call simulator into a multi-request,
multi-tenant serving system:

* request/completion/shed records with tenant, priority and deadline
  fields, and the request-as-data class every front door accepts
  (:class:`~repro.serving.request.TracedRequest`: ``enqueue`` and
  trace replay both take it, or a mapping of its fields)
  (:mod:`repro.serving.request`);
* deterministic dynamic batching with max-batch-size and flush-timeout
  knobs (:mod:`repro.serving.batcher`) — co-pending requests of the
  same tenant and model are stacked so their GEMMs share tiles, which
  the vectorized :func:`repro.fixedpoint.fixed_matmul` executes in one
  call, bit-identical to per-request inference; the incremental
  :class:`~repro.serving.batcher.BatchAssembler` applies the same
  rules while requests keep arriving;
* tenant contracts — fair-share weight, strict priority, latency SLO,
  and admission control (queue-depth caps, deadline-doomed shedding)
  (:mod:`repro.serving.tenancy`);
* per-tenant queues with pluggable fairness policies (weighted
  round-robin, strict priority) driving a discrete-event scheduler
  loop that admits requests while batches are in flight
  (:mod:`repro.serving.scheduler`);
* the cluster placement API (:mod:`repro.serving.cluster`):
  :class:`~repro.serving.cluster.ClusterSpec` declares a pool of
  shards with possibly *heterogeneous* array design points, and a
  pluggable :class:`~repro.serving.cluster.PlacementPolicy` —
  round-robin (the backward-compatible default), least-loaded
  (occupancy-aware) or cost-aware (closed-form cycle-model finish-time
  estimates) — decides at batch-ready time which shard runs each
  batch (:class:`~repro.serving.cluster.ClusterDispatcher`); the
  report folds per-shard and per-tenant cycles from its placements;
* KV-prefix reuse for transformer endpoints
  (:mod:`repro.serving.prefix_cache`): one
  :class:`~repro.serving.prefix_cache.RadixKVCache` keyed on
  (tenant, model, prompt tokens) retains per-layer K/V activations in
  the fixed-point domain under a per-shard byte budget (LRU eviction),
  a :class:`~repro.serving.prefix_cache.TransformerPrefixAdapter`
  runs hit batches suffix-only — bit-identical to cold execution, with
  the skipped cycles accounted in exact closed form — and
  :class:`~repro.serving.cluster.PrefixAffinePlacement` steers batches
  to the shard already holding their prompt;
* continuous-batching autoregressive decode
  (:mod:`repro.serving.generation`): generation requests prefill
  through the normal batch pipeline, then join an iteration-level
  decode pool whose batch is re-formed every step (finished sequences
  retire, freshly prefilled ones join), with per-step traced-cycle
  attribution, the same
  :class:`~repro.serving.prefix_cache.RadixKVCache` instance (one per
  engine, one budget) reusing the longest cached prefix of every
  prompt;
* the engine tying admission, scheduler, placement and shards together
  (:mod:`repro.serving.engine`);
* the elastic cluster runtime (:mod:`repro.serving.elastic`,
  :mod:`repro.serving.stats`), all off by default and regression-pinned
  bit-identical when off: look-ahead placement plans each scheduling
  round's whole ready set jointly
  (:class:`~repro.serving.cluster.LookaheadPlacement` list scheduling),
  work-stealing re-prices queued-but-unstarted batches at execution
  time — migrating them (and, when prefix affinity breaks, the cache
  *entry* between shards) off drifted shards; the pool itself is fixed when the engine is built, and every steal feeds
  from the per-shard stats descriptor tree and lands in the report's
  elastic section;
* deployment-as-data (:mod:`repro.serving.deploy`): endpoints described
  by construction, the one ``assemble_engine`` every front end builds its
  engine through, and the one child start its stack helper uses;
* serving-level reporting — latency percentiles, throughput,
  cycles/request, per-shard utilization, per-tenant SLO attainment and
  shed accounting, all over the run's one ordered event log
  (:attr:`~repro.serving.report.ServingReport.events`: placements,
  sheds, cache decisions, decode steps and steals, each
  also readable as a typed view) (:mod:`repro.serving.report`).

See ``examples/serving_demo.py``, ``examples/multitenant_demo.py`` and
``examples/heterogeneous_demo.py`` for end-to-end tours, and
``docs/serving.md`` for the operator guide.
"""

from repro.serving.batcher import Batch, BatchAssembler
from repro.serving.cluster import (
    BatchProfile,
    CalibratingCostModel,
    ClusterDispatcher,
    ClusterSpec,
    CostAwarePlacement,
    LeastLoadedPlacement,
    LookaheadPlacement,
    PlacementDecision,
    PlacementPolicy,
    PrefixAffinePlacement,
    RoundRobinPlacement,
    ShardSpec,
    ShardView,
    make_placement_policy,
    workload_cost_model,
)
from repro.serving.elastic import StealEvent
from repro.serving.engine import InferenceEngine, ModelEndpoint
from repro.serving.generation import (
    ActiveSequence,
    DecodeStepRecord,
    GenerationAdapter,
)
from repro.serving.deploy import EndpointSpec, WorkloadCostSpec, assemble_engine
from repro.serving.prefix_cache import (
    PrefixEvent,
    RadixKVCache,
    TransformerPrefixAdapter,
)
from repro.serving.report import ServingReport
from repro.serving.request import (
    CompletedRequest,
    GenerationRequest,
    InferenceRequest,
    ShedRecord,
    TracedRequest,
)
from repro.serving.scheduler import (
    SchedulingPolicy,
    StrictPriority,
    TenantScheduler,
    WeightedRoundRobin,
)
from repro.serving.stats import ShardStats, cluster_desc, render_cluster_desc
from repro.serving.tenancy import DEFAULT_TENANT, TenantConfig, TenantRegistry

__all__ = [
    "Batch",
    "BatchAssembler",
    "BatchProfile",
    "CalibratingCostModel",
    "ClusterDispatcher",
    "ClusterSpec",
    "CostAwarePlacement",
    "LeastLoadedPlacement",
    "LookaheadPlacement",
    "PlacementDecision",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "ShardSpec",
    "ShardView",
    "make_placement_policy",
    "workload_cost_model",
    "PrefixAffinePlacement",
    "EndpointSpec",
    "WorkloadCostSpec",
    "assemble_engine",
    "PrefixEvent",
    "RadixKVCache",
    "TransformerPrefixAdapter",
    "StealEvent",
    "ShardStats",
    "cluster_desc",
    "render_cluster_desc",
    "InferenceEngine",
    "ModelEndpoint",
    "ActiveSequence",
    "DecodeStepRecord",
    "GenerationAdapter",
    "ServingReport",
    "CompletedRequest",
    "GenerationRequest",
    "InferenceRequest",
    "ShedRecord",
    "TracedRequest",
    "SchedulingPolicy",
    "StrictPriority",
    "TenantScheduler",
    "WeightedRoundRobin",
    "DEFAULT_TENANT",
    "TenantConfig",
    "TenantRegistry",
]
