"""The multi-tenant batched inference serving engine.

:class:`InferenceEngine` accepts concurrent requests for any number of
registered models from any number of tenants, packs co-pending
same-tenant same-model requests into shared batches (one stacked
``infer`` call — whose linear layers fold the batch into single wide
GEMM tiles), and places the batches on a
:class:`~repro.serving.cluster.ClusterDispatcher` pool — possibly
*heterogeneous* (shards with different grid sizes, MAC counts and
clocks, declared via :class:`~repro.serving.cluster.ClusterSpec`).
Which tenant's ready batch runs next is decided by the configured
scheduling policy (weighted round-robin or strict priority — see
:mod:`repro.serving.scheduler`); *where* it runs is decided at
batch-ready time by the configured placement policy (round-robin,
least-loaded, or cost-aware — see :mod:`repro.serving.cluster`), which
sees each shard's design point and discrete-event busy horizon.  Each
run produces a :class:`~repro.serving.report.ServingReport` with
latency percentiles, throughput, cycles/request, per-shard utilization
and the placement-decision log, and a per-tenant SLO section
aggregated from the per-array traces.

**Admission control** is per tenant and off by default: a
:class:`~repro.serving.tenancy.TenantConfig` may cap its queue depth
(``max_queue_depth``) and opt into shedding requests whose deadline is
already unmeetable at admit time (``shed_doomed``).  Shed requests are
never executed; they surface as
:attr:`~repro.serving.report.ServingReport.shed_count` and per-record
reasons in the report.

**Admission is decoupled from execution.**  :meth:`submit` only queues;
the scheduler loop inside :meth:`run` (or a caller-driven
:meth:`step` sequence) interleaves admission with batch execution, so
new requests — from the submission buffer, from a streaming
``request_source``, or submitted by callbacks while a batch is in
flight — join their tenant queues without waiting for a drain.  The
loop is discrete-event over simulated arrival time, so a request
stream always reproduces the same batches, placements and report.

**One execution pipeline.**  Classifier batches, generation prefills
and decode iterations all run through one place → run → fault-check →
commit skeleton (``InferenceEngine._execute``); a kind supplies only
its profile, its payload and its commit / park / fail hooks.

**Charged once per batch, computed once per stack.**  What a batch is
*charged* (traced cycles) depends on operand shapes; what it *computes*
depends on each request's inputs alone.  For an endpoint registered as a
batchable :class:`~repro.nn.layers.Module` the engine therefore replays
a trace tape per batch and takes the batch's rows from one stacked host
pass shared with later batches (``InferenceEngine._stacked``).  An
``infer_fn=`` callable, a prefix-keyed batch, a prefill, a decode step
and an array-less shard execute per batch; reports are bit-identical
either way.

Batched execution is bit-identical to running every request alone:
stacking adds rows to the GEMMs and elementwise stages, and every
output element is still produced by the same saturating fixed-point
dot product — the equivalence the test suite asserts per backend.
Tenancy never changes results either: it only partitions batches and
orders them, which the same tests pin down.

**Memory contract.**  A serving process is long-lived, so the engine
puts every hardware shard's trace into *aggregate-only* mode at
construction (see :class:`~repro.systolic.trace.Trace`): per-request
cycle accounting reads the O(1) streaming aggregates and no further
per-event log accumulates (events a trace already retained are left
in place), keeping shard memory constant over arbitrarily long
request streams.  Per-tenant attribution costs O(tenants x labels),
not O(events): each batch executes inside its tenant's trace
namespace.  Request outputs are handed over exactly once by
:meth:`InferenceEngine.result` and released.  Pass
``retain_trace_events=True`` to keep the full per-event logs instead
(for Fig.-1-style op-mix breakdowns of a serving run); memory then
grows with the number of traced operations until
:meth:`InferenceEngine.reset`.

Typical multi-tenant use::

    from repro.serving import InferenceEngine, ClusterDispatcher, TenantConfig
    from repro.systolic import SystolicArray, ONE_SA_PAPER_CONFIG

    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(ONE_SA_PAPER_CONFIG) for _ in range(2)], 0.25
    )
    engine = InferenceEngine(pool, max_batch_size=8, flush_timeout=1e-4)
    engine.register("bert", model)
    engine.register_tenant("gold", weight=3.0, slo_latency=2e-3)
    engine.register_tenant("free", weight=1.0)
    ids = [engine.submit("bert", row, tenant="gold") for row in gold_rows]
    ids += [engine.submit("bert", row, tenant="free") for row in free_rows]
    report = engine.run()
    outputs = [engine.result(i) for i in ids]
    print(report.summary())        # includes the per-tenant SLO section

The single-tenant API is unchanged: ``submit`` without a tenant uses
the implicit default tenant, and with one tenant the scheduler
degenerates to plain ready-time (FIFO) order.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice
from operator import attrgetter
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union,
)

import numpy as np

from repro.nn.layers import Module
from repro.serving.batcher import Batch
from repro.serving.cluster import (
    BatchProfile,
    BreakerConfig,
    CalibratingCostModel,
    ClusterDispatcher,
    LookaheadPlacement,
    PlacementDecision,
    PlacementPolicy,
    PrefixAffinePlacement,
    ShardHealth,
    ShardView,
    estimated_finish,
    make_placement_policy,
)
from repro.serving.elastic import ElasticConfig, ScalingEvent, StealEvent
from repro.serving.faults import FaultPlan, FaultRecord, RetryPolicy, ShardCrash
from repro.serving.generation import ActiveSequence, DecodeStepRecord
from repro.serving.prefix_cache import PrefixEvent, RadixKVCache
from repro.serving.report import ServingReport
from repro.serving.request import (
    CompletedRequest,
    FailureRecord,
    InferenceRequest,
    ShedRecord,
    TracedRequest,
    describe_request,
    generation_of,
)
from repro.serving.scheduler import SchedulingPolicy, TenantScheduler
from repro.serving.stats import ShardStats
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    TenantConfig,
    TenantRegistry,
    effective_deadline,
)
from repro.store import get_store


@dataclass(frozen=True)
class ModelEndpoint:
    """A registered model: a name plus its batched inference callable.

    ``infer_fn(batch_inputs, backend)`` receives the stacked
    ``(B, ...)`` input array for batchable endpoints, or one unstacked
    sample when ``batchable`` is False (models whose inputs cannot be
    stacked, e.g. graphs of varying size).

    ``cost_model(profile, config)`` optionally estimates the cycles a
    batch of this model costs on a design point (see
    :func:`~repro.serving.cluster.workload_cost_model`); endpoints
    without one fall back to the engine's calibrating estimator.

    ``prefix_adapter`` opts the endpoint into KV-prefix reuse (see
    :class:`~repro.serving.prefix_cache.TransformerPrefixAdapter`);
    it is only consulted when the engine carries a ``prefix_cache``.

    ``generation_adapter`` opts the endpoint into autoregressive
    decode (see :class:`~repro.serving.generation.GenerationAdapter`):
    its requests arrive via
    :meth:`InferenceEngine.submit_generation`, prefill through the
    normal batch pipeline, then join the engine's continuous-batching
    decode pool.
    """

    name: str
    infer_fn: Callable[[np.ndarray, object], np.ndarray]
    batchable: bool = True
    cost_model: Optional[Callable[[BatchProfile, object], float]] = None
    prefix_adapter: Optional[object] = None
    generation_adapter: Optional[object] = None


_ARRIVAL_ORDER = attrgetter("arrival", "request_id")


class _ArrivalFeed:
    """Requests on their way to admission, earliest ``(arrival, id)`` first.

    ``fresh`` is what ``submit`` / ``enqueue`` buffered since the feed
    was last asked — before the run or while a batch was in flight;
    asking sorts it in, so a whole enqueued list costs one sort and no
    per-request heap operation.  A run's ``request_source`` is held one
    *description* ahead: looking at it only reads its arrival, and
    request-id assignment, validation, the recorder and the engine's
    last-arrival bookkeeping happen at :meth:`pop`, when the request is
    actually admitted — so an item merely peeked at has no side effects
    on concurrently submitted requests.  Buffered goes first on ties.
    """

    def __init__(self, engine: "InferenceEngine") -> None:
        self._engine = engine
        self.fresh: List[InferenceRequest] = []
        self._due: List[InferenceRequest] = []  # latest first: pop() is O(1)
        self.stream(())

    def stream(self, source: Iterable, look_ahead: bool = False) -> None:
        """Begin a run over ``source``; ``stream(())`` ends it, dropping
        what a raising run left unadmitted."""
        self._due.clear()
        self._source: Iterator[TracedRequest] = map(describe_request, source)
        self._ahead: Optional[TracedRequest] = next(self._source, None)
        self._streamed_until = 0.0
        self._look_ahead = look_ahead

    def __len__(self) -> int:
        return len(self.fresh) + len(self._due)

    def next_arrival(self) -> Optional[float]:
        """Arrival of the request :meth:`pop` would return, or None."""
        if self.fresh:
            fresh = sorted(self.fresh, key=_ARRIVAL_ORDER)
            self.fresh.clear()
            for request in fresh if self._look_ahead else ():
                stack = self._engine._stacks.get(request.model)
                if stack is not None and request.prefix_key is None:
                    stack.ahead[request.request_id] = request
            self._due += fresh
            self._due.sort(key=_ARRIVAL_ORDER, reverse=True)
        due = self._due[-1].arrival if self._due else None
        if self._ahead is None:
            return due
        # An omitted arrival defaults like submit()'s, as of this look.
        streamed = self._ahead.arrival
        if streamed is None:
            streamed = self._engine._last_arrival
        return streamed if due is None or streamed < due else due

    def pop(self) -> InferenceRequest:
        """The request :meth:`next_arrival` announced."""
        if self._ahead is None or (
            self._due and self._due[-1].arrival == self.next_arrival()
        ):
            return self._due.pop()
        request = self._engine._request_of(self._ahead)
        if request.arrival < self._streamed_until:
            raise ValueError(
                "request_source must be sorted by arrival time: got "
                f"{request.arrival} after {self._streamed_until}"
            )
        self._streamed_until = request.arrival
        self._ahead = next(self._source, None)
        return request


#: Work sources in tie-break order (see ``InferenceEngine._work_sources``).
_RETRY, _DECODE, _PLANNED, _SCHEDULER = range(4)


#: Most input elements one stacked host pass holds (64 requests of 8
#: tokens).  Per-request host cost is flat beyond it and rises again from
#: cache pressure at 8x this; large models gain nothing past their batch.
STACK_ELEMENTS = 512


class _Stack(NamedTuple):
    """Compute-once state of one endpoint (``InferenceEngine._stacked``).
    ``tapes`` live until the name is registered again or the engine
    reset, the other two for one :meth:`InferenceEngine.run`."""

    #: (batch shape, dtype, array config, who) -> what a batch is charged.
    tapes: Dict[tuple, list]
    #: This run's requests nothing has computed yet, in arrival order.
    ahead: Dict[int, InferenceRequest]
    #: request id -> (who computed it, its output row), until its unit runs.
    rows: Dict[int, Tuple[tuple, np.ndarray]]


class _WorkUnit(NamedTuple):
    """What one kind of work hands :meth:`InferenceEngine._execute`.

    The pipeline owns every step the kinds share (place, park, fault
    checks, timing, the shard-side commit, the placement record); a
    unit carries only what differs between a classifier batch, a
    generation prefill and a decode step:

    ``run(shard, backend) -> (result, reused)``
        The payload.  ``reused`` marks a partial execution (a prefix or
        radix hit) whose timing must not feed full-cost estimates.
    ``commit(placed, result, reused) -> completions``
        What a surviving attempt commits, given its placement record.
    ``park(wake)`` / ``fail(shard, at) -> survivors``
        How an all-breakers-open park and a crashed attempt are
        absorbed: the retry heap for batches, in-place ``ready_time`` /
        attempt bookkeeping for pooled decode sequences.  ``fail``
        returns how many requests will retry (0 = abandoned).
    """

    profile: BatchProfile
    batch_index: int
    attempt: int
    exclude_shard: Optional[int]
    run: Callable[[int, object], "Tuple[object, bool]"]
    commit: Callable[[PlacementDecision, object, bool], List[CompletedRequest]]
    park: Callable[[float], None]
    fail: Callable[[int, float], int]
    #: Shard a look-ahead round planned this unit onto (None = place now).
    planned_shard: Optional[int] = None
    #: Prompt a prefix-keyed classifier batch's cache entry is keyed on
    #: (what a steal migrates); None for every other unit.
    prefix_tokens: Optional[np.ndarray] = None


class InferenceEngine:
    """Admission queue + tenant scheduler + sharded dispatch.

    Parameters
    ----------
    dispatcher:
        The shard pool batches execute on.
    max_batch_size, flush_timeout:
        Batch-assembly knobs, applied per (tenant, model) group (see
        :class:`~repro.serving.batcher.BatchAssembler`).
    retain_trace_events:
        False (default) flips every hardware shard's trace to
        aggregate-only mode so serving memory stays bounded; True keeps
        the full per-event logs on the shard arrays (see the module
        docstring's memory contract).
    policy:
        Tenant arbitration when several tenants have batches ready at
        the same instant: ``"weighted_round_robin"`` (default),
        ``"strict_priority"``, or a
        :class:`~repro.serving.scheduler.SchedulingPolicy` instance.
    placement:
        Which shard a ready batch executes on:
        ``"round_robin"`` (default; bit-identical to the historical
        acquire-time mapping), ``"least_loaded"``, ``"cost_aware"``,
        or a :class:`~repro.serving.cluster.PlacementPolicy` instance.
    tenants:
        Optional iterable of :class:`~repro.serving.tenancy.TenantConfig`
        to pre-register (equivalent to :meth:`register_tenant` calls).
    prefix_cache:
        Optional :class:`~repro.serving.prefix_cache.RadixKVCache`
        enabling KV-prefix reuse for classifier endpoints registered
        with a ``prefix_adapter``: a batch whose whole prompt is cached
        computes only its suffix rows.  The configured placement policy
        is then wrapped in
        :class:`~repro.serving.cluster.PrefixAffinePlacement`, so
        batches whose prompt is already resident prefer the holding
        shard; prefix-less traffic is placed exactly as before.
    radix_cache:
        Optional :class:`~repro.serving.prefix_cache.RadixKVCache` (the
        same class, its own instance and budget, and a ``namespace=``
        different from ``prefix_cache``'s — equal ones are rejected)
        enabling longest-prefix K/V reuse for generation endpoints: a
        prefill whose prompt extends an already-cached token sequence
        recomputes only the new suffix, and retiring sequences donate
        their decode history back to the tree.  Placement is wrapped
        in :class:`~repro.serving.cluster.PrefixAffinePlacement` the
        same way ``prefix_cache`` wraps it.
    faults:
        Optional :class:`~repro.serving.faults.FaultPlan` injecting
        shard crashes and slowdowns into the discrete-event clock.
        Without one the fault path is fully dormant: no failures, no
        retries, and the run is bit-identical to pre-fault engines.
    retry_policy:
        Backoff/budget for re-executing batches whose shard faulted
        (see :class:`~repro.serving.faults.RetryPolicy`; a default
        policy applies when faults are enabled without one).
    breaker:
        Per-shard circuit-breaker knobs
        (:class:`~repro.serving.cluster.BreakerConfig`); every shard
        gets an independent :class:`~repro.serving.cluster.ShardHealth`
        driven by batch outcomes, and placement only sees shards whose
        breaker currently admits work.
    elastic:
        Optional :class:`~repro.serving.elastic.ElasticConfig` turning
        on the elastic cluster runtime: look-ahead placement (the
        whole ready set is planned jointly per scheduling round by
        :class:`~repro.serving.cluster.LookaheadPlacement` list
        scheduling), work-stealing (queued-but-unstarted batches are
        re-priced with per-shard drift at execution time and migrate
        off overloaded / tripped shards, moving prefix-cache entries
        through the store fabric when load breaks affinity), and
        SLO-driven autoscaling (the live pool grows/shrinks from
        windowed attainment and shed signals, priced by the hardware
        power model).  The default — everything off — is
        regression-pinned bit-identical to the pre-elastic engine.
    recorder:
        Optional traffic-capture hook — any object with a
        ``record(request)`` method, typically a
        :class:`repro.autotune.TraceRecorder`.  Called once per
        validated submission, whichever front door it came through and
        before admission control — so the captured trace is the traffic
        the engine was *offered*, requests it shed included.  Also
        settable after construction via the ``recorder`` attribute.
    """

    def __init__(
        self,
        dispatcher: ClusterDispatcher,
        max_batch_size: int = 8,
        flush_timeout: float = 1e-3,
        retain_trace_events: bool = False,
        policy: Union[str, SchedulingPolicy] = "weighted_round_robin",
        placement: Union[str, PlacementPolicy] = "round_robin",
        tenants: Optional[Iterable[TenantConfig]] = None,
        prefix_cache: Optional[RadixKVCache] = None,
        radix_cache: Optional[RadixKVCache] = None,
        faults: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerConfig] = None,
        elastic: Optional[ElasticConfig] = None,
        recorder: Optional[object] = None,
    ):
        self.dispatcher = dispatcher
        for shard in range(dispatcher.n_shards):
            array = dispatcher.array_of(shard)
            if array is not None:
                array.trace.configure(retain_events=retain_trace_events)
        self.tenants = TenantRegistry()
        for config in tenants or ():
            self.tenants.register(config)
        self.scheduler = TenantScheduler(
            self.tenants, policy, max_batch_size, flush_timeout
        )
        self.placement = make_placement_policy(placement)
        if None not in (prefix_cache, radix_cache) and (
            prefix_cache.namespace == radix_cache.namespace
        ):
            # Their shard namespaces would collide: one cache's rows
            # would overwrite the other's in cache_stats(), and on a
            # shared store the two would share keys and budgets.
            raise ValueError(
                f"prefix_cache and radix_cache share the namespace "
                f"{prefix_cache.namespace!r}; give each its own namespace="
            )
        self.prefix_cache = prefix_cache
        self.radix_cache = radix_cache
        if (prefix_cache is not None or radix_cache is not None) and not isinstance(
            self.placement, PrefixAffinePlacement
        ):
            self.placement = PrefixAffinePlacement(self.placement)
        self._endpoints: Dict[str, ModelEndpoint] = {}
        # Endpoints whose batches replay a tape and share stacked host
        # passes: exactly those registered as a batchable Module.
        self._stacks: Dict[str, _Stack] = {}
        self._arrivals = _ArrivalFeed(self)
        self._results: Dict[int, np.ndarray] = {}
        self._next_id = 0
        self._last_arrival = 0.0
        self._calibrator = CalibratingCostModel()
        # The per-run event log: every placement, shed, prefix, failure,
        # fault, breaker, decode-step, steal and scaling record, in the
        # order the engine decides them (see ServingReport.events).
        self._events: List[object] = []
        self._shard_busy: Dict[int, float] = {}
        # Fault tolerance: the plan (None = dormant), the retry budget,
        # one breaker per shard and the simulated-time retry queue.
        self.faults = faults
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._breaker_config = breaker
        self._health: Dict[int, ShardHealth] = {
            shard: ShardHealth(shard, breaker, on_transition=self._events.append)
            for shard in range(dispatcher.n_shards)
        }
        # Elastic runtime: knobs, the look-ahead planner, the planned
        # (batch, shard) queue of the current scheduling round, the
        # per-shard live stats (drift feeds stealing) and the
        # autoscaler's windowed signals.
        self.elastic = elastic if elastic is not None else ElasticConfig()
        planner = getattr(self.placement, "inner", self.placement)
        self._lookahead = (
            planner
            if isinstance(planner, LookaheadPlacement)
            else LookaheadPlacement()
        )
        self._planned: Deque[Tuple[Batch, Optional[int], Optional[BatchProfile]]] = deque()
        self._shard_stats: Dict[int, ShardStats] = {}
        self._slo_window: List[bool] = []
        self._window_sheds = 0
        self._last_scale_at: Optional[float] = None
        # Heap of (wake_time, seq, attempt, excluded_shard, batch);
        # seq breaks wake-time ties deterministically (batches don't
        # compare) in requeue order.
        self._retry_queue: List[Tuple[float, int, int, Optional[int], Batch]] = []
        self._retry_seq = 0
        self._work_consumed = 0
        # Continuous-batching decode pool: sequences between their
        # prefill and their retirement, re-batched every iteration.
        self._active: List[ActiveSequence] = []
        # Traffic capture: any object with record(request) — typically
        # a repro.autotune.TraceRecorder (duck-typed so serving never
        # imports the autotune layer above it).  Settable after
        # construction too; None = no capture.
        self.recorder = recorder

    # ------------------------------------------------------------------
    # Registration and submission
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        model: Optional[object] = None,
        *,
        infer_fn: Optional[Callable[[np.ndarray, object], np.ndarray]] = None,
        batchable: bool = True,
        cost_model: Optional[Callable[[BatchProfile, object], float]] = None,
        prefix_adapter: Optional[object] = None,
        generation_adapter: Optional[object] = None,
    ) -> None:
        """Register a model endpoint under ``name``.

        Pass either ``model`` (an object with ``infer(inputs, backend)``)
        or an explicit ``infer_fn``.  A batchable ``model`` that is a
        :class:`~repro.nn.layers.Module` promises its contract and is
        computed in stacks (``_stacked``); an ``infer_fn`` is called once
        per batch, always.  ``cost_model`` optionally supplies
        closed-form batch-cycle estimates for cost-aware placement (see
        :func:`~repro.serving.cluster.workload_cost_model`); without
        one, estimates come from the engine's calibrating model once
        the (model, shape) has executed somewhere.  ``prefix_adapter``
        (see
        :class:`~repro.serving.prefix_cache.TransformerPrefixAdapter`)
        opts the endpoint into KV-prefix reuse; it takes effect when
        the engine was constructed with a ``prefix_cache`` and requires
        a batchable endpoint (the adapter runs the stacked batch
        itself).

        ``generation_adapter`` (see
        :class:`~repro.serving.generation.GenerationAdapter`) opts the
        endpoint into autoregressive decode via
        :meth:`submit_generation`.  It is mutually exclusive with
        ``prefix_adapter`` (generation has its own prefix reuse, the
        engine-level ``radix_cache``), supplies the endpoint's cost
        model when none is given, and can stand in for ``model`` /
        ``infer_fn`` — plain :meth:`submit` traffic then runs the
        wrapped model's ``infer``.
        """
        if generation_adapter is not None:
            if prefix_adapter is not None:
                raise ValueError(
                    "generation_adapter and prefix_adapter are mutually "
                    "exclusive: generation prefills reuse prefixes through "
                    "the engine's radix_cache instead"
                )
            if not batchable:
                raise ValueError(
                    "generation_adapter requires a batchable endpoint: "
                    "prefill and decode both run stacked batches"
                )
            gen_model = getattr(generation_adapter, "model", None)
            if model is not None and gen_model is not None and gen_model is not model:
                raise ValueError(
                    "generation_adapter wraps a different model than the one "
                    "being registered; build the adapter from the same model "
                    "instance"
                )
            if model is None and infer_fn is None:
                model = gen_model
            if cost_model is None:
                cost_model = generation_adapter.cost_model
        if (model is None) == (infer_fn is None):
            raise ValueError("register() needs exactly one of model / infer_fn")
        if prefix_adapter is not None and not batchable:
            raise ValueError(
                "prefix_adapter requires a batchable endpoint: the adapter "
                "executes the stacked batch on the hit and miss paths"
            )
        adapter_model = getattr(prefix_adapter, "model", None)
        if model is not None and adapter_model is not None and adapter_model is not model:
            # Prefix-keyed batches execute through the adapter's model,
            # not infer_fn — a mismatched pair would silently serve a
            # different model's outputs.
            raise ValueError(
                "prefix_adapter wraps a different model than the one being "
                "registered; build the adapter from the same model instance"
            )
        # A name registered again starts from nothing: no tape, no row.
        self._stacks.pop(name, None)
        if infer_fn is None:
            infer_fn = model.infer  # type: ignore[union-attr]
            if batchable and isinstance(model, Module):
                self._stacks[name] = _Stack({}, {}, {})
        self._endpoints[name] = ModelEndpoint(
            name, infer_fn, batchable, cost_model, prefix_adapter, generation_adapter
        )

    def register_tenant(
        self,
        tenant_id: str,
        *,
        weight: float = 1.0,
        priority: int = 0,
        slo_latency: Optional[float] = None,
    ) -> TenantConfig:
        """Declare a tenant's fair-share weight, priority and SLO.

        Unregistered tenant ids are still accepted at :meth:`submit`
        with default weight 1 / priority 0 / no SLO.
        """
        return self.tenants.register(
            TenantConfig(
                tenant_id=tenant_id,
                weight=weight,
                priority=priority,
                slo_latency=slo_latency,
            )
        )

    def submit(
        self,
        model: str,
        inputs: np.ndarray,
        arrival: Optional[float] = None,
        *,
        tenant: str = DEFAULT_TENANT,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Queue one request; returns its id for :meth:`result`.

        ``arrival`` is the simulated arrival time; it defaults to the
        previous request's arrival, so back-to-back submissions model a
        concurrent burst that the batcher may pack together.
        ``priority`` defaults to the tenant's configured priority,
        resolved lazily at scheduling time (so ``register_tenant``
        after ``submit`` still applies), and ``deadline`` (absolute
        simulated time) defaults to none — a request finishing late is
        still answered but counts as a miss in the report's SLO
        accounting.

        Submission is pure admission: it can be called before a run,
        between :meth:`step` calls, or from code executing while a
        batch is in flight; the scheduler loop picks the request up at
        its next decision point.
        """
        request = self._make_request(model, inputs, arrival, tenant, priority, deadline)
        self._arrivals.fresh.append(request)
        return request.request_id

    def submit_generation(
        self,
        model: str,
        prompt: np.ndarray,
        max_new_tokens: int,
        arrival: Optional[float] = None,
        *,
        stop_token: Optional[int] = None,
        tenant: str = DEFAULT_TENANT,
        priority: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> int:
        """Queue one autoregressive generation request; returns its id.

        The endpoint must be registered with a ``generation_adapter``.
        ``prompt`` is a 1-D token row; the request prefills through the
        normal batch pipeline (grouped with same-length prompts), then
        decodes greedily in the engine's continuous-batching pool until
        ``max_new_tokens`` tokens are generated or ``stop_token`` is
        emitted (the stop token is included in the output).
        :meth:`result` returns the generated token row.  Arrival,
        tenant, priority and deadline behave exactly as in
        :meth:`submit`.
        """
        request = self._make_request(
            model, prompt, arrival, tenant, priority, deadline,
            max_new_tokens, stop_token,
        )
        self._arrivals.fresh.append(request)
        return request.request_id

    def enqueue(self, requests: Iterable) -> List[int]:
        """Queue a list of requests given as data; returns their ids.

        Each item is a :class:`~repro.serving.request.TracedRequest` or
        a mapping of its field names — a trace's rows, a recorder's
        capture or ``to_dict()`` rows from JSON, generation included.
        Whoever holds its traffic whole (a replay, a fleet worker) comes
        through here, not ``run(request_source=)``: only buffered
        requests feed the stacked host passes' look-ahead.
        """
        made = [self._request_of(describe_request(item)) for item in requests]
        self._arrivals.fresh += made
        return [request.request_id for request in made]

    def _request_of(self, described: TracedRequest) -> InferenceRequest:
        return self._make_request(
            described.model, described.inputs_array(), described.arrival,
            described.tenant, described.priority, described.deadline,
            described.max_new_tokens, described.stop_token,
        )

    def _make_request(
        self,
        model: str,
        inputs: np.ndarray,
        arrival: Optional[float],
        tenant: str,
        priority: Optional[int],
        deadline: Optional[float],
        max_new_tokens: Optional[int] = None,
        stop_token: Optional[int] = None,
    ) -> InferenceRequest:
        """Validate and build one request — every front door ends here."""
        generation = generation_of(inputs, max_new_tokens, stop_token)
        if model not in self._endpoints:
            raise KeyError(
                f"unknown model {model!r}; registered: {sorted(self._endpoints)}"
            )
        if arrival is None:
            arrival = self._last_arrival
        arrival = float(arrival)
        if arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {arrival}")
        endpoint = self._endpoints[model]
        prefix_key = None
        if generation is not None:
            # Generation requests carry a prompt-*length* key: batch
            # assembly groups on it, so one prefill stacks distinct
            # same-shape prompts (all np.stack needs) into one array
            # pass.  Validation happens before any engine state is
            # touched.
            adapter = endpoint.generation_adapter
            if adapter is None:
                raise ValueError(
                    f"model {model!r} was registered without a "
                    "generation_adapter; a generation request needs one"
                )
            inputs = generation.prompt
            adapter.validate(inputs, generation.max_new_tokens)
            prefix_key = adapter.batch_key(inputs)
        elif self.prefix_cache is not None and endpoint.prefix_adapter is not None:
            # Key the request on its prompt content at admission: batch
            # assembly groups on it, so one batch is one prompt and the
            # cache decision at execution applies to the whole batch.
            # May raise on malformed inputs — before any engine state
            # (the arrival bookkeeping below) is touched, so a failed
            # submit leaves the engine unchanged.
            prefix_key = endpoint.prefix_adapter.request_key(inputs)
        self._last_arrival = arrival
        request = InferenceRequest(
            request_id=self._next_id,
            model=model,
            inputs=np.asarray(inputs),
            arrival=arrival,
            tenant=tenant,
            priority=None if priority is None else int(priority),
            deadline=None if deadline is None else float(deadline),
            prefix_key=prefix_key,
            generation=generation,
        )
        self._next_id += 1
        # Capture after validation succeeded, before admission control:
        # a recorder sees every request offered (a replay must offer one
        # shed later again), never a submission that raised.
        if self.recorder is not None:
            self.recorder.record(request)
        return request

    @property
    def pending(self) -> int:
        """Requests admitted or buffered, not yet executed.

        Accurate even when read from inside a run (e.g. by an
        ``infer_fn`` callback): requests the scheduler loop has taken
        out of the submission buffer but not yet admitted are counted.
        """
        return (
            len(self._arrivals)
            + self.scheduler.pending
            + sum(batch.size for batch, _, _ in self._planned)
        )

    # ------------------------------------------------------------------
    # Execution: the scheduler loop
    # ------------------------------------------------------------------
    def run(self, request_source: Optional[Iterable] = None) -> ServingReport:
        """Serve until every queue is drained, then report.

        The discrete-event scheduler loop alternates admission and
        execution: at each step it either admits the next request whose
        arrival precedes the earliest ready batch (from the submission
        buffer or ``request_source``), or pops the policy-selected
        ready batch and executes it — so requests that arrive while an
        earlier batch occupies a shard are batched and scheduled
        normally instead of waiting for the next drain.

        ``request_source`` is an optional arrival-sorted iterable of
        requests in :meth:`enqueue`'s item format (generation requests
        included; request ids are engine-assigned, so finished ids are
        read off the returned report's records).  It models streaming
        request I/O: items are coerced lazily, one ahead, interleaved
        with buffered submissions by arrival time.

        Returns the serving report for the requests processed by *this*
        call; their outputs become available via :meth:`result`.
        """
        wall_start = time.perf_counter()
        cycles_before = self.dispatcher.shard_cycles()
        tenant_cycles_before = self.dispatcher.namespace_cycles()
        # The event log and busy accounting are per run: records from
        # caller-driven step() sequences are readable on :attr:`events`
        # until the next run starts.
        self._clear_run_logs()
        self._shard_busy = {shard: 0.0 for shard in range(self.dispatcher.n_shards)}
        completed: List[CompletedRequest] = []
        feed = self._arrivals
        try:
            feed.stream(() if request_source is None else request_source, True)
            while True:
                sources = self._work_sources()
                ready_at = min(sources)[0] if sources else None
                arrival = feed.next_arrival()
                if arrival is not None and (ready_at is None or arrival <= ready_at):
                    self._admit(feed.pop())
                    continue
                if ready_at is None:
                    break
                # A drain may legitimately complete nothing — a failed
                # attempt re-queues its batch for a later wake — so
                # progress is measured in batches *consumed*, not
                # requests completed.
                consumed_before = self._work_consumed
                completed.extend(self._drain_one(sources))
                if self._work_consumed == consumed_before:  # pragma: no cover
                    break  # defensive: ready_at implies a batch
        finally:
            feed.stream(())
            # Weights may change between runs: nothing is kept for the next.
            for stack in self._stacks.values():
                stack.ahead.clear()
                stack.rows.clear()

        cycles_after = self.dispatcher.shard_cycles()
        shard_cycles = {
            shard: cycles_after[shard] - cycles_before.get(shard, 0)
            for shard in cycles_after
        }
        tenant_cycles_after = self.dispatcher.namespace_cycles()
        run_tenants = {record.request.tenant for record in completed}
        # Namespaces persist on the shard traces across runs; report
        # only the tenants this run actually touched (nonzero delta or
        # a completed request), not every tenant ever served.
        tenant_cycles = {
            tenant: delta
            for tenant in tenant_cycles_after
            if (delta := tenant_cycles_after[tenant] - tenant_cycles_before.get(tenant, 0))
            or tenant in run_tenants
        }
        for tenant in run_tenants:
            tenant_cycles.setdefault(tenant, 0)
        return ServingReport(
            completed=tuple(completed),
            shard_cycles=shard_cycles,
            wall_seconds=time.perf_counter() - wall_start,
            tenant_cycles=tenant_cycles,
            tenants=self.tenants.configured(),
            events=self.events,
            shard_busy=dict(self._shard_busy),
            placement_policy=self.placement.name,
            cache_stats=self.cache_stats(),
        )

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Unified stats of every cache namespace this engine touches.

        One :meth:`repro.store.CacheStore.stats` dict per namespace:
        the process-global store's namespaces (approximator tables,
        GEMM/MHP plan caches, calibration snapshots), the prefix
        cache's per-shard stores, and each shard backend's parameter
        cache (under ``nn.params.shard<N>``).
        """
        stats: Dict[str, Dict[str, int]] = dict(get_store().stats())
        if self.prefix_cache is not None:
            stats.update(self.prefix_cache.namespace_stats())
        if self.radix_cache is not None:
            stats.update(self.radix_cache.namespace_stats())
        for shard, backend in enumerate(self.dispatcher.backends):
            param_cache = getattr(backend, "param_cache", None)
            if param_cache is not None:
                stats[f"nn.params.shard{shard}"] = param_cache.stats()
        return stats

    def step(self) -> List[CompletedRequest]:
        """Admit everything buffered, execute at most one ready batch.

        The caller-driven flavour of the scheduler loop: interleave
        :meth:`submit` and :meth:`step` to model request admission
        while earlier batches are in flight.  Outputs are stored for
        :meth:`result` as usual; the returned records carry placement
        and timing.  (:meth:`run` is the drain-and-report flavour.)
        """
        while self._arrivals.next_arrival() is not None:
            self._admit(self._arrivals.pop())
        return self._drain_one(self._work_sources())

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, request: InferenceRequest) -> None:
        """Admit one request, or shed it per its tenant's contract.

        Both gates are evaluated at the request's (simulated) arrival:
        the queue-depth cap against the tenant's currently queued
        requests, and — for ``shed_doomed`` tenants — the effective
        deadline against the best case of starting immediately on the
        fastest shard (a conservative bound: queueing is ignored, so
        only certainly-unmeetable requests shed).
        """
        config = self.tenants.get(request.tenant)
        if (
            config.max_queue_depth is not None
            and self.scheduler.tenant_pending(request.tenant)
            >= config.max_queue_depth
        ):
            return self._shed(request, "queue_full")
        if config.shed_doomed:
            due = effective_deadline(request, self.tenants)
            if due is not None and self._best_case_finish(request) > due:
                return self._shed(request, "deadline_doomed")
        self.scheduler.admit(request)

    def _shed(self, request: InferenceRequest, reason: str) -> None:
        self._events.append(ShedRecord(request, reason, request.arrival))
        self._window_sheds += 1
        self._forget(request)

    def _best_case_finish(self, request: InferenceRequest) -> float:
        """Earliest conceivable finish: run alone, immediately, on the
        fastest shard (0 service time where no estimate exists)."""
        profile = self._profile(
            model=request.model,
            tenant=request.tenant,
            batch_size=1,
            sample_shape=np.asarray(request.inputs).shape,
            ready_time=request.arrival,
        )
        return request.arrival + min(
            (
                profile.service_seconds(view.config, view.clock_hz) or 0.0
                for view in self.dispatcher.shard_views()
            ),
            default=0.0,
        )

    def _profile(
        self, model, tenant, batch_size, sample_shape, ready_time,
        prefix_key=None, resident_shards=(),
    ):
        """Build the placement-time view of a batch (or lone request),
        priced by the endpoint's cost model or the calibrating default."""
        endpoint = self._endpoints[model]
        estimator = (
            endpoint.cost_model
            if endpoint.cost_model is not None
            else self._calibrator.estimate
        )
        return BatchProfile(
            model=model,
            tenant=tenant,
            batch_size=batch_size,
            sample_shape=tuple(sample_shape),
            ready_time=ready_time,
            estimator=estimator,
            prefix_key=prefix_key,
            resident_shards=resident_shards,
        )

    def _is_prefill(self, batch: Batch) -> bool:
        """Is ``batch`` a generation batch (prompt pass, then decode)?"""
        return (
            self._endpoints[batch.model].generation_adapter is not None
            and batch.requests[0].generation is not None
        )

    def _batch_profile(self, batch: Batch) -> BatchProfile:
        """Placement-time view of a classifier batch.

        Carries the batch's prefix key and the shards already holding
        its prompt exactly when the batch will execute through the
        prefix cache (``profile.prefix_key is not None`` is that
        decision).
        """
        prefix_key, resident = None, ()
        adapter = self._endpoints[batch.model].prefix_adapter
        if (
            batch.prefix_key is not None
            and self.prefix_cache is not None
            and adapter is not None
        ):
            prefix_key = batch.prefix_key
            resident = self.prefix_cache.resident_shards(
                batch.tenant, batch.model,
                adapter.prefix_tokens(batch.requests[0].inputs),
            )
        return self._profile(
            batch.model, batch.tenant, batch.size,
            np.asarray(batch.requests[0].inputs).shape, batch.ready_time,
            prefix_key, resident,
        )

    @property
    def events(self) -> "tuple[object, ...]":
        """The event log since the start of the last :meth:`run`: what
        :attr:`ServingReport.events` will carry, for :meth:`step`-driven
        callers (filter by record type for one kind)."""
        return tuple(self._events)

    @property
    def shard_health(self) -> Dict[int, ShardHealth]:
        """The per-shard breakers (live objects; read-only use intended)."""
        return dict(self._health)

    @property
    def shard_stats(self) -> Dict[int, ShardStats]:
        """Per-shard live stats (the drift EWMA stealing reads;
        cumulative across runs, cleared by :meth:`reset`)."""
        return dict(self._shard_stats)

    @property
    def calibrator(self) -> CalibratingCostModel:
        """The engine's calibrating cost model.

        Persist it across restarts via
        :meth:`~repro.serving.cluster.CalibratingCostModel.to_dict` /
        :meth:`~repro.serving.cluster.CalibratingCostModel.load_dict`.
        """
        return self._calibrator

    def _work_sources(self) -> "List[Tuple[float, int]]":
        """``(ready time, source)`` of every source that has work.

        The source rank breaks ties, so ``min`` picks what runs next:
        retries tied with anything run first (they are strictly older
        work), decode iterations beat fresh batches, and a batch a
        look-ahead round already planned (older) beats the scheduler.
        """
        times = (
            self._retry_queue[0][0] if self._retry_queue else None,
            min(seq.ready_time for seq in self._active) if self._active else None,
            self._planned[0][0].ready_time if self._planned else None,
            self.scheduler.earliest_ready(),
        )
        return [(t, source) for source, t in enumerate(times) if t is not None]

    def _drain_one(self, sources: "List[Tuple[float, int]]") -> List[CompletedRequest]:
        """Pick the earliest of ``sources`` (the caller's
        :meth:`_work_sources`), execute it, store results.

        Fresh work is either the next batch a look-ahead round already
        planned or the scheduler's policy-selected ready batch — which,
        under ``elastic.lookahead``, first harvests every batch ready at
        the same instant into a jointly planned round.  Returns the
        completions of the attempt — empty when the attempt failed and
        the batch was re-queued, parked, or abandoned (its requests
        then appear as :class:`FailureRecord` entries on :attr:`events`).
        """
        if not sources:
            return []
        ready, source = min(sources)
        views = None
        if source == _RETRY:
            _wake, _seq, attempt, exclude, batch = heapq.heappop(self._retry_queue)
            unit = self._batch_unit(batch, attempt=attempt, exclude_shard=exclude)
        elif source == _DECODE:
            unit = self._decode_unit()
        else:
            if source == _SCHEDULER:
                batch = self.scheduler.pop_ready(ready)
                if batch is None:  # pragma: no cover — ready implies a batch
                    return []
                if self.elastic.lookahead:
                    views = self._plan_round(batch, ready)
                else:
                    self._planned.append((batch, None, None))
            unit = self._batch_unit(*self._planned.popleft())
        self._work_consumed += 1
        # Nothing commits between planning a round and its first unit, so
        # that unit is placed on the round's views — unless it is left
        # over from an earlier round and ready at another instant.
        if unit.profile.ready_time != ready:
            views = None
        completed = self._execute(unit, views)
        for record in completed:
            self._results[record.request.request_id] = record.outputs
        self._note_completions(completed)
        return completed

    def _plan_round(self, first: Batch, ready: float) -> List[ShardView]:
        """Harvest every batch ready at this instant; plan them jointly.

        The scheduling round of look-ahead placement: ``first`` (the
        batch the scheduler just popped) plus every further batch whose
        ready time has also arrived form one planning set.  Prefix- and
        radix-resident batches keep their cache affinity (the resident
        shard, exactly as :class:`PrefixAffinePlacement` would place
        them — work-stealing may break it later); the rest go through
        :meth:`LookaheadPlacement.plan` LPT list scheduling over
        horizons that already account for the affine assignments.
        Generation prefills are exempt (their profile depends on radix
        state at execution) and keep per-batch placement.  The planned
        ``(batch, shard, profile)`` triples queue for execution in plan
        order; returns the views the round was planned on.
        """
        batches = [first]
        while True:
            nxt = self.scheduler.earliest_ready()
            if nxt is None or nxt > ready:
                break
            batch = self.scheduler.pop_ready(nxt)
            if batch is None:  # pragma: no cover — defensive
                break
            batches.append(batch)
        views = self._available_views(ready)
        # With no shard available nothing is planned: everything will
        # park through the normal placement path.
        profiles = [
            None if not views or self._is_prefill(batch) else self._batch_profile(batch)
            for batch in batches
        ]
        horizons = {view.index: view.busy_until for view in views}
        assignments: List[Optional[int]] = [None] * len(batches)
        plan_indices: List[int] = []
        for i, profile in enumerate(profiles):
            if profile is None:
                continue
            holders = set(profile.resident_shards)
            resident = [view for view in views if view.index in holders]
            if resident:
                best = min(resident, key=lambda v: (horizons[v.index], v.index))
                assignments[i] = best.index
                service = profile.service_seconds(best.config, best.clock_hz)
                horizons[best.index] = max(
                    profile.ready_time, horizons[best.index]
                ) + (service or 0.0)
                continue
            plan_indices.append(i)
        if plan_indices:
            shards = self._lookahead.plan(
                [profiles[i] for i in plan_indices], views, horizons
            )
            for i, shard in zip(plan_indices, shards):
                assignments[i] = shard
        self._planned.extend(zip(batches, assignments, profiles))
        return views

    def _note_completions(self, completed: List[CompletedRequest]) -> None:
        """Feed the autoscaler's windowed SLO signal, maybe scale."""
        if not completed or not self.elastic.autoscale:
            return
        for record in completed:
            due = effective_deadline(record.request, self.tenants)
            self._slo_window.append(due is None or record.finish <= due)
        excess = len(self._slo_window) - self.elastic.autoscale_window
        if excess > 0:
            del self._slo_window[:excess]
        self._maybe_autoscale(max(record.finish for record in completed))

    def result(self, request_id: int, keep: bool = False) -> np.ndarray:
        """Output of a completed request (KeyError if not yet run).

        By default the output is handed over exactly once and released,
        so a long-lived engine does not accumulate every response it
        has ever produced; pass ``keep=True`` to leave it retrievable
        (it then stays resident until fetched without ``keep`` or
        :meth:`reset`).
        """
        if keep:
            return self._results[request_id]
        return self._results.pop(request_id)

    def _clear_run_logs(self) -> None:
        """Empty the event log and the autoscaler's windowed signals."""
        self._events.clear()
        self._slo_window.clear()
        self._window_sheds = 0

    def reset(self) -> None:
        """Drop queued requests, stored results, shard occupancy and
        cached prefixes."""
        self._arrivals = _ArrivalFeed(self)
        self.scheduler.reset()
        self.placement.reset()
        self._calibrator.reset()
        self._results.clear()
        self._clear_run_logs()
        self._shard_busy.clear()
        self._retry_queue.clear()
        self._retry_seq = 0
        self._active.clear()
        self._planned.clear()
        for stack in self._stacks.values():
            for part in stack:
                part.clear()
        self._last_scale_at = None
        for stats in self._shard_stats.values():
            stats.reset()
        for health in self._health.values():
            health.reset()
        self._last_arrival = 0.0
        if self.prefix_cache is not None:
            self.prefix_cache.clear()
        if self.radix_cache is not None:
            self.radix_cache.clear()
        self.dispatcher.reset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _check_batched(
        endpoint: ModelEndpoint, outputs: np.ndarray, size: int
    ) -> np.ndarray:
        """Validate that a stacked inference preserved the batch axis."""
        outputs = np.asarray(outputs)
        if outputs.ndim < 1 or outputs.shape[0] != size:
            raise ValueError(
                f"endpoint {endpoint.name!r} returned output of shape "
                f"{outputs.shape} for a batch of {size}; a "
                "batchable infer_fn must preserve the leading batch "
                "axis (register with batchable=False otherwise)"
            )
        return outputs

    def _health_of(self, shard: int) -> ShardHealth:
        """The shard's breaker (created lazily for autoscaler-added shards)."""
        health = self._health.get(shard)
        if health is None:
            health = self._health[shard] = ShardHealth(
                shard, self._breaker_config, on_transition=self._events.append
            )
        return health

    def _stats_of(self, shard: int) -> ShardStats:
        """The shard's live stats accumulator (created on first touch)."""
        stats = self._shard_stats.get(shard)
        if stats is None:
            stats = self._shard_stats[shard] = ShardStats(shard)
        return stats

    def _available_views(self, now: float) -> List[ShardView]:
        """Live shards whose breaker admits work at ``now``, with each
        view carrying its breaker state — so placement can filter open
        shards and price half-open probes pessimistically."""
        pool = self.dispatcher
        offline, busy_until = pool.offline_shards(), pool.busy_until
        return [
            ShardView(shard, busy_until.get(shard, 0.0), clock_hz, config, health.state)
            for shard, (config, clock_hz) in enumerate(pool.design_points)
            if shard not in offline and (health := self._health_of(shard)).available(now)
        ]

    def _all_down(self, unit: _WorkUnit) -> float:
        """Every live breaker is open: log the park, return the wake
        time (the earliest quarantine expiry)."""
        offline = self.dispatcher.offline_shards()
        live = [h for shard, h in self._health.items() if shard not in offline]
        wake = min(h.open_until for h in live or self._health.values())
        self._events.append(
            FaultRecord(
                kind="all_shards_down",
                shard=None,
                batch_index=unit.batch_index,
                at=unit.profile.ready_time,
                attempt=unit.attempt,
                action="park",
                requests=unit.profile.batch_size,
            )
        )
        return wake

    def _select_shard(self, unit: _WorkUnit, healthy: List[ShardView]) -> int:
        """Pick the shard a ready unit executes on.

        The policy only sees live shards whose breaker admits work at
        the ready time (each view carries its breaker state, so
        half-open probes are priced pessimistically); a retry
        additionally avoids the shard of its failed attempt whenever an
        alternative exists.  A look-ahead-planned first attempt
        re-validates (and possibly steals) its planned shard instead of
        re-placing from scratch.
        """
        if unit.planned_shard is not None and unit.attempt == 0:
            return self._resolve_planned(unit, healthy)
        without = [view for view in healthy if view.index != unit.exclude_shard]
        shard = self.placement.place(unit.profile, without or healthy)
        if not 0 <= shard < self.dispatcher.n_shards:
            raise ValueError(
                f"placement policy {self.placement.name!r} returned shard "
                f"{shard} for a pool of {self.dispatcher.n_shards}"
            )
        return shard

    def _resolve_planned(self, unit: _WorkUnit, views: List[ShardView]) -> int:
        """Hold or steal: re-validate a planned placement at execution.

        The look-ahead plan priced the round with calibrated estimates;
        by the time this batch reaches the head of the queue the world
        may have moved — the planned shard's breaker may have opened
        (or the autoscaler retired it), or its measured drift (EWMA of
        actual vs estimated service) may have blown the estimate.  With
        ``elastic.steal`` on, the batch is re-priced against every
        available shard with drift-corrected ETAs and migrates when the
        planned shard's ETA exceeds the best alternative's by
        ``steal_drift_threshold`` (``affinity_break_factor`` when the
        planned shard holds the batch's prefix — the cache entry then
        migrates through the store fabric with the batch, preserving
        the hit).  With stealing off, an unavailable planned shard
        falls back to the configured placement policy; an available one
        is honored unconditionally.
        """
        profile, planned_shard = unit.profile, unit.planned_shard
        ready = profile.ready_time
        if not self.elastic.steal:
            if any(view.index == planned_shard for view in views):
                return planned_shard
            # Breaker opened (or shard retired) under the plan: the
            # batch re-places through the normal policy path.
            return self.placement.place(profile, views)

        # Drift-corrected ETA per candidate: the planned service time,
        # scaled by the shard's measured actual/estimated ratio, on top
        # of its live horizon.
        services = profile.services_on(views)
        etas = {
            view.index: estimated_finish(
                view, ready, view.busy_until, services,
                self._stats_of(view.index).drift,
            )
            for view in views
        }
        best = min(etas, key=lambda shard: (etas[shard], shard))
        resident = planned_shard in profile.resident_shards

        if planned_shard not in etas:
            self._steal(unit, best, "breaker", 0.0, etas[best], resident)
            return best

        if best == planned_shard:
            return planned_shard
        planned_eta, best_eta = etas[planned_shard], etas[best]
        factor = (
            self.elastic.affinity_break_factor
            if resident
            else self.elastic.steal_drift_threshold
        )
        if planned_eta <= factor * best_eta:
            return planned_shard
        self._steal(
            unit, best, "affinity" if resident else "drift",
            planned_eta, best_eta, resident,
        )
        return best

    def _steal(
        self,
        unit: _WorkUnit,
        to_shard: int,
        reason: str,
        planned_eta: float,
        stolen_eta: float,
        resident: bool,
    ) -> None:
        """Log a migration off the planned shard; the batch's prefix
        entry (when the planned shard holds one) moves with it."""
        profile, from_shard = unit.profile, unit.planned_shard
        # ``resident`` implies a prefix-keyed unit (see _batch_profile).
        migrated = resident and self.prefix_cache.migrate(
            from_shard, to_shard, profile.tenant, profile.model, unit.prefix_tokens
        )
        self._events.append(
            StealEvent(
                batch_index=unit.batch_index,
                model=profile.model,
                tenant=profile.tenant,
                from_shard=from_shard,
                to_shard=to_shard,
                at=profile.ready_time,
                reason=reason,
                planned_eta=planned_eta,
                stolen_eta=stolen_eta,
                cache_migrated=migrated,
            )
        )

    # ------------------------------------------------------------------
    # SLO-driven autoscaling
    # ------------------------------------------------------------------
    def _pool_power(self, extra_config: Optional[object] = None) -> float:
        """Priced power of the live pool (plus a candidate shard)."""
        from repro.hardware.power import power_watts

        total = 0.0
        for view in self.dispatcher.shard_views():
            if view.config is not None:
                total += power_watts(view.config)
        if extra_config is not None:
            total += power_watts(extra_config)
        return total

    def _power_admits(self, config: Optional[object]) -> bool:
        """Would adding a shard of ``config`` stay inside the budget?"""
        budget = self.elastic.power_budget_watts
        if budget is None or config is None:
            return True
        return self._pool_power(extra_config=config) <= budget

    def _maybe_autoscale(self, now: float) -> None:
        """Evaluate the windowed SLO/shed signals; grow or shrink once.

        Hysteresis is threefold: a full window of completions must have
        accumulated, ``autoscale_cooldown`` simulated seconds must have
        passed since the last action, and the grow/shrink attainment
        thresholds are separated by a dead band.  After any action the
        window restarts, so one bad burst triggers at most one resize
        per window.
        """
        config = self.elastic
        if len(self._slo_window) < config.autoscale_window:
            return
        if (
            self._last_scale_at is not None
            and now - self._last_scale_at < config.autoscale_cooldown
        ):
            return
        attainment = sum(self._slo_window) / len(self._slo_window)
        shed_rate = self._window_sheds / (
            self._window_sheds + len(self._slo_window)
        )
        acted = False
        if attainment < config.grow_below_attainment or shed_rate > 0.0:
            reason = (
                "slo_attainment"
                if attainment < config.grow_below_attainment
                else "shed_rate"
            )
            acted = self._grow_pool(now, attainment, shed_rate, reason)
        elif attainment >= config.shrink_above_attainment and shed_rate == 0.0:
            acted = self._shrink_pool(now, attainment, shed_rate)
        if acted:
            self._last_scale_at = now
            self._slo_window.clear()
            self._window_sheds = 0

    def _grow_pool(
        self, now: float, attainment: float, shed_rate: float, reason: str
    ) -> bool:
        """Reactivate a retired shard, or build one from the pool spec.

        Growth is refused at ``max_shards``, when the priced pool power
        would exceed ``power_budget_watts``, or when there is neither a
        retired shard to reactivate nor a :class:`ShardSpec` template
        to clone — so an unbudgeted homogeneous pool can still grow.
        """
        config = self.elastic
        if (
            config.max_shards is not None
            and self.dispatcher.n_live_shards >= config.max_shards
        ):
            return False
        offline = sorted(self.dispatcher.offline_shards())
        if offline:
            shard = offline[0]
            if not self._power_admits(self.dispatcher.config_of(shard)):
                return False
            self.dispatcher.activate_shard(shard)
        else:
            specs = self.dispatcher.specs
            if not specs:
                return False
            template = specs[-1]
            if not self._power_admits(template.config):
                return False
            shard = self.dispatcher.add_shard(template)
            self._health_of(shard)
        self._events.append(
            ScalingEvent(
                at=now,
                action="grow",
                shard=shard,
                reason=reason,
                slo_attainment=attainment,
                shed_rate=shed_rate,
                pool_power_watts=self._pool_power(),
            )
        )
        return True

    def _shrink_pool(
        self, now: float, attainment: float, shed_rate: float
    ) -> bool:
        """Retire the least-utilized live shard (never below min_shards).

        Retirement is graceful: the shard's horizon, traces and cached
        prefixes survive — it is only hidden from new placements, and a
        later grow reactivates it first.
        """
        live = sorted(view.index for view in self.dispatcher.shard_views())
        if len(live) <= self.elastic.min_shards:
            return False
        # Least busy this run; ties retire the higher index, so shard 0
        # (and with it a deterministic pool core) is retired last.
        victim = min(live, key=lambda s: (self._shard_busy.get(s, 0.0), -s))
        self.dispatcher.retire_shard(victim)
        self._events.append(
            ScalingEvent(
                at=now,
                action="shrink",
                shard=victim,
                reason="slo_headroom",
                slo_attainment=attainment,
                shed_rate=shed_rate,
                pool_power_watts=self._pool_power(),
            )
        )
        return True

    # ------------------------------------------------------------------
    # The execute-and-commit pipeline (one, for every kind of work)
    # ------------------------------------------------------------------
    def _execute(
        self, unit: _WorkUnit, views: Optional[List[ShardView]] = None
    ) -> List[CompletedRequest]:
        """Place, run, fault-check and commit one unit of work.

        Every classifier batch, generation prefill and decode step goes
        through this skeleton; the unit's hooks supply the payload and
        absorb the outcome (see :class:`_WorkUnit`).  Failed attempts
        record *nothing* in the placement, prefix or calibration logs —
        those are written exactly once, by the attempt that completes —
        so retried traffic is never double-attributed.  ``views`` are
        the unit's :meth:`_available_views` when the caller holds them.
        """
        profile = unit.profile
        ready = profile.ready_time
        # Placement happens at ready time, so the policy sees every
        # shard's busy horizon and the unit's shape/cost profile
        # (including prefix residency, for affinity) before choosing.
        # With every breaker open the unit parks (no retry consumed)
        # until the earliest quarantine expiry re-admits a probe.
        healthy = self._available_views(ready) if views is None else views
        if not healthy:
            unit.park(self._all_down(unit))
            return []
        shard = self._select_shard(unit, healthy)
        backend = self.dispatcher.backends[shard]
        array = self.dispatcher.array_of(shard)

        start = max(ready, self.dispatcher.busy_until.get(shard, 0.0))
        if self.faults is not None:
            doa = self.faults.crash_covering(shard, start)
            if doa is not None:
                # Dead on arrival: the shard is down when the unit
                # would start, so nothing executes — no cycles, no
                # cache effects — and the shard stays occupied through
                # its outage window.
                self._crashed(unit, shard, doa, at=start)
                return []
        cycles_before = array.total_cycles if array is not None else 0

        # Attribute everything the unit records to its tenant's trace
        # namespace — per-tenant cycle accounting that works even in
        # aggregate-only retention mode.
        namespace = (
            array.trace.namespace(profile.tenant) if array is not None else nullcontext()
        )
        with namespace:
            result, reused = unit.run(shard, backend)

        # Functional backends have no cycle model and are charged nothing
        # (never host time: the simulated clock must not read the host's).
        batch_cycles = array.total_cycles - cycles_before if array is not None else 0
        duration = batch_cycles / array.config.clock_hz if array is not None else 0.0

        if self.faults is not None:
            # A slowdown stretches the timeline (results unchanged); a
            # crash striking inside the stretched window kills the
            # attempt: the result is discarded (a decode step ran on a
            # scratch copy, so dropping it IS the rollback), the partial
            # occupancy is charged as wasted work (the traced cycles
            # already stand), and the shard is held busy through its
            # outage.
            duration *= self.faults.slowdown_factor(shard, start)
            crash = self.faults.crash_within(shard, start, start + duration)
            if crash is not None:
                self._shard_busy[shard] = self._shard_busy.get(shard, 0.0) + (
                    crash.at - start
                )
                self._crashed(unit, shard, crash, at=crash.at)
                return []

        finish = start + duration
        self.dispatcher.busy_until[shard] = finish
        self._shard_busy[shard] = self._shard_busy.get(shard, 0.0) + duration
        self._health_of(shard).record_success(finish)
        # The shard's drift EWMA learns from full executions only: a
        # prefix hit's suffix-only timing would read as phantom speedup
        # against full-cost estimates (the calibrator excludes hits for
        # the same reason).
        estimate = None
        if self.elastic.enabled and array is not None and not reused:
            estimate = profile.service_seconds(array.config, array.config.clock_hz)
        self._stats_of(shard).observe(batch_cycles, duration, estimate)
        placed = PlacementDecision(
            batch_index=unit.batch_index,
            model=profile.model,
            tenant=profile.tenant,
            batch_size=profile.batch_size,
            shard=shard,
            policy=self.placement.name,
            ready_time=ready,
            start=start,
            finish=finish,
            batch_cycles=batch_cycles,
            attempt=unit.attempt,
            recovered_from=unit.exclude_shard if unit.attempt > 0 else None,
        )
        self._events.append(placed)
        return unit.commit(placed, result, reused)

    def _log_prefix_event(
        self, placed: PlacementDecision, prefix_key: str, hit: bool, cycles_saved: int
    ) -> None:
        """One cache decision (prefix or radix) of a committed batch."""
        self._events.append(
            PrefixEvent(
                batch_index=placed.batch_index,
                model=placed.model,
                tenant=placed.tenant,
                shard=placed.shard,
                batch_size=placed.batch_size,
                prefix_key=prefix_key,
                hit=hit,
                cycles_saved=cycles_saved,
            )
        )

    def _batch_unit(
        self,
        batch: Batch,
        planned_shard: Optional[int] = None,
        profile: Optional[BatchProfile] = None,
        attempt: int = 0,
        exclude_shard: Optional[int] = None,
    ) -> _WorkUnit:
        """The work unit of a scheduler batch: a classifier batch or a
        generation prefill.  Both park and fail through the retry heap."""
        profile, run, commit, prefix_tokens = (
            self._prefill_payload(batch)
            if self._is_prefill(batch)
            else self._classify_payload(batch, profile)
        )
        return _WorkUnit(
            profile, batch.index, attempt, exclude_shard, run, commit,
            park=lambda wake: self._requeue(batch, wake, attempt, exclude_shard),
            fail=lambda shard, at: self._attempt_failed(batch, attempt, shard, at),
            planned_shard=planned_shard,
            prefix_tokens=prefix_tokens,
        )

    def _classify_payload(self, batch: Batch, profile: Optional[BatchProfile]):
        """Profile, run, commit and prefix tokens of a classifier batch:
        one stacked ``infer_fn`` call, or the prefix adapter's
        hit-or-cold pass."""
        endpoint = self._endpoints[batch.model]
        adapter = endpoint.prefix_adapter
        # A prefix-keyed profile from the look-ahead round is re-read: an
        # earlier batch of the round may have inserted the prompt since.
        if profile is None or profile.prefix_key is not None:
            profile = self._batch_profile(batch)
        use_prefix = profile.prefix_key is not None
        prefix_tokens = (
            adapter.prefix_tokens(batch.requests[0].inputs) if use_prefix else None
        )

        def run(shard, backend):
            if not (use_prefix or endpoint.batchable):
                return [
                    np.asarray(endpoint.infer_fn(r.inputs, backend))
                    for r in batch.requests
                ], False
            stack = None if use_prefix else self._stacks.get(batch.model)
            array = self.dispatcher.array_of(shard)
            if stack is not None and array is not None:
                return self._stacked(stack, endpoint, batch, backend, array), False
            stacked = np.stack([r.inputs for r in batch.requests])
            hit = False
            if not use_prefix:
                outputs = endpoint.infer_fn(stacked, backend)
            else:
                # One cache decision for the whole batch: the batcher
                # keys groups on the prompt digest, so every request
                # here shares the prompt.  Only the whole prompt counts.
                cache = self.prefix_cache
                cached_len, payload = cache.lookup(
                    shard, batch.tenant, batch.model, prefix_tokens
                )
                hit = cached_len == len(prefix_tokens)
                if hit:
                    outputs = adapter.infer_hit(stacked, payload, backend)
                else:
                    outputs, payload = adapter.infer_cold(stacked, backend)
                    cache.insert(
                        shard, batch.tenant, batch.model, prefix_tokens, payload
                    )
            outputs = self._check_batched(endpoint, outputs, batch.size)
            return list(outputs), hit

        def commit(placed, per_request, prefix_hit):
            array = self.dispatcher.array_of(placed.shard)
            if array is not None and placed.batch_cycles > 0 and not prefix_hit:
                # Feed the calibrating cost model: the next placement of
                # this (model, shape) estimates from traced ground truth.
                # Hit batches are excluded — their cycles reflect the
                # suffix-only execution, which would poison full-cost
                # estimates of the same (model, shape).
                self._calibrator.observe(
                    batch.model, batch.size, profile.sample_shape,
                    array.config, placed.batch_cycles,
                )
            if use_prefix:
                cycles_saved = (
                    int(adapter.saved_cycles(batch.size, array.config))
                    if prefix_hit and array is not None
                    else 0
                )
                self._log_prefix_event(
                    placed, batch.prefix_key, prefix_hit, cycles_saved
                )
            return [
                CompletedRequest(
                    request=req,
                    outputs=out,
                    shard=placed.shard,
                    batch_index=batch.index,
                    batch_size=batch.size,
                    start=placed.start,
                    finish=placed.finish,
                    batch_cycles=placed.batch_cycles,
                    attempts=placed.attempt + 1,
                )
                for req, out in zip(batch.requests, per_request)
            ]

        return profile, run, commit, prefix_tokens

    def _stacked(
        self, stack: _Stack, endpoint: ModelEndpoint, batch: Batch, backend, array
    ) -> List[np.ndarray]:
        """Output rows of a classifier batch: charged once per batch,
        computed once per stack.

        What the array is charged depends on operand shapes alone (the
        :meth:`~repro.nn.layers.Module.infer` contract) and each output
        row on its own request alone.  So the first batch of a shape
        executes under ``array.capture()``; every later one replays that
        tape and takes its rows from ``stack.rows``, filled — when one of
        them is missing — by one ``infer_fn`` call on this shard's own
        backend, ``array.detached()``, over the missing requests plus the
        next not-yet-computed ones of the same sample shape, up to
        :data:`STACK_ELEMENTS` input elements.  A row is used only where
        the same kind of backend computed it (``who``).
        """
        rows, ahead = stack.rows, stack.ahead
        for request in batch.requests:
            ahead.pop(request.request_id, None)
        sample = batch.requests[0].inputs
        who = (
            type(backend), type(array), array.config.fmt,
            getattr(backend, "granularity", None),
        )
        key = (batch.size, sample.shape, sample.dtype, array.config, who)
        tape = stack.tapes.get(key)
        if tape is None:
            members = list(batch.requests)
        else:
            array.replay(tape)
            members = [
                r for r in batch.requests if rows.get(r.request_id, (None,))[0] != who
            ]
            if members:
                room = STACK_ELEMENTS // max(sample.size, 1) - len(members)
                members += islice(
                    (
                        r for r in ahead.values()
                        if r.inputs.shape == sample.shape
                        and r.inputs.dtype == sample.dtype
                    ),
                    max(room, 0),
                )
        if members:
            with array.capture() if tape is None else array.detached() as captured:
                outputs = endpoint.infer_fn(
                    np.stack([r.inputs for r in members]), backend
                )
            outputs = self._check_batched(endpoint, outputs, len(members))
            if tape is None:
                stack.tapes[key] = captured
            for request, row in zip(members, outputs):
                ahead.pop(request.request_id, None)
                rows[request.request_id] = (who, row)
        return [rows.pop(r.request_id)[1] for r in batch.requests]

    def _forget(self, request: InferenceRequest) -> None:
        """A shed or failed request never executes: compute nothing for
        it, keep nothing computed for it."""
        stack = self._stacks.get(request.model)
        if stack is not None:
            stack.ahead.pop(request.request_id, None)
            stack.rows.pop(request.request_id, None)

    # ------------------------------------------------------------------
    # Generation: prefill batches and the continuous-batching decode pool
    # ------------------------------------------------------------------
    def _prefill_payload(self, batch: Batch):
        """Profile, run and commit of a generation batch's prompt pass
        (a prefill carries no classifier prefix tokens: the 4th is None).

        The adapter returns each member's first greedy token plus its
        K/V state, the radix cache (when configured) trims the prompts
        to their uncached suffix, and the surviving members enter
        :attr:`_active` for iteration-level decode instead of
        completing.

        Members share a prompt *length*, not a prompt.  The radix cache
        is read and fed once per distinct member prompt; the pass starts
        from the shortest cached prefix among them (one miss makes it
        cold), because one stacked suffix needs one suffix length.
        """
        adapter = self._endpoints[batch.model].generation_adapter
        prompts = np.stack([r.inputs for r in batch.requests])
        prompt_len = int(prompts.shape[1])
        use_radix = self.radix_cache is not None
        resident: "tuple[int, ...]" = ()
        if use_radix:
            # leader[j] is the first member holding member j's prompt.
            first_of: Dict[tuple, int] = {}
            leader = [
                first_of.setdefault(tuple(row), j)
                for j, row in enumerate(prompts.tolist())
            ]
            distinct = list(first_of.values())
            holders = (
                self.radix_cache.resident_shards(
                    batch.tenant, batch.model, prompts[j]
                )
                for j in distinct
            )
            resident = tuple(sorted(set().union(*holders)))
        profile = self._profile(
            batch.model, batch.tenant, batch.size, (prompt_len,), batch.ready_time,
            batch.prefix_key if use_radix else None, resident,
        )

        def run(shard, backend):
            cached_len, cached = 0, None
            if use_radix:
                # Cap the usable prefix one short of the prompt: at
                # least one suffix row must execute to produce the
                # next-token logits.
                found = {
                    j: self.radix_cache.lookup(
                        shard, batch.tenant, batch.model, prompts[j],
                        max_len=prompt_len - 1,
                    )
                    for j in distinct
                }
                cached_len = min(length for length, _ in found.values())
                if cached_len > 0:
                    cached = [found[j][1] for j in leader]
            first_tokens, state = adapter.prefill(prompts, backend, cached=cached)
            return (first_tokens, state, cached_len), cached_len > 0

        def commit(placed, result, reused):
            first_tokens, state, cached_len = result
            shard, finish = placed.shard, placed.finish
            if use_radix:
                # Donate every distinct prompt's rows back (incremental
                # capture: a future prompt extending one of them
                # prefills only its new suffix).
                for j in distinct:
                    self.radix_cache.insert(
                        shard, batch.tenant, batch.model, prompts[j],
                        state.prefix(prompt_len, j),
                    )
                array = self.dispatcher.array_of(shard)
                cycles_saved = 0
                if reused and array is not None:
                    cycles_saved = int(
                        adapter.prefill_cycles(batch.size, prompt_len, 0, array.config)
                        - adapter.prefill_cycles(
                            batch.size, prompt_len, cached_len, array.config
                        )
                    )
                self._log_prefix_event(placed, batch.prefix_key, reused, cycles_saved)
            completed: List[CompletedRequest] = []
            states = state.split()
            for j, request in enumerate(batch.requests):
                seq = ActiveSequence(
                    request=request,
                    state=states[j],
                    generated=[int(first_tokens[j])],
                    ready_time=finish,
                    first_start=placed.start,
                    batch_cycles=placed.batch_cycles,
                    attempts=placed.attempt + 1,
                    last_shard=shard,
                    last_batch_index=batch.index,
                    last_batch_size=batch.size,
                )
                if seq.finished:
                    completed.append(self._retire(seq, finish))
                else:
                    self._active.append(seq)
            return completed

        return profile, run, commit, None

    def _decode_unit(self) -> _WorkUnit:
        """The work unit of one decode iteration: re-form, step, retire.

        The batch is rebuilt from the live pool every iteration — the
        earliest-ready sequence leads, and every compatible sequence
        (same model, tenant and position; decode batches never mix
        tenants or models) joins up to the engine's batch-size cap.
        The iteration starts once every member is ready, so sequences
        whose prefills finished at different instants merge instead of
        decoding in isolated lockstep groups.  Prompts MAY differ
        across members — that is what continuous batching buys.

        The step itself runs on a stacked *copy* of the member caches
        (see :meth:`~repro.serving.generation.GenerationAdapter.decode`),
        so a fault-injected attempt discards cleanly: member state is
        only extended by the commit, after the attempt survived every
        fault check.  A park or a failed attempt is absorbed in place —
        members stay pooled with a new ``ready_time``.
        """
        lead = min(
            self._active, key=lambda s: (s.ready_time, s.request.request_id)
        )
        group = [
            seq
            for seq in self._active
            if seq.request.model == lead.request.model
            and seq.request.tenant == lead.request.tenant
            and seq.position == lead.position
        ]
        group.sort(key=lambda s: (s.ready_time, s.request.request_id))
        group = group[: self.scheduler.assembler.max_batch_size]
        batch_index = self.scheduler.next_batch_index()
        adapter = self._endpoints[lead.request.model].generation_adapter
        size = len(group)
        position = lead.position
        profile = BatchProfile(
            model=lead.request.model,
            tenant=lead.request.tenant,
            batch_size=size,
            sample_shape=(position,),
            ready_time=max(seq.ready_time for seq in group),
            estimator=lambda p, config: adapter.decode_cycles(
                p.batch_size, position, config
            ),
        )

        def run(shard, backend):
            tokens = np.array([seq.generated[-1] for seq in group], dtype=np.int64)
            return adapter.decode([seq.state for seq in group], tokens, backend), False

        def commit(placed, result, reused):
            next_tokens, step_kv = result
            self._events.append(
                DecodeStepRecord(
                    step_index=batch_index,
                    model=placed.model,
                    tenant=placed.tenant,
                    shard=placed.shard,
                    batch_size=size,
                    position=position,
                    cycles=placed.batch_cycles,
                    start=placed.start,
                    finish=placed.finish,
                    attempt=placed.attempt,
                )
            )
            completed: List[CompletedRequest] = []
            for j, seq in enumerate(group):
                for layer in range(seq.state.n_layers):
                    seq.state.extend(
                        layer, step_kv[layer][0][j : j + 1], step_kv[layer][1][j : j + 1]
                    )
                seq.generated.append(int(next_tokens[j]))
                seq.ready_time = placed.finish
                seq.attempt = 0
                seq.exclude_shard = None
                seq.batch_cycles += placed.batch_cycles
                seq.last_shard = placed.shard
                seq.last_batch_index = batch_index
                seq.last_batch_size = size
                if seq.finished:
                    self._active.remove(seq)
                    completed.append(self._retire(seq, placed.finish))
            return completed

        def park(wake):
            # Members stay pooled and wake when the earliest breaker
            # re-admits a probe; no retry consumed.
            for seq in group:
                seq.ready_time = wake

        return _WorkUnit(
            profile,
            batch_index,
            attempt=min(seq.attempt for seq in group),
            exclude_shard=next(
                (s.exclude_shard for s in group if s.exclude_shard is not None), None
            ),
            run=run,
            commit=commit,
            park=park,
            fail=lambda shard, at: self._decode_attempt_failed(group, shard, at),
        )

    def _retire(self, seq: ActiveSequence, finish: float) -> CompletedRequest:
        """Turn a finished sequence into its completion record.

        A retiring sequence donates its whole history — prompt plus all
        generated tokens but the last, exactly the ``state.pos`` K/V
        rows it holds — to the radix cache, so a follow-up request that
        replays the transcript prefills only its new suffix.
        """
        if self.radix_cache is not None:
            history = np.concatenate(
                [
                    np.asarray(seq.request.inputs, dtype=np.int64),
                    np.asarray(seq.generated[:-1], dtype=np.int64),
                ]
            )
            self.radix_cache.insert(
                seq.last_shard,
                seq.request.tenant,
                seq.request.model,
                history,
                seq.state.prefix(seq.state.pos),
            )
        return CompletedRequest(
            request=seq.request,
            outputs=np.asarray(seq.generated, dtype=np.int64),
            shard=seq.last_shard,
            batch_index=seq.last_batch_index,
            batch_size=seq.last_batch_size,
            start=seq.first_start,
            finish=finish,
            batch_cycles=seq.batch_cycles,
            attempts=seq.attempts,
        )

    def _decode_attempt_failed(
        self, group: List[ActiveSequence], shard: int, at: float
    ) -> int:
        """Absorb a failed decode iteration in place; returns survivors.

        The per-sequence analogue of :meth:`_attempt_failed`: each
        member keeps its own attempt counter (reset by every successful
        step), so a freshly joined sequence is not charged for retries
        an older member already burned.  Members over budget or whose
        backoff wake would overshoot their effective deadline leave the
        pool as :class:`FailureRecord` entries; survivors stay pooled
        with a bumped attempt, a backoff wake time and the failed shard
        excluded from their next placement.
        """
        survivors = 0
        for seq in group:
            seq.attempts += 1
            wake = self._retry_wake(seq.request, seq.attempt, at, shard, seq.attempts)
            if wake is None:
                self._active.remove(seq)
                continue
            seq.attempt += 1
            seq.ready_time = wake
            seq.exclude_shard = shard
            survivors += 1
        return survivors

    # ------------------------------------------------------------------
    # Fault handling: failure accounting, retry queue, deadlines
    # ------------------------------------------------------------------
    def _crashed(
        self, unit: _WorkUnit, shard: int, crash: ShardCrash, at: float
    ) -> None:
        """One attempt died on ``shard`` at simulated ``at``.

        Holds the crashed shard's horizon through its outage window (so
        every subsequent placement sees it occupied until recovery),
        feeds the shard's breaker, lets the unit absorb the failure —
        abandon or re-schedule its requests — and logs the outcome.
        """
        self.dispatcher.busy_until[shard] = max(
            self.dispatcher.busy_until.get(shard, 0.0), crash.until
        )
        self._health_of(shard).record_failure(at)
        survivors = unit.fail(shard, at)
        self._events.append(
            FaultRecord(
                kind="crash",
                shard=shard,
                batch_index=unit.batch_index,
                at=at,
                attempt=unit.attempt,
                action="retry" if survivors else "abandon",
                requests=survivors if survivors else unit.profile.batch_size,
            )
        )

    def _attempt_failed(self, batch: Batch, attempt: int, shard: int, at: float) -> int:
        """Absorb a failed batch attempt via the retry heap.

        Abandon when the retry budget is spent, shed the requests whose
        effective deadline precedes the backoff wake time (a doomed
        retry is dropped, not looped), and re-queue the survivors as a
        new attempt that will re-place on the remaining healthy shards.
        Returns the survivor count.
        """
        survivors = [
            request
            for request in batch.requests
            if self._retry_wake(request, attempt, at, shard, attempt + 1) is not None
        ]
        if survivors:
            self._requeue(
                replace(batch, requests=tuple(survivors)),
                at + self.retry_policy.backoff(attempt), attempt + 1, shard,
            )
        return len(survivors)

    def _retry_wake(
        self, request: InferenceRequest, attempt: int, at: float, shard: int,
        attempts: int,
    ) -> Optional[float]:
        """Backoff wake time of ``request``'s next attempt — or None,
        after recording it failed: retry budget spent, or the wake
        would overshoot its effective deadline."""
        if attempt >= self.retry_policy.max_retries:
            reason = "max_retries"
        else:
            wake = at + self.retry_policy.backoff(attempt)
            due = effective_deadline(request, self.tenants)
            if due is None or wake <= due:
                return wake
            reason = "retry_deadline"
        self._forget(request)
        self._events.append(
            FailureRecord(
                request=request, reason=reason, at=at, shard=shard, attempts=attempts
            )
        )
        return None

    def _requeue(
        self, batch: Batch, wake: float, attempt: int, exclude_shard: Optional[int]
    ) -> None:
        """Queue ``batch`` to re-execute at simulated time ``wake``."""
        if batch.ready_time != wake:
            batch = replace(batch, ready_time=wake)
        heapq.heappush(
            self._retry_queue,
            (wake, self._retry_seq, attempt, exclude_shard, batch),
        )
        self._retry_seq += 1
