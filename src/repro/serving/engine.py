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
the scheduler loop inside :meth:`run` interleaves admission with batch
execution, so new requests — buffered before the run or submitted by
callbacks while a batch is in flight — join their tenant queues without
waiting for a drain.  The loop is discrete-event over simulated arrival
time, so a request stream always reproduces the same batches,
placements and report.

**One agenda, one execution pipeline.**  Work reaches the loop from
three sources, each owning its state in its own module —
:class:`~repro.serving.generation.DecodePool`,
:class:`~repro.serving.elastic.ElasticController` (the planned round)
and :class:`~repro.serving.scheduler.TenantScheduler` — held in one
tuple in tie-break order and asked the same two things
(``next_ready()``, ``pop(ready)``).  The
:class:`~repro.serving.cluster.WorkUnit` popped — a classifier batch, a
generation prefill or a decode iteration — runs through one place →
run → commit skeleton (``InferenceEngine._execute``); a kind supplies
only its profile, its payload and its commit hook.

**Charged once per unit, computed once per stack.**  What a unit is
*charged* (traced cycles) depends on operand shapes; what it *computes*
depends on each request's inputs alone.  For an endpoint registered as a
batchable :class:`~repro.nn.layers.Module` every unit therefore goes
through the same two helpers (:class:`_Stack`): it replays its shape's
trace tape, and takes its rows from one stacked host pass shared with
later units — output rows for a classifier batch, whole *transcripts*
(greedy tokens plus K/V rows, from one lockstep prefill + decode loop)
for a prefill and the decode iterations after it.  In a
:meth:`InferenceEngine.run` given a spare CPU (:func:`_spare_cpu`), a
forked helper computes the classifier stacks after the first meanwhile.
An ``infer_fn=`` callable, a prefix-keyed batch, an array-less shard and
generation on a pool whose shards do not all compute alike execute per
unit; reports are bit-identical either way.

Batched execution is bit-identical to running every request alone:
stacking adds rows to the GEMMs and elementwise stages, and every
output element is still produced by the same saturating fixed-point
dot product — the equivalence the test suite asserts per backend.
Tenancy never changes results either: it only partitions batches and
orders them, which the same tests pin down.

**Memory contract.**  A serving process is long-lived.  A shard's
trace keeps no per-event log, only O(1) streaming aggregates (see
:class:`~repro.systolic.trace.Trace`), which per-request cycle
accounting reads, so shard memory stays constant over arbitrarily long
request streams.  Per-tenant attribution costs O(tenants x labels),
not O(events): each batch executes inside its tenant's trace
namespace.  Request outputs are handed over exactly once by
:meth:`InferenceEngine.result` and released.

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

import math
import os
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import islice
from multiprocessing import active_children, parent_process
from operator import attrgetter
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Tuple, Union,
)

import numpy as np

from repro.core.nonlinear_ops import credit, evaluated
from repro.nn.layers import Module
from repro.serving.batcher import Batch
from repro.serving.cluster import (
    BatchProfile,
    CalibratingCostModel,
    ClusterDispatcher,
    PlacementDecision,
    PlacementPolicy,
    PrefixAffinePlacement,
    ShardView,
    WorkUnit,
    make_placement_policy,
)
from repro.serving.elastic import ElasticController
from repro.serving.generation import ActiveSequence, DecodePool
from repro.serving.prefix_cache import PrefixEvent, RadixKVCache
from repro.serving.report import ServingReport
from repro.serving.request import (
    CompletedRequest,
    InferenceRequest,
    ShedRecord,
    describe_request,
    generation_of,
    optional_int,
)
from repro.serving.scheduler import SchedulingPolicy, TenantScheduler
from repro.serving.stats import ShardStats
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    TenantConfig,
    TenantRegistry,
    effective_deadline,
)


#: Most input elements one stacked host pass holds (512 requests of 8
#: tokens).  A seq-8 TinyBERT ``infer`` costs 135 / 27 / 19 / 14.5 / 13.4 /
#: 13.2 us per request at 8 / 64 / 128 / 256 / 512 / 1,024 requests; on a
#: bursty replay 2x this was 1-5% faster for +3 MB of peak RSS and 8x it
#: slower for +18 MB.  A large model gains nothing past its batch.
STACK_ELEMENTS = 4096

#: Seconds after which a silent stack helper is stuck (a stack takes ms).
HELPER_SILENCE_S = 60.0
#: A process's cgroup CPU quota and period: v2, else v1 ("max", -1: none).
CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _kind(request: InferenceRequest) -> tuple:
    """Requests of one kind stack into one host pass."""
    inputs = request.inputs
    return inputs.shape, inputs.dtype, request.generation is None


def _spare_cpu() -> bool:
    """Whether a stack helper gets a CPU of its own: this process is no
    forked worker (whose siblings may fill the CPUs), has no live child,
    and its affinity and cgroup CPU quota both allow two CPUs."""
    cpus = len(getattr(os, "sched_getaffinity", lambda _: ())(0))
    for paths in CPU_QUOTA_FILES:
        with suppress(OSError, ValueError):
            quota, period = " ".join(Path(path).read_text() for path in paths).split()
            if quota not in ("max", "-1"):
                cpus = min(cpus, int(quota) / int(period))
            break
    return cpus >= 2 and parent_process() is None and not active_children()


def _who(backend, array) -> tuple:
    """What decides the values a shard computes (its design point's
    geometry and clock decide only what it is charged)."""
    return (
        type(backend), type(array), array.config.fmt,
        getattr(backend, "granularity", None),
    )


class _Stack:
    """Compute-once state of one endpoint: every unit of it — classifier
    batch, prefill, decode iteration — is *charged* through
    :meth:`charge` and *filled* through :meth:`take` (:meth:`once`).

    ``tapes`` lives until the name is registered again, which *rebinds*
    it to a new mapping and never empties the old one, which may be the
    deployment description's memo
    (:meth:`InferenceEngine.share_tapes`): filled here, owned there, it
    outlives the engine.  The rest, its helper process included, lives
    for one :meth:`InferenceEngine.run`.
    """

    def __init__(self) -> None:
        #: (unit shape ..., array config, who) -> what such a unit is charged.
        self.tapes: Dict[tuple, list] = {}
        #: This run's requests nothing has computed yet, in arrival order.
        self.ahead: Dict[int, InferenceRequest] = {}
        #: request id -> (who computed it, its row): a classifier's output
        #: row until its batch runs, a generation request's transcript
        #: until it retires.
        self.rows: Dict[int, Tuple[tuple, object]] = {}
        #: This run's helper (process, pipe, who, backend), what it owes by id.
        self.helper, self.owed = None, {}

    def once(
        self, requests, key: tuple, who: tuple, backend,
        execute: Callable, compute: Callable, read: Callable = list,
    ):
        """What ``execute()`` returns for the unit of ``requests`` — charged
        once per unit, computed once per stack.

        ``key`` is the unit's shape, ``compute(members)`` gives the rows
        of any requests of one kind and ``read(rows)`` turns the unit's
        own into its result.  A unit whose rows are at hand is charged by
        replaying its shape's tape and computes nothing; any other —
        the first of its shape, or one with nobody to share a stack with
        — executes, exactly as it would without all this.
        """
        for request in requests:
            # Its own unit runs now: it is nobody's look-ahead any more.
            self.ahead.pop(request.request_id, None)
        rows = self.take(requests, who, backend, compute) if key in self.tapes else None
        if rows is None:
            return self.charge(key, backend.array, execute)
        self.charge(key, backend.array)
        return read(rows)

    def charge(self, key: tuple, array, execute: Optional[Callable] = None):
        """Charge ``array`` one unit of shape ``key``: by executing it
        (``execute()``'s result is returned), else by replaying the
        shape's tape.

        What a unit is charged depends on operand shapes alone (the
        :meth:`~repro.nn.layers.Module.infer` contract), so the first
        execution of a shape runs under ``array.capture()`` and its tape
        is what every replay charges.
        """
        tape = self.tapes.get(key)
        if execute is None:
            return array.replay(tape)
        if tape is not None:
            return execute()
        with array.capture() as tape:
            result = execute()
        self.tapes[key] = tape
        return result

    def take(
        self, requests, who: tuple, backend, compute: Callable
    ) -> Optional[list]:
        """The rows of ``requests``, each computed at most once.

        A row depends on its own request alone, so what ``rows`` lacks is
        filled by one ``compute(members)`` call per kind of request, on
        this shard's own backend with its array ``detached()``, over the
        missing requests plus the next not-yet-computed ones of their
        kind, up to :data:`STACK_ELEMENTS` input elements.  A row is used
        only where the same kind of backend computed it (``who``).  None
        when a row is missing and nobody ahead shares the pass: a stack
        of one unit saves nothing over executing the unit (a lockstep
        pass makes as many model calls as the units it spans — more,
        when decode groups merge).  The first classifier stack leaving
        more of its kind ahead forks a helper for those, given a spare
        CPU (:func:`_spare_cpu`, :func:`_helper`): a row it owes is read
        off its pipe, one it never sends is computed as above.
        """
        rows, missing = self.rows, {}
        for request in requests:
            while request.request_id in self.owed and self._receive():
                pass
            self.ahead.pop(request.request_id, None)  # put back if it died
            if rows.get(request.request_id, (None,))[0] != who:
                missing.setdefault(_kind(request), []).append(request)
        for kind, members in missing.items():
            room = STACK_ELEMENTS // max(members[0].inputs.size, 1) - len(members)
            ahead = list(
                islice(
                    (r for r in self.ahead.values() if _kind(r) == kind), max(room, 0)
                )
            )
            if not ahead:
                return None
            members += ahead
            with backend.array.detached():
                computed = compute(members)
            for request, row in zip(members, computed):
                self.ahead.pop(request.request_id, None)
                rows[request.request_id] = (who, row)
            if kind[2] and self.helper is None:  # a classifier's, none forked yet
                self._fork(kind, who, backend, compute)
        return [rows[request.request_id][1] for request in requests]

    def _fork(self, kind: tuple, who: tuple, backend, compute: Callable) -> None:
        """Hand the rest of ``kind``'s look-ahead to a helper forked now (the
        parameters it reads are cached) if it gets a CPU of its own."""
        rest = [r for r in self.ahead.values() if _kind(r) == kind]
        if rest and _spare_cpu():
            from repro.serving.deploy import start_child  # deploy imports us
            self.helper = (*start_child(_helper, (rest, backend, compute)), who, backend)
            self.owed = {r.request_id: self.ahead.pop(r.request_id) for r in rest}

    def _receive(self) -> bool:
        """Take the helper's next stack of rows and counts; once it has sent
        all, died or stayed silent :data:`HELPER_SILENCE_S` (it is killed),
        reap it and make what it owes look-ahead again: False."""
        process, pipe, who, backend = self.helper
        try:
            if not pipe.poll(HELPER_SILENCE_S):
                process.kill()
            ids, stacked, counts = pipe.recv()
        except (EOFError, OSError):
            pipe.close()
            process.join()
            self.ahead.update(self.owed)
            self.owed.clear()
            return False
        backend.param_cache.hits += counts.pop("hits")
        backend.param_cache.misses += counts.pop("misses")
        credit(counts)
        for request_id, row in zip(ids, stacked):
            if self.owed.pop(request_id, None) is not None:
                self.rows[request_id] = who, row
        return True


def _helper(requests: list, backend, compute: Callable, pipe) -> None:
    """Body of a forked helper: per :data:`STACK_ELEMENTS` stack of
    ``requests``, send their ids, rows (one array) and cache-count gains.
    A failure ends it silently: the parent computes, or raises, instead."""
    cache = backend.param_cache
    counts = lambda: {"hits": cache.hits, "misses": cache.misses, **evaluated()}
    per = STACK_ELEMENTS // max(requests[0].inputs.size, 1)
    try:
        with backend.array.detached():
            for start in range(0, len(requests), per):
                members, before = requests[start:start + per], counts()
                stacked = np.stack(compute(members))
                added = {key: n - before.get(key, 0) for key, n in counts().items()}
                pipe.send(([r.request_id for r in members], stacked, added))
    except Exception:
        pass


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
    it is only consulted when the engine carries a ``radix_cache``.

    ``generation_adapter`` opts the endpoint into autoregressive
    decode (see :class:`~repro.serving.generation.GenerationAdapter`):
    its requests arrive via
    :meth:`InferenceEngine.submit_generation`, prefill through the
    normal batch pipeline, then join the engine's continuous-batching
    decode pool.

    ``stack`` is the endpoint's compute-once state — set by the engine
    for exactly the endpoints registered as a batchable
    :class:`~repro.nn.layers.Module`, whose units replay a tape and
    share stacked host passes; None for every other endpoint.
    """

    name: str
    infer_fn: Callable[[np.ndarray, object], np.ndarray]
    batchable: bool = True
    cost_model: Optional[Callable[[BatchProfile, object], float]] = None
    prefix_adapter: Optional[object] = None
    generation_adapter: Optional[object] = None
    stack: Optional[_Stack] = None


_ARRIVAL_ORDER = attrgetter("arrival", "request_id")


class _ArrivalFeed:
    """Requests on their way to admission, earliest ``(arrival, id)`` first.

    ``fresh`` is what ``submit`` / ``enqueue`` buffered since the feed
    was last asked — before the run or while a batch was in flight;
    asking sorts it in, so a whole enqueued list costs one sort and no
    per-request heap operation.  Only :meth:`InferenceEngine.run` asks,
    and it clears the stacks after, so each request sorted in joins its
    endpoint's stack look-ahead.
    """

    def __init__(self, engine: "InferenceEngine") -> None:
        self._engine = engine
        self.fresh: List[InferenceRequest] = []
        self._due: List[InferenceRequest] = []  # latest first: pop() is O(1)

    def next_arrival(self) -> Optional[float]:
        """Arrival of the request :meth:`pop` would return, or None."""
        if self.fresh:
            fresh = sorted(self.fresh, key=_ARRIVAL_ORDER)
            self.fresh.clear()
            for request in fresh:
                stack = self._engine._endpoints[request.model].stack
                # A prefix-keyed classifier batch executes through its
                # adapter; a generation request's key is its prompt length.
                if stack is not None and (
                    request.prefix_key is None or request.generation is not None
                ):
                    stack.ahead[request.request_id] = request
            self._due += fresh
            self._due.sort(key=_ARRIVAL_ORDER, reverse=True)
        return self._due[-1].arrival if self._due else None

    def pop(self) -> InferenceRequest:
        """The request :meth:`next_arrival` announced."""
        return self._due.pop()


class InferenceEngine:
    """Admission queue + tenant scheduler + sharded dispatch.

    Parameters
    ----------
    dispatcher:
        The shard pool batches execute on.
    max_batch_size, flush_timeout:
        Batch-assembly knobs, applied per (tenant, model, prefix,
        shape) group (see
        :class:`~repro.serving.batcher.BatchAssembler`).
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
    radix_cache:
        Optional :class:`~repro.serving.prefix_cache.RadixKVCache`, the
        engine's one K/V cache, under one per-shard budget for both
        kinds of client.  A classifier endpoint registered with a
        ``prefix_adapter`` computes only its suffix rows when the whole
        prompt is cached.  A generation prefill whose prompt extends a
        cached token sequence recomputes only the new suffix, and
        retiring sequences donate their decode history back to the
        tree.  The configured placement policy is then wrapped in
        :class:`~repro.serving.cluster.PrefixAffinePlacement`, so units
        whose prompt is already resident prefer the holding shard;
        prefix-less traffic is placed exactly as before.
    steal:
        Re-price a look-ahead-planned batch when it reaches the head of
        the queue and migrate it off a drifted shard (see
        :mod:`repro.serving.elastic`; look-ahead rounds are switched by
        ``placement="lookahead"``).  Off by default, which is
        regression-pinned bit-identical to the pre-elastic engine.  The
        pool itself is fixed at construction: no shard joins or leaves
        while the engine serves.
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
        policy: Union[str, SchedulingPolicy] = "weighted_round_robin",
        placement: Union[str, PlacementPolicy] = "round_robin",
        tenants: Optional[Iterable[TenantConfig]] = None,
        radix_cache: Optional[RadixKVCache] = None,
        steal: bool = False,
        recorder: Optional[object] = None,
    ):
        self.dispatcher = dispatcher
        self.tenants = TenantRegistry()
        for config in tenants or ():
            self.tenants.register(config)
        self.placement = make_placement_policy(placement)
        self.radix_cache = radix_cache
        if radix_cache is not None and not isinstance(
            self.placement, PrefixAffinePlacement
        ):
            self.placement = PrefixAffinePlacement(self.placement)
        self._endpoints: Dict[str, ModelEndpoint] = {}
        self._arrivals = _ArrivalFeed(self)
        self._results: Dict[int, np.ndarray] = {}
        self._next_id = 0
        self._last_arrival = 0.0
        self._calibrator = CalibratingCostModel()
        # The per-run event log: every placement, shed, prefix, decode-step
        # and steal record, in the order the engine decides them (see
        # ServingReport.events).
        self._events: List[object] = []
        self._shard_busy: Dict[int, float] = {}
        # The agenda: every producer of work, in tie-break order — decode
        # iterations beat fresh batches, and a batch a look-ahead round
        # already planned (older) beats the scheduler.  Each owns its
        # state and is handed here all it uses of the engine; the profile
        # lambda resolves its method per call, so one wrapped on the
        # instance (tests/test_placement_pricing.py) is the one that runs.
        log = self._events.append
        self._controller = ElasticController(
            steal, self.placement, log, radix_cache,
            views=dispatcher.shard_views,
            profile_of=lambda batch: (
                None if self._is_prefill(batch) else self._batch_profile(batch)
            ),
            unit_of=self._batch_unit,
        )
        self.scheduler = TenantScheduler(
            self.tenants, policy, max_batch_size, flush_timeout,
            fresh=self._controller.fresh,
        )
        self._decode_pool = DecodePool(
            self.scheduler,
            lambda model: self._endpoints[model].generation_adapter,
            lambda model, shard, backend: self._compute_once(
                self._endpoints[model], shard, backend, lockstep=True
            ),
            self._forget, radix_cache, log,
        )
        self._sources = (self._decode_pool, self._controller, self.scheduler)
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
        computed in stacks (:class:`_Stack`), generation included; an
        ``infer_fn`` is called once per batch, and its
        ``generation_adapter`` once per prefill and decode step, always.
        ``cost_model`` optionally supplies
        closed-form batch-cycle estimates for cost-aware placement (see
        :func:`~repro.serving.cluster.workload_cost_model`); without
        one, estimates come from the engine's calibrating model once
        the (model, shape) has executed somewhere.  ``prefix_adapter``
        (see
        :class:`~repro.serving.prefix_cache.TransformerPrefixAdapter`)
        opts the endpoint into KV-prefix reuse; it takes effect when
        the engine was constructed with a ``radix_cache`` and requires
        a batchable endpoint (the adapter runs the stacked batch
        itself).

        ``generation_adapter`` (see
        :class:`~repro.serving.generation.GenerationAdapter`) opts the
        endpoint into autoregressive decode via
        :meth:`submit_generation`.  It is mutually exclusive with
        ``prefix_adapter`` (a generation prefill reads and feeds the
        engine's ``radix_cache`` without one), supplies the endpoint's cost
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
        # A name registered again starts from nothing: no tape, no row (and
        # a mapping lent to the old registration is left as it is).
        stack = None
        if infer_fn is None:
            infer_fn = model.infer  # type: ignore[union-attr]
            if batchable and isinstance(model, Module):
                stack = _Stack()
        self._endpoints[name] = ModelEndpoint(
            name, infer_fn, batchable, cost_model, prefix_adapter,
            generation_adapter, stack,
        )

    def share_tapes(self, name: str, tapes: Dict[tuple, list]) -> None:
        """Charge endpoint ``name`` from ``tapes`` — a mapping the caller
        owns and may lend to every engine serving the same model.

        What a unit is charged depends on its shape, the design point and
        the kind of backend (the key) and on the model's structure; a
        caller that knows two engines were built from one description
        (:func:`~repro.serving.deploy.assemble_engine`, from one
        :class:`~repro.serving.deploy.EndpointSpec`) lends both the same
        mapping, and a shape either has executed is replayed by the other
        from its first unit.  The engine fills the mapping and never
        empties it: registering the name again goes back to a private
        one.  No effect on an endpoint that executes per unit
        (``infer_fn=``, not a ``Module``).
        """
        stack = self._endpoints[name].stack
        if stack is not None:
            stack.tapes = tapes

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

        Submission is pure admission: it can be called before a run or
        from code executing while a batch is in flight; the scheduler
        loop picks the request up at its next decision point.
        """
        request = self._make_request(model, inputs, arrival, tenant, priority, deadline)
        self._accept([request])
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
        self._accept([request])
        return request.request_id

    def enqueue(self, requests: Iterable) -> List[int]:
        """Queue a list of requests given as data; returns their ids.

        Each item is a :class:`~repro.serving.request.TracedRequest` or
        a mapping of its field names — a trace's rows, a recorder's
        capture or ``to_dict()`` rows from JSON, generation included.
        A replay hands over its traffic whole here;
        an item that fails validation raises and leaves the engine as it
        was: none of the list is queued, recorded or given an id.
        """
        made: List[InferenceRequest] = []
        for item in map(describe_request, requests):
            made.append(self._make_request(
                item.model, item.inputs_array(), item.arrival, item.tenant,
                item.priority, item.deadline, item.max_new_tokens,
                item.stop_token, after=made[-1] if made else None,
            ))
        self._accept(made)
        return [request.request_id for request in made]

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
        after: Optional[InferenceRequest] = None,
    ) -> InferenceRequest:
        """Validate and build one request — every front door ends here.

        Touches no engine state: the id and the default arrival follow
        ``after`` (a request built earlier in the same list, not yet
        accepted) or else the engine's last accepted request.
        """
        generation = generation_of(inputs, max_new_tokens, stop_token)
        priority = optional_int("priority", priority)
        if model not in self._endpoints:
            raise KeyError(
                f"unknown model {model!r}; registered: {sorted(self._endpoints)}"
            )
        if not tenant:  # TenantConfig's rule, before run() meets it
            raise ValueError("tenant_id must be a non-empty string")
        values = np.asarray(inputs)
        if values.dtype.kind in "fc" and np.isnan(values).any():
            raise ValueError(f"inputs for {model!r} contain NaN")
        if arrival is None:
            arrival = self._last_arrival if after is None else after.arrival
        arrival = float(arrival)
        if not (math.isfinite(arrival) and arrival >= 0):
            raise ValueError(f"arrival must be finite and >= 0, got {arrival}")
        if deadline is not None:
            deadline = float(deadline)
            if math.isnan(deadline):
                raise ValueError("deadline must not be NaN")
        endpoint = self._endpoints[model]
        prefix_key = None
        if generation is not None:
            # Generation requests carry a prompt-*length* key: batch
            # assembly groups on it, so one prefill stacks distinct
            # same-shape prompts (all np.stack needs) into one array
            # pass.
            adapter = endpoint.generation_adapter
            if adapter is None:
                raise ValueError(
                    f"model {model!r} was registered without a "
                    "generation_adapter; a generation request needs one"
                )
            # The prompt as offered: its int64 copy would pass a float row.
            adapter.validate(values, generation.max_new_tokens, generation.stop_token)
            inputs = generation.prompt
            prefix_key = adapter.batch_key(inputs)
        elif self.radix_cache is not None and endpoint.prefix_adapter is not None:
            # Key the request on its prompt content at admission: batch
            # assembly groups on it, so one batch is one prompt and the
            # cache decision at execution applies to the whole batch.
            # May raise on malformed inputs.
            prefix_key = endpoint.prefix_adapter.request_key(inputs)
        return InferenceRequest(
            request_id=self._next_id if after is None else after.request_id + 1,
            model=model,
            inputs=np.asarray(inputs),
            arrival=arrival,
            tenant=tenant,
            priority=priority,
            deadline=deadline,
            prefix_key=prefix_key,
            generation=generation,
        )

    def _accept(self, made: List[InferenceRequest]) -> None:
        """Queue requests :meth:`_make_request` built.  Ids, the default
        arrival and the recorder move only here, once a whole front-door
        call has validated, so one that raises leaves the engine as it
        was."""
        if not made:
            return
        self._next_id = made[-1].request_id + 1
        self._last_arrival = made[-1].arrival
        # Capture before admission control: a recorder sees every
        # request offered (a replay must offer one shed later again).
        if self.recorder is not None:
            for request in made:
                self.recorder.record(request)
        self._arrivals.fresh += made

    # ------------------------------------------------------------------
    # Execution: the scheduler loop
    # ------------------------------------------------------------------
    def run(self) -> ServingReport:
        """Serve until every queue is drained, then report.

        The discrete-event scheduler loop alternates admission and
        execution: at each step it either admits the next buffered
        request whose arrival precedes the earliest ready batch, or pops
        the policy-selected ready batch and executes it — so requests
        that arrive while an earlier batch occupies a shard are batched
        and scheduled normally instead of waiting for the next drain.
        Traffic comes in through :meth:`submit`,
        :meth:`submit_generation` and :meth:`enqueue`, before the run or
        from code executing while a batch is in flight.

        Returns the serving report for the requests processed by *this*
        call; their outputs become available via :meth:`result`.
        """
        wall_start = time.perf_counter()
        cycles_before = self.dispatcher.shard_cycles()
        tenant_cycles_before = self.dispatcher.namespace_cycles()
        # The event log and busy accounting are per run.
        self._events.clear()
        self._shard_busy.clear()
        self._shard_busy.update(dict.fromkeys(range(self.dispatcher.n_shards), 0.0))
        completed: List[CompletedRequest] = []
        feed = self._arrivals
        try:
            while True:
                source, ready_at = self._next_source()
                arrival = feed.next_arrival()
                if arrival is not None and (source is None or arrival <= ready_at):
                    self._admit(feed.pop())
                elif source is None:
                    break
                else:
                    # May complete nothing: a prefill or a decode step
                    # leaves its sequences in the decode pool.
                    for record in self._execute(*source.pop(ready_at)):
                        self._results[record.request.request_id] = record.outputs
                        completed.append(record)
        finally:
            # A raising run drops what it took from the buffer unadmitted.
            feed._due.clear()
            # Weights may change between runs: nothing is kept for the next.
            self._clear_stacks()

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
        """Stats of the caches this engine owns, one
        :meth:`repro.store.InProcessLRU.stats` dict per namespace: the K/V
        cache's per-shard stores and each shard backend's parameter cache
        (under ``nn.params.shard<N>``)."""
        stats: Dict[str, Dict[str, int]] = {}
        if self.radix_cache is not None:
            stats.update(self.radix_cache.namespace_stats())
        for shard, backend in enumerate(self.dispatcher.backends):
            param_cache = getattr(backend, "param_cache", None)
            if param_cache is not None:
                stats[f"nn.params.shard{shard}"] = param_cache.stats()
        return stats

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
            and self.radix_cache is not None
            and adapter is not None
        ):
            prefix_key = batch.prefix_key
            resident = self.radix_cache.resident_shards(
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
        :attr:`ServingReport.events` carries (filter by record type for
        one kind)."""
        return tuple(self._events)

    @property
    def shard_stats(self) -> Dict[int, ShardStats]:
        """Per-shard live stats (the drift EWMA stealing reads;
        cumulative over the engine's runs)."""
        return dict(self._controller.shard_stats)

    def _next_source(self):
        """``(source, ready time)`` of the work to run next — ``(None,
        None)`` when no source has any.  Earliest ready time wins, and
        on a tie the source that comes first in ``_sources``."""
        first = at = None
        for source in self._sources:
            ready = source.next_ready()
            if ready is not None and (at is None or ready < at):
                first, at = source, ready
        return first, at

    def result(self, request_id: int, keep: bool = False) -> np.ndarray:
        """Output of a completed request (KeyError if not yet run).

        By default the output is handed over exactly once and released,
        so a long-lived engine does not accumulate every response it
        has ever produced; pass ``keep=True`` to leave it retrievable
        (it then stays resident until fetched without ``keep``).
        """
        if keep:
            return self._results[request_id]
        return self._results.pop(request_id)

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

    def _select_shard(self, unit: WorkUnit, views: List[ShardView]) -> int:
        """Pick the shard a ready unit executes on.

        A look-ahead-planned unit re-validates (and possibly steals) its
        planned shard instead of re-placing from scratch.
        """
        if unit.planned_shard is not None:
            return self._controller.resolve(unit, views)
        shard = self.placement.place(unit.profile, views)
        if not 0 <= shard < self.dispatcher.n_shards:
            raise ValueError(
                f"placement policy {self.placement.name!r} returned shard "
                f"{shard} for a pool of {self.dispatcher.n_shards}"
            )
        return shard

    # ------------------------------------------------------------------
    # The execute-and-commit pipeline (one, for every kind of work)
    # ------------------------------------------------------------------
    def _execute(
        self, unit: WorkUnit, views: Optional[List[ShardView]] = None
    ) -> List[CompletedRequest]:
        """Place, run and commit one unit of work.

        Every classifier batch, generation prefill and decode step goes
        through this skeleton; the unit supplies the payload and commits
        the outcome (see :class:`~repro.serving.cluster.WorkUnit`).
        ``views`` are the pool's :meth:`~repro.serving.cluster.ClusterDispatcher.shard_views`
        when the caller holds them.
        """
        profile = unit.profile
        ready = profile.ready_time
        # Placement happens at ready time, so the policy sees every
        # shard's busy horizon and the unit's shape/cost profile
        # (including prefix residency, for affinity) before choosing.
        shard = self._select_shard(
            unit, self.dispatcher.shard_views() if views is None else views
        )
        backend = self.dispatcher.backends[shard]
        array = self.dispatcher.array_of(shard)

        start = max(ready, self.dispatcher.busy_until.get(shard, 0.0))
        cycles_before = array.total_cycles if array is not None else 0

        # Attribute everything the unit records to its tenant's trace
        # namespace: per-tenant cycle accounting from aggregates alone.
        namespace = (
            array.trace.namespace(profile.tenant) if array is not None else nullcontext()
        )
        with namespace:
            result, reused = unit.run(shard, backend)

        # Functional backends have no cycle model and are charged nothing
        # (never host time: the simulated clock must not read the host's).
        batch_cycles = array.total_cycles - cycles_before if array is not None else 0
        duration = batch_cycles / array.config.clock_hz if array is not None else 0.0

        finish = start + duration
        self.dispatcher.busy_until[shard] = finish
        self._shard_busy[shard] = self._shard_busy.get(shard, 0.0) + duration
        self._controller.observe(shard, profile, array, batch_cycles, duration, reused)
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
    ) -> WorkUnit:
        """The work unit of a scheduler batch: a classifier batch or a
        generation prefill."""
        profile, run, commit, prefix_tokens = (
            self._prefill_payload(batch)
            if self._is_prefill(batch)
            else self._classify_payload(batch, profile)
        )
        return WorkUnit(
            profile, batch.index, run, commit,
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
            once = None if use_prefix else self._compute_once(endpoint, shard, backend)
            if once is not None:
                return self._stacked(once, endpoint, batch, backend), False
            stacked = np.stack([r.inputs for r in batch.requests])
            hit = False
            if not use_prefix:
                outputs = endpoint.infer_fn(stacked, backend)
            else:
                # One cache decision for the whole batch: the batcher
                # keys groups on the prompt digest, so every request
                # here shares the prompt.  Only the whole prompt counts.
                cache = self.radix_cache
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
                )
                for req, out in zip(batch.requests, per_request)
            ]

        return profile, run, commit, prefix_tokens

    def _compute_once(
        self, endpoint: ModelEndpoint, shard: int, backend, lockstep: bool = False
    ) -> Optional[tuple]:
        """``(stack, array, who)`` when ``endpoint``'s units on ``shard``
        are charged by tape and computed in stacks, None when they
        execute per unit.

        A generation unit (``lockstep``) continues from K/V rows earlier
        units computed, wherever they ran: its transcript stands for them
        only while every shard of the pool computes alike.
        """
        array = self.dispatcher.array_of(shard)
        if endpoint.stack is None or array is None:
            return None
        who = _who(backend, array)
        pool = self.dispatcher
        if lockstep and any(
            (other := pool.array_of(index)) is None
            or _who(pool.backends[index], other) != who
            for index in range(pool.n_shards)
        ):
            return None
        return endpoint.stack, array, who

    def _stacked(
        self, once: tuple, endpoint: ModelEndpoint, batch: Batch, backend
    ) -> List[np.ndarray]:
        """Output rows of a classifier batch: charged once per batch,
        computed once per stack (:class:`_Stack`)."""
        stack, array, who = once
        sample = batch.requests[0].inputs

        def infer(members):
            outputs = endpoint.infer_fn(np.stack([r.inputs for r in members]), backend)
            return list(self._check_batched(endpoint, outputs, len(members)))

        key = (batch.size, sample.shape, sample.dtype, array.config, who)
        outputs = stack.once(
            batch.requests, key, who, backend, lambda: infer(batch.requests), infer
        )
        # A unit pops its rows when it runs.
        for request in batch.requests:
            stack.rows.pop(request.request_id, None)
        return outputs

    def _forget(self, request: InferenceRequest) -> None:
        """A shed request never executes and a retired one is through:
        compute nothing for it, keep nothing computed for it."""
        stack = self._endpoints[request.model].stack
        if stack is not None:
            stack.ahead.pop(request.request_id, None)
            stack.owed.pop(request.request_id, None)
            stack.rows.pop(request.request_id, None)

    def _clear_stacks(self) -> None:
        """Reap every helper; drop every endpoint's rows and look-ahead
        (tapes stay).  A helper still owed rows is left by a raising run:
        nothing reads its rows or counts, so it is killed, not waited for."""
        for endpoint in self._endpoints.values():
            stack = endpoint.stack
            if stack is not None:
                if stack.owed:
                    stack.helper[0].kill()
                while stack.helper and stack._receive():
                    pass
                stack.helper = None
                stack.ahead.clear()
                stack.rows.clear()

    # ------------------------------------------------------------------
    # Generation: prefill batches and the continuous-batching decode pool
    # ------------------------------------------------------------------
    def _prefill_payload(self, batch: Batch):
        """Profile, run and commit of a generation batch's prompt pass
        (a prefill carries no classifier prefix tokens: the 4th is None).

        The pass yields each member's first greedy token plus its K/V
        state — executed through the adapter (the radix cache, when
        configured, trims the prompts to their uncached suffix), or,
        where the endpoint computes once per stack and the
        ``(batch, prompt_len, cached_len)`` shape was taped before,
        replayed and read off the members' transcripts — and the
        surviving members enter the decode pool for iteration-level
        decode instead of completing.

        Members share a prompt *length*, not a prompt.  The radix cache
        is read and fed once per distinct member prompt; the pass starts
        from the shortest cached prefix among them (one miss makes it
        cold), because one stacked suffix needs one suffix length.
        """
        endpoint = self._endpoints[batch.model]
        adapter = endpoint.generation_adapter
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

            def prefill():
                first_tokens, state = adapter.prefill(prompts, backend, cached=cached)
                return first_tokens, state.split()

            once = self._compute_once(endpoint, shard, backend, lockstep=True)
            if once is None:
                result = prefill()
            else:
                stack, array, who = once
                key = ("prefill", batch.size, prompt_len, cached_len, array.config, who)
                result = stack.once(
                    batch.requests, key, who, backend, prefill,
                    lambda members: adapter.transcribe(members, backend),
                    lambda transcripts: (
                        [t.tokens[0] for t in transcripts],
                        [t.state for t in transcripts],
                    ),
                )
            return (*result, cached_len), cached_len > 0

        def commit(placed, result, reused):
            first_tokens, states, cached_len = result
            shard, finish = placed.shard, placed.finish
            if use_radix:
                # Donate every distinct prompt's rows back (incremental
                # capture: a future prompt extending one of them
                # prefills only its new suffix).
                for j in distinct:
                    self.radix_cache.insert(
                        shard, batch.tenant, batch.model, prompts[j],
                        states[j].prefix(prompt_len),
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
            for j, request in enumerate(batch.requests):
                seq = ActiveSequence(
                    request=request,
                    state=states[j],
                    generated=[int(first_tokens[j])],
                    ready_time=finish,
                    first_start=placed.start,
                    batch_cycles=placed.batch_cycles,
                    last_shard=shard,
                    last_batch_index=batch.index,
                    last_batch_size=batch.size,
                )
                done = self._decode_pool.admit(seq)
                if done is not None:
                    completed.append(done)
            return completed

        return profile, run, commit, None
