"""The cluster placement API: heterogeneous shard pools + dispatch policies.

PR 1's dispatcher handed batches to shards blind round-robin.  This
module makes the dispatch boundary explicit and heterogeneous-aware:

* :class:`ShardSpec` / :class:`ClusterSpec` declare a pool of shards
  whose :class:`~repro.systolic.config.SystolicConfig` design points may
  differ — grid sizes, MAC counts, clocks, even quantization formats
  (the paper's design-space premise: array configurations trade cycles
  for resources).  ``ClusterSpec.build()`` materialises the pool as a
  :class:`ClusterDispatcher` of ``ArrayBackend`` shards.
* :class:`ClusterDispatcher` owns the pool state placement consumes:
  per-shard design point, clock, cycle trace, and the discrete-event
  **busy-until** horizon the engine maintains as batches execute.
* :class:`PlacementPolicy` is the pluggable decision: given a
  :class:`BatchProfile` (what is about to run) and the pool's
  :class:`ShardView` list (who could run it, how busy, how fast),
  return the shard index.  Three policies ship:

  - :class:`RoundRobinPlacement` (``"round_robin"``, the default) —
    the PR 1 counter, pinned bit-identical to the historical
    batch→shard mapping by a regression test;
  - :class:`LeastLoadedPlacement` (``"least_loaded"``) — fewest
    in-flight estimated cycles (the busy-until backlog scaled by the
    shard clock) wins; ties break to the lowest shard index;
  - :class:`CostAwarePlacement` (``"cost_aware"``) — estimates each
    candidate's *finish time* for this batch shape from the
    closed-form cycle model (``SystolicConfig.estimate_gemm_cycles``
    and friends) plus the shard's current backlog, and picks the
    earliest.

Cost estimates resolve per model endpoint: an explicit
``cost_model`` callable registered with the endpoint (see
:func:`workload_cost_model` for deriving one from a
:class:`~repro.nn.workload.Workload` builder) wins; otherwise the
engine's :class:`CalibratingCostModel` supplies estimates from cycles
it has already observed for the same (model, shape) — exact on repeat
shapes, scaled across batch sizes and design points, and absent (the
policy then degenerates to earliest-available) before first contact.

Everything here is deterministic: policies see only simulated state,
so a request stream reproduces the same placements every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.systolic.config import SystolicConfig


# ---------------------------------------------------------------------------
# Cluster declaration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """Declaration of one shard: an array design point plus CPWL knobs.

    Attributes
    ----------
    config:
        The shard's :class:`SystolicConfig` design point.  Different
        shards of one cluster may use different grids, MAC counts,
        clocks or formats.  Note a shard's *format* changes its
        numerics: heterogeneous-format pools produce
        placement-dependent outputs, so keep formats uniform when
        bit-stable results matter.
    granularity:
        CPWL approximation granularity of the shard's backend.
    name:
        Optional label used in reports and ``describe()``.
    """

    config: SystolicConfig
    granularity: float = 0.25
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.granularity <= 0:
            raise ValueError(
                f"shard granularity must be positive, got {self.granularity}"
            )


@dataclass(frozen=True)
class ClusterSpec:
    """A declared pool of (possibly heterogeneous) shards.

    Build dispatchers from it::

        spec = ClusterSpec.heterogeneous([big_config, small_config])
        engine = InferenceEngine(spec.build(), placement="cost_aware")
    """

    shards: Tuple[ShardSpec, ...]

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("cluster needs at least one shard")

    @classmethod
    def homogeneous(
        cls, config: SystolicConfig, n_shards: int, granularity: float = 0.25
    ) -> "ClusterSpec":
        """``n_shards`` identical shards of one design point."""
        return cls(tuple(ShardSpec(config, granularity) for _ in range(n_shards)))

    @classmethod
    def heterogeneous(
        cls,
        configs: Sequence[SystolicConfig],
        granularity: float = 0.25,
    ) -> "ClusterSpec":
        """One shard per design point in ``configs``."""
        return cls(tuple(ShardSpec(config, granularity) for config in configs))

    def build(self) -> "ClusterDispatcher":
        """Materialise the pool: one ``SystolicArray`` backend per shard."""
        from repro.nn.executor import ArrayBackend
        from repro.systolic.array import SystolicArray

        backends = [
            ArrayBackend(SystolicArray(spec.config), spec.granularity)
            for spec in self.shards
        ]
        return ClusterDispatcher(backends)

    def describe(self) -> str:
        """One line per shard: name and design point."""
        lines = []
        for index, spec in enumerate(self.shards):
            name = spec.name or f"shard{index}"
            clock = spec.config.clock_hz / 1e6
            lines.append(f"{name}: {spec.config.describe()} @ {clock:.0f} MHz")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# What placement sees
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardView:
    """One shard's state at a placement decision.

    ``busy_until`` is the simulated time the shard finishes everything
    already placed on it (the discrete-event backlog horizon);
    ``config``/``clock_hz`` are ``None`` for functional (untraced)
    backends, which have no cycle model.
    """

    index: int
    busy_until: float
    clock_hz: Optional[float] = None
    config: Optional[SystolicConfig] = None

    def backlog_seconds(self, now: float) -> float:
        """Seconds of already-placed work outstanding at ``now``."""
        return max(0.0, self.busy_until - now)

    def backlog_cycles(self, now: float) -> float:
        """The backlog expressed in this shard's cycles (its occupancy)."""
        seconds = self.backlog_seconds(now)
        return seconds * self.clock_hz if self.clock_hz else seconds


@dataclass(frozen=True)
class BatchProfile:
    """What the engine knows about a batch at placement time.

    ``estimator(profile, config)`` returns the estimated cycles of the
    batch on ``config`` (or None when unknown) — resolved by the engine
    to the endpoint's declared cost model or its calibrating default.

    ``prefix_key``/``resident_shards`` carry the batch's prefix-cache
    context: the prompt digest (None for prefix-less batches) and the
    shards whose cache already holds that prompt, which
    :class:`PrefixAffinePlacement` steers towards.
    """

    model: str
    tenant: str
    batch_size: int
    sample_shape: Tuple[int, ...]
    ready_time: float
    estimator: Optional[
        Callable[["BatchProfile", SystolicConfig], Optional[float]]
    ] = None
    prefix_key: Optional[str] = None
    resident_shards: Tuple[int, ...] = ()

    def service_seconds(
        self, config: Optional[SystolicConfig], clock_hz: Optional[float]
    ) -> Optional[float]:
        """Estimated service time of this batch on a shard of design
        point ``config`` clocked at ``clock_hz`` (None when unpriceable:
        no estimate, or a functional shard without a clock)."""
        if config is None or not clock_hz or self.estimator is None:
            return None
        estimate = self.estimator(self, config)
        return None if estimate is None else estimate / clock_hz

    def services_on(self, views: Sequence[ShardView]) -> Dict[int, float]:
        """Estimated service seconds per view index, priceable views only."""
        return {
            view.index: service
            for view in views
            if (service := self.service_seconds(view.config, view.clock_hz)) is not None
        }


@dataclass(frozen=True)
class PlacementDecision:
    """One entry of the report's placement-decision log."""

    batch_index: int
    model: str
    tenant: str
    batch_size: int
    shard: int
    policy: str
    ready_time: float
    start: float
    finish: float
    batch_cycles: int = 0


class WorkUnit(NamedTuple):
    """What one kind of work hands the engine's execute-and-commit
    pipeline, and what every work source's ``pop`` returns.

    The pipeline owns every step the kinds share (place, timing, the
    shard-side commit, the placement record); a unit carries only what
    differs between a classifier batch, a generation prefill and a
    decode step:

    ``run(shard, backend) -> (result, reused)``
        The payload.  ``reused`` marks a partial execution (a prefix or
        radix hit) whose timing must not feed full-cost estimates.
    ``commit(placed, result, reused) -> completions``
        What the executed unit commits, given its placement record.
    """

    profile: BatchProfile
    batch_index: int
    run: Callable[[int, object], "Tuple[object, bool]"]
    commit: Callable[[PlacementDecision, object, bool], list]
    #: Shard a look-ahead round planned this unit onto (None = place now).
    planned_shard: Optional[int] = None
    #: Prompt a prefix-keyed classifier batch's cache entry is keyed on
    #: (what a steal migrates); None for every other unit.
    prefix_tokens: Optional[object] = None


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------
def estimated_finish(
    view: ShardView, ready: float, horizon: float,
    services: Dict[int, float], drift: float = 1.0,
) -> float:
    """When a unit ready at ``ready`` finishes on ``view``'s shard, busy
    until ``horizon``, given the unit's :meth:`BatchProfile.services_on`
    and the shard's actual/estimated service ratio ``drift``: the one ETA
    rule of greedy placement, look-ahead rounds and steal re-pricing (its
    pessimism is :class:`CostAwarePlacement`'s)."""
    service = services.get(view.index)
    if service is None:
        service = max(services.values(), default=0.0)
    return max(ready, horizon) + service * drift


class PlacementPolicy:
    """Decides which shard executes a ready batch.

    ``place`` is called once per batch, at batch-ready time, with the
    full pool state; it must return a valid shard index.  Policies may
    keep state (the round-robin counter) but must stay deterministic
    functions of the simulated inputs.
    """

    name = "placement"

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        raise NotImplementedError


class RoundRobinPlacement(PlacementPolicy):
    """The historical default: a counter over the pool, blind to load.

    Bit-identical to the PR 1/PR 3 acquire-time mapping — the i-th
    executed batch lands on shard ``i % n_shards`` — which the
    regression tests pin, so homogeneous-pool callers see unchanged
    placements, latencies and reports.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        # Index into the *views* rather than returning the counter
        # directly: over the full pool the two are identical (view i
        # has index i, preserving the pinned i % n mapping), and a
        # caller offering a subset is cycled over the shards offered.
        pos = self._next % len(shards)
        self._next = (pos + 1) % len(shards)
        return shards[pos].index


class LeastLoadedPlacement(PlacementPolicy):
    """Fewest in-flight estimated cycles wins; ties to the lowest index.

    Occupancy is the shard's busy-until backlog at the batch's ready
    time, expressed in that shard's own cycles (seconds x clock), so a
    fast shard with a short queue beats a slow shard with the same
    queue in seconds.  In a *mixed* pool (some shards functional, with
    no cycle model) cycles and seconds are incomparable, so the whole
    pool is compared in backlog seconds instead.  Blind to the
    *incoming* batch's cost — see :class:`CostAwarePlacement` for that.
    """

    name = "least_loaded"

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        in_cycles = all(s.clock_hz for s in shards)

        def occupancy(view: ShardView) -> Tuple[float, int]:
            backlog = (
                view.backlog_cycles(batch.ready_time)
                if in_cycles
                else view.backlog_seconds(batch.ready_time)
            )
            return backlog, view.index

        return min(shards, key=occupancy).index


class CostAwarePlacement(PlacementPolicy):
    """Earliest estimated finish time for *this* batch shape wins.

    For each candidate: ``finish = max(ready, busy_until) + est_cycles /
    clock`` with ``est_cycles`` from the batch profile's cost model
    (closed-form ``gemm_cycles``/plan-cache estimates, an endpoint's
    declared workload model, or the engine's calibrated observations).
    A shard *without* an estimate (functional backends, or a design
    point the model has never priced) is charged the most expensive
    known service time — pessimistic, so an unpriceable shard cannot
    win on ignorance against shards with real estimates.  With no cost
    information anywhere the policy degenerates to earliest-available —
    still occupancy-aware, never worse than round-robin on backlog.
    Ties break by backlog then index.

    ``occupancy_penalty`` counters the greedy policy's
    load-concentration failure mode: on a skewed pool the fastest
    shard's ETA stays lowest even with a deep queue, so it absorbs
    nearly everything while slower shards idle (the ``{1.0, 0.17, 0,
    0}`` utilization pattern of the placement bench).  A penalty
    ``k > 0`` charges each candidate ``k x`` its already-queued
    backlog *on top of* the real ETA, steering marginal batches onto
    idle slower shards once the fast shard's queue grows.  The default
    ``0.0`` is the pinned historical behavior, bit for bit; the knob
    is searchable through
    :attr:`repro.autotune.TuningConfig.occupancy_penalty`.
    """

    name = "cost_aware"

    def __init__(self, occupancy_penalty: float = 0.0):
        if occupancy_penalty < 0:
            raise ValueError(
                f"occupancy_penalty must be >= 0, got {occupancy_penalty}"
            )
        self.occupancy_penalty = float(occupancy_penalty)
        if self.occupancy_penalty > 0:
            self.name = f"cost_aware(occ={self.occupancy_penalty:g})"

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        return self.earliest_finish(batch.ready_time, shards, batch.services_on(shards))

    def earliest_finish(
        self, ready: float, shards: Sequence[ShardView], services: Dict[int, float],
        horizons: Optional[Dict[int, float]] = None,
    ) -> int:
        """The shard finishing a unit priced ``services`` first, counting
        from ``horizons`` (default: each view's own ``busy_until``)."""

        def finish(view: ShardView) -> Tuple[float, float, int]:
            horizon = view.busy_until if horizons is None else horizons[view.index]
            eta = estimated_finish(view, ready, horizon, services)
            if self.occupancy_penalty:
                eta += self.occupancy_penalty * view.backlog_seconds(ready)
            return (eta, horizon, view.index)

        return min(shards, key=finish).index


class PrefixAffinePlacement(PlacementPolicy):
    """Prefer the shard whose prefix cache already holds the batch's prompt.

    Wraps any inner policy.  A batch whose prompt is resident somewhere
    (``BatchProfile.resident_shards``) is placed on a resident shard —
    the least-backlogged one at the batch's ready time, ties to the
    lowest index — because a cache hit skips far more cycles than
    marginal queueing costs; re-computing the prompt on another shard
    would discard the reuse entirely.  Batches without a resident
    prompt (including every prefix-less batch) fall through to the
    inner policy untouched, and affinity overrides do not advance the
    inner policy's state, so prefix-less traffic sees the inner
    placement bit-identically.

    The engine wraps its configured policy in this automatically when
    constructed with a ``radix_cache``.
    """

    def __init__(self, inner: "PlacementPolicy"):
        self.inner = inner
        self.name = f"prefix_affine({inner.name})"

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        if batch.resident_shards:
            candidates = [
                view for view in shards if view.index in set(batch.resident_shards)
            ]
            if candidates:
                return min(
                    candidates, key=lambda view: (view.busy_until, view.index)
                ).index
        return self.inner.place(batch, shards)


class LookaheadPlacement(PlacementPolicy):
    """Joint list scheduling of the *entire ready set* per round.

    Greedy per-batch cost_aware commits each batch at its ready
    instant, so on a skewed pool the fastest shard's ETA wins batch
    after batch and the rest of the pool idles.  This policy receives
    every currently-ready batch at once (:meth:`plan`) and runs
    longest-processing-time list scheduling over the pool's busy
    horizons: batches are ordered by descending best-case service time
    (ties by submission order), each is assigned to the shard with the
    earliest estimated finish *given the assignments already made this
    round*, and the chosen shard's planning horizon advances by the
    batch's service estimate.  The LPT order is the classic 4/3-
    approximation for makespan on uniform machines — big batches claim
    the fast shards first, small batches back-fill idle slower shards.

    Everything is deterministic: estimates come from the same cost
    models greedy placement prices with, ties break by shard index, and
    placement still never changes arithmetic — only *where* each batch
    runs, so outputs stay bit-identical to per-batch placement on
    format-uniform pools.

    :meth:`place` (single-batch calls: decode steps, generation
    prefills) degenerates to greedy cost_aware against the live
    horizons — exactly the behavior look-ahead improves on, applied
    only where there is no ready *set* to plan over.
    """

    name = "lookahead"

    def __init__(self):
        self._greedy = CostAwarePlacement()

    def place(self, batch: BatchProfile, shards: Sequence[ShardView]) -> int:
        return self._greedy.place(batch, shards)

    def plan(
        self, batches: Sequence[BatchProfile], shards: Sequence[ShardView],
        horizons: Optional[Dict[int, float]] = None,
    ) -> List[int]:
        """Assign every ready batch a shard; returns one index per batch.
        ``horizons`` (shard index -> busy-until, every offered shard)
        replace the views' own as the round's starting horizons."""
        horizons = dict(horizons or {v.index: v.busy_until for v in shards})

        priced = [batch.services_on(shards) for batch in batches]
        # LPT order: biggest batch (by its best-case service anywhere)
        # first; ties keep submission order for determinism.
        order = sorted(
            range(len(batches)),
            key=lambda i: (-min(priced[i].values(), default=0.0), i),
        )
        assignment: List[int] = [0] * len(batches)
        for i in order:
            ready, services = batches[i].ready_time, priced[i]
            best = assignment[i] = self._greedy.earliest_finish(
                ready, shards, services, horizons
            )
            horizons[best] = max(ready, horizons[best]) + services.get(
                best, max(services.values(), default=0.0)
            )
        return assignment


_PLACEMENTS = {
    "round_robin": RoundRobinPlacement,
    "least_loaded": LeastLoadedPlacement,
    "cost_aware": CostAwarePlacement,
    "lookahead": LookaheadPlacement,
}


def make_placement_policy(
    policy: Union[str, PlacementPolicy],
) -> PlacementPolicy:
    """Resolve a placement-policy name (or pass an instance through)."""
    if isinstance(policy, PlacementPolicy):
        return policy
    try:
        return _PLACEMENTS[policy]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {policy!r}; "
            f"available: {sorted(_PLACEMENTS)}"
        ) from None


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------
class CalibratingCostModel:
    """Batch-cycle estimator from cycles the engine has already traced.

    Estimates resolve in confidence order:

    1. **exact** — the same (model, batch size, sample shape) was
       observed on the same design point (clock excluded: cycle counts
       don't depend on it);
    2. **per-row scaling** — the same (model, sample shape) was
       observed on the design point at another batch size; batching
       only adds GEMM rows, so cycles scale ~linearly per request;
    3. **cross-config scaling** — the shape was only observed on a
       *different* design point; scale its per-row cycles by the
       closed-form GEMM cycle ratio between the two design points (a
       coarse proxy, refined to exact the first time the shape actually
       runs on the shard);
    4. **None** — never seen anywhere; the policy falls back to
       earliest-available.

    Observation and estimation are deterministic (insertion-ordered),
    and state is O(distinct (model, shape, design-point) triples).
    """

    #: Square GEMM edge used for the cross-config cycle-ratio proxy.
    PROXY_DIM = 256

    def __init__(self) -> None:
        self._exact: Dict[tuple, float] = {}
        # (model, shape) -> {cycle_key: per_row_cycles}
        self._per_row: Dict[tuple, Dict[SystolicConfig, float]] = {}
        self._proxy: Dict[Tuple[SystolicConfig, SystolicConfig], float] = {}

    def observe(
        self,
        model: str,
        batch_size: int,
        sample_shape: Tuple[int, ...],
        config: SystolicConfig,
        cycles: int,
    ) -> None:
        """Record the traced cycles of one executed batch."""
        if cycles <= 0 or batch_size <= 0:
            return
        key = config.cycle_key
        self._exact[(model, batch_size, sample_shape, key)] = float(cycles)
        self._per_row.setdefault((model, sample_shape), {})[key] = cycles / batch_size

    def _ratio(self, target: SystolicConfig, source: SystolicConfig) -> float:
        """Closed-form cycle ratio target/source for a proxy GEMM."""
        pair = (target, source)
        if pair not in self._proxy:
            dim = self.PROXY_DIM
            self._proxy[pair] = target.estimate_gemm_cycles(
                dim, dim, dim
            ) / source.estimate_gemm_cycles(dim, dim, dim)
        return self._proxy[pair]

    def estimate(
        self, profile: BatchProfile, config: SystolicConfig
    ) -> Optional[float]:
        """Estimated cycles of ``profile`` on ``config`` (None if unknown)."""
        key = config.cycle_key
        exact = self._exact.get(
            (profile.model, profile.batch_size, profile.sample_shape, key)
        )
        if exact is not None:
            return exact
        observed = self._per_row.get((profile.model, profile.sample_shape))
        if not observed:
            return None
        if key in observed:
            return observed[key] * profile.batch_size
        # First (insertion-order) observation on any design point,
        # scaled by the closed-form proxy ratio — deterministic.
        source_key, per_row = next(iter(observed.items()))
        return per_row * profile.batch_size * self._ratio(key, source_key)

    # The engine passes the estimator around as a plain callable.
    __call__ = estimate


def workload_cost_model(
    builder: Callable[[int, Tuple[int, ...]], object],
) -> Callable[[BatchProfile, SystolicConfig], float]:
    """Endpoint cost model from a :class:`~repro.nn.workload.Workload` builder.

    ``builder(batch_size, sample_shape)`` returns the batch's op
    inventory; the returned callable maps it to total cycles on a
    design point via the closed-form cycle model, memoised per
    (batch size, sample shape, design point).  Design points without
    the nonlinear datapath are charged their GEMMs only.
    """
    cache: Dict[tuple, float] = {}

    def estimate(profile: BatchProfile, config: SystolicConfig) -> float:
        key = (profile.batch_size, profile.sample_shape, config.cycle_key)
        if key not in cache:
            workload = builder(profile.batch_size, profile.sample_shape)
            try:
                total = float(workload.latency_breakdown(config).total)
            except RuntimeError:
                # No nonlinear datapath on this design point: GEMMs only.
                total = float(
                    sum(
                        config.estimate_gemm_cycles(op.m, op.k, op.n) * op.count
                        for op in workload.gemm_ops
                    )
                )
            cache[key] = total
        return cache[key]

    return estimate


# ---------------------------------------------------------------------------
# The dispatcher: pool state + trace aggregation
# ---------------------------------------------------------------------------
class ClusterDispatcher:
    """A pool of execution backends with placement-relevant state.

    A shard is one inference backend — typically an
    :class:`~repro.nn.executor.ArrayBackend` wrapping its own
    :class:`~repro.systolic.array.SystolicArray`, so every shard
    carries an independent design point and cycle trace.  The engine
    asks a :class:`PlacementPolicy` where each ready batch runs
    (:meth:`shard_views` is the pool state it decides on) and maintains
    :attr:`busy_until` as the discrete-event loop advances.

    Parameters
    ----------
    backends:
        One inference backend per shard.  Backends exposing an
        ``array`` attribute (the hardware-routed ones) contribute cycle
        traces and design points; others execute functionally and are
        charged no simulated time.  The pool is fixed at construction.
    """

    def __init__(self, backends: Sequence[object]):
        if not backends:
            raise ValueError("dispatcher needs at least one backend shard")
        self.backends: List[object] = list(backends)
        #: Each shard's static ``(config, clock_hz)``; ``(None, None)``
        #: for functional backends.
        self.design_points: List[
            Tuple[Optional[SystolicConfig], Optional[float]]
        ] = [
            (None, None) if array is None else (array.config, array.config.clock_hz)
            for array in map(self.array_of, range(len(self.backends)))
        ]
        #: Simulated time each shard finishes everything placed on it.
        self.busy_until: Dict[int, float] = {}

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[object], granularity: float
    ) -> "ClusterDispatcher":
        """Build a pool of :class:`ArrayBackend` shards over ``arrays``."""
        from repro.nn.executor import ArrayBackend

        return cls([ArrayBackend(array, granularity) for array in arrays])

    @property
    def n_shards(self) -> int:
        return len(self.backends)

    def array_of(self, shard: int) -> Optional[object]:
        """The shard's systolic array, if it is hardware-routed."""
        return getattr(self.backends[shard], "array", None)

    def shard_views(self) -> List[ShardView]:
        """Pool state snapshot for a placement decision."""
        return [
            ShardView(shard, self.busy_until.get(shard, 0.0), clock_hz, config)
            for shard, (config, clock_hz) in enumerate(self.design_points)
        ]

    def shard_cycles(self) -> Dict[int, int]:
        """Aggregate traced cycles per hardware-routed shard."""
        cycles: Dict[int, int] = {}
        for shard in range(self.n_shards):
            array = self.array_of(shard)
            if array is not None:
                cycles[shard] = array.total_cycles
        return cycles

    def namespace_cycles(self) -> Dict[str, int]:
        """Traced cycles per trace namespace, summed over the pool.

        The engine executes every batch inside the owning tenant's
        namespace (see :meth:`repro.systolic.trace.Trace.namespace`),
        so this is the pool-wide per-tenant cycle account, read off the
        trace aggregates.
        """
        totals: Dict[str, int] = {}
        for shard in range(self.n_shards):
            array = self.array_of(shard)
            if array is None:
                continue
            for name, cycles in array.trace.cycles_by_namespace().items():
                totals[name] = totals.get(name, 0) + cycles
        return totals
