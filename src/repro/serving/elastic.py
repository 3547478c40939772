"""The elastic cluster runtime: knobs, controller and event records.

The elastic runtime is three engine behaviors layered over placement,
all off by default (the defaults are regression-pinned bit-identical
to the pre-elastic engine):

* **look-ahead placement** (``placement="lookahead"`` — the placement
  policy *is* the switch) — fresh batches that are ready at the same
  scheduling instant are planned *jointly* by
  :class:`~repro.serving.cluster.LookaheadPlacement` list scheduling
  instead of committed one by one at the greedy earliest finish;
* **work-stealing / re-placement** (``steal=True``) — a planned batch
  whose shard has drifted (actual traced cycles diverged from the
  calibrated estimate beyond :data:`STEAL_DRIFT_THRESHOLD`) or whose
  breaker opened is re-priced at execution time and migrates to the
  shard that now finishes it earliest; prefix-cache affinity is
  consulted, and when affinity and load conflict beyond
  :data:`AFFINITY_BREAK_FACTOR` the cache *entry* migrates through the
  store fabric instead of pinning the batch;
* **SLO-driven autoscaling** (``autoscale=True``) — the live pool grows
  / shrinks from windowed SLO-attainment and shed-rate signals with
  hysteresis, within the operator's shard-count and power limits.

The thresholds are module constants, not knobs: nothing searches them
and no deployment has needed another value.  :class:`ElasticController`
runs all three behaviors for the engine and owns their state: the
planned round (one of the engine's work sources), the per-shard drift
statistics and the autoscaler's window.  Every decision leaves an event
record (:class:`StealEvent`, :class:`ScalingEvent`) surfaced in
:meth:`~repro.serving.report.ServingReport.elastic_section`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.serving.cluster import (
    BatchProfile,
    LookaheadPlacement,
    PlacementPolicy,
    ShardView,
    WorkUnit,
    estimated_finish,
)
from repro.serving.request import CompletedRequest
from repro.serving.stats import ShardStats
from repro.serving.tenancy import effective_deadline


#: Steal a planned batch when its shard's drift-corrected ETA exceeds the
#: best alternative's by more than this factor: 50% worse, so a drift
#: EWMA wobbling around 1 never moves work, and a real straggler does.
STEAL_DRIFT_THRESHOLD = 1.5
#: A prefix-resident batch leaves its shard (the cache entry migrating
#: through the fabric) only past this factor: higher than the drift
#: threshold, since staying keeps a cache hit a move must pay to carry.
AFFINITY_BREAK_FACTOR = 2.0
#: Completions per SLO/shed evaluation window: one burst of a few late
#: requests reads as a rate, not as a single late request.
AUTOSCALE_WINDOW = 8
#: Grow the pool when windowed SLO attainment falls below this ...
GROW_BELOW_ATTAINMENT = 0.9
#: ... shrink it when attainment is at/above this and nothing was shed;
#: the gap between the two is the hysteresis dead band.
SHRINK_ABOVE_ATTAINMENT = 0.98
#: Simulated seconds between scaling actions (hysteresis): a burst shorter
#: than a millisecond resizes the pool at most once, whatever its windows
#: read.
AUTOSCALE_COOLDOWN = 1e-3


@dataclass(frozen=True)
class ElasticConfig:
    """Elastic-runtime switches and limits (everything off = the pinned
    baseline).

    Attributes
    ----------
    steal:
        Re-price queued-but-unstarted batches at execution time and
        migrate them off drifted / tripped shards.
    autoscale:
        Grow/shrink the live pool from windowed SLO and shed signals.
    min_shards / max_shards:
        Live-pool size bounds the autoscaler honors.  ``max_shards``
        of ``None`` means "never beyond the declared pool + template
        growth limit" (the engine caps growth at the pool it can
        build).
    power_budget_watts:
        Refuse growth that would push the live pool's priced power
        (:func:`repro.hardware.power.power_watts` per shard) past this
        budget (``None`` = unbudgeted).
    """

    steal: bool = False
    autoscale: bool = False
    min_shards: int = 1
    max_shards: Optional[int] = None
    power_budget_watts: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards is not None and self.max_shards < self.min_shards:
            raise ValueError("max_shards must be >= min_shards")
        if self.power_budget_watts is not None and self.power_budget_watts <= 0:
            raise ValueError("power_budget_watts must be positive")

    @property
    def enabled(self) -> bool:
        """Stealing or autoscaling on?  (Look-ahead rounds are switched
        by the placement policy.)  False = the pinned baseline."""
        return self.steal or self.autoscale

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ElasticConfig":
        """Missing keys take their defaults; keys that are no field
        (``lookahead``, retired for ``placement="lookahead"``, and the
        thresholds that became module constants) are ignored, so saved
        configs keep loading."""
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})

    def describe(self) -> str:
        if not self.enabled:
            return "elastic: off"
        parts = [name for name in ("steal", "autoscale") if getattr(self, name)]
        return "elastic: " + " + ".join(parts)


@dataclass(frozen=True)
class StealEvent:
    """One queued-but-unstarted batch migrated between shards."""

    batch_index: int
    model: str
    tenant: str
    from_shard: int
    to_shard: int
    at: float
    #: Why the batch moved: ``"drift"`` (calibrated estimate proved
    #: wrong), ``"breaker"`` (planned shard's breaker opened) or
    #: ``"affinity"`` (prefix affinity broken by load, entry migrated).
    reason: str
    #: ETA on the planned shard vs on the shard stolen to, at decision
    #: time — the imbalance the steal removed.
    planned_eta: float = 0.0
    stolen_eta: float = 0.0
    #: True when a K/V cache entry moved along with the batch.
    cache_migrated: bool = False


@dataclass(frozen=True)
class ScalingEvent:
    """One autoscaler pool-resize decision."""

    at: float
    #: ``"grow"`` (shard added or reactivated) or ``"shrink"``
    #: (shard retired from placement rotation).
    action: str
    shard: int
    #: The windowed signal that triggered the action.
    reason: str
    #: Windowed SLO attainment / shed rate at the decision.
    slo_attainment: float
    shed_rate: float
    #: Priced power of the live pool *after* the action.
    pool_power_watts: float = 0.0


class ElasticController:
    """Runs the elastic runtime for one engine and owns its state.

    As one of the engine's work sources (``next_ready`` / ``pop`` /
    ``len`` / ``reset``) it is the planned round: the ``(batch, shard,
    profile)`` triples a look-ahead round assigned and nothing executed
    yet, a FIFO in plan order; a planned batch (older) tied with a fresh
    one runs first.  Rounds are planned iff ``placement`` — unwrapped
    from :class:`~repro.serving.cluster.PrefixAffinePlacement` — is a
    :class:`~repro.serving.cluster.LookaheadPlacement`.

    ``log`` is the event sink, ``shard_busy`` the run's busy seconds per
    shard, ``views(now)`` the shards whose breaker admits work,
    ``profile_of(batch)`` a batch's placement profile (None for a
    generation prefill) and ``unit_of(batch, shard, profile)`` its unit.
    """

    def __init__(
        self, config: ElasticConfig, placement: PlacementPolicy, dispatcher,
        tenants, log: Callable, kv_cache, shard_busy: Dict[int, float],
        views: Callable, profile_of: Callable, unit_of: Callable,
    ) -> None:
        self.config = config
        self._placement = placement
        planner = getattr(placement, "inner", placement)
        self._planner = planner if isinstance(planner, LookaheadPlacement) else None
        # Drift is priced under look-ahead rounds, stealing or autoscaling.
        self._prices_drift = self._planner is not None or config.enabled
        self._dispatcher = dispatcher
        self._tenants = tenants
        self._log = log
        self._kv_cache = kv_cache
        self._shard_busy = shard_busy
        self._views = views
        self._profile_of = profile_of
        self._unit_of = unit_of
        self._planned: Deque[Tuple[object, Optional[int], Optional[BatchProfile]]] = deque()
        #: Per-shard live stats (the drift EWMA stealing reads;
        #: cumulative across runs, cleared by :meth:`reset`).
        self.shard_stats: Dict[int, ShardStats] = {}
        self._slo_window: List[bool] = []
        self._window_sheds = 0
        self._last_scale_at: Optional[float] = None

    # ------------------------------------------------------------------
    # The planned round, as a work source
    # ------------------------------------------------------------------
    def next_ready(self) -> Optional[float]:
        return self._planned[0][0].ready_time if self._planned else None

    def pop(self, ready: float):
        return self._unit_of(*self._planned.popleft()), None

    def __len__(self) -> int:
        return sum(batch.size for batch, _, _ in self._planned)

    def reset(self) -> None:
        self._planned.clear()
        self.restart_window()
        self._last_scale_at = None
        for stats in self.shard_stats.values():
            stats.reset()

    def restart_window(self) -> None:
        """Empty the autoscaler's windowed signals: a new run, or a resize."""
        self._slo_window.clear()
        self._window_sheds = 0

    def fresh(self, first, ready: float, more: Callable[[float], object]):
        """The unit (and views) of a batch the scheduler just popped.

        Under look-ahead placement ``first`` opens a scheduling round:
        every further batch ``more(ready)`` yields (ready at the same
        instant) is harvested, the round is planned jointly and queued,
        and the queue's head executes.  Nothing commits between planning
        a round and its first unit, so that unit is placed on the views
        the round was planned on — unless it is left over from an
        earlier round and ready at another instant.
        """
        if self._planner is None:
            return self._unit_of(first), None
        views = self._plan_round(first, ready, more)
        unit = self._unit_of(*self._planned.popleft())
        return unit, views if unit.profile.ready_time == ready else None

    def _plan_round(self, first, ready: float, more) -> List[ShardView]:
        """Harvest every batch ready at this instant; plan them jointly.

        Prefix- and radix-resident batches keep their cache affinity
        (the resident shard, exactly as
        :class:`~repro.serving.cluster.PrefixAffinePlacement` would
        place them — work-stealing may break it later); the rest go
        through :meth:`LookaheadPlacement.plan` LPT list scheduling over
        horizons that already account for the affine assignments.
        Generation prefills are exempt (their profile depends on radix
        state at execution) and keep per-batch placement.  The planned
        ``(batch, shard, profile)`` triples queue for execution in plan
        order; returns the views the round was planned on.
        """
        batches = [first]
        while (batch := more(ready)) is not None:
            batches.append(batch)
        views = self._views(ready)
        # With no shard available nothing is planned: everything will
        # park through the normal placement path.
        profiles = [self._profile_of(batch) if views else None for batch in batches]
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
            shards = self._planner.plan(
                [profiles[i] for i in plan_indices], views, horizons
            )
            for i, shard in zip(plan_indices, shards):
                assignments[i] = shard
        self._planned.extend(zip(batches, assignments, profiles))
        return views

    # ------------------------------------------------------------------
    # Work-stealing: hold or move a planned placement at execution
    # ------------------------------------------------------------------
    def observe(
        self, shard: int, profile: BatchProfile, array, cycles: int,
        duration: float, reused: bool,
    ) -> None:
        """One unit committed on ``shard``.  The shard's drift EWMA
        learns from full executions only: a prefix hit's suffix-only
        timing would read as phantom speedup against full-cost estimates
        (the calibrator excludes hits for the same reason)."""
        estimate = None
        if self._prices_drift and array is not None and not reused:
            estimate = profile.service_seconds(array.config, array.config.clock_hz)
        self._stats_of(shard).observe(cycles, duration, estimate)

    def _stats_of(self, shard: int) -> ShardStats:
        stats = self.shard_stats.get(shard)
        if stats is None:
            stats = self.shard_stats[shard] = ShardStats(shard)
        return stats

    def resolve(self, unit: WorkUnit, views: List[ShardView]) -> int:
        """Hold or steal: re-validate a planned placement at execution.

        The look-ahead plan priced the round with calibrated estimates;
        by the time this batch reaches the head of the queue the world
        may have moved — the planned shard's breaker may have opened
        (or the autoscaler retired it), or its measured drift (EWMA of
        actual vs estimated service) may have blown the estimate.  With
        ``steal`` on, the batch is re-priced against every available
        shard with drift-corrected ETAs and migrates when the planned
        shard's ETA exceeds the best alternative's by
        :data:`STEAL_DRIFT_THRESHOLD` (:data:`AFFINITY_BREAK_FACTOR` when
        the planned shard holds the batch's prefix — the cache entry then
        migrates through the store fabric with the batch, preserving
        the hit).  With stealing off, an unavailable planned shard
        falls back to the configured placement policy; an available one
        is honored unconditionally.
        """
        profile, planned_shard = unit.profile, unit.planned_shard
        ready = profile.ready_time
        if not self.config.steal:
            if any(view.index == planned_shard for view in views):
                return planned_shard
            # Breaker opened (or shard retired) under the plan: the
            # batch re-places through the normal policy path.
            return self._placement.place(profile, views)

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
        factor = AFFINITY_BREAK_FACTOR if resident else STEAL_DRIFT_THRESHOLD
        if planned_eta <= factor * best_eta:
            return planned_shard
        self._steal(
            unit, best, "affinity" if resident else "drift",
            planned_eta, best_eta, resident,
        )
        return best

    def _steal(
        self,
        unit: WorkUnit,
        to_shard: int,
        reason: str,
        planned_eta: float,
        stolen_eta: float,
        resident: bool,
    ) -> None:
        """Log a migration off the planned shard; the batch's prefix
        entry (when the planned shard holds one) moves with it."""
        profile, from_shard = unit.profile, unit.planned_shard
        # ``resident`` implies a prefix-keyed unit, hence a K/V cache.
        migrated = resident and self._kv_cache.migrate(
            from_shard, to_shard, profile.tenant, profile.model, unit.prefix_tokens
        )
        self._log(
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
    def shed(self) -> None:
        """One request was shed at admission (feeds the shed rate)."""
        self._window_sheds += 1

    def completed(self, records: List[CompletedRequest]) -> None:
        """Feed the autoscaler's windowed SLO signal, maybe scale."""
        if not records or not self.config.autoscale:
            return
        for record in records:
            due = effective_deadline(record.request, self._tenants)
            self._slo_window.append(due is None or record.finish <= due)
        excess = len(self._slo_window) - AUTOSCALE_WINDOW
        if excess > 0:
            del self._slo_window[:excess]
        self._maybe_autoscale(max(record.finish for record in records))

    def _pool_power(self, extra_config: Optional[object] = None) -> float:
        """Priced power of the live pool (plus a candidate shard)."""
        from repro.hardware.power import power_watts

        total = 0.0
        for view in self._dispatcher.shard_views():
            if view.config is not None:
                total += power_watts(view.config)
        if extra_config is not None:
            total += power_watts(extra_config)
        return total

    def _power_admits(self, config: Optional[object]) -> bool:
        """Would adding a shard of ``config`` stay inside the budget?"""
        budget = self.config.power_budget_watts
        if budget is None or config is None:
            return True
        return self._pool_power(extra_config=config) <= budget

    def _maybe_autoscale(self, now: float) -> None:
        """Evaluate the windowed SLO/shed signals; grow or shrink once.

        Hysteresis is threefold: a full window of
        :data:`AUTOSCALE_WINDOW` completions must have accumulated,
        :data:`AUTOSCALE_COOLDOWN` simulated seconds must have passed
        since the last action, and the grow/shrink attainment thresholds
        are separated by a dead band.  After any action the window
        restarts, so one bad burst triggers at most one resize per
        window.
        """
        if len(self._slo_window) < AUTOSCALE_WINDOW:
            return
        if (
            self._last_scale_at is not None
            and now - self._last_scale_at < AUTOSCALE_COOLDOWN
        ):
            return
        attainment = sum(self._slo_window) / len(self._slo_window)
        shed_rate = self._window_sheds / (
            self._window_sheds + len(self._slo_window)
        )
        acted = False
        if attainment < GROW_BELOW_ATTAINMENT or shed_rate > 0.0:
            reason = (
                "slo_attainment"
                if attainment < GROW_BELOW_ATTAINMENT
                else "shed_rate"
            )
            acted = self._grow_pool(now, attainment, shed_rate, reason)
        elif attainment >= SHRINK_ABOVE_ATTAINMENT and shed_rate == 0.0:
            acted = self._shrink_pool(now, attainment, shed_rate)
        if acted:
            self._last_scale_at = now
            self.restart_window()

    def _grow_pool(
        self, now: float, attainment: float, shed_rate: float, reason: str
    ) -> bool:
        """Reactivate a retired shard, or build one from the pool spec.

        Growth is refused at ``max_shards``, when the priced pool power
        would exceed ``power_budget_watts``, or when there is neither a
        retired shard to reactivate nor a
        :class:`~repro.serving.cluster.ShardSpec` template to clone —
        so an unbudgeted homogeneous pool can still grow.
        """
        config, pool = self.config, self._dispatcher
        if config.max_shards is not None and pool.n_live_shards >= config.max_shards:
            return False
        offline = sorted(pool.offline_shards())
        if offline:
            shard = offline[0]
            if not self._power_admits(pool.config_of(shard)):
                return False
            pool.activate_shard(shard)
        else:
            specs = pool.specs
            if not specs:
                return False
            template = specs[-1]
            if not self._power_admits(template.config):
                return False
            shard = pool.add_shard(template)
        self._log_scaling(now, "grow", shard, reason, attainment, shed_rate)
        return True

    def _shrink_pool(
        self, now: float, attainment: float, shed_rate: float
    ) -> bool:
        """Retire the least-utilized live shard (never below min_shards).

        Retirement is graceful: the shard's horizon, traces and cached
        prefixes survive — it is only hidden from new placements, and a
        later grow reactivates it first.
        """
        live = sorted(view.index for view in self._dispatcher.shard_views())
        if len(live) <= self.config.min_shards:
            return False
        # Least busy this run; ties retire the higher index, so shard 0
        # (and with it a deterministic pool core) is retired last.
        victim = min(live, key=lambda s: (self._shard_busy.get(s, 0.0), -s))
        self._dispatcher.retire_shard(victim)
        self._log_scaling(
            now, "shrink", victim, "slo_headroom", attainment, shed_rate
        )
        return True

    def _log_scaling(
        self, now: float, action: str, shard: int, reason: str,
        attainment: float, shed_rate: float,
    ) -> None:
        self._log(
            ScalingEvent(
                at=now,
                action=action,
                shard=shard,
                reason=reason,
                slo_attainment=attainment,
                shed_rate=shed_rate,
                pool_power_watts=self._pool_power(),
            )
        )
