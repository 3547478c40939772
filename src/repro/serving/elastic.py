"""The elastic cluster runtime: controller and steal records.

The elastic runtime is two engine behaviors layered over placement,
both off by default (the defaults are regression-pinned bit-identical
to the pre-elastic engine):

* **look-ahead placement** (``placement="lookahead"`` — the placement
  policy *is* the switch) — fresh batches that are ready at the same
  scheduling instant are planned *jointly* by
  :class:`~repro.serving.cluster.LookaheadPlacement` list scheduling
  instead of committed one by one at the greedy earliest finish;
* **work-stealing / re-placement** (``steal=True``) — a planned batch
  whose shard has drifted (actual traced cycles diverged from the
  calibrated estimate beyond :data:`STEAL_DRIFT_THRESHOLD`) is
  re-priced at execution time and migrates to the shard that now
  finishes it earliest; prefix-cache affinity is
  consulted, and when affinity and load conflict beyond
  :data:`AFFINITY_BREAK_FACTOR` the cache *entry* migrates with the
  batch (:meth:`~repro.serving.prefix_cache.RadixKVCache.migrate`)
  instead of pinning it.

The pool itself is fixed when the engine is built: shards and design
points never come or go during a run.  The thresholds are
module constants, not knobs: nothing searches them and no deployment
has needed another value.  :class:`ElasticController` runs both
behaviors for the engine and owns their state: the planned round (one
of the engine's work sources) and the per-shard drift statistics.
Every steal leaves a :class:`StealEvent` record, surfaced in
:meth:`~repro.serving.report.ServingReport.elastic_section`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.serving.cluster import (
    BatchProfile,
    LookaheadPlacement,
    PlacementPolicy,
    ShardView,
    WorkUnit,
    estimated_finish,
)
from repro.serving.stats import ShardStats


#: Steal a planned batch when its shard's drift-corrected ETA exceeds the
#: best alternative's by more than this factor: 50% worse, so a drift
#: EWMA wobbling around 1 never moves work, and a real straggler does.
STEAL_DRIFT_THRESHOLD = 1.5
#: A prefix-resident batch leaves its shard (the cache entry migrating
#: with it) only past this factor: higher than the drift
#: threshold, since staying keeps a cache hit a move must pay to carry.
AFFINITY_BREAK_FACTOR = 2.0
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
    #: wrong) or ``"affinity"`` (prefix affinity broken by load, entry
    #: migrated).
    reason: str
    #: ETA on the planned shard vs on the shard stolen to, at decision
    #: time — the imbalance the steal removed.
    planned_eta: float = 0.0
    stolen_eta: float = 0.0
    #: True when a K/V cache entry moved along with the batch.
    cache_migrated: bool = False


class ElasticController:
    """Runs the elastic runtime for one engine and owns its state.

    As one of the engine's work sources (``next_ready`` / ``pop``) it
    is the planned round: the ``(batch, shard, profile)`` triples a
    look-ahead round assigned and nothing executed yet, a FIFO in plan
    order; a planned batch (older) tied with a fresh one runs first.
    Rounds are planned iff ``placement`` — unwrapped from
    :class:`~repro.serving.cluster.PrefixAffinePlacement` — is a
    :class:`~repro.serving.cluster.LookaheadPlacement`.

    ``steal`` switches work-stealing on, ``log`` is the event sink,
    ``views()`` the pool's shard views,
    ``profile_of(batch)`` a batch's placement profile (None for a
    generation prefill) and ``unit_of(batch, shard, profile)`` its unit.
    """

    def __init__(
        self, steal: bool, placement: PlacementPolicy, log: Callable, kv_cache,
        views: Callable, profile_of: Callable, unit_of: Callable,
    ) -> None:
        self.steal = steal
        planner = getattr(placement, "inner", placement)
        self._planner = planner if isinstance(planner, LookaheadPlacement) else None
        # Drift is priced under look-ahead rounds or stealing.
        self._prices_drift = self._planner is not None or steal
        self._log = log
        self._kv_cache = kv_cache
        self._views = views
        self._profile_of = profile_of
        self._unit_of = unit_of
        self._planned: Deque[Tuple[object, Optional[int], Optional[BatchProfile]]] = deque()
        #: Per-shard live stats (the drift EWMA stealing reads;
        #: cumulative over the engine's runs).
        self.shard_stats: Dict[int, ShardStats] = {}

    # ------------------------------------------------------------------
    # The planned round, as a work source
    # ------------------------------------------------------------------
    def next_ready(self) -> Optional[float]:
        return self._planned[0][0].ready_time if self._planned else None

    def pop(self, ready: float):
        return self._unit_of(*self._planned.popleft()), None

    def fresh(self, first, ready: float, more: Callable[[float], object]):
        """The unit (and views) of a batch the scheduler just popped.

        Under look-ahead placement ``first`` opens a scheduling round:
        every further batch ``more(ready)`` yields (ready at the same
        instant) is harvested, the round is planned jointly and queued,
        and the queue's head executes.  Nothing commits between planning
        a round and executing the queue's head (this round's first unit,
        or one left over from an earlier round), so it is placed on the
        views the round was planned on.
        """
        if self._planner is None:
            return self._unit_of(first), None
        views = self._plan_round(first, ready, more)
        return self._unit_of(*self._planned.popleft()), views

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
        views = self._views()
        profiles = [self._profile_of(batch) for batch in batches]
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
        self, shard: int, profile: BatchProfile, array, duration: float, reused: bool
    ) -> None:
        """One unit committed on ``shard``.  The shard's drift EWMA
        learns from full executions only: a prefix hit's suffix-only
        timing would read as phantom speedup against full-cost estimates
        (the calibrator excludes hits for the same reason)."""
        estimate = None
        if self._prices_drift and array is not None and not reused:
            estimate = profile.service_seconds(array.config, array.config.clock_hz)
        self._stats_of(shard).observe(duration, estimate)

    def _stats_of(self, shard: int) -> ShardStats:
        stats = self.shard_stats.get(shard)
        if stats is None:
            stats = self.shard_stats[shard] = ShardStats()
        return stats

    def resolve(self, unit: WorkUnit, views: List[ShardView]) -> int:
        """Hold or steal: re-validate a planned placement at execution.

        The look-ahead plan priced the round with calibrated estimates;
        by the time this batch reaches the head of the queue the planned
        shard's measured drift (EWMA of actual vs estimated service) may
        have blown the estimate.  With
        ``steal`` on, the batch is re-priced against every shard with
        drift-corrected ETAs and migrates when the planned
        shard's ETA exceeds the best alternative's by
        :data:`STEAL_DRIFT_THRESHOLD` (:data:`AFFINITY_BREAK_FACTOR` when
        the planned shard holds the batch's prefix — the cache entry then
        moves to the new shard's store with the batch, preserving the
        hit).  With stealing off the plan is honored unconditionally.
        """
        profile, planned_shard = unit.profile, unit.planned_shard
        ready = profile.ready_time
        if not self.steal:
            return planned_shard

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
