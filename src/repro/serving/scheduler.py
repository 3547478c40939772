"""Multi-tenant scheduling of batched inference.

The scheduler owns per-tenant request queues (grouped into batches by a
:class:`~repro.serving.batcher.BatchAssembler`) and decides, each time
the engine's scheduler loop is ready to place work, *which tenant's*
ready batch executes next.  Admission (:meth:`TenantScheduler.admit`)
is decoupled from execution: requests can join their queues at any
point — including while a previously chosen batch is still in flight
on a shard — and are considered at the next scheduling decision.

Scheduling is work-conserving and deterministic:

* batches execute in ready-time order — a batch that became ready
  earlier is never overtaken, and batch compositions/ready times are
  exactly the PR-1 drain model's (same-instant ties run in admission
  order, arbitrated by the policy across tenants);
* when several tenants have batches ready *at the same simulated
  instant* (the contended case — e.g. a same-instant burst from many
  tenants), the configured :class:`SchedulingPolicy` arbitrates.

Two policies ship:

* :class:`WeightedRoundRobin` — smooth weighted round-robin over the
  contending tenants' :attr:`~repro.serving.tenancy.TenantConfig.weight`
  shares.  Only tenants with ready work participate in a round, so an
  idle tenant neither stalls selection nor accumulates credit it could
  later burst with.
* :class:`StrictPriority` — the contending tenant with the highest
  effective priority (the max of its ready requests' priorities, which
  default to the tenant's configured priority) always wins.  Ties
  break by oldest ready batch, then tenant id — note that when the
  policy is driven by :class:`TenantScheduler`, all contenders share
  the same ready instant by construction, so engine-level ties fall
  through to tenant id; the oldest-ready key matters when the policy
  is used directly with heterogeneous ready times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.serving.batcher import Batch, BatchAssembler, OpenGroup
from repro.serving.request import InferenceRequest
from repro.serving.tenancy import TenantConfig, TenantRegistry


@dataclass(frozen=True)
class TenantCandidate:
    """One tenant's stake in a scheduling decision.

    Attributes
    ----------
    config:
        The tenant's registered scheduling contract.
    effective_priority:
        Max priority over the tenant's ready requests (requests inherit
        the tenant priority unless overridden at submit).
    oldest_ready:
        Earliest ready time among the tenant's ready batches.
    n_ready:
        Number of batches the tenant has ready.
    """

    config: TenantConfig
    effective_priority: int
    oldest_ready: float
    n_ready: int

    @property
    def tenant_id(self) -> str:
        return self.config.tenant_id


class SchedulingPolicy:
    """Arbitration among tenants whose batches are ready together."""

    name = "policy"

    def select(self, candidates: Sequence[TenantCandidate]) -> str:
        """Return the tenant_id that executes next (candidates is
        non-empty, sorted by tenant id)."""
        raise NotImplementedError


class WeightedRoundRobin(SchedulingPolicy):
    """Smooth weighted round-robin over contending tenants.

    Classic smooth-WRR: every contender's credit grows by its weight,
    the largest credit wins and is charged the round's total weight.
    Over N contended rounds a tenant with weight ``w`` of total ``W``
    wins ~``N * w / W`` of them, interleaved rather than bunched.
    Credits persist across rounds only for tenants that keep
    contending; an empty-queue tenant sits rounds out entirely.
    """

    name = "weighted_round_robin"

    def __init__(self) -> None:
        self._credit: Dict[str, float] = {}

    def select(self, candidates: Sequence[TenantCandidate]) -> str:
        contending = {c.tenant_id for c in candidates}
        # Tenants not contending drop their credit: fairness is over
        # time actually spent competing, not a bankable allowance.
        for tenant_id in list(self._credit):
            if tenant_id not in contending:
                del self._credit[tenant_id]
        total = sum(c.config.weight for c in candidates)
        best: Optional[TenantCandidate] = None
        best_credit = 0.0
        for candidate in sorted(candidates, key=lambda c: c.tenant_id):
            credit = self._credit.get(candidate.tenant_id, 0.0) + candidate.config.weight
            self._credit[candidate.tenant_id] = credit
            if best is None or credit > best_credit:
                best, best_credit = candidate, credit
        assert best is not None
        self._credit[best.tenant_id] -= total
        return best.tenant_id


class StrictPriority(SchedulingPolicy):
    """Highest effective priority wins; FIFO inside a priority level.

    The FIFO (oldest-ready) tie-break applies when the policy is driven
    directly with candidates of differing ready times; under the
    engine's scheduler every contender is tied at the same instant, so
    same-priority ties resolve by tenant id.
    """

    name = "strict_priority"

    def select(self, candidates: Sequence[TenantCandidate]) -> str:
        best = min(
            candidates,
            key=lambda c: (-c.effective_priority, c.oldest_ready, c.tenant_id),
        )
        return best.tenant_id


_POLICIES = {
    "weighted_round_robin": WeightedRoundRobin,
    "wrr": WeightedRoundRobin,
    "strict_priority": StrictPriority,
}


def make_policy(policy: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return _POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {policy!r}; "
            f"available: {sorted(set(_POLICIES))}"
        ) from None


class TenantScheduler:
    """Per-tenant queues + batch assembly + policy arbitration.

    The engine drives it as a discrete-event loop: :meth:`admit` any
    time (submission order within one simulated instant is preserved),
    then repeatedly ask :meth:`earliest_ready` for the next decision
    point and :meth:`pop_ready` for the batch to execute at it.  To the
    engine it is one work source among several — ``next_ready`` /
    ``pop`` / ``len`` — and the last in a tie: decode iterations and
    already-planned batches are older work.

    Parameters
    ----------
    tenants:
        Registry resolving tenant ids to their scheduling contracts.
    policy:
        Policy name (``"weighted_round_robin"`` / ``"strict_priority"``)
        or a :class:`SchedulingPolicy` instance.
    max_batch_size, flush_timeout:
        Batch-assembly knobs, per (tenant, model) group — see
        :class:`~repro.serving.batcher.BatchAssembler`.
    fresh:
        What :meth:`pop` hands a popped batch to:
        ``fresh(batch, ready, more) -> (work unit, views)``, where
        ``more(ready)`` pops the next batch also ready by ``ready`` (or
        returns None).  Only the engine, which executes work units,
        passes one.
    """

    def __init__(
        self,
        tenants: TenantRegistry,
        policy: Union[str, SchedulingPolicy] = "weighted_round_robin",
        max_batch_size: int = 8,
        flush_timeout: float = 1e-3,
        fresh: Optional[Callable] = None,
    ) -> None:
        self.tenants = tenants
        self.policy = make_policy(policy)
        self.assembler = BatchAssembler(max_batch_size, flush_timeout)
        self._fresh = fresh
        self._n_batches = 0

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, request: InferenceRequest) -> None:
        """Queue one request under its tenant (any time, in-flight ok)."""
        self.tenants.get(request.tenant)  # materialise the tenant
        self.assembler.admit(request)

    def __len__(self) -> int:
        return self.assembler.n_pending

    def tenant_pending(self, tenant: str) -> int:
        """One tenant's queued (admitted, unexecuted) request count.

        The admission-control engine checks this against the tenant's
        ``max_queue_depth`` before admitting.
        """
        return self.assembler.pending_of(tenant)

    # ------------------------------------------------------------------
    # Scheduling decisions
    # ------------------------------------------------------------------
    def earliest_ready(self) -> Optional[float]:
        """Next simulated time a batch is ready (None when idle)."""
        return self.assembler.earliest_ready()

    next_ready = earliest_ready

    def pop(self, ready: float):
        """The work unit (and the views it was planned on, if any) of
        the batch to execute at ``ready``."""
        return self._fresh(self.pop_ready(ready), ready, self._pop_also_ready)

    def _pop_also_ready(self, ready: float) -> Optional[Batch]:
        """The next batch that is ready by ``ready`` too, or None."""
        at = self.assembler.earliest_ready()
        return None if at is None or at > ready else self.pop_ready(at)

    def pop_ready(self, now: float) -> Optional[Batch]:
        """The batch to execute at ``now`` (None if nothing is ready).

        Groups ready strictly before ``now`` come first (ready-time
        order); the policy arbitrates only among tenants tied at the
        earliest ready instant.
        """
        ready = self.assembler.ready_groups(now)
        if not ready:
            return None
        first_ready = ready[0].ready_time(self.assembler.flush_timeout)
        contenders = [
            g
            for g in ready
            if g.ready_time(self.assembler.flush_timeout) == first_ready
        ]
        group = self._arbitrate(contenders, first_ready)
        batch = self.assembler.pop(group, index=self._n_batches)
        self._n_batches += 1
        return batch

    def next_batch_index(self) -> int:
        """Claim the next engine-wide batch index.

        Decode iterations are formed by the engine's generation pool,
        not popped from the assembler, but they share this counter so
        ``(shard, batch_index)`` pairs stay unique across every kind of
        batch in one run.
        """
        index = self._n_batches
        self._n_batches += 1
        return index

    def _request_priority(self, request: InferenceRequest) -> int:
        """Effective priority: explicit on the request, else the
        tenant's configured priority *now* (lazy, like WRR weights, so
        registering a tenant after submitting still takes effect)."""
        if request.priority is not None:
            return request.priority
        return self.tenants.get(request.tenant).priority

    def _group_priority(self, group: OpenGroup) -> int:
        return max(self._request_priority(r) for r in group.requests)

    def _pick(self, groups: List[OpenGroup]) -> OpenGroup:
        """Within one tenant: highest-priority group first, then FIFO.

        A tenant that wins arbitration on the strength of a
        high-priority request must execute *that* group, not its
        oldest one — otherwise a low-priority batch could ride ahead
        of another tenant's higher-priority work.  With uniform
        priorities (the default) this is plain seq/FIFO order.
        """
        return min(
            groups,
            key=lambda g: (-self._group_priority(g), g.seq),
        )

    def _arbitrate(self, groups: List[OpenGroup], at: float) -> OpenGroup:
        by_tenant: Dict[str, List[OpenGroup]] = {}
        for group in groups:
            by_tenant.setdefault(group.tenant, []).append(group)
        # Always consult the policy, even for a lone contender: WRR's
        # stale-credit cleanup must observe solo rounds, or an idle
        # tenant's banked credit would survive a gap in which exactly
        # one tenant was active.
        candidates = []
        for tenant_id in sorted(by_tenant):
            tenant_groups = by_tenant[tenant_id]
            candidates.append(
                TenantCandidate(
                    config=self.tenants.get(tenant_id),
                    effective_priority=max(
                        self._group_priority(g) for g in tenant_groups
                    ),
                    oldest_ready=at,
                    n_ready=len(tenant_groups),
                )
            )
        winner = self.policy.select(candidates)
        return self._pick(by_tenant[winner])
