"""Tenant identities, shares and latency targets.

A *tenant* is one customer of the serving engine: a stream of requests
with its own queue, a fair-share **weight** (consumed by the
weighted-round-robin policy), a strict **priority** (consumed by the
strict-priority policy), and an optional **latency SLO** the report
scores attainment against.

The single-tenant API of PR 1 survives unchanged as a shim: requests
submitted without a tenant land on :data:`DEFAULT_TENANT`, which the
registry materialises on first use with weight 1, priority 0 and no
SLO — one implicit tenant behaves exactly like no tenancy at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: Tenant id used when a request is submitted without one.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantConfig:
    """Scheduling contract of one tenant.

    Attributes
    ----------
    tenant_id:
        Stable identifier; also the trace-label namespace the engine
        attributes this tenant's cycles under.
    weight:
        Relative share under the weighted-round-robin policy
        (must be > 0).  A weight-3 tenant contending with a weight-1
        tenant is picked for ~3 of every 4 ready batches.
    priority:
        Rank under the strict-priority policy; higher runs first.
        Individual requests may override it at submit time.
    slo_latency:
        Target arrival-to-completion latency in simulated seconds.
        When set, requests without an explicit deadline are scored
        against ``arrival + slo_latency`` in the report's SLO section.
    max_queue_depth:
        Admission control: the most requests this tenant may have
        queued (admitted, not yet executed) at once.  A request
        arriving above the cap is *shed* — never executed, reported
        under :attr:`~repro.serving.report.ServingReport.shed_count`.
        ``None`` (default) disables the cap.
    shed_doomed:
        Admission control: when True, a request whose effective
        deadline (explicit, else ``arrival + slo_latency``) cannot be
        met even starting immediately on the fastest shard is shed at
        admit time instead of wasting pool cycles on an answer that
        scores as a miss.  Default False: deadlines stay
        accounting-only, the pre-admission-control behaviour.
    """

    tenant_id: str
    weight: float = 1.0
    priority: int = 0
    slo_latency: Optional[float] = None
    max_queue_depth: Optional[int] = None
    shed_doomed: bool = False

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be a non-empty string")
        if not self.weight > 0:
            raise ValueError(
                f"tenant {self.tenant_id!r} weight must be > 0, got {self.weight}"
            )
        if self.slo_latency is not None and self.slo_latency <= 0:
            raise ValueError(
                f"tenant {self.tenant_id!r} slo_latency must be > 0, "
                f"got {self.slo_latency}"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                f"tenant {self.tenant_id!r} max_queue_depth must be >= 1, "
                f"got {self.max_queue_depth}"
            )


def effective_deadline(request, tenants) -> Optional[float]:
    """Explicit deadline, else arrival + the tenant's SLO, else None.

    The one resolution rule admission, retry triage, the autoscaler
    window and the report's SLO accounting share.  ``tenants`` is
    anything with ``get(tenant_id)``: the engine's
    :class:`TenantRegistry` or a report's ``{id: TenantConfig}`` dict
    (an unknown tenant has no SLO).
    """
    if request.deadline is not None:
        return request.deadline
    config = tenants.get(request.tenant)
    if config is not None and config.slo_latency is not None:
        return request.arrival + config.slo_latency
    return None


class TenantRegistry:
    """Known tenants, with get-or-default semantics.

    Unregistered tenant ids are materialised with default
    :class:`TenantConfig` on first lookup, so the legacy single-tenant
    API (everything on :data:`DEFAULT_TENANT`) needs no registration
    step, and a new tenant id seen at submit time is admitted with
    weight 1 / priority 0 until configured explicitly.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantConfig] = {}

    def register(self, config: TenantConfig) -> TenantConfig:
        """Add or replace one tenant's config; returns it."""
        self._tenants[config.tenant_id] = config
        return config

    def get(self, tenant_id: str) -> TenantConfig:
        """Config for ``tenant_id``, materialising a default entry."""
        config = self._tenants.get(tenant_id)
        if config is None:
            config = TenantConfig(tenant_id=tenant_id)
            self._tenants[tenant_id] = config
        return config

    def configured(self) -> Dict[str, TenantConfig]:
        """Snapshot of every known tenant's config."""
        return dict(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants
