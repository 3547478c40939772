"""Serving-level performance report.

Aggregates one :meth:`InferenceEngine.run` into the metrics a serving
operator watches: latency percentiles, request throughput, the cycle
cost per request summed over every shard's array trace — and, per
tenant, the same latency view plus cycle attribution (from the tenant
trace namespaces), deadline misses and SLO attainment.

The tenant cycle account is exact: every batch executes inside its
tenant's trace namespace, so :attr:`ServingReport.tenant_cycles` sums
to :attr:`ServingReport.total_cycles` — cycles are attributed, never
double-counted or dropped, from the trace aggregates alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serving.cluster import PlacementDecision
from repro.serving.elastic import StealEvent
from repro.serving.generation import DecodeStepRecord
from repro.serving.prefix_cache import PrefixEvent
from repro.serving.request import CompletedRequest, ShedRecord
from repro.serving.tenancy import DEFAULT_TENANT, TenantConfig, effective_deadline


#: The record types of :attr:`ServingReport.events` — the five frozen
#: dataclasses the engine logs are the event types.
EVENT_TYPES = (
    PlacementDecision, ShedRecord, PrefixEvent, DecodeStepRecord, StealEvent,
)


def _count_by_reason(records) -> Dict[str, int]:
    """Record counts grouped by their ``reason`` field."""
    return dict(Counter(record.reason for record in records))


def _view(kind: type, doc: str) -> property:
    """Read-only view of :attr:`ServingReport.events`: the records of
    one type, in log order."""
    return property(lambda report: report._events_by_type[kind], doc=doc)


@dataclass(frozen=True)
class ServingReport:
    """Summary of one engine run.

    Attributes
    ----------
    completed:
        Every finished request with placement and timing.
    shard_cycles:
        Traced cycles per hardware-routed shard, summed over the run.
    wall_seconds:
        Host wall-clock time the run took (simulation cost, *not* the
        modelled latency).
    tenant_cycles:
        Traced cycles attributed to each tenant (via the per-tenant
        trace namespaces); sums to :attr:`total_cycles`.
    tenants:
        Scheduling contracts of the tenants known to the engine
        (weights, priorities, SLO targets) for the SLO section.
    events:
        The run's one event log: every record the engine wrote, in the
        order it decided them, each an instance of one of the five
        frozen record dataclasses in :data:`EVENT_TYPES`.  Order
        *across* kinds is meaningful: a batch's steal precedes its
        placement, which is directly followed by that batch's prefix
        event or decode step.
    placements, shed, prefix_events, generation_steps, steals:
        Read-only views of :attr:`events` — the records of one type, in
        log order (one line each where they are defined below).
    shard_busy:
        Simulated seconds each shard spent executing during the run
        (keys cover the whole pool, idle shards at 0.0) — the basis of
        :meth:`shard_utilization` and :meth:`imbalance`.
    placement_policy:
        Name of the placement policy that made the decisions.
    cache_stats:
        Snapshot of the engine's caches after the run, one
        :meth:`repro.store.InProcessLRU.stats` dict per namespace (K/V
        cache shards, parameter caches).
    """

    completed: Tuple[CompletedRequest, ...]
    shard_cycles: Dict[int, int]
    wall_seconds: float
    tenant_cycles: Dict[str, int] = field(default_factory=dict)
    tenants: Dict[str, TenantConfig] = field(default_factory=dict)
    events: Tuple[object, ...] = ()
    shard_busy: Dict[int, float] = field(default_factory=dict)
    placement_policy: str = "round_robin"
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # -- the event log's typed views ------------------------------------
    @cached_property
    def _events_by_type(self) -> Dict[type, tuple]:
        """One bucketing pass; reports are immutable so caching is safe."""
        buckets: Dict[type, list] = {kind: [] for kind in EVENT_TYPES}
        for event in self.events:
            buckets[type(event)].append(event)
        return {kind: tuple(bucket) for kind, bucket in buckets.items()}

    placements = _view(PlacementDecision, "Placement decisions, one per executed batch.")
    shed = _view(ShedRecord, "Requests refused at admission, never executed.")
    prefix_events = _view(PrefixEvent, "Cache decisions, one per prefix-keyed batch.")
    generation_steps = _view(DecodeStepRecord, "Decode iterations, one per step.")
    steals = _view(StealEvent, "Queued batches migrated between shards.")

    # -- request-level views --------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.completed)

    @property
    def latencies(self) -> np.ndarray:
        """Per-request simulated latencies, seconds."""
        return np.array([c.latency for c in self.completed], dtype=np.float64)

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile of request latency (seconds)."""
        if not self.completed:
            return 0.0
        return float(np.percentile(self.latencies, q))

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p90(self) -> float:
        return self.latency_percentile(90.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    # -- run-level views ------------------------------------------------
    @property
    def makespan(self) -> float:
        """First arrival to last completion, simulated seconds."""
        if not self.completed:
            return 0.0
        first = min(c.request.arrival for c in self.completed)
        last = max(c.finish for c in self.completed)
        return last - first

    @property
    def throughput_rps(self) -> float:
        """Requests per simulated second over the makespan."""
        span = self.makespan
        return self.n_requests / span if span > 0 else 0.0

    @property
    def total_cycles(self) -> int:
        return sum(self.shard_cycles.values())

    @property
    def cycles_per_request(self) -> float:
        return self.total_cycles / self.n_requests if self.completed else 0.0

    @property
    def n_batches(self) -> int:
        return len({(c.shard, c.batch_index) for c in self.completed})

    @property
    def mean_batch_size(self) -> float:
        return self.n_requests / self.n_batches if self.n_batches else 0.0

    # -- placement / admission views ------------------------------------
    @property
    def shed_count(self) -> int:
        """Requests refused at admission during this run."""
        return len(self.shed)

    def tenant_shed(self, tenant: str) -> int:
        """One tenant's shed-request count."""
        return sum(1 for record in self.shed if record.request.tenant == tenant)

    def shed_by_reason(self) -> Dict[str, int]:
        """Shed counts grouped by admission-control reason."""
        return _count_by_reason(self.shed)

    def shard_utilization(self) -> Dict[int, float]:
        """Busy fraction of the run's makespan, per shard.

        1.0 means the shard executed for the entire span between the
        first arrival and the last completion; heterogeneous pools
        under blind placement typically show fast shards far below it.
        """
        span = self.makespan
        if span <= 0:
            return {shard: 0.0 for shard in self.shard_busy}
        return {
            shard: busy / span for shard, busy in sorted(self.shard_busy.items())
        }

    def imbalance(self) -> float:
        """Max-over-mean shard busy time (1.0 = perfectly balanced).

        The load-skew metric of the placement section: a 4-shard pool
        where one shard does all the work scores 4.0.  Returns 0.0
        when nothing ran.
        """
        if not self.shard_busy:
            return 0.0
        busy = list(self.shard_busy.values())
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 0.0

    def utilization_spread(self) -> Optional[float]:
        """Max-over-min shard busy time (the bench's balance gate).

        1.0 = perfectly balanced; ``inf`` when a shard sat completely
        idle while another worked — the greedy-concentration pathology
        the elastic runtime removes.  None for single-shard pools or
        when nothing ran.
        """
        if len(self.shard_busy) < 2:
            return None
        busy = list(self.shard_busy.values())
        if max(busy) <= 0:
            return None
        low = min(busy)
        return float("inf") if low <= 0 else max(busy) / low

    def placement_section(self) -> str:
        """Per-shard block of the summary: decisions, busy, utilization."""
        lines = [
            f"placement            : {self.placement_policy} "
            f"({len(self.placements)} decisions)"
        ]
        batches_on = {shard: 0 for shard in self.shard_busy}
        for decision in self.placements:
            batches_on[decision.shard] = batches_on.get(decision.shard, 0) + 1
        utilization = self.shard_utilization()
        for shard in sorted(self.shard_busy):
            lines.append(
                f"  shard {shard} placement : {batches_on.get(shard, 0)} batches, "
                f"busy {self.shard_busy[shard] * 1e6:,.1f} us "
                f"(util {utilization.get(shard, 0.0):.0%})"
            )
        if len(self.shard_busy) > 1:
            lines.append(
                f"  imbalance          : {self.imbalance():.2f} (max/mean busy)"
            )
        if self.shed:
            reasons = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(self.shed_by_reason().items())
            )
            lines.append(f"  requests shed      : {self.shed_count} ({reasons})")
        return "\n".join(lines)

    # -- prefix-cache views ----------------------------------------------
    @property
    def prefix_hits(self) -> int:
        """Prefix-keyed batches served from a cached prompt."""
        return sum(1 for event in self.prefix_events if event.hit)

    @property
    def prefix_misses(self) -> int:
        """Prefix-keyed batches that executed cold (and seeded the cache)."""
        return sum(1 for event in self.prefix_events if not event.hit)

    @property
    def prefix_hit_rate(self) -> float:
        """Hit fraction over prefix-keyed batches (0.0 when none ran)."""
        total = len(self.prefix_events)
        return self.prefix_hits / total if total else 0.0

    @property
    def prefix_cycles_saved(self) -> int:
        """Traced cycles the run's cache hits skipped (closed form).

        Exact by construction: a hit executes the suffix-only shapes,
        whose traced delta against cold execution is the same closed
        form (:func:`~repro.nn.workload.transformer_prefix_savings`)
        each event carries.
        """
        return sum(event.cycles_saved for event in self.prefix_events)

    def tenant_prefix_reuse(self, tenant: str) -> Dict[str, int]:
        """One tenant's reuse account: requests/batches hit and cycles saved."""
        hits = misses = requests_reused = cycles = 0
        for event in self.prefix_events:
            if event.tenant != tenant:
                continue
            if event.hit:
                hits += 1
                requests_reused += event.batch_size
                cycles += event.cycles_saved
            else:
                misses += 1
        return {
            "hit_batches": hits,
            "miss_batches": misses,
            "requests_reused": requests_reused,
            "cycles_saved": cycles,
        }

    def prefix_section(self) -> str:
        """Prefix-cache block of the summary."""
        total = self.total_cycles
        saved = self.prefix_cycles_saved
        cold_equiv = total + saved
        lines = [
            f"prefix cache         : {self.prefix_hits} hit / "
            f"{self.prefix_misses} miss batches "
            f"({self.prefix_hit_rate:.0%} hit rate)",
            f"  cycles saved       : {saved:,} "
            f"({saved / cold_equiv:.0%} of cold-equivalent work)"
            if cold_equiv
            else "  cycles saved       : 0",
        ]
        for tenant in sorted({event.tenant for event in self.prefix_events}):
            reuse = self.tenant_prefix_reuse(tenant)
            lines.append(
                f"  tenant {tenant!r} reuse : "
                f"{reuse['hit_batches']} hit batches "
                f"({reuse['requests_reused']} requests), "
                f"{reuse['cycles_saved']:,} cycles saved"
            )
        return "\n".join(lines)

    def cache_section(self) -> str:
        """Cache-fabric block of the summary: one line per namespace.

        Every cache the engine owns — per-shard K/V stores, parameter
        caches — reports through the same store-stats schema, so the
        section is a uniform table instead of per-subsystem formats.
        """
        if not self.cache_stats:
            return "cache fabric         : (no cache activity recorded)"
        lines = ["cache fabric         :"]
        for namespace in sorted(self.cache_stats):
            stats = self.cache_stats[namespace]
            hits = stats.get("hits", 0)
            misses = stats.get("misses", 0)
            total = hits + misses
            rate = f" ({hits / total:.0%} hit rate)" if total else ""
            lines.append(
                f"  {namespace:<24s}: {stats.get('entries', 0)} entries, "
                f"{stats.get('bytes', 0):,} bytes, "
                f"{hits} hit / {misses} miss{rate}, "
                f"{stats.get('evictions', 0)} evicted"
            )
        return "\n".join(lines)

    #: Admitted requests the run did not complete.  Always 0: one
    #: engine completes or sheds every request it admits.  Kept because
    #: callers read it beside :attr:`shed_count`.
    failed_count = 0

    # -- elastic-runtime views --------------------------------------------
    @property
    def steal_count(self) -> int:
        """Queued batches migrated between shards during the run."""
        return len(self.steals)

    def steals_by_reason(self) -> Dict[str, int]:
        """Steal counts grouped by trigger (drift / affinity)."""
        return _count_by_reason(self.steals)

    @property
    def has_elastic_activity(self) -> bool:
        return bool(self.steals)

    def elastic_section(self) -> str:
        """Elastic-runtime block: steals, and the per-shard / per-model
        stats descriptor tree stealing reads."""
        from repro.serving.stats import cluster_desc, render_cluster_desc

        lines = []
        if self.steals:
            reasons = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(self.steals_by_reason().items())
            )
            migrated = sum(1 for steal in self.steals if steal.cache_migrated)
            lines.append(
                f"work stealing        : {self.steal_count} batches re-placed "
                f"({reasons}; {migrated} cache migrations)"
            )
        tree = render_cluster_desc(cluster_desc(self))
        lines.append("cluster stats        :")
        lines.extend("  " + line for line in tree.split("\n"))
        return "\n".join(lines)

    # -- generation views ------------------------------------------------
    @cached_property
    def generation_completed(self) -> Tuple[CompletedRequest, ...]:
        """Completed generation requests (outputs are token rows)."""
        return tuple(
            c for c in self.completed if c.request.generation is not None
        )

    @property
    def decode_steps(self) -> int:
        """Decode iterations executed during the run."""
        return len(self.generation_steps)

    @property
    def generated_tokens(self) -> int:
        """Tokens produced by completed generation requests."""
        return sum(len(c.outputs) for c in self.generation_completed)

    @property
    def has_generation_activity(self) -> bool:
        return bool(self.generation_steps or self.generation_completed)

    def generation_makespan(self) -> float:
        """First generation arrival to last generation finish (sim s)."""
        records = self.generation_completed
        if not records:
            return 0.0
        first = min(c.request.arrival for c in records)
        last = max(c.finish for c in records)
        return last - first

    def tokens_per_second(self) -> float:
        """Generated-token throughput over the generation makespan,
        in *simulated* time."""
        span = self.generation_makespan()
        if span <= 0.0:
            return 0.0
        return self.generated_tokens / span

    def tenant_tokens(self) -> Dict[str, int]:
        """Generated-token counts per tenant (completed requests)."""
        counts: Dict[str, int] = {}
        for c in self.generation_completed:
            counts[c.request.tenant] = counts.get(c.request.tenant, 0) + len(
                c.outputs
            )
        return counts

    def generation_section(self) -> str:
        """Continuous-batching block of the summary.

        Decode iterations and their mean batch size, completed
        sequences and token totals, token throughput in simulated
        time, decode-attributed cycles, and per-tenant token counts.
        """
        steps = self.generation_steps
        mean_batch = (
            sum(s.batch_size for s in steps) / len(steps) if steps else 0.0
        )
        decode_cycles = sum(s.cycles for s in steps)
        lines = [
            f"decode iterations    : {len(steps)} "
            f"(mean batch size {mean_batch:.2f})",
            f"  sequences          : {len(self.generation_completed)} completed, "
            f"{self.generated_tokens} tokens",
            f"  token throughput   : {self.tokens_per_second():.1f} tokens/s "
            f"(simulated)",
            f"  decode cycles      : {decode_cycles}",
        ]
        tokens = self.tenant_tokens()
        if tokens:
            per_tenant = ", ".join(
                f"{tenant} {count}" for tenant, count in sorted(tokens.items())
            )
            lines.append(f"  tenant tokens      : {per_tenant}")
        return "\n".join(lines)

    # -- per-tenant views -----------------------------------------------
    @cached_property
    def _completed_by_tenant(self) -> Dict[str, List[CompletedRequest]]:
        """One-pass grouping; reports are immutable so caching is safe."""
        groups: Dict[str, List[CompletedRequest]] = {}
        for record in self.completed:
            groups.setdefault(record.request.tenant, []).append(record)
        return groups

    @property
    def tenant_ids(self) -> List[str]:
        """Tenants that appear in this run, sorted."""
        seen = set(self._completed_by_tenant)
        seen.update(self.tenant_cycles)
        return sorted(seen)

    def tenant_completed(self, tenant: str) -> List[CompletedRequest]:
        """This tenant's finished requests."""
        return list(self._completed_by_tenant.get(tenant, ()))

    def tenant_latencies(self, tenant: str) -> np.ndarray:
        """This tenant's simulated latencies, seconds."""
        return np.array(
            [c.latency for c in self._completed_by_tenant.get(tenant, ())],
            dtype=np.float64,
        )

    def tenant_percentile(self, tenant: str, q: float) -> float:
        """The ``q``-th latency percentile within one tenant."""
        latencies = self.tenant_latencies(tenant)
        if latencies.size == 0:
            return 0.0
        return float(np.percentile(latencies, q))

    def _deadline_met(self, records) -> List[bool]:
        """One met/missed flag per deadline-carrying record of
        ``records`` (see :func:`~repro.serving.tenancy.effective_deadline`)."""
        return [
            record.finish <= due
            for record in records
            if (due := effective_deadline(record.request, self.tenants)) is not None
        ]

    def deadline_misses(self, tenant: str) -> int:
        """Requests that finished after their effective deadline."""
        met = self._deadline_met(self._completed_by_tenant.get(tenant, ()))
        return len(met) - sum(met)

    def slo_attainment(self, tenant: str) -> Optional[float]:
        """Fraction of the tenant's requests that met their deadline.

        None when the tenant has no deadline-carrying requests (no
        per-request deadlines and no configured SLO).
        """
        met = self._deadline_met(self._completed_by_tenant.get(tenant, ()))
        return sum(met) / len(met) if met else None

    def objective_section(self) -> Dict[str, object]:
        """Machine-readable run summary for replay scoring.

        One flat dict instead of three report sections to scrape —
        what :func:`repro.autotune.objective_from_report` reads when a
        trace replay is collapsed into an objective tuple:

        * ``slo_attainment`` — fraction of *all* deadline-carrying
          completed requests that met their effective deadline
          (explicit deadline, else tenant SLO), across tenants; None
          when nothing carried a deadline;
        * ``shed`` / ``n_requests`` — refused and completed counts;
          ``shed_rate`` is shed over everything the run was asked to
          serve;
        * ``p50`` / ``p99`` — request latency percentiles, simulated
          seconds;
        * ``tokens_per_second`` — generated-token throughput in
          simulated time (0.0 without generation traffic);
        * ``total_cycles`` — traced array cycles across all shards.
        """
        met = self._deadline_met(self.completed)
        offered = self.n_requests + self.shed_count
        return {
            "slo_attainment": sum(met) / len(met) if met else None,
            "shed": self.shed_count,
            "shed_rate": self.shed_count / offered if offered else 0.0,
            "n_requests": self.n_requests,
            "p50": self.p50,
            "p99": self.p99,
            "tokens_per_second": self.tokens_per_second(),
            "total_cycles": self.total_cycles,
        }

    def slo_section(self) -> str:
        """Per-tenant block of the summary: share, latency, SLO."""
        total = self.total_cycles
        lines = []
        for tenant in self.tenant_ids:
            records = self._completed_by_tenant.get(tenant, ())
            cycles = self.tenant_cycles.get(tenant, 0)
            share = cycles / total if total else 0.0
            config = self.tenants.get(tenant)
            lines.append(
                f"tenant {tenant!r}: {len(records)} requests, "
                f"{cycles:,} cycles ({share:.0%} of pool)"
            )
            if records:
                lines.append(
                    f"  latency p50/p99    : "
                    f"{self.tenant_percentile(tenant, 50.0) * 1e6:,.1f} / "
                    f"{self.tenant_percentile(tenant, 99.0) * 1e6:,.1f} us"
                )
            # One list of flags, so the printed miss count and
            # attainment percentage can never disagree.
            met = self._deadline_met(records)
            if met:
                target = (
                    f" (target {config.slo_latency * 1e6:,.1f} us)"
                    if config is not None and config.slo_latency is not None
                    else ""
                )
                lines.append(
                    f"  SLO attainment     : {sum(met) / len(met):.0%}"
                    f"{target}, {len(met) - sum(met)} missed"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        """Paper-artifact-style text table of the serving run."""
        lines = [
            f"requests served      : {self.n_requests}",
            f"batches executed     : {self.n_batches} "
            f"(mean size {self.mean_batch_size:.2f})",
            f"throughput           : {self.throughput_rps:,.0f} req/s (simulated)",
            f"latency p50/p90/p99  : {self.p50 * 1e6:,.1f} / "
            f"{self.p90 * 1e6:,.1f} / {self.p99 * 1e6:,.1f} us",
            f"cycles per request   : {self.cycles_per_request:,.0f}",
        ]
        for shard in sorted(self.shard_cycles):
            lines.append(
                f"  shard {shard} cycles    : {self.shard_cycles[shard]:,}"
            )
        # Placement block whenever there was a pool to balance over or
        # admission control refused anything.
        if len(self.shard_busy) > 1 or self.shed:
            lines.append(self.placement_section())
        if self.prefix_events:
            lines.append(self.prefix_section())
        if self.cache_stats:
            lines.append(self.cache_section())
        if self.has_generation_activity:
            lines.append(self.generation_section())
        if self.has_elastic_activity:
            lines.append(self.elastic_section())
        tenant_ids = self.tenant_ids
        # Per-tenant block for any named tenant, or whenever deadlines
        # were in play (even on the implicit default tenant).
        if tenant_ids and (
            tenant_ids != [DEFAULT_TENANT]
            or self._deadline_met(self.completed)
        ):
            lines.append(self.slo_section())
        lines.append(f"host wall time       : {self.wall_seconds * 1e3:,.1f} ms")
        return "\n".join(lines)
