"""Per-shard / per-model stats descriptor tree feeding elastic decisions.

The elastic runtime needs one telemetry shape two consumers agree on:
look-ahead placement and work-stealing read per-shard drift (how far
actual traced cycles run from calibrated estimates), and the report
renders the whole picture for humans.  This module provides both:

* :class:`ShardStats` — the live per-shard drift EWMA the engine
  updates after every executed batch and steals trigger on (cycle,
  busy and steal tallies are read off the report's log);
* :func:`cluster_desc` / :func:`render_cluster_desc` — a nested
  ``{type, stats, sinks}`` descriptor tree (cluster → shards → model
  endpoints) built from a finished
  :class:`~repro.serving.report.ServingReport`, rendered with the
  ``net_desc``/``render_net_desc`` aggregation idiom: one stats line
  per node, children indented under ``↳`` with ``|`` continuation
  rails.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class ShardStats:
    """Live drift of one shard's execution.

    ``drift`` is an exponentially weighted moving average of
    ``actual / estimated`` service seconds over the shard's priced
    batches — 1.0 means the calibrated cost model prices this shard
    perfectly, 2.0 means work takes twice the estimate (a cost model
    that misprices the shard, a stale calibration).  It is a ratio of
    *seconds*, not cycles: the time a batch took on the shard's
    timeline against the time its estimate priced.
    Work-stealing scales a planned shard's ETA by its drift before
    deciding whether a queued batch should migrate.  Batch, cycle and
    busy tallies are read off the report's log (see
    :func:`cluster_desc`).
    """

    __slots__ = ("drift",)

    #: EWMA smoothing weight of the newest observation.
    ALPHA = 0.25

    def __init__(self) -> None:
        self.drift = 1.0

    def observe(self, duration: float, estimated_seconds: Optional[float] = None) -> None:
        """Fold one executed batch into the drift, when it was priced."""
        if estimated_seconds is not None and estimated_seconds > 0 and duration > 0:
            self.drift += self.ALPHA * (duration / estimated_seconds - self.drift)


# ---------------------------------------------------------------------------
# Descriptor tree over a finished report
# ---------------------------------------------------------------------------
def render_stats(stats: Dict[str, object]) -> str:
    """``(k=v; ...)`` stats line, keys sorted, empty stats elided."""
    return (
        "(%s)" % "; ".join("%s=%.4g" % item for item in sorted(stats.items()))
        if stats else ""
    )


def cluster_desc(report) -> Dict[str, object]:
    """The cluster's ``{type, name, stats, sinks}`` descriptor tree.

    Root: pool-wide aggregates (makespan, utilization spread, steal
    count).  Sinks: one node per shard that did or could do
    work, each carrying its utilization, busy seconds, traced cycles
    and placement count, with one leaf per model endpoint the shard
    served (batch and cycle share).
    """
    makespan = report.makespan
    utilization = report.shard_utilization()
    shards = sorted(
        set(report.shard_busy) | set(report.shard_cycles) | set(utilization)
    )

    # Per-shard, per-model batch/cycle tallies from the placement log.
    per_shard_models: Dict[int, Dict[str, Dict[str, float]]] = {}
    for decision in report.placements:
        models = per_shard_models.setdefault(decision.shard, {})
        entry = models.setdefault(decision.model, {"batches": 0, "cycles": 0})
        entry["batches"] += 1
        entry["cycles"] += decision.batch_cycles

    steals_out: Dict[int, int] = {}
    steals_in: Dict[int, int] = {}
    for steal in report.steals:
        steals_out[steal.from_shard] = steals_out.get(steal.from_shard, 0) + 1
        steals_in[steal.to_shard] = steals_in.get(steal.to_shard, 0) + 1

    def shard_node(shard: int) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "util": utilization.get(shard, 0.0),
            "busy_s": report.shard_busy.get(shard, 0.0),
            "cycles": report.shard_cycles.get(shard, 0),
        }
        if shard in steals_in or shard in steals_out:
            stats["steals_in"] = steals_in.get(shard, 0)
            stats["steals_out"] = steals_out.get(shard, 0)
        return {
            "type": "Shard",
            "name": f"shard{shard}",
            "stats": stats,
            "sinks": [
                {
                    "type": "Model",
                    "name": model,
                    "stats": dict(entry),
                    "sinks": [],
                }
                for model, entry in sorted(
                    per_shard_models.get(shard, {}).items()
                )
            ],
        }

    busy = [report.shard_busy.get(shard, 0.0) for shard in shards]
    root_stats: Dict[str, object] = {
        "makespan_s": makespan,
        "batches": len(report.placements),
        "shards": len(shards),
    }
    spread = report.utilization_spread()
    if spread is not None:
        root_stats["util_spread"] = spread
    if report.steals:
        root_stats["steals"] = len(report.steals)
    return {
        "type": "Cluster",
        "name": report.placement_policy,
        "stats": root_stats,
        "sinks": [shard_node(shard) for shard in shards],
    }


def _render_node(desc: Dict[str, object]) -> str:
    sinks: List[Dict[str, object]] = desc.get("sinks", [])
    sink_text = "".join(
        "\n↳ " + _render_node(sink).replace(
            "\n", "\n| " if i < len(sinks) - 1 else "\n  "
        )
        for i, sink in enumerate(sinks)
    )
    label = desc.get("name") or desc["type"]
    return "%s %s%s" % (label, render_stats(desc.get("stats", {})), sink_text)


def render_cluster_desc(desc: Dict[str, object]) -> str:
    """Render a :func:`cluster_desc` tree, one node per line."""
    return _render_node(desc)
