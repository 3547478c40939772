"""Trace-driven autotuning: record traffic, replay candidates, keep the front.

This subpackage closes the loop between the serving stack and the
paper's design-space machinery — the serving system picks its own
pool composition, placement policy and batching knobs
from the traffic it actually saw, instead of a human guessing them:

* **traces** (:mod:`repro.autotune.trace`) — a
  :class:`~repro.autotune.trace.TraceRecorder` attached to a live
  :class:`~repro.serving.engine.InferenceEngine` captures every
  submitted request into a versioned, file-persisted
  :class:`~repro.autotune.trace.TrafficTrace` of
  :class:`~repro.serving.request.TracedRequest` rows (the serving
  layer's request-as-data class, re-exported here: a trace row is
  servable by every front door as it is);
  :func:`~repro.autotune.trace.synthesize_trace` draws seeded
  bursty/skewed/conversational workloads for what-if studies;
* **candidates** (:mod:`repro.autotune.tuning`) — a
  :class:`~repro.autotune.tuning.TuningConfig` is one deployment as
  data (shard design points, placement + occupancy penalty, batch
  and admission knobs, cache byte budgets); pool, placement and batch
  knobs are drawn from a bounded
  :class:`~repro.autotune.tuning.ConfigSpace`;
* **replay** (:mod:`repro.autotune.replay`) — re-drives a trace
  through a fresh engine built from a candidate (through
  :func:`repro.serving.deploy.assemble_engine`, where
  :class:`~repro.serving.deploy.EndpointSpec` lives), deterministically:
  same trace + same config ⇒ a bit-identical
  :class:`~repro.serving.report.ServingReport` (pinned via
  :func:`~repro.autotune.replay.report_fingerprint`);
* **objective** (:mod:`repro.autotune.objective`) — scores a replay
  into ``(cost, slo_attainment, p99, tokens_per_sec)``, pricing the
  pool from the paper's resource/power models;
* **search** (:mod:`repro.autotune.search`) — seeded random and
  evolutionary drivers, fanned out across worker processes, feeding
  every scored candidate through the existing
  :func:`~repro.hardware.pareto.pareto_front` dominance code;
* **the front** (:mod:`repro.autotune.front`) — the surviving
  cost-vs-SLO trade-offs as a resumable
  :class:`~repro.autotune.front.TuningFront` value.

See ``docs/autotuning.md`` for the operator guide and
``examples/autotune_demo.py`` for the record → search → re-serve
round trip.
"""

from repro.autotune.front import FrontEntry, TuningFront
from repro.autotune.objective import (
    Objective,
    objective_from_report,
    pool_cost,
    scalar_score,
    shard_cost,
)
from repro.autotune.replay import (
    EndpointSpec,
    WorkloadCostSpec,
    build_engine,
    evaluate,
    replay_trace,
    report_fingerprint,
)
from repro.autotune.search import (
    EvaluationFailedError,
    evolutionary_search,
    random_search,
)
from repro.autotune.trace import (
    TRACE_VERSION,
    EndpointProfile,
    TracedRequest,
    TraceRecorder,
    TrafficTrace,
    load_trace,
    save_trace,
    synthesize_trace,
)
from repro.autotune.tuning import ConfigSpace, TuningConfig

__all__ = [
    "TRACE_VERSION",
    "EndpointProfile",
    "TracedRequest",
    "TraceRecorder",
    "TrafficTrace",
    "load_trace",
    "save_trace",
    "synthesize_trace",
    "ConfigSpace",
    "TuningConfig",
    "Objective",
    "objective_from_report",
    "pool_cost",
    "scalar_score",
    "shard_cost",
    "EndpointSpec",
    "WorkloadCostSpec",
    "build_engine",
    "evaluate",
    "replay_trace",
    "report_fingerprint",
    "EvaluationFailedError",
    "evolutionary_search",
    "random_search",
    "FrontEntry",
    "TuningFront",
]
