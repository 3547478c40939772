"""What a candidate deployment is worth: hardware cost vs served quality.

The autotuner scores every replay into one :class:`Objective` —
``(cost, slo_attainment, p99, tokens_per_sec)`` — combining the two
sides of the paper's trade-off:

* **cost** prices the pool from the paper's hardware models: each
  shard's design point costs its estimated full-activity power
  (:func:`repro.hardware.power.power_watts`, which already folds in
  the resource vector) plus a small rent on the discrete FPGA
  resources that gate deployability (DSP slices and BRAM, from
  :func:`repro.hardware.resources.total_resources`).  Cost depends
  only on the pool — it is what you pay whether or not traffic shows
  up;
* **quality** reads the replayed
  :meth:`~repro.serving.report.ServingReport.objective_section`:
  overall SLO attainment, tail latency, and generated-token
  throughput.

:func:`scalar_score` collapses an objective to the single
lower-is-better number the search drivers rank by (and the bench
gates): ``cost x p99 / (slo_attainment x served_fraction)`` — a
deployment is better when it is cheaper, faster at the tail, or
answers more of its traffic within deadline.  Shed requests shrink the
served fraction, so refusing traffic can never
read as "fast and cheap".  The Pareto front keeps the full four axes;
the scalar only orders candidates inside one search round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.hardware.power import power_watts
from repro.hardware.resources import total_resources
from repro.systolic.config import SystolicConfig

#: Watt-equivalents charged per DSP slice / BRAM block of the pool.
DSP_WEIGHT = 0.01
BRAM_WEIGHT = 0.005

#: Floors keeping :func:`scalar_score` finite and honest on degenerate
#: replays: an all-shedding config divides by the attainment floor
#: (scoring badly) instead of riding its empty-percentile p99 of zero
#: to a spurious win.
MIN_ATTAINMENT = 1e-3
MIN_P99 = 1e-9


def shard_cost(config: SystolicConfig) -> float:
    """One design point's cost, in watt-equivalents."""
    resources = total_resources(config)
    return (
        power_watts(config)
        + DSP_WEIGHT * resources.dsp
        + BRAM_WEIGHT * resources.bram
    )


def pool_cost(pool: Sequence[SystolicConfig]) -> float:
    """The deployment's cost: sum of its shards' costs."""
    return sum(shard_cost(config) for config in pool)


@dataclass(frozen=True)
class Objective:
    """The scored outcome of replaying one trace under one config."""

    #: Pool hardware cost, watt-equivalents (:func:`pool_cost`).
    cost: float
    #: Fraction of deadline-carrying requests that met their deadline
    #: (1.0 when the trace carries no deadlines).
    slo_attainment: float
    #: 99th-percentile request latency, simulated seconds.
    p99: float
    #: Generated-token throughput, tokens per simulated second
    #: (0.0 for traces without generation traffic).
    tokens_per_sec: float
    #: Requests completed during the replay.
    n_requests: int = 0
    #: Requests refused at admission during the replay.
    shed: int = 0

    def to_dict(self) -> Dict[str, float]:
        return {
            "cost": self.cost,
            "slo_attainment": self.slo_attainment,
            "p99": self.p99,
            "tokens_per_sec": self.tokens_per_sec,
            "n_requests": self.n_requests,
            "shed": self.shed,
        }


def objective_from_report(report, pool: Sequence[SystolicConfig]) -> "Objective":
    """Price ``pool`` and read the replayed report's quality numbers."""
    section = report.objective_section()
    attainment = section["slo_attainment"]
    return Objective(
        cost=pool_cost(pool),
        slo_attainment=1.0 if attainment is None else float(attainment),
        p99=float(section["p99"]),
        tokens_per_sec=float(section["tokens_per_second"]),
        n_requests=int(section["n_requests"]),
        shed=int(section["shed"]),
    )


def scalar_score(objective: Objective) -> float:
    """Collapse an objective to one lower-is-better ranking number.

    ``cost x p99 / (slo_attainment x served_fraction)`` — dimensions:
    watt-equivalents x seconds per unit of honored demand ("how much
    hardware-time does a met deadline cost here").  The served
    fraction counts shed requests against the config, and
    the floors keep an all-shedding replay (empty percentiles) from
    scoring as free.
    """
    total = objective.n_requests + objective.shed
    if total and objective.n_requests == 0:
        # Nothing served: the percentiles are empty, not excellent.
        return float("inf")
    served = objective.n_requests / total if total else 1.0
    attainment = max(objective.slo_attainment * served, MIN_ATTAINMENT)
    return objective.cost * max(objective.p99, MIN_P99) / attainment
