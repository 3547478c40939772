"""MHP dataflow: diagonal computation PEs, everything else transmits.

During a Matrix Hadamard Product every operand is used exactly once, so
the conventional forward-and-reuse dataflow wastes the array.  ONE-SA
instead routes each operand stream through *transmission* PEs to the
*computation* PE on the diagonal of its lane (Section IV-B): PE ``(i, i)``
computes all outputs assigned to lane ``i``; PEs ``(i, j), i != j``
only register and forward.

This module builds the MHP schedule (lane assignment, stream lengths,
PE-role map), the lane-by-lane functional execution, and the naive-MHP
baseline used by the dataflow ablation (all PEs compute, paying the
reuse-less operand delivery).

Like the GEMM planner, :func:`plan_mhp` serves repeated shapes from a
bounded per-process memo and derives the lane assignment lazily — a
schedule is pure analytic metadata until a consumer actually asks for
the row lists.
The array computes an MHP as one whole-operand
:func:`fixed_hadamard_mac`: each output element is computed by exactly
one diagonal PE independently of every other, so the reassembled
per-lane result equals the whole-matrix call bit for bit
(:func:`execute_mhp_per_lane` keeps the lane loop as the equivalence
reference).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.fixedpoint import fixed_hadamard_mac
from repro.systolic.config import SystolicConfig
from repro.systolic.pe import PEMode
from repro.systolic.timing import CycleBreakdown, nonlinear_cycles


@dataclass(frozen=True)
class MHPSchedule:
    """Schedule of one Matrix Hadamard Product on a design point."""

    config: SystolicConfig
    m_dim: int
    n_dim: int
    breakdown: CycleBreakdown

    @property
    def lane_rows(self) -> List[np.ndarray]:
        """Row indices assigned to each diagonal lane (derived lazily).

        Rows round-robin over the ``pe_rows`` lanes; the list is built
        on demand so cached schedules hold no per-shape arrays.
        """
        return [
            np.arange(lane, self.m_dim, self.config.pe_rows)
            for lane in range(self.config.pe_rows)
        ]

    @property
    def elements(self) -> int:
        return self.m_dim * self.n_dim

    @property
    def computation_pes(self) -> int:
        """Active (diagonal) PEs during this MHP."""
        return self.config.pe_rows

    @property
    def transmission_pes(self) -> int:
        """PEs demoted to pure operand routing."""
        return self.config.n_pes - self.config.pe_rows

    @property
    def stream_elements_per_channel(self) -> int:
        """Interleaved stream length per input channel (2 per output)."""
        return 2 * self.elements

    def pe_role(self, row: int, col: int) -> PEMode:
        """Role of PE ``(row, col)`` during the MHP (Fig. 4, marks 3/4)."""
        return PEMode.COMPUTATION if row == col else PEMode.TRANSMISSION


#: MHP plans kept per process: pure functions of ``(config, M, N,
#: fused_ipf)``, memoised and bounded for the reasons
#: :data:`repro.systolic.gemm.GEMM_PLANS` gives.
MHP_PLANS = 512


@functools.lru_cache(maxsize=MHP_PLANS)
def _mhp_plan(
    config: SystolicConfig, m_dim: int, n_dim: int, fused_ipf: bool
) -> MHPSchedule:
    return MHPSchedule(
        config=config,
        m_dim=m_dim,
        n_dim=n_dim,
        breakdown=nonlinear_cycles(config, m_dim, n_dim, fused_ipf=fused_ipf),
    )


def plan_mhp(
    config: SystolicConfig,
    m_dim: int,
    n_dim: int,
    fused_ipf: bool = True,
    use_cache: bool = True,
) -> MHPSchedule:
    """Build (or fetch) the MHP schedule for an ``M x N`` element matrix
    (memoised like :func:`~repro.systolic.gemm.plan_gemm`)."""
    build = _mhp_plan if use_cache else _mhp_plan.__wrapped__
    return build(config, m_dim, n_dim, fused_ipf)


plan_mhp.cache_info = _mhp_plan.cache_info
plan_mhp.cache_clear = _mhp_plan.cache_clear


def _validate_mhp_operands(
    x_raw: np.ndarray, k_raw: np.ndarray, b_raw: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x_raw = np.atleast_2d(np.asarray(x_raw))
    k_raw = np.atleast_2d(np.asarray(k_raw))
    b_raw = np.atleast_2d(np.asarray(b_raw))
    if not (x_raw.shape == k_raw.shape == b_raw.shape):
        raise ValueError(
            f"MHP operands must share a shape, got {x_raw.shape}, "
            f"{k_raw.shape}, {b_raw.shape}"
        )
    return x_raw, k_raw, b_raw


def execute_mhp_per_lane(
    config: SystolicConfig,
    x_raw: np.ndarray,
    k_raw: np.ndarray,
    b_raw: np.ndarray,
    fused_ipf: bool = True,
) -> tuple[np.ndarray, MHPSchedule]:
    """Seed-faithful lane-by-lane MHP execution (equivalence reference)."""
    x_raw, k_raw, b_raw = _validate_mhp_operands(x_raw, k_raw, b_raw)
    m_dim, n_dim = x_raw.shape
    schedule = plan_mhp(config, m_dim, n_dim, fused_ipf=fused_ipf, use_cache=False)
    out = np.zeros_like(x_raw)
    for rows in schedule.lane_rows:
        if rows.size == 0:
            continue
        out[rows] = fixed_hadamard_mac(x_raw[rows], k_raw[rows], b_raw[rows], config.fmt)
    return out, schedule


def naive_mhp_cycles(config: SystolicConfig, m_dim: int, n_dim: int) -> CycleBreakdown:
    """Ablation baseline: MHP on the *unmodified* GEMM dataflow.

    Without the transmission/computation split, operands still enter at
    the array edges but every element must be delivered to a distinct
    PE with no reuse; the forward-and-reuse fabric delivers one fresh
    operand pair per lane per cycle (the rest of the bandwidth carries
    already-used values), so the array sustains only ``P`` outputs per
    cycle regardless of the MAC count — the "low resource utilization
    rate" of Section IV-B motivating the redesign.
    """
    p = config.pe_rows
    elements = m_dim * n_dim
    skew = 2 * (p - 1)
    injection = -(-elements // p)
    return CycleBreakdown(fill=skew, compute=injection, drain=p, overhead=3)
