"""MHP dataflow: diagonal computation PEs, everything else transmits.

During a Matrix Hadamard Product every operand is used exactly once, so
the conventional forward-and-reuse dataflow wastes the array.  ONE-SA
instead routes each operand stream through *transmission* PEs to the
*computation* PE on the diagonal of its lane (Section IV-B): PE ``(i, i)``
computes all outputs assigned to lane ``i``; PEs ``(i, j), i != j``
only register and forward.

This module builds the MHP schedule (cycle breakdown) and the naive-MHP
baseline used by the dataflow ablation (all PEs compute, paying the
reuse-less operand delivery).  Like the GEMM planner, :func:`plan_mhp`
serves repeated shapes from a bounded per-process memo.  The array
computes an MHP as one whole-operand
:func:`~repro.fixedpoint.fixed_hadamard_mac` (each
output element is computed by exactly one diagonal PE, independently of
every other); the lane-by-lane loop is the test oracle
``tests/reference/dataflow.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.systolic.config import SystolicConfig
from repro.systolic.timing import CycleBreakdown, nonlinear_cycles


@dataclass(frozen=True)
class MHPSchedule:
    """Schedule of one Matrix Hadamard Product on a design point."""

    config: SystolicConfig
    m_dim: int
    n_dim: int
    breakdown: CycleBreakdown

    @property
    def elements(self) -> int:
        return self.m_dim * self.n_dim


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
