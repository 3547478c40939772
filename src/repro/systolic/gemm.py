"""GEMM schedule.

The *modelled hardware* computes ``C = A @ B`` as output-stationary
P×P tiles: a weight tile is preloaded, the matching input rows stream
through, every PE accumulates one output element (``macs_per_pe``
reduction lanes per cycle), and the finished tile drains through the
L2 output banks into the single L3 output buffer.  The *software* does
not loop over those tiles: the array computes one whole-operand
:func:`repro.fixedpoint.fixed_matmul` call (every output element is a
single dot product with one saturating writeback, however the schedule
partitions it) and charges the schedule this module plans.

:func:`plan_gemm` derives that schedule analytically, with cycle costs
from :mod:`repro.systolic.timing`.  Serving traffic repeats a handful
of layer shapes, so plans are memoised in a bounded per-process LRU
keyed on ``(config, M, K, N)`` (as :mod:`repro.core.nonlinear_ops` does
for approximators) — steady-state planning is a dict hit.  The tile
loop the schedule describes is the test oracle
``tests/reference/dataflow.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.systolic.config import SystolicConfig
from repro.systolic.timing import CycleBreakdown, gemm_cycles


@dataclass(frozen=True)
class GemmSchedule:
    """Complete schedule of one GEMM on a design point.

    The schedule is pure analytic metadata — operand shape and cycle
    breakdown — so instances are immutable and shared
    freely through the plan cache.
    """

    config: SystolicConfig
    m_dim: int
    k_dim: int
    n_dim: int
    breakdown: CycleBreakdown

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations."""
        return self.m_dim * self.k_dim * self.n_dim


#: Plans kept per process.  A plan is a pure function of ``(config, M,
#: K, N)``, so it is memoised where it is defined and never shared: on a
#: 2-core x86 host a cold build takes 3-6 us and reading a pickled plan
#: back from disk 190-280 us.  Serving repeats a handful of shapes; the
#: bound only stops a shape-churning design-space sweep from growing the
#: memo without limit.
GEMM_PLANS = 512


@functools.lru_cache(maxsize=GEMM_PLANS)
def _gemm_plan(
    config: SystolicConfig, m_dim: int, k_dim: int, n_dim: int
) -> GemmSchedule:
    return GemmSchedule(
        config=config,
        m_dim=m_dim,
        k_dim=k_dim,
        n_dim=n_dim,
        breakdown=gemm_cycles(config, m_dim, k_dim, n_dim),
    )


def plan_gemm(
    config: SystolicConfig,
    m_dim: int,
    k_dim: int,
    n_dim: int,
    use_cache: bool = True,
) -> GemmSchedule:
    """Build (or fetch) the schedule for ``C[M,N] = A[M,K] @ B[K,N]``.

    Output rows tile with ``pe_rows`` and output columns with
    ``pe_cols``, so rectangular PE grids produce correctly shaped tiles.
    Schedules are immutable and memoised per process (at most
    :data:`GEMM_PLANS`, least recently used first out; inspect with
    ``plan_gemm.cache_info()``, empty with ``plan_gemm.cache_clear()``);
    pass ``use_cache=False`` to force a fresh build (the equivalence
    tests and seed-faithful benchmarks use this).
    """
    build = _gemm_plan if use_cache else _gemm_plan.__wrapped__
    return build(config, m_dim, k_dim, n_dim)


plan_gemm.cache_info = _gemm_plan.cache_info
plan_gemm.cache_clear = _gemm_plan.cache_clear
