"""Closed-form cycle model of the (ONE-)SA dataflow.

The model follows the schedule the paper describes and [6]'s
high-performance systolic template, with three documented bandwidth
assumptions:

1. **Operand streaming scales with the array** — each L2 bank feeds its
   lane ``macs_per_pe`` elements per cycle, so GEMM streaming keeps the
   PEs busy in steady state and MHP injection sustains
   ``pe_rows * macs_per_pe`` elements/cycle per channel.
2. **Result drain is the narrow path** — GEMM results leave through the
   single L3 output buffer at ``l3_out_width`` elements per cycle
   (default ``pe_cols // 4``; the grids the paper evaluates are square).  This reproduces the Section V-C
   observation that for a 32×32 input on a 16×16 array ~85% of cycles
   are spent transmitting results after computation has finished (we
   measure 86%), and it produces the "throughput cliff" of Fig. 8.
3. **IPF is fused with the producer** — the data-addressing module taps
   the output stream of the operation that *produced* the nonlinear
   input (Fig. 5 reuses the output-C path), so a fused nonlinear op
   charges only the module's pipeline latency.  ``fused_ipf=False``
   charges the full standalone pass.

GEMM schedule (output-stationary P×P tiles):

* wavefront skew ``2 (P - 1)`` once;
* first weight-tile preload ``ceil(K / m)`` (later preloads are double
  buffered behind compute);
* per-tile compute ``ceil(K / m)`` over ``ceil(M/P) * ceil(N/P)`` tiles;
* result drain ``ceil(M N / l3_out_width)``, overlapped with compute
  from the moment the first tile completes.

MHP schedule: wavefront skew, rearranged-stream injection
``ceil(2 M N / (P m))`` (each output consumes an ``(x, 1)`` and a
``(k, b)`` pair), and a ``P``-cycle exit wavefront.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.systolic.config import SystolicConfig


@dataclass(frozen=True)
class CycleBreakdown:
    """Cycle decomposition of one operation on the array.

    ``fill`` covers wavefront skew and non-overlapped preloads,
    ``compute`` the cycles with PEs actively multiplying, ``drain`` the
    *exposed* result-transmission cycles (those not hidden behind
    compute) and ``overhead`` fused-pipeline latencies (IPF, rearrange).
    """

    fill: int
    compute: int
    drain: int
    overhead: int = 0

    @property
    def total(self) -> int:
        """Total cycles of the operation."""
        return self.fill + self.compute + self.drain + self.overhead

    @property
    def drain_fraction(self) -> float:
        """Share of cycles spent transmitting results (Section V-C)."""
        return self.drain / self.total if self.total else 0.0

    def seconds(self, clock_hz: float) -> float:
        """Wall-clock duration at a given clock."""
        return self.total / clock_hz

    def merged(self, other: "CycleBreakdown") -> "CycleBreakdown":
        """Composition of two operations run one after the other."""
        return CycleBreakdown(
            fill=self.fill + other.fill,
            compute=self.compute + other.compute,
            drain=self.drain + other.drain,
            overhead=self.overhead + other.overhead,
        )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def effective_out_width(config: SystolicConfig) -> int:
    """Drain bandwidth of the L3 output buffer (elements/cycle).

    Results leave through the column lanes, so both the cap and the
    derived default follow ``pe_cols`` (identical to ``pe_rows`` on the
    square grids the paper evaluates, correct on rectangular ones).
    """
    if config.l3_out_width is not None and config.l3_out_width > 0:
        # Configured explicitly; still never wider than one element per
        # column lane.
        return min(config.l3_out_width, config.pe_cols)
    return max(1, config.pe_cols // 4)


def gemm_cycles(config: SystolicConfig, m_dim: int, k_dim: int, n_dim: int) -> CycleBreakdown:
    """Cycle count of ``C[M,N] = A[M,K] @ B[K,N]`` on the array.

    See the module docstring for the schedule.  All dimensions must be
    positive; matrices smaller than the array underutilize it (partial
    tiles still occupy full tile slots), which is the small-matrix
    penalty visible in Fig. 8.
    """
    if min(m_dim, k_dim, n_dim) < 1:
        raise ValueError(f"GEMM dims must be positive, got {(m_dim, k_dim, n_dim)}")
    macs = config.macs_per_pe
    # Output tiles are pe_rows x pe_cols (rows tile M, columns tile N) —
    # identical to 2*(P-1)/P^2 on square grids, correct on rectangular.
    tiles = _ceil_div(m_dim, config.pe_rows) * _ceil_div(n_dim, config.pe_cols)
    compute_per_tile = _ceil_div(k_dim, macs)
    skew = (config.pe_rows - 1) + (config.pe_cols - 1)
    weight_preload = compute_per_tile
    compute_total = tiles * compute_per_tile
    drain_total = _ceil_div(m_dim * n_dim, effective_out_width(config))
    # Drain begins once the first tile is complete and then proceeds at
    # the L3 output width; whichever of compute or (first tile + drain)
    # finishes later bounds the schedule.
    core = max(compute_total, compute_per_tile + drain_total)
    exposed_drain = core - compute_total
    return CycleBreakdown(
        fill=skew + weight_preload,
        compute=compute_total,
        drain=exposed_drain,
    )


def nonlinear_cycles(
    config: SystolicConfig,
    m_dim: int,
    n_dim: int,
    fused_ipf: bool = True,
) -> CycleBreakdown:
    """Cycle count of one nonlinear operation (IPF + MHP) on the array.

    Parameters
    ----------
    m_dim, n_dim:
        Shape of the element matrix the nonlinearity is applied to.
    fused_ipf:
        When True (default), the addressing pass rides the producing
        operation's output stream and only its pipeline latency is
        charged; when False, the standalone pass streams the whole
        matrix through the L3 output port.
    """
    if not config.nonlinear_enabled:
        raise RuntimeError(
            "nonlinear operations require a ONE-SA configuration "
            "(nonlinear_enabled=True); the conventional SA has no "
            "IPF/MHP datapath"
        )
    if min(m_dim, n_dim) < 1:
        raise ValueError(f"matrix dims must be positive, got {(m_dim, n_dim)}")
    p = config.pe_rows
    macs = config.macs_per_pe
    elements = m_dim * n_dim
    skew = 2 * (p - 1)
    # Rearranged streams carry 2 elements per output on each channel,
    # injected at P*m elements/cycle per channel.
    injection = _ceil_div(2 * elements, p * macs)
    exit_wave = p
    if fused_ipf:
        ipf = 3  # addressing-pipeline depth (Fig. 5)
    else:
        ipf = _ceil_div(elements, effective_out_width(config)) + 3
    return CycleBreakdown(
        fill=skew,
        compute=injection,
        drain=exit_wave,
        overhead=ipf,
    )


def peak_gops(config: SystolicConfig) -> float:
    """Theoretical GEMM throughput in GOPS.

    The paper counts one operation as a fused multiply+add, i.e. one MAC
    (Section V-C), so the peak is ``PEs * MACs * f``.
    """
    return config.macs_per_cycle * config.clock_hz / 1e9


def peak_gnfs(config: SystolicConfig) -> float:
    """Theoretical nonlinear throughput in GNFS.

    Giga nonlinear function evaluations per second: only the diagonal
    computation PEs produce results and each evaluation is a two-term
    dot product, giving ``P * MACs / 2`` evaluations per cycle.
    """
    return config.mhp_elements_per_cycle * config.clock_hz / 1e9


def gemm_throughput_gops(
    config: SystolicConfig, m_dim: int, k_dim: int, n_dim: int
) -> float:
    """Achieved GEMM throughput for a given problem size."""
    breakdown = gemm_cycles(config, m_dim, k_dim, n_dim)
    ops = m_dim * k_dim * n_dim
    return ops / breakdown.seconds(config.clock_hz) / 1e9


def nonlinear_throughput_gnfs(
    config: SystolicConfig, m_dim: int, n_dim: int, fused_ipf: bool = True
) -> float:
    """Achieved nonlinear throughput for a given matrix size."""
    breakdown = nonlinear_cycles(config, m_dim, n_dim, fused_ipf=fused_ipf)
    return m_dim * n_dim / breakdown.seconds(config.clock_hz) / 1e9

