"""Systolic-array simulator (functional + cycle level).

Implements the ONE-SA microarchitecture of Sections III-B and IV:

* :mod:`repro.systolic.config` — design-point description (PE grid,
  MACs/PE, buffer geometry, clock, port widths);
* :mod:`repro.systolic.pe` — processing element with the C1/C2 control
  logics that switch it between GEMM, computation-PE and
  transmission-PE behaviour (Fig. 7);
* :mod:`repro.systolic.buffers` — the L3 ``(k, b)`` parameter store
  and the addressing FIFOs, with capacity accounting (the Table V
  buffer geometry itself is :mod:`repro.systolic.config`);
* :mod:`repro.systolic.addressing` — the L3 data-addressing module
  (Fig. 5);
* :mod:`repro.systolic.rearrange` — the data-rearrange module (Fig. 6);
* :mod:`repro.systolic.gemm` / :mod:`repro.systolic.mhp_dataflow` —
  dataflow schedules for the two operating modes;
* :mod:`repro.systolic.timing` — closed-form cycle model used by the
  design-space sweeps (Figs. 8 and 10);
* :mod:`repro.systolic.cycle_sim` — an event-level PE-by-PE simulator
  for small configurations that validates both the functional results
  and the closed-form model;
* :mod:`repro.systolic.array` — the user-facing :class:`SystolicArray`.
"""

from repro.systolic.config import ONE_SA_PAPER_CONFIG, SystolicConfig
from repro.systolic.timing import (
    CycleBreakdown,
    gemm_cycles,
    nonlinear_cycles,
    peak_gops,
    peak_gnfs,
)
from repro.systolic.array import SystolicArray
from repro.systolic.trace import Trace, TraceEvent

__all__ = [
    "SystolicConfig",
    "ONE_SA_PAPER_CONFIG",
    "SystolicArray",
    "CycleBreakdown",
    "Trace",
    "TraceEvent",
    "gemm_cycles",
    "nonlinear_cycles",
    "peak_gops",
    "peak_gnfs",
]
