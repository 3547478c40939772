"""Systolic-array simulator: a charge model of the ONE-SA array.

Implements the cost side of the ONE-SA microarchitecture of Sections
III-B and IV:

* :mod:`repro.systolic.config` — design-point description (PE grid,
  MACs/PE, buffer geometry, clock, port widths);
* :mod:`repro.systolic.buffers` — the L3 ``(k, b)`` parameter store,
  with capacity accounting (the Table V buffer geometry itself is
  :mod:`repro.systolic.config`);
* :mod:`repro.systolic.addressing` — what the L3 data-addressing module
  (Fig. 5) costs: table preloads and streaming cycles;
* :mod:`repro.systolic.gemm` / :mod:`repro.systolic.mhp_dataflow` —
  schedules for the two operating modes;
* :mod:`repro.systolic.timing` — closed-form cycle model used by the
  charges and the design-space sweeps (Figs. 8 and 10);
* :mod:`repro.systolic.trace` — the execution trace the charges record;
* :mod:`repro.systolic.array` — the user-facing :class:`SystolicArray`.

The structural models the charges stand for are test oracles under
``tests/reference/``: the processing element with its C1/C2 control
logics (Fig. 7), the PE-by-PE cycle simulator, the data-rearrange module
(Fig. 6), the addressing walk through its FIFOs, the lane-by-lane MHP
and the per-tile GEMM.  The tests hold the array's values and cycles to
them.
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
