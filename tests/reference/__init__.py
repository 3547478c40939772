"""Value oracles for the simulator: what the array's charges stand for.

:class:`~repro.systolic.SystolicArray` computes a GEMM as one
whole-operand ``fixed_matmul`` and a nonlinear op from its
approximator's code table, and charges both from operand shapes
(``charge_gemm`` / ``charge_nonlinear``).  The modules here are the
structural models those charges describe.  The tests and the bench tier
compare them with the array, bit for bit and cycle for cycle; the
package itself computes nothing the library runs.

* :mod:`tests.reference.pe` — the processing element with the C1/C2
  control logics that switch it between GEMM, computation-PE and
  transmission-PE behaviour (Fig. 7);
* :mod:`tests.reference.cycle_sim` — a PE-by-PE grid stepped cycle by
  cycle, for small design points;
* :mod:`tests.reference.rearrange` — the data-rearrange module (Fig. 6),
  which builds the interleaved streams;
* :mod:`tests.reference.dataflow` — the per-tile GEMM, the lane-by-lane
  MHP and the addressing module (Fig. 5) walked through its FIFOs;
* :mod:`tests.reference.chain` — an array and a backend that run every
  nonlinear op through that structural chain;
* :mod:`tests.reference.batcher` — the offline batch planner whose
  batches :class:`~repro.serving.batcher.BatchAssembler` must compose.

Import it from the repository root (``python -m pytest`` puts the root
on ``sys.path``): ``from tests.reference.cycle_sim import CycleSimulator``.
"""
