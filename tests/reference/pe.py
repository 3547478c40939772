"""Processing element micro-architecture (Fig. 7).

A conventional PE receives an input operand from its west neighbour and
a weight operand from its north neighbour, performs a multi-MAC
multiply-accumulate into its multi-layer accumulator, and forwards both
operands onward.  ONE-SA adds two control logics:

* **C1** — operand forwarding enable.  Active in GEMM mode and in
  transmission PEs; deactivated in computation PEs during MHP so
  operands are consumed locally (they have no reuse).
* **C2** — local compute enable.  Active in GEMM mode and in computation
  PEs; deactivated in transmission PEs, which merely register and pass
  data.

The cycle-level simulator (:mod:`tests.reference.cycle_sim`) drives these
PEs; the closed-form timing model only needs their throughput constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.fixedpoint import QFormat, saturate
from repro.fixedpoint.arithmetic import accumulator_to_output


class PEMode(enum.Enum):
    """Operating mode selected by the C1/C2 control logics."""

    GEMM = "gemm"  # C1 on, C2 on: classic systolic behaviour
    COMPUTATION = "computation"  # C1 off, C2 on: diagonal MHP compute
    TRANSMISSION = "transmission"  # C1 on, C2 off: MHP operand routing


@dataclass
class PEStats:
    """Activity counters used for utilization and energy accounting."""

    mac_ops: int = 0
    forwards: int = 0
    active_cycles: int = 0
    idle_cycles: int = 0


@dataclass
class ProcessingElement:
    """One PE of the array, stepped by the cycle-level simulator.

    Parameters
    ----------
    row, col:
        Grid position (the MHP dataflow puts computation PEs on
        ``row == col``).
    macs:
        Parallel MAC lanes (``macs_per_pe`` of the design point).
    fmt:
        Datapath format; the accumulator is product-aligned int64.
    """

    row: int
    col: int
    macs: int
    fmt: QFormat
    mode: PEMode = PEMode.GEMM
    accumulator: np.ndarray = field(default=None)
    reg_input: Optional[np.ndarray] = None
    reg_weight: Optional[np.ndarray] = None
    output_buffer: List[np.ndarray] = field(default_factory=list)
    stats: PEStats = field(default_factory=PEStats)
    #: The first product of a pair whose second element has not arrived
    #: (a one-MAC computation PE takes each pair over two cycles).
    held: Optional[np.int64] = None

    def __post_init__(self) -> None:
        if self.accumulator is None:
            self.accumulator = np.zeros(1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Control logic
    # ------------------------------------------------------------------
    @property
    def c1_forward(self) -> bool:
        """Control logic C1: forward operands to neighbours."""
        return self.mode in (PEMode.GEMM, PEMode.TRANSMISSION)

    @property
    def c2_compute(self) -> bool:
        """Control logic C2: compute locally."""
        return self.mode in (PEMode.GEMM, PEMode.COMPUTATION)

    def configure(self, mode: PEMode) -> None:
        """Reconfigure the PE (the per-op mode switch of Section IV-B)."""
        self.mode = mode
        self.reset()

    def reset(self) -> None:
        """Clear registers and the accumulator between operations."""
        self.accumulator = np.zeros(1, dtype=np.int64)
        self.reg_input = None
        self.reg_weight = None
        self.held = None
        self.output_buffer.clear()

    # ------------------------------------------------------------------
    # Cycle behaviour
    # ------------------------------------------------------------------
    def step(
        self,
        in_from_west: Optional[np.ndarray],
        in_from_north: Optional[np.ndarray],
    ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Advance one cycle.

        Receives up to ``macs`` input lanes from the west and weight
        lanes from the north, optionally computes, and returns the
        operands to forward ``(to_east, to_south)`` — ``None`` when C1
        gates them off or nothing was registered.
        """
        forwarded = (None, None)
        if self.c1_forward:
            forwarded = (self.reg_input, self.reg_weight)
            if self.reg_input is not None or self.reg_weight is not None:
                self.stats.forwards += 1

        self.reg_input = in_from_west
        self.reg_weight = in_from_north

        if (
            self.c2_compute
            and self.reg_input is not None
            and self.reg_weight is not None
        ):
            a = np.asarray(self.reg_input, dtype=np.int64)
            b = np.asarray(self.reg_weight, dtype=np.int64)
            lanes = min(a.size, b.size, self.macs)
            a, b = a[:lanes], b[:lanes]
            self.stats.mac_ops += lanes
            self.stats.active_cycles += 1
            if self.mode is PEMode.COMPUTATION:
                # MHP: the multi-layer accumulator bypasses to the output
                # buffer — every pair of stream elements is one result.
                products = a * b
                if self.held is not None:
                    products = np.concatenate(([self.held], products))
                    self.held = None
                if products.size % 2:
                    self.held, products = products[-1], products[:-1]
                self.output_buffer.extend(
                    accumulator_to_output(products[0::2] + products[1::2], self.fmt)
                )
            else:
                self.accumulator = self.accumulator + np.dot(a, b)
        else:
            self.stats.idle_cycles += 1
        return forwarded

    def writeback(self) -> np.ndarray:
        """Drain the accumulator to an INT16 result (GEMM epilogue)."""
        return accumulator_to_output(self.accumulator, self.fmt)[0]
