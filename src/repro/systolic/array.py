"""The user-facing systolic array.

:class:`SystolicArray` is a charge model: it records what each op costs
the modelled hardware in an execution trace, and computes values only
in its convenience methods.

Typical use::

    from repro.systolic import SystolicArray, ONE_SA_PAPER_CONFIG

    array = SystolicArray(ONE_SA_PAPER_CONFIG)
    c = array.matmul(a, b)                    # float in, float out
    y = array.apply_nonlinear("gelu", x, granularity=0.25)
    print(array.trace.cycles_by_kind())

An op's value and its charge are separate: :meth:`~SystolicArray.charge_gemm`
and :meth:`~SystolicArray.charge_nonlinear` record events from operand
shapes and compute nothing (the backends of :mod:`repro.nn.executor`
compute each value once and call them); a ``*_raw`` op is its
arithmetic plus one charge.

* a GEMM is charged its output-stationary tile schedule from the
  bounded LRU in :mod:`repro.systolic.gemm` and computed as one
  whole-operand ``fixed_matmul``;
* batched (stacked) GEMMs execute as a single N-D ``fixed_matmul``
  charged one closed-form event per pair (:meth:`gemm_raw_batched`);
* a nonlinear op is charged the IPF → rearrange → MHP chain from its
  shape (preload, addressing and MHP events in closed form; the
  data-rearrange pass rides the MHP event) and computed from the
  approximator's code table — one gather per element once the table
  exists (:meth:`repro.core.cpwl.CPWLApproximator.evaluate_raw`);
* the ``*_raw`` operations return the output codes alone: what an op
  cost is on the trace, the one record of array work;
* trace aggregates (:attr:`total_cycles`, utilization) are maintained
  streaming, so consulting them is O(1) regardless of history length.

The structural models the charges stand for — the per-tile GEMM, the
addressing walk, the rearranged streams, the lane-by-lane MHP and the
PE-level cycle simulator — are the test oracles of ``tests/reference/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np

from repro.core.nonlinear_ops import get_approximator
from repro.core.segment_table import QuantizedSegmentTable
from repro.fixedpoint import fixed_matmul, quantize
from repro.systolic.addressing import DataAddressing
from repro.systolic.buffers import ParameterStore
from repro.systolic.config import ONE_SA_PAPER_CONFIG, SystolicConfig
from repro.systolic.gemm import plan_gemm
from repro.systolic.mhp_dataflow import plan_mhp
from repro.systolic.timing import effective_out_width
from repro.systolic.trace import Trace, TraceEvent


class SystolicArray:
    """Functional + cycle-accounted model of one (ONE-)SA instance.

    Parameters
    ----------
    config:
        The design point.  Nonlinear operations require
        ``config.nonlinear_enabled`` (the ONE-SA datapath); a plain SA
        configuration raises on them, mirroring real hardware.
    """

    #: True inside :meth:`detached`: charges return at once.
    _detached = False

    def __init__(self, config: SystolicConfig = ONE_SA_PAPER_CONFIG) -> None:
        self.config = config
        self.trace = Trace()
        self.reset()

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------
    def charge_gemm(
        self, m: int, k: int, n: int, count: int = 1, label: str = "gemm"
    ) -> None:
        """Charge ``count`` GEMMs of ``(m, k) @ (k, n)``, computing
        nothing: what ``count`` :meth:`gemm_raw` calls on them record."""
        if self._detached:
            return
        schedule = plan_gemm(self.config, m, k, n)
        self.trace.record(
            TraceEvent(
                kind="gemm",
                label=label,
                cycles=schedule.breakdown.total,
                ops=schedule.macs,
                breakdown=schedule.breakdown,
            ),
            count,
        )

    def gemm_raw(
        self, a_raw: np.ndarray, b_raw: np.ndarray, label: str = "gemm"
    ) -> np.ndarray:
        """Bit-accurate GEMM on raw fixed-point operands: the output codes."""
        a_raw, b_raw = np.asarray(a_raw), np.asarray(b_raw)
        if a_raw.ndim != 2 or b_raw.ndim != 2:
            raise ValueError("gemm_raw expects 2-D raw operands")
        if a_raw.shape[1] != b_raw.shape[0]:
            raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
        out = fixed_matmul(a_raw, b_raw, self.config.fmt)
        self.charge_gemm(*a_raw.shape, b_raw.shape[1], label=label)
        return out

    def gemm_raw_batched(
        self, a_raw: np.ndarray, b_raw: np.ndarray, label: str = "gemm"
    ) -> np.ndarray:
        """Bit-accurate stacked GEMM ``(B, M, K) @ (B, K, N)``: one N-D
        :func:`fixed_matmul`, charged one GEMM per pair as a
        :meth:`gemm_raw` loop would be, and bit-identical to that loop."""
        a_raw, b_raw = np.asarray(a_raw), np.asarray(b_raw)
        if a_raw.ndim != 3 or b_raw.ndim != 3:
            raise ValueError("gemm_raw_batched expects 3-D stacked operands")
        if a_raw.shape[0] != b_raw.shape[0]:
            raise ValueError(
                f"stack mismatch: {a_raw.shape[0]} vs {b_raw.shape[0]} pairs"
            )
        if a_raw.shape[2] != b_raw.shape[1]:
            raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
        out = fixed_matmul(a_raw, b_raw, self.config.fmt)
        self.charge_gemm(*a_raw.shape[1:], b_raw.shape[2], a_raw.shape[0], label)
        return out

    def matmul(self, a: np.ndarray, b: np.ndarray, label: str = "gemm") -> np.ndarray:
        """Float convenience wrapper: quantize, run (on float64 codes,
        see :mod:`repro.fixedpoint.arithmetic`), scale back."""
        fmt = self.config.fmt
        a_raw, b_raw = (quantize(m, fmt, dtype=np.float64) for m in (a, b))
        out = self.gemm_raw(a_raw, b_raw, label=label)
        out *= fmt.scale
        return out

    # ------------------------------------------------------------------
    # Nonlinear operations (the ONE-SA extension)
    # ------------------------------------------------------------------
    def charge_nonlinear(
        self,
        function: str,
        shape: "tuple[int, int]",
        granularity: float,
        label: Optional[str] = None,
        fused_ipf: bool = True,
        domain: "tuple[float, float] | None" = None,
    ) -> None:
        """Charge one nonlinear op on ``(m, n)`` operands, computing nothing:
        the table preload (when the k/b store does not hold it), the
        addressing pass (``DataAddressing.cycles``) and the MHP schedule,
        which the data-rearrange pass rides."""
        if not self.config.nonlinear_enabled:
            raise RuntimeError(
                "this design point is a conventional SA; nonlinear "
                "operations need nonlinear_enabled=True"
            )
        if self._detached:
            return
        label = label or function
        m_dim, n_dim = shape
        elements = m_dim * n_dim
        fmt = self.config.fmt
        qtable = get_approximator(function, granularity, fmt, domain=domain).qtable

        # --- IPF: table preload (if not resident) and the addressing pass.
        self._preload(
            qtable,
            TraceEvent(
                kind="preload",
                label=f"{label}.table",
                cycles=-(-qtable.n_segments * 2 // self.config.l3_in_width),
                ops=qtable.n_segments,
            ),
        )
        self.trace.record(
            TraceEvent(
                kind="ipf",
                label=f"{label}.ipf",
                cycles=0 if fused_ipf else self.addressing.cycles(elements),
                ops=elements,
            )
        )

        # --- MHP on the diagonal computation PEs.
        schedule = plan_mhp(self.config, m_dim, n_dim, fused_ipf=fused_ipf)
        self.trace.record(
            TraceEvent(
                kind="mhp",
                label=f"{label}.mhp",
                cycles=schedule.breakdown.total,
                ops=schedule.elements,
                breakdown=schedule.breakdown,
            )
        )

    def apply_nonlinear_raw(
        self,
        function: str,
        x_raw: np.ndarray,
        granularity: float,
        label: Optional[str] = None,
        fused_ipf: bool = True,
        domain: "tuple[float, float] | None" = None,
    ) -> np.ndarray:
        """One nonlinear op's output codes, charged by :meth:`charge_nonlinear`.

        The values are :meth:`repro.core.cpwl.CPWLApproximator.evaluate_raw`,
        bit for bit what the structural chain of ``tests/reference/``
        (addressing walk, rearranged streams, lane-by-lane MHP) computes.
        """
        x_raw = np.atleast_2d(np.asarray(x_raw))
        self.charge_nonlinear(
            function, x_raw.shape, granularity, label, fused_ipf, domain
        )
        approx = get_approximator(function, granularity, self.config.fmt, domain=domain)
        return approx.evaluate_raw(x_raw)

    def _preload(self, qtable: QuantizedSegmentTable, event: TraceEvent) -> None:
        """Make ``qtable`` resident in the k/b store; ``event`` is
        recorded only when that took a preload transaction.  A tape keeps
        the pair, so :meth:`replay` decides on the store it meets."""
        trace = self.trace
        tape, trace.tape = trace.tape, None
        if tape is not None:
            tape.append((event, qtable))
        try:
            if self.addressing.preload(qtable, self.params):
                trace.record(event)
        finally:
            trace.tape = tape

    def apply_nonlinear(
        self,
        function: str,
        x: np.ndarray,
        granularity: float,
        label: Optional[str] = None,
        domain: "tuple[float, float] | None" = None,
    ) -> np.ndarray:
        """Float convenience wrapper around :meth:`apply_nonlinear_raw`."""
        fmt = self.config.fmt
        x_raw = quantize(x, fmt, dtype=np.float64)
        out = self.apply_nonlinear_raw(
            function, x_raw, granularity, label=label, domain=domain
        )
        out *= fmt.scale
        return out

    # ------------------------------------------------------------------
    # What the array is charged, apart from what the host computes
    # ------------------------------------------------------------------
    @contextmanager
    def capture(self) -> Iterator[list]:
        """Tape the hardware transactions issued inside the block.

        Yields the list being filled, in issue order: ``(event, count)``
        exactly as :meth:`Trace.record` receives them, and one
        ``(preload event, segment table)`` pair per nonlinear op whether
        or not its table was resident.  Operand *values* leave no mark:
        calls with equal operand shapes on one design point tape equal.
        """
        trace = self.trace
        outer, tape = trace.tape, []
        trace.tape = tape
        try:
            yield tape
        finally:
            trace.tape = outer
            if outer is not None:
                outer.extend(tape)

    def replay(self, tape: list) -> None:
        """Charge a tape :meth:`capture` filled to this array, computing nothing.

        Events go through the live trace (open namespace, open tape) and
        every table through the live parameter store, so one evicted
        since — by another model's tables or :meth:`reset` — preloads
        again exactly where execution would have paid for it.
        """
        for event, arg in tape:
            if isinstance(arg, QuantizedSegmentTable):
                self._preload(arg, event)
            else:
                self.trace.record(event, arg)

    @contextmanager
    def detached(self) -> Iterator["SystolicArray"]:
        """Compute without being charged: inside the block (blocks nest)
        :meth:`charge_gemm` and :meth:`charge_nonlinear` return at once,
        so trace, tape, parameter store and addressing unit see nothing;
        on exit, also when the body raises, charges count again."""
        outer, self._detached = self._detached, True
        try:
            yield self
        finally:
            self._detached = outer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Cycles accumulated over all traced operations (O(1))."""
        return self.trace.total_cycles

    def elapsed_seconds(self) -> float:
        """Wall-clock time of the traced work at the configured clock."""
        return self.total_cycles / self.config.clock_hz

    def utilization_summary(self) -> Dict[str, float]:
        """Share of traced cycles per operation kind.

        Reads the streaming aggregates — O(distinct kinds), never a
        re-scan of the event log.
        """
        total = self.total_cycles
        if not total:
            return {}
        return {
            kind: cycles / total
            for kind, cycles in self.trace.cycles_by_kind().items()
        }

    def reset(self) -> None:
        """Clear the trace, the k/b parameter store and the addressing
        unit between experiments."""
        self.trace.clear()
        #: The L3 ``(k, b)`` store the nonlinear path preloads into.
        self.params = ParameterStore(self.config.segment_capacity)
        self.addressing = DataAddressing(port_width=effective_out_width(self.config))
