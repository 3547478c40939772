"""The user-facing systolic array.

:class:`SystolicArray` ties the microarchitecture modules together: it
executes GEMMs as single whole-operand ``fixed_matmul`` calls *costed*
by the output-stationary tile schedule (the per-tile loop is only the
pinned equivalence reference, :func:`~repro.systolic.gemm.execute_gemm_per_tile`),
and nonlinear operations as the IPF → rearrange → MHP event chain, all
bit-accurate in the configured fixed-point format and with cycle
accounting recorded in an execution trace.

Typical use::

    from repro.systolic import SystolicArray, ONE_SA_PAPER_CONFIG

    array = SystolicArray(ONE_SA_PAPER_CONFIG)
    c = array.matmul(a, b)                    # float in, float out
    y = array.apply_nonlinear("gelu", x, granularity=0.25)
    print(array.trace.cycles_by_kind())

Hot-path design (the serving engine's per-request accounting rides on
it):

* GEMM plans come from the bounded LRU in :mod:`repro.systolic.gemm`
  and functional execution is one whole-operand ``fixed_matmul`` —
  tile geometry stays analytic metadata on the schedule;
* batched (stacked) GEMMs execute as a single N-D ``fixed_matmul``
  with the per-pair trace events synthesized from the closed-form
  cycle model (:meth:`gemm_raw_batched`);
* a nonlinear op is charged from its shape (preload, addressing and
  MHP events in closed form) and computed from the approximator's code
  table — one gather per element once the table exists
  (:meth:`repro.core.cpwl.CPWLApproximator.evaluate_raw`); the
  structural chain (``DataAddressing.run``,
  :func:`~repro.systolic.mhp_dataflow.execute_mhp_per_lane`) is the
  equivalence reference, as the per-tile loop is for GEMMs;
* the data-rearrange pass on the nonlinear path is metadata-only: its
  relocation cost rides the MHP event (no separate trace entry, as in
  the seed; :func:`repro.systolic.rearrange.rearrange_cycles` gives
  the isolated closed form) and the interleaved streams are never built
  (:func:`repro.systolic.rearrange.rearrange_for_mhp` builds them for
  the dataflow tests);
* the ``*_raw`` operations return the output codes alone: what an op
  cost is on the trace, the one record of array work;
* trace aggregates (:attr:`total_cycles`, utilization) are maintained
  streaming, so consulting them is O(1) regardless of history length.
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
from repro.systolic.gemm import execute_gemm, plan_gemm
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

    def __init__(self, config: SystolicConfig = ONE_SA_PAPER_CONFIG) -> None:
        self.config = config
        self.trace = Trace()
        self.reset()

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------
    def gemm_raw(
        self, a_raw: np.ndarray, b_raw: np.ndarray, label: str = "gemm"
    ) -> np.ndarray:
        """Bit-accurate GEMM on raw fixed-point operands: the output codes."""
        out, schedule = execute_gemm(self.config, a_raw, b_raw)
        self.trace.record(
            TraceEvent(
                kind="gemm",
                label=label,
                cycles=schedule.breakdown.total,
                ops=schedule.macs,
                breakdown=schedule.breakdown,
            )
        )
        return out

    def gemm_raw_batched(
        self, a_raw: np.ndarray, b_raw: np.ndarray, label: str = "gemm"
    ) -> np.ndarray:
        """Bit-accurate stacked GEMM: ``(B, M, K) @ (B, K, N)``.

        The hardware model still issues one GEMM per matrix pair — the
        trace records one event per pair with the closed-form cycle
        breakdown, exactly as if :meth:`gemm_raw` had been called in a
        loop — but the functional arithmetic runs as a single N-D
        :func:`fixed_matmul`, which is bit-identical to the loop (every
        output element remains one wide-accumulated dot product with a
        single saturating writeback).
        """
        a_raw = np.asarray(a_raw)
        b_raw = np.asarray(b_raw)
        if a_raw.ndim != 3 or b_raw.ndim != 3:
            raise ValueError("gemm_raw_batched expects 3-D stacked operands")
        if a_raw.shape[0] != b_raw.shape[0]:
            raise ValueError(
                f"stack mismatch: {a_raw.shape[0]} vs {b_raw.shape[0]} pairs"
            )
        if a_raw.shape[2] != b_raw.shape[1]:
            raise ValueError(f"shape mismatch: {a_raw.shape} @ {b_raw.shape}")
        n_pairs, m_dim, k_dim = a_raw.shape
        n_dim = b_raw.shape[2]
        schedule = plan_gemm(self.config, m_dim, k_dim, n_dim)
        out = fixed_matmul(a_raw, b_raw, self.config.fmt)
        event = TraceEvent(
            kind="gemm",
            label=label,
            cycles=schedule.breakdown.total,
            ops=schedule.macs,
            breakdown=schedule.breakdown,
        )
        self.trace.record(event, count=n_pairs)
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
    def apply_nonlinear_raw(
        self,
        function: str,
        x_raw: np.ndarray,
        granularity: float,
        label: Optional[str] = None,
        fused_ipf: bool = True,
        domain: "tuple[float, float] | None" = None,
    ) -> np.ndarray:
        """Run one nonlinear op as the IPF → rearrange → MHP chain.

        Every event is charged from the operand's shape alone: the table
        preload (when the k/b store does not hold it), the addressing
        pass (``DataAddressing.cycles``) and the MHP schedule.  The
        values are :meth:`repro.core.cpwl.CPWLApproximator.evaluate_raw`
        — a gather from the approximator's code table once it has one —
        bit for bit what the structural chain (:meth:`DataAddressing.run`,
        :func:`~repro.systolic.mhp_dataflow.execute_mhp_per_lane`)
        computes.

        The rearrange pass is metadata-only: its relocation cost rides
        the MHP event (no separate trace entry, matching the seed
        accounting; :func:`~repro.systolic.rearrange.rearrange_cycles`
        is the isolated closed form) and the interleaved ``(x, 1)`` /
        ``(k, b)`` streams are pure routing — the MHP consumes the raw
        operands — so they are never built here
        (:func:`~repro.systolic.rearrange.rearrange_for_mhp` builds them).
        Returns the output codes.
        """
        if not self.config.nonlinear_enabled:
            raise RuntimeError(
                "this design point is a conventional SA; nonlinear "
                "operations need nonlinear_enabled=True"
            )
        fmt = self.config.fmt
        label = label or function
        x_raw = np.atleast_2d(np.asarray(x_raw))
        m_dim, n_dim = x_raw.shape
        approx = get_approximator(function, granularity, fmt, domain=domain)

        # --- IPF: table preload (if not resident) and the addressing pass.
        self._preload(
            approx.qtable,
            TraceEvent(
                kind="preload",
                label=f"{label}.table",
                cycles=-(-approx.qtable.n_segments * 2 // self.config.l3_in_width),
                ops=approx.qtable.n_segments,
            ),
        )
        self.trace.record(
            TraceEvent(
                kind="ipf",
                label=f"{label}.ipf",
                cycles=0 if fused_ipf else self.addressing.cycles(x_raw.size),
                ops=x_raw.size,
            )
        )

        # --- MHP on the diagonal computation PEs.
        schedule = plan_mhp(self.config, m_dim, n_dim, fused_ipf=fused_ipf)
        out = approx.evaluate_raw(x_raw)
        self.trace.record(
            TraceEvent(
                kind="mhp",
                label=f"{label}.mhp",
                cycles=schedule.breakdown.total,
                ops=schedule.elements,
                breakdown=schedule.breakdown,
            )
        )
        return out

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
        """Compute without being charged: inside the block the array runs
        on a scratch trace, parameter store and addressing unit; on exit
        (also when the body raises) the real ones are back, every counter
        as it was."""
        live = self.trace, self.params, self.addressing
        self.trace = Trace()
        self.reset()
        try:
            yield self
        finally:
            self.trace, self.params, self.addressing = live

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
        self.addressing = DataAddressing(
            self.config.fmt,
            port_width=effective_out_width(self.config),
        )
