"""An array and a backend that run every nonlinear op through the
structural chain the array's events stand for.

:meth:`~repro.systolic.SystolicArray.charge_nonlinear` records a table
preload, an addressing pass and an MHP pass from the operand shape.
:class:`ChainArray` walks them instead: the table preload, data
addressing batch by batch through its FIFOs
(:class:`~tests.reference.dataflow.StructuralAddressing`), the
rearranged streams materialized (the seed built them unconditionally
and never consumed them) and the MHP lane by lane.  On equal operands
it must compute the values and record the events the array does.

:class:`ChainBackend` is an ``ArrayBackend`` whose ReLU / GELU the array
computes *and* charges through :meth:`ChainArray.apply_nonlinear`,
where the library computes them on the CPWL path and only charges the
array.
"""

from __future__ import annotations

import numpy as np

from repro.core.nonlinear_ops import get_approximator, relu_domain
from repro.nn.executor import ArrayBackend
from repro.systolic import SystolicArray
from repro.systolic.trace import TraceEvent

from tests.reference.dataflow import StructuralAddressing, execute_mhp_per_lane
from tests.reference.rearrange import rearrange_for_mhp


class ChainArray(SystolicArray):
    """SystolicArray whose nonlinear ops run the structural chain."""

    def reset(self) -> None:
        super().reset()
        self.addressing = StructuralAddressing(
            self.config.fmt, port_width=self.addressing.port_width
        )

    def apply_nonlinear_raw(
        self, function, x_raw, granularity, label=None, fused_ipf=True, domain=None,
    ):
        fmt = self.config.fmt
        label = label or function
        x_raw = np.atleast_2d(np.asarray(x_raw))
        qtable = get_approximator(function, granularity, fmt, domain=domain).qtable
        if self.addressing.preload(qtable, self.params):
            self.trace.record(
                TraceEvent(
                    kind="preload",
                    label=f"{label}.table",
                    cycles=-(-qtable.n_segments * 2 // self.config.l3_in_width),
                    ops=qtable.n_segments,
                )
            )
        ipf, stats = self.addressing.run(x_raw)
        self.trace.record(
            TraceEvent(
                kind="ipf",
                label=f"{label}.ipf",
                cycles=0 if fused_ipf else stats.cycles,
                ops=stats.elements,
            )
        )
        rearrange_for_mhp(
            x_raw, ipf.k_raw, ipf.b_raw, self.config.pe_rows, 1 << fmt.frac_bits,
            port_width=self.config.l3_in_width,
        )
        out, schedule = execute_mhp_per_lane(
            self.config, x_raw, ipf.k_raw, ipf.b_raw, fused_ipf=fused_ipf
        )
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


class ChainBackend(ArrayBackend):
    """ArrayBackend whose ReLU / GELU go through ``array.apply_nonlinear``."""

    def relu(self, x):
        return self._on_array("relu", x, relu_domain(self.granularity))

    def gelu(self, x):
        return self._on_array("gelu", x)

    def _on_array(self, function, x, domain=None):
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x.reshape(1, -1)
        out = self.array.apply_nonlinear(function, flat, self.granularity, domain=domain)
        return out.reshape(x.shape)
