"""Analytic BRAM/LUT/FF/DSP model calibrated to the paper.

Model structure (see the subpackage docstring for the calibration
story):

* **PE** (Table I, 16 MACs): ``DSP = m``, ``BRAM = 1``,
  ``LUT = 600 + 14 m`` (+2 for the ONE-SA control muxes),
  ``FF = 950 + 57 m`` (+518 for the C1/C2 control logics and the MHP
  bypass registers).  At ``m = 16`` this reproduces the published
  824/826 LUT and 1862/2380 FF exactly, and doubling the MAC count
  raises PE FFs by 7–49%, inside the 2.6–53.8% band reported in
  Section V-C.
* **L3 buffer** (per instance): ``LUT = 110 + P m / 2``,
  ``FF = 310 + 2 P m``, no BRAM/DSP — 174 LUT / 566 FF at the paper's
  8×8/16-MAC point.  The ONE-SA *output* L3 additionally carries the
  data-addressing module and the k/b parameter store:
  ``+2 BRAM, +847 LUT, +643 FF`` (the Table I deltas).
* **Fabric remainder** (L2 banks, interconnect, control): anchored to
  the Table II SA totals at 16/64/256 PEs and interpolated linearly in
  the PE count, matching the linear LUT/FF/DSP growth of Fig. 9.

With this structure the model reproduces Table II exactly at the three
published design points, including every ONE-SA-over-SA delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.domains import POSITIVE_INT
from repro.systolic.config import SystolicConfig

# ---------------------------------------------------------------------------
# Calibration anchors (published numbers)
# ---------------------------------------------------------------------------

#: Table I PE cost at 16 MACs (conventional SA).
_PE_ANCHOR = {"bram": 1, "lut": 824, "ff": 1862, "dsp": 16, "macs": 16}

#: Table I ONE-SA deltas: per-PE control logic and the extended output L3.
_PE_NL_DELTA = {"lut": 2, "ff": 518}
_L3_NL_DELTA = {"bram": 2, "lut": 847, "ff": 643}

#: Table II conventional-SA totals, keyed by PE count (all at 16 MACs).
_TABLE2_SA_TOTALS = {
    16: {"bram": 470, "lut": 67_976, "ff": 66_924, "dsp": 256},
    64: {"bram": 822, "lut": 179_247, "ff": 179_247, "dsp": 1_024},
    256: {"bram": 1_366, "lut": 730_225, "ff": 552_539, "dsp": 4_096},
}


@dataclass(frozen=True)
class ArrayResources:
    """A BRAM/LUT/FF/DSP resource vector."""

    bram: float
    lut: float
    ff: float
    dsp: float

    def __add__(self, other: "ArrayResources") -> "ArrayResources":
        return ArrayResources(
            self.bram + other.bram,
            self.lut + other.lut,
            self.ff + other.ff,
            self.dsp + other.dsp,
        )

    def scaled(self, factor: float) -> "ArrayResources":
        return ArrayResources(
            self.bram * factor,
            self.lut * factor,
            self.ff * factor,
            self.dsp * factor,
        )

    def rounded(self) -> "ArrayResources":
        return ArrayResources(
            round(self.bram), round(self.lut), round(self.ff), round(self.dsp)
        )


def pe_resources(macs_per_pe: int, nonlinear: bool = True) -> ArrayResources:
    """Resource cost of one processing element.

    ``nonlinear=False`` gives the conventional-SA PE; ``True`` adds the
    C1/C2 control logics (Fig. 7), which cost flip-flops and a couple of
    LUT-level muxes but no extra BRAM or DSP — the headline claim of
    Table I.
    """
    macs_per_pe = POSITIVE_INT("macs_per_pe", macs_per_pe)
    lut = 600 + 14 * macs_per_pe
    ff = 950 + 57 * macs_per_pe
    if nonlinear:
        lut += _PE_NL_DELTA["lut"]
        ff += _PE_NL_DELTA["ff"]
    return ArrayResources(bram=1, lut=lut, ff=ff, dsp=macs_per_pe)


def l3_resources(
    pe_rows: int, macs_per_pe: int, nonlinear_output: bool = False
) -> ArrayResources:
    """Resource cost of one L3 buffer instance.

    ``nonlinear_output=True`` models the ONE-SA output L3 with the
    data-addressing module and k/b parameter store (Fig. 5): +2 BRAM,
    +847 LUT, +643 FF over the conventional buffer — the Table I deltas.
    """
    row = pe_rows * macs_per_pe
    base = ArrayResources(bram=0, lut=110 + row // 2, ff=310 + 2 * row, dsp=0)
    if not nonlinear_output:
        return base
    return base + ArrayResources(
        bram=_L3_NL_DELTA["bram"],
        lut=_L3_NL_DELTA["lut"],
        ff=_L3_NL_DELTA["ff"],
        dsp=0,
    )


def _fabric_anchor(n_pes: int) -> ArrayResources:
    """Fabric remainder (L2 + interconnect + control) at one anchor."""
    totals = _TABLE2_SA_TOTALS[n_pes]
    pe_rows = int(round(n_pes**0.5))
    pes = pe_resources(16, nonlinear=False).scaled(n_pes)
    l3s = l3_resources(pe_rows, 16).scaled(3)
    return ArrayResources(
        bram=totals["bram"] - pes.bram - l3s.bram,
        lut=totals["lut"] - pes.lut - l3s.lut,
        ff=totals["ff"] - pes.ff - l3s.ff,
        dsp=totals["dsp"] - pes.dsp - l3s.dsp,
    )


def fabric_resources(n_pes: int) -> ArrayResources:
    """Fabric remainder interpolated in the PE count.

    Linear interpolation between the Table II anchors (16/64/256 PEs)
    and linear extrapolation outside, clamped non-negative.  The fabric
    is MAC-count independent, consistent with the Fig. 9 observation
    that extra MACs grow DSPs and FFs but not BRAM.
    """
    n_pes = POSITIVE_INT("n_pes", n_pes)
    anchors = sorted(_TABLE2_SA_TOTALS)
    values = {n: _fabric_anchor(n) for n in anchors}
    xs = np.array(anchors, dtype=np.float64)

    def interp(attr: str) -> float:
        ys = np.array([getattr(values[n], attr) for n in anchors])
        if n_pes <= xs[0]:
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            return float(max(0.0, ys[0] + slope * (n_pes - xs[0])))
        if n_pes >= xs[-1]:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return float(max(0.0, ys[-1] + slope * (n_pes - xs[-1])))
        return float(np.interp(n_pes, xs, ys))

    return ArrayResources(
        bram=interp("bram"), lut=interp("lut"), ff=interp("ff"), dsp=interp("dsp")
    )


def total_resources(config: SystolicConfig) -> ArrayResources:
    """Total resource vector of a design point (Table II / Fig. 9).

    Sum of ``n_PEs`` processing elements, two conventional L3 buffers
    (input, weight), one output L3 (extended when the design is ONE-SA)
    and the interpolated fabric remainder.
    """
    pes = pe_resources(config.macs_per_pe, nonlinear=config.nonlinear_enabled)
    total = pes.scaled(config.n_pes)
    total = total + l3_resources(config.pe_rows, config.macs_per_pe).scaled(2)
    total = total + l3_resources(
        config.pe_rows,
        config.macs_per_pe,
        nonlinear_output=config.nonlinear_enabled,
    )
    total = total + fabric_resources(config.n_pes)
    return total.rounded()

