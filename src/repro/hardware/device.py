"""FPGA device descriptions.

The paper targets the Xilinx Virtex-7 XC7VX485T (Section V-A).  The
device limits let the design-space sweeps flag configurations that
cannot actually fit — notably, the paper's own 16×16 totals (Table II)
exceed the XC7VX485T LUT and DSP capacity, an observation EXPERIMENTS.md
records.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.resources import ArrayResources


@dataclass(frozen=True)
class FPGADevice:
    """Capacity of one FPGA part."""

    name: str
    lut: int
    ff: int
    bram_36k: int
    dsp: int

    def fits(self, resources: ArrayResources) -> bool:
        """Whether a design's resource vector fits the part."""
        return (
            resources.lut <= self.lut
            and resources.ff <= self.ff
            and resources.bram <= self.bram_36k
            and resources.dsp <= self.dsp
        )


#: The paper's target part (Virtex-7 datasheet DS180).
VIRTEX7_XC7VX485T = FPGADevice(
    name="Virtex-7 XC7VX485T",
    lut=303_600,
    ff=607_200,
    bram_36k=1_030,
    dsp=2_800,
)

#: A larger Virtex UltraScale+ part (used by FTRANS [19]) for context.
VIRTEX_ULTRASCALE_VU9P = FPGADevice(
    name="Virtex UltraScale+ VU9P",
    lut=1_182_240,
    ff=2_364_480,
    bram_36k=2_160,
    dsp=6_840,
)
