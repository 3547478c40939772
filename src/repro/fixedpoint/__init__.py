"""Fixed-point arithmetic substrate.

ONE-SA (and the conventional systolic array it extends) computes in INT16
fixed point: the paper quantizes both the networks and the array datapath to
INT16 (Section V-A).  This subpackage provides the Q-format descriptor,
quantization/dequantization with saturation, and the saturating arithmetic
(saturation, accumulator writeback, GEMM and Hadamard MAC) that the
processing-element model builds on.

The representation convention throughout the package: a *raw* fixed-point
tensor is a numpy integer array holding the scaled integers (on the hot
paths a float64 array holding them exactly, see :mod:`.arithmetic`); the
:class:`QFormat` records how to interpret them.  Wider accumulators are
modelled with int64, matching the multi-layer accumulator inside each PE.
"""

from repro.fixedpoint.qformat import INT16, INT32, QFormat
from repro.fixedpoint.quantize import (
    dequantize,
    quantize,
    round_saturate,
)
from repro.fixedpoint.arithmetic import (
    accumulator_to_output,
    fixed_hadamard_mac,
    fixed_matmul,
    saturate,
)

__all__ = [
    "QFormat",
    "INT16",
    "INT32",
    "quantize",
    "dequantize",
    "round_saturate",
    "saturate",
    "fixed_matmul",
    "fixed_hadamard_mac",
    "accumulator_to_output",
]
