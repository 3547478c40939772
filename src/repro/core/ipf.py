"""Intermediate Parameter Fetching (IPF).

IPF is the first of the two architecture-level events a nonlinear
operation decomposes into (Section III-A, steps 1 and 2):

1. compute the segment matrix ``S`` from the input matrix ``X`` — in
   hardware this happens in the L3 buffer's data-addressing module, which
   shifts the fixed-point input (power-of-two segment lengths) and caps
   the result with the scale module (Fig. 5);
2. gather the pre-stored slope/intercept parameters into matrices
   ``K, B ∈ R^{M×N}`` and stage them (through DRAM, in the paper's
   implementation) for the Matrix Hadamard Product.

This module implements the event functionally, bit-faithful to the
shift/cap datapath, and reports the traffic quantities the timing model
charges for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.segment_table import QuantizedSegmentTable, SegmentTable
from repro.fixedpoint import QFormat


@dataclass(frozen=True)
class IPFResult:
    """Output of one Intermediate Parameter Fetching event.

    Attributes
    ----------
    segments:
        The capped segment-index matrix ``S`` (int64, same shape as X).
    k_raw, b_raw:
        Raw fixed-point parameter matrices ``K`` and ``B``.
    shift_path:
        Whether the segment indices were produced by the pure-shift
        datapath (power-of-two granularity) or needed the scale
        multiplier.
    elements:
        Number of elements processed (traffic accounting).
    """

    segments: np.ndarray
    k_raw: np.ndarray
    b_raw: np.ndarray
    shift_path: bool
    elements: int


def segment_indices(
    x_raw: np.ndarray, table: SegmentTable, fmt: QFormat
) -> np.ndarray:
    """Segment matrix ``S`` from raw fixed-point inputs.

    For power-of-two granularities this reproduces the data-shift module:
    with ``granularity = 2**g`` and ``frac_bits = F`` fractional bits, the
    uncapped index is ``(x_raw - x_min_raw) >> (F + g')`` where
    ``g' = -log2(granularity)``; the scale module then caps it into the
    valid range.  Non-power-of-two granularities go through the scale
    multiplier, computing the same floor division.
    """
    return fetch_parameters(x_raw, table.quantized(fmt), fmt).segments


def fetch_parameters(
    x_raw: np.ndarray, qtable: QuantizedSegmentTable, fmt: QFormat
) -> IPFResult:
    """Run the full IPF event: addressing + parameter gather.

    Returns the segment matrix and raw ``(K, B)`` matrices ready for the
    Matrix Hadamard Product (``x_raw``: integers or float64 codes).
    """
    table = qtable.table
    origin, shift = qtable.registers
    segments = np.asarray(x_raw).astype(np.int64)
    segments -= origin
    if shift is None:
        # Scale-multiplier path: the same floor division computed from
        # the same saturated origin, so the two paths always agree.
        segments = np.floor(segments * fmt.scale / table.granularity).astype(np.int64)
    elif shift >= 0:
        # index = floor((x - x_min) / 2**log2g), with x in raw units.
        segments >>= shift
    else:
        # Granularity finer than one LSB: scale up (degenerate but legal).
        segments <<= -shift
    np.maximum(segments, 0, out=segments)
    np.minimum(segments, table.n_segments - 1, out=segments)
    k_raw, b_raw = qtable.lookup_raw(segments)
    return IPFResult(
        segments=segments,
        k_raw=k_raw,
        b_raw=b_raw,
        shift_path=table.shift_path,
        elements=segments.size,
    )
