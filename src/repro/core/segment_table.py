"""CPWL segment tables.

A segment table is the pre-calculated ``(k, b)`` parameter store of the
capped piecewise linearization (Fig. 3): the approximation domain of a
nonlinear function is cut into equal-length segments; in each segment the
function is approximated by the chord ``y = k*x + b`` connecting the
segment's endpoints.  The table is preloaded into the L3 buffer before a
nonlinear operation executes, and the data-addressing module indexes it
with a shifted version of the fixed-point input (Fig. 5).

Segment lengths are powers of two so the index computation is a pure
arithmetic shift.  The paper sweeps granularities ``0.1 .. 1.0``
(Table III); granularities that are not powers of two are realised by the
*scale module* multiplying the shifted index by a small constant.  We
model both paths: power-of-two granularities use the shift path, others
the scale path (same functional result, one extra multiplier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from repro.core.functions import NonlinearFunction, get_function
from repro.domains import POSITIVE
from repro.fixedpoint import QFormat, quantize


def is_power_of_two(value: float) -> bool:
    """True if ``value`` is an exact (possibly negative) power of two."""
    if value <= 0:
        return False
    mantissa, _ = math.frexp(value)
    return mantissa == 0.5


@dataclass(frozen=True)
class SegmentTable:
    """Immutable CPWL parameter store for one nonlinear function.

    Attributes
    ----------
    name:
        Name of the approximated function.
    x_min, x_max:
        Approximation domain covered by the table.
    granularity:
        Segment length (the paper's approximation granularity).
    slopes, intercepts:
        Float ``(n_segments,)`` arrays of ``k`` and ``b`` per segment.
    shift_path:
        True when ``granularity`` is a power of two and the segment index
        can be produced by the data-shift module alone.
    """

    name: str
    x_min: float
    x_max: float
    granularity: float
    slopes: np.ndarray
    intercepts: np.ndarray
    shift_path: bool

    @property
    def n_segments(self) -> int:
        """Number of segments in the table."""
        return int(self.slopes.shape[0])

    @property
    def storage_bytes(self) -> int:
        """L3 storage footprint of the table in INT16 (2 bytes/parameter).

        Each segment stores one slope and one intercept; this is what the
        paper means by the granularity being "limited by the size of the
        L3 buffer" (Section V-B).
        """
        return self.n_segments * 2 * 2

    def segment_of(self, x: np.ndarray) -> np.ndarray:
        """Capped segment index for real-valued inputs.

        Implements steps 1 of Fig. 3: ``s = floor((x - x_min)/g)`` capped
        into ``[0, n_segments - 1]`` (the scale module's
        ``s = max[min(s, s_max), s_min]``).
        """
        x = np.asarray(x, dtype=np.float64)
        raw = np.floor((x - self.x_min) / self.granularity)
        return np.clip(raw, 0, self.n_segments - 1).astype(np.int64)

    def lookup(self, segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather ``(K, B)`` parameter matrices for a segment-index matrix."""
        segments = np.asarray(segments)
        return self.slopes[segments], self.intercepts[segments]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Reference CPWL evaluation in float: ``X ⊙ K + B``."""
        k, b = self.lookup(self.segment_of(x))
        return np.asarray(x, dtype=np.float64) * k + b

    def quantized(self, fmt: QFormat) -> "QuantizedSegmentTable":
        """Quantize the parameter store to the array's fixed-point format."""
        return QuantizedSegmentTable(
            table=self,
            fmt=fmt,
            slopes_raw=quantize(self.slopes, fmt),
            intercepts_raw=quantize(self.intercepts, fmt),
        )


@dataclass(frozen=True)
class QuantizedSegmentTable:
    """A :class:`SegmentTable` with parameters quantized to a Q-format.

    This is what is actually preloaded into the L3 ``k``/``b`` buffers:
    INT16 raw integers, gathered by the data-addressing module.
    """

    table: SegmentTable
    fmt: QFormat
    slopes_raw: np.ndarray
    intercepts_raw: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.table.n_segments

    @cached_property
    def registers(self) -> "tuple[int, Optional[int]]":
        """``(origin, shift)`` registers of the L3 data-addressing module,
        constants of the table and format (derived once, not per call).

        Both datapaths subtract the *same* origin: ``x_min`` through the
        ordinary quantizer (round half away from zero, saturating).  A
        bare ``np.round`` made the shift path disagree with the scale
        path whenever the domain touched the format's range: the
        register cannot hold the unsaturated origin.  ``shift`` is
        ``frac_bits + log2(granularity)``; ``None`` on the scale path.
        """
        origin = int(quantize(self.table.x_min, self.fmt))
        if not self.table.shift_path:
            return origin, None
        log2g = int(np.round(np.log2(self.table.granularity)))
        return origin, self.fmt.frac_bits + log2g

    def lookup_raw(self, segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather raw INT16 ``(K, B)`` matrices for segment indices."""
        segments = np.asarray(segments)
        return self.slopes_raw[segments], self.intercepts_raw[segments]


def build_segment_table(
    function: "str | NonlinearFunction",
    granularity: float,
    domain: Optional[tuple[float, float]] = None,
) -> SegmentTable:
    """Pre-calculate the CPWL segment table for a nonlinear function.

    Parameters
    ----------
    function:
        Registered function name or a :class:`NonlinearFunction`.
    granularity:
        Segment length.  Power-of-two values take the shift path in the
        data-addressing module.
    domain:
        Optional override of the function's default approximation domain.

    Returns
    -------
    SegmentTable
        The chord-interpolation table.  The first and last segments serve
        as the capped extensions outside the domain.
    """
    fn = get_function(function) if isinstance(function, str) else function
    POSITIVE("granularity", granularity)
    lo, hi = domain if domain is not None else fn.domain
    if not hi > lo:
        raise ValueError(f"empty domain ({lo}, {hi})")

    n_segments = max(1, int(math.ceil((hi - lo) / granularity - 1e-12)))
    starts = lo + granularity * np.arange(n_segments)
    ends = np.minimum(starts + granularity, hi)
    y_start = fn(starts)
    y_end = fn(ends)
    widths = ends - starts
    # Guard against a degenerate final sliver segment.
    widths = np.where(widths <= 0, granularity, widths)
    slopes = (y_end - y_start) / widths
    intercepts = y_start - slopes * starts
    return SegmentTable(
        name=fn.name,
        x_min=float(lo),
        x_max=float(hi),
        granularity=float(granularity),
        slopes=slopes,
        intercepts=intercepts,
        shift_path=is_power_of_two(granularity),
    )
