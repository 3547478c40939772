"""Quantization between floating point and fixed-point raw integers."""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from repro.fixedpoint.qformat import QFormat

ArrayLike = Union[float, int, np.ndarray]

#: Elements per strip of the element-wise code-space kernels: 2**15
#: float64 codes are 256 KiB, so a strip and its one temporary stay in a
#: core's L2 across every pass of the kernel, and no kernel allocates a
#: temporary the size of its operand.  Chosen on ``round_saturate`` over
#: ``(8, 4, 64, 64)`` codes (softmax scores of ``model_forward``; 2-core
#: Xeon, 2 MiB L2 per core; best of 30): strips of 2**12 0.35 ms, 2**13
#: 0.30, 2**14 0.27, 2**15 0.26, 2**16 0.27, 2**17 0.27, one shot 0.28.
STRIP_ELEMENTS = 1 << 15

#: The rounding offset of :func:`round_saturate`: the largest double
#: below 0.5.
_HALF = float(np.nextafter(0.5, 0.0))


def strips(array: np.ndarray) -> Iterator[np.ndarray]:
    """Views that cover ``array`` once, each of at most
    :data:`STRIP_ELEMENTS` elements (slabs along the leading axes).

    The partition depends on the shape alone, so two arrays of one shape
    — an operand and the output it is written into — yield matching
    strips whatever their strides.
    """
    if array.size <= STRIP_ELEMENTS:
        yield array
        return
    row = array[0].size
    if row > STRIP_ELEMENTS:
        for sub in array:
            yield from strips(sub)
        return
    step = STRIP_ELEMENTS // row
    for start in range(0, array.shape[0], step):
        yield array[start : start + step]


def quantize(
    values: ArrayLike,
    fmt: QFormat,
    rounding: str = "nearest",
    dtype: "np.dtype | type | None" = None,
) -> np.ndarray:
    """Quantize real ``values`` to raw fixed-point integers.

    Values outside the representable range saturate to the format limits,
    matching the saturating writeback of the PE output buffer.

    Parameters
    ----------
    values:
        Scalar or array of real numbers.
    fmt:
        Target fixed-point format.
    rounding:
        ``'nearest'`` (round half away from zero, the HLS default used by
        the paper's toolchain) or ``'floor'`` (truncation).
    dtype:
        Output dtype.  ``None`` (default) uses ``fmt.storage_dtype()``.
        Passing ``np.float64`` returns the *same raw integers* held in
        float64 — every in-range raw value is exactly representable —
        which skips the integer materialization pass; the GEMM hot path
        uses this because :func:`repro.fixedpoint.fixed_matmul` computes
        on the BLAS float path anyway.

    Returns
    -------
    numpy.ndarray
        Raw integers in ``dtype`` (``fmt.storage_dtype()`` by default).
    """
    values = np.asarray(values, dtype=np.float64)
    # 0-d inputs decay to numpy scalars under arithmetic, which the
    # in-place kernels below cannot write into; lift them to 1-d and
    # restore the shape on return.
    scalar_input = values.ndim == 0
    raw = (np.atleast_1d(values) if scalar_input else values) * (1 << fmt.frac_bits)
    if rounding == "nearest":
        round_saturate(raw, fmt)
    elif rounding == "floor":
        np.floor(raw, out=raw)
        saturate_codes(raw, fmt)
    else:
        raise ValueError(f"unknown rounding mode: {rounding!r}")
    if dtype is None or np.dtype(dtype) != np.float64:
        raw = raw.astype(fmt.storage_dtype() if dtype is None else dtype)
    return raw.reshape(()) if scalar_input else raw


def saturate_codes(codes: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Clamp float64 raw ``codes`` to ``fmt``'s range, in place (two
    ufunc passes: cheaper than ``np.clip``'s Python-level dispatch on
    the small arrays of the serving hot path)."""
    np.maximum(codes, fmt.raw_min, out=codes)
    np.minimum(codes, fmt.raw_max, out=codes)
    return codes


def round_saturate(codes: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Round float64 ``codes`` half away from zero and saturate, in place.

    The one rounding kernel of the datapath model: a value scaled by
    ``2**frac_bits`` goes in, the exact raw integer the saturating
    writeback stores comes out, in the same float64 array (which the
    caller must own).  An array larger than one strip is rounded strip
    by strip (:func:`strips`): every pass is element-wise, so the codes
    are the one-shot codes byte for byte.
    """
    if codes.size > STRIP_ELEMENTS:
        for strip in strips(codes):
            round_saturate(strip, fmt)
        return codes
    # Half away from zero as trunc(x + copysign(h, x)): branch-free.  h
    # is the double just below 0.5: with 0.5 itself, |x| = 0.5 - 2**-54
    # sums to 1.0 and rounds away from zero, while a true tie k + 0.5
    # still sums past k + 1 for every |x| < 2**52.
    half = np.copysign(_HALF, codes)
    codes += half
    np.trunc(codes, out=codes)
    saturate_codes(codes, fmt)
    # trunc maps (-1, 0) to -0.0; adding +0.0 restores the one zero
    # integers have, so codes equal the converted integers byte for byte.
    codes += 0.0
    return codes


def dequantize(raw: ArrayLike, fmt: QFormat) -> np.ndarray:
    """Convert raw fixed-point integers back to real values."""
    return np.asarray(raw, dtype=np.float64) * fmt.scale
