"""Saturating fixed-point arithmetic primitives.

These model the datapath operations available inside a ONE-SA processing
element: INT16 multiply into a wide product, accumulation in the
multi-layer accumulator (int64 model), and saturating writeback.  All
functions operate on *raw* codes (see :mod:`repro.fixedpoint`).

Results come back in the representation of the operands: integers give
``fmt.storage_dtype()`` integers, float64 arrays of exact raw integers
(``quantize(..., dtype=np.float64)``) give float64 codes, so a chain of
operations never converts in between.  The float64 arithmetic is exact:
every intermediate is an integer of magnitude at most ``2**53`` (a wider
format is computed in int64) and the shift is a scaling and a floor.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import saturate_codes


def saturate(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Clamp raw integers to the representable range of ``fmt``."""
    clipped = np.maximum(np.asarray(raw, dtype=np.int64), fmt.raw_min)
    return np.minimum(clipped, fmt.raw_max).astype(fmt.storage_dtype())


def accumulator_to_output(acc: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Round and saturate a product-aligned accumulator back to ``fmt``.

    Models the writeback from the multi-layer accumulator to the PE
    output buffer (Fig. 7a).  A float64 accumulator of exact integers
    gives float64 codes: ``floor((acc + half) * 2**-frac_bits)`` is the
    arithmetic shift, and a sum past ``2**53`` saturates either way.
    """
    acc = np.asarray(acc)
    if acc.dtype.kind == "f":
        acc = np.array(acc, dtype=np.float64)  # rounded in place: own it
    return _writeback(acc, fmt)


def _writeback(acc: np.ndarray, fmt: QFormat) -> np.ndarray:
    """:func:`accumulator_to_output` on an accumulator the caller just
    allocated: the GEMM and MHP writebacks round their float64 sum in
    place, so they allocate nothing on writeback."""
    half = 1 << (fmt.frac_bits - 1) if fmt.frac_bits > 0 else 0
    if acc.dtype.kind == "f":
        acc += float(half)
        acc *= fmt.scale
        np.floor(acc, out=acc)
        return saturate_codes(acc, fmt)
    rounded = np.asarray(acc, dtype=np.int64) + half
    rounded >>= fmt.frac_bits
    return saturate(rounded, fmt)


def fixed_matmul(a: np.ndarray, b: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Bit-accurate fixed-point matrix multiply ``a @ b``.

    This is the vectorised reference for what the systolic array computes
    in GEMM mode: every output element is a dot product accumulated in
    the wide accumulator and saturated once on writeback.  Inputs are raw
    codes in ``fmt``; the output is raw codes in ``fmt``, in the
    representation of the operands (float64 if either is).

    Operands may carry leading batch axes: ``(..., M, K) @ (..., K, N)``
    is computed as a stack of independent 2-D GEMMs with numpy's matmul
    broadcasting over the leading axes.  Because every output element is
    still one dot product with a single saturating writeback, the stacked
    result is bit-identical to looping :func:`fixed_matmul` over the
    matrix pairs — the property the serving engine relies on to pack
    concurrent requests into shared GEMM tiles.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"fixed_matmul expects >=2-D inputs, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"shape mismatch for matmul: {a.shape} @ {b.shape}")
    # Accumulator bound for operands in fmt: every partial sum is an
    # integer of magnitude <= K * (2**(total_bits-1))**2.  While that
    # stays below 2**53, float64 represents every intermediate exactly,
    # so the GEMM can run on the (much faster) BLAS float path and write
    # back losslessly.  Wider formats fall back to int64 matmul.
    acc_bound = a.shape[-1] * (1 << (fmt.total_bits - 1)) ** 2
    wide = np.float64 if acc_bound <= 1 << 53 else np.int64
    out = _writeback(a.astype(wide, copy=False) @ b.astype(wide, copy=False), fmt)
    floating = a.dtype.kind == "f" or b.dtype.kind == "f"
    return out.astype(np.float64 if floating else fmt.storage_dtype(), copy=False)


def fixed_hadamard_mac(
    x: np.ndarray, k: np.ndarray, b: np.ndarray, fmt: QFormat
) -> np.ndarray:
    """Bit-accurate fixed-point ``x * k + b`` (the MHP computation).

    Mirrors the rearranged two-term dot product each computation PE
    executes: ``y = k*x + b*1`` with both products accumulated in the wide
    accumulator before a single rounding/saturating writeback (Fig. 6).
    """
    x = np.asarray(x)
    k = np.asarray(k)
    b = np.asarray(b)
    one = 1 << fmt.frac_bits
    # The MHP analogue of fixed_matmul's bound: |x*k| + |b|*2**frac_bits.
    rail = 1 << (fmt.total_bits - 1)
    wide = np.float64 if rail * rail + rail * one <= 1 << 53 else np.int64
    acc = (
        x.astype(wide, copy=False) * k.astype(wide, copy=False)
        + b.astype(wide, copy=False) * one
    )
    floating = "f" in (x.dtype.kind, k.dtype.kind, b.dtype.kind)
    out = _writeback(acc, fmt)
    return out.astype(np.float64 if floating else fmt.storage_dtype(), copy=False)
