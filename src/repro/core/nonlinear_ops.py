"""Composite nonlinear operations decomposed for the array.

Section III-A uses GELU as the walk-through but notes "the same process
can also be used to handle other nonlinear operations, such as Softmax
and Layer normalization".  This module performs those decompositions: a
composite op becomes a short program of

* linear steps the array already supports (row reductions are
  matrix-vector GEMMs, subtractions are adds), and
* scalar CPWL stages (``exp``, ``1/x``, ``1/sqrt(x)``, ``gelu``, ...)
  executed as IPF + MHP events, and
* element-wise products, which are themselves MHPs with ``B = 0``.

Every function takes float activations, quantizes to the datapath format,
runs the bit-accurate fixed-point pipeline, and returns float results —
i.e. the value the network would actually see when the op runs on
ONE-SA.  The single-table ops (``cpwl_gelu`` and its kin,
``cpwl_rsqrt_range_reduced``) also take ``fmt=None``, an idealised
float CPWL (no quantization) that splits error sources; the composite
softmax, layernorm and batchnorm run in a fixed-point format only.

Inside a fixed-point op a value stays a float64 raw code between array
events: scale by ``2**frac_bits`` on entry, chain ``round_saturate`` /
``evaluate_raw`` (a code-by-code product gives one scale back), scale by
``fmt.scale`` on exit.  Power-of-two scaling commutes exactly with every
float64 operation used, so each rounding sees bit for bit the operand a
quantize-dequantize round trip per stage would hand it.  Later stages
write into arrays earlier ones allocated, so an op holds no full-size
array beyond its codes and its output.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.core.cpwl import CPWLApproximator
from repro.fixedpoint import QFormat, round_saturate
from repro.fixedpoint.qformat import INT16

#: Approximators kept per process.  One is a pure function of (function,
#: granularity, format, domain), so, like the (K, B) tables the array
#: preloads into its L3 parameter store once, it is built once and
#: reused: its code table (``CPWLApproximator.code_table``) then
#: amortises over every op the process runs, replays included.  The
#: bound stops a granularity / format sweep from growing the memo
#: without limit; no single experiment comes near it.
APPROXIMATORS = 256


@functools.lru_cache(maxsize=APPROXIMATORS)
def _approximator(
    name: str,
    granularity: float,
    fmt: Optional[QFormat],
    domain: Optional[tuple[float, float]],
) -> CPWLApproximator:
    return CPWLApproximator(name, granularity, fmt=fmt, domain=domain)


def get_approximator(
    name: str,
    granularity: float,
    fmt: Optional[QFormat] = INT16,
    domain: Optional[tuple[float, float]] = None,
) -> CPWLApproximator:
    """Memoised CPWL approximator (tables are preloaded once, like L3).

    ``get_approximator.cache_info()`` / ``cache_clear()`` inspect and
    empty the memo."""
    return _approximator(name, float(granularity), fmt, domain)


get_approximator.cache_info = _approximator.cache_info
get_approximator.cache_clear = _approximator.cache_clear


def cpwl_gelu(
    x: np.ndarray, granularity: float, fmt: Optional[QFormat] = INT16
) -> np.ndarray:
    """GELU via one IPF + MHP event (the paper's running example)."""
    return get_approximator("gelu", granularity, fmt)(x)


def relu_domain(granularity: float) -> "tuple[float, float]":
    """ReLU's mid-anchored segment grid (see :func:`cpwl_relu`)."""
    return (-8.0 - granularity / 2.0, 8.0 + granularity / 2.0)


def cpwl_relu(
    x: np.ndarray, granularity: float, fmt: Optional[QFormat] = INT16
) -> np.ndarray:
    """ReLU via CPWL on the generic (mid-anchored) segment grid.

    The L3 parameter store uses one segment grid for all functions,
    anchored at the domain edge — it does not realign itself to each
    function's kink.  We anchor the grid midway (``x_min = -(8 + g/2)``)
    so the segment containing zero spans ``(-g/2, +g/2)`` and carries
    the chord ``y = x/2 + g/4``: ReLU is approximated, not special-cased,
    with error up to ``g/4`` concentrated exactly where batch-normalized
    activations live.  This is the mechanism behind the CNN rows of the
    accuracy-vs-granularity table; a kink-aligned grid would make ReLU
    exact and the CNN artificially insensitive.
    """
    domain = relu_domain(granularity)
    return get_approximator("relu", granularity, fmt, domain=domain)(x)


def cpwl_sigmoid(
    x: np.ndarray, granularity: float, fmt: Optional[QFormat] = INT16
) -> np.ndarray:
    """Logistic sigmoid via one IPF + MHP event."""
    return get_approximator("sigmoid", granularity, fmt)(x)


def cpwl_tanh(
    x: np.ndarray, granularity: float, fmt: Optional[QFormat] = INT16
) -> np.ndarray:
    """tanh via one IPF + MHP event."""
    return get_approximator("tanh", granularity, fmt)(x)


def cpwl_softmax(
    x: np.ndarray,
    granularity: float,
    fmt: QFormat = INT16,
    axis: int = -1,
    row_offset: Optional[int] = None,
) -> np.ndarray:
    """Softmax decomposed into array events.

    Program: (1) row max and subtraction — linear; (2) ``exp`` — CPWL
    IPF+MHP; (3) row sum — matrix-vector GEMM against a ones vector;
    (4) ``1/sum`` — CPWL; (5) elementwise scale — MHP with ``B = 0``.

    ``row_offset`` selects the causal form over the last axis of
    ``(..., R, T)`` scores: row ``i`` is a softmax over its first
    ``row_offset + i + 1`` entries and the rest are exact zeros, all
    rows in one pass.  Every ``exp`` output sits on the format grid, so
    the row sum is exact in float64 whatever its order and the pass is
    bit-identical to one call per row slice.
    """
    x = np.asarray(x, dtype=np.float64)
    if row_offset is None:
        shifted = x - np.max(x, axis=axis, keepdims=True)
    else:
        if axis not in (-1, x.ndim - 1):
            raise ValueError("causal softmax runs over the last axis")
        rows, cols = x.shape[-2:]
        visible = np.arange(cols) <= row_offset + np.arange(rows)[:, None]
        peak = np.max(np.where(visible, x, -np.inf), axis=-1, keepdims=True)
        shifted = np.where(visible, x - peak, 0.0)
    exp_table = get_approximator("exp", granularity, fmt)
    recip_table = get_approximator("reciprocal", granularity, fmt)
    # Guard the reciprocal domain: a denominator this small only occurs
    # when every exponent underflowed to zero; uniform output is correct.
    lo = recip_table.table.x_min
    one = float(1 << fmt.frac_bits)
    shifted *= one
    exps = exp_table.evaluate_raw(round_saturate(shifted, fmt))
    # CPWL chords of a convex function overshoot slightly and the capped
    # lower boundary segment can dip below zero; the hardware clamps the
    # exponential to its known non-negative range on writeback.
    np.maximum(exps, 0.0, out=exps)
    if row_offset is not None:
        exps = np.where(visible, exps, 0.0)
    denom = round_saturate(np.sum(exps, axis=axis, keepdims=True), fmt)
    np.maximum(denom, lo * one, out=denom)
    inv = recip_table.evaluate_raw(round_saturate(denom, fmt))
    exps *= inv
    exps *= fmt.scale
    round_saturate(exps, fmt)
    exps *= fmt.scale
    return exps


def cpwl_layernorm(
    x: np.ndarray,
    granularity: float,
    gamma: Optional[np.ndarray] = None,
    beta: Optional[np.ndarray] = None,
    fmt: QFormat = INT16,
    axis: int = -1,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalization decomposed into array events.

    Program: (1) row mean — matrix-vector GEMM; (2) centering — linear;
    (3) squaring — elementwise MHP of ``x`` with itself (``K = X``,
    ``B = 0``); (4) mean of squares — GEMM; (5) ``1/sqrt(var)`` — CPWL;
    (6) scale by the inverse std — MHP; (7) affine ``gamma``/``beta`` —
    another MHP.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    centered = x - np.sum(x, axis=axis, keepdims=True) / n
    rsqrt_table = get_approximator("rsqrt", granularity, fmt)
    lo = rsqrt_table.table.x_min
    one = float(1 << fmt.frac_bits)
    centered *= one
    round_saturate(centered, fmt)
    squares = centered * centered
    squares *= fmt.scale
    round_saturate(squares, fmt)
    var = np.sum(squares, axis=axis, keepdims=True) / n
    var += eps * one
    round_saturate(var, fmt)
    np.maximum(var, lo * one, out=var)
    inv_std = rsqrt_table.evaluate_raw(round_saturate(var, fmt))
    normed = np.multiply(centered, inv_std, out=squares)
    normed *= fmt.scale
    round_saturate(normed, fmt)
    if gamma is not None:
        normed *= np.asarray(gamma, dtype=np.float64)
    if beta is not None:
        normed += np.asarray(beta, dtype=np.float64) * one
    round_saturate(normed, fmt)
    normed *= fmt.scale
    return normed


def cpwl_rsqrt_range_reduced(
    x: np.ndarray, granularity: float, fmt: Optional[QFormat] = INT16
) -> np.ndarray:
    """``1/sqrt(x)`` via CPWL with power-of-two range reduction.

    The data-shift module normalizes the argument into ``[1, 4)`` by an
    even power-of-two shift (``x = 4^j · x_r``), the CPWL table covers
    only the well-conditioned reduced domain, and the result is
    rescaled by ``2^-j`` — the standard PWL practice for steep roots
    and exactly the kind of shift the L3 addressing datapath provides.
    Used where the argument spans decades (batchnorm channel variances).
    """
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("rsqrt argument must be positive")
    j = np.floor(np.log2(x) / 2.0)
    x_reduced = x / np.power(4.0, j)
    table = get_approximator("rsqrt", granularity, fmt, domain=(1.0, 4.0))
    if fmt is None:
        return table(x_reduced) * np.power(2.0, -j)
    x_reduced *= float(1 << fmt.frac_bits)
    y = table.evaluate_raw(round_saturate(x_reduced, fmt)) * np.power(2.0, -j)
    round_saturate(y, fmt)
    y *= fmt.scale
    return y


def cpwl_batchnorm(
    x: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
    fmt: QFormat = INT16,
    channel_axis: int = 1,
) -> np.ndarray:
    """Inference-time batch normalization as a single MHP.

    With running statistics folded in, inference BN is the per-channel
    affine ``y = x * scale + shift`` — exactly the Matrix Hadamard
    Product with broadcast parameters, so it needs no CPWL table at all.
    This is why Fig. 1 counts batchnorm among the operations ONE-SA
    absorbs into the array.
    """
    x = np.asarray(x, dtype=np.float64)
    shape = [1] * x.ndim
    shape[channel_axis] = -1
    k = np.asarray(scale, dtype=np.float64).reshape(shape)
    b = np.asarray(shift, dtype=np.float64).reshape(shape)
    out = x * k
    out += b
    out *= float(1 << fmt.frac_bits)
    round_saturate(out, fmt)
    out *= fmt.scale
    return out
