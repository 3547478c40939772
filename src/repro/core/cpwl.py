"""CPWL approximation engine.

Combines a :class:`~repro.core.segment_table.SegmentTable` with the
fixed-point datapath to produce the exact value the array would compute
for a nonlinear operation: quantize the input, derive segment indices the
way the L3 data-addressing module does, gather quantized ``(K, B)``, and
execute the Matrix Hadamard Product in saturating INT16 arithmetic.

Also provides approximation-error analysis used by the granularity study
(Table III) and the approximation ablation (comparing CPWL against
Taylor and Chebyshev alternatives, Section III-A's motivation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.functions import NonlinearFunction, get_function
from repro.core.segment_table import (
    QuantizedSegmentTable,
    SegmentTable,
    build_segment_table,
)
from repro.core.ipf import fetch_parameters
from repro.fixedpoint import QFormat, fixed_hadamard_mac, quantize
from repro.fixedpoint.qformat import INT16
from repro.fixedpoint.quantize import strips

#: Widest format whose approximators tabulate every code (2**16 entries,
#: 128 KiB of INT16).  An approximator builds its table on its first
#: non-empty :meth:`~CPWLApproximator.evaluate_raw`: one chain pass over
#: every code, 1.1-2.0 ms on a 2-core x86 host.  Approximators are
#: per-process memos, so a serving process builds each table once, in
#: its warm-up.  The cost falls on granularity sweeps, whose many
#: approximators each see little traffic: 64 of them fed 1,024 codes
#: each took 124-136 ms with their tables, 8-12 ms on the chain alone.
TABLE_MAX_BITS = 16


@dataclass
class ApproximationError:
    """Error statistics of an approximation against the reference function."""

    max_abs: float
    mean_abs: float
    rmse: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"max|e|={self.max_abs:.3e} mean|e|={self.mean_abs:.3e} "
            f"rmse={self.rmse:.3e}"
        )


def approximation_error(
    approx: np.ndarray, reference: np.ndarray
) -> ApproximationError:
    """Compute error statistics of ``approx`` against ``reference``."""
    approx = np.asarray(approx, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    err = np.abs(approx - reference)
    return ApproximationError(
        max_abs=float(err.max()) if err.size else 0.0,
        mean_abs=float(err.mean()) if err.size else 0.0,
        rmse=float(np.sqrt(np.mean(err**2))) if err.size else 0.0,
    )


class CPWLApproximator:
    """End-to-end CPWL evaluator for one nonlinear function.

    Parameters
    ----------
    function:
        Registered function name or :class:`NonlinearFunction`.
    granularity:
        Segment length (the paper's approximation granularity knob).
    fmt:
        Fixed-point format of the array datapath (INT16 by default).
        Pass ``None`` to evaluate purely in float (used to separate CPWL
        error from quantization error in the ablation).
    domain:
        Optional approximation-domain override.
    """

    def __init__(
        self,
        function: "str | NonlinearFunction",
        granularity: float,
        fmt: Optional[QFormat] = INT16,
        domain: Optional[tuple[float, float]] = None,
    ) -> None:
        self.function = (
            get_function(function) if isinstance(function, str) else function
        )
        self.table: SegmentTable = build_segment_table(
            self.function, granularity, domain=domain
        )
        self.fmt = fmt
        self.qtable: Optional[QuantizedSegmentTable] = (
            self.table.quantized(fmt) if fmt is not None else None
        )
        #: Output code of every input code (see :meth:`evaluate_raw`),
        #: read-only; ``None`` until the first non-empty call builds it.
        self.code_table: Optional[np.ndarray] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the approximation, returning float values.

        With a fixed-point format configured this is bit-faithful to the
        array: the result is the dequantized INT16 output of the MHP.
        """
        x = np.asarray(x, dtype=np.float64)
        if self.fmt is None:
            return self.table.evaluate(x)
        y = self.evaluate_raw(quantize(x, self.fmt, dtype=np.float64))
        y *= self.fmt.scale
        return y

    def evaluate_raw(self, x_raw: np.ndarray) -> np.ndarray:
        """Evaluate on raw fixed-point inputs, returning raw outputs.

        This is the exact sequence the hardware performs: segment index
        through the L3 addressing datapath (shift or scale path, both
        relative to the saturated domain-origin register — see
        :func:`repro.core.ipf.segment_indices`), gather of quantized
        ``(K, B)``, then the saturating two-term MAC ``y = k*x + b*1``.
        The output is fresh, in ``x_raw``'s representation (integers or
        float64 codes, see :mod:`repro.fixedpoint.arithmetic`).

        That output depends on one input code alone, so a format of at
        most :data:`TABLE_MAX_BITS` bits tabulates it: the first
        non-empty call runs the chain once over every code to fill
        :attr:`code_table`, and from then on codes within the format's
        range are one gather from it, strip by strip.  Wider formats,
        codes out of range and empty input keep the chain; an empty
        input builds nothing.
        """
        if self.fmt is None or self.qtable is None:
            raise RuntimeError("evaluate_raw requires a fixed-point format")
        x_raw = np.asarray(x_raw)
        table = self._code_table() if x_raw.size else None
        if table is None or not (
            self.fmt.raw_min <= x_raw.min() and x_raw.max() <= self.fmt.raw_max
        ):
            return self._chain(x_raw)
        floating = x_raw.dtype.kind == "f"
        out = np.empty(x_raw.shape, np.float64 if floating else table.dtype)
        for codes, into in zip(strips(x_raw), strips(out)):
            into[...] = table[codes.astype(np.intp)]
        return out

    def _chain(self, x_raw: np.ndarray) -> np.ndarray:
        """IPF then MHP: the one arithmetic definition of the output."""
        ipf = fetch_parameters(x_raw, self.qtable, self.fmt)
        return fixed_hadamard_mac(x_raw, ipf.k_raw, ipf.b_raw, self.fmt)

    def _code_table(self) -> Optional[np.ndarray]:
        """The code table, built on first use (never for a wider format)."""
        if self.code_table is None and self.fmt.total_bits <= TABLE_MAX_BITS:
            # Indexed by code: negative codes count from the end.
            codes = np.arange(self.fmt.raw_min, self.fmt.raw_max + 1)
            table = np.empty(codes.size, self.fmt.storage_dtype())
            table[codes] = self._chain(codes)
            table.setflags(write=False)
            self.code_table = table
        return self.code_table

    def error_on(self, x: np.ndarray) -> ApproximationError:
        """Error of the (possibly quantized) approximation on samples."""
        return approximation_error(self(x), self.function(x))

    def error_profile(self, n_points: int = 4096) -> ApproximationError:
        """Error over a dense uniform sweep of the approximation domain."""
        xs = np.linspace(self.table.x_min, self.table.x_max, n_points)
        return self.error_on(xs)


def taylor_approximation(
    function: "str | NonlinearFunction",
    x: np.ndarray,
    order: int = 3,
    center: float = 0.0,
) -> np.ndarray:
    """Taylor-series baseline used in the approximation ablation.

    The paper argues CPWL beats Taylor/Chebyshev because those require
    extra computational circuitry (powers of ``x``); this helper lets the
    ablation bench also compare *accuracy* at matched cost.  Derivatives
    are estimated numerically so the helper works for any registered
    function.
    """
    fn = get_function(function) if isinstance(function, str) else function
    x = np.asarray(x, dtype=np.float64)
    h = 1e-4
    # Numerical derivatives at the expansion center via central differences
    # on a small stencil (sufficient for smooth activation functions).
    derivs = [float(fn(np.array([center]))[0])]
    stencil = np.arange(-order, order + 1)
    samples = fn(center + stencil * h)
    for k in range(1, order + 1):
        coeffs = _central_difference_coefficients(k, order)
        derivs.append(float(np.dot(coeffs, samples) / h**k))
    result = np.zeros_like(x)
    term = np.ones_like(x)
    factorial = 1.0
    for k, d in enumerate(derivs):
        if k > 0:
            term = term * (x - center)
            factorial *= k
        result = result + d * term / factorial
    return result


def chebyshev_approximation(
    function: "str | NonlinearFunction",
    x: np.ndarray,
    degree: int = 7,
    domain: Optional[tuple[float, float]] = None,
) -> np.ndarray:
    """Chebyshev-fit baseline used in the approximation ablation."""
    fn = get_function(function) if isinstance(function, str) else function
    lo, hi = domain if domain is not None else fn.domain
    nodes = np.polynomial.chebyshev.chebpts2(max(degree + 1, 2))
    xs = 0.5 * (nodes + 1.0) * (hi - lo) + lo
    coeffs = np.polynomial.chebyshev.chebfit(
        2.0 * (xs - lo) / (hi - lo) - 1.0, fn(xs), degree
    )
    x = np.asarray(x, dtype=np.float64)
    t = np.clip(2.0 * (x - lo) / (hi - lo) - 1.0, -1.0, 1.0)
    return np.polynomial.chebyshev.chebval(t, coeffs)


def _central_difference_coefficients(derivative: int, order: int) -> np.ndarray:
    """Finite-difference weights on the stencil ``-order .. order``.

    Solves the Vandermonde moment system so the stencil reproduces the
    ``derivative``-th derivative exactly for polynomials up to the stencil
    size.
    """
    stencil = np.arange(-order, order + 1, dtype=np.float64)
    size = stencil.size
    moments = np.vander(stencil, size, increasing=True).T
    rhs = np.zeros(size)
    rhs[derivative] = float(math.factorial(derivative))
    return np.linalg.solve(moments, rhs)
