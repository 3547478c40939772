"""Scalar nonlinear function library.

Each entry describes one scalar nonlinearity used by the evaluated
networks, together with the *approximation domain* over which a CPWL
table is built and the capping behaviour outside it (Section III-A: out
of range segment indices are capped to the boundary segments, so the
boundary segments' lines extend to the whole real axis).

Functions are registered in :data:`FUNCTION_LIBRARY` so that segment
tables, the executor and the experiments can refer to them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

_SQRT_2 = math.sqrt(2.0)

def erf(x: np.ndarray) -> np.ndarray:
    """The Gauss error function, element-wise: ``math.erf`` per element.

    Not ``scipy.special.erf``: importing SciPy after NumPy costs
    0.21-0.22 s and 26 MB of peak RSS in every process that builds a
    GELU table, and the two GELUs differ by at most 4.5e-16 (on N(0, 9)
    samples), which no quantized segment table sees.  Per element it is
    about 4.5x SciPy's cost (83 vs 18 ns), which training pays.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = map(math.erf, x.ravel().tolist())
    return np.fromiter(flat, np.float64, x.size).reshape(x.shape)


@dataclass(frozen=True)
class NonlinearFunction:
    """A scalar nonlinearity with its CPWL approximation domain.

    Parameters
    ----------
    name:
        Registry key, e.g. ``'gelu'``.
    fn:
        Vectorised float implementation (the reference being approximated).
    domain:
        ``(lo, hi)`` interval the CPWL table covers.  Inputs outside are
        served by the capped boundary segments.
    description:
        One-line human description.
    even / odd:
        Optional symmetry flags (used by tests to check table symmetry).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float]
    description: str = ""
    even: bool = False
    odd: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=np.float64))


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU using the Gauss error function."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / _SQRT_2))


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(np.asarray(x, dtype=np.float64))


def exp_neg(x: np.ndarray) -> np.ndarray:
    """``exp(x)`` restricted to the softmax use case.

    Softmax subtracts the row maximum first, so the array only ever
    evaluates ``exp`` on non-positive inputs; the table domain reflects
    that (inputs below the lower cap contribute ~0).
    """
    return np.exp(np.asarray(x, dtype=np.float64))


def reciprocal(x: np.ndarray) -> np.ndarray:
    """``1/x`` on a strictly positive domain (softmax denominator)."""
    return 1.0 / np.asarray(x, dtype=np.float64)


def rsqrt(x: np.ndarray) -> np.ndarray:
    """``1/sqrt(x)`` on a strictly positive domain (normalization)."""
    return 1.0 / np.sqrt(np.asarray(x, dtype=np.float64))


def sqrt(x: np.ndarray) -> np.ndarray:
    """``sqrt(x)`` on a non-negative domain."""
    return np.sqrt(np.asarray(x, dtype=np.float64))


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish: ``x * sigmoid(x)`` (extension beyond the paper's set)."""
    x = np.asarray(x, dtype=np.float64)
    return x * sigmoid(x)


def softplus(x: np.ndarray) -> np.ndarray:
    """Softplus ``log(1 + exp(x))`` with a stable formulation."""
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)


FUNCTION_LIBRARY: Dict[str, NonlinearFunction] = {}


def register_function(entry: NonlinearFunction) -> NonlinearFunction:
    """Add ``entry`` to :data:`FUNCTION_LIBRARY` (overwriting same name)."""
    FUNCTION_LIBRARY[entry.name] = entry
    return entry


def get_function(name: str) -> NonlinearFunction:
    """Look up a registered function by name."""
    try:
        return FUNCTION_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTION_LIBRARY))
        raise KeyError(f"unknown nonlinear function {name!r}; known: {known}") from None


register_function(
    NonlinearFunction(
        "gelu",
        gelu,
        domain=(-8.0, 8.0),
        description="Gaussian error linear unit (BERT feed-forward)",
    )
)
register_function(
    NonlinearFunction(
        "relu",
        relu,
        domain=(-8.0, 8.0),
        description="Rectified linear unit (exact under CPWL)",
    )
)
register_function(
    NonlinearFunction(
        "sigmoid",
        sigmoid,
        domain=(-8.0, 8.0),
        description="Logistic sigmoid",
        odd=False,
    )
)
register_function(
    NonlinearFunction(
        "tanh",
        tanh,
        domain=(-8.0, 8.0),
        description="Hyperbolic tangent",
        odd=True,
    )
)
register_function(
    NonlinearFunction(
        "exp",
        exp_neg,
        domain=(-16.0, 0.0),
        description="exp(x) on the max-subtracted softmax domain",
    )
)
register_function(
    NonlinearFunction(
        "reciprocal",
        reciprocal,
        domain=(0.125, 64.0),
        description="1/x for the softmax denominator",
    )
)
register_function(
    NonlinearFunction(
        "rsqrt",
        rsqrt,
        domain=(0.0625, 64.0),
        description="1/sqrt(x) for layer/batch normalization",
    )
)
register_function(
    NonlinearFunction(
        "sqrt",
        sqrt,
        domain=(0.0, 64.0),
        description="sqrt(x)",
    )
)
register_function(
    NonlinearFunction(
        "silu",
        silu,
        domain=(-8.0, 8.0),
        description="SiLU/swish (extension function)",
    )
)
register_function(
    NonlinearFunction(
        "softplus",
        softplus,
        domain=(-8.0, 8.0),
        description="softplus (extension function)",
    )
)
