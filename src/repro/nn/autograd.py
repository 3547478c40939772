"""Minimal reverse-mode automatic differentiation over numpy.

Just enough machinery to train the small CNN / transformer / GCN models
of the accuracy experiment: a :class:`Tensor` wrapping a float64 numpy
array, a tape built implicitly through parent links, and vectorized
backward rules for the ops those models need.  Broadcasting is handled
by summing gradients back over broadcast axes (:func:`_unbroadcast`).

This is a *training* substrate only — inference for the experiments runs
through the backends in :mod:`repro.nn.executor`, which operate on plain
arrays (and, for the CPWL backends, fixed-point raw integers).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.functions import erf

ArrayLike = Union[float, int, np.ndarray, "Tensor"]


# ---------------------------------------------------------------------------
# Parameter dirty-tracking
# ---------------------------------------------------------------------------
# Version counters for in-place mutation of parameter arrays, keyed by
# the owning buffer's identity.  numpy arrays carry no mutation counter
# of their own, so consumers that cache derived forms of a parameter
# (e.g. the quantized-weight cache in repro.nn.executor) validate
# against this registry: anything that mutates a parameter in place
# must bump its version — the shipped optimizers do via
# :meth:`Tensor.mark_dirty` — and rebinding ``tensor.data`` to a fresh
# array invalidates naturally (new buffer identity).  Entries are
# dropped when the array is garbage collected.
_data_versions: Dict[int, int] = {}


def version_base(array: np.ndarray) -> np.ndarray:
    """The buffer owner: versions live on bases so views share them.

    Caches keying derived parameter data by buffer identity (the
    quantized-weight cache) resolve through this same helper, so a
    cache entry always validates against the buffer whose version
    :func:`bump_data_version` bumps.
    """
    base = getattr(array, "base", None)
    return array if base is None else base


def bump_data_version(array: np.ndarray) -> int:
    """Record an in-place mutation of ``array``; returns the new version."""
    base = version_base(array)
    key = id(base)
    if key not in _data_versions:
        # First mutation of this buffer: arrange cleanup at collection
        # (one finalizer per live buffer, not per bump).
        weakref.finalize(base, _data_versions.pop, key, None)
    version = _data_versions.get(key, 0) + 1
    _data_versions[key] = version
    return version


def data_version(array: np.ndarray) -> int:
    """Current mutation version of ``array``'s buffer (0 if never bumped)."""
    return _data_versions.get(id(version_base(array)), 0)

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A differentiable numpy array node.

    Parameters
    ----------
    data:
        Array (or scalar) holding the value; stored as float64.
    requires_grad:
        Whether gradients should be accumulated into ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
        if out.requires_grad:
            out._backward = backward
            out._parents = tuple(parents)
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this node (defaults to scalar seed 1)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        seen: Set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, False)]
            while stack:
                current, expanded = stack.pop()
                if id(current) in seen:
                    continue
                if expanded:
                    seen.add(id(current))
                    topo.append(current)
                    continue
                stack.append((current, True))
                for parent in current._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))

        visit(self)
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def mark_dirty(self) -> "Tensor":
        """Record an in-place mutation of :attr:`data`.

        Keeps parameter caches staleness-safe: backends caching a
        derived form of this tensor's array (the quantized-weight
        cache) revalidate against the buffer's version.  The shipped
        optimizers call this after every in-place update; custom code
        mutating ``tensor.data[...]`` directly must do the same
        (rebinding ``tensor.data`` to a new array needs nothing — a
        fresh buffer invalidates by identity).
        """
        bump_data_version(self.data)
        return self

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make(out_data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.ndim)))
        out_data = np.transpose(self.data, axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = (self.data == expanded).astype(np.float64)
        mask /= mask.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(mask * g)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return self._make(out_data, (self,), backward)

    def gelu(self) -> "Tensor":
        x = self.data
        erf_x = erf(x / _SQRT_2)
        out_data = 0.5 * x * (1.0 + erf_x)  # repro.core.functions.gelu
        # d/dx GELU = Phi(x) + x * phi(x)
        cdf = 0.5 * (1.0 + erf_x)
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x**2)
        local = cdf + x * pdf

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * local)

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-12))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / np.maximum(self.data, 1e-12))

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Composite ops
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True)
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True)
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits ``(N, C)`` and integer labels."""
    labels = np.asarray(labels)
    logp = logits.log_softmax(axis=-1)
    picked = logp[np.arange(labels.shape[0]), labels]
    return -picked.mean()
