"""Inference backends: exact float, CPWL+INT16, and the full array.

A backend supplies the primitive operations a model's ``infer`` path
needs.  Swapping the backend re-runs the *same trained network* under
different execution models:

* :class:`FloatBackend` — exact float64 (the "Original" column of
  Table III is this backend after INT16 round-trip of activations);
* :class:`CPWLBackend` — every GEMM in saturating INT16, every
  nonlinearity through the capped-piecewise-linear pipeline at a chosen
  granularity (the 0.1 … 1.0 columns of Table III);
* :class:`ArrayBackend` — the same values, computed once, with each op
  charged to a :class:`~repro.systolic.array.SystolicArray`'s cycle
  trace (the serving shards, integration tests and examples).
"""

from __future__ import annotations

import contextlib
import math
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.core import nonlinear_ops as NL
from repro.core.functions import get_function
from repro.domains import POSITIVE, POSITIVE_INT
from repro.fixedpoint import QFormat, dequantize, fixed_matmul, quantize
from repro.fixedpoint.qformat import INT16
from repro.fixedpoint.quantize import saturate_codes
from repro.nn.autograd import data_version, version_base
from repro.nn.functional import im2col
from repro.store import InProcessLRU


class ParamCache:
    """Staleness-safe cache of derived parameter arrays (weights, biases).

    Serving executes the same layers for every request, and the seed
    re-quantized each layer's weights on every traced call — the last
    repeated per-request quantize cost in steady state.  This bounded
    LRU keeps the derived form (quantized raw codes of weights and biases)
    keyed by the parameter buffer's identity and layout, and guards
    staleness two ways:

    * **identity** — a weak reference to the owning buffer; a
      parameter rebound to a fresh array (``tensor.data = ...``) can
      never hit a stale entry, and dead buffers cannot alias recycled
      ``id``\\ s;
    * **dirty-tracking** — the buffer's mutation version from
      :func:`repro.nn.autograd.data_version`.  In-place updates must
      bump it (the shipped optimizers do via ``Tensor.mark_dirty``);
      that is the cache's contract with training code.

    Derived arrays are marked read-only so a consumer cannot mutate a
    cached value in place.

    Storage is a private :class:`~repro.store.InProcessLRU` of
    ``maxsize`` entries, so each backend keeps its own entry budget, and
    the hits and misses counted here — a stale entry is a miss — are
    the only ones.  The staleness *policy* (weakref identity + dirty
    counter) stays here: it is meaningful only within one process,
    which is also why the keys (``id``, data pointers) make this cache
    in-process by construction — a shared file-backed store would be
    validating another process's pointers.
    """

    def __init__(self, maxsize: int = 256):
        self._store = InProcessLRU(max_entries=POSITIVE_INT("maxsize", maxsize))
        self.hits = 0
        self.misses = 0

    def get(
        self,
        array: np.ndarray,
        tag: str,
        derive: Callable[[np.ndarray], np.ndarray],
    ) -> np.ndarray:
        """The cached ``derive(array)``, recomputed when stale."""
        base = version_base(array)
        key = (
            id(base),
            tag,
            array.__array_interface__["data"][0],
            array.shape,
            array.strides,
        )
        entry = self._store.get(key)
        version = data_version(array)
        if entry is not None:
            ref, cached_version, value = entry
            if ref() is base and cached_version == version:
                self.hits += 1
                return value
            self._store.delete(key)
        value = derive(array)
        value.setflags(write=False)
        self._store.put(key, (weakref.ref(base), version, value))
        self.misses += 1
        return value

    def stats(self) -> Dict[str, object]:
        """Dirty-aware hits and misses beside the store's occupancy."""
        return {"hits": self.hits, "misses": self.misses, **self._store.stats()}


class KVState:
    """Per-layer key/value rows of a transformer — the one container.

    Layer ``i`` holds ``k[i]`` / ``v[i]`` shaped ``(N, T, D)``: the
    backend's *dequantized on-grid* activations of the first ``T``
    positions of ``N`` sequences, exactly the values attention's head
    split consumes (``None`` until the layer's first rows arrive).  A
    classifier pass also leaves its ``(N, T, D)`` final hidden rows in
    ``final_hidden``; they complete a later pass's mean-pool.

    One class plays every role.  Passed as ``kv`` into a model pass it
    is the *growing state*: each attention layer calls :meth:`extend`
    with the rows it just projected and attends against the result, so
    a cold pass, a warm prefill and a decode step are one call starting
    from a different :attr:`pos`.  Capture costs no extra compute — the
    rows are activations the pass produced anyway.  :meth:`prefix` cuts
    a *cache payload* out of it: one sequence's first rows, whose
    ``nbytes`` is the byte-budget unit of
    :class:`~repro.serving.prefix_cache.RadixKVCache`.  Per-row /
    per-pair exactness of the fixed-point pipeline makes those rows
    identical for every sequence (and every future request) that starts
    with the same tokens.  :meth:`stack` and :meth:`split` compose and
    take apart decode batches.

    Held rows are never written in place: :meth:`extend` *rebinds* a
    layer to a new array.  So a :meth:`fork` (no copy) can be extended
    without touching the frozen, shared payload it came from, and a
    pass that ran on a stacked copy (:meth:`stack`) is discarded by
    dropping the copy.
    """

    def __init__(self, n_layers: int):
        self.n_layers = POSITIVE_INT("n_layers", n_layers)
        self.k: List[Optional[np.ndarray]] = [None] * self.n_layers
        self.v: List[Optional[np.ndarray]] = [None] * self.n_layers
        self.final_hidden: Optional[np.ndarray] = None

    @property
    def pos(self) -> int:
        """Sequence positions held so far (0 before any pass)."""
        return 0 if self.k[0] is None else int(self.k[0].shape[1])

    @property
    def batch(self) -> int:
        """Number of sequences the state covers."""
        return 0 if self.k[0] is None else int(self.k[0].shape[0])

    def _arrays(self) -> List[np.ndarray]:
        return [a for a in (*self.k, *self.v, self.final_hidden) if a is not None]

    @property
    def nbytes(self) -> int:
        """Bytes the held activations occupy (cache budget unit)."""
        return sum(a.nbytes for a in self._arrays())

    def extend(
        self, layer: int, k_rows: np.ndarray, v_rows: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Append ``(N, S, D)`` rows onto one layer; returns its ``(k, v)``.

        The layer is rebound to a new array (an empty layer adopts the
        rows as they are), so arrays a fork or a cache entry still
        holds are never written.  One held sequence under ``N`` new
        rows — a shared prompt payload — is broadcast across the batch.
        """
        held_k, held_v = self.k[layer], self.v[layer]
        if held_k is not None:
            n = k_rows.shape[0]
            if held_k.shape[0] != n:
                held_k = np.broadcast_to(held_k, (n,) + held_k.shape[1:])
                held_v = np.broadcast_to(held_v, (n,) + held_v.shape[1:])
            k_rows = np.concatenate([held_k, k_rows], axis=1)
            v_rows = np.concatenate([held_v, v_rows], axis=1)
        self.k[layer], self.v[layer] = k_rows, v_rows
        return k_rows, v_rows

    def fork(self) -> "KVState":
        """A state sharing this one's arrays (no copy); extending the
        fork rebinds the fork's layers only."""
        out = KVState(self.n_layers)
        out.k, out.v, out.final_hidden = list(self.k), list(self.v), self.final_hidden
        return out

    def freeze(self) -> "KVState":
        """Mark every held array read-only, so a consumer cannot corrupt
        a shared cache entry."""
        for array in self._arrays():
            array.setflags(write=False)
        return self

    def prefix(self, upto: int, index: int = 0) -> "KVState":
        """Sequence ``index``'s first ``upto`` rows — a cache payload.

        Always fresh owning copies, frozen: a view of the ``(N, T, D)``
        activation would pin the whole batch array alive while the
        cache charges only the ``(1, upto, D)`` slice against its byte
        budget.  Causal rows depend on earlier tokens only, so a row
        prefix of a payload is itself a payload.
        """
        if not 0 < upto <= self.pos:
            raise ValueError(f"prefix length {upto} must be in (0, {self.pos}]")
        cut = (slice(index, index + 1), slice(None, upto))
        out = KVState(self.n_layers)
        out.k = [np.array(k[cut], copy=True) for k in self.k]
        out.v = [np.array(v[cut], copy=True) for v in self.v]
        if self.final_hidden is not None:
            out.final_hidden = np.array(self.final_hidden[cut], copy=True)
        return out.freeze()

    # -- batch composition (continuous batching) ------------------------
    @classmethod
    def stack(
        cls, states: "Sequence[KVState]", upto: Optional[int] = None
    ) -> "KVState":
        """A batched copy of ``states`` cut to their first ``upto`` rows.

        Without ``upto`` the states must agree on :attr:`pos`; with it,
        members whose rows reach different depths share one length.
        The result owns fresh arrays, so running a pass on it never
        touches the member states.
        """
        if not states:
            raise ValueError("stack needs at least one state")
        n_layers = states[0].n_layers
        pos = states[0].pos if upto is None else int(upto)
        for s in states:
            if s.n_layers != n_layers:
                raise ValueError(
                    f"stacked states must agree on depth, got {s.n_layers} "
                    f"and {n_layers} layers"
                )
            if s.pos < pos or (upto is None and s.pos > pos):
                raise ValueError(f"stacked state holds {s.pos} rows, need {pos}")
        out = cls(n_layers)
        for i in range(n_layers):
            out.k[i] = np.concatenate([s.k[i][:, :pos] for s in states], axis=0)
            out.v[i] = np.concatenate([s.v[i][:, :pos] for s in states], axis=0)
        return out

    def split(self) -> "List[KVState]":
        """Per-sequence views of a batched state (inverse of stack; no
        copy — a member keeps the batch arrays alive, and extending it
        rebinds its own layers only)."""
        parts = []
        for j in range(self.batch):
            part = KVState(self.n_layers)
            part.k = [k[j : j + 1] for k in self.k]
            part.v = [v[j : j + 1] for v in self.v]
            if self.final_hidden is not None:
                part.final_hidden = self.final_hidden[j : j + 1]
            parts.append(part)
        return parts


class FloatBackend:
    """Exact float64 reference backend."""

    name = "float"

    def model_pass(self) -> "contextlib.AbstractContextManager[None]":
        """One forward pass of a model: a float backend rounds nothing, so
        there is nothing to carry between its ops (see
        :meth:`CPWLBackend.model_pass`)."""
        return contextlib.nullcontext()

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def linear(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
        return x @ weight.T + bias

    def relu(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def gelu(self, x: np.ndarray) -> np.ndarray:
        return get_function("gelu")(x)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        return exps / exps.sum(axis=axis, keepdims=True)

    def causal_softmax(self, scores: np.ndarray, row_offset: int) -> np.ndarray:
        """Causal attention weights of ``(..., R, T)`` scores.

        Query row ``i`` sits at global position ``row_offset + i``: its
        softmax runs over its first ``row_offset + i + 1`` scores and
        the weights past the diagonal are exact zeros.  One
        :meth:`softmax` per row, because a float sum over a zero-padded
        row is not bit-identical to the sum over the visible slice.
        """
        attn = np.zeros_like(scores)
        for row in range(scores.shape[-2]):
            limit = row_offset + row + 1
            attn[..., row, :limit] = self.softmax(scores[..., row, :limit], axis=-1)
        return attn

    def conv_cols(
        self,
        x: np.ndarray,
        kernel: int,
        stride: int,
        padding: int,
        weight_mat: np.ndarray,
        bias: np.ndarray,
    ) -> "tuple[np.ndarray, tuple[int, int]]":
        """im2col convolution: unfold patches, multiply, add bias.

        Returns ``(rows, (out_h, out_w))`` with ``rows`` shaped
        ``(N * out_h * out_w, F)``; the layer reshapes back to NCHW.
        Fixed-point backends override this to quantize *before* the
        patch unfold (bit-identical, cheaper — see CPWLBackend).
        """
        cols, out_hw = im2col(
            np.asarray(x, dtype=np.float64), kernel, stride, padding
        )
        return self.linear(cols, weight_mat, bias), out_hw

    def layernorm(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        eps: float = 1e-5,
    ) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mean) / np.sqrt(var + eps) * gamma + beta

    def batchnorm(
        self,
        x: np.ndarray,
        scale: np.ndarray,
        shift: np.ndarray,
        channel_axis: int = 1,
    ) -> np.ndarray:
        shape = [1] * x.ndim
        shape[channel_axis] = -1
        return x * scale.reshape(shape) + shift.reshape(shape)

    def batchnorm_stats(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        mean: np.ndarray,
        var: np.ndarray,
        eps: float = 1e-5,
        channel_axis: int = 1,
    ) -> np.ndarray:
        """Batchnorm from stored statistics.

        The accelerator keeps ``(gamma, beta, mean, var)`` and derives
        the affine on the fly — ``1/sqrt(var + eps)`` is a genuine
        nonlinear stage (CPWL on the array, exact here), which is why
        batchnorm shows up as real computation in Fig. 1 rather than a
        free pre-folded affine.
        """
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = gamma * inv_std
        shift = beta - mean * scale
        return self.batchnorm(x, scale, shift, channel_axis)


class QuantizedFloatBackend(FloatBackend):
    """Float math with INT16 round-trips (the "Original" baseline).

    Table III's first column is "the original DNN models with INT16
    quantization": exact nonlinearities, quantized tensors.  This
    backend rounds every operation's inputs and outputs through the
    datapath format but keeps the nonlinear functions exact.
    """

    name = "int16-exact-nonlinear"

    def __init__(self, fmt: QFormat = INT16):
        self.fmt = fmt

    def _q(self, x: np.ndarray) -> np.ndarray:
        return dequantize(quantize(x, self.fmt), self.fmt)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._q(super().matmul(self._q(a), self._q(b)))

    def linear(self, x, weight, bias):
        return self._q(super().linear(self._q(x), self._q(weight), self._q(bias)))

    def relu(self, x):
        return self._q(super().relu(self._q(x)))

    def gelu(self, x):
        return self._q(super().gelu(self._q(x)))

    def softmax(self, x, axis: int = -1):
        return self._q(super().softmax(self._q(x), axis=axis))

    def layernorm(self, x, gamma, beta, eps: float = 1e-5):
        return self._q(super().layernorm(self._q(x), gamma, beta, eps=eps))

    def batchnorm(self, x, scale, shift, channel_axis: int = 1):
        return self._q(super().batchnorm(self._q(x), scale, shift, channel_axis))

    def batchnorm_stats(self, x, gamma, beta, mean, var, eps=1e-5, channel_axis=1):
        inv_std = 1.0 / np.sqrt(var + eps)
        scale = self._q(gamma * inv_std)
        shift = self._q(beta - mean * scale)
        return self.batchnorm(x, scale, shift, channel_axis)


class CPWLBackend:
    """INT16 GEMMs + capped-piecewise-linear nonlinearities.

    This is the fast bit-faithful model of running the network on
    ONE-SA: matrix products through :func:`fixed_matmul` (wide
    accumulate, saturating writeback) and nonlinear operations through
    the IPF+MHP pipeline of :mod:`repro.core.nonlinear_ops`.

    With an :attr:`array` set, each GEMM (one per broadcast pair) and
    ReLU / GELU is charged to it by shape; the composites (softmax,
    layernorm, batchnorm) add 0 traced cycles.

    **Round once.**  Every op writes its result back as saturated codes,
    as the PE output buffer does, and returns them scaled to values.
    Inside a :meth:`model_pass` the backend keeps a weak record of the
    arrays its ops returned, so an op input that is one of them (or a
    float64 view of one) enters as the exact codes ``x * 2**frac`` (the
    left operand of a GEMM as the values themselves, see
    :func:`fixed_matmul`'s ``values``) instead of being rounded again:
    the same bits, one rounding pass fewer per operand.  The contract
    this rests on: inside a pass, nothing writes into an op's output.
    The record dies with the outermost pass, so a row that leaves it (a
    served output, a K/V payload) is rounded again if it ever comes
    back.
    """

    name = "cpwl"
    array = None

    def __init__(self, granularity: float, fmt: QFormat = INT16):
        self.granularity = POSITIVE("granularity", granularity)
        self.fmt = fmt
        self.param_cache = ParamCache()
        self._passes = 0
        # Memory owners of this pass's op outputs, by id: the entry of an
        # array dies with it, so no activation outlives its last use.
        self._outputs: "weakref.WeakValueDictionary[int, np.ndarray]" = (
            weakref.WeakValueDictionary()
        )

    # -- one model pass ---------------------------------------------------
    @contextlib.contextmanager
    def model_pass(self) -> Iterator[None]:
        """One forward pass of a model (reentrant): op outputs made inside
        it enter later ops of it as exact codes (see the class notes)."""
        self._passes += 1
        try:
            yield
        finally:
            self._passes -= 1
            if not self._passes:
                self._outputs.clear()

    def _output(self, out: np.ndarray) -> np.ndarray:
        """Record ``out`` — fresh codes scaled to values — as an op output
        of the open pass; returns it."""
        if self._passes:
            owner = out if out.base is None else out.base
            self._outputs[id(owner)] = owner
        return out

    def _on_grid(self, x) -> bool:
        """Whether ``x`` is an op output of the open pass, or a float64 view
        of one: values ``codes * 2**-frac`` that need no rounding."""
        if not self._passes or getattr(x, "dtype", None) != np.float64:
            return False
        outputs = self._outputs
        while x is not None:
            if outputs.get(id(x)) is x:
                return True
            x = getattr(x, "base", None)
        return False

    # -- parameter caching ----------------------------------------------
    def _quantized_param(self, array: np.ndarray) -> np.ndarray:
        """Raw float64 code points of a parameter tensor, cached.

        Weights are long-lived and rarely mutated, so steady-state
        serving skips the per-request quantize passes; dirty-tracking
        (see :class:`ParamCache`) keeps the entry staleness-safe across
        training steps.
        """
        return self.param_cache.get(
            array,
            "raw",
            lambda a: quantize(
                np.asarray(a, dtype=np.float64), self.fmt, dtype=np.float64
            ),
        )

    # -- linear ---------------------------------------------------------
    def _gemm(self, a: np.ndarray, b_raw: np.ndarray, on_grid: bool) -> np.ndarray:
        """``fixed_matmul`` of float64 ``a`` by codes ``b_raw``: an ``a`` on
        the grid goes in as values, any other is quantized first."""
        if not on_grid:
            a = quantize(a, self.fmt, dtype=np.float64)
        return fixed_matmul(a, b_raw, self.fmt, values=on_grid)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # One vectorized call covers both the 2-D case and stacked
        # (batched-attention) operands: fixed_matmul broadcasts leading
        # axes and is bit-identical to a Python loop of 2-D GEMMs.  Raw
        # codes stay in float64 (exact for in-range raw integers) from
        # the quantize through BLAS and the writeback to the final scale.
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if self._on_grid(b):
            b_raw = b * float(1 << self.fmt.frac_bits)
        else:
            b_raw = quantize(b, self.fmt, dtype=np.float64)
        out = self._gemm(a, b_raw, self._on_grid(a))
        if self.array is not None:
            a_shape, b_shape = np.shape(a), np.shape(b)
            pairs = math.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]))
            self.array.charge_gemm(*a_shape[-2:], b_shape[-1], pairs)
        out *= self.fmt.scale
        return self._output(out)

    def linear(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
        orig_shape = x.shape
        x = np.asarray(x, dtype=np.float64)
        # Weight codes come from the staleness-safe parameter cache;
        # quantize commutes with transposition, so caching the
        # untransposed codes and passing the view is bit-identical to
        # quantizing weight.T per call (and integer-exact accumulation
        # makes the result layout-independent).
        w_raw_t = self._quantized_param(weight).T
        x2 = x.reshape(-1, orig_shape[-1])
        out = self._gemm(x2, w_raw_t, self._on_grid(x))
        if self.array is not None:
            self.array.charge_gemm(*x2.shape, weight.shape[0])
        out = self._bias_writeback(out, bias)
        return self._output(out.reshape(orig_shape[:-1] + (weight.shape[0],)))

    def _bias_writeback(self, gemm_raw: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """The INT16 writeback of the bias add, scaled back to values:
        the sum of two raw codes is exact, so the round trip of the sum
        reduces to range saturation.  ``gemm_raw`` is the float64 codes
        the GEMM just allocated, so the add happens in them."""
        gemm_raw += self._quantized_param(bias)
        saturate_codes(gemm_raw, self.fmt)
        gemm_raw *= self.fmt.scale
        return gemm_raw

    def conv_cols(self, x, kernel, stride, padding, weight_mat, bias):
        """Convolution with quantization *before* the patch unfold.

        Quantize is elementwise and im2col only rearranges (and
        duplicates) elements, so the two commute: quantizing the
        ``(N, C, H, W)`` tensor and unfolding the raw values is
        bit-identical to unfolding first and quantizing the ``k^2``
        times larger patch matrix — at a fraction of the rounding
        passes.  The raw values ride in float64 straight into the BLAS
        GEMM (see :func:`repro.fixedpoint.fixed_matmul`); an ``x`` on
        the grid is unfolded as it is and goes in as values.
        """
        x = np.asarray(x, dtype=np.float64)
        on_grid = self._on_grid(x)
        if not on_grid:
            x = quantize(x, self.fmt, dtype=np.float64)
        cols, out_hw = im2col(x, kernel, stride, padding)
        # The filter matrix is a reshape view of the layer's weight
        # buffer, so the parameter cache hits on every call (identity
        # and layout of the view are part of the key).
        w_raw_t = self._quantized_param(weight_mat).T
        out = fixed_matmul(cols, w_raw_t, self.fmt, values=on_grid)
        if self.array is not None:
            self.array.charge_gemm(*cols.shape, weight_mat.shape[0])
        return self._output(self._bias_writeback(out, bias)), out_hw

    # -- nonlinear ------------------------------------------------------
    def relu(self, x: np.ndarray) -> np.ndarray:
        out = NL.cpwl_relu(x, self.granularity, self.fmt, self._on_grid(x))
        self._charge_nonlinear("relu", out, NL.relu_domain(self.granularity))
        return self._output(out)

    def gelu(self, x: np.ndarray) -> np.ndarray:
        out = NL.cpwl_gelu(x, self.granularity, self.fmt, self._on_grid(x))
        self._charge_nonlinear("gelu", out)
        return self._output(out)

    def _charge_nonlinear(self, function: str, out: np.ndarray, domain=None) -> None:
        """Charge one IPF + MHP pass over ``out`` as ``(rows, last axis)``."""
        if self.array is not None:
            shape = out.shape if out.ndim > 1 else (1, out.size)
            rows = (math.prod(shape[:-1]), shape[-1])
            self.array.charge_nonlinear(function, rows, self.granularity, domain=domain)

    def softmax(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        return self._output(NL.cpwl_softmax(x, self.granularity, self.fmt, axis=axis))

    def causal_softmax(self, scores: np.ndarray, row_offset: int) -> np.ndarray:
        """All causal rows in one masked pass, bit-identical to one
        :meth:`softmax` per row slice (see ``cpwl_softmax``'s ``row_offset``)."""
        return self._output(
            NL.cpwl_softmax(scores, self.granularity, self.fmt, row_offset=row_offset)
        )

    def layernorm(self, x, gamma, beta, eps: float = 1e-5) -> np.ndarray:
        return self._output(
            NL.cpwl_layernorm(
                x, self.granularity, gamma=gamma, beta=beta, fmt=self.fmt, eps=eps
            )
        )

    def batchnorm(self, x, scale, shift, channel_axis: int = 1) -> np.ndarray:
        return self._output(
            NL.cpwl_batchnorm(x, scale, shift, fmt=self.fmt, channel_axis=channel_axis)
        )

    def batchnorm_stats(self, x, gamma, beta, mean, var, eps=1e-5, channel_axis=1):
        """Derive the affine on the array: range-reduced CPWL rsqrt + MHPs."""
        safe_var = np.maximum(np.asarray(var, dtype=np.float64) + eps, 1e-6)
        inv_std = NL.cpwl_rsqrt_range_reduced(safe_var, self.granularity, self.fmt)
        scale = dequantize(quantize(gamma * inv_std, self.fmt), self.fmt)
        shift = dequantize(quantize(beta - mean * scale, self.fmt), self.fmt)
        return self.batchnorm(x, scale, shift, channel_axis)


class ArrayBackend(CPWLBackend):
    """:class:`CPWLBackend` charging each op to ``array``: after a model's
    ``infer`` its trace holds the per-op cycle account."""

    name = "array"

    def __init__(self, array, granularity: float):
        super().__init__(granularity, array.config.fmt)
        self.array = array
