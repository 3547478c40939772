"""Layers for the three evaluated network families.

Every layer supports two execution paths:

* :meth:`Module.forward` — autograd :class:`~repro.nn.autograd.Tensor`
  path, used for training;
* :meth:`Module.infer` — plain-numpy path that routes every GEMM and
  every nonlinear operation through a swappable *backend*
  (:mod:`repro.nn.executor`), which is how the same trained model runs
  exactly (float), CPWL+INT16 (the Table III evaluation) or on the full
  systolic-array model.

The test suite checks ``infer(x, FloatBackend())`` matches
``forward(Tensor(x))`` to float precision for every layer.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.autograd import Tensor


class Module:
    """Base class: parameter discovery, mode switching, call sugar."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> List[Tensor]:
        """All trainable tensors of this module and its children."""
        params: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        self._set_training(True)
        return self

    def eval(self) -> "Module":
        self._set_training(False)
        return self

    def _set_training(self, flag: bool) -> None:
        self.training = flag
        for value in self.__dict__.values():
            if isinstance(value, Module):
                value._set_training(flag)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_training(flag)

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        """Inference through ``backend``'s primitive operations.

        Contract (the serving engine replays a trace tape on the
        strength of it; ``tests/test_trace_tape.py`` pins it for every
        shipped model): the kinds, order and operand *shapes* of the
        backend operations issued depend on the shape of ``x`` and of
        any state passed along, never on values — no value-dependent
        control flow — and row ``i`` of the result depends on row ``i``
        of ``x`` alone.  A model that cannot promise this is served
        through ``InferenceEngine.register(name, infer_fn=...)``.
        """
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


def _kaiming(shape: Sequence[int], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` (GEMM on the array)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            _kaiming((out_features, in_features), in_features, rng),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight.transpose() + self.bias

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.linear(x, self.weight.data, self.bias.data)


class Conv2d(Module):
    """2-D convolution executed as im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.kernel = kernel
        fan_in = in_channels * kernel * kernel
        self.weight = Tensor(
            _kaiming((out_channels, in_channels, kernel, kernel), fan_in, rng),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        n = x.shape[0]
        f = self.weight.shape[0]
        w_mat = self.weight.data.reshape(f, -1)
        out, (out_h, out_w) = backend.conv_cols(
            x, self.kernel, self.stride, self.padding, w_mat, self.bias.data
        )
        return out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel.

    Training uses batch statistics and updates running estimates; at
    inference the running statistics are folded into a per-channel
    affine, which the backend executes as a single MHP (the reason
    batchnorm appears in Fig. 1's op mix yet costs ONE-SA no dedicated
    unit).
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            var = ((x - mean) * (x - mean)).mean(axis=(0, 2, 3), keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1)
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.reshape(-1)
            )
        else:
            mean = Tensor(self.running_mean.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.reshape(1, -1, 1, 1))
        inv_std = (var + self.eps) ** -0.5
        normed = (x - mean) * inv_std
        return normed * self.gamma.reshape(1, -1, 1, 1) + self.beta.reshape(
            1, -1, 1, 1
        )

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.batchnorm_stats(
            x,
            self.gamma.data,
            self.beta.data,
            self.running_mean,
            self.running_var,
            eps=self.eps,
            channel_axis=1,
        )


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.layernorm(
            x, self.gamma.data, self.beta.data, eps=self.eps
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.relu(x)


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.gelu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return backend.tanh(x)


class MaxPool2d(Module):
    def __init__(self, kernel: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel = kernel
        self.stride = stride or kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel, self.stride)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        # Pooling is a comparison tree, not arithmetic; it runs on the
        # scalar path in both the paper's baseline and ONE-SA.
        return F.max_pool2d(Tensor(x), self.kernel, self.stride).data


class AvgPool2d(Module):
    def __init__(self, kernel: int = 2, stride: Optional[int] = None):
        super().__init__()
        self.kernel = kernel
        self.stride = stride or kernel

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel, self.stride)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return F.avg_pool2d(Tensor(x), self.kernel, self.stride).data


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class Sequential(Module):
    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        for module in self.modules:
            x = module.infer(x, backend)
        return x


class Embedding(Module):
    """Token embedding table."""

    def __init__(self, vocab: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.table = Tensor(rng.normal(0, 0.1, size=(vocab, dim)), requires_grad=True)

    def forward_indices(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.table, indices)

    def infer_indices(self, indices: np.ndarray) -> np.ndarray:
        return self.table.data[np.asarray(indices)]


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention with softmax on the array.

    Shapes: input ``(N, T, D)``; ``heads`` must divide ``D``.  The
    inference path charges four GEMMs (Q, K, V, output projections), the
    two attention batched matmuls, and one softmax per head-row — the
    exact op mix the BERT workload descriptor counts.

    With ``causal=True`` position ``i`` attends only to positions
    ``<= i``.  The inference path enforces the mask *structurally*: row
    ``i``'s softmax runs over its first ``i + 1`` scores only and the
    remaining attention weights are exact zeros, so every output row is
    a function of the tokens at or before it — never of the sequence
    length or of later tokens.  That suffix-independence is what makes
    cached-prefix reuse (:meth:`infer` with a ``kv``) bit-identical to
    cold execution.  The training path uses the conventional additive
    ``-inf``-style mask, which matches only to float precision.
    """

    #: Additive pre-softmax bias of masked scores on the training path.
    _MASK_BIAS = -1e9

    def __init__(
        self, dim: int, heads: int, rng: np.random.Generator, causal: bool = False
    ):
        super().__init__()
        if dim % heads:
            raise ValueError(f"heads ({heads}) must divide dim ({dim})")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.causal = bool(causal)
        self.q_proj = Linear(dim, dim, rng)
        self.k_proj = Linear(dim, dim, rng)
        self.v_proj = Linear(dim, dim, rng)
        self.out_proj = Linear(dim, dim, rng)

    def _split(self, x: Tensor, n: int, t: int) -> Tensor:
        return x.reshape(n, t, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        q = self._split(self.q_proj(x), n, t)
        k = self._split(self.k_proj(x), n, t)
        v = self._split(self.v_proj(x), n, t)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if self.causal:
            bias = np.triu(np.full((t, t), self._MASK_BIAS), k=1)
            scores = scores + Tensor(bias)
        attn = scores.softmax(axis=-1)
        ctx = attn @ v  # (N, H, T, hd)
        merged = ctx.transpose(0, 2, 1, 3).reshape(n, t, self.dim)
        return self.out_proj(merged)

    def infer(self, x: np.ndarray, backend, kv=None, index: int = 0) -> np.ndarray:
        """Attention of the rows ``x`` against everything ``kv`` holds.

        ``x`` holds the hidden rows of the positions past what layer
        ``index`` of ``kv`` (a :class:`repro.nn.executor.KVState`)
        already holds.  Their merged ``(N, S, D)`` key/value
        activations — the rows a prefix cache retains — are appended
        onto that layer before the head split, and the queries attend
        against all of it.  Without a ``kv``, or with an empty one, this
        is the cold full-sequence pass.  Because the causal mask makes
        K/V rows functions of their own prefix only, held rows followed
        by freshly projected ones reproduce the cold path's operands
        exactly: every new output row is bit-identical to its cold
        counterpart while the held rows' GEMM work is skipped entirely.
        """
        q = self.q_proj.infer(x, backend)
        k = self.k_proj.infer(x, backend)
        v = self.v_proj.infer(x, backend)
        if kv is not None:
            k, v = kv.extend(index, k, v)
        row_offset = k.shape[1] - q.shape[1]
        if row_offset and not self.causal:
            raise ValueError("prefix reuse requires a causal attention layer")
        return self._attend(q, k, v, backend, row_offset)

    def _attend(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        backend,
        row_offset: int,
    ) -> np.ndarray:
        """Attention of ``R`` query rows (global positions ``row_offset``
        onward) against ``T`` key/value rows; merged output ``(N, R, D)``."""
        n, r, _ = q.shape
        t = k.shape[1]

        def split(a: np.ndarray) -> np.ndarray:
            rows = a.shape[1]
            return a.reshape(n, rows, self.heads, self.head_dim).transpose(0, 2, 1, 3)

        q, k, v = split(q), split(k), split(v)
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = backend.matmul(q, k.transpose(0, 1, 3, 2)) * scale
        if self.causal:
            # Structural mask: each global position's softmax sees its
            # first i+1 scores only; weights past the diagonal are exact
            # zeros, so the context GEMM's masked terms contribute
            # nothing regardless of later tokens.
            attn = backend.causal_softmax(scores, row_offset)
        else:
            attn = backend.softmax(scores, axis=-1)
        ctx = backend.matmul(attn, v)
        merged = ctx.transpose(0, 2, 1, 3).reshape(n, r, self.dim)
        return self.out_proj.infer(merged, backend)


class TransformerEncoderLayer(Module):
    """Post-norm encoder block: MHA + LayerNorm + GELU feed-forward.

    ``causal=True`` makes the attention sub-layer causal; everything
    else in the block (residuals, layernorms, the feed-forward) is
    already per-row, so the whole block then maps row ``i`` from rows
    ``<= i`` only — the property K/V reuse through :meth:`infer` rides on.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        ff_dim: int,
        rng: np.random.Generator,
        causal: bool = False,
    ):
        super().__init__()
        self.attn = MultiHeadSelfAttention(dim, heads, rng, causal=causal)
        self.ln1 = LayerNorm(dim)
        self.fc1 = Linear(dim, ff_dim, rng)
        self.fc2 = Linear(ff_dim, dim, rng)
        self.ln2 = LayerNorm(dim)

    @property
    def causal(self) -> bool:
        return self.attn.causal

    def forward(self, x: Tensor) -> Tensor:
        x = self.ln1(x + self.attn(x))
        hidden = self.fc1(x).gelu()
        return self.ln2(x + self.fc2(hidden))

    def infer(self, x: np.ndarray, backend, kv=None, index: int = 0) -> np.ndarray:
        """The block's output rows for ``x``, attending against (and
        appending onto) layer ``index`` of ``kv`` — see
        :meth:`MultiHeadSelfAttention.infer`."""
        x = self.ln1.infer(x + self.attn.infer(x, backend, kv, index), backend)
        hidden = backend.gelu(self.fc1.infer(x, backend))
        return self.ln2.infer(x + self.fc2.infer(hidden, backend), backend)


class GraphConv(Module):
    """GCN layer: ``H' = A_hat H W`` with the normalized adjacency.

    ``a_hat`` (dense, ``(V, V)``) is supplied per call since it belongs
    to the graph, not the layer.  Both matmuls are GEMMs on the array.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng)

    def forward(self, h: Tensor, a_hat: np.ndarray) -> Tensor:
        return Tensor(a_hat) @ self.linear(h)

    def infer(self, h: np.ndarray, a_hat: np.ndarray, backend) -> np.ndarray:
        return backend.matmul(a_hat, self.linear.infer(h, backend))
