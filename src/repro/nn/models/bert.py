"""Transformer encoder (the paper's BERT family).

:class:`TinyBERT` is a two-layer post-norm encoder with learned token
and position embeddings, GELU feed-forwards, LayerNorms and softmax
attention — all four of Fig. 1(b)'s nonlinear op types — trainable in
seconds on the synthetic sequence tasks.  The full BERT-base layer
shapes live in :mod:`repro.nn.workload`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.executor import KVState
from repro.nn.layers import Embedding, Linear, Module, TransformerEncoderLayer


def check_token_ids(tokens: np.ndarray, vocab: int) -> None:
    """Reject token ids that are not integers in ``[0, vocab)``: an
    embedding lookup would read a negative id off the table's end, and
    fail on one past it or on a float."""
    if tokens.dtype.kind not in "iu":
        raise ValueError(f"token ids must be integers, got {tokens.dtype}")
    if tokens.size and not 0 <= tokens.min() <= tokens.max() < vocab:
        raise ValueError(
            f"token ids must be in [0, {vocab}), got "
            f"[{tokens.min()}, {tokens.max()}]"
        )


class TinyBERT(Module):
    """Encoder-only classifier for integer token sequences ``(N, T)``.

    ``causal=True`` turns every attention layer causal (position ``i``
    attends to positions ``<= i`` only), which makes the whole encoder
    row-causal: hidden row ``i`` at every depth depends only on tokens
    ``<= i``.  That is the property KV-prefix reuse needs — a request
    sharing a cached prompt can skip the prefix rows of every GEMM and
    still produce bit-identical outputs via :meth:`infer` with a ``kv``.
    The default (bidirectional) model is unchanged.
    """

    def __init__(
        self,
        vocab: int = 32,
        seq_len: int = 16,
        dim: int = 32,
        heads: int = 4,
        ff_dim: int = 64,
        n_layers: int = 2,
        n_classes: int = 2,
        seed: int = 0,
        causal: bool = False,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.vocab = vocab
        self.seq_len = seq_len
        self.dim = dim
        self.heads = heads
        self.ff_dim = ff_dim
        self.n_layers = n_layers
        self.n_classes = n_classes
        self.causal = bool(causal)
        self.token_emb = Embedding(vocab, dim, rng)
        self.pos_emb = Tensor(
            rng.normal(0, 0.1, size=(seq_len, dim)), requires_grad=True
        )
        self.layers = [
            TransformerEncoderLayer(dim, heads, ff_dim, rng, causal=causal)
            for _ in range(n_layers)
        ]
        self.classifier = Linear(dim, n_classes, rng)

    def forward(self, tokens: np.ndarray) -> Tensor:
        tokens = np.asarray(tokens)
        x = self.token_emb.forward_indices(tokens) + self.pos_emb
        for layer in self.layers:
            x = layer(x)
        pooled = x.mean(axis=1)
        return self.classifier(pooled)

    def _encode(self, tokens: np.ndarray, backend, kv=None) -> np.ndarray:
        """The one incremental pass: hidden rows of the new ``tokens``.

        ``tokens`` holds the ``(N, S)`` columns at positions ``kv.pos``
        onward (from 0 without a ``kv``).  They are embedded at those
        positions and run through every layer; layer ``i`` appends their
        K/V rows onto ``kv`` and attends against all it then holds.  A
        cold pass, a classifier prefix hit, a warm prefill and a decode
        step are this call with ``(S, pos)`` = ``(T, 0)``, ``(T - P, P)``,
        ``(P - C, C)`` and ``(1, pos)`` — the one shape
        :mod:`repro.nn.workload` prices them all as.  The layers run in
        one ``backend.model_pass()``, so each op's output enters the next
        op as exact codes.
        """
        pos = 0 if kv is None else kv.pos
        if kv is not None and kv.n_layers != self.n_layers:
            raise ValueError(
                f"K/V state has {kv.n_layers} layers, model has {self.n_layers}"
            )
        if pos and not self.causal:
            raise ValueError("prefix reuse requires causal=True")
        if tokens.ndim != 2:
            raise ValueError(f"token batch must be 2-D, got shape {tokens.shape}")
        end = pos + tokens.shape[1]
        if not pos < end <= self.seq_len:
            raise ValueError(
                f"positions [{pos}, {end}) must be a non-empty range of the "
                f"{self.seq_len}-entry position table"
            )
        check_token_ids(tokens, self.vocab)
        with backend.model_pass():
            x = self.token_emb.infer_indices(tokens) + self.pos_emb.data[pos:end]
            for i, layer in enumerate(self.layers):
                x = layer.infer(x, backend, kv, i)
        return x

    def infer(self, tokens: np.ndarray, backend, kv=None) -> np.ndarray:
        """Batched inference of the full ``(N, T)`` batch ``tokens``.

        ``kv`` (a :class:`repro.nn.executor.KVState`) makes the pass
        incremental.  Empty, it records each attention layer's merged
        key/value activations plus the final hidden rows during a
        normal cold pass, at zero extra compute; ``kv.prefix(P)`` is
        then the payload a
        :class:`~repro.serving.prefix_cache.RadixKVCache` entry retains.
        Holding ``P`` positions of a cached prompt (a ``fork()`` of such
        a payload, whose rows the first ``P`` columns must match), only
        the suffix rows flow through the encoder — each layer attends
        against its cached K/V — and the cached final hidden rows
        complete the mean-pool, so the classifier sees exactly the cold
        path's pooled activations.  Bit-identity is property-tested.
        """
        tokens = np.asarray(tokens)
        cached = 0 if kv is None else kv.pos
        if cached and kv.final_hidden is None:
            raise ValueError("K/V state holds no final hidden rows to pool")
        x = self._encode(tokens[:, cached:], backend, kv)
        if kv is not None:
            if cached:
                final = kv.final_hidden
                final = np.broadcast_to(final, x.shape[:1] + final.shape[1:])
                x = np.concatenate([final, x], axis=1)
            kv.final_hidden = x
        pooled = x.mean(axis=1)
        return self.classifier.infer(pooled, backend)

    def predict(self, tokens: np.ndarray, backend) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.infer(tokens, backend), axis=-1)

    # -- autoregressive generation --------------------------------------
    def lm_logits(self, hidden: np.ndarray, backend) -> np.ndarray:
        """Next-token logits from hidden rows via the tied embedding.

        ``hidden`` is ``(N, D)``; the head is the transposed token
        embedding table — zero new parameters (the model's RNG draw
        order is untouched) and one traced ``(N, D, V)`` GEMM.
        """
        return backend.matmul(np.asarray(hidden), self.token_emb.table.data.T)

    def prefill(
        self, tokens: np.ndarray, backend, cached=None
    ) -> "tuple[np.ndarray, KVState]":
        """Process the prompt and return ``(last-row logits, KV state)``.

        ``tokens`` is ``(N, P)``.  ``cached`` holds
        :class:`~repro.nn.executor.KVState` payloads: one per sequence,
        each matching its own row's leading tokens, or a single payload
        every row shares.  The pass starts from a stacked copy of their
        first ``C`` rows, ``C`` being the shortest payload's length
        (``0 < C < P``), and computes only the remaining suffix rows —
        bit-identical to the cold pass because causal K/V rows are
        suffix-independent.
        """
        if not self.causal:
            raise ValueError("generation requires causal=True")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"prompt batch must be 2-D, got shape {tokens.shape}")
        n, p = tokens.shape
        if cached is None:
            state = KVState(self.n_layers)
        else:
            payloads = [cached] * n if isinstance(cached, KVState) else list(cached)
            if len(payloads) != n:
                raise ValueError(
                    f"got {len(payloads)} cached prefixes for {n} sequences"
                )
            c = min(payload.pos for payload in payloads)
            if not 0 < c < p:
                raise ValueError(f"cached prefix length {c} must be in (0, {p})")
            state = KVState.stack(payloads, upto=c)
        x = self._encode(tokens[:, state.pos :], backend, state)
        return self.lm_logits(x[:, -1, :], backend), state

    def decode_step(self, state: KVState, tokens: np.ndarray, backend) -> np.ndarray:
        """One decode iteration: feed one token per sequence, get logits.

        ``tokens`` is ``(N,)`` — each sequence's latest token, placed at
        position ``state.pos``.  The step's K/V rows are appended onto
        ``state`` (incremental capture), so repeated calls walk the
        position table exactly like a growing full-sequence pass.
        """
        if not self.causal:
            raise ValueError("generation requires causal=True")
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError(f"decode tokens must be 1-D, got shape {tokens.shape}")
        if state.pos < 1:
            raise ValueError("decode_step needs a prefilled state")
        x = self._encode(tokens[:, None], backend, state)
        return self.lm_logits(x[:, 0, :], backend)

    def generate(
        self,
        tokens: np.ndarray,
        max_new_tokens,
        backend,
        stop_token=None,
    ) -> "list[np.ndarray]":
        """Greedy decode: prefill then step until length or stop token.

        Returns one 1-D generated-token array per sequence, truncated
        just after the first ``stop_token`` when one is given.  Rows
        run in lockstep (batch execution is bit-identical to running
        each sequence alone), so a stopped row keeps decoding until the
        whole batch finishes — its extra tokens are simply dropped.
        """
        return self.transcribe(tokens, max_new_tokens, backend, stop_token)[0]

    def transcribe(
        self,
        tokens: np.ndarray,
        max_new_tokens,
        backend,
        stop_token=None,
    ) -> "tuple[list[np.ndarray], KVState]":
        """:meth:`generate`, keeping the K/V state: ``(rows, state)``.

        ``max_new_tokens`` and ``stop_token`` are one value for the batch
        or one per row (a ``None`` stop never fires).  ``state`` holds
        the rows of the prompt and of every step fed back — for each
        sequence at least its prompt plus all generated tokens but the
        last, which is what a decode pool or a radix cache keeps of it.
        """
        if not self.causal:
            raise ValueError("generation requires causal=True")
        tokens = np.asarray(tokens)
        n, p = tokens.shape
        limits = np.broadcast_to(np.asarray(max_new_tokens, dtype=np.int64), (n,))
        if limits.min() < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        if p + limits.max() > self.seq_len:
            raise ValueError(
                f"prompt ({p}) + max_new_tokens ({max_new_tokens}) exceeds "
                f"the {self.seq_len}-entry position table"
            )
        if stop_token is None or np.ndim(stop_token) == 0:
            stop_token = [stop_token] * n
        # Token ids are >= 0, so -1 is the stop that never fires.
        stops = np.array([-1 if stop is None else stop for stop in stop_token])
        logits, state = self.prefill(tokens, backend)
        steps = []
        lengths = limits.copy()
        live = np.ones(n, dtype=bool)  # rows still generating
        while True:
            steps.append(np.argmax(logits, axis=-1))
            stopped = live & (steps[-1] == stops)
            lengths[stopped] = len(steps)
            live &= ~stopped & (len(steps) < limits)
            if not live.any():
                break
            logits = self.decode_step(state, steps[-1], backend)
        stacked = np.stack(steps, axis=1)
        return [row[:length] for row, length in zip(stacked, lengths)], state
