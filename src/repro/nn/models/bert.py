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
from repro.nn.executor import DecodeKV, KVTap
from repro.nn.layers import Embedding, Linear, Module, TransformerEncoderLayer


class TinyBERT(Module):
    """Encoder-only classifier for integer token sequences ``(N, T)``.

    ``causal=True`` turns every attention layer causal (position ``i``
    attends to positions ``<= i`` only), which makes the whole encoder
    row-causal: hidden row ``i`` at every depth depends only on tokens
    ``<= i``.  That is the property KV-prefix reuse needs — a request
    sharing a cached prompt can skip the prefix rows of every GEMM and
    still produce bit-identical outputs via :meth:`infer_suffix`.  The
    default (bidirectional) model is unchanged.
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

    def infer(self, tokens: np.ndarray, backend, kv_tap=None) -> np.ndarray:
        """Batched inference; ``kv_tap`` captures per-layer prefix K/V.

        ``kv_tap`` (a :class:`repro.nn.executor.KVTap`) records each
        attention layer's merged key/value activations plus the final
        hidden prefix rows during a normal cold pass, at zero extra
        compute — the payload a :class:`~repro.serving.prefix_cache.RadixKVCache`
        entry retains.
        """
        tokens = np.asarray(tokens)
        x = self.token_emb.infer_indices(tokens) + self.pos_emb.data
        for layer in self.layers:
            x = layer.infer(x, backend, kv_tap=kv_tap)
        if kv_tap is not None:
            kv_tap.capture_final(x)
        pooled = x.mean(axis=1)
        return self.classifier.infer(pooled, backend)

    def infer_suffix(self, tokens: np.ndarray, prefix, backend) -> np.ndarray:
        """Inference reusing a cached prompt: suffix rows only.

        ``tokens`` is the full ``(N, T)`` batch whose first
        ``prefix.prefix_len`` columns match the cached prompt;
        ``prefix`` is a captured :class:`~repro.nn.executor.KVTap` (or
        any object with ``prefix_len``, per-layer ``layers[i].k/.v``
        and ``final_hidden``).  Only the suffix rows flow through the
        encoder — each layer attends against its cached prefix K/V —
        and the cached final hidden rows complete the mean-pool, so the
        classifier sees exactly the cold path's pooled activations.
        Bit-identity with :meth:`infer` is property-tested.
        """
        if not self.causal:
            raise ValueError("prefix reuse requires causal=True")
        tokens = np.asarray(tokens)
        p = prefix.prefix_len
        if not 0 < p < tokens.shape[-1]:
            raise ValueError(
                f"prefix length {p} must be in (0, {tokens.shape[-1]})"
            )
        if len(prefix.layers) != len(self.layers) or prefix.final_hidden is None:
            raise ValueError("prefix payload does not match this model's depth")
        n = tokens.shape[0]
        x = self.token_emb.infer_indices(tokens[:, p:]) + self.pos_emb.data[p:]
        for layer, kv in zip(self.layers, prefix.layers):
            x = layer.infer_suffix(x, kv.k, kv.v, backend)
        final_prefix = np.broadcast_to(prefix.final_hidden, (n,) + prefix.final_hidden.shape)
        full = np.concatenate([final_prefix, x], axis=1)
        pooled = full.mean(axis=1)
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

    def infer_logits(self, tokens: np.ndarray, backend) -> np.ndarray:
        """Full-sequence next-token logits (the recompute reference).

        Runs the whole ``(N, T)`` batch through every layer and reads
        the last row's logits — the naive per-token reference that
        :meth:`decode_step` must match bit-for-bit.
        """
        tokens = np.asarray(tokens)
        n, t = tokens.shape
        if not 0 < t <= self.seq_len:
            raise ValueError(f"sequence length {t} must be in (0, {self.seq_len}]")
        x = self.token_emb.infer_indices(tokens) + self.pos_emb.data[:t]
        for layer in self.layers:
            x = layer.infer(x, backend)
        return self.lm_logits(x[:, -1, :], backend)

    def prefill(
        self, tokens: np.ndarray, backend, cached=None
    ) -> "tuple[np.ndarray, DecodeKV]":
        """Process the prompt and return ``(last-row logits, KV state)``.

        ``tokens`` is ``(N, P)``.  ``cached`` holds captured
        :class:`~repro.nn.executor.KVTap` prefixes: one per sequence,
        each matching its own row's leading tokens, or a single tap
        every row shares.  The pass starts from their first ``C`` rows,
        ``C`` being the shortest payload's length (``0 < C < P``), and
        computes only the remaining suffix rows — bit-identical to the
        cold pass because causal K/V rows are suffix-independent.
        """
        if not self.causal:
            raise ValueError("generation requires causal=True")
        tokens = np.asarray(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"prompt batch must be 2-D, got shape {tokens.shape}")
        n, p = tokens.shape
        if not 0 < p <= self.seq_len:
            raise ValueError(f"prompt length {p} must be in (0, {self.seq_len}]")
        state = DecodeKV(self.n_layers)
        if cached is None:
            x = self.token_emb.infer_indices(tokens) + self.pos_emb.data[:p]
            for layer in self.layers:
                x = layer.infer(x, backend, kv_tap=state)
        else:
            taps = [cached] * n if isinstance(cached, KVTap) else list(cached)
            if len(taps) != n:
                raise ValueError(
                    f"got {len(taps)} cached prefixes for {n} sequences"
                )
            c = min(tap.prefix_len for tap in taps)
            if not 0 < c < p:
                raise ValueError(f"cached prefix length {c} must be in (0, {p})")
            state.seed(taps, c)
            x = self.token_emb.infer_indices(tokens[:, c:]) + self.pos_emb.data[c:p]
            for i, layer in enumerate(self.layers):
                x, k_s, v_s = layer.infer_suffix_kv(
                    x, state.k[i], state.v[i], backend
                )
                state.extend(i, k_s, v_s)
        return self.lm_logits(x[:, -1, :], backend), state

    def decode_step(self, state: DecodeKV, tokens: np.ndarray, backend) -> np.ndarray:
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
        pos = state.pos
        if pos < 1:
            raise ValueError("decode_step needs a prefilled state")
        if pos >= self.seq_len:
            raise ValueError(
                f"position {pos} exhausts the {self.seq_len}-entry position table"
            )
        x = self.token_emb.infer_indices(tokens[:, None]) + self.pos_emb.data[
            pos : pos + 1
        ]
        for i, layer in enumerate(self.layers):
            x, k_s, v_s = layer.decode_step(x, state.k[i], state.v[i], backend)
            state.extend(i, k_s, v_s)
        return self.lm_logits(x[:, 0, :], backend)

    def generate(
        self,
        tokens: np.ndarray,
        max_new_tokens: int,
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
        if not self.causal:
            raise ValueError("generation requires causal=True")
        tokens = np.asarray(tokens)
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        n, p = tokens.shape
        if p + max_new_tokens > self.seq_len:
            raise ValueError(
                f"prompt ({p}) + max_new_tokens ({max_new_tokens}) exceeds "
                f"the {self.seq_len}-entry position table"
            )
        logits, state = self.prefill(tokens, backend)
        steps = [np.argmax(logits, axis=-1)]
        for _ in range(max_new_tokens - 1):
            if stop_token is not None and all(
                any(int(s[j]) == stop_token for s in steps) for j in range(n)
            ):
                break
            logits = self.decode_step(state, steps[-1], backend)
            steps.append(np.argmax(logits, axis=-1))
        stacked = np.stack(steps, axis=1)
        results = []
        for row in stacked:
            if stop_token is not None:
                hits = np.nonzero(row == stop_token)[0]
                if hits.size:
                    row = row[: hits[0] + 1]
            results.append(row)
        return results
