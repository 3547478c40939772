"""KV-prefix reuse for the transformer serving path.

Production transformer traffic is dominated by *shared prompts*: many
requests open with the same system/context tokens and differ only in a
short suffix, and a conversational follow-up replays its whole
transcript.  On the causal encoder
(:class:`~repro.nn.models.bert.TinyBERT` with ``causal=True``) every
hidden row at every depth is a function of the tokens at or before it,
so the per-layer key/value activations of a shared prompt are identical
across requests — computing them once and reusing them is *lossless*.

This module provides the cache side of that reuse:

* :class:`RadixKVCache` — the one KV-prefix cache.  Payloads
  (per-layer K/V and, for classifiers, the final hidden rows: a
  :class:`~repro.nn.executor.KVState` prefix, in the fixed-point domain
  the backend dequantized onto, frozen read-only) live in per-shard LRU
  stores under a *byte budget*, on the shard whose array computed
  them (activations are format/design-point faithful, and locality is
  what placement affinity exploits).  A shard's resident bytes never
  exceed the budget after any operation, which the property suite
  asserts.  Store keys are the *exact token tuples*, and they are the
  index: the longest cached prefix of a query is its longest prefix
  whose key the shard's store holds, so lookup and placement affinity
  read the one record eviction updates.
* :class:`TransformerPrefixAdapter` — the classifier endpoint glue:
  derives the request's batch key (content digest of the prompt
  tokens), runs the cold path with K/V capture, runs the hit path
  through a fork of the cached payload (both are
  :meth:`~repro.nn.models.bert.TinyBERT.infer` with a ``kv``), and
  prices the skipped work with the exact closed form
  :func:`~repro.nn.workload.transformer_prefix_savings`.
* :class:`PrefixEvent` — one batch's hit/miss record in the serving
  report.

Both kinds of traffic are clients of one cache instance under one
per-shard budget: a classifier batch reuses its fixed-length prompt
only when the whole prompt is cached; a generation prefill takes
whatever prefix of its prompt is cached and computes the rest.  A model
is one kind or the other (``register`` refuses both adapters on one
endpoint), so one ``(shard, tenant, model)`` key family only ever holds
one kind of payload.  Classifier hits and misses never share a batch:
the batcher keys groups on ``(tenant, model, prefix_key)``, so a batch
is uniformly one prompt and the engine resolves it against the cache
exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.domains import POSITIVE_INT
from repro.nn.executor import KVState
from repro.nn.workload import transformer_prefix_savings
from repro.store import InProcessLRU


@dataclass(frozen=True)
class PrefixEvent:
    """One prefix-keyed batch execution, as logged in the report.

    ``cycles_saved`` is the closed-form traced-cycle cost of the ops a
    hit skipped (0 for misses and for functional backends without a
    cycle model); the property suite pins it to the measured
    cold-minus-hit trace delta exactly.
    """

    batch_index: int
    model: str
    tenant: str
    shard: int
    batch_size: int
    prefix_key: str
    hit: bool
    cycles_saved: int = 0



class TransformerPrefixAdapter:
    """Endpoint glue between the engine, a causal encoder and the cache.

    Parameters
    ----------
    model:
        A causal :class:`~repro.nn.models.bert.TinyBERT`-shaped model:
        ``causal=True``, with ``seq_len``/``dim``/``heads``/``ff_dim``/
        ``n_layers`` attributes and ``infer(tokens, backend, kv=...)``.
    prefix_len:
        Number of leading tokens that form the shared prompt; requests
        are keyed (and cached) on exactly these.  Must leave at least
        one suffix token.

    Register it together with a cache-equipped engine::

        engine = InferenceEngine(pool, radix_cache=RadixKVCache())
        engine.register("bert", model,
                        prefix_adapter=TransformerPrefixAdapter(model, 12))
    """

    def __init__(self, model, prefix_len: int):
        if not getattr(model, "causal", False):
            raise ValueError(
                "prefix reuse requires a causal model (causal=True); "
                "bidirectional attention lets suffix tokens influence "
                "prefix activations, so cached prefixes would be stale"
            )
        prefix_len = POSITIVE_INT("prefix_len", prefix_len)
        if not prefix_len < model.seq_len:
            raise ValueError(
                f"prefix_len must be in (0, {model.seq_len}), got {prefix_len}"
            )
        self.model = model
        self.prefix_len = prefix_len

    # -- keying ---------------------------------------------------------
    def prefix_tokens(self, inputs: np.ndarray) -> np.ndarray:
        """The canonical prompt tokens of one request sample."""
        tokens = np.asarray(inputs)
        if tokens.ndim != 1 or tokens.shape[0] != self.model.seq_len:
            raise ValueError(
                f"expected a ({self.model.seq_len},) token row, "
                f"got shape {tokens.shape}"
            )
        # An owning copy, never a view of a caller-reused input buffer.
        return np.array(tokens[: self.prefix_len], dtype=np.int64, copy=True)

    def request_key(self, inputs: np.ndarray) -> str:
        """Content digest of the request's prompt (the batch key).

        It keys batch assembly, so same-prompt requests group together
        and mixed batches cannot form, and labels the batch's
        :class:`PrefixEvent`.  It is never a cache key: the cache is
        keyed on the prompt tokens themselves.
        """
        prefix = self.prefix_tokens(inputs)
        digest = hashlib.sha256(prefix.tobytes()).hexdigest()[:32]
        return f"p{self.prefix_len}-{digest}"

    # -- execution ------------------------------------------------------
    def infer_cold(self, stacked: np.ndarray, backend) -> "tuple[np.ndarray, KVState]":
        """Full inference of a miss batch, capturing the prefix payload.

        Within a prefix-keyed batch all sequences share the prompt, so
        sequence 0's first ``prefix_len`` rows are every member's.
        """
        kv = KVState(self.model.n_layers)
        outputs = np.asarray(self.model.infer(stacked, backend, kv=kv))
        return outputs, kv.prefix(self.prefix_len)

    def infer_hit(self, stacked: np.ndarray, payload: KVState, backend) -> np.ndarray:
        """Suffix-only inference of a hit batch (bit-identical to cold);
        the pass extends a fork, never the shared payload."""
        return np.asarray(self.model.infer(stacked, backend, kv=payload.fork()))

    # -- accounting -----------------------------------------------------
    def saved_cycles(self, batch_size: int, config) -> int:
        """Exact traced cycles a hit of ``batch_size`` skips on ``config``."""
        model = self.model
        return transformer_prefix_savings(
            batch_size, model.seq_len, self.prefix_len, model.dim,
            model.heads, model.ff_dim, model.n_layers, config,
        )


class _Shard:
    """One shard of :class:`RadixKVCache`: its store, probe index and
    counters."""

    __slots__ = ("store", "lengths", "hits", "misses", "insertions", "migrations")

    def __init__(self, budget: int) -> None:
        self.store = InProcessLRU(max_bytes=budget)
        # Key lengths ever admitted per (tenant, model): which prefixes
        # of a query are worth probing.  Evictions leave them behind, so
        # they bound a search and never answer residency.
        self.lengths: Dict[Tuple[str, str], Set[int]] = {}
        self.hits = self.misses = self.insertions = self.migrations = 0

    def resident_len(self, tenant: str, model: str, seq) -> int:
        """Length of the longest prefix of ``seq`` resident under its
        exact key (0: none).  A pure read of the store."""
        lengths = self.lengths.get((tenant, model))
        if not lengths:
            return 0
        for n in sorted(lengths, reverse=True):
            if n <= len(seq) and self.store.contains((tenant, model, seq[:n])):
                return n
        return 0

    def admit(self, tenant: str, model: str, seq, payload) -> bool:
        """Make ``payload`` resident under the byte budget: the store
        evicts least-recently-used payloads until the entry fits, and
        rejects one bigger than the whole budget."""
        if not self.store.put(
            (tenant, model, seq), payload, nbytes=payload.nbytes + 8 * len(seq)
        ):
            return False
        self.lengths.setdefault((tenant, model), set()).add(len(seq))
        return True


class RadixKVCache:
    """Tenant-scoped, per-shard LRU of cached K/V rows under a byte budget.

    Payloads are :class:`~repro.nn.executor.KVState` prefixes of a token
    sequence — a classifier's shared prompt, or a generating sequence's
    prompt and, as it generates, its growing history.  A lookup finds
    the longest prefix of a query whose exact key the shard's store
    holds, so a conversational follow-up that replays its whole
    transcript prefills only the new turn.

    Parameters
    ----------
    shard_budget_bytes:
        Eviction budget *per shard*.  Resident bytes on a shard never
        exceed it: inserting evicts least-recently-used entries first,
        and an entry that alone exceeds the budget is rejected (counted
        in the shard's ``rejections``), never resident.

    Entries are keyed ``(tenant, model, exact token tuple)`` — a tenant
    never hits another tenant's cache, so prompt reuse cannot leak
    activations across tenants, and a hit needs no further
    verification.  Each shard's payloads live in a private
    :class:`~repro.store.InProcessLRU`; that store is the one record of
    residency: :meth:`lookup` and :meth:`resident_shards` both ask it.
    Each lookup counts once, as a hit or a miss on the shard it probed
    (:meth:`stats`).
    """

    def __init__(self, shard_budget_bytes: int = 32 << 20):
        self.shard_budget_bytes = POSITIVE_INT("shard_budget_bytes", shard_budget_bytes)
        self._shards: Dict[int, _Shard] = {}

    @staticmethod
    def _seq(tokens) -> Tuple[int, ...]:
        # ``tolist`` converts in one C call; ``int`` still truncates a
        # float-typed row, so keys serialise as ints whatever the dtype.
        return tuple(map(int, np.asarray(tokens).reshape(-1).tolist()))

    def _shard(self, shard: int) -> _Shard:
        record = self._shards.get(shard)
        if record is None:
            record = self._shards[shard] = _Shard(self.shard_budget_bytes)
        return record

    # -- read side -------------------------------------------------------
    def lookup(
        self,
        shard: int,
        tenant: str,
        model: str,
        tokens,
        max_len: Optional[int] = None,
    ) -> Tuple[int, Optional[KVState]]:
        """Longest cached prefix of ``tokens`` on ``shard``.

        Returns ``(cached_len, payload)`` or ``(0, None)``.  ``max_len``
        caps the usable prefix (a prefill must keep at least one
        un-cached row to produce logits).  A hit refreshes the payload's
        LRU recency.
        """
        seq = self._seq(tokens)
        if max_len is not None:
            seq = seq[: int(max_len)]
        record = self._shard(shard)
        match = record.resident_len(tenant, model, seq)
        if match:
            record.hits += 1
            return match, record.store.get((tenant, model, seq[:match]))
        record.misses += 1
        return 0, None

    def resident_shards(self, tenant: str, model: str, tokens) -> Tuple[int, ...]:
        """Shards holding a cached prefix of ``tokens`` (placement affinity).

        A pure read of the same record :meth:`lookup` serves from, with
        no effect on LRU order or any counter: a shard is listed exactly
        when a lookup there would hit.
        """
        seq = self._seq(tokens)
        return tuple(
            shard
            for shard, record in sorted(self._shards.items())
            if record.resident_len(tenant, model, seq)
        )

    # -- write side ------------------------------------------------------
    def insert(
        self, shard: int, tenant: str, model: str, tokens, payload: KVState
    ) -> bool:
        """Cache ``payload`` as the K/V rows of ``tokens`` on ``shard``.

        The payload must cover exactly ``len(tokens)`` positions.
        Evicts least-recently-used payloads until the byte budget
        holds; a payload alone exceeding the budget is rejected
        (returns False).  Re-inserting an existing key replaces the old
        payload (its bytes are released first).
        """
        seq = self._seq(tokens)
        if payload.pos != len(seq):
            raise ValueError(
                f"payload covers {payload.pos} positions, "
                f"tokens have {len(seq)}"
            )
        record = self._shard(shard)
        if not record.admit(tenant, model, seq, payload):
            return False
        record.insertions += 1
        return True

    def migrate(
        self, from_shard: int, to_shard: int, tenant: str, model: str, tokens
    ) -> bool:
        """Move the entry cached for exactly ``tokens`` between shards.

        Work-stealing calls this when load breaks placement affinity:
        migrating the payload with the stolen batch preserves the hit
        on the destination shard instead of forcing a cold recompute.
        The source is released only after the destination accepted the
        entry (an entry is never lost to a failed move), and the move
        counts as a migration into the destination, never as a lookup.
        Returns False when nothing is resident on ``from_shard`` under
        these tokens, the shards are equal, or the entry alone exceeds
        the budget.
        """
        if from_shard == to_shard:
            return False
        key = (tenant, model, self._seq(tokens))
        source, target = self._shard(from_shard), self._shard(to_shard)
        payload = source.store.get(key, touch=False)
        if payload is None or not target.admit(*key, payload):
            return False
        source.store.delete(key)
        target.migrations += 1
        return True

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[int, Dict[str, object]]:
        """Per shard: the store's occupancy, evictions and rejections
        beside the lookups (each a hit or a miss), insertions and
        migrations in that this cache counted."""
        return {
            shard: {
                **record.store.stats(),
                "hits": record.hits,
                "misses": record.misses,
                "insertions": record.insertions,
                "migrations": record.migrations,
            }
            for shard, record in sorted(self._shards.items())
        }
