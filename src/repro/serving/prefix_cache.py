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
  what placement affinity exploits).  The invariant
  ``resident_bytes(shard) <= budget`` holds after every operation,
  which the property suite asserts.  Store keys are the *exact token
  tuples*, and a :class:`RadixPrefixIndex` per ``(shard, tenant,
  model)`` finds the longest cached prefix of a query.
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
endpoint), so one ``(shard, tenant, model)`` tree only ever holds one
kind of payload.  Classifier hits and misses never share
a batch: the batcher keys groups on ``(tenant, model, prefix_key)``,
so a batch is uniformly one prompt and the engine resolves it against
the cache exactly once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.nn.executor import KVState
from repro.nn.workload import transformer_prefix_savings
from repro.store import CacheStore, InProcessLRU


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
        if not 0 < prefix_len < model.seq_len:
            raise ValueError(
                f"prefix_len must be in (0, {model.seq_len}), got {prefix_len}"
            )
        self.model = model
        self.prefix_len = int(prefix_len)
        self._savings: Dict[object, int] = {}

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
        key = (batch_size, config)
        if key not in self._savings:
            self._savings[key] = transformer_prefix_savings(
                batch_size,
                self.model.seq_len,
                self.prefix_len,
                self.model.dim,
                self.model.heads,
                self.model.ff_dim,
                self.model.n_layers,
                config,
            )
        return self._savings[key]


class _RadixNode:
    """One node of a path-compressed token trie."""

    __slots__ = ("edges", "terminal")

    def __init__(self):
        # first token of the edge label -> (label tuple, child node)
        self.edges: Dict[int, Tuple[Tuple[int, ...], "_RadixNode"]] = {}
        self.terminal = False


class RadixPrefixIndex:
    """Path-compressed trie over token sequences (longest-prefix match).

    The index holds only *which* sequences are cached — payloads live
    in a byte-budgeted :class:`~repro.store.CacheStore` keyed by the
    exact token tuple.
    ``longest_match`` walks the query once (O(|query|)) and returns the
    length of the longest *terminal* prefix, which is how conversational
    traffic finds the deepest cached slice of its growing history.
    """

    def __init__(self):
        self._root = _RadixNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, tokens) -> bool:
        seq = tuple(tokens)
        return self.longest_match(seq) == len(seq) and len(seq) > 0

    def insert(self, tokens) -> bool:
        """Mark ``tokens`` cached; returns False if already present."""
        seq = tuple(int(t) for t in tokens)
        if not seq:
            raise ValueError("cannot index an empty token sequence")
        node, i = self._root, 0
        n = len(seq)
        while i < n:
            edge = node.edges.get(seq[i])
            if edge is None:
                child = _RadixNode()
                child.terminal = True
                node.edges[seq[i]] = (seq[i:], child)
                self._size += 1
                return True
            label, child = edge
            common = 0
            limit = min(len(label), n - i)
            while common < limit and label[common] == seq[i + common]:
                common += 1
            if common == len(label):
                node, i = child, i + common
                continue
            # Split the edge at the divergence (or containment) point.
            mid = _RadixNode()
            node.edges[seq[i]] = (label[:common], mid)
            mid.edges[label[common]] = (label[common:], child)
            if i + common == n:
                mid.terminal = True
            else:
                leaf = _RadixNode()
                leaf.terminal = True
                mid.edges[seq[i + common]] = (seq[i + common :], leaf)
            self._size += 1
            return True
        if node.terminal:
            return False
        node.terminal = True
        self._size += 1
        return True

    def longest_match(self, tokens) -> int:
        """Length of the longest indexed prefix of ``tokens`` (0 = none)."""
        seq = tuple(tokens)
        node, i, best = self._root, 0, 0
        n = len(seq)
        while i < n:
            edge = node.edges.get(seq[i])
            if edge is None:
                break
            label, child = edge
            if len(label) > n - i or label != seq[i : i + len(label)]:
                break
            i += len(label)
            node = child
            if node.terminal:
                best = i
        return best

    def remove(self, tokens) -> bool:
        """Unmark ``tokens``; prunes empty branches.  False if absent."""
        seq = tuple(int(t) for t in tokens)
        path = []  # (parent, first_token_of_edge)
        node, i = self._root, 0
        n = len(seq)
        while i < n:
            edge = node.edges.get(seq[i])
            if edge is None:
                return False
            label, child = edge
            if label != seq[i : i + len(label)]:
                return False
            path.append((node, seq[i]))
            node, i = child, i + len(label)
        if i != n or not node.terminal:
            return False
        node.terminal = False
        self._size -= 1
        # Prune now-useless leaves back up the walked path.
        for parent, first in reversed(path):
            label, child = parent.edges[first]
            if child.terminal or child.edges:
                break
            del parent.edges[first]
        return True


class RadixKVCache:
    """Tenant-scoped, per-shard LRU of cached K/V rows under a byte budget.

    Payloads are :class:`~repro.nn.executor.KVState` prefixes of a token
    sequence — a classifier's shared prompt, or a generating sequence's
    prompt and, as it generates, its growing history.  A
    per-``(shard, tenant, model)`` :class:`RadixPrefixIndex` finds the
    longest cached prefix of a query, so a conversational follow-up
    that replays its whole transcript prefills only the new turn.

    Parameters
    ----------
    shard_budget_bytes:
        Eviction budget *per shard*.  Resident bytes on a shard never
        exceed it: inserting evicts least-recently-used entries first,
        and an entry that alone exceeds the budget is rejected (counted
        in :attr:`rejections`), never resident.
    fabric:
        Optional second tier (typically a shared
        :class:`~repro.store.FileStore`): a lookup that finds nothing
        locally reads the exact query through it (a fabric hit is
        promoted onto the local shard), and inserts write through — so
        a prompt computed by one worker process serves every other
        worker's first request for it.

    Entries are keyed ``(tenant, model, exact token tuple)`` — a tenant
    never hits another tenant's cache, so prompt reuse cannot leak
    activations across tenants, and a hit needs no further
    verification.  Payloads live in a private
    :class:`~repro.store.InProcessLRU`: shard ``N`` under
    ``serving.radix.shard<N>``, the shard-agnostic fabric tier under
    :attr:`NAMESPACE` itself.
    """

    #: Store namespace of the cache (an engine has one, so one name).
    NAMESPACE = "serving.radix"

    def __init__(
        self,
        shard_budget_bytes: int = 32 << 20,
        fabric: Optional[CacheStore] = None,
    ):
        if shard_budget_bytes < 1:
            raise ValueError(
                f"shard_budget_bytes must be >= 1, got {shard_budget_bytes}"
            )
        self.shard_budget_bytes = int(shard_budget_bytes)
        self._store = InProcessLRU()
        self._fabric = fabric
        self._shards_seen: Set[int] = set()
        self._trees: Dict[Tuple[int, str, str], RadixPrefixIndex] = {}
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.migrations = 0
        self.fabric_hits = 0
        self.fabric_misses = 0

    @staticmethod
    def _seq(tokens) -> Tuple[int, ...]:
        # ``tolist`` converts in one C call; ``int`` still truncates a
        # float-typed row, so keys serialise as ints whatever the dtype.
        return tuple(map(int, np.asarray(tokens).reshape(-1).tolist()))

    def _namespace(self, shard: int) -> str:
        namespace = f"{self.NAMESPACE}.shard{shard}"
        if shard not in self._shards_seen:
            self._store.set_limit(namespace, max_bytes=self.shard_budget_bytes)
            self._shards_seen.add(shard)
        return namespace

    def _admit(
        self, shard: int, tenant: str, model: str, seq, payload, publish: bool = True
    ) -> bool:
        """Make ``payload`` resident on ``shard`` under the byte budget.

        The one budget check: evicts least-recently-used payloads until
        the entry fits, rejects an entry bigger than the whole budget,
        keeps the shard's index in step with its store, and (unless the
        payload just came *from* there) writes through to the fabric.
        """
        size = payload.nbytes + 8 * len(seq)
        if size > self.shard_budget_bytes:
            self.rejections += 1
            return False
        namespace = self._namespace(shard)
        evictions_before = self._store.stats(namespace)["evictions"]
        self._store.put(namespace, (tenant, model, seq), payload, nbytes=size)
        self.evictions += self._store.stats(namespace)["evictions"] - evictions_before
        self._trees.setdefault((shard, tenant, model), RadixPrefixIndex()).insert(seq)
        if publish and self._fabric is not None:
            self._fabric.put(self.NAMESPACE, (tenant, model, seq), payload, nbytes=size)
        return True

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
        LRU recency; an index entry whose payload the store already
        evicted is removed and the next-longest match is tried.  With a
        fabric tier, a query matching nothing locally is read through
        it exactly; a fabric hit is promoted here and served as a hit.
        """
        seq = self._seq(tokens)
        if max_len is not None:
            seq = seq[: int(max_len)]
        tree = self._trees.get((shard, tenant, model))
        match = tree.longest_match(seq) if tree is not None else 0
        while match:
            payload = self._store.get(
                self._namespace(shard), (tenant, model, seq[:match])
            )
            if payload is not None:
                self.hits += 1
                return match, payload
            # Store evicted the payload under the index: heal and retry.
            tree.remove(seq[:match])
            match = tree.longest_match(seq[:match])
        if self._fabric is not None:
            payload = self._fabric.get(self.NAMESPACE, (tenant, model, seq))
            if payload is not None:
                # Serialization drops numpy's read-only flag; freezing
                # again keeps promoted entries immutable while shared.
                self._admit(
                    shard, tenant, model, seq, payload.freeze(), publish=False
                )
                self.fabric_hits += 1
                self.hits += 1
                return len(seq), payload
            self.fabric_misses += 1
        self.misses += 1
        return 0, None

    def resident_shards(self, tenant: str, model: str, tokens) -> Tuple[int, ...]:
        """Shards holding a cached prefix of ``tokens`` (placement affinity).

        A pure read: the longest indexed prefix is confirmed against
        the store without touching LRU order or any counter, so a
        payload the store already evicted never attracts a batch.
        Fabric-only residency does not count — affinity is about which
        shard's memory holds the payload.
        """
        seq = self._seq(tokens)
        shards = []
        for shard in sorted(self._shards_seen):
            tree = self._trees.get((shard, tenant, model))
            match = tree.longest_match(seq) if tree is not None else 0
            if match and self._store.contains(
                self._namespace(shard), (tenant, model, seq[:match])
            ):
                shards.append(shard)
        return tuple(shards)

    def resident_bytes(self, shard: int) -> int:
        """Bytes of cached rows resident on ``shard`` (<= budget)."""
        if shard not in self._shards_seen:
            return 0
        return self._store.stats(self._namespace(shard))["bytes"]

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
        accepted = self._admit(shard, tenant, model, seq, payload)
        if accepted:
            self.insertions += 1
        return accepted

    def migrate(
        self, from_shard: int, to_shard: int, tenant: str, model: str, tokens
    ) -> bool:
        """Move the entry cached for exactly ``tokens`` between shards.

        Work-stealing calls this when load breaks placement affinity:
        migrating the payload with the stolen batch preserves the hit
        on the destination shard instead of forcing a cold recompute.
        Store entry and index move together, and the source is
        released only after the destination accepted the entry (an
        entry is never lost to a failed move).  Returns False when
        nothing is resident on ``from_shard`` under these tokens, the
        shards are equal, or the entry alone exceeds the budget.
        """
        if from_shard == to_shard:
            return False
        seq = self._seq(tokens)
        source = self._namespace(from_shard)
        payload = self._store.get(source, (tenant, model, seq), touch=False)
        if payload is None or not self._admit(to_shard, tenant, model, seq, payload):
            return False
        self._store.delete(source, (tenant, model, seq))
        tree = self._trees.get((from_shard, tenant, model))
        if tree is not None:
            tree.remove(seq)
        self.migrations += 1
        return True

    def clear(self) -> None:
        """Drop every payload and index on every shard (counters kept).

        The fabric tier, when attached, is deliberately left alone: it
        is shared state owned by the worker pool, not this cache.
        """
        for shard in self._shards_seen:
            self._store.clear(self._namespace(shard))
        self._trees.clear()

    # -- introspection ---------------------------------------------------
    def namespace_stats(self) -> Dict[str, Dict[str, int]]:
        """Store-schema stats of every shard namespace (for reports)."""
        return {
            self._namespace(shard): self._store.stats(self._namespace(shard))
            for shard in sorted(self._shards_seen)
        }

    def stats(self) -> Dict[str, object]:
        """Counter snapshot plus per-shard residency."""
        shards = sorted(self._shards_seen)
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "migrations": self.migrations,
            "fabric_hits": self.fabric_hits,
            "fabric_misses": self.fabric_misses,
            "shard_budget_bytes": self.shard_budget_bytes,
            "resident_bytes": {shard: self.resident_bytes(shard) for shard in shards},
            "resident_entries": {
                shard: self._store.stats(self._namespace(shard))["entries"]
                for shard in shards
            },
        }
