"""The cache-store contract the stateful reuse sites route through.

Quantized parameter derivations, K/V prefix payloads, cost-model
calibration, traffic traces and tuning fronts each need a bounded,
inspectable and sometimes shared home.  :class:`CacheStore` is the one
interface they share (pure values — GEMM / MHP plans, CPWL
approximators — are memoised where they are defined instead):

* **namespaces** partition one store into independent LRU domains
  (``"serving.radix.shard0"``, ``"nn.params"``, ...); keys
  never collide across namespaces and budgets apply per namespace;
* **budgets** bound each namespace by entry count and/or bytes
  (:class:`NamespaceLimit`); inserting evicts least-recently-used
  entries until the budget holds, and an entry alone exceeding a byte
  budget is rejected outright — the exact policy the historical caches
  implemented, pinned bit-identical by the contract suite;
* **stats** are uniform (:class:`NamespaceStats`): occupancy, bytes,
  hits, misses, insertions, evictions, rejections per namespace, so a
  :class:`~repro.serving.report.ServingReport` can surface one
  ``cache_section()`` across every reuse layer.

Two backends ship: :class:`~repro.store.lru.InProcessLRU` (the default;
per-process, zero-copy, bit-identical to the pre-store caches) and
:class:`~repro.store.filestore.FileStore` (on-disk, lock-guarded,
shareable between worker processes — the fleet's fabric).

A process-global default store (:func:`get_store` / :func:`set_store`)
is where the persistence functions save when given no store; each
namespace's owner sizes it once, at import, with
:func:`register_namespace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


class StoreLockTimeout(TimeoutError):
    """A bounded lock acquisition on a shared store gave up.

    Raised by :class:`~repro.store.filestore.FileStore` when another
    process holds a namespace lock past the store's ``lock_timeout``, so
    one wedged fabric lock fails a caller instead of stalling it
    indefinitely.
    """


def _validate_limit(name: str, value: Optional[int]) -> Optional[int]:
    if value is None:
        return None
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class NamespaceLimit:
    """Eviction budget of one namespace: entry count and/or bytes.

    ``None`` means unbounded on that axis.  Both bounds may be active
    at once; eviction runs until *both* hold.
    """

    max_entries: Optional[int] = None
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "max_entries", _validate_limit("max_entries", self.max_entries)
        )
        object.__setattr__(
            self, "max_bytes", _validate_limit("max_bytes", self.max_bytes)
        )


class NamespaceStats:
    """Mutable counter block of one namespace (uniform across backends)."""

    __slots__ = (
        "entries",
        "bytes",
        "hits",
        "misses",
        "insertions",
        "evictions",
        "rejections",
        "corruptions",
    )

    def __init__(self) -> None:
        self.entries = 0
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.corruptions = 0

    def reset_counters(self) -> None:
        """Zero the event counters; occupancy (entries/bytes) is kept."""
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0
        self.corruptions = 0

    def as_dict(self, limit: NamespaceLimit) -> Dict[str, object]:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "corruptions": self.corruptions,
            "max_entries": limit.max_entries,
            "max_bytes": limit.max_bytes,
        }


# ---------------------------------------------------------------------------
# Namespace defaults: cache sites declare their historical capacities
# once, at import, and every store instance resolves them lazily.
# ---------------------------------------------------------------------------
_NAMESPACE_DEFAULTS: Dict[str, NamespaceLimit] = {}


def register_namespace(
    namespace: str,
    max_entries: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> NamespaceLimit:
    """Declare the default budget of ``namespace`` (idempotent).

    Cache sites call this at import so any store — including a fresh
    one installed by :func:`set_store` — enforces the same historical
    capacity without per-instance configuration.  An explicit
    :meth:`CacheStore.set_limit` on a store instance overrides the
    registered default for that instance only.
    """
    limit = NamespaceLimit(max_entries=max_entries, max_bytes=max_bytes)
    _NAMESPACE_DEFAULTS[namespace] = limit
    return limit


def namespace_default(namespace: str) -> NamespaceLimit:
    """The registered default budget of ``namespace`` (unbounded if none)."""
    return _NAMESPACE_DEFAULTS.get(namespace, NamespaceLimit())


class CacheStore:
    """Get/put/evict over namespaced keys under per-namespace budgets.

    The contract (pinned by ``tests/test_store.py`` for every backend):

    * :meth:`get` returns the cached value or ``default``; a hit
      refreshes LRU recency unless ``touch=False`` (a *peek*, used by
      callers that verify content before granting reuse).
    * :meth:`put` makes ``(namespace, key)`` resident, charging
      ``nbytes`` against the namespace's byte budget; least-recently
      -used entries evict until the budget holds, an entry alone
      exceeding the byte budget is rejected (``False``), and
      re-putting an existing key replaces it (old bytes released
      first) at most-recently-used position.
    * *Mutable* entries may carry a **version stamp** (``put(...,
      version=N)``, a writer-monotonic integer); a backend that keeps
      it (:class:`~repro.store.filestore.FileStore`) answers
      :meth:`version_of` with it, and ``None`` for unversioned entries.
    * :meth:`contains` / :meth:`keys` / :meth:`values` are pure reads:
      no recency effect, no counter effect.
    * Namespaces are fully isolated: keys, budgets, eviction and stats
      of one namespace never affect another.
    """

    # -- core ------------------------------------------------------------
    def get(self, namespace: str, key, default=None, touch: bool = True):
        raise NotImplementedError

    def put(
        self,
        namespace: str,
        key,
        value,
        nbytes: int = 0,
        version: Optional[int] = None,
    ) -> bool:
        raise NotImplementedError

    def version_of(self, namespace: str, key) -> Optional[int]:
        """Version stamp of a resident entry (``None`` when absent or
        unversioned).  Backends that do not track versions may rely on
        this default."""
        return None

    def contains(self, namespace: str, key) -> bool:
        raise NotImplementedError

    def touch(self, namespace: str, key) -> None:
        """Refresh ``key``'s recency (no-op when absent, no counters)."""
        raise NotImplementedError

    def delete(self, namespace: str, key) -> bool:
        """Drop one entry; True when it was resident."""
        raise NotImplementedError

    def clear(self, namespace: Optional[str] = None) -> None:
        """Drop every entry (of one namespace, or all); counters kept."""
        raise NotImplementedError

    # -- enumeration -----------------------------------------------------
    def keys(self, namespace: str) -> List[object]:
        """Resident keys in LRU → MRU order."""
        raise NotImplementedError

    def values(self, namespace: str) -> List[object]:
        """Resident values in LRU → MRU order."""
        raise NotImplementedError

    def nbytes_of(self, namespace: str, key) -> int:
        """Declared byte charge of a resident entry (0 when absent)."""
        raise NotImplementedError

    # -- budgets and stats ----------------------------------------------
    def set_limit(
        self,
        namespace: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        """Bound ``namespace``; shrinking evicts LRU overflow immediately."""
        raise NotImplementedError

    def limit(self, namespace: str) -> NamespaceLimit:
        """The namespace's effective budget (instance override or default)."""
        raise NotImplementedError

    def stats(self, namespace: Optional[str] = None) -> Dict[str, object]:
        """One namespace's counter dict, or ``{namespace: dict}`` for all."""
        raise NotImplementedError

    def reset_stats(self, namespace: Optional[str] = None) -> None:
        """Zero event counters (occupancy is kept)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The process-global default store.
# ---------------------------------------------------------------------------
_GLOBAL_STORE: Optional[CacheStore] = None


def get_store() -> CacheStore:
    """The process-global store the persistence functions default to.

    Defaults to a fresh :class:`~repro.store.lru.InProcessLRU` on first
    use.  :func:`set_store` swaps in a different backend (e.g. a shared
    :class:`~repro.store.filestore.FileStore`).
    """
    global _GLOBAL_STORE
    if _GLOBAL_STORE is None:
        from repro.store.lru import InProcessLRU

        _GLOBAL_STORE = InProcessLRU()
    return _GLOBAL_STORE


def set_store(store: Optional[CacheStore]) -> CacheStore:
    """Install ``store`` as the process-global store (None → fresh default).

    Returns the store now in effect.  Registered namespace defaults
    apply to the new store automatically (they are resolved lazily),
    so capacities survive the swap; entries do not migrate.
    """
    global _GLOBAL_STORE
    _GLOBAL_STORE = store
    return get_store()
