"""The default in-process backend: per-namespace bounded LRU dicts.

One :class:`InProcessLRU` holds any number of namespaces, each an
``OrderedDict`` evicting least-recently-used entries under the
namespace's :class:`~repro.store.base.NamespaceLimit`.  Values are
stored by reference — zero copies, identity-preserving — which is what
makes the cache sites *bit-identical* to their pre-store selves: a
parameter-cache hit returns the same frozen array.

The eviction policy replicates the historical caches exactly: a new
entry is rejected only when it alone exceeds the byte budget, an
existing key is replaced in place (old bytes released first), and LRU
entries evict until both the entry and byte budgets hold — the
incoming entry, at MRU position, is never the one evicted.  Version
stamps are not kept (:meth:`~repro.store.base.CacheStore.version_of`
answers ``None``): only a store shared between processes needs them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.store.base import (
    MISSING,
    CacheStore,
    NamespaceLimit,
    NamespaceStats,
    namespace_default,
)


class _Namespace:
    """One namespace's entries, budget and counters."""

    __slots__ = ("entries", "limit", "stats")

    def __init__(self, limit: NamespaceLimit) -> None:
        # key -> (value, nbytes)
        self.entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self.limit = limit
        self.stats = NamespaceStats()


class InProcessLRU(CacheStore):
    """Per-process store over per-namespace bounded ``OrderedDict`` LRUs."""

    def __init__(self) -> None:
        self._namespaces: Dict[str, _Namespace] = {}

    def _ns(self, namespace: str) -> _Namespace:
        ns = self._namespaces.get(namespace)
        if ns is None:
            ns = self._namespaces[namespace] = _Namespace(
                namespace_default(namespace)
            )
        return ns

    # -- core ------------------------------------------------------------
    def get(self, namespace: str, key, default=None, touch: bool = True):
        ns = self._ns(namespace)
        entry = ns.entries.get(key)
        if entry is None:
            ns.stats.misses += 1
            return default
        if touch:
            ns.entries.move_to_end(key)
        ns.stats.hits += 1
        return entry[0]

    def put(
        self,
        namespace: str,
        key,
        value,
        nbytes: int = 0,
        version: Optional[int] = None,
    ) -> bool:
        ns = self._ns(namespace)
        nbytes = int(nbytes)
        limit = ns.limit
        if limit.max_bytes is not None and nbytes > limit.max_bytes:
            ns.stats.rejections += 1
            return False
        old = ns.entries.pop(key, None)
        if old is not None:
            ns.stats.bytes -= old[1]
            ns.stats.entries -= 1
        self._evict_for(ns, incoming_bytes=nbytes)
        ns.entries[key] = (value, nbytes)
        ns.stats.bytes += nbytes
        ns.stats.entries += 1
        ns.stats.insertions += 1
        return True

    def _evict_for(self, ns: _Namespace, incoming_bytes: int) -> None:
        """Evict LRU entries until budgets hold with one entry of
        ``incoming_bytes`` about to land."""
        limit = ns.limit
        while ns.entries and (
            (
                limit.max_entries is not None
                and ns.stats.entries + 1 > limit.max_entries
            )
            or (
                limit.max_bytes is not None
                and ns.stats.bytes + incoming_bytes > limit.max_bytes
            )
        ):
            _, (_, evicted_bytes) = ns.entries.popitem(last=False)
            ns.stats.bytes -= evicted_bytes
            ns.stats.entries -= 1
            ns.stats.evictions += 1

    def contains(self, namespace: str, key) -> bool:
        return key in self._ns(namespace).entries

    def touch(self, namespace: str, key) -> None:
        ns = self._ns(namespace)
        if key in ns.entries:
            ns.entries.move_to_end(key)

    def delete(self, namespace: str, key) -> bool:
        ns = self._ns(namespace)
        entry = ns.entries.pop(key, None)
        if entry is None:
            return False
        ns.stats.bytes -= entry[1]
        ns.stats.entries -= 1
        return True

    def clear(self, namespace: Optional[str] = None) -> None:
        targets = (
            [self._ns(namespace)] if namespace is not None
            else list(self._namespaces.values())
        )
        for ns in targets:
            ns.entries.clear()
            ns.stats.entries = 0
            ns.stats.bytes = 0

    # -- enumeration -----------------------------------------------------
    def keys(self, namespace: str) -> List[object]:
        return list(self._ns(namespace).entries.keys())

    def values(self, namespace: str) -> List[object]:
        return [entry[0] for entry in self._ns(namespace).entries.values()]

    def nbytes_of(self, namespace: str, key) -> int:
        entry = self._ns(namespace).entries.get(key)
        return 0 if entry is None else entry[1]

    # -- budgets and stats ----------------------------------------------
    def set_limit(
        self,
        namespace: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        ns = self._ns(namespace)
        ns.limit = NamespaceLimit(max_entries=max_entries, max_bytes=max_bytes)
        # A shrink below current occupancy evicts immediately.
        limit = ns.limit
        while ns.entries and (
            (limit.max_entries is not None and ns.stats.entries > limit.max_entries)
            or (limit.max_bytes is not None and ns.stats.bytes > limit.max_bytes)
        ):
            _, (_, evicted_bytes) = ns.entries.popitem(last=False)
            ns.stats.bytes -= evicted_bytes
            ns.stats.entries -= 1
            ns.stats.evictions += 1

    def limit(self, namespace: str) -> NamespaceLimit:
        return self._ns(namespace).limit

    def stats(self, namespace: Optional[str] = None) -> Dict[str, object]:
        if namespace is not None:
            ns = self._ns(namespace)
            return ns.stats.as_dict(ns.limit)
        return {
            name: ns.stats.as_dict(ns.limit)
            for name, ns in sorted(self._namespaces.items())
        }

    def reset_stats(self, namespace: Optional[str] = None) -> None:
        targets = (
            [self._ns(namespace)] if namespace is not None
            else list(self._namespaces.values())
        )
        for ns in targets:
            ns.stats.reset_counters()
