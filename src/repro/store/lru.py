"""The in-process backend: per-namespace bounded LRU dicts.

One :class:`InProcessLRU` holds any number of namespaces, each an
``OrderedDict`` evicting least-recently-used entries under the
namespace's entry and/or byte budget.  Values are stored by reference —
zero copies, identity-preserving — so a parameter-cache hit returns the
same frozen array.

The eviction policy replicates the historical caches exactly: a new
entry is rejected only when it alone exceeds the byte budget, an
existing key is replaced in place (old bytes released first), and LRU
entries evict until both budgets hold — the incoming entry, at MRU
position, is never the one evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple


#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


def _validate_limit(name: str, value: Optional[int]) -> Optional[int]:
    if value is None:
        return None
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


class _Namespace:
    """One namespace's entries, budget and counters."""

    __slots__ = (
        "entries", "max_entries", "max_bytes", "bytes",
        "hits", "misses", "insertions", "evictions", "rejections",
    )

    def __init__(self) -> None:
        # key -> (value, nbytes)
        self.entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self.max_entries: Optional[int] = None
        self.max_bytes: Optional[int] = None
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.rejections = 0

    def evict(self, incoming_entries: int, incoming_bytes: int) -> None:
        """Evict LRU entries until both budgets hold with
        ``incoming_entries`` entries of ``incoming_bytes`` about to land."""
        while self.entries and (
            (
                self.max_entries is not None
                and len(self.entries) + incoming_entries > self.max_entries
            )
            or (
                self.max_bytes is not None
                and self.bytes + incoming_bytes > self.max_bytes
            )
        ):
            _, (_, evicted_bytes) = self.entries.popitem(last=False)
            self.bytes -= evicted_bytes
            self.evictions += 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "entries": len(self.entries),
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }


class InProcessLRU:
    """Per-process store over per-namespace bounded ``OrderedDict`` LRUs.

    Namespaces partition one store into independent LRU domains: keys,
    budgets, eviction and counters of one namespace never affect
    another.  A namespace is unbounded until :meth:`set_limit` bounds it.
    """

    def __init__(self) -> None:
        self._namespaces: Dict[str, _Namespace] = {}

    def _ns(self, namespace: str) -> _Namespace:
        ns = self._namespaces.get(namespace)
        if ns is None:
            ns = self._namespaces[namespace] = _Namespace()
        return ns

    def get(self, namespace: str, key, default=None, touch: bool = True):
        """The cached value or ``default``; a hit refreshes LRU recency
        unless ``touch=False`` (a *peek*)."""
        ns = self._ns(namespace)
        entry = ns.entries.get(key)
        if entry is None:
            ns.misses += 1
            return default
        if touch:
            ns.entries.move_to_end(key)
        ns.hits += 1
        return entry[0]

    def put(self, namespace: str, key, value, nbytes: int = 0) -> bool:
        """Make ``key`` resident at MRU position, charging ``nbytes``;
        False (nothing evicted) when the entry alone exceeds the byte
        budget."""
        ns = self._ns(namespace)
        nbytes = int(nbytes)
        if ns.max_bytes is not None and nbytes > ns.max_bytes:
            ns.rejections += 1
            return False
        old = ns.entries.pop(key, None)
        if old is not None:
            ns.bytes -= old[1]
        ns.evict(incoming_entries=1, incoming_bytes=nbytes)
        ns.entries[key] = (value, nbytes)
        ns.bytes += nbytes
        ns.insertions += 1
        return True

    def contains(self, namespace: str, key) -> bool:
        """Residency check: no recency or counter effect."""
        return key in self._ns(namespace).entries

    def delete(self, namespace: str, key) -> bool:
        """Drop one entry; True when it was resident."""
        ns = self._ns(namespace)
        entry = ns.entries.pop(key, None)
        if entry is None:
            return False
        ns.bytes -= entry[1]
        return True

    def clear(self, namespace: str) -> None:
        """Drop every entry of ``namespace``; counters are kept."""
        ns = self._ns(namespace)
        ns.entries.clear()
        ns.bytes = 0

    def set_limit(
        self,
        namespace: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        """Bound ``namespace`` (``None``: unbounded on that axis);
        shrinking below occupancy evicts the LRU overflow immediately."""
        max_entries = _validate_limit("max_entries", max_entries)
        max_bytes = _validate_limit("max_bytes", max_bytes)
        ns = self._ns(namespace)
        ns.max_entries, ns.max_bytes = max_entries, max_bytes
        ns.evict(incoming_entries=0, incoming_bytes=0)

    def stats(self, namespace: Optional[str] = None) -> Dict[str, object]:
        """One namespace's counter dict, or ``{namespace: dict}`` for all."""
        if namespace is not None:
            return self._ns(namespace).as_dict()
        return {name: ns.as_dict() for name, ns in sorted(self._namespaces.items())}
