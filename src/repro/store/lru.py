"""The in-process backend: one bounded LRU dict.

One :class:`InProcessLRU` is one ``OrderedDict`` evicting
least-recently-used entries under an entry and/or byte budget fixed at
construction.  Values are stored by reference — zero copies,
identity-preserving — so a parameter-cache hit returns the same frozen
array.  Each cache owns its stores and counts its own hits and misses:
the store counts only what it alone decides, evictions and rejected
entries.

The eviction policy replicates the historical caches exactly: a new
entry is rejected only when it alone exceeds the byte budget, an
existing key is replaced in place (old bytes released first), and LRU
entries evict until both budgets hold — the incoming entry, at MRU
position, is never the one evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.domains import POSITIVE_INT, optional

_LIMIT = optional(POSITIVE_INT)

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISSING = object()


class InProcessLRU:
    """Per-process bounded ``OrderedDict`` LRU (``None``: unbounded on
    that axis)."""

    def __init__(
        self, max_entries: Optional[int] = None, max_bytes: Optional[int] = None
    ) -> None:
        self.max_entries = _LIMIT("max_entries", max_entries)
        self.max_bytes = _LIMIT("max_bytes", max_bytes)
        # key -> (value, nbytes)
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self.bytes = 0
        self.evictions = 0
        self.rejections = 0

    def get(self, key, default=None, touch: bool = True):
        """The cached value or ``default``; a hit refreshes LRU recency
        unless ``touch=False`` (a *peek*)."""
        entry = self._entries.get(key)
        if entry is None:
            return default
        if touch:
            self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, nbytes: int = 0) -> bool:
        """Make ``key`` resident at MRU position, charging ``nbytes``;
        False (nothing evicted) when the entry alone exceeds the byte
        budget."""
        nbytes = int(nbytes)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            self.rejections += 1
            return False
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        while entries and (
            (self.max_entries is not None and len(entries) >= self.max_entries)
            or (self.max_bytes is not None and self.bytes + nbytes > self.max_bytes)
        ):
            _, (_, evicted_bytes) = entries.popitem(last=False)
            self.bytes -= evicted_bytes
            self.evictions += 1
        entries[key] = (value, nbytes)
        self.bytes += nbytes
        return True

    def contains(self, key) -> bool:
        """Residency check: no recency effect."""
        return key in self._entries

    def delete(self, key) -> bool:
        """Drop one entry; True when it was resident."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self.bytes -= entry[1]
        return True

    def stats(self) -> Dict[str, object]:
        """Occupancy, budgets and what the budgets cost."""
        return {
            "entries": len(self._entries),
            "bytes": self.bytes,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
        }
