"""On-disk, lock-guarded backend shareable between worker processes.

Layout: one directory per namespace under the store root, one data
file per entry, plus an ``index.json`` per namespace holding the LRU
order (a monotonically increasing sequence number per entry — mtimes
are too coarse to order back-to-back operations) and each entry's
declared byte charge.  All mutation happens under an exclusive
``fcntl`` lock on the namespace's ``.lock`` file, so concurrent worker
processes interleave whole operations and never corrupt the index or
tear a data file; data files themselves are written to a temp name and
published with :func:`os.replace`, so a reader racing an eviction sees
either the old entry or none, never a partial pickle.

Keys are hashed (SHA-256 of ``repr(key)``) into file names, but
correctness never rests on the digest: the data file stores the
``(key, value)`` pair and a read verifies key equality, so a hash or
repr collision degrades to a miss (which is what lets the KV-prefix
cache key its fabric tier on exact token tuples with no check of its
own).

Serialization is ``pickle`` by default (plan schedules, prefix
payloads) or ``json`` (``serializer="json"``) for sites that already
speak the ``to_dict``/``from_dict`` idiom, like cost-model
calibration.  Hit/miss/insertion counters are per-process views;
occupancy (entries/bytes) is read from the shared index and is
therefore fleet-wide truth.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.store.base import (
    CacheStore,
    NamespaceLimit,
    NamespaceStats,
    StoreLockTimeout,
    namespace_default,
)

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_INDEX_NAME = "index.json"
_LOCK_NAME = ".lock"

#: What reading back an entry file that exists can raise: a torn or
#: truncated file, or a pickle naming a class this code no longer has.
_UNREADABLE = (
    pickle.UnpicklingError, json.JSONDecodeError, EOFError, KeyError,
    ValueError, TypeError, AttributeError, ModuleNotFoundError,
)


def _key_filename(key, suffix: str) -> str:
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
    return f"{digest}.{suffix}"


class FileStore(CacheStore):
    """Namespace directories of serialized entries under one root.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Point several worker
        processes at the same root and they share one cache fabric.
    serializer:
        ``"pickle"`` (default, arbitrary Python values) or ``"json"``
        (JSON-safe values only — the ``to_dict`` idiom).
    lock_timeout:
        Seconds a namespace-lock acquisition may wait before raising
        :class:`~repro.store.base.StoreLockTimeout` (``None`` blocks
        indefinitely — the historical behavior).  Bounded by default so
        a worker wedged while holding a fabric lock makes the others
        fail loudly instead of freezing them.

    **Corruption containment**: a data file that no longer
    deserializes (torn write survived a crash, external truncation,
    bit rot) is *quarantined* on read — removed from disk and from the
    index, counted under the namespace's ``corruptions`` stat — and
    the read degrades to a miss.  A corrupt entry can therefore cost
    at most one failed read fleet-wide; it can never wedge a namespace
    or serve garbage.
    """

    def __init__(
        self,
        root: str,
        serializer: str = "pickle",
        lock_timeout: Optional[float] = 10.0,
    ) -> None:
        if serializer not in ("pickle", "json"):
            raise ValueError(
                f"serializer must be 'pickle' or 'json', got {serializer!r}"
            )
        if lock_timeout is not None and lock_timeout <= 0:
            raise ValueError(
                f"lock_timeout must be positive or None, got {lock_timeout}"
            )
        self.root = os.path.abspath(str(root))
        self.serializer = serializer
        self.lock_timeout = lock_timeout
        self._suffix = "pkl" if serializer == "pickle" else "json"
        os.makedirs(self.root, exist_ok=True)
        self._limits: Dict[str, NamespaceLimit] = {}
        self._stats: Dict[str, NamespaceStats] = {}

    # -- paths and locking ----------------------------------------------
    def _ns_dir(self, namespace: str, create: bool = False) -> str:
        path = os.path.join(self.root, namespace)
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def _acquire(self, handle, namespace: str) -> None:
        """Take the namespace lock, bounded by ``lock_timeout``.

        Uses non-blocking attempts in a poll loop rather than a
        blocking ``flock`` so a holder that never releases cannot
        stall this process forever; ``InterruptedError`` (EINTR from a
        signal) retries immediately — a signal is not a timeout.
        """
        if self.lock_timeout is None:
            while True:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                    return
                except InterruptedError:  # pragma: no cover — signal race
                    continue
        deadline = time.monotonic() + self.lock_timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                return
            except InterruptedError:  # pragma: no cover — signal race
                continue
            except (BlockingIOError, PermissionError):
                if time.monotonic() >= deadline:
                    raise StoreLockTimeout(
                        f"namespace {namespace!r} under {self.root} still "
                        f"locked after {self.lock_timeout:.3f}s"
                    ) from None
                time.sleep(min(0.005, self.lock_timeout))

    @contextmanager
    def _locked(self, namespace: str):
        """Exclusive per-namespace lock spanning one whole operation."""
        ns_dir = self._ns_dir(namespace, create=True)
        lock_path = os.path.join(ns_dir, _LOCK_NAME)
        handle = open(lock_path, "a+")
        try:
            if fcntl is not None:
                self._acquire(handle, namespace)
            yield ns_dir
        finally:
            if fcntl is not None:
                # Unlocking an un-held handle is a harmless no-op, so
                # the timeout path needs no special casing here.
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def _pstats(self, namespace: str) -> NamespaceStats:
        stats = self._stats.get(namespace)
        if stats is None:
            stats = self._stats[namespace] = NamespaceStats()
        return stats

    # -- index -----------------------------------------------------------
    def _read_index(self, ns_dir: str) -> Dict[str, object]:
        path = os.path.join(ns_dir, _INDEX_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return {"seq": 0, "entries": {}}

    def _write_index(self, ns_dir: str, index: Dict[str, object]) -> None:
        path = os.path.join(ns_dir, _INDEX_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(index, handle)
        os.replace(tmp, path)

    # -- (de)serialization ----------------------------------------------
    def _dump(self, path: str, key, value) -> None:
        tmp = path + ".tmp"
        if self.serializer == "pickle":
            with open(tmp, "wb") as handle:
                pickle.dump((repr(key), value), handle)
        else:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump({"key": repr(key), "value": value}, handle)
        os.replace(tmp, path)

    def _read(self, path: str) -> Tuple[object, object]:
        """The stored ``(repr-key, value)`` pair of one entry file;
        raises ``FileNotFoundError`` or one of ``_UNREADABLE``."""
        if self.serializer == "pickle":
            with open(path, "rb") as handle:
                stored_key, value = pickle.load(handle)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            stored_key, value = payload["key"], payload["value"]
        return stored_key, value

    def _load(self, path: str, key) -> Tuple[str, object]:
        """(status, value): ``"hit"``, ``"miss"`` or ``"corrupt"``.

        A file that is absent or stores a *different* key (digest
        collision) is a verified miss; a file that exists but no
        longer deserializes is corrupt — the caller quarantines it.
        """
        try:
            stored_key, value = self._read(path)
        except FileNotFoundError:
            return "miss", None
        except _UNREADABLE:
            return "corrupt", None
        if stored_key != repr(key):
            # Digest collision: verified miss, never a wrong value.
            return "miss", None
        return "hit", value

    # -- eviction ---------------------------------------------------------
    def _limit(self, namespace: str) -> NamespaceLimit:
        return self._limits.get(namespace, namespace_default(namespace))

    def _evict_over_budget(
        self,
        namespace: str,
        ns_dir: str,
        index: Dict[str, object],
        incoming_bytes: int,
        incoming_entry: bool,
    ) -> None:
        limit = self._limit(namespace)
        entries: Dict[str, Dict[str, int]] = index["entries"]
        extra_entries = 1 if incoming_entry else 0

        def over() -> bool:
            total_bytes = sum(meta["nbytes"] for meta in entries.values())
            return bool(entries) and (
                (
                    limit.max_entries is not None
                    and len(entries) + extra_entries > limit.max_entries
                )
                or (
                    limit.max_bytes is not None
                    and total_bytes + incoming_bytes > limit.max_bytes
                )
            )

        while over():
            victim = min(entries, key=lambda name: entries[name]["seq"])
            entries.pop(victim)
            try:
                os.remove(os.path.join(ns_dir, victim))
            except FileNotFoundError:  # pragma: no cover - racing cleaner
                pass
            self._pstats(namespace).evictions += 1

    # -- core ------------------------------------------------------------
    def get(self, namespace: str, key, default=None, touch: bool = True):
        stats = self._pstats(namespace)
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            index = self._read_index(ns_dir)
            meta = index["entries"].get(fname)
            if meta is None:
                stats.misses += 1
                return default
            status, value = self._load(os.path.join(ns_dir, fname), key)
            if status == "corrupt":
                # Quarantine: drop the unreadable file and its index
                # entry so it costs at most this one failed read.
                index["entries"].pop(fname, None)
                try:
                    os.remove(os.path.join(ns_dir, fname))
                except FileNotFoundError:  # pragma: no cover - racing cleaner
                    pass
                self._write_index(ns_dir, index)
                stats.corruptions += 1
                stats.misses += 1
                return default
            if status != "hit":
                stats.misses += 1
                return default
            if touch:
                index["seq"] += 1
                meta["seq"] = index["seq"]
                self._write_index(ns_dir, index)
        stats.hits += 1
        return value

    def put(
        self,
        namespace: str,
        key,
        value,
        nbytes: int = 0,
        version: Optional[int] = None,
    ) -> bool:
        stats = self._pstats(namespace)
        nbytes = int(nbytes)
        limit = self._limit(namespace)
        if limit.max_bytes is not None and nbytes > limit.max_bytes:
            stats.rejections += 1
            return False
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            index = self._read_index(ns_dir)
            index["entries"].pop(fname, None)  # replace releases old bytes
            self._evict_over_budget(
                namespace, ns_dir, index, incoming_bytes=nbytes, incoming_entry=True
            )
            self._dump(os.path.join(ns_dir, fname), key, value)
            index["seq"] += 1
            meta = {"nbytes": nbytes, "seq": index["seq"]}
            if version is not None:
                meta["version"] = int(version)
            index["entries"][fname] = meta
            self._write_index(ns_dir, index)
        stats.insertions += 1
        return True

    def version_of(self, namespace: str, key) -> Optional[int]:
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            meta = self._read_index(ns_dir)["entries"].get(fname)
        # Pre-versioning indexes have no "version" field: unversioned.
        return None if meta is None else meta.get("version")

    def contains(self, namespace: str, key) -> bool:
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            return fname in self._read_index(ns_dir)["entries"]

    def touch(self, namespace: str, key) -> None:
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            index = self._read_index(ns_dir)
            meta = index["entries"].get(fname)
            if meta is not None:
                index["seq"] += 1
                meta["seq"] = index["seq"]
                self._write_index(ns_dir, index)

    def delete(self, namespace: str, key) -> bool:
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            index = self._read_index(ns_dir)
            if index["entries"].pop(fname, None) is None:
                return False
            try:
                os.remove(os.path.join(ns_dir, fname))
            except FileNotFoundError:  # pragma: no cover - racing cleaner
                pass
            self._write_index(ns_dir, index)
        return True

    def clear(self, namespace: Optional[str] = None) -> None:
        namespaces = [namespace] if namespace is not None else self._list_namespaces()
        for name in namespaces:
            with self._locked(name) as ns_dir:
                index = self._read_index(ns_dir)
                for fname in index["entries"]:
                    try:
                        os.remove(os.path.join(ns_dir, fname))
                    except FileNotFoundError:  # pragma: no cover
                        pass
                self._write_index(ns_dir, {"seq": index["seq"], "entries": {}})

    def _list_namespaces(self) -> List[str]:
        try:
            return sorted(
                name
                for name in os.listdir(self.root)
                if os.path.isdir(os.path.join(self.root, name))
            )
        except FileNotFoundError:  # pragma: no cover - root removed externally
            return []

    # -- enumeration -----------------------------------------------------
    def _sorted_entries(self, ns_dir: str) -> List[Tuple[str, Dict[str, int]]]:
        index = self._read_index(ns_dir)
        return sorted(index["entries"].items(), key=lambda item: item[1]["seq"])

    def keys(self, namespace: str) -> List[object]:
        """Resident keys in LRU → MRU order.

        Keys are stored as ``repr`` strings (hash preimages), so this
        returns the repr forms — sufficient for introspection; values
        round-trip exactly via :meth:`values`.
        """
        result = []
        with self._locked(namespace) as ns_dir:
            for fname, _ in self._sorted_entries(ns_dir):
                found, _value = self._load_any(os.path.join(ns_dir, fname))
                if found:
                    result.append(_value[0])
        return result

    def values(self, namespace: str) -> List[object]:
        result = []
        with self._locked(namespace) as ns_dir:
            for fname, _ in self._sorted_entries(ns_dir):
                found, payload = self._load_any(os.path.join(ns_dir, fname))
                if found:
                    result.append(payload[1])
        return result

    def _load_any(self, path: str) -> Tuple[bool, Tuple[object, object]]:
        """Load (repr-key, value) without a key to verify against;
        an entry :meth:`get` would quarantine is skipped."""
        try:
            return True, self._read(path)
        except (FileNotFoundError, *_UNREADABLE):
            return False, (None, None)

    def nbytes_of(self, namespace: str, key) -> int:
        fname = _key_filename(key, self._suffix)
        with self._locked(namespace) as ns_dir:
            meta = self._read_index(ns_dir)["entries"].get(fname)
        return 0 if meta is None else int(meta["nbytes"])

    # -- budgets and stats ----------------------------------------------
    def set_limit(
        self,
        namespace: str,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self._limits[namespace] = NamespaceLimit(
            max_entries=max_entries, max_bytes=max_bytes
        )
        with self._locked(namespace) as ns_dir:
            index = self._read_index(ns_dir)
            self._evict_over_budget(
                namespace, ns_dir, index, incoming_bytes=0, incoming_entry=False
            )
            self._write_index(ns_dir, index)

    def limit(self, namespace: str) -> NamespaceLimit:
        return self._limit(namespace)

    def stats(self, namespace: Optional[str] = None) -> Dict[str, object]:
        if namespace is None:
            names = sorted(set(self._list_namespaces()) | set(self._stats))
            return {name: self.stats(name) for name in names}
        stats = self._pstats(namespace)
        with self._locked(namespace) as ns_dir:
            entries = self._read_index(ns_dir)["entries"]
            stats.entries = len(entries)
            stats.bytes = sum(meta["nbytes"] for meta in entries.values())
        return stats.as_dict(self._limit(namespace))

    def reset_stats(self, namespace: Optional[str] = None) -> None:
        targets = [namespace] if namespace is not None else list(self._stats)
        for name in targets:
            self._pstats(name).reset_counters()
