"""On-disk, lock-guarded store shareable between worker processes.

Layout: one directory per namespace under the store root, one data
file per key.  There is no index: an entry is resident exactly when its
file exists.  A write goes to a temp name and is published with
:func:`os.replace`, so a reader sees the old value or the new one, never
a partial file, and a writer killed mid-write leaves at most an
unpublished ``.tmp`` file.  Every read and write holds an exclusive
``fcntl`` lock on the namespace's ``.lock`` file, so a quarantine (see
:class:`FileStore`) never removes a file another process just published.

Keys are hashed (SHA-256 of ``repr(key)``) into file names, but
correctness never rests on the digest: the data file stores the
``(repr(key), value)`` pair and a read verifies it, so a hash or repr
collision degrades to a miss, so a caller can key entries on exact
values with no check of its own.

Serialization is ``pickle`` by default (K/V payloads) or ``json``
(``serializer="json"``) for values that already speak the
``to_dict`` / ``from_dict`` idiom, like traffic traces.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from contextlib import contextmanager
from typing import Optional

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

_LOCK_NAME = ".lock"

#: What reading back an entry file that exists can raise: a torn or
#: truncated file, or a pickle naming a class this code no longer has.
_UNREADABLE = (
    pickle.UnpicklingError, json.JSONDecodeError, EOFError, KeyError,
    ValueError, TypeError, AttributeError, ModuleNotFoundError,
)


class StoreLockTimeout(TimeoutError):
    """A bounded lock acquisition on a shared store gave up.

    Raised by :class:`FileStore` when another process holds a namespace
    lock past the store's ``lock_timeout``, so one wedged store lock
    fails a caller instead of stalling it indefinitely.
    """


def _key_filename(key, suffix: str) -> str:
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:32]
    return f"{digest}.{suffix}"


class FileStore:
    """Namespace directories of serialized entries under one root.

    Parameters
    ----------
    root:
        Store directory (created if missing).  Several processes may
        open the same root and share its entries.
    serializer:
        ``"pickle"`` (default, arbitrary Python values) or ``"json"``
        (JSON-safe values only — the ``to_dict`` idiom).
    lock_timeout:
        Seconds a namespace-lock acquisition may wait before raising
        :class:`StoreLockTimeout` (``None`` blocks indefinitely).
        Bounded by default so a process wedged while holding a store
        lock makes the others fail loudly instead of freezing them.

    **Corruption containment**: a data file that no longer
    deserializes (torn write survived a crash, external truncation,
    bit rot, a pickle of a class since deleted) is *quarantined* on
    read — removed from disk — and the read degrades to a miss.  A
    corrupt entry can therefore cost at most one failed read
    fleet-wide; it can never wedge a namespace or serve garbage.
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

    # -- locking -----------------------------------------------------------
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
        ns_dir = os.path.join(self.root, namespace)
        os.makedirs(ns_dir, exist_ok=True)
        handle = open(os.path.join(ns_dir, _LOCK_NAME), "a+")
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

    # -- get / put ---------------------------------------------------------
    def get(self, namespace: str, key, default=None):
        """The value stored under ``key``, or ``default``.

        A missing file, or one that stores a *different* key (digest
        collision), is a verified miss; a file that exists but no
        longer deserializes is quarantined and read as a miss.
        """
        with self._locked(namespace) as ns_dir:
            path = os.path.join(ns_dir, _key_filename(key, self._suffix))
            try:
                if self.serializer == "pickle":
                    with open(path, "rb") as handle:
                        stored_key, value = pickle.load(handle)
                else:
                    with open(path, "r", encoding="utf-8") as handle:
                        payload = json.load(handle)
                    stored_key, value = payload["key"], payload["value"]
            except FileNotFoundError:
                return default
            except _UNREADABLE:
                os.remove(path)
                return default
        return value if stored_key == repr(key) else default

    def put(self, namespace: str, key, value) -> None:
        """Store ``value`` under ``key``, replacing any previous value."""
        with self._locked(namespace) as ns_dir:
            path = os.path.join(ns_dir, _key_filename(key, self._suffix))
            tmp = path + ".tmp"
            if self.serializer == "pickle":
                with open(tmp, "wb") as handle:
                    pickle.dump((repr(key), value), handle)
            else:
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump({"key": repr(key), "value": value}, handle)
            os.replace(tmp, path)
