"""Unified cache fabric: one store interface for state that is not pure.

:class:`~repro.store.base.CacheStore` is the contract (namespaced
get/put/evict under entry/byte budgets with uniform stats), with two
implementations:

* :class:`~repro.store.lru.InProcessLRU` — the default; per-process
  bounded LRU dicts, bit-identical to the historical private caches;
* :class:`~repro.store.filestore.FileStore` — on-disk, lock-guarded,
  shareable between worker processes (pickle or JSON serialization).

The process-global default store (:func:`~repro.store.base.get_store`
/ :func:`~repro.store.base.set_store`) holds what the persistence
functions save when given no store: traffic traces, tuning fronts and
calibration snapshots, each namespace sized by the budget it declares
once with :func:`~repro.store.base.register_namespace`.  Pure values —
GEMM / MHP plans, CPWL approximators — are memoised where they are
defined instead.  See ``docs/architecture.md`` ("The cache fabric") for
the namespace map.
"""

from repro.store.base import (
    MISSING,
    CacheStore,
    NamespaceLimit,
    StoreLockTimeout,
    get_store,
    namespace_default,
    register_namespace,
    set_store,
)
from repro.store.filestore import FileStore
from repro.store.lru import InProcessLRU

__all__ = [
    "MISSING",
    "CacheStore",
    "NamespaceLimit",
    "StoreLockTimeout",
    "get_store",
    "set_store",
    "register_namespace",
    "namespace_default",
    "InProcessLRU",
    "FileStore",
]
