"""Unified cache fabric: one store interface across every reuse site.

:class:`~repro.store.base.CacheStore` is the contract (namespaced
get/put/evict under entry/byte budgets with uniform stats), with three
implementations:

* :class:`~repro.store.lru.InProcessLRU` — the default; per-process
  bounded LRU dicts, bit-identical to the historical private caches;
* :class:`~repro.store.filestore.FileStore` — on-disk, lock-guarded,
  shareable between worker processes (pickle or JSON serialization);
* :class:`~repro.store.tiered.TieredStore` — a local tier over a
  shared fabric tier (read-through with promotion, write-through),
  degrading to local-only operation when the shared tier's lock times
  out (:class:`~repro.store.base.StoreLockTimeout`) so one wedged
  fabric lock never stalls a serving worker.

The process-global default store (:func:`~repro.store.base.get_store`
/ :func:`~repro.store.base.set_store`) backs the module-level cache
sites in :mod:`repro.core.nonlinear_ops`, :mod:`repro.systolic.gemm`
and :mod:`repro.systolic.mhp_dataflow`, each sized by the budget it
declares once with :func:`~repro.store.base.register_namespace`.  See
``docs/architecture.md`` ("The cache fabric") for the namespace map.
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
from repro.store.tiered import TieredStore

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
    "TieredStore",
]
