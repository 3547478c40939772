"""Homes for the state that is not pure.

* :class:`~repro.store.lru.InProcessLRU` — per-process, per-namespace
  bounded LRU dicts with uniform stats: the parameter caches and the
  K/V cache's per-shard stores;
* :class:`~repro.store.filestore.FileStore` — on-disk, lock-guarded,
  one file per key, shareable between processes (pickle or JSON
  serialization): where traffic traces persist.

Pure values — GEMM / MHP plans, CPWL approximators — are memoised
where they are defined instead.  See ``docs/architecture.md`` ("The
cache fabric") for the namespace map.
"""

from repro.store.filestore import FileStore, StoreLockTimeout
from repro.store.lru import MISSING, InProcessLRU

__all__ = ["MISSING", "StoreLockTimeout", "InProcessLRU", "FileStore"]
