"""The home for the state that is not pure.

:class:`~repro.store.lru.InProcessLRU` holds per-process,
per-namespace bounded LRU dicts with uniform stats: the parameter
caches and the K/V cache's per-shard stores.  Nothing here outlives
the process; a traffic trace persists as one JSON file
(:func:`repro.autotune.trace.save_trace`).

Pure values — GEMM / MHP plans, CPWL approximators — are memoised
where they are defined instead.  See ``docs/architecture.md`` ("The
cache fabric") for the namespace map.
"""

from repro.store.lru import MISSING, InProcessLRU

__all__ = ["MISSING", "InProcessLRU"]
