"""The home for the state that is not pure.

:class:`~repro.store.lru.InProcessLRU` is one per-process bounded LRU
dict: each parameter cache owns one, and the K/V cache one per shard.
The owner counts its own hits and misses; the store counts evictions
and rejected entries.  Nothing here outlives the process; a traffic
trace persists as one JSON file
(:func:`repro.autotune.trace.save_trace`).

Pure values — GEMM / MHP plans, CPWL approximators — are memoised
where they are defined instead.  See ``docs/architecture.md`` ("The
cache fabric") for the caches and their report keys.
"""

from repro.store.lru import MISSING, InProcessLRU

__all__ = ["MISSING", "InProcessLRU"]
