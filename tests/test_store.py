"""Store suite: the one store and the sites that use it.

* the contract: values round-trip and a cached ``None`` is told apart
  from a miss through ``MISSING``;
* InProcessLRU (each parameter cache's store and each K/V cache shard's
  store): LRU order and recency — hits refresh, peeks
  (``touch=False``) don't, eviction takes the least-recently-used
  entry first — and budgets, fixed at construction: entry-count and
  byte budgets evict until both hold, an entry alone exceeding the byte
  budget is rejected, replacing a key releases its old bytes first.  The
  store counts evictions and rejections only; hits and misses are its
  owner's;
* the property suite replays random operation sequences against a
  reference OrderedDict model — the historical cache implementation —
  so InProcessLRU stays bit-identical to the pre-store caches.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import MISSING, InProcessLRU


@pytest.fixture(params=["lru"])
def make(request):
    """Builds a fresh :class:`InProcessLRU` (the one backend, by its id)."""
    return InProcessLRU


class TestContract:
    def test_get_put_roundtrip(self, make):
        store = make()
        assert store.get("k") is None
        assert store.get("k", default=42) == 42
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}

    def test_cached_none_distinguishable_via_sentinel(self, make):
        store = make()
        store.put("k", None)
        assert store.get("k", default=MISSING) is None
        assert store.get("absent", default=MISSING) is MISSING

    def test_lru_order_and_hit_refresh(self, make):
        store = make(max_entries=3)
        for key in ("a", "b", "c"):
            store.put(key, key.upper())
        store.get("a")  # hit refreshes recency: "b" is now LRU
        store.put("d", "D")
        assert [store.contains(key) for key in "abcd"] == [True, False, True, True]

    def test_peek_does_not_refresh(self, make):
        store = make(max_entries=2)
        for key in ("a", "b"):
            store.put(key, key)
        store.get("a", touch=False)  # "a" stays LRU
        store.put("c", "c")
        assert not store.contains("a")
        assert store.contains("b") and store.contains("c")

    def test_entry_budget_evicts_lru_first(self, make):
        store = make(max_entries=2)
        store.put("a", 1)
        store.put("b", 2)
        store.put("c", 3)
        assert not store.contains("a")
        assert store.get("b") == 2 and store.get("c") == 3

    def test_byte_budget_evicts_until_fit(self, make):
        store = make(max_bytes=100)
        store.put("a", "a", nbytes=40)
        store.put("b", "b", nbytes=40)
        store.put("c", "c", nbytes=40)  # evicts "a"
        assert not store.contains("a")
        stats = store.stats()
        assert stats["bytes"] == 80
        assert stats["evictions"] == 1

    def test_oversized_entry_rejected(self, make):
        store = make(max_bytes=100)
        store.put("small", 1, nbytes=60)
        assert not store.put("huge", 2, nbytes=101)
        assert not store.contains("huge")
        assert store.contains("small")  # nothing was evicted for it
        assert store.stats()["rejections"] == 1

    def test_replace_releases_old_bytes(self, make):
        store = make(max_bytes=100)
        store.put("a", 1, nbytes=80)
        store.put("a", 2, nbytes=90)  # would not fit alongside itself
        assert store.get("a") == 2
        stats = store.stats()
        assert stats["bytes"] == 90
        assert stats["evictions"] == 0

    def test_delete(self, make):
        store = make()
        store.put("a", 1, nbytes=10)
        store.put("b", 2, nbytes=10)
        assert store.delete("a")
        assert not store.delete("a")
        assert store.stats()["bytes"] == 10
        assert not store.contains("a") and store.contains("b")

    def test_stats_counters(self, make):
        store = make()
        """The store counts what its budgets decide, never a lookup: hits
        and misses are counted once, by the cache that owns the store."""
        store.put("a", 1)
        store.get("a")
        store.get("absent")
        store.get("a", touch=False)
        assert store.stats() == {
            "entries": 1, "bytes": 0, "evictions": 0, "rejections": 0,
            "max_entries": None, "max_bytes": None,
        }

    def test_limit_validation(self, make):
        with pytest.raises(ValueError):
            make(max_entries=0)
        with pytest.raises(ValueError):
            make(max_bytes=-1)
        stats = make(max_entries=2).stats()
        assert (stats["max_entries"], stats["max_bytes"]) == (2, None)


# ---------------------------------------------------------------------------
# Property test: the default backend is bit-identical to the historical
# OrderedDict caches.
# ---------------------------------------------------------------------------
class _ReferenceLRU:
    """The pre-store cache policy, verbatim: bounded OrderedDict."""

    def __init__(self, max_entries=None, max_bytes=None):
        self.entries = OrderedDict()  # key -> (value, nbytes)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.bytes = 0

    def get(self, key):
        if key not in self.entries:
            return None
        self.entries.move_to_end(key)
        return self.entries[key][0]

    def put(self, key, value, nbytes):
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return False
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]
        while self.entries and (
            (self.max_entries is not None and len(self.entries) + 1 > self.max_entries)
            or (self.max_bytes is not None and self.bytes + nbytes > self.max_bytes)
        ):
            _, (_, evicted) = self.entries.popitem(last=False)
            self.bytes -= evicted
        self.entries[key] = (value, nbytes)
        self.bytes += nbytes
        return True

    def delete(self, key):
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old[1]


_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=30),
        ),
        st.tuples(st.just("get"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=7)),
    ),
    max_size=60,
)


class TestLRUMatchesHistoricalCaches:
    @given(
        ops=_ops,
        max_entries=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        max_bytes=st.one_of(st.none(), st.integers(min_value=10, max_value=60)),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_op_sequences_bit_identical(self, ops, max_entries, max_bytes):
        store = InProcessLRU(max_entries=max_entries, max_bytes=max_bytes)
        reference = _ReferenceLRU(max_entries=max_entries, max_bytes=max_bytes)
        for op in ops:
            if op[0] == "put":
                _, key, nbytes = op
                assert store.put(key, key * 10, nbytes=nbytes) == (
                    reference.put(key, key * 10, nbytes)
                )
            elif op[0] == "get":
                _, key = op
                assert store.get(op[1]) == reference.get(key)
            else:
                reference.delete(op[1])
                store.delete(op[1])
            # LRU -> MRU order, read off the store's own OrderedDict.
            assert list(store._entries) == list(reference.entries)
            assert store.stats()["bytes"] == reference.bytes


# ---------------------------------------------------------------------------
# The refactored cache sites on the default backend
# ---------------------------------------------------------------------------
class TestRefactoredSites:
    def test_plan_cache_identity_preserved(self):
        from repro.systolic import SystolicConfig
        from repro.systolic.gemm import plan_gemm

        plan_gemm.cache_clear()
        config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        first = plan_gemm(config, 16, 16, 16)
        second = plan_gemm(config, 16, 16, 16)
        assert first is second  # zero-copy, by reference
        info = plan_gemm.cache_info()
        assert info.hits == 1 and info.currsize == 1
        plan_gemm.cache_clear()
        info = plan_gemm.cache_info()
        assert info.currsize == 0 and info.hits == 0
        assert plan_gemm(config, 16, 16, 16) is not first

    def test_approximator_cache_identity_preserved(self):
        from repro.core.nonlinear_ops import get_approximator

        get_approximator.cache_clear()
        first = get_approximator("gelu", 0.25)
        assert get_approximator("gelu", 0.25) is first
        assert get_approximator.cache_info().currsize == 1

    def test_param_cache_private_store(self):
        from repro.nn.executor import ParamCache

        cache = ParamCache(maxsize=2)
        stats = cache.stats()
        assert stats["max_entries"] == 2
        assert stats["entries"] == 0
        # The cache's own counts are the only ones: one miss, then a hit.
        weights = np.arange(4.0)
        assert cache.get(weights, "w", np.negative) is cache.get(weights, "w", np.negative)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)
