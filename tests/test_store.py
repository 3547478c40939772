"""Store suite: the two backends and the sites that use them.

* both backends: values round-trip, a cached ``None`` is told apart
  from a miss through ``MISSING``, and namespaces never share keys;
* InProcessLRU (the parameter caches and the K/V cache's shard
  stores): LRU order and recency — hits refresh, peeks
  (``touch=False``) don't, eviction takes the least-recently-used
  entry first — and budgets: entry-count and byte budgets evict until
  both hold, an entry alone exceeding the byte budget is rejected,
  replacing a key releases its old bytes first, budgets and counters
  are per namespace;
* FileStore (where traces and fronts persist, one file per key): values round-trip
  bit-exactly through both serializers, concurrent writer processes
  publish every entry whole, a filename collision degrades to a
  verified miss, a held lock times out, and an unreadable entry is
  quarantined as a miss;
* the property suite replays random operation sequences against a
  reference OrderedDict model — the historical cache implementation —
  so InProcessLRU stays bit-identical to the pre-store caches.
"""

import multiprocessing
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import MISSING, FileStore, InProcessLRU, StoreLockTimeout

NS = "test.namespace"
OTHER = "test.other"


@pytest.fixture(params=["lru", "file"])
def store(request, tmp_path):
    """A backend: every test runs on each one it names (both by default)."""
    if request.param == "lru":
        return InProcessLRU()
    return FileStore(str(tmp_path / "store"))


#: Runs a contract test on the in-process backend only: budgets, LRU
#: order, deletion and counters are InProcessLRU's alone.
lru_only = pytest.mark.parametrize("store", ["lru"], indirect=True)


class TestContract:
    def test_get_put_roundtrip(self, store):
        assert store.get(NS, "k") is None
        assert store.get(NS, "k", default=42) == 42
        store.put(NS, "k", {"v": 1})
        assert store.get(NS, "k") == {"v": 1}

    def test_cached_none_distinguishable_via_sentinel(self, store):
        store.put(NS, "k", None)
        assert store.get(NS, "k", default=MISSING) is None
        assert store.get(NS, "absent", default=MISSING) is MISSING

    def test_namespace_isolation(self, store):
        store.put(NS, "k", "ns")
        store.put(OTHER, "k", "other")
        assert store.get(NS, "k") == "ns"
        assert store.get(OTHER, "k") == "other"

    @lru_only
    def test_budgets_and_counters_are_per_namespace(self, store):
        store.set_limit(NS, max_entries=1)
        store.put(NS, "k", "ns")
        store.put(OTHER, "k", "other")
        store.put(NS, "k2", "ns2")  # evicts within NS only
        assert store.get(OTHER, "k") == "other"
        assert store.stats(OTHER)["entries"] == 1
        assert store.stats(NS)["entries"] == 1
        assert store.stats(NS)["evictions"] == 1
        assert store.stats(OTHER)["evictions"] == 0

    @lru_only
    def test_lru_order_and_hit_refresh(self, store):
        store.set_limit(NS, max_entries=3)
        for key in ("a", "b", "c"):
            store.put(NS, key, key.upper())
        store.get(NS, "a")  # hit refreshes recency: "b" is now LRU
        store.put(NS, "d", "D")
        assert [store.contains(NS, key) for key in "abcd"] == [True, False, True, True]

    @lru_only
    def test_peek_does_not_refresh(self, store):
        store.set_limit(NS, max_entries=2)
        for key in ("a", "b"):
            store.put(NS, key, key)
        store.get(NS, "a", touch=False)  # "a" stays LRU
        store.put(NS, "c", "c")
        assert not store.contains(NS, "a")
        assert store.contains(NS, "b") and store.contains(NS, "c")

    @lru_only
    def test_entry_budget_evicts_lru_first(self, store):
        store.set_limit(NS, max_entries=2)
        store.put(NS, "a", 1)
        store.put(NS, "b", 2)
        store.put(NS, "c", 3)
        assert not store.contains(NS, "a")
        assert store.get(NS, "b") == 2 and store.get(NS, "c") == 3

    @lru_only
    def test_byte_budget_evicts_until_fit(self, store):
        store.set_limit(NS, max_bytes=100)
        store.put(NS, "a", "a", nbytes=40)
        store.put(NS, "b", "b", nbytes=40)
        store.put(NS, "c", "c", nbytes=40)  # evicts "a"
        assert not store.contains(NS, "a")
        stats = store.stats(NS)
        assert stats["bytes"] == 80
        assert stats["evictions"] == 1

    @lru_only
    def test_oversized_entry_rejected(self, store):
        store.set_limit(NS, max_bytes=100)
        store.put(NS, "small", 1, nbytes=60)
        assert not store.put(NS, "huge", 2, nbytes=101)
        assert not store.contains(NS, "huge")
        assert store.contains(NS, "small")  # nothing was evicted for it
        assert store.stats(NS)["rejections"] == 1

    @lru_only
    def test_replace_releases_old_bytes(self, store):
        store.set_limit(NS, max_bytes=100)
        store.put(NS, "a", 1, nbytes=80)
        store.put(NS, "a", 2, nbytes=90)  # would not fit alongside itself
        assert store.get(NS, "a") == 2
        stats = store.stats(NS)
        assert stats["bytes"] == 90
        assert stats["evictions"] == 0

    @lru_only
    def test_set_limit_shrink_evicts_immediately(self, store):
        for i in range(4):
            store.put(NS, i, i)
        store.set_limit(NS, max_entries=2)
        assert store.stats(NS)["entries"] == 2
        assert [store.contains(NS, i) for i in range(4)] == [False, False, True, True]

    @lru_only
    def test_delete(self, store):
        store.put(NS, "a", 1, nbytes=10)
        store.put(NS, "b", 2, nbytes=10)
        assert store.delete(NS, "a")
        assert not store.delete(NS, "a")
        assert store.stats(NS)["bytes"] == 10
        assert not store.contains(NS, "a") and store.contains(NS, "b")

    @lru_only
    def test_stats_counters(self, store):
        store.put(NS, "a", 1)
        store.get(NS, "a")
        store.get(NS, "absent")
        stats = store.stats(NS)
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["insertions"] == 1
        assert stats["entries"] == 1

    @lru_only
    def test_stats_all_namespaces(self, store):
        store.put(NS, "a", 1)
        store.put(OTHER, "b", 2)
        all_stats = store.stats()
        assert NS in all_stats and OTHER in all_stats
        assert all_stats[NS]["entries"] == 1

    @lru_only
    def test_limit_validation(self, store):
        with pytest.raises(ValueError):
            store.set_limit(NS, max_entries=0)
        with pytest.raises(ValueError):
            store.set_limit(NS, max_bytes=-1)
        assert store.stats(NS)["max_entries"] is None  # nothing half-applied


# ---------------------------------------------------------------------------
# FileStore specifics
# ---------------------------------------------------------------------------
def _hammer_filestore(args):
    """One writer process: insert a disjoint key range, read some back."""
    root, worker = args
    store = FileStore(root)
    for i in range(20):
        key = ("w", worker, i)
        store.put("shared.ns", key, {"worker": worker, "i": i})
    hits = sum(
        1
        for i in range(20)
        if store.get("shared.ns", ("w", worker, i)) is not None
    )
    return hits


def _data_files(ns_dir):
    return {p for p in ns_dir.iterdir() if p.suffix == ".pkl"}


class TestFileStore:
    def test_pickle_roundtrip_numpy(self, tmp_path):
        store = FileStore(str(tmp_path / "s"))
        value = {"arr": np.arange(12, dtype=np.int16).reshape(3, 4)}
        store.put(NS, ("k", 1), value)
        out = store.get(NS, ("k", 1))
        np.testing.assert_array_equal(out["arr"], value["arr"])
        assert out["arr"].dtype == np.int16

    def test_json_serializer_roundtrip(self, tmp_path):
        store = FileStore(str(tmp_path / "s"), serializer="json")
        store.put(NS, "snapshot", {"version": 1, "observations": [1, 2, 3]})
        assert store.get(NS, "snapshot") == {"version": 1, "observations": [1, 2, 3]}

    def test_bad_serializer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FileStore(str(tmp_path / "s"), serializer="yaml")

    def test_persistence_across_instances(self, tmp_path):
        root = str(tmp_path / "s")
        FileStore(root).put(NS, "k", [1, 2, 3])
        reopened = FileStore(root)
        assert reopened.get(NS, "k") == [1, 2, 3]
        reopened.put(NS, "k", [4])  # replaces in place: still one file
        assert FileStore(root).get(NS, "k") == [4]
        assert len(_data_files(tmp_path / "s" / NS)) == 1

    def test_filename_collision_is_verified_miss(self, tmp_path, monkeypatch):
        import repro.store.filestore as filestore_module

        store = FileStore(str(tmp_path / "s"))
        monkeypatch.setattr(
            filestore_module, "_key_filename", lambda key, suffix: f"same.{suffix}"
        )
        store.put(NS, "first", "value-one")
        # "second" maps to the same file but stores its own key; a get
        # for "first" now finds a mismatched stored key -> miss, never
        # the wrong value.
        store.put(NS, "second", "value-two")
        assert store.get(NS, "first") is None
        assert store.get(NS, "second") == "value-two"

    def test_concurrent_writers_keep_index_consistent(self, tmp_path):
        """The namespace directory is the index: after four writer
        processes, it holds exactly their 80 files, each whole."""
        root = str(tmp_path / "shared")
        FileStore(root)  # create the root
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            pytest.skip("fork start method unavailable")
        with ctx.Pool(4) as pool:
            hits = pool.map(_hammer_filestore, [(root, w) for w in range(4)])
        assert hits == [20, 20, 20, 20]
        assert len(_data_files(tmp_path / "shared" / "shared.ns")) == 80
        assert not list((tmp_path / "shared" / "shared.ns").glob("*.tmp"))
        store = FileStore(root)
        for worker in range(4):
            for i in range(20):
                value = store.get("shared.ns", ("w", worker, i))
                assert value == {"worker": worker, "i": i}

    def test_lock_timeout_must_be_positive_or_none(self, tmp_path):
        with pytest.raises(ValueError, match="lock_timeout"):
            FileStore(str(tmp_path / "s"), lock_timeout=0)
        with pytest.raises(ValueError, match="lock_timeout"):
            FileStore(str(tmp_path / "s"), lock_timeout=-1.0)
        assert FileStore(str(tmp_path / "s"), lock_timeout=None).lock_timeout is None

    def test_held_namespace_lock_raises_store_lock_timeout(self, tmp_path):
        import fcntl
        import os

        root = str(tmp_path / "s")
        store = FileStore(root, lock_timeout=0.05)
        store.put(NS, "k", 1)
        holder = open(os.path.join(root, NS, ".lock"), "a+")
        fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
        try:
            with pytest.raises(StoreLockTimeout, match=NS):
                store.get(NS, "k")
        finally:
            fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
            holder.close()
        # StoreLockTimeout is a TimeoutError so generic handlers apply,
        # and release unwedges the store without reopening it.
        assert issubclass(StoreLockTimeout, TimeoutError)
        assert store.get(NS, "k") == 1

    def test_corrupt_entry_quarantined_as_miss(self, tmp_path):
        store = FileStore(str(tmp_path / "s"))
        ns_dir = tmp_path / "s" / NS
        store.put(NS, "good", [1, 2])
        before = _data_files(ns_dir)
        store.put(NS, "bad", [3, 4])
        (bad_file,) = _data_files(ns_dir) - before
        bad_file.write_bytes(b"\x00not a pickle\x00")
        # Corrupt bytes load as a miss, and the entry is quarantined:
        # its file is removed.
        assert store.get(NS, "bad", default="fallback") == "fallback"
        assert not bad_file.exists()
        assert _data_files(ns_dir) == before
        assert store.get(NS, "good") == [1, 2]  # neighbours untouched
        # The slot is reusable after quarantine.
        store.put(NS, "bad", [5, 6])
        assert store.get(NS, "bad") == [5, 6]

    @pytest.mark.parametrize(
        "missing",
        [b"crepro.nn.executor\nNoSuchPayloadClass\n", b"cno_such_module\nPayload\n"],
        ids=["class-gone", "module-gone"],
    )
    def test_entry_of_a_deleted_class_is_a_miss_everywhere(self, tmp_path, missing):
        """A store outlives the code that wrote it: an entry whose
        pickle names a class (or module) this code no longer has must
        read as a quarantined miss — never raise."""
        store = FileStore(str(tmp_path / "s"))
        ns_dir = tmp_path / "s" / NS
        store.put(NS, "good", [1, 2])
        before = _data_files(ns_dir)
        store.put(NS, "gone", [3, 4])
        (gone_file,) = _data_files(ns_dir) - before
        # Protocol-0 pickle of (repr("gone"), <GLOBAL missing name>).
        gone_file.write_bytes(b"(V'gone'\n" + missing + b"t.")
        assert store.get(NS, "gone") is None
        assert not gone_file.exists()
        assert store.get(NS, "gone", default=MISSING) is MISSING
        assert store.get(NS, "good") == [1, 2]


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
        store = InProcessLRU()
        store.set_limit(NS, max_entries=max_entries, max_bytes=max_bytes)
        reference = _ReferenceLRU(max_entries=max_entries, max_bytes=max_bytes)
        for op in ops:
            if op[0] == "put":
                _, key, nbytes = op
                assert store.put(NS, key, key * 10, nbytes=nbytes) == (
                    reference.put(key, key * 10, nbytes)
                )
            elif op[0] == "get":
                _, key = op
                assert store.get(NS, op[1]) == reference.get(key)
            else:
                reference.delete(op[1])
                store.delete(NS, op[1])
            # LRU -> MRU order, read off the namespace's own OrderedDict.
            assert list(store._namespaces[NS].entries) == list(reference.entries)
            assert store.stats(NS)["bytes"] == reference.bytes


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
