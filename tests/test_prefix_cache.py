"""KV-prefix cache: bit-identity, exact cycle accounting, eviction
budgets, batch purity, placement affinity, and the serving-invariant
fuzz suite spanning scheduler + cluster + cache.

The two load-bearing claims of the subsystem are property-tested here
across random shapes, design points and request streams:

* a prefix **hit is bit-identical** to cold execution — same outputs,
  element for element, on every backend;
* a hit reduces ``total_cycles`` by **exactly** the closed-form cost of
  the skipped operations
  (:func:`repro.nn.workload.transformer_prefix_savings`).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nn.executor import ArrayBackend, CPWLBackend, KVState
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_prefix_savings
from repro.serving import (
    DEFAULT_TENANT,
    ClusterSpec,
    GenerationAdapter,
    InferenceEngine,
    PrefixAffinePlacement,
    RadixKVCache,
    TenantConfig,
    TransformerPrefixAdapter,
)
from repro.systolic import SystolicArray, SystolicConfig


# ---------------------------------------------------------------------------
# Shared strategies / helpers
# ---------------------------------------------------------------------------
def _tokens_with_prefix(rng, n, seq_len, prefix_len, vocab=16):
    """A request batch whose rows share the first ``prefix_len`` tokens."""
    prefix = rng.integers(0, vocab, size=prefix_len)
    suffix = rng.integers(0, vocab, size=(n, seq_len - prefix_len))
    return np.concatenate([np.broadcast_to(prefix, (n, prefix_len)), suffix], axis=1)


model_shapes = st.tuples(
    st.sampled_from([8, 10, 12]),        # seq_len
    st.sampled_from([(8, 2), (16, 4)]),  # (dim, heads)
    st.sampled_from([8, 16]),            # ff_dim
    st.integers(min_value=1, max_value=2),  # n_layers
)

design_points = st.sampled_from(
    [
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8),
        SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16),
    ]
)


def _cache(budget: int = 32 << 20) -> RadixKVCache:
    """The engine's one K/V cache, here serving a classifier."""
    return RadixKVCache(budget)


class _Payload:
    """Stub cache payload of a declared size (eviction tests)."""

    def __init__(self, nbytes: int, pos: int):
        self.nbytes = nbytes
        self.pos = pos


def _prompt(i: int) -> np.ndarray:
    """Four-token prompt number ``i`` (distinct ``i`` = distinct prompt)."""
    return np.array([i, 1, 2, 3], dtype=np.int64)


def _charge(tokens, nbytes: int) -> int:
    """Bytes a stub entry of ``nbytes`` is charged: never below its tokens."""
    return max(nbytes, tokens.nbytes)


def _insert(cache, shard, tokens, nbytes, tenant="t", model="m") -> bool:
    """Insert a stub entry charged ``_charge(tokens, nbytes)`` bytes."""
    payload = _Payload(_charge(tokens, nbytes) - tokens.nbytes, len(tokens))
    return cache.insert(shard, tenant, model, tokens, payload)


# ---------------------------------------------------------------------------
# Bit-identity + exact cycle accounting (the tentpole claims)
# ---------------------------------------------------------------------------
class TestPrefixEquivalence:
    @given(
        shape=model_shapes,
        config=design_points,
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        prefix_frac=st.floats(min_value=0.15, max_value=0.9),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hit_bit_identical_and_cycles_exact(
        self, shape, config, batch, seed, prefix_frac
    ):
        """Cold vs cached-prefix execution: identical bits, and the
        traced-cycle delta equals the closed form exactly."""
        seq_len, (dim, heads), ff_dim, n_layers = shape
        prefix_len = min(seq_len - 1, max(1, int(seq_len * prefix_frac)))
        rng = np.random.default_rng(seed)
        model = TinyBERT(
            vocab=16, seq_len=seq_len, dim=dim, heads=heads, ff_dim=ff_dim,
            n_layers=n_layers, causal=True, seed=seed % 17,
        )
        tokens = _tokens_with_prefix(rng, batch, seq_len, prefix_len)

        array = SystolicArray(config)
        backend = ArrayBackend(array, 0.25)
        model.infer(tokens[:1], backend)  # warm the CPWL table preload
        array.trace.clear()

        kv = KVState(n_layers)
        cold = model.infer(tokens, backend, kv=kv)
        cold_cycles = array.total_cycles
        array.trace.clear()

        warm = model.infer(tokens, backend, kv=kv.prefix(prefix_len))
        warm_cycles = array.total_cycles

        assert np.array_equal(cold, warm)
        saved = transformer_prefix_savings(
            batch, seq_len, prefix_len, dim, heads, ff_dim, n_layers, config
        )
        assert cold_cycles - warm_cycles == saved
        assert saved > 0

    @given(
        shape=model_shapes,
        batch=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_hit_bit_identical_on_cpwl_backend(self, shape, batch, seed):
        """Bit-identity holds on the untraced CPWL fast path too."""
        seq_len, (dim, heads), ff_dim, n_layers = shape
        prefix_len = seq_len // 2
        rng = np.random.default_rng(seed)
        model = TinyBERT(
            vocab=16, seq_len=seq_len, dim=dim, heads=heads, ff_dim=ff_dim,
            n_layers=n_layers, causal=True, seed=seed % 13,
        )
        tokens = _tokens_with_prefix(rng, batch, seq_len, prefix_len)
        backend = CPWLBackend(0.25)
        kv = KVState(n_layers)
        cold = model.infer(tokens, backend, kv=kv)
        warm = model.infer(tokens, backend, kv=kv.prefix(prefix_len))
        assert np.array_equal(cold, warm)

    def test_prefix_reuse_requires_causal_model(self):
        model = TinyBERT(seq_len=8, causal=False)
        with pytest.raises(ValueError, match="causal"):
            TransformerPrefixAdapter(model, 4)
        tokens, backend = np.zeros((1, 8), dtype=int), CPWLBackend(0.25)
        kv = KVState(model.n_layers)
        model.infer(tokens, backend, kv=kv)  # capture alone is harmless
        with pytest.raises(ValueError, match="causal"):
            model.infer(tokens, backend, kv=kv.prefix(4))


# ---------------------------------------------------------------------------
# The cache data structure: LRU under a byte budget
# ---------------------------------------------------------------------------
class TestEvictionBudget:
    @given(
        budget=st.integers(min_value=64, max_value=4096),
        sizes=st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_resident_bytes_never_exceed_budget(self, budget, sizes):
        """The eviction-budget invariant holds after every insert."""
        cache = _cache(budget)
        accepted = rejected = 0
        for i, size in enumerate(sizes):
            ok = _insert(cache, 0, _prompt(i), size)
            resident = cache.stats()[0]["bytes"]
            assert resident <= budget
            assert resident == sum(
                _charge(_prompt(j), sizes[j])
                for j in range(i + 1)
                if cache.resident_shards("t", "m", _prompt(j))
            )
            if ok:
                accepted += 1
                assert size <= budget
            else:
                rejected += 1
                assert size > budget
        assert cache.stats()[0]["insertions"] == accepted
        assert cache.stats()[0]["rejections"] == rejected

    def test_lru_eviction_order(self):
        cache = _cache(300)
        a, b, c, d = (_prompt(i) for i in range(4))
        for tokens in (a, b, c):
            assert _insert(cache, 0, tokens, 100)
        # Touch "a" so "b" is now least recently used.
        assert cache.lookup(0, "t", "m", a)[1] is not None
        _insert(cache, 0, d, 100)
        resident = [
            name
            for name, tokens in zip("abcd", (a, b, c, d))
            if cache.resident_shards("t", "m", tokens)
        ]
        assert resident == ["a", "c", "d"]
        assert cache.stats()[0]["evictions"] == 1
        # Evicted prompt is a miss now.
        assert cache.lookup(0, "t", "m", b) == (0, None)

    def test_shards_have_independent_budgets(self):
        cache = _cache(150)
        tokens = _prompt(0)
        assert _insert(cache, 0, tokens, 100)
        assert _insert(cache, 1, tokens, 100)
        assert [stats["evictions"] for stats in cache.stats().values()] == [0, 0]
        assert cache.resident_shards("t", "m", tokens) == (0, 1)

    def test_tenants_never_share_entries(self):
        cache = _cache()
        tokens = _prompt(0)
        _insert(cache, 0, tokens, 64, tenant="gold")
        assert cache.lookup(0, "free", "m", tokens) == (0, None)
        assert cache.lookup(0, "gold", "m", tokens)[0] == len(tokens)

    @pytest.mark.parametrize(
        "tokens",
        [
            np.arange(8, dtype=np.int32),
            np.arange(8, dtype=np.int64)[::-1],
            np.array([2**40, 0, 7], dtype=np.uint64),
            [3, 1, 4, 1, 5],
            (9, 2),
            [],
            7,
            np.int64(3),
            np.arange(6).reshape(2, 3),
            np.array([1.9, -2.7, 3.0]),  # truncates toward zero, like int()
            np.array([0.5, 15.999], dtype=np.float32),
            np.array([True, False]),
        ],
        ids=lambda t: f"{type(t).__name__}-{getattr(t, 'dtype', '')}-{np.shape(t)}",
    )
    def test_key_is_a_tuple_of_python_ints(self, tokens):
        """The cache key is the per-element ``int()`` of the flattened
        tokens, whatever the container or dtype — never numpy scalars,
        floats or bools."""
        expected = tuple(int(t) for t in np.asarray(tokens).reshape(-1))
        key = RadixKVCache._seq(tokens)
        assert key == expected
        assert all(type(element) is int for element in key)
        assert repr(key) == repr(expected)


# ---------------------------------------------------------------------------
# Engine integration: batch purity, affinity, report accounting
# ---------------------------------------------------------------------------
def _make_model(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1, seed=0):
    return TinyBERT(
        vocab=16, seq_len=seq_len, dim=dim, heads=heads, ff_dim=ff_dim,
        n_layers=n_layers, causal=True, seed=seed,
    )


def _make_engine(n_shards=2, cache=None, model=None, prefix_len=5, **kw):
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
    model = model or _make_model()
    engine = InferenceEngine(
        ClusterSpec.homogeneous(config, n_shards).build(),
        max_batch_size=kw.pop("max_batch_size", 4),
        flush_timeout=kw.pop("flush_timeout", 1e-4),
        radix_cache=cache,
        **kw,
    )
    adapter = (
        TransformerPrefixAdapter(model, prefix_len) if cache is not None else None
    )
    engine.register("bert", model, prefix_adapter=adapter)
    return engine, model


class TestEngineIntegration:
    def test_engine_outputs_bit_identical_with_cache(self):
        """The full serving path: cached engine == cache-less engine."""
        model = _make_model(seq_len=10, n_layers=2)
        rng = np.random.default_rng(3)
        tokens = _tokens_with_prefix(rng, 12, 10, 6)

        outputs = {}
        for label, cache in (("cold", None), ("cached", _cache())):
            engine, _ = _make_engine(cache=cache, model=model, prefix_len=6)
            ids = [engine.submit("bert", row) for row in tokens]
            report = engine.run()
            outputs[label] = [engine.result(i) for i in ids]
            if label == "cached":
                assert report.prefix_hits > 0
                assert report.prefix_misses >= 1
                assert report.prefix_cycles_saved > 0
        for a, b in zip(outputs["cold"], outputs["cached"]):
            assert np.array_equal(a, b)

    def test_hits_and_misses_never_mix_in_a_batch(self):
        """Batches are pure: one prompt per batch, whole-batch decisions."""
        model = _make_model()
        rng = np.random.default_rng(5)
        streams = [
            _tokens_with_prefix(rng, 6, 8, 5) for _ in range(3)  # 3 prompts
        ]
        engine, _ = _make_engine(cache=_cache(), model=model)
        ids = []
        # Interleave prompts so naive arrival-order batching would mix them.
        for i in range(6):
            for stream in streams:
                ids.append(engine.submit("bert", stream[i]))
        report = engine.run()
        assert len(report.completed) == 18
        by_batch = {}
        for record in report.completed:
            by_batch.setdefault((record.shard, record.batch_index), []).append(record)
        for records in by_batch.values():
            keys = {r.request.prefix_key for r in records}
            assert len(keys) == 1, "a batch mixed prompts"
        # Each prompt: first batch misses, later ones hit.
        assert report.prefix_misses == 3
        assert report.prefix_hits == len(report.prefix_events) - 3

    def test_affinity_prefers_holding_shard(self):
        """Once a prompt is resident, its batches stay on that shard."""
        model = _make_model()
        rng = np.random.default_rng(9)
        tokens = _tokens_with_prefix(rng, 16, 8, 5)
        engine, _ = _make_engine(n_shards=4, cache=_cache(), model=model)
        assert isinstance(engine.placement, PrefixAffinePlacement)
        for row in tokens:
            engine.submit("bert", row)
        report = engine.run()
        shards = {event.shard for event in report.prefix_events}
        assert len(shards) == 1, "prefix batches scattered across shards"
        hit_events = [e for e in report.prefix_events if e.hit]
        assert hit_events and all(e.cycles_saved > 0 for e in hit_events)

    def test_report_cycles_saved_is_exact(self):
        """report.prefix_cycles_saved equals the measured cold-vs-cached
        trace difference on a single shard (no preload skew)."""
        model = _make_model(seq_len=10, n_layers=2)
        rng = np.random.default_rng(11)
        tokens = _tokens_with_prefix(rng, 8, 10, 7)

        def run(cache):
            engine, _ = _make_engine(
                n_shards=1, cache=cache, model=model, prefix_len=7
            )
            # Warm the shard's approximator preload so both runs trace
            # exactly the same op set.
            backend = engine.dispatcher.backends[0]
            model.infer(tokens[:1], backend)
            engine.dispatcher.array_of(0).trace.clear()
            for row in tokens:
                engine.submit("bert", row)
            return engine.run()

        cold = run(None)
        cached = run(_cache())
        assert cached.prefix_hits == 1 and cached.prefix_misses == 1
        assert (
            cold.total_cycles - cached.total_cycles == cached.prefix_cycles_saved
        )

    def test_failed_submit_leaves_engine_state_untouched(self):
        """A submit rejected by prefix-key validation must not shift
        the arrival default of later submissions."""
        model = _make_model()
        engine, _ = _make_engine(cache=_cache(), model=model)
        rng = np.random.default_rng(17)
        engine.submit("bert", rng.integers(0, 16, size=8), arrival=1e-3)
        with pytest.raises(ValueError, match="token row"):
            engine.submit("bert", rng.integers(0, 16, size=5), arrival=2.0)
        # The implicit arrival must be the last *successful* one, not
        # the rejected request's 2.0.
        rid = engine.submit("bert", rng.integers(0, 16, size=8))
        report = engine.run()
        record = next(r for r in report.completed if r.request.request_id == rid)
        assert record.request.arrival == 1e-3
        assert engine.result(rid) is not None

    def test_prefix_adapter_requires_batchable(self):
        engine, model = _make_engine(cache=_cache())
        with pytest.raises(ValueError, match="batchable"):
            engine.register(
                "bad", model, batchable=False,
                prefix_adapter=TransformerPrefixAdapter(model, 5),
            )

    def test_register_rejects_adapter_wrapping_other_model(self):
        engine, model = _make_engine(cache=_cache())
        other = _make_model(seed=99)
        with pytest.raises(ValueError, match="different model"):
            engine.register(
                "bad", model, prefix_adapter=TransformerPrefixAdapter(other, 5)
            )

    def test_one_cache_serves_both_kinds_under_one_budget(self):
        """A classifier prompt and generation prompts share one cache and
        its per-shard budget: both kinds hit, an insert of one kind
        evicts the other's entry, and no output moves."""
        rng = np.random.default_rng(0)
        prompt, chat_prompt = rng.integers(0, 16, 5), rng.integers(0, 16, 4)
        rows = [np.concatenate([prompt, rng.integers(0, 16, 3)]) for _ in range(3)]
        follow_up = np.concatenate([chat_prompt, rng.integers(0, 16, 3)])

        class _Spy(RadixKVCache):
            """Records, per insert, whether the classifier prompt was
            resident before and after it."""

            def __init__(self, budget):
                super().__init__(budget)
                self.inserts = []

            def insert(self, shard, tenant, model, tokens, payload):
                before = self.resident_shards(DEFAULT_TENANT, "bert", prompt)
                accepted = super().insert(shard, tenant, model, tokens, payload)
                after = self.resident_shards(DEFAULT_TENANT, "bert", prompt)
                self.inserts.append((model, before, after))
                return accepted

        def serve(cache):
            # 1,500 bytes per shard: the classifier prompt's payload
            # (1,000) fits beside no generation payload (544-1,088).
            engine, _ = _make_engine(n_shards=1, cache=cache, flush_timeout=1e-5)
            chat = _make_model(seq_len=16, seed=1)
            engine.register("chat", chat, generation_adapter=GenerationAdapter(chat))
            ids = [engine.submit("bert", rows[0], 0.0), engine.submit("bert", rows[1], 1e-3)]
            ids.append(engine.submit_generation("chat", chat_prompt, 3, 2e-3))
            ids.append(engine.submit_generation("chat", follow_up, 2, 4e-3))
            ids.append(engine.submit("bert", rows[2], 6e-3))
            report = engine.run()
            return report, [engine.result(i) for i in ids]

        cache = _Spy(1500)
        report, outputs = serve(cache)
        hits = {(event.model, event.hit) for event in report.prefix_events}
        assert {("bert", True), ("chat", True)} <= hits
        assert ("chat", (0,), ()) in cache.inserts  # a prefill evicted the prompt
        assert cache.stats()[0]["evictions"] >= 2
        _, expected = serve(None)
        for got, want in zip(outputs, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Serving-invariant fuzz: scheduler x cluster x cache
# ---------------------------------------------------------------------------
class TestServingInvariantFuzz:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_requests=st.integers(min_value=1, max_value=30),
        n_prompts=st.integers(min_value=1, max_value=3),
        max_batch=st.integers(min_value=1, max_value=5),
        queue_cap=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        budget=st.sampled_from([256, 4096, 32 << 20]),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_streams_preserve_serving_invariants(
        self, seed, n_requests, n_prompts, max_batch, queue_cap, budget
    ):
        """Arbitrary multi-tenant request streams through the full stack
        (tenant scheduler + heterogeneous cluster + prefix cache) keep
        every serving invariant."""
        rng = np.random.default_rng(seed)
        seq_len, prefix_len = 8, 5
        model = _make_model(seq_len=seq_len)
        plain = _make_model(seq_len=seq_len, seed=1)
        cache = _cache(budget)
        pool = ClusterSpec.heterogeneous(
            [
                SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8),
                SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6),
            ]
        ).build()
        engine = InferenceEngine(
            pool,
            max_batch_size=max_batch,
            flush_timeout=1e-4,
            radix_cache=cache,
        )
        engine.register(
            "bert", model, prefix_adapter=TransformerPrefixAdapter(model, prefix_len)
        )
        engine.register("plain", plain)  # no prefix adapter: cold always
        engine.register_tenant("gold", weight=3.0, slo_latency=5e-3)
        engine.tenants.register(
            TenantConfig(tenant_id="free", weight=1.0, max_queue_depth=queue_cap)
        )
        prompts = [rng.integers(0, 16, size=prefix_len) for _ in range(n_prompts)]

        submitted = []
        arrival = 0.0
        for _ in range(n_requests):
            arrival += float(rng.choice([0.0, 0.0, 5e-5, 2e-4]))
            tenant = str(rng.choice(["gold", "free"]))
            if rng.random() < 0.75:
                prompt = prompts[rng.integers(0, n_prompts)]
                tokens = np.concatenate(
                    [prompt, rng.integers(0, 16, size=seq_len - prefix_len)]
                )
                rid = engine.submit("bert", tokens, arrival, tenant=tenant)
            else:
                tokens = rng.integers(0, 16, size=seq_len)
                rid = engine.submit("plain", tokens, arrival, tenant=tenant)
            submitted.append(rid)

        report = engine.run()

        # Conservation: every submitted request completed or shed, never both.
        completed_ids = {r.request.request_id for r in report.completed}
        shed_ids = {r.request.request_id for r in report.shed}
        assert completed_ids.isdisjoint(shed_ids)
        assert completed_ids | shed_ids == set(submitted)

        # No tenant or prompt mixing within any executed batch.
        by_batch = {}
        for record in report.completed:
            by_batch.setdefault((record.shard, record.batch_index), []).append(record)
        for records in by_batch.values():
            assert len({r.request.tenant for r in records}) == 1
            assert len({r.request.model for r in records}) == 1
            assert len({r.request.prefix_key for r in records}) == 1

        # Exact cycle attribution: per-tenant cycles sum to the total.
        assert sum(report.tenant_cycles.values()) == report.total_cycles

        # Prefix counters are consistent with the executed batches.
        prefix_batches = {
            (r.shard, r.batch_index)
            for r in report.completed
            if r.request.prefix_key is not None
        }
        assert len(report.prefix_events) == len(prefix_batches)
        assert report.prefix_hits + report.prefix_misses == len(report.prefix_events)
        for event in report.prefix_events:
            assert event.cycles_saved >= 0
            assert event.hit or event.cycles_saved == 0
        assert report.prefix_cycles_saved == sum(
            e.cycles_saved for e in report.prefix_events
        )

        # Eviction budget holds on every shard after the run.
        for stats in cache.stats().values():
            assert stats["bytes"] <= budget

        # Shed requests never produce results.
        for rid in shed_ids:
            with pytest.raises(KeyError):
                engine.result(rid)
