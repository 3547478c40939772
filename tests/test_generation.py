"""Generation test suite: step-wise decode pinned bit-identical.

The load-bearing contract of the continuous-batching decode path, in
three tiers:

1. **Bit-identity** (property-based): greedy generation via
   ``prefill`` + ``decode_step`` produces exactly the tokens of
   recomputing the full sequence from scratch at every step, across
   random model shapes, depths, prompt lengths and batch compositions
   — suffix-length-1 inference is not an approximation, because causal
   masking makes every cached K/V row suffix-independent and the
   fixed-point pipeline is exact per row.
2. **Cycle accounting**: every prefill and decode iteration's traced
   cycles equal the closed forms in :mod:`repro.nn.workload`, step by
   step, warm and cold.
3. **Continuous batching** (engine-level fuzz): randomized
   arrival/retirement schedules keep the scheduler honest — decode
   batches never mix tenants or positions, prefill batches mix
   distinct prompts of one length (radix cache on or off, cold, warm
   and half-cached) without changing a single token, per-tenant cycles
   sum exactly to the total, and every admitted request completes
   bit-identically.

Plus unit/property coverage of the radix prefix index and the
tenant-scoped, byte-budgeted :class:`~repro.serving.RadixKVCache`.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.executor import ArrayBackend, CPWLBackend, KVState
from repro.nn.models import TinyBERT
from repro.nn.workload import (
    transformer_decode_step_cycles,
    transformer_prefill_cycles,
)
from repro.serving import (
    ClusterDispatcher,
    GenerationAdapter,
    GenerationRequest,
    InferenceEngine,
    RadixKVCache,
)
from repro.systolic import SystolicArray, SystolicConfig

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
GRANULARITY = 0.25

# One model per shape, shared across hypothesis examples: construction
# dominates runtime and the weights are deterministic per shape anyway.
_MODELS = {}


def _model(dim=8, heads=2, ff_dim=16, n_layers=2, seq_len=12, vocab=16):
    key = (dim, heads, ff_dim, n_layers, seq_len, vocab)
    if key not in _MODELS:
        _MODELS[key] = TinyBERT(
            vocab=vocab, seq_len=seq_len, dim=dim, heads=heads,
            ff_dim=ff_dim, n_layers=n_layers, causal=True, seed=0,
        )
    return _MODELS[key]


def _backend():
    return CPWLBackend(granularity=GRANULARITY)


def _prompts(rng, batch, length, vocab=16):
    return rng.integers(0, vocab, size=(batch, length), dtype=np.int64)


def _recompute_generate(model, prompt_row, max_new, backend, stop_token=None):
    """Reference decode: full-sequence recompute at every step."""
    tokens = list(int(t) for t in prompt_row)
    out = []
    for _ in range(max_new):
        hidden = model._encode(np.array([tokens], dtype=np.int64), backend)
        logits = model.lm_logits(hidden[:, -1, :], backend)
        nxt = int(np.argmax(logits, axis=-1)[0])
        out.append(nxt)
        tokens.append(nxt)
        if stop_token is not None and nxt == stop_token:
            break
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------------------
# 1. Bit-identity of step-wise decode (property-based)
# ---------------------------------------------------------------------------
class TestDecodeBitIdentity:
    @given(
        dim_heads=st.sampled_from([(4, 1), (4, 2), (8, 2)]),
        n_layers=st.integers(1, 2),
        prompt_len=st.integers(1, 5),
        max_new=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_generate_matches_recompute_per_token(
        self, dim_heads, n_layers, prompt_len, max_new, seed
    ):
        """KV-cached decode == full recompute, token for token."""
        dim, heads = dim_heads
        model = _model(dim=dim, heads=heads, ff_dim=2 * dim, n_layers=n_layers)
        rng = np.random.default_rng(seed)
        prompt = _prompts(rng, 1, prompt_len)
        backend = _backend()
        cached = model.generate(prompt, max_new, backend)[0]
        recomputed = _recompute_generate(model, prompt[0], max_new, backend)
        assert np.array_equal(cached, recomputed)

    @given(
        batch=st.integers(2, 4),
        prompt_len=st.integers(1, 5),
        max_new=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_batched_decode_matches_per_sequence(
        self, batch, prompt_len, max_new, seed
    ):
        """Stacking sequences into one decode batch changes nothing."""
        model = _model()
        rng = np.random.default_rng(seed)
        prompts = _prompts(rng, batch, prompt_len)
        backend = _backend()
        together = model.generate(prompts, max_new, backend)
        alone = [
            model.generate(prompts[j : j + 1], max_new, backend)[0]
            for j in range(batch)
        ]
        for got, expect in zip(together, alone):
            assert np.array_equal(got, expect)

    @given(
        prompt_len=st.integers(2, 6),
        cached_len_frac=st.floats(0.1, 0.9),
        max_new=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_warm_prefill_bit_identical(
        self, prompt_len, cached_len_frac, max_new, seed
    ):
        """Prefilling from a cached prefix == prefilling from scratch."""
        model = _model()
        rng = np.random.default_rng(seed)
        prompt = _prompts(rng, 1, prompt_len)
        cached_len = max(1, min(prompt_len - 1, int(prompt_len * cached_len_frac)))
        backend = _backend()
        cold_logits, cold_state = model.prefill(prompt, backend)

        payload = cold_state.prefix(cached_len)
        warm_logits, warm_state = model.prefill(prompt, backend, cached=payload)
        assert np.array_equal(cold_logits, warm_logits)
        for i in range(model.n_layers):
            assert np.array_equal(cold_state.k[i], warm_state.k[i])
            assert np.array_equal(cold_state.v[i], warm_state.v[i])
        # ...and the continuation decodes identically from either state.
        t0 = np.argmax(cold_logits, axis=-1)
        a = model.decode_step(cold_state, t0, backend)
        b = model.decode_step(warm_state, t0, backend)
        assert np.array_equal(a, b)

    @given(
        stop_after=st.integers(0, 3),
        prompt_len=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_stop_token_truncates_inclusively(self, stop_after, prompt_len, seed):
        """A stop token ends the row and is kept in the output."""
        model = _model()
        rng = np.random.default_rng(seed)
        prompt = _prompts(rng, 1, prompt_len)
        backend = _backend()
        free = model.generate(prompt, 6, backend)[0]
        stop = int(free[min(stop_after, len(free) - 1)])
        stopped = model.generate(prompt, 6, backend, stop_token=stop)[0]
        hits = np.flatnonzero(free == stop)
        expect = free[: hits[0] + 1] if hits.size else free
        assert np.array_equal(stopped, expect)

    @given(
        limits=st.lists(st.integers(1, 6), min_size=2, max_size=5),
        stops=st.lists(st.sampled_from([None, 6, 9, 12]), min_size=5, max_size=5),
        prompt_len=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_lockstep_with_per_row_limits_and_stops_matches_one_at_a_time(
        self, limits, stops, prompt_len, seed
    ):
        """One lockstep run whose rows each have their own
        ``max_new_tokens`` / ``stop_token`` gives every row what it
        generates alone, and keeps the K/V rows a decode pool would hold."""
        model = _model()
        prompts = _prompts(np.random.default_rng(seed), len(limits), prompt_len)
        stops = stops[: len(limits)]
        backend = _backend()
        rows, state = model.transcribe(prompts, limits, backend, stops)
        steps = 0
        for j, row in enumerate(rows):
            alone, kept = model.transcribe(
                prompts[j : j + 1], limits[j], backend, stops[j]
            )
            assert row.dtype == alone[0].dtype and np.array_equal(row, alone[0])
            assert len(row) == limits[j] or row[-1] == stops[j]
            assert stops[j] not in row[:-1].tolist()
            # Prompt plus every generated token but the last, row for row.
            held = prompt_len + len(row) - 1
            assert kept.pos == held <= state.pos
            for i in range(model.n_layers):
                assert np.array_equal(state.k[i][j, :held], kept.k[i][0])
                assert np.array_equal(state.v[i][j, :held], kept.v[i][0])
            steps = max(steps, len(row))
        # The batch stops as soon as its last row does.
        assert state.pos == prompt_len + steps - 1
        assert [r.tolist() for r in model.generate(prompts, limits, backend, stops)] == [
            r.tolist() for r in rows
        ]

    def test_stack_split_roundtrip(self):
        model = _model()
        rng = np.random.default_rng(0)
        backend = _backend()
        _, state = model.prefill(_prompts(rng, 3, 4), backend)
        parts = state.split()
        restacked = KVState.stack(parts)
        for i in range(state.n_layers):
            assert np.array_equal(state.k[i], restacked.k[i])
            assert np.array_equal(state.v[i], restacked.v[i])

    def test_decode_step_rejects_misuse(self):
        model = _model()
        backend = _backend()
        with pytest.raises(ValueError):
            model.prefill(np.zeros((2, model.seq_len + 1), dtype=np.int64), backend)
        with pytest.raises(ValueError):
            # more new tokens than the position table can hold
            model.generate(
                np.zeros((1, 4), dtype=np.int64), model.seq_len, backend
            )
        with pytest.raises(ValueError):
            GenerationRequest(prompt=np.zeros((2, 3)), max_new_tokens=1)
        with pytest.raises(ValueError):
            GenerationRequest(prompt=np.array([1, 2]), max_new_tokens=0)


# ---------------------------------------------------------------------------
# 2. Exact per-step cycle accounting (traced ArrayBackend)
# ---------------------------------------------------------------------------
class TestCycleAccounting:
    def _warm_backend(self, model):
        """An ArrayBackend past its one-time nonlinearity table preload."""
        array = SystolicArray(CONFIG)
        backend = ArrayBackend(array, GRANULARITY)
        model.prefill(np.zeros((1, 2), dtype=np.int64), backend)
        return array, backend

    def test_prefill_and_decode_steps_match_closed_form(self):
        model = _model()
        array, backend = self._warm_backend(model)
        rng = np.random.default_rng(1)
        batch, prompt_len, max_new = 3, 4, 4
        prompts = _prompts(rng, batch, prompt_len)

        before = array.total_cycles
        _, state = model.prefill(prompts, backend)
        measured = array.total_cycles - before
        assert measured == transformer_prefill_cycles(
            batch, prompt_len, 0, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        )

        tokens = np.zeros(batch, dtype=np.int64)
        for step in range(max_new):
            position = state.pos
            before = array.total_cycles
            logits = model.decode_step(state, tokens, backend)
            measured = array.total_cycles - before
            assert measured == transformer_decode_step_cycles(
                batch, position, model.dim, model.heads, model.ff_dim,
                model.n_layers, model.vocab, CONFIG,
            )
            tokens = np.argmax(logits, axis=-1)

    def test_warm_prefill_cycles_match_closed_form(self):
        model = _model()
        array, backend = self._warm_backend(model)
        rng = np.random.default_rng(2)
        prompt = _prompts(rng, 2, 6)
        _, state = model.prefill(prompt, backend)
        payload = state.prefix(4)

        before = array.total_cycles
        model.prefill(prompt, backend, cached=payload)
        measured = array.total_cycles - before
        assert measured == transformer_prefill_cycles(
            2, 6, 4, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        )

    def test_decode_cycles_grow_with_position_only(self):
        """The per-step closed form depends on the K/V length, not on
        how the sequence got there — the attention GEMMs see one query
        row against ``position + 1`` keys."""
        model = _model()
        c1 = transformer_decode_step_cycles(
            2, 4, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        )
        c2 = transformer_decode_step_cycles(
            2, 8, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        )
        assert c2 > c1

    def test_closed_form_validation(self):
        with pytest.raises(ValueError):
            transformer_prefill_cycles(1, 4, 4, 8, 2, 16, 1, 16, CONFIG)
        with pytest.raises(ValueError):
            transformer_decode_step_cycles(1, 0, 8, 2, 16, 1, 16, CONFIG)


# ---------------------------------------------------------------------------
# 3. Continuous batching in the engine (invariant fuzz)
# ---------------------------------------------------------------------------
class RecordingAdapter(GenerationAdapter):
    """Adapter spy: observes every prefill/decode batch the engine runs."""

    def __init__(self, model):
        super().__init__(model)
        self.prefill_batches = []
        self.decode_batches = []

    def prefill(self, prompts, backend, cached=None):
        prompts = np.asarray(prompts)
        self.prefill_batches.append(
            {
                "size": prompts.shape[0],
                "distinct": len({tuple(row) for row in prompts.tolist()}),
                "cached": cached is not None,
            }
        )
        return super().prefill(prompts, backend, cached=cached)

    def decode(self, states, tokens, backend, position):
        self.decode_batches.append(
            {"size": len(states), "positions": {s.pos for s in states}}
        )
        return super().decode(states, tokens, backend, position)


def _gen_engine(n_shards=2, adapter=None, model=None, **kw):
    model = model if model is not None else _model()
    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(CONFIG) for _ in range(n_shards)], GRANULARITY
    )
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("flush_timeout", 1e-4)
    engine = InferenceEngine(pool, **kw)
    if adapter is None:
        adapter = GenerationAdapter(model)
        engine.register("gen", generation_adapter=adapter)
    else:
        # A spy sees each unit execute only on the per-unit reference; a
        # ``Module`` endpoint replays units and computes them in stacks.
        engine.register("gen", infer_fn=model.infer, generation_adapter=adapter)
    return engine, adapter, model


class TestContinuousBatching:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_randomized_schedule_invariants(self, seed):
        """Random arrivals/lengths/tenants: the full contract holds."""
        model = _model()
        adapter = RecordingAdapter(model)
        engine, _, _ = _gen_engine(adapter=adapter, model=model)
        rng = np.random.default_rng(seed)
        ids, params = [], {}
        for i in range(12):
            length = int(rng.integers(1, 6))
            prompt = _prompts(rng, 1, length)[0]
            max_new = int(rng.integers(1, 5))
            tenant = ["gold", "free"][int(rng.integers(0, 2))]
            arrival = float(rng.uniform(0, 3e-4))
            rid = engine.submit_generation(
                "gen", prompt, max_new, arrival=arrival, tenant=tenant
            )
            ids.append(rid)
            params[rid] = (prompt, max_new)
        report = engine.run()

        # Every admitted request completes exactly once.
        completed_ids = sorted(c.request.request_id for c in report.completed)
        assert completed_ids == sorted(ids)
        assert not report.shed

        # ...bit-identically to standalone lockstep generation.
        reference = _backend()
        for rid in ids:
            prompt, max_new = params[rid]
            expect = model.generate(prompt[None, :], max_new, reference)[0]
            assert np.array_equal(engine.result(rid), expect)

        # Prefill batches stack distinct prompts of one length (the
        # tokens above are bit-identical all the same); decode batches
        # never mix positions (tenant/model purity is structural:
        # DecodeStepRecord carries exactly one of each, and the
        # grouping keys on them).
        assert any(b["distinct"] > 1 for b in adapter.prefill_batches)
        assert sum(b["size"] for b in adapter.prefill_batches) == len(ids)
        assert all(len(b["positions"]) == 1 for b in adapter.decode_batches)
        cap = engine.scheduler.assembler.max_batch_size
        assert all(
            b["size"] <= cap
            for b in adapter.prefill_batches + adapter.decode_batches
        )

        # Per-tenant attribution is exact and exhaustive.
        assert sum(report.tenant_cycles.values()) == sum(
            report.shard_cycles.values()
        )
        # Token accounting: one token per decode-step batch slot, plus
        # one prefill token per sequence.
        step_tokens = sum(s.tokens for s in report.generation_steps)
        total_tokens = sum(len(c.outputs) for c in report.completed)
        assert total_tokens == step_tokens + len(ids)
        assert report.generated_tokens == total_tokens
        per_tenant = report.tenant_tokens()
        assert sum(per_tenant.values()) == total_tokens

    def test_decode_batches_merge_sequences_across_prefills(self):
        """Sequences from different prefill batches share iterations —
        the continuous part of continuous batching."""
        model = _model()
        adapter = RecordingAdapter(model)
        # flush_timeout=0 flushes every distinct arrival instant alone.
        engine, _, _ = _gen_engine(
            n_shards=1, adapter=adapter, model=model, flush_timeout=0.0
        )
        rng = np.random.default_rng(5)
        # Same length, arrivals staggered tightly enough that later
        # sequences prefill while earlier ones still have steps left.
        for i in range(4):
            engine.submit_generation(
                "gen", _prompts(rng, 1, 4)[0], 6, arrival=i * 2e-6
            )
        report = engine.run()
        assert len(report.completed) == 4
        # Four arrival instants, four prefills...
        assert [b["size"] for b in adapter.prefill_batches] == [1, 1, 1, 1]
        # ...yet decode iterations run multiple sequences together.
        assert any(b["size"] > 1 for b in adapter.decode_batches)
        assert any(s.batch_size > 1 for s in report.generation_steps)

    @given(
        prompt_len=st.integers(2, 4),
        first_new=st.lists(st.integers(1, 3), min_size=2, max_size=6),
        follow_new=st.integers(1, 3),
        fresh=st.lists(st.booleans(), min_size=6, max_size=6),
        radix=st.booleans(),
        n_shards=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_mixed_prompt_prefills_bit_identical_to_lone_generate(
        self, prompt_len, first_new, follow_new, fresh, radix, n_shards, seed
    ):
        """Same-length prompt sets, two tenants, radix on and off: every
        request's tokens equal a lone ``model.generate``.

        Two waves.  The first wave's members generate different numbers
        of tokens, so (radix on) they retire histories of different
        lengths; the second wave's same-length prompts replay those
        transcripts or, where ``fresh``, start over — one prefill then
        holds hits at unequal depths and misses side by side.
        """
        model = _model(seq_len=16)
        adapter = RecordingAdapter(model)
        engine, _, _ = _gen_engine(
            n_shards=n_shards, adapter=adapter, model=model, max_batch_size=8,
            radix_cache=RadixKVCache() if radix else None,
        )
        rng = np.random.default_rng(seed)
        reference = _backend()
        tenants = [["gold", "free"][int(t)] for t in rng.integers(0, 2, len(first_new))]

        def wave(prompts, max_new, arrival):
            ids = [
                engine.submit_generation(
                    "gen", prompt, new, arrival=arrival, tenant=tenant
                )
                for prompt, new, tenant in zip(prompts, max_new, tenants)
            ]
            report = engine.run()
            assert len(report.completed) == len(ids)
            assert not report.shed
            outputs = [engine.result(rid) for rid in ids]
            for prompt, new, got in zip(prompts, max_new, outputs):
                expect = model.generate(prompt[None, :], new, reference)[0]
                assert np.array_equal(got, expect)
            assert sum(report.tenant_cycles.values()) == sum(
                report.shard_cycles.values()
            )
            return report, outputs

        prompts = list(_prompts(rng, len(first_new), prompt_len))
        _, outputs = wave(prompts, first_new, arrival=0.0)

        follow_len = prompt_len + max(first_new) + 1
        follows = [
            _prompts(rng, 1, follow_len)[0]
            if fresh[i]
            else np.concatenate(
                [prompt, out, _prompts(rng, 1, follow_len)[0]]
            )[:follow_len]
            for i, (prompt, out) in enumerate(zip(prompts, outputs))
        ]
        first_wave_prefills = len(adapter.prefill_batches)
        report, _ = wave(follows, [follow_new] * len(follows), arrival=1.0)
        # One tenant's same-length follow-ups share one prefill.
        assert len(adapter.prefill_batches) - first_wave_prefills == len(
            set(tenants)
        )
        if not radix:
            assert not report.prefix_events
            assert not any(b["cached"] for b in adapter.prefill_batches)

    def test_conversational_trace_batches_prefills_and_decodes(self):
        """hostbench's ``generate_chat`` shape: prefills and decode
        steps run several sequences at a time, not one."""
        from repro.autotune import (
            EndpointProfile,
            EndpointSpec,
            TuningConfig,
            replay_trace,
            synthesize_trace,
        )

        big = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
        requests = 72
        trace = synthesize_trace(
            "chat",
            (EndpointProfile("chat", seq_len=8, vocab=16, max_new_tokens=8),),
            requests, requests * 1e-4, 0, "conversational",
            tenants=("tenant-a", "tenant-b"),
        )
        endpoint = EndpointSpec(
            "chat", TinyBERT,
            dict(vocab=16, seq_len=16, dim=8, heads=2, ff_dim=16, n_layers=1,
                 causal=True, seed=0),
            generation=True,
        )
        tuning = TuningConfig(
            pool=(big, big), placement="cost_aware", max_batch_size=8,
            radix_budget_bytes=1 << 20,
        )
        report = replay_trace(trace, tuning, (endpoint,))
        assert len(report.completed) == requests
        steps = [step.batch_size for step in report.generation_steps]
        prefill_batches = len(report.placements) - len(steps)
        assert prefill_batches <= requests / 2
        assert np.mean(steps) > 2

    def test_identical_prompts_share_one_prefill(self):
        model = _model()
        adapter = RecordingAdapter(model)
        engine, _, _ = _gen_engine(adapter=adapter, model=model)
        prompt = np.array([5, 3, 1], dtype=np.int64)
        ids = [
            engine.submit_generation("gen", prompt, 3, arrival=i * 1e-5)
            for i in range(3)
        ]
        report = engine.run()
        assert [b["size"] for b in adapter.prefill_batches] == [3]
        outs = [engine.result(i) for i in ids]
        assert all(np.array_equal(outs[0], o) for o in outs)
        assert report.generation_section()  # renders without error
        assert "decode iterations" in report.summary()

    def test_generation_report_views(self):
        engine, _, model = _gen_engine()
        rid = engine.submit_generation(
            "gen", np.array([1, 2, 3], dtype=np.int64), 4
        )
        report = engine.run()
        assert report.has_generation_activity
        assert report.generated_tokens == len(engine.result(rid, keep=True))
        assert report.tokens_per_second() > 0
        assert report.generation_makespan() > 0
        assert report.decode_steps == 3  # 4 tokens = prefill + 3 steps
        for step in report.generation_steps:
            assert step.cycles > 0 and step.finish > step.start

    def test_generation_traffic_feeds_the_drift_ewma(self):
        """Prefills and decode steps hand ``ShardStats.observe`` their
        closed-form estimate, so a shard slower than its price drifts on
        generation traffic alone — and stays at 1 priced right."""

        class Underpriced(GenerationAdapter):
            """Prices every unit 4x cheaper than it runs."""

            def prefill_cycles(self, *args):
                return super().prefill_cycles(*args) / 4

            def decode_cycles(self, *args):
                return super().decode_cycles(*args) / 4

        def drift_after_one_request(adapter):
            model = _model()
            engine, _, _ = _gen_engine(
                n_shards=1, steal=True, model=model,
                adapter=None if adapter is None else adapter(model),
            )
            engine.submit_generation("gen", np.array([1, 2, 3], dtype=np.int64), 6)
            engine.run()
            stats = engine.shard_stats[0]
            assert stats.batches == 6 and stats.estimated_seconds > 0
            return stats.drift

        # The estimates are exact; only the shard's one-time table
        # preload in its first batch separates duration from estimate.
        assert drift_after_one_request(None) == pytest.approx(1.0, abs=0.01)
        assert drift_after_one_request(Underpriced) > 2.0

    def test_submit_generation_requires_adapter(self):
        pool = ClusterDispatcher.from_arrays([SystolicArray(CONFIG)], GRANULARITY)
        engine = InferenceEngine(pool)
        engine.register("plain", _model())
        with pytest.raises(ValueError, match="generation_adapter"):
            engine.submit_generation("plain", np.array([1, 2]), 2)
        # ...and the position-table bound is enforced at submit time.
        engine.register("gen", generation_adapter=GenerationAdapter(_model()))
        with pytest.raises(ValueError, match="position table"):
            engine.submit_generation(
                "gen", np.zeros(4, dtype=np.int64), _model().seq_len
            )

    def test_mixed_generation_and_classifier_traffic(self):
        """Plain submit() and submit_generation() coexist on one engine."""
        model = _model()
        cls_model = TinyBERT(
            vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
            causal=True, seed=0,
        )
        engine, _, _ = _gen_engine(model=model)
        engine.register("cls", cls_model)
        rng = np.random.default_rng(9)
        gid = engine.submit_generation("gen", _prompts(rng, 1, 3)[0], 3, arrival=0.0)
        cid = engine.submit("cls", rng.integers(0, 16, size=8), arrival=1e-5)
        report = engine.run()
        assert len(report.completed) == 2
        assert engine.result(gid).shape == (3,)
        assert engine.result(cid) is not None
        assert sum(report.tenant_cycles.values()) == sum(
            report.shard_cycles.values()
        )


# ---------------------------------------------------------------------------
# 4. RadixKVCache: the store's own keys are the prefix index
# ---------------------------------------------------------------------------
def _rows(n):
    """A one-layer payload covering ``n`` positions: 32 bytes of K/V per
    position, so 40 cache bytes per position with its token key."""
    kv = KVState(1)
    kv.extend(0, np.zeros((1, n, 2)), np.zeros((1, n, 2)))
    return kv.freeze()


def _lru_admit(store, seq, budget):
    """Reference LRU (a dict, oldest first) admitting ``seq`` as
    :class:`RadixKVCache` does: replace, then evict oldest until it fits."""
    store.pop(seq, None)
    while sum(store.values()) + 40 * len(seq) > budget:
        del store[next(iter(store))]
    store[seq] = 40 * len(seq)


def _longest_key(store, seq):
    return max((len(key) for key in store if seq[: len(key)] == key), default=0)


_TOKENS = st.lists(st.integers(0, 1), min_size=1, max_size=5)
_MATCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), _TOKENS),
        st.tuples(
            st.just("lookup"), st.integers(0, 1),
            st.lists(st.integers(0, 1), min_size=1, max_size=7),
            st.none() | st.integers(1, 6),
        ),
    ),
    max_size=30,
)


_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), _TOKENS),
        st.tuples(
            st.just("lookup"), st.integers(0, 1),
            st.lists(st.integers(0, 1), min_size=1, max_size=7),
            st.none() | st.integers(1, 6),
        ),
        st.tuples(st.just("migrate"), st.integers(0, 1), _TOKENS),
    ),
    max_size=30,
)


def _replay_against_reference(ops, budget):
    """Run ``ops`` on a two-shard :class:`RadixKVCache` and on reference
    LRUs side by side: ``lookup`` serves the longest resident prefix (at
    most ``max_len``), ``resident_shards`` lists exactly the shards where
    that prefix is non-empty, and resident bytes match."""
    cache = RadixKVCache(shard_budget_bytes=budget)
    shards = ({}, {})
    queries = set()
    for kind, *args in ops:
        tokens = ()
        if kind == "insert":
            shard, tokens = args
            assert cache.insert(shard, "t", "m", tokens, _rows(len(tokens)))
            _lru_admit(shards[shard], tuple(tokens), budget)
        elif kind == "lookup":
            shard, tokens, max_len = args
            seq = tuple(tokens)[:max_len]
            expected = _longest_key(shards[shard], seq)
            n, payload = cache.lookup(shard, "t", "m", tokens, max_len=max_len)
            assert n == expected
            if expected:
                assert payload.pos == expected
                key = seq[:expected]
                shards[shard][key] = shards[shard].pop(key)  # LRU touch
            else:
                assert payload is None
        else:
            source, tokens = args
            seq = tuple(tokens)
            moved = cache.migrate(source, 1 - source, "t", "m", tokens)
            assert moved == (seq in shards[source])
            if moved:
                del shards[source][seq]
                _lru_admit(shards[1 - source], seq, budget)
        queries.add(tuple(tokens))
        for query in queries:
            resident = tuple(
                shard for shard in (0, 1)
                if _longest_key(shards[shard], query)
            )
            assert cache.resident_shards("t", "m", query) == resident
        for shard, store in enumerate(shards):
            assert cache.resident_bytes(shard) == sum(store.values()) <= budget


def _payload(model, prompt_row, upto=None):
    """A payload covering ``prompt_row``'s first ``upto`` positions."""
    backend = _backend()
    _, state = model.prefill(np.asarray(prompt_row)[None, :], backend)
    upto = len(prompt_row) if upto is None else upto
    return state.prefix(upto)


class TestRadixKVCache:
    def test_lookup_finds_the_longest_resident_key(self):
        cache = RadixKVCache()
        for tokens in ([1, 2, 3], [1, 2, 3], [1, 2], [1, 2, 3, 4, 5]):
            assert cache.insert(0, "t", "m", tokens, _rows(len(tokens)))
        assert cache.stats()["resident_entries"] == {0: 3}  # a re-insert replaces
        for query, expected in (
            ([1, 2, 3, 4, 5, 6], 5), ([1, 2, 3, 9], 3), ([1, 2, 9], 2),
            ([1, 9], 0), ([9], 0),
        ):
            n, payload = cache.lookup(0, "t", "m", query)
            assert n == expected
            assert (payload is None) if not n else payload.pos == n
        assert cache.lookup(0, "t", "m", [1, 2, 3, 4, 5, 6], max_len=4)[0] == 3

    def test_evicted_longer_entry_leaves_shorter_prefix_resident(self):
        """Residency and lookup read one record: once the longer entry
        of a family is evicted, the shorter resident prefix both
        attracts the batch and serves it."""
        cache = RadixKVCache(shard_budget_bytes=40 * (5 + 3))  # the first two
        assert cache.insert(0, "t", "m", [1, 2, 3, 4, 5], _rows(5))
        assert cache.insert(0, "t", "m", [1, 2, 3], _rows(3))
        assert cache.insert(0, "t", "m", [7, 7, 7, 7, 7], _rows(5))  # evicts the first
        assert cache.evictions == 1
        query = [1, 2, 3, 4, 5, 6]
        assert cache.resident_shards("t", "m", query) == (0,)
        n, payload = cache.lookup(0, "t", "m", query)
        assert n == 3 and payload.pos == 3
        assert cache.namespace_stats()["serving.radix.shard0"]["misses"] == 0

    @given(ops=_MATCH_OPS)
    @settings(max_examples=80, deadline=None)
    def test_longest_lookup_equals_brute_force(self, ops):
        """With a budget that holds every insert, ``lookup`` serves the
        longest inserted prefix of the query."""
        _replay_against_reference(ops, budget=40 * 5 * (len(ops) + 1))

    @given(ops=_CACHE_OPS)
    @example(ops=[  # the longer entry of a resident family is evicted
        ("insert", 0, [0, 0, 0, 0, 0]), ("insert", 0, [0]), ("insert", 0, [1, 1]),
    ])
    @settings(max_examples=80, deadline=None)
    def test_lookup_and_residency_equal_brute_force(self, ops):
        """Under evictions, migrations and clears, lookup and residency
        match a reference LRU."""
        _replay_against_reference(ops, budget=40 * 6)

    def test_longest_prefix_lookup_and_incremental_capture(self):
        model = _model()
        cache = RadixKVCache()
        p = np.array([1, 2, 3, 4], dtype=np.int64)
        cache.insert(0, "t", "m", p, _payload(model, p))
        # exact query, capped one short of the prompt
        n, payload = cache.lookup(0, "t", "m", p, max_len=len(p) - 1)
        assert n == 0 and payload is None  # only the full-4 entry exists
        longer = np.array([1, 2, 3, 4, 9, 9], dtype=np.int64)
        n, payload = cache.lookup(0, "t", "m", longer, max_len=5)
        assert n == 4 and payload.pos == 4
        # extending the transcript re-captures incrementally
        cache.insert(0, "t", "m", longer, _payload(model, longer))
        evenlonger = np.concatenate([longer, [7]])
        n, payload = cache.lookup(0, "t", "m", evenlonger, max_len=6)
        assert n == 6 and payload.pos == 6
        stats = cache.stats()
        assert stats["insertions"] == 2 and stats["hits"] == 2

    def test_tenant_and_model_isolation(self):
        model = _model()
        cache = RadixKVCache()
        p = np.array([5, 6, 7], dtype=np.int64)
        cache.insert(0, "alice", "m", p, _payload(model, p))
        q = np.concatenate([p, [1]])
        assert cache.lookup(0, "bob", "m", q)[0] == 0
        assert cache.lookup(0, "alice", "other", q)[0] == 0
        assert cache.lookup(1, "alice", "m", q)[0] == 0  # other shard
        assert cache.lookup(0, "alice", "m", q)[0] == 3
        assert cache.resident_shards("alice", "m", q) == (0,)
        assert cache.resident_shards("bob", "m", q) == ()

    def test_eviction_under_byte_budget_self_heals(self):
        model = _model()
        one = _payload(model, np.array([0, 1], dtype=np.int64))
        budget = one.nbytes + 16 + 8  # room for ~one entry + token key
        cache = RadixKVCache(shard_budget_bytes=budget)
        a = np.array([0, 1], dtype=np.int64)
        b = np.array([2, 3], dtype=np.int64)
        assert cache.insert(0, "t", "m", a, _payload(model, a))
        assert cache.insert(0, "t", "m", b, _payload(model, b))  # evicts a
        assert cache.stats()["evictions"] >= 1
        # The evicted entry is gone from the one record: a misses, b hits.
        assert cache.lookup(0, "t", "m", np.concatenate([a, [9]]))[0] == 0
        assert cache.lookup(0, "t", "m", np.concatenate([b, [9]]))[0] == 2
        # An entry that can never fit is rejected outright.
        huge = _payload(model, np.arange(8, dtype=np.int64) % 4)
        tiny = RadixKVCache(shard_budget_bytes=8)
        assert not tiny.insert(0, "t", "m", np.arange(8) % 4, huge)
        assert tiny.stats()["rejections"] == 1

    def test_resident_shards_ignores_evicted_payloads(self):
        """Affinity never points at a shard whose store already evicted
        the payload."""
        model = _model()
        a = np.array([0, 1], dtype=np.int64)
        b = np.array([2, 3], dtype=np.int64)
        payload = _payload(model, a)
        cache = RadixKVCache(shard_budget_bytes=payload.nbytes + 16)  # one entry
        assert cache.insert(0, "t", "m", a, payload)
        assert cache.insert(0, "t", "m", b, _payload(model, b))  # evicts a
        assert cache.resident_shards("t", "m", a) == ()
        assert cache.resident_shards("t", "m", b) == (0,)
        # A pure read: no counter moved, b's recency untouched.
        assert cache.stats()["hits"] == cache.stats()["misses"] == 0

    def test_migrate_moves_store_and_index_together(self):
        model = _model()
        cache = RadixKVCache()
        p = np.array([4, 5, 6], dtype=np.int64)
        q = np.concatenate([p, [7]])
        cache.insert(0, "t", "m", p, _payload(model, p))
        assert cache.migrate(0, 1, "t", "m", p)
        assert cache.stats()["migrations"] == 1
        assert cache.stats()["resident_entries"] == {0: 0, 1: 1}
        assert cache.resident_shards("t", "m", q) == (1,)
        assert cache.lookup(1, "t", "m", q)[0] == 3
        assert cache.lookup(0, "t", "m", q) == (0, None)
        # Only the exact sequence moves, never a longer query's prefix.
        assert not cache.migrate(1, 0, "t", "m", q)
        assert cache.resident_shards("t", "m", p) == (1,)

    def test_payload_length_must_match_tokens(self):
        model = _model()
        cache = RadixKVCache()
        p = np.array([1, 2, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="positions"):
            cache.insert(0, "t", "m", p, _payload(model, p, upto=2))

    def test_engine_radix_roundtrip_saves_cycles(self):
        """Second run of the same prompt prefills warm: bit-identical
        output, positive closed-form savings in the prefix event."""
        model = _model(seq_len=16)
        adapter = GenerationAdapter(model)
        engine, _, _ = _gen_engine(
            n_shards=1, model=model, adapter=adapter,
            radix_cache=RadixKVCache(),
        )
        prompt = np.array([3, 1, 4, 1], dtype=np.int64)
        i0 = engine.submit_generation("gen", prompt, 4, arrival=0.0)
        engine.run()
        out0 = engine.result(i0)

        follow = np.concatenate([prompt, out0, [7, 2]]).astype(np.int64)
        i1 = engine.submit_generation("gen", follow, 3, arrival=1.0)
        report = engine.run()
        expect = model.generate(follow[None, :], 3, _backend())[0]
        assert np.array_equal(engine.result(i1), expect)
        hits = [e for e in report.prefix_events if e.hit]
        assert len(hits) == 1
        # Retirement donates prompt + generated[:-1]: the final token's
        # K/V row is never computed (its logits end the sequence), so
        # the resident prefix is one short of the full transcript.
        cached_len = len(prompt) + len(out0) - 1
        assert hits[0].cycles_saved == transformer_prefill_cycles(
            1, len(follow), 0, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        ) - transformer_prefill_cycles(
            1, len(follow), cached_len, model.dim, model.heads, model.ff_dim,
            model.n_layers, model.vocab, CONFIG,
        )
        assert any(
            ns.startswith("serving.radix.") for ns in engine.cache_stats()
        )

    def _two_wave_radix_engine(self, first_wave):
        """Run ``first_wave`` ((prompt, max_new) pairs) on a one-shard
        radix engine; returns the engine, its spy and the outputs."""
        model = _model(seq_len=16)
        adapter = RecordingAdapter(model)
        engine, _, _ = _gen_engine(
            n_shards=1, model=model, adapter=adapter, radix_cache=RadixKVCache()
        )
        ids = [
            engine.submit_generation("gen", prompt, new, arrival=0.0)
            for prompt, new in first_wave
        ]
        engine.run()
        return engine, adapter, model, [engine.result(rid) for rid in ids]

    def _prefill_closed_form(self, model, batch, prompt_len, cached_len):
        return transformer_prefill_cycles(
            batch, prompt_len, cached_len, model.dim, model.heads,
            model.ff_dim, model.n_layers, model.vocab, CONFIG,
        )

    def test_hit_and_miss_in_one_prefill_run_cold(self):
        """One member's transcript is cached, the other's prompt is
        new: a stacked suffix needs one suffix length, so the pass is
        cold — and still donates both prompts' rows."""
        prompt = np.array([3, 1, 4, 1], dtype=np.int64)
        engine, adapter, model, (out,) = self._two_wave_radix_engine([(prompt, 2)])
        known = np.concatenate([prompt, out, [7]]).astype(np.int64)
        unknown = np.array([9, 2, 6, 5, 3, 5, 8], dtype=np.int64)
        assert len(known) == len(unknown)
        cache = engine.radix_cache
        hits_before = cache.stats()["hits"]
        ids = [
            engine.submit_generation("gen", p, 3, arrival=1.0)
            for p in (known, unknown)
        ]
        report = engine.run()

        assert adapter.prefill_batches[-1] == {
            "size": 2, "distinct": 2, "cached": False,
        }
        (event,) = report.prefix_events
        assert not event.hit and event.cycles_saved == 0
        # The known prompt's lookup did hit; the batch still ran cold.
        assert cache.stats()["hits"] == hits_before + 1
        prefill = report.placements[0]
        assert prefill.batch_cycles == self._prefill_closed_form(
            model, 2, len(known), 0
        )
        for rid, p in zip(ids, (known, unknown)):
            expect = model.generate(p[None, :], 3, _backend())[0]
            assert np.array_equal(engine.result(rid), expect)
        for p in (known, unknown):
            assert cache.lookup(0, "default", "gen", np.append(p, 0))[0] >= len(p)

    def test_unequal_hits_prefill_warm_at_the_shorter_depth(self):
        """Cached depths 5 and 3 in one prefill: the pass starts at 3
        and the event's savings are the closed form at 3."""
        a = np.array([3, 1, 4, 1], dtype=np.int64)  # retires 4 + 2 - 1 = 5 rows
        b = np.array([2, 7, 1], dtype=np.int64)  # retires 3 + 1 - 1 = 3 rows
        engine, adapter, model, (out_a, _) = self._two_wave_radix_engine(
            [(a, 2), (b, 1)]
        )
        follow_a = np.concatenate([a, out_a, [5, 9]]).astype(np.int64)
        follow_b = np.concatenate([b, [8, 2, 8, 1, 8]]).astype(np.int64)
        assert len(follow_a) == len(follow_b) == 8
        cache = engine.radix_cache
        assert cache.lookup(0, "default", "gen", follow_a, max_len=7)[0] == 5
        assert cache.lookup(0, "default", "gen", follow_b, max_len=7)[0] == 3
        ids = [
            engine.submit_generation("gen", p, 3, arrival=1.0)
            for p in (follow_a, follow_b)
        ]
        report = engine.run()

        assert adapter.prefill_batches[-1] == {
            "size": 2, "distinct": 2, "cached": True,
        }
        (event,) = report.prefix_events
        cold = self._prefill_closed_form(model, 2, 8, 0)
        warm_at_3 = self._prefill_closed_form(model, 2, 8, 3)
        assert event.hit and event.cycles_saved == cold - warm_at_3
        assert report.placements[0].batch_cycles == warm_at_3
        for rid, p in zip(ids, (follow_a, follow_b)):
            expect = model.generate(p[None, :], 3, _backend())[0]
            assert np.array_equal(engine.result(rid), expect)
