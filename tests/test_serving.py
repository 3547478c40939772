"""Serving engine tests: batching, sharding, reporting, equivalence.

The load-bearing contract: results served through the batched engine
are bit-identical to single-request ``infer`` on the same backend, for
every backend.
"""

import numpy as np
import pytest

from repro.nn.executor import (
    ArrayBackend,
    CPWLBackend,
    FloatBackend,
    QuantizedFloatBackend,
)
from repro.nn.models import GCN, SmallResNet, TinyBERT
from repro.nn.models.gcn import normalized_adjacency
from repro.serving import (
    GenerationAdapter,
    InferenceEngine,
    InferenceRequest,
    ClusterDispatcher,
    TracedRequest,
)
from repro.systolic import SystolicArray, SystolicConfig

from tests.reference.batcher import DynamicBatcher

RNG = np.random.default_rng(0)


def req(i, model="m", arrival=0.0):
    return InferenceRequest(
        request_id=i, model=model, inputs=np.zeros(1), arrival=arrival
    )


class TestDynamicBatcher:
    def test_full_batch_flushes_at_filling_arrival(self):
        batcher = DynamicBatcher(max_batch_size=2, flush_timeout=10.0)
        batches = batcher.plan([req(0, arrival=0.0), req(1, arrival=1.0)])
        assert len(batches) == 1
        assert batches[0].size == 2
        assert batches[0].ready_time == 1.0

    def test_timeout_flushes_partial_batch(self):
        batcher = DynamicBatcher(max_batch_size=8, flush_timeout=0.5)
        batches = batcher.plan([req(0, arrival=0.0), req(1, arrival=2.0)])
        assert len(batches) == 2
        assert batches[0].ready_time == 0.5  # deadline of the first
        assert batches[1].ready_time == 2.5

    def test_models_batch_separately(self):
        batcher = DynamicBatcher(max_batch_size=4, flush_timeout=1.0)
        batches = batcher.plan(
            [req(0, "a"), req(1, "b"), req(2, "a"), req(3, "b")]
        )
        assert len(batches) == 2
        assert {b.model for b in batches} == {"a", "b"}
        for b in batches:
            assert all(r.model == b.model for r in b.requests)

    def test_fifo_order_within_batch(self):
        batcher = DynamicBatcher(max_batch_size=4, flush_timeout=1.0)
        (batch,) = batcher.plan([req(2), req(0), req(1)])
        assert [r.request_id for r in batch.requests] == [0, 1, 2]

    def test_oversize_stream_splits(self):
        batcher = DynamicBatcher(max_batch_size=3, flush_timeout=1.0)
        batches = batcher.plan([req(i) for i in range(7)])
        assert [b.size for b in batches] == [3, 3, 1]

    def test_zero_timeout_keeps_same_instant_burst_together(self):
        # Regression: a deadline firing exactly at an arrival must not
        # flush the batch before that request joins — otherwise a
        # same-instant burst with flush_timeout=0 degenerates to
        # one-request batches.
        batcher = DynamicBatcher(max_batch_size=8, flush_timeout=0.0)
        batches = batcher.plan([req(i, arrival=0.0) for i in range(4)])
        assert len(batches) == 1
        assert batches[0].size == 4
        # Distinct arrival times still do not coalesce at timeout 0.
        staggered = batcher.plan([req(i, arrival=0.1 * i) for i in range(3)])
        assert [b.size for b in staggered] == [1, 1, 1]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            DynamicBatcher(flush_timeout=-1.0)


class TestClusterDispatcher:
    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ClusterDispatcher([])

    def test_from_arrays_builds_array_backends(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        d = ClusterDispatcher.from_arrays(
            [SystolicArray(cfg), SystolicArray(cfg)], 0.25
        )
        assert d.n_shards == 2
        assert d.array_of(0) is not d.array_of(1)
        assert d.design_points[0][0].clock_hz == cfg.clock_hz
        assert [d.array_of(s).total_cycles for s in (0, 1)] == [0, 0]

    def test_functional_backends_have_no_cycles(self):
        d = ClusterDispatcher([FloatBackend()])
        assert d.array_of(0) is None
        # No clock: the report charges the shard no cycles or busy time.
        assert d.design_points == [(None, None)]


def tiny_bert():
    return TinyBERT(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)


class TestEngineEquivalence:
    """Batched serving must be bit-identical to single-request infer."""

    def _serve_and_compare(self, backend_pool, reference_backend, exact=True):
        """``exact=True`` asserts bit identity (the fixed-point paths);
        float-family backends tolerate BLAS blocking differences of a
        few ULPs between stacked and single GEMM calls."""
        model = tiny_bert()
        engine = InferenceEngine(
            ClusterDispatcher(backend_pool), max_batch_size=4, flush_timeout=1e-4
        )
        engine.register("bert", model)
        tokens = RNG.integers(0, 16, size=(10, 8))
        ids = [engine.submit("bert", row) for row in tokens]
        report = engine.run()
        assert report.n_requests == 10
        assert report.n_batches >= 3  # max_batch_size caps packing
        for request_id, row in zip(ids, tokens):
            single = model.infer(row[None, :], reference_backend)[0]
            served = engine.result(request_id)
            if exact:
                assert np.array_equal(served, single)
            else:
                assert np.allclose(served, single, atol=1e-9, rtol=0)

    def test_float_backend(self):
        self._serve_and_compare([FloatBackend()], FloatBackend(), exact=False)

    def test_quantized_float_backend(self):
        self._serve_and_compare(
            [QuantizedFloatBackend()], QuantizedFloatBackend(), exact=False
        )

    def test_cpwl_backend(self):
        self._serve_and_compare(
            [CPWLBackend(0.25), CPWLBackend(0.25)], CPWLBackend(0.25)
        )

    def test_array_backend(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        pool = [
            ArrayBackend(SystolicArray(cfg), 0.25),
            ArrayBackend(SystolicArray(cfg), 0.25),
        ]
        ref = ArrayBackend(SystolicArray(cfg), 0.25)
        self._serve_and_compare(pool, ref)

    def test_resnet_requests(self):
        model = SmallResNet(in_channels=1, n_classes=3, seed=0)
        model.eval()
        backend = CPWLBackend(0.25)
        engine = InferenceEngine(
            ClusterDispatcher([backend]), max_batch_size=4, flush_timeout=1e-4
        )
        engine.register("resnet", model)
        images = RNG.normal(size=(4, 1, 8, 8))
        ids = [engine.submit("resnet", img) for img in images]
        engine.run()
        for request_id, img in zip(ids, images):
            single = model.infer(img[None], backend)[0]
            assert np.array_equal(engine.result(request_id), single)

    def test_gcn_requests_batch_over_shared_graph(self):
        adjacency = (RNG.uniform(size=(6, 6)) > 0.6).astype(float)
        adjacency = np.maximum(adjacency, adjacency.T)
        a_hat = normalized_adjacency(adjacency)
        model = GCN(in_features=5, hidden=4, n_classes=3, seed=0)
        backend = CPWLBackend(0.25)
        engine = InferenceEngine(
            ClusterDispatcher([backend]), max_batch_size=4, flush_timeout=1e-4
        )
        engine.register(
            "gcn", infer_fn=lambda feats, be: model.infer(feats, a_hat, be)
        )
        feature_sets = RNG.normal(size=(3, 6, 5))
        ids = [engine.submit("gcn", f) for f in feature_sets]
        engine.run()
        for request_id, feats in zip(ids, feature_sets):
            single = model.infer(feats, a_hat, backend)
            assert np.array_equal(engine.result(request_id), single)


class TestEngineMechanics:
    def test_unknown_model_rejected(self):
        engine = InferenceEngine(ClusterDispatcher([FloatBackend()]))
        with pytest.raises(KeyError):
            engine.submit("nope", np.zeros(3))

    def test_register_needs_exactly_one_target(self):
        engine = InferenceEngine(ClusterDispatcher([FloatBackend()]))
        with pytest.raises(ValueError):
            engine.register("m")
        with pytest.raises(ValueError):
            engine.register("m", tiny_bert(), infer_fn=lambda x, b: x)

    def test_batches_round_robin_across_shards(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        pool = ClusterDispatcher.from_arrays(
            [SystolicArray(cfg), SystolicArray(cfg)], 0.25
        )
        engine = InferenceEngine(pool, max_batch_size=2, flush_timeout=1e-4)
        engine.register("bert", tiny_bert())
        for row in RNG.integers(0, 16, size=(8, 8)):
            engine.submit("bert", row)
        report = engine.run()
        shards = {c.shard for c in report.completed}
        assert shards == {0, 1}
        assert all(cycles > 0 for cycles in report.shard_cycles.values())

    def test_report_metrics_consistent(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        pool = ClusterDispatcher.from_arrays([SystolicArray(cfg)], 0.25)
        engine = InferenceEngine(pool, max_batch_size=4, flush_timeout=1e-4)
        engine.register("bert", tiny_bert())
        for row in RNG.integers(0, 16, size=(6, 8)):
            engine.submit("bert", row)
        report = engine.run()
        assert report.p50 <= report.p90 <= report.p99
        assert report.throughput_rps > 0
        assert report.cycles_per_request > 0
        assert report.makespan > 0
        assert "requests served" in report.summary()
        latencies = report.latencies
        assert np.all(latencies >= 0)

    def test_staggered_arrivals_respect_flush_timeout(self):
        engine = InferenceEngine(
            ClusterDispatcher([FloatBackend()]),
            max_batch_size=8,
            flush_timeout=0.5,
        )
        engine.register("bert", tiny_bert())
        rows = RNG.integers(0, 16, size=(3, 8))
        engine.submit("bert", rows[0], arrival=0.0)
        engine.submit("bert", rows[1], arrival=0.1)  # joins the batch
        engine.submit("bert", rows[2], arrival=5.0)  # after the deadline
        report = engine.run()
        assert report.n_batches == 2
        sizes = sorted(c.batch_size for c in report.completed)
        assert sizes == [1, 2, 2]

    def test_two_runs_accumulate_results(self):
        engine = InferenceEngine(ClusterDispatcher([FloatBackend()]))
        engine.register("bert", tiny_bert())
        first = engine.submit("bert", RNG.integers(0, 16, size=8))
        engine.run()
        second = engine.submit("bert", RNG.integers(0, 16, size=8))
        engine.run()
        assert engine.result(first) is not None
        assert engine.result(second) is not None

    def test_result_releases_output_by_default(self):
        # A long-lived engine must not pin every response it ever
        # produced: result() hands the output over once.
        engine = InferenceEngine(ClusterDispatcher([FloatBackend()]))
        engine.register("bert", tiny_bert())
        request_id = engine.submit("bert", RNG.integers(0, 16, size=8))
        engine.run()
        kept = engine.result(request_id, keep=True)
        assert np.array_equal(engine.result(request_id), kept)  # released here
        with pytest.raises(KeyError):
            engine.result(request_id)

    def test_sample_shapes_of_one_model_batch_apart(self):
        # An (8,) and a (6,) token row at one arrival cannot stack into
        # one array: each gets its own batch and equals its lone run.
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        model = tiny_bert()
        engine = InferenceEngine(
            ClusterDispatcher.from_arrays([SystolicArray(cfg)], 0.25)
        )
        engine.register("bert", model)
        rows = [RNG.integers(0, 16, size=8), RNG.integers(0, 16, size=6)]
        ids = [engine.submit("bert", row, arrival=0.0) for row in rows]
        report = engine.run()
        assert report.n_batches == 2
        for request_id, row in zip(ids, rows):
            alone = model.infer(row[None], ArrayBackend(SystolicArray(cfg), 0.25))[0]
            assert np.array_equal(engine.result(request_id), alone)

    @pytest.mark.parametrize("door", ["submit", "enqueue"])
    @pytest.mark.parametrize(
        "model, inputs, tenant",
        [
            ("bert", np.arange(8), ""),
            ("double", np.array([1.0, np.nan]), "default"),
        ],
        ids=["empty-tenant", "nan-input"],
    )
    def test_front_door_rejects_what_run_cannot_serve(self, door, model, inputs, tenant):
        engine = InferenceEngine(ClusterDispatcher([CPWLBackend(0.25)]))
        engine.register("bert", tiny_bert())
        engine.register("double", infer_fn=lambda x, backend: 2.0 * x)
        served = engine.submit(model, np.zeros_like(inputs, dtype=inputs.dtype) + 1)
        with pytest.raises(ValueError):
            if door == "submit":
                engine.submit(model, inputs, tenant=tenant)
            else:
                engine.enqueue([TracedRequest(
                    model, tuple(inputs.tolist()), str(inputs.dtype), None, tenant
                )])
        later = engine.submit(model, np.zeros_like(inputs) + 2)
        report = engine.run()
        assert len(report.completed) == 2
        assert engine.result(served) is not None and engine.result(later) is not None


class TestNonFiniteTimes:
    """A NaN arrival used to be accepted and crash ``run()`` with an
    AttributeError; an infinite one served with ``makespan=inf`` and
    ``p99=nan``; a NaN deadline was silently never missed.  Every front
    door refuses them with a ValueError and queues nothing."""

    BAD = [
        dict(arrival=float("nan")),
        dict(arrival=float("inf")),
        dict(arrival=float("-inf")),
        dict(arrival=0.0, deadline=float("nan")),
    ]
    IDS = ["nan-arrival", "inf-arrival", "minus-inf-arrival", "nan-deadline"]

    @pytest.mark.parametrize("door", ["submit", "submit_generation", "enqueue"])
    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_refused_at_every_door(self, door, bad):
        engine = InferenceEngine(ClusterDispatcher([CPWLBackend(0.25)]))
        engine.register("bert", tiny_bert())
        engine.register(
            "gen",
            generation_adapter=GenerationAdapter(TinyBERT(vocab=16, seq_len=8, causal=True)),
        )
        engine.submit("bert", np.arange(8), arrival=1e-6, deadline=1.0)
        with pytest.raises(ValueError, match="arrival|deadline"):
            if door == "submit":
                engine.submit("bert", np.arange(8), **bad)
            elif door == "submit_generation":
                engine.submit_generation("gen", np.arange(4), 2, **bad)
            else:  # a list with one bad item queues none of it
                good = {"model": "bert", "inputs": np.arange(8), "arrival": 2e-6}
                engine.enqueue([good, dict(good, **bad)])
        report = engine.run()
        assert len(report.completed) == 1
        assert np.isfinite(report.makespan) and np.isfinite(report.p99)


class TestTokenIds:
    """A token id outside ``[0, vocab)`` or a float token row is refused
    with a ValueError: never served as another token, never an IndexError
    from the embedding lookup."""

    BAD = [
        np.array([-1] + [0] * 7),  # an embedding lookup reads the last row
        np.array([16] + [0] * 7),  # one past the table
        np.full(8, 2.0),
    ]
    IDS = ["negative", "vocab", "float"]

    @staticmethod
    def _model():
        return TinyBERT(vocab=16, seq_len=8, causal=True)

    @staticmethod
    def _backend():
        return ArrayBackend(SystolicArray(SystolicConfig(pe_rows=4, pe_cols=4)), 0.25)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_model_rejects_the_row(self, bad):
        model, backend = self._model(), self._backend()
        valid = np.arange(8)
        with pytest.raises(ValueError, match="token ids"):
            model.infer(np.stack([valid, bad]), backend)
        with pytest.raises(ValueError, match="token ids"):
            model.prefill(bad[None, :4], backend)
        _, state = model.prefill(valid[None, :4], backend)
        with pytest.raises(ValueError, match="token ids"):
            model.decode_step(state, bad[:1], backend)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_engine_run_raises_a_value_error(self, bad):
        engine = InferenceEngine(ClusterDispatcher([self._backend()]))
        engine.register("bert", self._model())
        engine.submit("bert", np.arange(8), arrival=0.0)
        engine.submit("bert", bad, arrival=0.0)  # co-batched with the valid one
        with pytest.raises(ValueError, match="token ids"):
            engine.run()

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_generation_prompt_is_refused_at_the_door(self, bad):
        engine = InferenceEngine(ClusterDispatcher([self._backend()]))
        engine.register("gen", generation_adapter=GenerationAdapter(self._model()))
        engine.submit_generation("gen", np.arange(4), 2)
        with pytest.raises(ValueError, match="token ids"):
            engine.submit_generation("gen", bad[:4], 2)
        row = {"model": "gen", "inputs": bad[:4], "max_new_tokens": 2}
        with pytest.raises(ValueError, match="token ids"):
            engine.enqueue([row])
        assert len(engine.run().completed) == 1


class TestRequestFields:
    """Fields a request can carry wrongly are refused at every door that
    takes them, with a ValueError, before the engine queues anything or
    spends a request id.  ``max_new_tokens``, ``stop_token`` and
    ``priority`` used to be truncated (2.5 new tokens served 2, ``True``
    served 1, a 3.7 stop token stopped on 3, priority 1.5 ran at 1); an
    integral float still passes as its int.  A stop token outside
    ``[0, vocab)`` can never be emitted and used to be accepted (``-1`` is
    also ``TinyBERT.transcribe``'s own "no stop token" sentinel)."""

    FIELDS = {"max_new_tokens": (2.5, True), "stop_token": (3.7, True, 16, 99, -1),
              "priority": (1.5, True)}
    CASES = [
        (door, field, value)
        for field, values in FIELDS.items()
        for value in values
        for door in ("submit", "submit_generation", "enqueue")
        if field == "priority" or door != "submit"
    ]

    @staticmethod
    def _engine():
        engine = InferenceEngine(ClusterDispatcher([CPWLBackend(0.25)]))
        engine.register("bert", tiny_bert())
        engine.register(
            "gen",
            generation_adapter=GenerationAdapter(TinyBERT(vocab=16, seq_len=8, causal=True)),
        )
        return engine

    @staticmethod
    def _offer(engine, door, **fields):
        if door == "submit":
            return engine.submit("bert", np.arange(8), **fields)
        fields = {"max_new_tokens": 2, **fields}
        if door == "submit_generation":
            return engine.submit_generation("gen", np.arange(4), **fields)
        return engine.enqueue([dict(model="gen", inputs=np.arange(4), **fields)])[0]

    @pytest.mark.parametrize("door, field, value", CASES)
    def test_refused_at_every_door(self, door, field, value):
        engine = self._engine()
        with pytest.raises(ValueError, match=field):
            self._offer(engine, door, **{field: value})
        served = self._offer(engine, door)
        assert served == 0
        assert [c.request.request_id for c in engine.run().completed] == [served]

    @pytest.mark.parametrize("door", ["submit_generation", "enqueue"])
    def test_an_integral_float_passes_as_its_int(self, door):
        engine = self._engine()
        self._offer(engine, door, max_new_tokens=3.0, stop_token=np.float64(15.0),
                    priority=2.0)
        (record,) = engine.run().completed
        values = (record.request.generation.max_new_tokens,
                  record.request.generation.stop_token, record.request.priority)
        assert values == (3, 15, 2) and all(type(value) is int for value in values)


class TestServingTraceMemoryContract:
    """The engine's bounded-memory contract for long-lived serving."""

    def _engine(self):
        cfg = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        pool = ClusterDispatcher.from_arrays(
            [SystolicArray(cfg), SystolicArray(cfg)], 0.25
        )
        engine = InferenceEngine(pool, max_batch_size=4, flush_timeout=1e-4)
        engine.register("bert", tiny_bert())
        return engine, pool

    def test_shard_traces_aggregate_only_by_default(self):
        engine, pool = self._engine()
        for row in RNG.integers(0, 16, size=(6, 8)):
            engine.submit("bert", row)
        report = engine.run()
        assert report.total_cycles > 0
        for shard in range(pool.n_shards):
            trace = pool.array_of(shard).trace
            assert not hasattr(trace, "events")  # bounded memory
            assert trace.tape is None  # nothing is taping the shard
            assert len(trace) > 0  # ...but every op was accounted
        assert sum(report.shard_cycles.values()) == sum(
            pool.array_of(s).total_cycles for s in range(pool.n_shards)
        )

    def test_sustained_run_memory_stays_flat(self):
        # 60 requests over 10 runs: every trace holds as many aggregate
        # keys after the last run as after the first, while the cycle
        # account keeps growing monotonically.
        engine, pool = self._engine()
        seen_cycles, sizes = 0, []
        for _ in range(10):
            for row in RNG.integers(0, 16, size=(6, 8)):
                engine.submit("bert", row)
            engine.run()
            total = sum(pool.array_of(s).total_cycles for s in range(pool.n_shards))
            assert total > seen_cycles
            seen_cycles = total
            sizes.append([
                sum(len(value) for value in vars(pool.array_of(s).trace).values()
                    if isinstance(value, dict))
                for s in range(pool.n_shards)
            ])
        assert sizes[-1] == sizes[0]
