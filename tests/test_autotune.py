"""Autotuning subsystem: traces, replay determinism, search, the front.

The two load-bearing contracts are property-based:

* **lossless persistence** — any :class:`TrafficTrace` survives a
  save→load round trip through one JSON file unchanged (hypothesis
  over request contents);
* **bit-identical replay** — the same trace under the same
  :class:`TuningConfig` produces reports with equal
  :func:`report_fingerprint` digests (hypothesis over trace seeds).

Around those: recorder capture (through every front door),
synthesis shapes, config-space operators, search determinism and its
independence from ``n_workers``, front dominance and resume,
the ``cost_aware`` occupancy-penalty knob (pinned no-op at 0.0, load
spreading above it), and the report's machine-readable
``objective_section``.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import (
    ConfigSpace,
    EndpointProfile,
    EndpointSpec,
    EvaluationFailedError,
    FrontEntry,
    Objective,
    TracedRequest,
    TraceRecorder,
    TrafficTrace,
    TuningConfig,
    TuningFront,
    WorkloadCostSpec,
    evaluate,
    evolutionary_search,
    load_trace,
    objective_from_report,
    pool_cost,
    random_search,
    replay_trace,
    report_fingerprint,
    save_trace,
    scalar_score,
    shard_cost,
    synthesize_trace,
)
from repro.nn.models import TinyBERT
from repro.serving import (
    BatchAssembler,
    ClusterSpec,
    DynamicBatcher,
    CostAwarePlacement,
    GenerationAdapter,
    InferenceEngine,
)
from repro.autotune.search import _evaluate_chunk
from repro.serving.deploy import _child_entry
from repro.systolic import SystolicConfig

MODEL_KWARGS = dict(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
    causal=True, seed=0,
)
COST = WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
ENDPOINTS = (
    EndpointSpec(name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS, cost=COST),
)
GEN_ENDPOINTS = (
    EndpointSpec(
        name="gen", factory=TinyBERT, kwargs=MODEL_KWARGS, generation=True
    ),
)

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
TINY = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6)
SKEWED_POOL = (BIG, MID, SLOW, TINY)
CATALOG = (BIG, MID, TINY)

SMALL_TRACE = synthesize_trace(
    "small",
    (EndpointProfile("bert", seq_len=8),),
    n_requests=8,
    horizon=1e-4,
    seed=7,
    shape="bursty",
    deadline_slack=1e-3,
)
SMALL_CONFIG = TuningConfig(
    pool=(MID, SLOW), placement="least_loaded",
    max_batch_size=4, flush_timeout=1e-4,
)


def _broken_factory(**kwargs):
    raise RuntimeError("this endpoint cannot be built")


traced_requests = st.builds(
    TracedRequest,
    model=st.sampled_from(["bert", "gen"]),
    inputs=st.lists(st.integers(0, 15), min_size=1, max_size=8).map(tuple),
    dtype=st.just("int64"),
    arrival=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tenant=st.sampled_from(["default", "team-a"]),
    priority=st.none() | st.integers(-3, 3),
    deadline=st.none() | st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    max_new_tokens=st.none() | st.integers(1, 8),
    stop_token=st.none() | st.integers(0, 15),
)


def _save_repeatedly(path, trace, times):
    """One writer process: publish ``trace`` at ``path`` over and over."""
    for _ in range(times):
        save_trace(trace, path)


class TestTraceRoundTrip:
    @given(st.lists(traced_requests, max_size=6), st.none() | st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_save_load_lossless_on_a_file(self, requests, seed):
        trace = TrafficTrace(name="prop", requests=tuple(requests), seed=seed)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "prop.json")
            save_trace(trace, path)
            loaded = load_trace(path)
            assert os.listdir(root) == ["prop.json"]  # no temp file left
        assert loaded == trace

    def test_truncated_trace_file_raises_and_stays(self, tmp_path):
        """A damaged trace is the only copy of the traffic: loading it
        raises and the file stays on disk for a human to look at."""
        path = tmp_path / "small.json"
        save_trace(SMALL_TRACE, path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(json.JSONDecodeError):
            load_trace(path)
        assert path.read_bytes() == whole[: len(whole) // 2]

    def test_concurrent_writers_publish_one_whole_trace(self, tmp_path):
        """Two processes each write their own trace to one path 20 times:
        the file is then one of the two, whole, and no temp file is left."""
        path = str(tmp_path / "shared.json")
        traces = (SMALL_TRACE, synthesize_trace(
            "other", (EndpointProfile("bert", seq_len=8),),
            n_requests=12, horizon=1e-4, seed=8,
        ))
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_save_repeatedly, args=(path, trace, 20))
            for trace in traces
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join()
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert load_trace(path) in traces
        assert os.listdir(tmp_path) == ["shared.json"]

    @given(traced_requests)
    @settings(max_examples=25, deadline=None)
    def test_request_survives_json(self, request):
        data = json.loads(json.dumps(request.to_dict()))
        assert TracedRequest.from_dict(data) == request

    def test_requests_sorted_by_arrival(self):
        late = TracedRequest("bert", (1,), "int64", arrival=2.0)
        early = TracedRequest("bert", (2,), "int64", arrival=1.0)
        trace = TrafficTrace(name="t", requests=(late, early))
        assert [r.arrival for r in trace.requests] == [1.0, 2.0]

    def test_trace_properties(self):
        trace = TrafficTrace(
            name="t",
            requests=(
                TracedRequest("b", (1,), "int64", 0.5, tenant="x"),
                TracedRequest("a", (2,), "int64", 1.5, max_new_tokens=3),
            ),
        )
        assert trace.n_requests == 2
        assert trace.tenants == ["default", "x"]
        assert trace.horizon == 1.5
        np.testing.assert_array_equal(
            trace.requests[0].inputs_array(), np.array([1], dtype=np.int64)
        )

    def test_version_mismatch_rejected(self):
        data = TrafficTrace(name="t", requests=()).to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version 999"):
            TrafficTrace.from_dict(data)

    def test_omitted_arrivals_replay_as_written_out(self):
        # A row without an arrival comes with the row before it, as at
        # every door, and is resolved before the trace sorts by arrival.
        rows = [
            {"model": "bert", "inputs": [1] * 8},
            {"model": "bert", "inputs": [2] * 8, "arrival": 3e-5},
            {"model": "bert", "inputs": [3] * 8},
            {"model": "bert", "inputs": [4] * 8, "arrival": 1e-5},
            {"model": "bert", "inputs": [5] * 8},
        ]
        written = [0.0, 3e-5, 3e-5, 1e-5, 1e-5]
        empty = TrafficTrace(name="t", requests=()).to_dict()
        omitted = TrafficTrace.from_dict(dict(empty, requests=rows))
        spelt = TrafficTrace.from_dict(dict(empty, requests=[
            dict(row, arrival=arrival) for row, arrival in zip(rows, written)
        ]))
        assert omitted == spelt and omitted.horizon == 3e-5
        assert [r.arrival for r in omitted.requests] == sorted(written)
        assert report_fingerprint(
            replay_trace(omitted, SMALL_CONFIG, ENDPOINTS)
        ) == report_fingerprint(replay_trace(spelt, SMALL_CONFIG, ENDPOINTS))

    def test_load_missing_trace_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "absent.json")


class TestRecorder:
    def _engine(self, recorder):
        dispatcher = ClusterSpec.homogeneous(MID, 2).build()
        engine = InferenceEngine(
            dispatcher, max_batch_size=4, flush_timeout=1e-4, recorder=recorder
        )
        model = TinyBERT(**MODEL_KWARGS)
        engine.register("bert", model)
        engine.register("gen", generation_adapter=GenerationAdapter(model))
        return engine

    def test_captures_submissions(self):
        recorder = TraceRecorder(name="live")
        engine = self._engine(recorder)
        rng = np.random.default_rng(0)
        engine.submit("bert", rng.integers(0, 16, 8), 0.0, tenant="default")
        engine.submit(
            "bert", rng.integers(0, 16, 8), 1e-5, priority=2, deadline=1e-3
        )
        engine.submit_generation(
            "gen", rng.integers(0, 16, 4), 4, 2e-5, stop_token=3
        )
        engine.run()
        assert len(recorder) == 3
        trace = recorder.trace()
        assert trace.name == "live"
        assert [r.model for r in trace.requests] == ["bert", "bert", "gen"]
        assert trace.requests[1].priority == 2
        assert trace.requests[1].deadline == 1e-3
        gen = trace.requests[2]
        assert gen.max_new_tokens == 4 and gen.stop_token == 3

    def test_captures_enqueued_traffic(self):
        recorder = TraceRecorder()
        engine = self._engine(recorder)
        rows = [
            {"model": "bert", "inputs": np.full(8, i, dtype=np.int64),
             "arrival": i * 1e-5}
            for i in range(3)
        ]
        engine.enqueue(iter(rows))
        report = engine.run()
        assert report.n_requests == 3
        assert len(recorder) == 3
        assert recorder.trace("enqueued").name == "enqueued"

    def test_captured_trace_replays(self):
        recorder = TraceRecorder()
        engine = self._engine(recorder)
        rng = np.random.default_rng(1)
        for i in range(4):
            engine.submit("bert", rng.integers(0, 16, 8), i * 1e-5)
        engine.run()
        report = replay_trace(recorder.trace(), SMALL_CONFIG, ENDPOINTS)
        assert report.n_requests == 4


class TestSynthesis:
    def test_same_seed_bit_identical(self):
        kwargs = dict(
            endpoints=(EndpointProfile("bert", seq_len=8),),
            n_requests=12, horizon=1e-3, seed=5, shape="bursty",
        )
        assert synthesize_trace("a", **kwargs) == synthesize_trace("a", **kwargs)

    @pytest.mark.parametrize("shape", ["bursty", "skewed", "conversational"])
    def test_shapes_produce_valid_traces(self, shape):
        trace = synthesize_trace(
            "t",
            (EndpointProfile("hot", seq_len=8, weight=4.0),
             EndpointProfile("cold", seq_len=8, weight=1.0)),
            n_requests=40, horizon=1e-3, seed=2, shape=shape,
            tenants=("a", "b"), deadline_slack=5e-4,
        )
        assert trace.n_requests == 40
        arrivals = [r.arrival for r in trace.requests]
        assert arrivals == sorted(arrivals)
        assert all(0.0 <= a <= 1e-3 for a in arrivals)
        assert all(r.deadline == pytest.approx(r.arrival + 5e-4)
                   for r in trace.requests)
        assert set(trace.tenants) <= {"a", "b"}

    def test_skewed_shape_concentrates_on_hot_endpoint(self):
        trace = synthesize_trace(
            "t",
            (EndpointProfile("hot", seq_len=8, weight=4.0),
             EndpointProfile("cold", seq_len=8, weight=1.0)),
            n_requests=60, horizon=1e-3, seed=0, shape="skewed",
        )
        hot = sum(1 for r in trace.requests if r.model == "hot")
        assert hot >= 48  # weight 4 squared: 16/17 of the mass

    def test_conversational_shape_shares_prefixes(self):
        trace = synthesize_trace(
            "t", (EndpointProfile("bert", seq_len=8),),
            n_requests=40, horizon=1e-3, seed=1, shape="conversational",
        )
        prefixes = {r.inputs[:4] for r in trace.requests}
        assert len(prefixes) < 40  # sessions re-use the first half

    def test_generation_endpoints_emit_generation_traffic(self):
        trace = synthesize_trace(
            "t", (EndpointProfile("gen", seq_len=8, max_new_tokens=4,
                                  stop_token=2),),
            n_requests=5, horizon=1e-3, seed=0,
        )
        assert all(r.max_new_tokens == 4 and r.stop_token == 2
                   for r in trace.requests)

    #: hostbench's three serving shapes, and one weighted two-endpoint mix.
    PINNED_CASES = {
        "bursty": dict(
            endpoints=(EndpointProfile("bert", seq_len=8),),
            shape="bursty", tenants=("tenant-a", "tenant-b"),
        ),
        "conversational": dict(
            endpoints=(EndpointProfile("chat", seq_len=8, max_new_tokens=8),),
            shape="conversational", tenants=("tenant-a", "tenant-b"),
        ),
        "skewed": dict(
            endpoints=(EndpointProfile("head", seq_len=8),),
            shape="skewed", tenants=tuple(f"tenant-{i}" for i in range(8)),
            deadline_slack=1.3e-6,
        ),
        "weighted": dict(
            endpoints=(
                EndpointProfile("hot", seq_len=8, weight=3.0),
                EndpointProfile("cold", seq_len=4, vocab=8, weight=1.0),
            ),
            shape="bursty", tenants=("a", "b", "c"),
        ),
    }
    #: sha256 of the ``to_dict()`` JSON of seeds 0, 1 and 2, recorded
    #: while the endpoint draw was ``rng.choice(len(endpoints), p=...)``.
    PINNED_DIGESTS = {
        "bursty": "f912994bcb24a7b70dece23d60af8c4b93166e97b05251c69a1423475065fa26",
        "conversational": "920e8394878d2eebb29ce7f04fb30b15420d0b4228ca237738742fb82c3838fd",
        "skewed": "794de051d2276540409b35218bebf6f4547202126b76ffbfbdfb951c08b7ad8e",
        "weighted": "36c96fd039cee9784db0eff8b7003bde59ff312dcda67075eea0a9b7edeffeb0",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_CASES))
    def test_seeded_streams_are_pinned(self, case):
        digest = hashlib.sha256()
        for seed in range(3):
            trace = synthesize_trace(
                case, n_requests=200, horizon=1e-3, seed=seed,
                **self.PINNED_CASES[case],
            )
            digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
        assert digest.hexdigest() == self.PINNED_DIGESTS[case]

    def test_rejects_bad_arguments(self):
        profile = EndpointProfile("bert", seq_len=8)
        with pytest.raises(ValueError, match="endpoints must be a non-empty tuple"):
            synthesize_trace("t", (), 4, 1e-3, 0)
        with pytest.raises(ValueError, match="shape must be one of"):
            synthesize_trace("t", (profile,), 4, 1e-3, 0, shape="steady")


class TestReplayDeterminism:
    @given(st.integers(0, 10_000))
    @settings(max_examples=5, deadline=None)
    def test_replay_twice_bit_identical(self, trace_seed):
        trace = synthesize_trace(
            "small", (EndpointProfile("bert", seq_len=8),), n_requests=8,
            horizon=1e-4, seed=trace_seed, shape="bursty", deadline_slack=1e-3,
        )
        first = replay_trace(trace, SMALL_CONFIG, ENDPOINTS)
        second = replay_trace(trace, SMALL_CONFIG, ENDPOINTS)
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_replay_completes_the_trace(self):
        report = replay_trace(SMALL_TRACE, SMALL_CONFIG, ENDPOINTS)
        assert report.n_requests == SMALL_TRACE.n_requests
        assert report.shed_count == 0 and report.failed_count == 0

    def test_generation_trace_replays_with_radix_cache(self):
        trace = synthesize_trace(
            "gen", (EndpointProfile("gen", seq_len=4, max_new_tokens=3),),
            n_requests=4, horizon=1e-4, seed=0, shape="conversational",
        )
        config = TuningConfig(
            pool=(MID,), max_batch_size=2, flush_timeout=1e-4,
            radix_budget_bytes=1 << 16,
        )
        report = replay_trace(trace, config, ENDPOINTS + GEN_ENDPOINTS)
        assert report.n_requests == 4
        assert report.tokens_per_second() > 0
        assert (report_fingerprint(report)
                == report_fingerprint(
                    replay_trace(trace, config, ENDPOINTS + GEN_ENDPOINTS)))

    def test_prefix_cache_replay_path(self):
        endpoints = (
            EndpointSpec(name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS,
                         prefix_len=4, cost=COST),
        )
        trace = synthesize_trace(
            "conv", (EndpointProfile("bert", seq_len=8),),
            n_requests=6, horizon=1e-4, seed=2, shape="conversational",
        )
        config = TuningConfig(
            pool=(MID,), max_batch_size=2, flush_timeout=1e-4,
            radix_budget_bytes=1 << 16,
        )
        report = replay_trace(trace, config, endpoints)
        assert report.n_requests == 6
        assert (report_fingerprint(report)
                == report_fingerprint(replay_trace(trace, config, endpoints)))

    def test_different_configs_score_independently(self):
        small = evaluate(SMALL_TRACE, TuningConfig(pool=(TINY,)), ENDPOINTS)
        large = evaluate(SMALL_TRACE, TuningConfig(pool=SKEWED_POOL), ENDPOINTS)
        assert large.cost > small.cost
        assert small.n_requests == large.n_requests == SMALL_TRACE.n_requests


class TestOccupancyPenalty:
    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="occupancy_penalty"):
            CostAwarePlacement(occupancy_penalty=-0.5)

    def _run(self, placement):
        dispatcher = ClusterSpec.heterogeneous(SKEWED_POOL).build()
        engine = InferenceEngine(
            dispatcher, max_batch_size=1, flush_timeout=1e-5,
            placement=placement,
        )
        engine.register(
            "bert", TinyBERT(**MODEL_KWARGS), cost_model=COST.build()
        )
        rng = np.random.default_rng(3)
        for i in range(24):
            engine.submit("bert", rng.integers(0, 16, 8), i * 1e-7)
        return engine.run()

    def test_zero_penalty_pinned_to_default_cost_aware(self):
        # The knob's off position is bit-identical to the registry
        # default: eta + 0.0 * backlog == eta exactly in IEEE.
        baseline = self._run("cost_aware")
        pinned = self._run(CostAwarePlacement(occupancy_penalty=0.0))
        assert report_fingerprint(pinned) == report_fingerprint(baseline)
        assert CostAwarePlacement().occupancy_penalty == 0.0

    def test_penalty_spreads_burst_load(self):
        trace = synthesize_trace(
            "spread", (EndpointProfile("bert", seq_len=8),),
            n_requests=32, horizon=1e-5, seed=3, shape="bursty",
            deadline_slack=1e-3,
        )

        def peak_fraction(penalty):
            config = TuningConfig(
                pool=SKEWED_POOL, placement="cost_aware",
                occupancy_penalty=penalty, max_batch_size=1,
                flush_timeout=1e-5,
            )
            report = replay_trace(trace, config, ENDPOINTS)
            return max(report.shard_busy.values()) / sum(
                report.shard_busy.values()
            ), report_fingerprint(report)

        greedy_peak, greedy_fp = peak_fraction(0.0)
        spread_peak, spread_fp = peak_fraction(1.0)
        assert spread_fp != greedy_fp
        assert spread_peak < greedy_peak

    def test_penalty_named_in_policy_and_config(self):
        assert "occ=1.5" in CostAwarePlacement(occupancy_penalty=1.5).name
        config = TuningConfig(
            pool=(MID,), placement="cost_aware", occupancy_penalty=1.5
        )
        assert "occ=1.5" in config.describe()


class TestTuningConfig:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sample_and_mutate_stay_in_space(self, seed):
        rng = np.random.default_rng(seed)
        space = ConfigSpace(catalog=CATALOG, max_shards=3)
        config = space.sample(rng)
        for candidate in (config, space.mutate(config, rng),
                          space.crossover(config, space.sample(rng), rng)):
            assert 1 <= len(candidate.pool) <= 3
            assert all(shard in CATALOG for shard in candidate.pool)
            assert candidate.placement in space.placements
            assert candidate.max_batch_size in space.batch_sizes
            assert candidate.flush_timeout in space.flush_timeouts
            if candidate.placement != "cost_aware":
                assert candidate.occupancy_penalty == 0.0

    def test_seeded_operators_are_pinned(self):
        # sha256 recorded while the space also drew the admission cap and
        # both cache budgets from single-value ranges: ``rng.integers(0,
        # 1)`` consumes no bits, so removing those ranges kept the stream.
        # Rows are serialised as they were then: with the retired
        # ``prefix_budget_bytes`` key and the retired pool-resizing
        # switch, which no space ever set.
        digest = hashlib.sha256()
        for space in (
            ConfigSpace(catalog=CATALOG),
            ConfigSpace(catalog=CATALOG, max_shards=2,
                        placements=("cost_aware", "lookahead")),
        ):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                first, second = space.sample(rng), space.sample(rng)
                walk = [first, second]
                for _ in range(8):
                    first = space.mutate(first, rng)
                    second = space.crossover(first, second, rng)
                    walk += [first, second]
                rows = [
                    dict(
                        dataclasses.asdict(config),
                        autoscale=False, prefix_budget_bytes=None,
                    )
                    for config in walk
                ]
                digest.update(json.dumps(
                    [rows, int(rng.integers(0, 2**62))], sort_keys=True
                ).encode())
        assert digest.hexdigest() == (
            "f6ed4d97ba771c22edefca4741f486e15867b1fcb612d3facb19787ccf3f6d72"
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="pool must be a non-empty tuple"):
            TuningConfig(pool=())
        with pytest.raises(ValueError, match="placement must be one of"):
            TuningConfig(pool=(MID,), placement="psychic")
        with pytest.raises(ValueError, match="occupancy_penalty"):
            TuningConfig(pool=(MID,), occupancy_penalty=-1.0)
        with pytest.raises(ValueError, match="max_batch_size"):
            TuningConfig(pool=(MID,), max_batch_size=0)
        # Values the engine refuses are refused here too, not at replay.
        with pytest.raises(ValueError, match="flush_timeout must be a finite number >= 0"):
            TuningConfig(pool=(MID,), flush_timeout=-1e-3)
        with pytest.raises(ValueError, match="max_queue_depth must be an integer >= 1"):
            TuningConfig(pool=(MID,), max_queue_depth=0)
        with pytest.raises(ValueError, match="radix_budget_bytes must be an integer >= 1"):
            TuningConfig(pool=(MID,), radix_budget_bytes=0)
        for depth in (1.5, True):
            with pytest.raises(ValueError, match="max_queue_depth must be an integer"):
                TuningConfig(pool=(MID,), max_queue_depth=depth)
        config = TuningConfig(pool=(MID,), max_queue_depth=3.0)
        assert config.max_queue_depth == 3 and type(config.max_queue_depth) is int
        # Accepted before, each without a check of its own.
        for penalty in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="occupancy_penalty must be a finite number >= 0"):
                TuningConfig(pool=(MID,), occupancy_penalty=penalty)
        for budget in (1.5, True):
            with pytest.raises(ValueError, match="radix_budget_bytes must be an integer >= 1"):
                TuningConfig(pool=(MID,), radix_budget_bytes=budget)
        for steal in (1, "yes"):
            with pytest.raises(ValueError, match="steal must be a bool"):
                TuningConfig(pool=(MID,), steal=steal)

    @pytest.mark.parametrize("door", ["TuningConfig", "BatchAssembler", "DynamicBatcher"])
    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(max_batch_size=2.5), "max_batch_size must be an integer"),
            (dict(max_batch_size=True), "max_batch_size must be an integer"),
            (dict(flush_timeout=float("nan")), "flush_timeout must be a finite number >= 0"),
            (dict(flush_timeout=float("inf")), "flush_timeout must be a finite number >= 0"),
        ],
        ids=["fractional-size", "bool-size", "nan-timeout", "inf-timeout"],
    )
    def test_batch_knobs_are_refused_not_truncated(self, door, knobs, message):
        """Every door that builds a batcher refuses what ``int()`` would
        truncate (2.5 to a cap of 2, ``True`` to 1) and a timeout that is
        not a finite number, which would otherwise fail inside ``run()``."""
        make = {
            "TuningConfig": lambda **kw: TuningConfig(pool=(MID,), **kw),
            "BatchAssembler": BatchAssembler,
            "DynamicBatcher": DynamicBatcher,
        }[door]
        with pytest.raises(ValueError, match=message):
            make(**knobs)
        whole = make(max_batch_size=4.0, flush_timeout=0)
        assert whole.max_batch_size == 4 and type(whole.max_batch_size) is int
        assert whole.flush_timeout == 0.0

    def test_space_validation_errors(self):
        with pytest.raises(ValueError, match="catalog"):
            ConfigSpace(catalog=())
        with pytest.raises(ValueError, match="max_shards"):
            ConfigSpace(catalog=CATALOG, max_shards=0)
        with pytest.raises(ValueError, match="placements must be a non-empty tuple, each item one of"):
            ConfigSpace(catalog=CATALOG, placements=("psychic",))
        # Each range is checked item by item: sample() truncated a batch
        # size of 2.5 to 2, and a negative timeout raised at the first draw.
        for knobs, field in [
            (dict(batch_sizes=(2.5,)), "batch_sizes"),
            (dict(flush_timeouts=(-1.0,)), "flush_timeouts"),
            (dict(max_shards=2.5), "max_shards"),
            (dict(occupancy_penalties=(float("nan"),)), "occupancy_penalties"),
        ]:
            with pytest.raises(ValueError, match=f"{field} must be"):
                ConfigSpace(catalog=CATALOG, **knobs)

    def test_describe_lists_pool_and_knobs(self):
        text = TuningConfig(pool=(BIG, TINY), max_batch_size=4).describe()
        assert "8x8x16@250MHz" in text and "4x4x2@100MHz" in text
        assert "placement=round_robin" in text and "batch<= 4" in text


class TestObjective:
    def test_objective_section_is_machine_readable(self):
        report = replay_trace(SMALL_TRACE, SMALL_CONFIG, ENDPOINTS)
        section = report.objective_section()
        assert section["n_requests"] == report.n_requests
        assert section["shed"] == report.shed_count
        assert "failed" not in section  # one engine completes or sheds
        assert section["p99"] == report.p99
        assert section["total_cycles"] == report.total_cycles
        assert 0.0 <= section["slo_attainment"] <= 1.0
        assert section["shed_rate"] == 0.0
        assert json.dumps(section)  # JSON-safe throughout

    def test_objective_section_without_deadlines(self):
        trace = synthesize_trace(
            "nodl", (EndpointProfile("bert", seq_len=8),),
            n_requests=3, horizon=1e-4, seed=0,
        )
        report = replay_trace(trace, SMALL_CONFIG, ENDPOINTS)
        assert report.objective_section()["slo_attainment"] is None
        # None reads as "no SLO defined", scored as perfect attainment.
        assert objective_from_report(report, SMALL_CONFIG.pool).slo_attainment == 1.0

    def test_pool_cost_is_additive_and_monotone(self):
        assert pool_cost((MID, TINY)) == pytest.approx(
            shard_cost(MID) + shard_cost(TINY)
        )
        assert shard_cost(BIG) > shard_cost(TINY) > 0

    def test_objective_round_trips(self):
        objective = Objective(
            cost=12.5, slo_attainment=0.75, p99=3e-4, tokens_per_sec=100.0,
            n_requests=9, shed=2,
        )
        assert Objective(**json.loads(json.dumps(objective.to_dict()))) == objective

    def test_scalar_score_orders_honestly(self):
        served = Objective(10.0, 1.0, 1e-4, 0.0, n_requests=10)
        shedding = Objective(10.0, 1.0, 1e-4, 0.0, n_requests=5, shed=5)
        all_shed = Objective(10.0, 1.0, 0.0, 0.0, n_requests=0, shed=10)
        assert scalar_score(served) < scalar_score(shedding)
        assert scalar_score(all_shed) == float("inf")
        # Cheaper-but-equal wins; slower tail loses.
        assert scalar_score(Objective(5.0, 1.0, 1e-4, 0.0, n_requests=10)) \
            < scalar_score(served)
        assert scalar_score(Objective(10.0, 1.0, 2e-4, 0.0, n_requests=10)) \
            > scalar_score(served)


class TestFront:
    def _entry(self, cost, slo, p99, tok, batch=8):
        return FrontEntry(
            config=TuningConfig(pool=(MID,), max_batch_size=batch),
            objective=Objective(cost, slo, p99, tok, n_requests=1),
        )

    def test_dominated_entries_fall_off(self):
        good = self._entry(1.0, 1.0, 1e-4, 10.0, batch=2)
        dominated = self._entry(2.0, 0.5, 2e-4, 5.0, batch=4)
        incomparable = self._entry(0.5, 0.1, 5e-5, 1.0, batch=8)
        front = TuningFront.from_entries(
            "t", (good, dominated, incomparable)
        )
        assert front.n_entries == 2
        assert dominated not in front.entries
        assert front.best() == good

    def test_duplicate_configs_deduped_on_merge(self):
        entry = self._entry(1.0, 1.0, 1e-4, 10.0)
        front = TuningFront.from_entries("t", (entry,), evaluated=1)
        merged = front.merge((entry,), evaluated=1)
        assert merged.n_entries == 1
        assert merged.evaluated == 2

    def test_best_on_empty_front_raises(self):
        with pytest.raises(ValueError, match="empty"):
            TuningFront.from_entries("t", ()).best()

    def test_describe_reports_survivors(self):
        front = TuningFront.from_entries(
            "demo", (self._entry(1.0, 0.9, 1e-4, 3.0),), evaluated=7
        )
        text = front.describe()
        assert "1 non-dominated of 7 evaluated" in text
        assert "placement=round_robin" in text


class TestSearch:
    SPACE = ConfigSpace(
        catalog=(MID, TINY), max_shards=2,
        batch_sizes=(2, 4), flush_timeouts=(1e-4,),
    )

    def test_random_search_is_seed_deterministic(self):
        runs = [
            random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                          n_candidates=3, seed=11)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].evaluated == 3
        assert runs[0].n_entries >= 1

    def test_result_is_independent_of_n_workers(self):
        serial = random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                               n_candidates=4, seed=5, n_workers=1)
        fanned = random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                               n_candidates=4, seed=5, n_workers=2)
        assert serial == fanned

    def test_resume_accumulates_into_the_front(self):
        first = random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                              n_candidates=2, seed=1)
        resumed = random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                                n_candidates=2, seed=2, front=first)
        assert resumed.evaluated == 4
        # Everything on the resumed front is at least as good as the
        # first run's best (dominance never regresses on resume).
        assert resumed.best().score <= first.best().score

    def test_evolutionary_search_runs_and_merges(self):
        front = evolutionary_search(
            SMALL_TRACE, self.SPACE, ENDPOINTS,
            generations=2, population=3, seed=4,
        )
        assert front.evaluated == 6
        assert front.n_entries >= 1
        again = evolutionary_search(
            SMALL_TRACE, self.SPACE, ENDPOINTS,
            generations=2, population=3, seed=4,
        )
        assert front == again

    def test_evolutionary_resume_seeds_population(self):
        first = random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                              n_candidates=2, seed=9)
        resumed = evolutionary_search(
            SMALL_TRACE, self.SPACE, ENDPOINTS,
            generations=1, population=2, seed=9, front=first,
        )
        assert resumed.evaluated == 4
        assert resumed.best().score <= first.best().score

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n_candidates"):
            random_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                          n_candidates=0, seed=0)
        with pytest.raises(ValueError, match="generations"):
            evolutionary_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                                generations=0, population=2, seed=0)
        with pytest.raises(ValueError, match="population"):
            evolutionary_search(SMALL_TRACE, self.SPACE, ENDPOINTS,
                                generations=1, population=1, seed=0)

    def test_child_entry_delivers_scores_over_the_pipe(self):
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        _child_entry(
            _evaluate_chunk, (SMALL_TRACE, [SMALL_CONFIG], ENDPOINTS), child_conn
        )
        objectives = parent_conn.recv()
        parent_conn.close()
        assert len(objectives) == 1
        assert objectives[0] == evaluate(SMALL_TRACE, SMALL_CONFIG, ENDPOINTS)

    def test_worker_death_raises_evaluation_failed(self):
        broken = (
            EndpointSpec(name="bert", factory=_broken_factory, kwargs={}),
        )
        with pytest.raises(EvaluationFailedError, match="worker"):
            random_search(SMALL_TRACE, self.SPACE, broken,
                          n_candidates=2, seed=0, n_workers=2)
