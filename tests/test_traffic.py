"""Traffic as data: one request description through every front door.

``repro.serving.request.TracedRequest`` is what a recorder captures, a
trace stores, and ``enqueue`` / ``replay_trace`` accept (or a mapping
of its field names); ``submit`` / ``submit_generation`` are its keyword
spellings.  These tests pin what that buys:

* the same trace — classification, generation, or both on one engine —
  serves identically through the replay front and the keyword doors;
* a recorder's capture and ``to_dict()`` rows from JSON are servable
  with no conversion code;
* the recorder sees *validated submissions*: a request the queue cap
  sheds is in the trace, and a replay sheds it again; a list that
  fails validation is neither recorded nor numbered.
"""

import json

import numpy as np
import pytest

from repro.autotune import (
    EndpointProfile,
    TraceRecorder,
    TuningConfig,
    build_engine,
    replay_trace,
    report_fingerprint,
    synthesize_trace,
)
from repro.nn.executor import ArrayBackend
from repro.nn.models import TinyBERT
from repro.serving import EndpointSpec, TracedRequest, WorkloadCostSpec
from repro.systolic import SystolicArray, SystolicConfig

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
GRANULARITY = 0.25
TENANTS = ("tenant-a", "tenant-b")


def _bert(seq_len, causal):
    return dict(
        vocab=16, seq_len=seq_len, dim=8, heads=2, ff_dim=16, n_layers=1,
        causal=causal, seed=0,
    )


CLASSIFIER = EndpointSpec(
    "bert", TinyBERT, _bert(8, causal=False),
    cost=WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1),
)
CHAT = EndpointSpec("chat", TinyBERT, _bert(16, causal=True), generation=True)
PROFILES = {
    "bert": EndpointProfile("bert", seq_len=8, vocab=16),
    "chat": EndpointProfile("chat", seq_len=8, vocab=16, max_new_tokens=4),
}
TUNING = TuningConfig(
    pool=(BIG, MID), placement="cost_aware", max_batch_size=4,
    flush_timeout=1e-5, radix_budget_bytes=1 << 20,
)


def _trace(endpoints, n=48, seed=3):
    shape = "conversational" if CHAT in endpoints else "bursty"
    return synthesize_trace(
        "traffic", [PROFILES[e.name] for e in endpoints], n, n * 2e-6, seed,
        shape, tenants=TENANTS,
    )


def _rows(report):
    """Output rows keyed by what identifies a request in every engine."""
    rows = {
        (r.request.model, r.request.arrival, r.request.inputs.tobytes()): r.outputs
        for r in report.completed
    }
    assert len(rows) == len(report.completed)
    return rows


def _assert_same_rows(report, reference):
    rows, expected = _rows(report), _rows(reference)
    assert rows.keys() == expected.keys()
    for key, row in rows.items():
        assert row.dtype == expected[key].dtype
        assert np.array_equal(row, expected[key])


def _assert_tokens_are_recompute_per_token(report):
    model = CHAT.factory(**CHAT.kwargs)
    backend = ArrayBackend(SystolicArray(BIG), GRANULARITY)
    generated = [r for r in report.completed if r.request.generation is not None]
    assert generated
    for record in generated:
        generation = record.request.generation
        expected = model.generate(
            generation.prompt[None], generation.max_new_tokens, backend,
            stop_token=generation.stop_token,
        )[0]
        assert np.array_equal(record.outputs, expected)


@pytest.mark.parametrize(
    "endpoints",
    [(CHAT,), (CLASSIFIER,), (CLASSIFIER, CHAT)],
    ids=["generation", "classification", "mixed"],
)
def test_one_trace_serves_identically_through_every_door(endpoints):
    trace = _trace(endpoints)
    assert {r.model for r in trace.requests} == {e.name for e in endpoints}
    replayed = replay_trace(trace, TUNING, endpoints)
    assert len(replayed.completed) == trace.n_requests
    if CHAT in endpoints:
        assert replayed.generation_steps and replayed.prefix_events
        _assert_tokens_are_recompute_per_token(replayed)

    engine = build_engine(TUNING, endpoints, tenants=trace.tenants)
    for r in trace.requests:
        when = dict(
            arrival=r.arrival, tenant=r.tenant, priority=r.priority, deadline=r.deadline
        )
        if r.max_new_tokens is None:
            engine.submit(r.model, r.inputs_array(), **when)
        else:
            engine.submit_generation(
                r.model, r.inputs_array(), r.max_new_tokens,
                stop_token=r.stop_token, **when,
            )
    submitted = engine.run()

    assert report_fingerprint(submitted) == report_fingerprint(replayed)
    _assert_same_rows(submitted, replayed)


def test_a_capture_and_its_json_rows_are_servable_as_they_are():
    trace = _trace((CLASSIFIER, CHAT), n=24)
    recorder = TraceRecorder()
    engine = build_engine(TUNING, (CLASSIFIER, CHAT), tenants=trace.tenants)
    engine.recorder = recorder
    ids = engine.enqueue(trace.requests)
    first = engine.run()
    assert ids == list(range(trace.n_requests))
    captured = recorder.trace()
    assert captured.requests == trace.requests

    replayed = replay_trace(captured, TUNING, (CLASSIFIER, CHAT))
    assert report_fingerprint(replayed) == report_fingerprint(first)

    rows = json.loads(json.dumps([r.to_dict() for r in captured.requests]))
    engine = build_engine(TUNING, (CLASSIFIER, CHAT), tenants=trace.tenants)
    engine.enqueue(rows)
    served = engine.run()
    assert report_fingerprint(served) == report_fingerprint(first)
    _assert_same_rows(served, first)


def test_recorder_captures_validated_submissions_shed_ones_included():
    """The recorder runs before admission control, so a request the
    queue cap sheds is in the trace — a replay must offer it again."""
    tuning = TuningConfig(
        pool=(MID,), max_batch_size=4, flush_timeout=1e-5, max_queue_depth=4
    )
    rows = np.random.default_rng(5).integers(0, 16, size=(12, 8))
    recorder = TraceRecorder()
    engine = build_engine(tuning, (CLASSIFIER,), tenants=("default",))
    engine.recorder = recorder
    for row in rows:
        engine.submit("bert", row, arrival=0.0)
    live = engine.run()
    shed = sorted(record.request.request_id for record in live.shed)
    assert shed and len(recorder) == len(rows) == len(live.completed) + len(shed)

    replayed = replay_trace(recorder.trace(), tuning, (CLASSIFIER,))
    assert sorted(r.request.request_id for r in replayed.shed) == shed
    assert report_fingerprint(replayed) == report_fingerprint(live)


def test_a_list_that_fails_validation_leaves_the_engine_as_it_was():
    """``enqueue`` checks the whole list before it numbers, records or
    queues any of it: a bad row used to leave the rows before it in the
    recorder and move the next id and the default arrival."""
    recorder = TraceRecorder()
    engine = build_engine(TUNING, (CLASSIFIER,), tenants=("default",))
    engine.recorder = recorder
    row = list(range(8))
    with pytest.raises(ValueError, match="arrival must be finite"):
        engine.enqueue([
            {"model": "bert", "inputs": row, "arrival": 5.0},
            {"model": "bert", "inputs": row, "arrival": -1.0},
        ])
    assert len(recorder) == 0
    assert engine.submit("bert", np.array(row)) == 0
    (record,) = engine.run().completed
    assert record.request.arrival == 0.0
    assert len(recorder) == 1


def test_a_mapping_defaults_like_submit_keywords():
    row = np.arange(8, dtype=np.int32)
    described = TracedRequest.from_dict({"model": "bert", "inputs": row})
    assert described == TracedRequest("bert", tuple(range(8)), "int32", None)
    assert described.tenant == "default" and described.max_new_tokens is None
    assert np.array_equal(described.inputs_array(), row)
    assert described.inputs_array().dtype == row.dtype
    spelt_out = dict(described.to_dict(), max_new_tokens=3, stop_token=None)
    assert TracedRequest.from_dict(json.loads(json.dumps(spelt_out))) == (
        TracedRequest("bert", tuple(range(8)), "int32", None, max_new_tokens=3)
    )
