"""Traffic as data: one request description through every front door.

``repro.serving.request.TracedRequest`` is what a recorder captures, a
trace stores, and ``enqueue`` / ``run(request_source=)`` /
``serve_multiproc`` / ``replay_trace`` accept (or a mapping of its field
names).  These tests pin what that buys:

* the same trace — classification, generation, or both on one engine —
  serves identically through the replay front, a streaming
  ``request_source`` and an in-process fleet;
* a forked fleet serves generation traffic exactly once, also through a
  worker death and the redistribution that follows;
* a recorder's capture and ``to_dict()`` rows from JSON are servable
  with no conversion code;
* the recorder sees *validated submissions*: a request the queue cap
  sheds is in the trace, and a replay sheds it again.
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
from repro.serving import (
    ClusterSpec,
    EndpointSpec,
    FaultPlan,
    TenantConfig,
    TracedRequest,
    WorkerDeath,
    WorkloadCostSpec,
    serve_multiproc,
)
from repro.serving.deploy import private_store
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


def _fleet(endpoints, requests, n_workers=1, tuning=TUNING, **kw):
    """The fleet front given the deployment ``build_engine`` maps
    ``tuning`` onto."""
    return serve_multiproc(
        ClusterSpec.heterogeneous(tuning.pool),
        endpoints,
        requests,
        n_workers=n_workers,
        placement=tuning.placement,
        max_batch_size=tuning.max_batch_size,
        flush_timeout=tuning.flush_timeout,
        radix_budget_bytes=tuning.radix_budget_bytes,
        tenants=[
            TenantConfig(tenant, max_queue_depth=tuning.max_queue_depth)
            for tenant in TENANTS
        ],
        **kw,
    ).merged


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

    with private_store():
        engine = build_engine(TUNING, endpoints, tenants=trace.tenants)
        streamed = engine.run(request_source=trace.requests)
    fleet = _fleet(endpoints, trace.requests)

    for served in (streamed, fleet):
        assert report_fingerprint(served) == report_fingerprint(replayed)
        _assert_same_rows(served, replayed)


def test_forked_fleet_serves_a_generation_trace_exactly_once():
    trace = _trace((CHAT,))
    tuning = TuningConfig(
        pool=(BIG, BIG), max_batch_size=4, flush_timeout=1e-5,
        radix_budget_bytes=1 << 20,
    )
    offered = {("chat", r.arrival, r.inputs_array().tobytes()) for r in trace.requests}
    assert len(offered) == trace.n_requests

    served = _fleet((CHAT,), trace.requests, n_workers=2, tuning=tuning)
    assert not served.failed and not served.shed
    assert _rows(served).keys() == offered  # each once, none invented
    _assert_tokens_are_recompute_per_token(served)

    # Worker 1 dies, is not restarted, and its requests — generation
    # parameters and all — re-run on worker 0's block, shifted.
    death = FaultPlan(events=(WorkerDeath(worker=1, at=trace.horizon / 2),))
    survived = _fleet(
        (CHAT,), trace.requests, n_workers=2, tuning=tuning,
        fault_plan=death, supervise=True, max_restarts=0,
    )
    assert survived.worker_redistributions == 1
    assert not survived.failed and not survived.shed
    assert {c.shard for c in survived.completed} == {0}
    rows, healthy = _rows(survived), _rows(served)
    assert len(rows) == trace.n_requests
    by_prompt = {(key[0], key[2]): row for key, row in healthy.items()}
    for (model, arrival, prompt), row in rows.items():
        assert np.array_equal(row, by_prompt[model, prompt])
    shifted = sorted(key[1] for key in rows.keys() - healthy.keys())
    assert len(shifted) == len(trace.requests[1::2])
    assert shifted[0] > trace.horizon


def test_a_lost_worker_reports_generation_requests_failed():
    # Both workers die at once: worker 0 finds no survivor and reports
    # its requests lost; worker 1 then re-runs on worker 0's idle block.
    trace = _trace((CHAT,), n=8)
    plan = FaultPlan(
        events=(WorkerDeath(worker=0, at=0.0), WorkerDeath(worker=1, at=0.0))
    )
    merged = _fleet(
        (CHAT,), trace.requests, n_workers=2, fault_plan=plan,
        supervise=True, max_restarts=0,
    )
    assert merged.failed_by_reason() == {"worker_lost": 4}
    assert len(merged.completed) == 4
    lost = {
        (f.request.arrival, f.request.inputs.tobytes()): f.request.generation
        for f in merged.failed
    }
    for request in trace.requests[0::2]:
        generation = lost[request.arrival, request.inputs_array().tobytes()]
        assert generation.max_new_tokens == request.max_new_tokens == 4
        assert np.array_equal(generation.prompt, request.inputs_array())


def test_a_capture_and_its_json_rows_are_servable_as_they_are():
    trace = _trace((CLASSIFIER, CHAT), n=24)
    recorder = TraceRecorder()
    with private_store():
        engine = build_engine(TUNING, (CLASSIFIER, CHAT), tenants=trace.tenants)
        engine.recorder = recorder
        ids = engine.enqueue(trace.requests)
        first = engine.run()
    assert ids == list(range(trace.n_requests))
    captured = recorder.trace()
    assert captured.requests == trace.requests

    fleet = _fleet((CLASSIFIER, CHAT), captured.requests)
    assert report_fingerprint(fleet) == report_fingerprint(first)

    rows = json.loads(json.dumps([r.to_dict() for r in captured.requests]))
    with private_store():
        engine = build_engine(TUNING, (CLASSIFIER, CHAT), tenants=trace.tenants)
        streamed = engine.run(request_source=rows)
    assert report_fingerprint(streamed) == report_fingerprint(first)
    _assert_same_rows(streamed, first)


def test_recorder_captures_validated_submissions_shed_ones_included():
    """The recorder runs before admission control, so a request the
    queue cap sheds is in the trace — a replay must offer it again."""
    tuning = TuningConfig(
        pool=(MID,), max_batch_size=4, flush_timeout=1e-5, max_queue_depth=4
    )
    rows = np.random.default_rng(5).integers(0, 16, size=(12, 8))
    recorder = TraceRecorder()
    with private_store():
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
