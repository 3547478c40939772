"""One path from deployment-as-data to a running engine.

``repro.serving.deploy`` holds the one endpoint-by-construction class
and the one engine assembler; the replay front (``replay_trace``) and
the searches are its clients.  These tests pin what that buys:

* an endpoint's closed-form cost model reaches the engine it is
  assembled into: without it the same replay is another run;
* what a deployment's shapes are charged is memoised on its
  ``EndpointSpec``: engines assembled from one spec object share trace
  tapes — and no report can tell, whatever the kind of endpoint or
  pool — while an equal-but-distinct spec, a pickled or copied
  one, or one whose ``kwargs`` changed shares nothing;
* what a shape is *priced* is memoised where the closed form is defined
  (per ``WorkloadCostSpec`` value, and process-wide for generation), so
  any later engine prices without building an op inventory.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.workload as workload_module
from repro.autotune import (
    EndpointProfile,
    TuningConfig,
    build_engine,
    replay_trace,
    report_fingerprint,
    synthesize_trace,
)
from repro.nn.models import TinyBERT
from repro.nn.workload import transformer_prefill_cycles
from repro.serving import EndpointSpec, WorkloadCostSpec
from repro.serving.cluster import BatchProfile
from repro.systolic import SystolicConfig

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
ENDPOINT = EndpointSpec(
    name="bert",
    factory=TinyBERT,
    kwargs=dict(
        vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
        causal=False, seed=0,
    ),
    cost=WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1),
)


def test_an_endpoint_without_its_closed_form_cost_is_another_run():
    n = 200
    trace = synthesize_trace(
        "bursty", (EndpointProfile("bert", seq_len=8, vocab=16),), n, n * 1e-6,
        0, "bursty", tenants=("tenant-a", "tenant-b"), deadline_slack=1e-3,
    )
    tuning = TuningConfig(
        pool=(BIG, MID, SLOW), placement="cost_aware",
        max_batch_size=4, flush_timeout=1e-4,
    )
    served = replay_trace(trace, tuning, (ENDPOINT,))
    assert served.n_requests == n
    # The engine priced batches with the closed form it was handed, not
    # with the calibrator's fallback: without it the run is another run.
    unpriced = dataclasses.replace(ENDPOINT, cost=None)
    assert report_fingerprint(
        replay_trace(trace, tuning, (unpriced,))
    ) != report_fingerprint(served)


# ---------------------------------------------------------------------------
# Tapes outlive the engine: memoised on the spec object, seen by no report.
# ---------------------------------------------------------------------------
def _bert_kwargs(seq_len=8, causal=False, n_layers=1):
    return dict(
        vocab=16, seq_len=seq_len, dim=8, heads=2, ff_dim=16, n_layers=n_layers,
        causal=causal, seed=0,
    )


def _classifier():
    return EndpointSpec("bert", TinyBERT, _bert_kwargs())


def _prefix_classifier():
    return EndpointSpec("bert", TinyBERT, _bert_kwargs(causal=True), prefix_len=4)


def _chat():
    return EndpointSpec("chat", TinyBERT, _bert_kwargs(16, causal=True), generation=True)


def _traffic(spec, n, seed):
    if spec.generation:
        profile = EndpointProfile(spec.name, seq_len=8, vocab=16, max_new_tokens=6)
        return synthesize_trace(
            "chat", (profile,), n, n * 1e-4, seed, "conversational",
            tenants=("tenant-a", "tenant-b"),
        )
    shape = "bursty" if spec.prefix_len is None else "conversational"
    return synthesize_trace(
        "burst", (EndpointProfile(spec.name, seq_len=8, vocab=16),), n, n * 2e-5,
        seed, shape, tenants=("tenant-a", "tenant-b"),
    )


TUNING = TuningConfig(
    pool=(BIG, MID), placement="cost_aware", max_batch_size=8,
    radix_budget_bytes=1 << 20,
)


def _assert_same_report(ours, theirs):
    assert report_fingerprint(ours) == report_fingerprint(theirs)
    assert len(ours.completed) == len(theirs.completed) > 0
    for mine, other in zip(ours.completed, theirs.completed):
        assert mine.outputs.dtype == other.outputs.dtype
        assert np.array_equal(mine.outputs, other.outputs)


@pytest.mark.parametrize("make", [_classifier, _prefix_classifier, _chat])
def test_replays_of_one_spec_share_tapes_and_no_report_can_tell(make):
    spec = make()
    trace = _traffic(spec, 96, seed=3)
    reference = replay_trace(trace, TUNING, (make(),))
    for _ in range(3):
        _assert_same_report(replay_trace(trace, TUNING, (spec,)), reference)
    # The memo was in use — filled by the first replay, read by the
    # others — except by prefix-keyed batches, which execute per unit.
    assert bool(spec.tapes) == (spec.prefix_len is None)


class _Taped(TinyBERT):
    """Logs whether each model call ran while its shard's array was
    taping — a first-of-shape execution.  Stacked and lockstep passes run
    detached, on a scratch trace with no tape."""

    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self._taped = log

    def _log(self, backend):
        self._taped.append(backend.array.trace.tape is not None)

    def infer(self, tokens, backend, kv=None):
        self._log(backend)
        return super().infer(tokens, backend, kv)

    def prefill(self, tokens, backend, cached=None):
        self._log(backend)
        return super().prefill(tokens, backend, cached=cached)

    def decode_step(self, state, tokens, backend):
        self._log(backend)
        return super().decode_step(state, tokens, backend)


def _taped(spec, log):
    """``spec`` with the model's calls logged to ``log``."""
    return dataclasses.replace(spec, factory=_Taped, kwargs=dict(spec.kwargs, log=log))


@pytest.mark.parametrize("make", [_classifier, _chat])
def test_second_replay_executes_no_shape_for_the_first_time(make):
    log = []
    spec = _taped(make(), log)
    trace = _traffic(spec, 96, seed=1)
    replay_trace(trace, TUNING, (spec,))
    first, log[:] = list(log), []
    assert any(first)
    replay_trace(trace, TUNING, (spec,))
    # Only stacked / lockstep passes: far fewer calls, none of them taped.
    assert log and not any(log)
    assert len(log) <= len(first) - sum(first)


def test_an_equal_but_distinct_spec_shares_nothing():
    logs = [], []
    specs = [_taped(_classifier(), log) for log in logs]
    assert specs[0] == specs[1]
    trace = _traffic(specs[0], 96, seed=1)
    reports = [replay_trace(trace, TUNING, (spec,)) for spec in specs]
    _assert_same_report(*reports)
    assert logs[0] == logs[1] and any(logs[1])
    assert specs[0].tapes is not specs[1].tapes
    assert specs[0].tapes.keys() == specs[1].tapes.keys()


class _Bare:
    """Not a ``Module``: promises no contract, so it executes per batch."""

    def __init__(self, calls):
        self.model, self.calls = TinyBERT(**_bert_kwargs()), calls

    def infer(self, tokens, backend):
        self.calls.append(len(tokens))
        return self.model.infer(tokens, backend)


def test_an_endpoint_that_executes_per_batch_is_untouched():
    calls = []
    spec = EndpointSpec("bert", _Bare, {"calls": calls})
    trace = _traffic(spec, 96, seed=1)
    reports = [replay_trace(trace, TUNING, (spec,)) for _ in range(2)]
    _assert_same_report(*reports)
    _assert_same_report(reports[0], replay_trace(trace, TUNING, (_classifier(),)))
    assert calls == [p.batch_size for p in reports[0].placements] * 2
    assert spec.tapes == {}


def test_changed_kwargs_drop_the_memo():
    spec = _classifier()
    trace = _traffic(spec, 64, seed=2)
    shallow = replay_trace(trace, TUNING, (spec,))
    tapes = spec.tapes
    assert tapes and spec.tapes is tapes
    # An engine assembled now keeps the mapping that describes its model...
    engine = build_engine(TUNING, (spec,), tenants=trace.tenants)
    spec.kwargs["n_layers"] = 2
    # ...while the spec starts over: rebound, not emptied.
    assert spec.tapes == {} and tapes
    deep = replay_trace(trace, TUNING, (spec,))
    fresh = EndpointSpec("bert", TinyBERT, _bert_kwargs(n_layers=2))
    _assert_same_report(deep, replay_trace(trace, TUNING, (fresh,)))
    assert deep.total_cycles > 1.5 * shallow.total_cycles
    engine.enqueue(trace.requests)
    _assert_same_report(engine.run(), shallow)


def test_array_valued_kwargs_share_nothing_and_break_nothing():
    spec = EndpointSpec("bert", _Bare, {"calls": np.zeros(3)})
    assert spec.tapes is not spec.tapes


def test_the_memo_is_no_part_of_the_spec_as_a_value():
    spec = _classifier()
    trace = _traffic(spec, 32, seed=0)
    replay_trace(trace, TUNING, (spec,))
    assert spec.tapes
    assert spec == _classifier() and repr(spec) == repr(_classifier())
    assert [f.name for f in dataclasses.fields(spec)] == [
        "name", "factory", "kwargs", "prefix_len", "generation", "cost",
    ]
    for clone in (
        pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec),
        dataclasses.replace(spec),
    ):
        assert clone == spec
        assert clone.tapes == {} and clone.tapes is not spec.tapes
    assert spec.tapes


_SHAPES = st.tuples(
    st.sampled_from([_classifier, _chat]),
    st.integers(1, 24),  # requests
    st.integers(0, 2**16),  # trace seed
    st.sampled_from([1, 3, 8]),  # max batch size
    st.integers(2, 3),  # replays
)


@given(shape=_SHAPES)
@settings(max_examples=10, deadline=None)
def test_any_number_of_replays_on_one_spec_give_one_fingerprint(shape):
    make, n, seed, max_batch_size, replays = shape
    spec = make()
    trace = _traffic(spec, n, seed)
    tuning = dataclasses.replace(TUNING, max_batch_size=max_batch_size)
    prints = {
        report_fingerprint(replay_trace(trace, tuning, (spec,)))
        for _ in range(replays)
    }
    assert prints == {report_fingerprint(replay_trace(trace, tuning, (make(),)))}


# ---------------------------------------------------------------------------
# Prices outlive the engine: memoised where the closed form is defined.
# ---------------------------------------------------------------------------
def _costed_classifier():
    return dataclasses.replace(
        _classifier(),
        cost=WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1),
    )


@pytest.mark.parametrize("make", [_chat, _costed_classifier])
def test_a_second_engine_prices_every_shape_without_an_op_inventory(make, monkeypatch):
    """A price is a pure function of a shape and a frozen config: a
    second engine — here from an equal-but-distinct spec, so nothing is
    lent through the spec object — gets every price the first one asked
    for, equal, without building an op inventory or summing one."""
    transformer_prefill_cycles.cache_clear()
    WorkloadCostSpec.build.cache_clear()
    built = []
    for name in ("_encoder_ops", "_traced_cycles"):
        original = getattr(workload_module, name)
        monkeypatch.setattr(
            workload_module, name,
            lambda *args, _name=name, _f=original: built.append(_name) or _f(*args),
        )
    prices = []
    service_seconds = BatchProfile.service_seconds

    def priced(profile, config, clock_hz):
        seconds = service_seconds(profile, config, clock_hz)
        prices.append((profile.batch_size, profile.sample_shape, config, seconds))
        return seconds

    monkeypatch.setattr(BatchProfile, "service_seconds", priced)
    specs = make(), make()
    trace = _traffic(specs[0], 96, seed=4)
    runs = []
    for spec in specs:
        built.clear()
        prices.clear()
        report = replay_trace(trace, TUNING, (spec,))
        runs.append((list(built), list(prices), report_fingerprint(report)))
    (built_first, first, print_first), (built_again, again, print_again) = runs
    assert built_first and built_again == []
    assert again == first and any(seconds for *_, seconds in first)
    assert print_again == print_first
    if specs[0].cost is not None:
        assert specs[0].cost is not specs[1].cost
        assert specs[0].cost.build() is specs[1].cost.build()
