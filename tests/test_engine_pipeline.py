"""The engine's one execute-and-commit pipeline, pinned from the outside.

``InferenceEngine`` runs every kind of work — a plain classifier batch,
a prefix-keyed classifier batch, a generation prefill, a decode step —
through a single place -> run -> commit skeleton.  These tests hold
that skeleton to one contract for all four kinds, reading only the
public logs:

* a unit leaves the same shared post-conditions whatever its kind:
  one placement and at most one cache record per unit, busy time that
  is the sum of its committed durations;
* the one event log tells each batch's story in the order the
  skeleton decided it, and the report's five views are that log
  filtered by record type;
* the source of ``serving/engine.py`` contains each skeleton call once,
  so a new kind of work cannot re-grow a private copy; likewise the
  KV-prefix cache, the transformer layer inventory and the per-run
  record list exist once, and so does the path from a deployment
  described as data to a running engine (one engine construction site,
  one child-process start, one store swap);
* a classifier batch of a ``Module`` endpoint is *charged* by replaying
  its shape's trace tape and *computed* as rows of a stacked host pass
  shared with later batches — and every report, log and output bit
  equals what the same model gives registered through ``infer_fn=``,
  which executes per batch;
* a generation prefill and every decode iteration go through the same
  two helpers — charged by tape, their tokens read off transcripts one
  lockstep pass computed for up to ``STACK_ELEMENTS`` prompt tokens — and
  equal the same model behind ``infer_fn=`` + ``generation_adapter=``,
  which executes per unit; no transcript outlives its request.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import multiprocessing
import os
import re
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import repro.autotune as autotune_package
import repro.serving as serving_package
import repro.serving.deploy as deploy_module
import repro.serving.engine as engine_module
import repro.store as store_package
from repro.autotune import (
    EndpointProfile,
    EndpointSpec,
    FrontEntry,
    Objective,
    TuningConfig,
    TuningFront,
    WorkloadCostSpec,
    build_engine,
    load_trace,
    report_fingerprint,
    save_trace,
    synthesize_trace,
)
from repro.nn.executor import ArrayBackend, ParamCache
from repro.nn.layers import Linear, Module
from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterDispatcher,
    DecodeStepRecord,
    GenerationAdapter,
    InferenceEngine,
    PlacementDecision,
    PrefixEvent,
    RadixKVCache,
    ShedRecord,
    StealEvent,
    TenantConfig,
    TransformerPrefixAdapter,
    workload_cost_model,
)
from repro.nn.workload import transformer_serving_workload
from repro.serving.generation import ActiveSequence
from repro.serving.deploy import assemble_engine
from repro.serving.request import CompletedRequest
from repro.systolic import SystolicArray, SystolicConfig
from repro.systolic.trace import Trace

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
GRANULARITY = 0.25

KINDS = ("classify", "prefix", "prefill", "decode")

_MODEL = TinyBERT(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1, causal=True, seed=0
)


def _engine(
    kind, n_shards, steal=False, placement="round_robin", configs=None,
    cost_model=None,
):
    """A fresh engine whose unit under test is one batch of two requests."""
    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(config) for config in configs or (CONFIG,) * n_shards],
        GRANULARITY,
    )
    generation = kind in ("prefill", "decode")
    engine = InferenceEngine(
        pool,
        max_batch_size=2,
        flush_timeout=1e-4,
        radix_cache=RadixKVCache() if generation or kind == "prefix" else None,
        steal=steal,
        placement=placement,
    )
    if generation:
        engine.register("m", generation_adapter=GenerationAdapter(_MODEL))
    elif kind == "prefix":
        engine.register(
            "m", _MODEL, cost_model=cost_model,
            prefix_adapter=TransformerPrefixAdapter(_MODEL, 4),
        )
    else:
        engine.register("m", _MODEL, cost_model=cost_model)
    return engine


def _submit(engine, kind, n_batches=1):
    rng = np.random.default_rng(5)
    ids = []
    for _ in range(n_batches):
        if kind in ("prefill", "decode"):
            prompts = rng.integers(0, 16, size=(2, 4))
            ids += [engine.submit_generation("m", p, 3, arrival=0.0) for p in prompts]
        else:
            rows = rng.integers(0, 16, size=(2, _MODEL.seq_len))
            rows[1, :4] = rows[0, :4]  # one shared prefix -> one prefix-keyed batch
            ids += [engine.submit("m", row, arrival=0.0) for row in rows]
    return ids


def _run(kind, n_shards):
    engine = _engine(kind, n_shards)
    ids = _submit(engine, kind)
    report = engine.run()
    return engine, report, [engine.result(i) for i in ids]


@pytest.mark.parametrize("kind", KINDS)
def test_skeleton_contract(kind):
    """A unit of any kind commits once: one placement, at most one cache
    record, its duration on its shard's busy time — and runs the same
    whichever engine runs it."""
    engine, report, outputs = _run(kind, 2)
    _, again, repeated = _run(kind, 2)
    for got, want in zip(outputs, repeated):
        assert np.array_equal(got, want)
    assert report.events == again.events

    placements = report.placements
    indices = [p.batch_index for p in placements]
    assert len(set(indices)) == len(indices) > 0
    cached = [event.batch_index for event in report.prefix_events]
    assert len(set(cached)) == len(cached) and set(cached) <= set(indices)
    for shard, busy in report.shard_busy.items():
        committed = [p for p in placements if p.shard == shard]
        assert busy == pytest.approx(
            sum(p.finish - p.start for p in committed), rel=1e-9, abs=1e-15
        )
        if committed:
            assert engine.dispatcher.busy_until[shard] == max(
                p.finish for p in committed
            )


VIEWS = {
    "placements": PlacementDecision,
    "shed": ShedRecord,
    "prefix_events": PrefixEvent,
    "generation_steps": DecodeStepRecord,
    "steals": StealEvent,
}
# One batch's records, in log order: its steal, if any, then its
# placement directly followed by that batch's prefix event or decode step.
STORY = re.compile(r"S?P[XD]?")
STORY_LETTER = {
    StealEvent: "S", PlacementDecision: "P", PrefixEvent: "X",
    DecodeStepRecord: "D",
}
# Shard 0 of the staggered runs' pool priced 64x cheaper than it runs:
# look-ahead rounds plan onto it, it drifts slow, and planned batches
# are stolen off it.
_FAST_CONFIG = dataclasses.replace(CONFIG, clock_hz=2 * CONFIG.clock_hz)
_PRICED = workload_cost_model(
    lambda batch, shape: transformer_serving_workload(batch, 8, 8, 2, 16, 1)
)
_MISPRICED = lambda profile, config: _PRICED(profile, config) / (
    64.0 if config == CONFIG else 1.0
)

def _index_of(event):
    return event.step_index if isinstance(event, DecodeStepRecord) else event.batch_index


def _staggered_run(kind, seed):
    """Twelve requests in three bursts over a 3-shard pool: look-ahead +
    steal off a drifting shard for classifier kinds, generation + radix
    for ``decode``."""
    engine = (
        _engine(kind, 3) if kind == "decode"
        else _engine(
            kind, 3, True, "lookahead", (CONFIG, _FAST_CONFIG, _FAST_CONFIG),
            _MISPRICED,
        )
    )
    rng = np.random.default_rng(seed)
    for i in range(12):
        arrival = (i // 4) * 2e-5
        if kind == "decode":
            engine.submit_generation("m", rng.integers(0, 16, size=4), 3, arrival=arrival)
        else:
            row = rng.integers(0, 16, size=_MODEL.seq_len)
            row[:4] = (i % 3, 1, 2, 3)  # three prompts -> prefix-affine batches
            engine.submit("m", row, arrival=arrival)
    return engine.run()


@pytest.mark.parametrize("kind", ["classify", "prefix", "decode"])
def test_event_log_tells_each_batch_story_in_order(kind):
    seen = set()
    for seed in range(4):
        report = _staggered_run(kind, seed)
        events = report.events
        seen.update(type(event) for event in events)

        stories = {}
        for event in events:
            if type(event) in STORY_LETTER:
                stories.setdefault(_index_of(event), []).append(STORY_LETTER[type(event)])
        assert stories
        for index, letters in stories.items():
            assert STORY.fullmatch("".join(letters)), (seed, index, letters)
        # "Directly followed" holds in the whole log, not just per batch.
        for before, event in zip(events, events[1:]):
            if isinstance(event, (PrefixEvent, DecodeStepRecord)):
                assert isinstance(before, PlacementDecision)
                assert before.batch_index == _index_of(event)

        # Each view is the log filtered by record type, in log order.
        for view, record_type in VIEWS.items():
            assert getattr(report, view) == tuple(
                event for event in events if type(event) is record_type
            )
        assert sum(len(getattr(report, view)) for view in VIEWS) == len(events)
    # The sweep is not vacuous: the kinds each setup can produce occurred.
    expected = {PlacementDecision}
    # The prefix sweep steals nothing; it pins the prefix events instead.
    expected |= {
        "classify": {StealEvent},
        "prefix": {PrefixEvent},
        "decode": {DecodeStepRecord, PrefixEvent},
    }[kind]
    assert expected <= seen


SKELETON_CALLS = (
    "trace.namespace(",
    "unit.run(",
    "PlacementDecision(",
)


@pytest.mark.parametrize("call", SKELETON_CALLS)
def test_skeleton_exists_once(call):
    """A new kind of work supplies hooks to ``_execute``; it does not
    get its own copy of the place/run/commit skeleton."""
    source = Path(engine_module.__file__).read_text()
    assert source.count(call) == 1, (
        f"{call!r} occurs {source.count(call)}x in serving/engine.py; the "
        "execute-and-commit skeleton must exist exactly once"
    )


SINGLE_COPY = (
    ("repro.serving.prefix_cache", "set_limit("),
    ("repro.serving.prefix_cache", "def _namespace"),
    ("repro.serving.prefix_cache", "def resident_bytes"),
    ("repro.serving.prefix_cache", "def namespace_stats"),
    ("repro.nn.workload", "def gemm("),
)


@pytest.mark.parametrize("module, marker", SINGLE_COPY)
def test_no_second_copy(module, marker):
    """One KV-prefix cache class, one transformer layer inventory: a new
    kind of traffic or closed form is a client of the existing code, not
    a fork of it."""
    source = Path(importlib.import_module(module).__file__).read_text()
    assert source.count(marker) <= 1, (
        f"{marker!r} occurs {source.count(marker)}x in {module}"
    )


SRC = Path(engine_module.__file__).parents[1]  # src/repro


@functools.lru_cache(maxsize=None)
def _functions_under_src():
    """``(module path, function name, code)`` of every function under
    ``src/repro``, docstrings stripped (``ast.unparse`` drops comments)."""
    return tuple(_scan_src())


def _scan_src():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Module)):
                if ast.get_docstring(node) is not None:
                    node.body = node.body[1:] or [ast.Pass()]
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                yield str(path.relative_to(SRC)), node.name, ast.unparse(node)


def _sites(*markers):
    """``path:function`` of every function whose code has all ``markers``."""
    return sorted(
        f"{path}:{name}"
        for path, name, code in _functions_under_src()
        if all(marker in code for marker in markers)
    )


def test_one_path_from_deployment_as_data_to_a_running_engine():
    """A front end that stands an engine up from picklable values is a
    client of ``repro.serving.deploy``: it does not construct its own
    engine or fork its own children — and the second
    endpoint-by-construction class stays deleted.  A child starts in one
    place, and only an engine's stack helper starts one."""
    assert _sites("InferenceEngine(") == ["serving/deploy.py:assemble_engine"]
    assert _sites("engine.register(") == ["serving/deploy.py:assemble_engine"]
    assert _sites("get_context(") == ["serving/deploy.py:start_child"]
    assert _sites(".Pipe(") == ["serving/deploy.py:start_child"]
    assert _sites("start_child(") == [
        "serving/deploy.py:start_child", "serving/engine.py:_fork",
    ]
    deleted = "Model" "Spec"
    for path in SRC.rglob("*.py"):
        assert deleted not in path.read_text(), path
    # One engine serves a whole cluster: no second serving path forks
    # engines, supervises them or merges their reports.
    assert not (SRC / "serving" / "multiproc.py").exists()
    assert not (SRC / "serving" / "faults.py").exists()
    for retired in ("serve_multiproc", "merge_reports", "FaultPlan", "FailureRecord"):
        assert not hasattr(serving_package, retired)


def test_pure_values_are_memoised_where_they_are_defined():
    """Plans and approximators are bounded per-process memos at their
    definitions; there is no process-global store, no namespace
    registry and no abstract store class.  The one store is in-process:
    a trace persists as one JSON file at a path its caller names, and
    calibration and fronts are not persisted at all.  A tuning config
    is its own dedupe key, with no hand-written dict form."""

    first_line = {name: code.splitlines()[0] for _, name, code in _functions_under_src()}
    assert first_line["_approximator"] == "@functools.lru_cache(maxsize=APPROXIMATORS)"
    assert first_line["_gemm_plan"] == "@functools.lru_cache(maxsize=GEMM_PLANS)"
    assert first_line["_mhp_plan"] == "@functools.lru_cache(maxsize=MHP_PLANS)"
    for persist in (save_trace, load_trace):
        path = inspect.signature(persist).parameters["path"]
        assert path.default is inspect.Parameter.empty, persist.__name__
        assert "store" not in inspect.signature(persist).parameters
    assert not [name for name in ("FileStore", "StoreLockTimeout")
                if hasattr(store_package, name)]
    assert not hasattr(serving_package, "config_to_dict")
    assert not hasattr(TuningConfig, "to_dict")
    for retired in ("save_calibration", "load_calibration", "CALIBRATION_NAMESPACE"):
        assert not hasattr(serving_package, retired)
    front_format = ("save_front", "load_front", "FRONT_NAMESPACE", "FRONT_VERSION",
                    "config_from_dict")
    for package in (autotune_package, serving_package):
        assert not [name for name in front_format if hasattr(package, name)]
    for cls in (TuningFront, FrontEntry, Objective, TuningConfig):
        assert not hasattr(cls, "from_dict"), cls
    assert not (SRC / "store" / "tiered.py").exists()
    assert not (SRC / "store" / "base.py").exists()
    deleted = ("get" "_store", "set" "_store", "register" "_namespace",
               "namespace" "_default", "Cache" "Store")
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not [name for name in deleted if name in text], path


def test_one_request_description_through_every_front_door():
    """A front door that takes requests as values is a client of
    ``repro.serving.request``: it coerces through the one
    ``describe_request``, ends in the one ``_make_request``, and keeps no
    parser, no second item form and no private default of its own."""
    import repro.autotune
    import repro.serving

    assert _sites("GenerationRequest(") == ["serving/request.py:generation_of"]
    assert _sites("InferenceRequest(") == ["serving/engine.py:_make_request"]
    assert _sites(".submit_generation(") == []
    # A request's fields are read off a mapping in one function.
    for field in ("arrival", "deadline", "max_new_tokens"):
        readers = _sites(f"['{field}']") + _sites(f".get('{field}'")
        assert set(readers) == {"serving/request.py:from_dict"}, field
    deleted = (
        "_SOURCE_FIELDS", "_peek_item_arrival", "_coerce_source_item",
        "_raise_bad_source_item", "_RequestSource", "take_from_buffer",
    )
    defined = []
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not [name for name in deleted if name in text], path
        if "class TracedRequest" in text:
            defined.append(str(path.relative_to(SRC)))
    assert defined == ["serving/request.py"]
    assert repro.autotune.TracedRequest is repro.serving.TracedRequest


def test_one_record_list():
    """The engine keeps its per-run records in one list."""
    record_types = "|".join(record_type.__name__ for record_type in VIEWS.values())
    source = Path(engine_module.__file__).read_text()
    assert not re.findall(rf"self\._\w+\s*:\s*List\[\"?({record_types})\b", source)


# ---------------------------------------------------------------------------
# Compute once per stack, charge once per batch.  The reference is always
# the same model registered through ``infer_fn=``: one model call per batch.
# ---------------------------------------------------------------------------
BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
TINY = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6)
BERT_COST = WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
#: 8-token requests for one full stack and half another, whatever the bound.
STACK_AND_A_HALF = 3 * engine_module.STACK_ELEMENTS // (2 * 8)


class _SharedLog:
    """A list of ints that a forked child (an engine's stack helper)
    appends to as well: one anonymous shared mapping, made before any run,
    under one lock.  Calling it gives the entries so far."""

    def __init__(self, capacity=1 << 14):
        self._cells = multiprocessing.Array("q", capacity + 1)  # [0]: length

    def append(self, value):
        with self._cells.get_lock():
            n = self._cells[0] = self._cells[0] + 1
            self._cells[n] = value

    def __call__(self):
        with self._cells.get_lock():
            return list(self._cells[1 : self._cells[0] + 1])


class _CountedBERT(TinyBERT):
    """The classifier under test; logs the rows of every ``infer`` call
    and whether the shard's array was taping it, in whichever process."""

    def __init__(self, n_layers=1):
        super().__init__(
            vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=n_layers,
            causal=False, seed=0,
        )
        self._calls, self._taped = _SharedLog(), _SharedLog()

    calls = property(lambda self: self._calls())
    taped = property(lambda self: [bool(taped) for taped in self._taped()])

    def infer(self, tokens, backend, kv=None):
        self._calls.append(len(tokens))
        self._taped.append(backend.array.trace.tape is not None)
        return super().infer(tokens, backend, kv)


class _CountedHead(Module):
    """One ``Linear(8 -> 4)`` over scaled token rows: the model costs
    almost nothing, so the serving layer decides everything."""

    def __init__(self):
        super().__init__()
        self.fc = Linear(8, 4, np.random.default_rng(0))
        self._calls = _SharedLog()

    calls = property(lambda self: self._calls())

    def infer(self, tokens, backend):
        self._calls.append(len(tokens))
        return self.fc.infer(np.asarray(tokens, dtype=np.float64) / 16, backend)


def _register(engine, name, model, eager, **kwargs):
    if eager:
        engine.register(name, infer_fn=model.infer, **kwargs)
    else:
        engine.register(name, model, **kwargs)


def _replay(trace, tuning, model, eager, cost=None):
    engine = build_engine(tuning, (), tenants=trace.tenants)
    _register(
        engine, trace.requests[0].model, model, eager,
        cost_model=None if cost is None else cost.build(),
    )
    for r in trace.requests:
        engine.submit(
            r.model, r.inputs_array(), r.arrival,
            tenant=r.tenant, priority=r.priority, deadline=r.deadline,
        )
    return engine.run()


def _both(serve):
    """``serve(model, eager)`` for the stacked engine and its reference."""
    models = _CountedBERT(), _CountedBERT()
    return serve(models[0], False), serve(models[1], True), models[0], models[1]


def _log(events):
    """Events in comparable form: a request stands as its id (the
    requests of two engines hold distinct input arrays)."""
    return [
        (type(event).__name__,)
        + tuple(
            getattr(event, f.name).request_id
            if f.name == "request"
            else getattr(event, f.name)
            for f in dataclasses.fields(event)
        )
        for event in events
    ]


def _assert_same_run(stacked, eager):
    assert report_fingerprint(stacked) == report_fingerprint(eager)
    assert _log(stacked.events) == _log(eager.events)
    assert len(stacked.completed) == len(eager.completed) > 0
    for ours, theirs in zip(stacked.completed, eager.completed):
        assert ours.request.request_id == theirs.request.request_id
        assert ours.outputs.dtype == theirs.outputs.dtype
        assert np.array_equal(ours.outputs, theirs.outputs)


def _bursty(n, seed):
    return synthesize_trace(
        "bursty", (EndpointProfile("bert", seq_len=8, vocab=16),), n, n * 2e-5,
        seed, "bursty", tenants=("tenant-a", "tenant-b"),
    )


def test_stacked_equals_eager_on_a_two_tenant_bursty_trace():
    trace = _bursty(STACK_AND_A_HALF, seed=0)
    tuning = TuningConfig(pool=(BIG, BIG), placement="cost_aware", max_batch_size=8)
    stacked, eager, model, reference = _both(
        lambda model, eager: _replay(trace, tuning, model, eager, BERT_COST)
    )
    _assert_same_run(stacked, eager)
    assert reference.calls == [p.batch_size for p in eager.placements]
    assert len(model.calls) <= stacked.n_batches // 3
    # Stacks outgrow a batch and stop at the element budget.
    assert sum(rows > 8 for rows in model.calls) >= 2
    assert max(model.calls) == engine_module.STACK_ELEMENTS // 8


def test_stacked_equals_eager_under_overload_on_a_heterogeneous_pool():
    """The ``admission_flood`` shape: look-ahead rounds, steals, a queue
    cap that sheds and deadlines that are missed — rows computed on one
    design point are served from another (values do not depend on it)."""
    n = 3000
    trace = synthesize_trace(
        "flood", (EndpointProfile("head", seq_len=8, vocab=16),), n, n * 9e-9, 0,
        "skewed", tenants=tuple(f"tenant-{i}" for i in range(8)),
        deadline_slack=1.3e-6,
    )
    tuning = TuningConfig(
        pool=(BIG, MID, SLOW, TINY), placement="lookahead", steal=True,
        max_batch_size=4, flush_timeout=2e-7, max_queue_depth=3,
    )
    model, reference = _CountedHead(), _CountedHead()
    stacked = _replay(trace, tuning, model, eager=False)
    eager = _replay(trace, tuning, reference, eager=True)
    _assert_same_run(stacked, eager)
    assert stacked.shed_count > 0
    assert any(record.deadline_missed for record in stacked.completed)
    assert len({p.shard for p in stacked.placements}) == 4
    assert len(model.calls) < len(reference.calls) // 2


def _small_engine(n_shards=2, max_batch_size=4, **kwargs):
    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(CONFIG) for _ in range(n_shards)], GRANULARITY
    )
    return InferenceEngine(
        pool, max_batch_size=max_batch_size, flush_timeout=1e-5, **kwargs
    )


def _burst(engine, rows, spacing=0.0, name="bert", per=4):
    """Submit ``rows`` (``per`` of them per arrival instant), run, and
    return the report with the outputs in submission order."""
    ids = [
        engine.submit(name, row, arrival=(i // per) * spacing)
        for i, row in enumerate(rows)
    ]
    report = engine.run()
    return report, [engine.result(i) for i in ids]


def test_four_kinds_of_endpoint_share_one_engine():
    """A ``Module``, a bare callable, a prefix-adapter endpoint and a
    generation endpoint (whose plain ``submit`` traffic is a ``Module``
    too): only the ``Module`` batches stack, nobody's results move."""

    def serve(model, eager):
        engine = _small_engine(radix_cache=RadixKVCache())
        bare = _CountedBERT()
        _register(engine, "module", model, eager)
        engine.register("callable", infer_fn=lambda x, backend: bare.infer(x, backend))
        _register(
            engine, "prefix", _MODEL, eager,
            prefix_adapter=TransformerPrefixAdapter(_MODEL, 4),
        )
        _register(
            engine, "chat", _MODEL, eager, generation_adapter=GenerationAdapter(_MODEL)
        )
        rng = np.random.default_rng(9)
        for i in range(96):
            arrival = (i // 16) * 4e-5
            name = ("module", "callable", "prefix", "chat")[i % 4]
            row = rng.integers(0, 16, size=8)
            if name == "prefix":
                row[:4] = (i % 3, 1, 2, 3)
            if name == "chat" and i % 8 == 3:
                engine.submit_generation(name, row[:4], 3, arrival=arrival)
            else:
                engine.submit(name, row, arrival=arrival)
        return engine.run(), bare

    (stacked, bare), (eager, _), model, reference = _both(serve)
    _assert_same_run(stacked, eager)
    assert stacked.generation_steps and any(e.hit for e in stacked.prefix_events)
    assert len(model.calls) < len(reference.calls)
    batches = [p for p in stacked.placements if p.model == "callable"]
    assert bare.calls == [p.batch_size for p in batches]


def test_rows_do_not_outlive_the_run_that_computed_them():
    """Weights may change between runs (``mark_dirty``): the second run
    computes with the new ones, on tapes the first run captured."""
    rows = np.random.default_rng(3).integers(0, 16, size=(32, 8))

    def serve(model, eager):
        engine = _small_engine()
        _register(engine, "bert", model, eager)
        first = _burst(engine, rows, spacing=1e-5, per=8)
        model.classifier.weight.data[...] *= -1.5
        model.classifier.weight.mark_dirty()
        return first, _burst(engine, rows, spacing=1e-5, per=8)

    stacked, eager, model, _ = _both(serve)
    for (report, outputs), (eager_report, eager_outputs) in zip(stacked, eager):
        _assert_same_run(report, eager_report)
        assert all(np.array_equal(a, b) for a, b in zip(outputs, eager_outputs))
    assert not any(np.array_equal(a, b) for a, b in zip(stacked[0][1], stacked[1][1]))
    # Every shape the second run met was taped by the first.
    assert not any(model.taped[len(model.taped) // 2 :])


class _CountingArray(SystolicArray):
    def __init__(self, config):
        super().__init__(config)
        self._gemm_rows = _SharedLog()

    gemm_rows = property(lambda self: self._gemm_rows())

    def gemm_raw(self, a_raw, b_raw, label="gemm"):
        self._gemm_rows.append(a_raw.shape[0])
        return super().gemm_raw(a_raw, b_raw, label)


class _CountingBackend(ArrayBackend):
    def __init__(self, array, granularity):
        super().__init__(array, granularity)
        self._linears = _SharedLog()

    linears = property(lambda self: len(self._linears()))

    def linear(self, x, weight, bias):
        self._linears.append(1)
        return super().linear(x, weight, bias)


def test_stacked_rows_are_computed_by_the_shards_own_backend_and_array():
    """Shards built from subclasses keep computing through them: the
    stacked pass runs on the executing shard's own backend object, its
    array detached, never on a stand-in built from the config."""
    # Some shard computes a second stack, from parameters it cached.
    rows = np.random.default_rng(4).integers(0, 16, size=(STACK_AND_A_HALF, 8))

    def serve(model, eager):
        pool = ClusterDispatcher(
            [_CountingBackend(_CountingArray(BIG), GRANULARITY) for _ in range(2)]
        )
        engine = InferenceEngine(pool, max_batch_size=8, flush_timeout=1e-5)
        _register(engine, "bert", model, eager)
        report, _ = _burst(engine, rows, spacing=2e-6, per=16)
        return report, pool.backends

    (stacked, ours), (eager, theirs), model, _ = _both(serve)
    _assert_same_run(stacked, eager)
    gemms = [sum(len(b.array.gemm_rows) for b in side) for side in (ours, theirs)]
    linears = [sum(b.linears for b in side) for side in (ours, theirs)]
    assert 0 < gemms[0] < gemms[1] // 2 and 0 < linears[0] < linears[1] // 2
    # The subclass saw operands taller than any batch: a stack went through it.
    tallest = [max(max(b.array.gemm_rows) for b in side) for side in (ours, theirs)]
    assert tallest[0] > tallest[1] == 8 * 8
    # ... and its parameter cache served them, under the shard's own name.
    stats = [stacked.cache_stats[f"nn.params.shard{shard}"] for shard in range(2)]
    assert [s["misses"] > 0 for s in stats] == [b.linears > 0 for b in ours]
    assert sum(s["hits"] for s in stats) > 0


# ---------------------------------------------------------------------------
# The stack helper: in a run, a forked process computes the rest of the
# look-ahead after the first classifier stack.  Every case equals the same
# traffic served in-process (the process allowed one CPU), leaves no child
# behind, and its reports hold the run invariants (conftest.py).
# ---------------------------------------------------------------------------
#: 8-token requests for the parent's stack and two of the helper's.
THREE_STACKS = 3 * engine_module.STACK_ELEMENTS // 8
BURSTY = TuningConfig(pool=(BIG, BIG), placement="cost_aware", max_batch_size=8)


def _cpus(monkeypatch, n):
    """Let the process run on ``n`` CPUs under no CPU quota; returns the
    list of helper processes started from now on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(n)), raising=False)
    monkeypatch.setattr(engine_module, "CPU_QUOTA_FILES", ())
    started, start_child = [], deploy_module.start_child

    def spy(*args):
        child = start_child(*args)
        started.append(child[0])
        return child

    monkeypatch.setattr(deploy_module, "start_child", spy)
    return started


def _in_process(trace, tuning, model_type, monkeypatch):
    _cpus(monkeypatch, 1)
    return _replay(trace, tuning, model_type(), eager=False)


class _DiesInHelper(_CountedBERT):
    """Ends a forked child on its second ``infer`` there, so a helper dies
    after sending its first stack: SIGKILLed, by raising, or it hangs
    (sleeps ``HANG_S``) until killed.  Logs the rows a child computed.
    A helper forked after ``death`` is set to None lives."""

    def __init__(self, death):
        super().__init__()
        self.death, self.parent, self.child_calls = death, os.getpid(), 0
        self._child_rows = _SharedLog()

    def infer(self, tokens, backend, kv=None):
        if os.getpid() != self.parent:
            self.child_calls += 1
            if self.child_calls == 2 and self.death == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            if self.child_calls == 2 and self.death == "hang":
                time.sleep(HANG_S)
            if self.child_calls == 2 and self.death == "raise":
                raise RuntimeError("the helper's model failed")
            self._child_rows.append(len(tokens))
        return super().infer(tokens, backend, kv)


#: How long a hanging helper sleeps: longer than any wait a test allows.
HANG_S = 30.0


@pytest.mark.parametrize("death", ("sigkill", "raise", "hang"))
def test_a_dead_helper_leaves_what_it_owes_to_the_parent(death, monkeypatch, capfd):
    """A helper that dies, raises or stays silent past
    ``HELPER_SILENCE_S`` (killed then) leaves its rows to the parent."""
    trace = _bursty(THREE_STACKS, seed=1)
    alone = _in_process(trace, BURSTY, _CountedBERT, monkeypatch)
    started = _cpus(monkeypatch, 2)
    monkeypatch.setattr(engine_module, "HELPER_SILENCE_S", 2.0)
    model = _DiesInHelper(death)
    start = time.perf_counter()
    dead = _replay(trace, BURSTY, model, eager=False)
    assert time.perf_counter() - start < HANG_S / 2
    _assert_same_run(dead, alone)
    exit_code = 0 if death == "raise" else -signal.SIGKILL
    assert [child.exitcode for child in started] == [exit_code]
    assert "Traceback" not in capfd.readouterr().err
    # Its first stack arrived; the parent computed the second's rows.
    assert model._child_rows() == [engine_module.STACK_ELEMENTS // 8]
    assert sum(model.calls) > THREE_STACKS
    assert multiprocessing.active_children() == []


def test_a_run_that_raises_reaps_its_helper(monkeypatch):
    """The run raising mid-way kills its helper, still owed rows, rather
    than wait for it (here it hangs), leaves no child behind, and the
    engine serves the next run as an in-process one would."""
    trace = _bursty(THREE_STACKS, seed=2)
    # Early in the helper's first stack: its second (it hangs there) is owed.
    middle = trace.requests[engine_module.STACK_ELEMENTS // 8 + 8].arrival

    def boom(inputs, backend):
        raise RuntimeError("boom")

    def serve(cpus):
        started = _cpus(monkeypatch, cpus)
        engine = _small_engine(max_batch_size=8)
        model = _DiesInHelper("hang")
        engine.register("bert", model)
        engine.register("boom", infer_fn=boom)
        for r in trace.requests:
            engine.submit("bert", r.inputs_array(), r.arrival, tenant=r.tenant)
        engine.submit("boom", trace.requests[0].inputs_array(), middle)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        assert time.perf_counter() - start < HANG_S / 2
        assert multiprocessing.active_children() == []
        model.death = None
        ids = [
            engine.submit("bert", r.inputs_array(), r.arrival, tenant=r.tenant)
            for r in trace.requests
        ]
        report = engine.run()
        return report, [engine.result(i) for i in ids], started

    alone, alone_outputs, _ = serve(1)
    helped, outputs, started = serve(2)
    _assert_same_run(helped, alone)
    assert all(np.array_equal(a, b) for a, b in zip(outputs, alone_outputs))
    assert [child.exitcode for child in started] == [-signal.SIGKILL, 0]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("limit", ("affinity", "cgroup v2 quota", "cgroup v1 quota"))
def test_one_cpu_starts_no_helper(limit, tmp_path, monkeypatch):
    """One CPU, by affinity or by a CPU quota the affinity does not show."""
    trace = _bursty(THREE_STACKS, seed=3)
    started = _cpus(monkeypatch, 1 if limit == "affinity" else 4)
    if limit != "affinity":
        _quota(monkeypatch, tmp_path, limit, "100000", "100000")
    alone = _replay(trace, BURSTY, _CountedBERT(), eager=False)
    assert started == []
    helped_by = _cpus(monkeypatch, 2)
    helped = _replay(trace, BURSTY, _CountedBERT(), eager=False)
    assert len(helped_by) == 1
    _assert_same_run(helped, alone)
    assert multiprocessing.active_children() == []


def _quota(monkeypatch, tmp_path, version, quota, period):
    """Make the process see a cgroup ``version`` CPU quota."""
    if "v2" in version:
        (tmp_path / "cpu.max").write_text(f"{quota} {period}\n")
        files = ((tmp_path / "cpu.max",),)
    else:
        (tmp_path / "quota").write_text(f"{quota}\n")
        (tmp_path / "period").write_text(f"{period}\n")
        files = ((tmp_path / "missing-v2",), (tmp_path / "quota", tmp_path / "period"))
    monkeypatch.setattr(engine_module, "CPU_QUOTA_FILES", files)


@pytest.mark.parametrize("version, quota, spare", [
    ("v2", "max", True), ("v2", "200000", True), ("v2", "150000", False),
    ("v1", "-1", True), ("v1", "400000", True), ("v1", "50000", False),
])
def test_a_cpu_quota_below_two_cpus_leaves_no_spare_cpu(
    version, quota, spare, tmp_path, monkeypatch
):
    _cpus(monkeypatch, 4)
    _quota(monkeypatch, tmp_path, version, quota, "100000")
    assert engine_module._spare_cpu() is spare
    _cpus(monkeypatch, 1)
    assert engine_module._spare_cpu() is False


def test_a_forked_worker_starts_no_helper(monkeypatch):
    """A forked child's siblings may fill the CPUs: an engine in a child
    started by ``start_child`` computes in-process, as one on one CPU
    would."""
    trace = _bursty(THREE_STACKS, seed=4)
    alone = _in_process(trace, BURSTY, _CountedBERT, monkeypatch)
    started = _cpus(monkeypatch, 2)

    def worker(conn):
        conn.send((_replay(trace, BURSTY, _CountedBERT(), eager=False), len(started)))
        conn.close()

    proc, conn = deploy_module.start_child(worker, ())
    in_worker, helpers = conn.recv()
    conn.close()
    proc.join()
    # The worker started; it started no helper of its own.
    assert proc.exitcode == 0 and len(started) == 1 and helpers == 0
    _assert_same_run(in_worker, alone)
    assert multiprocessing.active_children() == []


def test_rows_of_shed_requests_are_dropped_never_served(monkeypatch):
    """The ``admission_flood`` shape: a request shed while the helper owes
    its row is forgotten, and its row is dropped when it arrives."""
    n = 3000
    trace = synthesize_trace(
        "flood", (EndpointProfile("head", seq_len=8, vocab=16),), n, n * 9e-9, 0,
        "skewed", tenants=tuple(f"tenant-{i}" for i in range(8)),
        deadline_slack=1.3e-6,
    )
    tuning = TuningConfig(
        pool=(BIG, MID, SLOW, TINY), placement="lookahead", steal=True,
        max_batch_size=4, flush_timeout=2e-7, max_queue_depth=3,
    )
    alone = _in_process(trace, tuning, _CountedHead, monkeypatch)
    started = _cpus(monkeypatch, 2)
    forgotten, owed_when_forgotten = set(), []
    forget, receive = InferenceEngine._forget, engine_module._Stack._receive

    def spying_forget(self, request):
        stack = self._endpoints[request.model].stack
        owed_when_forgotten.append(request.request_id in stack.owed)
        forgotten.add(request.request_id)
        forget(self, request)

    def checked_receive(self):
        more = receive(self)
        assert forgotten.isdisjoint(self.rows) and forgotten.isdisjoint(self.owed)
        return more

    monkeypatch.setattr(InferenceEngine, "_forget", spying_forget)
    monkeypatch.setattr(engine_module._Stack, "_receive", checked_receive)
    helped = _replay(trace, tuning, _CountedHead(), eager=False)
    _assert_same_run(helped, alone)
    assert helped.shed_count > 0 and len(started) == 1
    assert {record.request.request_id for record in helped.shed} == forgotten
    assert any(owed_when_forgotten)
    assert multiprocessing.active_children() == []


def test_reregistered_name_is_charged_and_computed_as_the_new_model():
    rows = np.random.default_rng(5).integers(0, 16, size=(24, 8))

    def serve(_, eager):
        engine = _small_engine(n_shards=1)
        runs = []
        for depth in (1, 2):
            _register(engine, "bert", _CountedBERT(n_layers=depth), eager)
            runs.append(_burst(engine, rows)[0])
        return runs

    stacked, eager, _, _ = _both(serve)
    for report, eager_report in zip(stacked, eager):
        _assert_same_run(report, eager_report)
    assert stacked[1].total_cycles > 1.5 * stacked[0].total_cycles


def _assembled(model_type, tuning, generation=False):
    """A spec of ``model_type`` plus ``build()``, which assembles one more
    engine from it and returns ``(engine, its model)``."""
    made = []

    def factory():
        made.append(model_type())
        return made[-1]

    name = "chat" if generation else "bert"
    spec = EndpointSpec(name, factory, generation=generation)
    return spec, lambda: (build_engine(tuning, (spec,)), made[-1])


SMALL = TuningConfig(pool=(CONFIG,), max_batch_size=4, flush_timeout=1e-5)


def test_reregistration_leaves_a_lent_mapping_to_its_lender():
    """Engines assembled from one spec charge from its memo:
    re-registration puts an engine back on a mapping of its own and
    empties nothing its siblings, or an engine built later, replay."""
    rows = np.random.default_rng(6).integers(0, 16, size=(12, 8))
    spec, build = _assembled(_CountedBERT, SMALL)
    (first, model), (second, sibling) = build(), build()
    reference, expected = _burst(first, rows)
    # Three batches of 4: the first executes (taped), the second
    # replays and computes itself plus the third, the third computes nothing.
    assert model.calls == [4, 8] and model.taped == [True, False]
    tapes = dict(spec.tapes)
    first.register("bert", model)
    assert spec.tapes == tapes
    third, late = build()
    for engine, counted in ((second, sibling), (third, late)):
        report, outputs = _burst(engine, rows)
        # One stack of all three batches; nothing executes under a tape.
        assert counted.calls == [12] and counted.taped == [False]
        assert report.shard_cycles == reference.shard_cycles
        assert np.array_equal(outputs, expected)
    # A name registered again by hand starts from execution like any
    # engine nothing was lent to.
    fourth, again = build()
    fourth.register("bert", again)
    report, outputs = _burst(fourth, rows)
    assert again.calls == [4, 8] and again.taped == [True, False]
    assert report.shard_cycles == reference.shard_cycles
    assert np.array_equal(outputs, expected)
    assert spec.tapes == tapes


def test_reregistration_leaves_a_lent_generation_mapping_to_its_lender():
    prompts = _prompts(12, seed=6)
    spec, build = _assembled(_CountedChat, SMALL, generation=True)
    (first, model), (second, sibling) = build(), build()
    reference, expected = _chat_burst(first, prompts, spacing=1e-3)
    assert model.taped == [True] * 4 + [False] * 4
    tapes = dict(spec.tapes)
    first.register("chat", model, generation_adapter=GenerationAdapter(model))
    assert spec.tapes == tapes
    third, late = build()
    for engine, counted in ((second, sibling), (third, late)):
        report, outputs = _chat_burst(engine, prompts, spacing=1e-3)
        # One lockstep pass over all twelve prompts, detached.
        assert counted.calls == [("prefill", 12)] + [("decode_step", 12)] * 3
        assert not any(counted.taped)
        assert report.shard_cycles == reference.shard_cycles
        assert np.array_equal(outputs, expected)
    fourth, again = build()
    fourth.register("chat", again, generation_adapter=GenerationAdapter(again))
    report, outputs = _chat_burst(fourth, prompts, spacing=1e-3)
    # Three prefills of 4: the first group executes unit by unit (taped),
    # the second's prefill replays and transcribes itself plus the third.
    assert again.calls == (
        [("prefill", 4)] + [("decode_step", 4)] * 3
        + [("prefill", 8)] + [("decode_step", 8)] * 3
    )
    assert again.taped == [True] * 4 + [False] * 4
    assert report.shard_cycles == reference.shard_cycles
    assert np.array_equal(outputs, expected)
    assert spec.tapes == tapes


def test_tapes_are_lent_in_one_place_and_kept_in_no_registry():
    """The hand-over is ``assemble_engine``'s alone, the memo the spec
    object's alone: no module-level mapping, no store namespace."""
    assert _sites(".share_tapes(") == ["serving/deploy.py:assemble_engine"]
    for path in SRC.rglob("*.py"):
        module = ast.parse(path.read_text())
        assigned = [
            ast.unparse(node)
            for node in module.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and "tape" in ast.unparse(node).lower()
        ]
        assert assigned == [], path
    for path in (SRC / "store").glob("*.py"):
        assert "tape" not in path.read_text().lower(), path


def test_shed_requests_leave_the_stack():
    """Requests shed by a queue cap at t=0 are in no later stack: three
    batches of 4 follow, and nothing is ever computed for the shed."""
    rows = np.random.default_rng(7).integers(0, 16, size=(24, 8))
    model = _CountedBERT()
    # 12 arrive at once under a cap of 4: one batch is served, 8 shed.
    engine = _small_engine(
        n_shards=1, tenants=[TenantConfig("default", max_queue_depth=4)]
    )
    engine.register("bert", model)
    for row in rows[:12]:
        engine.submit("bert", row, arrival=0.0)
    for i, row in enumerate(rows[12:]):
        engine.submit("bert", row, arrival=2e-2 * (1 + i // 4))
    report = engine.run()
    assert (report.shed_count, report.failed_count) == (8, 0)
    assert len(report.completed) == 16
    # The first batch served executes; the next computes itself and all
    # that is still to come — the shed are not among it.
    assert model.calls == [4, 12]


def test_functional_backends_are_charged_no_host_time():
    """Shards without an array have no cycle model: their units take 0
    simulated seconds, so two replays of one trace report identically
    (host load used to leak into latency, SLO and fingerprint here)."""
    from repro.nn.executor import FloatBackend

    rows = np.random.default_rng(1).integers(0, 16, size=(20, 8))

    def serve():
        engine = InferenceEngine(
            ClusterDispatcher([FloatBackend(), FloatBackend()]),
            max_batch_size=4, flush_timeout=1e-5,
        )
        engine.register("m", _MODEL)
        return _burst(engine, rows, spacing=1e-6, name="m", per=5)[0]

    first, second = serve(), serve()
    assert report_fingerprint(first) == report_fingerprint(second)
    assert all(p.finish == p.start and p.batch_cycles == 0 for p in first.placements)
    assert max(first.latencies) <= 2e-5  # flush timeout and queueing only


def test_compute_once_adds_no_knob_and_one_call_site():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(InferenceEngine.__init__) == [
        "self", "dispatcher", "max_batch_size", "flush_timeout", "policy",
        "placement", "tenants", "radix_cache", "steal", "recorder",
    ]
    assert parameters(InferenceEngine.register) == [
        "self", "name", "model", "infer_fn", "batchable", "cost_model",
        "prefix_adapter", "generation_adapter",
    ]
    assert parameters(InferenceEngine.submit) == [
        "self", "model", "inputs", "arrival", "tenant", "priority", "deadline",
    ]
    assert parameters(InferenceEngine.submit_generation) == [
        "self", "model", "prompt", "max_new_tokens", "arrival", "stop_token",
        "tenant", "priority", "deadline",
    ]
    assert parameters(GenerationAdapter.__init__) == ["self", "model"]
    # Traffic comes in through the buffered doors; a clean state is a new
    # engine, so nothing it is built from resets or clears.
    assert parameters(InferenceEngine.run) == ["self"]
    import repro.serving.cluster as cluster
    import repro.serving.scheduler as scheduler
    from repro.serving.batcher import BatchAssembler
    from repro.store import InProcessLRU

    engine = _small_engine()
    policies = [
        cls for module in (cluster, scheduler) for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, (cluster.PlacementPolicy, scheduler.SchedulingPolicy))
    ]
    assert len(policies) == 9
    for owner in (
        engine, *engine._sources, *policies, ClusterDispatcher,
        cluster.CalibratingCostModel,
    ):
        assert not hasattr(owner, "reset"), owner
    for owner in (RadixKVCache, InProcessLRU, BatchAssembler):
        assert not hasattr(owner, "clear"), owner
    with pytest.raises(ValueError):
        cluster.make_placement_policy("rr")

    def fields(record_type):
        return [field.name for field in dataclasses.fields(record_type)]

    assert fields(TuningConfig) == [
        "pool", "placement", "occupancy_penalty", "max_batch_size", "flush_timeout",
        "max_queue_depth", "radix_budget_bytes", "steal",
    ]
    # No breaker or retry budget is left to configure.
    for retired in ("BreakerConfig", "RetryPolicy", "ShardHealth", "ShardCrash"):
        assert not hasattr(serving_package, retired)
        assert retired not in serving_package.__all__
    assert fields(EndpointSpec) == [
        "name", "factory", "kwargs", "prefix_len", "generation", "cost",
    ]
    source = Path(engine_module.__file__).read_text()
    # Per request (not batchable), per batch (eager), per stack — no more.
    assert source.count("endpoint.infer_fn(") <= 3
    assert source.count("STACK_ELEMENTS = ") == 1
    # One mechanism: whatever kind of unit is charged by tape, it is taped
    # and replayed in one place (``_Stack.charge``).
    assert _sites(".capture()") == ["serving/engine.py:charge"]
    assert [s for s in _sites(".replay(") if s.startswith("serving/")] == [
        "serving/engine.py:charge"
    ]
    serving = {
        path.name: path.read_text() for path in (SRC / "serving").glob("*.py")
    }
    assert "environ" not in serving["engine.py"] + serving["generation.py"]
    # A transcript is the stack's, not the report's: a sequence, a decode
    # step and a completion carry no row of it.
    assert fields(ActiveSequence) == [
        "request", "state", "generated", "ready_time", "first_start",
        "batch_cycles", "last_shard", "last_batch_index", "last_batch_size",
    ]
    assert fields(DecodeStepRecord) == [
        "step_index", "model", "tenant", "shard", "batch_size", "position",
        "cycles", "start", "finish",
    ]
    assert fields(CompletedRequest) == [
        "request", "outputs", "shard", "batch_index", "batch_size", "start",
        "finish", "batch_cycles",
    ]


def test_one_kv_cache_and_one_record_of_array_work():
    """An engine has one K/V cache with one budget, and array work has
    one per-event record — the tape ``capture()`` fills — so no knob
    chooses between copies of either."""

    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(RadixKVCache.__init__) == ["self", "shard_budget_bytes"]
    assert RadixKVCache.NAMESPACE == "serving.radix"
    assert parameters(ParamCache.__init__) == ["self", "maxsize"]
    assert parameters(assemble_engine) == [
        "pool", "endpoints", "radix_budget_bytes", "engine_options",
    ]
    assert parameters(SystolicArray.__init__) == ["self", "config"]
    assert parameters(Trace.__init__) == ["self"]
    for retired in ("configure", "events", "events_recorded", "events_retained"):
        assert not hasattr(Trace, retired)
        assert not hasattr(Trace(), retired)


# ---------------------------------------------------------------------------
# One agenda: three work sources behind one call signature, one pick.
# ---------------------------------------------------------------------------
def test_one_agenda_of_work_sources():
    """A producer of work is a member of ``InferenceEngine._sources``
    that owns its state in its own module; the engine asks each member
    the same questions in one place and keeps none of their state."""
    import repro.serving.elastic as elastic_module
    import repro.serving.generation as generation_module
    from repro.serving.batcher import BatchAssembler

    deleted = ("_work_sources", "_drain_one", "_work_consumed", "_RETRY")
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        assert not [name for name in deleted if name in text], path
    # One pick: the sources' ready times are read, and compared, once.
    assert _sites(".next_ready(") == ["serving/engine.py:_next_source"]
    sources = [
        generation_module.DecodePool, elastic_module.ElasticController,
        engine_module.TenantScheduler,
    ]
    # A work source is exactly ``next_ready()`` + ``pop(ready)``; only
    # ``run()`` drives the engine, so nothing counts a source's work.
    for source in sources:
        assert callable(source.next_ready) and callable(source.pop), source
        assert not hasattr(source, "__len__"), source
    assert not hasattr(BatchAssembler, "n_pending")
    assert not hasattr(InferenceEngine, "step") and not hasattr(InferenceEngine, "pending")
    engine = _engine("classify", 1)
    assert [type(source) for source in engine._sources] == sources
    # Each record is built where it is defined — not in the engine.
    assert {site.split(":")[0] for site in _sites("StealEvent(")} == {"serving/elastic.py"}
    assert {site.split(":")[0] for site in _sites("DecodeStepRecord(")} == {
        "serving/generation.py"
    }
    source = Path(engine_module.__file__).read_text()
    assert "heapq" not in source and "deque" not in source


# ---------------------------------------------------------------------------
# Generate once per stack, charge once per step.  The reference is the same
# model through ``infer_fn=`` + ``generation_adapter=``: one model call per
# prefill and per decode step.
# ---------------------------------------------------------------------------
class _CountedChat(TinyBERT):
    """The generator under test; logs every ``prefill`` / ``decode_step``."""

    def __init__(self):
        super().__init__(
            vocab=16, seq_len=16, dim=8, heads=2, ff_dim=16, n_layers=1,
            causal=True, seed=0,
        )
        self.calls, self.taped, self.warm = [], [], 0

    def _log(self, method, tokens, backend):
        self.calls.append((method, len(tokens)))
        self.taped.append(backend.array.trace.tape is not None)

    def prefill(self, tokens, backend, cached=None):
        self._log("prefill", tokens, backend)
        self.warm += cached is not None
        return super().prefill(tokens, backend, cached=cached)

    def decode_step(self, state, tokens, backend):
        self._log("decode_step", tokens, backend)
        return super().decode_step(state, tokens, backend)


CHAT = TuningConfig(pool=(BIG, BIG), placement="cost_aware", max_batch_size=8)


def _chat_engine(model, eager, tuning=CHAT, tenants=(), radix=True, **kwargs):
    pool = ClusterDispatcher.from_arrays(
        [SystolicArray(config) for config in tuning.pool], GRANULARITY
    )
    engine = InferenceEngine(
        pool, max_batch_size=tuning.max_batch_size, flush_timeout=tuning.flush_timeout,
        placement=tuning.placement,
        tenants=[t if isinstance(t, TenantConfig) else TenantConfig(t) for t in tenants],
        radix_cache=RadixKVCache() if radix else None,
        **kwargs,
    )
    _register(engine, "chat", model, eager, generation_adapter=GenerationAdapter(model))
    return engine


def _conversational(n, seed):
    return synthesize_trace(
        "chat",
        (EndpointProfile("chat", seq_len=8, vocab=16, max_new_tokens=8),),
        n, n * 1e-4, seed, "conversational", tenants=("tenant-a", "tenant-b"),
    )


def _both_chat(serve):
    models = _CountedChat(), _CountedChat()
    return serve(models[0], False), serve(models[1], True), models[0], models[1]


def _serve_chat(trace, **kwargs):
    """``serve(model, eager)`` replaying ``trace`` through ``enqueue``."""

    def serve(model, eager):
        engine = _chat_engine(model, eager, tenants=trace.tenants, **kwargs)
        engine.enqueue(trace.requests)
        return engine.run()

    return serve


def test_generation_stacked_equals_eager_on_a_two_tenant_conversational_trace():
    trace = _conversational(STACK_AND_A_HALF, seed=0)
    stacked, eager, model, reference = _both_chat(_serve_chat(trace))
    _assert_same_run(stacked, eager)
    units = len(eager.placements)
    assert len(reference.calls) == units == len(stacked.placements)
    assert len(model.calls) <= units // 3
    # Lockstep passes outgrow a batch and stop at the element budget.
    passes = [rows for method, rows in model.calls if method == "prefill" and rows > 8]
    assert len(passes) >= 2
    assert max(passes) == engine_module.STACK_ELEMENTS // 8
    assert len(stacked.generation_steps) == len(eager.generation_steps) > 0


def _transcript_replaying_waves(model, waves=12, per=4):
    """Requests as data: every wave sends ``per`` fresh 4-token prompts and,
    a little later, one follow-up per prompt of the wave before — prompt,
    all it generated, one new token — so (radix on) follow-ups prefill warm
    at the depth their predecessor retired.  ``max_new_tokens`` is mixed and
    the stop token fires for some."""
    rng = np.random.default_rng(11)
    lone = ArrayBackend(SystolicArray(BIG), GRANULARITY)
    stop = 6  # one of the two tokens this model mostly says
    requests, previous = [], []
    for wave in range(waves):
        at = wave * 4e-4
        for prompt, said in previous:
            follow = np.concatenate([prompt, said, rng.integers(0, 16, size=9)])[:9]
            requests.append(dict(model="chat", inputs=follow, arrival=at + 2e-4,
                                 max_new_tokens=2, stop_token=stop))
        previous = []
        for j in range(per):
            prompt = rng.integers(0, 16, size=4)
            limit = 3 + j % 2
            requests.append(dict(model="chat", inputs=prompt, arrival=at,
                                 max_new_tokens=limit, stop_token=stop))
            said = model.generate(prompt[None], limit, lone, stop_token=stop)[0]
            previous.append((prompt, said))
    return sorted(requests, key=lambda r: r["arrival"])


def test_generation_stacked_equals_eager_with_warm_prefills_limits_and_stops():
    requests = _transcript_replaying_waves(_CountedChat())

    def serve(model, eager):
        engine = _chat_engine(model, eager)
        engine.enqueue(requests)
        return engine.run()

    stacked, eager, model, reference = _both_chat(serve)
    _assert_same_run(stacked, eager)
    # Every radix hit is a warm prefill on the reference; here the first of a
    # (batch, prompt, cached) shape runs from its cached rows, later ones replay.
    hits = sum(event.hit for event in stacked.prefix_events)
    assert 0 < model.warm < reference.warm == hits
    limits = {r.request.request_id: r.request.generation.max_new_tokens for r in stacked.completed}
    lengths = {r.request.request_id: len(r.outputs) for r in stacked.completed}
    assert any(lengths[i] < limits[i] for i in limits)  # a stop fired
    assert len(set(limits.values())) == 3
    assert len(model.calls) < len(reference.calls) == len(eager.placements)


def test_generation_stacked_equals_eager_on_an_unequal_pool():
    """Geometry and clock decide what a unit is charged, not what it
    computes: transcripts serve both shards of a ``(BIG, MID)`` pool."""
    trace = _conversational(120, seed=1)
    # Round robin: a sequence changes shard from one unit to the next.
    tuning = dataclasses.replace(CHAT, pool=(BIG, MID), placement="round_robin")
    stacked, eager, model, reference = _both_chat(_serve_chat(trace, tuning=tuning))
    _assert_same_run(stacked, eager)
    assert len({p.shard for p in stacked.placements}) == 2
    assert len(model.calls) < len(reference.calls) // 2


# -- nothing stale, generation edition ---------------------------------------
def _prompts(n, seed, length=4):
    return np.random.default_rng(seed).integers(0, 16, size=(n, length))


def _chat_burst(engine, prompts, spacing=0.0, per=4, new=4, start=0.0):
    """Submit ``prompts`` (``per`` of them per arrival instant), run, and
    return the report with the outputs in submission order."""
    ids = [
        engine.submit_generation("chat", p, new, arrival=start + (i // per) * spacing)
        for i, p in enumerate(prompts)
    ]
    report = engine.run()
    return report, [engine.result(i) for i in ids if i in engine._results]


def _small_chat(model, eager=False, n_shards=1, **kwargs):
    tuning = TuningConfig(
        pool=(CONFIG,) * n_shards, max_batch_size=4, flush_timeout=1e-5
    )
    return _chat_engine(model, eager, tuning=tuning, **kwargs)


def _unswept(engine):
    """Disable the end-of-run sweep: what the stack holds after the run
    is then what retirement, shedding and failure left behind."""
    engine._clear_stacks = lambda: None
    return engine._endpoints["chat"].stack


def test_shed_generation_requests_leave_the_stack():
    """Generation requests shed at t=0 are in no later lockstep pass
    (three prefills of 4 follow), and no transcript outlives its request."""
    prompts = _prompts(24, seed=7)
    model = _CountedChat()
    engine = _small_chat(model, tenants=[TenantConfig("default", max_queue_depth=4)])
    stack = _unswept(engine)
    for prompt in prompts[:12]:
        engine.submit_generation("chat", prompt, 4, arrival=0.0)
    for i, prompt in enumerate(prompts[12:]):
        engine.submit_generation("chat", prompt, 4, arrival=2e-2 * (1 + i // 4))
    report = engine.run()
    assert (report.shed_count, report.failed_count) == (8, 0)
    assert len(report.completed) == 16
    # The first group served executes, unit by unit; the next one's prefill
    # replays and transcribes itself and all that is still to come.
    assert model.calls == (
        [("prefill", 4)] + [("decode_step", 4)] * 3
        + [("prefill", 12)] + [("decode_step", 12)] * 3
    )
    assert not stack.rows and not stack.ahead


def test_a_generation_name_registered_again_starts_from_nothing():
    prompts = _prompts(12, seed=5)

    def serve(_, eager):
        # No radix cache: it would serve the first model's K/V rows.
        engine = _small_chat(_CountedChat(), eager, radix=False)  # replaced below
        runs = []
        for depth in (1, 2):
            model = TinyBERT(
                vocab=16, seq_len=16, dim=8, heads=2, ff_dim=16, n_layers=depth,
                causal=True, seed=0,
            )
            _register(
                engine, "chat", model, eager, generation_adapter=GenerationAdapter(model)
            )
            runs.append(_chat_burst(engine, prompts, spacing=1e-3)[0])
        return runs

    stacked, eager, _, _ = _both_chat(serve)
    for report, eager_report in zip(stacked, eager):
        _assert_same_run(report, eager_report)
    assert stacked[1].total_cycles > 1.5 * stacked[0].total_cycles


def test_transcripts_do_not_outlive_the_run_that_computed_them():
    """Weights may change between runs: the second run generates with the
    new ones, on tapes the first captured."""
    prompts = _prompts(16, seed=3)

    def serve(model, eager):
        engine = _small_chat(model, eager, radix=False)
        first = _chat_burst(engine, prompts, spacing=1e-3)
        model.token_emb.table.data[...] = np.roll(model.token_emb.table.data, 1, axis=0)
        model.token_emb.table.mark_dirty()
        return first, _chat_burst(engine, prompts, spacing=1e-3, start=1.0)

    stacked, eager, model, _ = _both_chat(serve)
    for (report, outputs), (eager_report, eager_outputs) in zip(stacked, eager):
        _assert_same_run(report, eager_report)
        assert all(np.array_equal(a, b) for a, b in zip(outputs, eager_outputs))
    assert not all(np.array_equal(a, b) for a, b in zip(stacked[0][1], stacked[1][1]))
    assert not any(model.taped[len(model.taped) // 2 :])


def test_a_run_that_raises_leaves_no_transcript_behind():
    engine = _small_chat(_CountedChat())
    stack = engine._endpoints["chat"].stack
    insert, held = engine.radix_cache.insert, []

    def thirteenth(*args):
        # 4 prompts + 4 histories of the first group, 4 prompts of the second:
        # the next donation is the second group's first retirement.
        held.append(len(stack.rows))
        if len(held) == 13:
            raise RuntimeError("boom")
        return insert(*args)

    engine.radix_cache.insert = thirteenth
    with pytest.raises(RuntimeError, match="boom"):
        _chat_burst(engine, _prompts(12, seed=4), spacing=1e-3)
    assert held[-1] == 8  # the second group's transcripts and the third's
    assert not stack.rows and not stack.ahead


def test_generation_on_shards_that_compute_differently_executes_per_unit():
    """A decode step continues from K/V rows earlier units computed,
    wherever they ran.  Where shards differ in format or granularity a
    transcript computed on one is not what the pool's units produce
    between them: generation executes per unit, exactly as the reference
    does (classifier rows, which have no history, still stack per shard)."""
    trace = _conversational(64, seed=4)

    def serve(model, eager):
        pool = ClusterDispatcher(
            [ArrayBackend(SystolicArray(BIG), g) for g in (GRANULARITY, 2 * GRANULARITY)]
        )
        engine = InferenceEngine(pool, max_batch_size=8, radix_cache=RadixKVCache())
        _register(engine, "chat", model, eager, generation_adapter=GenerationAdapter(model))
        engine.enqueue(trace.requests)
        return engine.run()

    stacked, eager, model, reference = _both_chat(serve)
    _assert_same_run(stacked, eager)
    assert len({p.shard for p in stacked.placements}) == 2
    assert model.calls == reference.calls
    # ... and it matters: the two shards do not generate alike.
    lone = [ArrayBackend(SystolicArray(BIG), g) for g in (GRANULARITY, 2 * GRANULARITY)]
    prompts = np.stack([r.request.inputs for r in stacked.completed])
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(*(model.generate(prompts, 8, backend) for backend in lone))
    )
