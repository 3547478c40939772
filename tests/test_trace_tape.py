"""The array's tape: what a call is charged, apart from what it computes.

``SystolicArray.capture()`` tapes the hardware transactions a call
issues, ``replay(tape)`` charges them again without computing, and
``detached()`` computes without charging.  The serving engine charges a
batch by replay and computes rows for many batches in one detached
pass; these tests pin the three pieces that rests on:

* **shapes only**: for every shipped model two value draws of one input
  shape tape equal — the ``Module.infer`` contract;
* **replay == execution** in every aggregate the trace keeps and, taped,
  entry for entry, and in parameter-store traffic
  when tables of two models evict each other;
* **detached leaves no mark** on trace, open tape, parameter store,
  addressing unit or FIFOs — nested, and also when the body raises.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment_table import QuantizedSegmentTable
from repro.nn.executor import ArrayBackend, KVState
from repro.nn.layers import GELU, Linear, Module, ReLU
from repro.nn.models import TinyBERT
from repro.nn.models.resnet import BottleneckBlock, SmallResNet
from repro.systolic import SystolicArray, SystolicConfig

DESIGN_POINTS = (
    SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16),
    SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4),
)
GRANULARITY = 0.25
_BERT = dict(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=2, seed=1)
BERT = TinyBERT(causal=False, **_BERT)
CAUSAL = TinyBERT(causal=True, **_BERT)
BLOCK = BottleneckBlock(16, 4, np.random.default_rng(2))
RESNET = SmallResNet(width=4, seed=3)
LINEAR = Linear(8, 4, np.random.default_rng(4))


def _tokens(rng, shape=(3, 8)):
    return rng.integers(0, 16, size=shape)


# Each case prepares its state untaped, then returns the tape of the
# one call under test.
def _bert(array, backend, rng):
    with array.capture() as tape:
        BERT.infer(_tokens(rng), backend)
    return tape


def _causal_cold(array, backend, rng):
    with array.capture() as tape:
        CAUSAL.infer(_tokens(rng), backend, KVState(CAUSAL.n_layers))
    return tape


def _causal_warm_prefill(array, backend, rng):
    tokens = _tokens(rng)
    _, state = CAUSAL.prefill(tokens[:, :5], backend)
    cached = [state.prefix(3 + j % 2, j) for j in range(len(tokens))]
    with array.capture() as tape:
        CAUSAL.prefill(tokens, backend, cached=cached)
    return tape


def _causal_decode_step(array, backend, rng):
    _, state = CAUSAL.prefill(_tokens(rng, (3, 5)), backend)
    with array.capture() as tape:
        CAUSAL.decode_step(state, _tokens(rng, (3,)), backend)
    return tape


def _images(model, shape):
    def case(array, backend, rng):
        with array.capture() as tape:
            model.infer(rng.normal(0.0, 2.0, size=shape), backend)
        return tape

    return case


CASES = {
    "bert": _bert,
    "causal_cold_kv": _causal_cold,
    "causal_warm_prefill": _causal_warm_prefill,
    "causal_decode_step": _causal_decode_step,
    "bottleneck": _images(BLOCK, (2, 16, 4, 4)),
    "resnet": _images(RESNET, (2, 1, 8, 8)),
    "linear": _images(LINEAR, (5, 8)),
}


def _readable(tape):
    """A tape with each segment table replaced by its identity."""
    return [
        (event, (arg.table.name, arg.table.granularity, arg.n_segments))
        if isinstance(arg, QuantizedSegmentTable)
        else (event, arg)
        for event, arg in tape
    ]


@pytest.mark.parametrize("case", CASES)
@settings(max_examples=5, deadline=None)
@given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_tape_depends_on_shapes_never_on_values(case, seeds):
    for config in DESIGN_POINTS:
        tapes = []
        for seed in seeds:
            array = SystolicArray(config)
            tapes.append(
                CASES[case](
                    array, ArrayBackend(array, GRANULARITY), np.random.default_rng(seed)
                )
            )
        assert tapes[0], "the call under test issued nothing"
        assert _readable(tapes[0]) == _readable(tapes[1])


def _scan(tape):
    """The trace aggregates a tape stands for, every pair charged (a
    preload pair counts once)."""
    totals = {"events": 0, "cycles": 0, "kind": {}, "ops": {}, "label": {}}
    for event, arg in tape:
        count = 1 if isinstance(arg, QuantizedSegmentTable) else arg
        totals["events"] += count
        totals["cycles"] += event.cycles * count
        for key, field, value in (
            ("kind", event.kind, event.cycles),
            ("ops", event.kind, event.ops),
            ("label", event.label, event.cycles),
        ):
            totals[key][field] = totals[key].get(field, 0) + value * count
    return totals


def test_tape_holds_what_trace_record_received():
    """Entry for entry the tape is what the trace recorded — plus the
    preload pair of a nonlinear op whose table was already resident."""
    array = SystolicArray(DESIGN_POINTS[0])
    backend = ArrayBackend(array, GRANULARITY)
    x = np.random.default_rng(0).normal(size=(4, 8))
    with array.capture() as cold:
        backend.gelu(LINEAR.infer(x, backend))
    trace = array.trace
    assert _scan(cold) == {
        "events": len(trace), "cycles": trace.total_cycles,
        "kind": trace.cycles_by_kind(), "ops": trace.ops_by_kind(),
        "label": trace.cycles_by_label(),
    }
    assert [e.kind for e, _ in cold] == ["gemm", "preload", "ipf", "mhp"]
    assert isinstance(cold[1][1], QuantizedSegmentTable)
    with array.capture() as warm:
        with array.capture() as inner:  # an outer tape misses nothing
            backend.gelu(x)
        array.replay(cold[:1])  # nor what a replay charges
    # Nothing was preloaded this time, and the pair is taped all the same.
    assert array.trace.cycles_by_kind()["preload"] == cold[1][0].cycles
    assert warm == inner + cold[:1] and inner[0] == cold[1]
    assert array.trace.tape is None


def _account(trace):
    return {
        "total_cycles": trace.total_cycles,
        "cycles_by_kind": trace.cycles_by_kind(),
        "ops_by_kind": trace.ops_by_kind(),
        "cycles_by_label": trace.cycles_by_label(),
        "events": len(trace),
    }


@pytest.mark.parametrize("taped", (True, False), ids=("all", "none"))
@pytest.mark.parametrize("config", DESIGN_POINTS, ids=("8x8x16", "4x4x4"))
def test_replay_equals_execution(config, taped):
    """Every event taped, or none: a tape is the only per-event log."""
    tokens = _tokens(np.random.default_rng(7))

    def serve(array, issue):
        with array.capture() if taped else nullcontext([]) as log:
            # Four passes: only the first finds the GELU table missing.
            for _ in range(4):
                issue(array)
        assert bool(log) == taped
        return dict(_account(array.trace), log=_readable(log))

    scratch = SystolicArray(config)
    with scratch.capture() as tape:
        BERT.infer(tokens, ArrayBackend(scratch, GRANULARITY))

    executed = serve(
        SystolicArray(config),
        lambda array: BERT.infer(tokens, ArrayBackend(array, GRANULARITY)),
    )
    replayed = serve(SystolicArray(config), lambda array: array.replay(tape))
    assert replayed == executed
    assert executed["cycles_by_kind"]["preload"] > 0


class _Head(Module):
    """A linear layer, then a scalar nonlinearity on the array."""

    def __init__(self, linear, activation):
        super().__init__()
        self.linear, self.activation = linear, activation

    def infer(self, x, backend):
        return self.activation.infer(self.linear.infer(x, backend), backend)


def test_replay_preloads_on_every_table_swap_and_after_reset():
    """Two models whose tables cannot both be resident preload on every
    swap — replayed exactly as executed — and again after ``reset()``."""
    # GELU's table has 64 segments, ReLU's mid-anchored one 65.
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, segment_capacity=65)
    rng = np.random.default_rng(11)
    models = (
        _Head(Linear(8, 8, rng), GELU()),
        _Head(Linear(8, 8, rng), ReLU()),
    )
    x = rng.normal(size=(4, 8))

    def store_of(array):
        params = array.params
        return dict(params.resident), params.swaps, params.preloaded_segments

    scratch = SystolicArray(config)
    tapes = []
    for model in models:
        with scratch.capture() as tape:
            model.infer(x, ArrayBackend(scratch, GRANULARITY))
        tapes.append(tape)

    executed, replayed = SystolicArray(config), SystolicArray(config)
    backend = ArrayBackend(executed, GRANULARITY)
    for _ in range(2):  # the second round starts from reset() arrays
        for turn in (0, 1, 1, 0, 1):
            models[turn].infer(x, backend)
            replayed.replay(tapes[turn])
            assert _account(replayed.trace) == _account(executed.trace)
            assert store_of(replayed) == store_of(executed)
        # 4 preloads in 5 turns (the repeated turn alone finds its table
        # resident), the first of them into an empty store.
        assert executed.params.swaps == 3
        assert executed.trace.ops_by_kind()["preload"] == 2 * 64 + 2 * 65
        executed.reset()
        replayed.reset()


def _marks(array):
    """Every counter ``detached()`` promises to leave alone."""
    params = array.params
    return (
        _account(array.trace),
        id(array.trace), id(params), id(array.addressing),
        dict(params.resident), params.swaps, params.preloaded_segments,
    )


def test_detached_computes_and_leaves_no_mark():
    x = np.random.default_rng(5).normal(size=(4, 8))
    model = _Head(LINEAR, ReLU())
    expected = model.infer(x, ArrayBackend(SystolicArray(DESIGN_POINTS[1]), GRANULARITY))

    fresh = SystolicArray(DESIGN_POINTS[1])
    with fresh.detached() as same:
        assert same is fresh
        assert np.array_equal(model.infer(x, ArrayBackend(fresh, GRANULARITY)), expected)
        assert fresh.total_cycles == 0
    assert fresh.total_cycles == 0 and not fresh.params.resident

    array = SystolicArray(DESIGN_POINTS[1])
    backend = ArrayBackend(array, GRANULARITY)
    backend.gelu(x)  # something on every counter, and a table to keep
    before = _marks(array)
    with array.detached():
        detached = model.infer(x, backend)
        assert _marks(array) == before
    assert np.array_equal(detached, expected)
    assert _marks(array) == before

    with pytest.raises(RuntimeError, match="mid-pass"):
        with array.detached():
            model.infer(x, backend)
            raise RuntimeError("mid-pass")
    assert _marks(array) == before
    # The live array goes on exactly where it was: GELU is still resident.
    backend.gelu(x)
    assert array.trace.cycles_by_kind()["preload"] == before[0]["cycles_by_kind"]["preload"]


def test_detached_blocks_nest():
    array = SystolicArray(DESIGN_POINTS[1])
    backend = ArrayBackend(array, GRANULARITY)
    x = np.random.default_rng(6).normal(size=(4, 8))
    with array.detached():
        with array.detached():
            LINEAR.infer(x, backend)
        LINEAR.infer(x, backend)  # leaving the inner block kept the outer
        assert array.total_cycles == 0
    LINEAR.infer(x, backend)
    assert array.total_cycles > 0


def test_a_detached_forward_puts_nothing_on_an_open_tape():
    array = SystolicArray(DESIGN_POINTS[0])
    backend = ArrayBackend(array, GRANULARITY)
    rng = np.random.default_rng(8)
    with array.capture() as tape:
        with array.detached():
            BERT.infer(_tokens(rng), backend)
        assert not tape
        LINEAR.infer(rng.normal(size=(4, 8)), backend)
    assert [event.kind for event, _ in tape] == ["gemm"]
    assert len(array.trace) == 1


def test_detached_leaves_the_parameter_store_alone():
    """A detached pass whose tables would evict the resident one preloads
    nothing: the live store and what it holds stay."""
    # GELU's table has 64 segments, ReLU's mid-anchored one 65.
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, segment_capacity=65)
    array = SystolicArray(config)
    backend = ArrayBackend(array, GRANULARITY)
    x = np.random.default_rng(9).normal(size=(4, 8))
    GELU().infer(x, backend)
    params = array.params
    resident, swaps = dict(params.resident), params.swaps
    with array.detached():
        ReLU().infer(x, backend)
        BLOCK.infer(np.random.default_rng(10).normal(size=(2, 16, 4, 4)), backend)
    assert array.params is params
    assert dict(params.resident) == resident and params.swaps == swaps
