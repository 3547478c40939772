"""The nonlinear unit as a code table, and code-space rounding in strips.

An INT16 CPWL op's output code depends on its input code alone, so a
:class:`~repro.core.cpwl.CPWLApproximator` tabulates it on first use.  These tests pin that the table *is* the
IPF → MHP chain (every code, every registered function), which inputs
keep the chain, when a table is built, that it is read-only, that the
array charges exactly the structural chain's events, and that
``round_saturate`` on a large array is the one-shot kernel byte for byte
without a full-size temporary.
"""

import collections
import math
import tracemalloc

import numpy as np
import pytest

from repro.autotune import EndpointProfile, EndpointSpec, TuningConfig, replay_trace
from repro.autotune import report_fingerprint
from repro.autotune import synthesize_trace
from repro.core import cpwl
from repro.core.cpwl import CPWLApproximator
from repro.core.functions import FUNCTION_LIBRARY, NonlinearFunction, gelu
from repro.core.ipf import fetch_parameters
from repro.core.nonlinear_ops import get_approximator
from repro.core.segment_table import build_segment_table
from repro.fixedpoint import INT16, INT32, QFormat, fixed_hadamard_mac, round_saturate
from repro.fixedpoint.quantize import STRIP_ELEMENTS
from repro.nn.executor import ArrayBackend
from repro.nn.models import TinyBERT
from repro.nn.models.resnet import BottleneckBlock
from repro.systolic import SystolicArray, SystolicConfig

from tests.reference.chain import ChainArray

#: The 16-bit formats the tables cover: the paper's Q8.8, a finer split
#: and pure integers.
FORMATS = (INT16, QFormat(16, 12), QFormat(16, 0))
BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)


def _fmt_id(fmt):
    return f"Q{fmt.total_bits}.{fmt.frac_bits}"


def _every_code(fmt):
    return np.arange(fmt.raw_min, fmt.raw_max + 1)


def _chain(approx, x_raw):
    """The reference: IPF gather, then the saturating MHP."""
    ipf = fetch_parameters(x_raw, approx.qtable, approx.fmt)
    return fixed_hadamard_mac(x_raw, ipf.k_raw, ipf.b_raw, approx.fmt)


def _tabulated(name, granularity, fmt=INT16, domain=None):
    approx = CPWLApproximator(name, granularity, fmt, domain=domain)
    approx.evaluate_raw(_every_code(fmt))  # builds the table
    assert approx.code_table is not None
    return approx


@pytest.fixture
def chain_calls(monkeypatch):
    """Count calls of the chain's two stages made by the approximator."""
    calls = collections.Counter()
    for name in ("fetch_parameters", "fixed_hadamard_mac"):
        original = getattr(cpwl, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cpwl, name, counting)
    return calls


@pytest.mark.parametrize("fmt", FORMATS, ids=_fmt_id)
@pytest.mark.parametrize("granularity", [0.25, 0.1, 1.0])
@pytest.mark.parametrize("name", sorted(FUNCTION_LIBRARY))
def test_table_is_the_chain_on_every_code(name, granularity, fmt):
    approx = _tabulated(name, granularity, fmt)
    codes = _every_code(fmt)
    expected = _chain(approx, codes)
    assert approx.code_table.dtype == fmt.storage_dtype()
    assert approx.code_table[codes].tobytes() == expected.tobytes()
    # Through the gather, from integers and from float64 codes.
    as_ints = approx.evaluate_raw(codes.astype(fmt.storage_dtype()))
    as_floats = approx.evaluate_raw(codes.astype(np.float64).reshape(256, -1))
    assert as_ints.dtype == fmt.storage_dtype()
    assert as_ints.tobytes() == expected.tobytes()
    assert as_floats.dtype == np.float64 and as_floats.shape == (256, 256)
    assert as_floats.tobytes() == expected.astype(np.float64).reshape(256, -1).tobytes()


def test_wide_formats_out_of_range_codes_and_empty_input_take_the_chain(chain_calls):
    wide = CPWLApproximator("gelu", 0.25, INT32)
    codes = np.arange(-(1 << 17), 1 << 17)
    assert wide.evaluate_raw(codes).tobytes() == _chain(wide, codes).tobytes()
    assert wide.code_table is None and chain_calls["fetch_parameters"] == 1

    approx = _tabulated("gelu", 0.25)
    chain_calls.clear()
    outside = np.array([INT16.raw_max + 1, 0, INT16.raw_min - 7, 1 << 40])
    with np.errstate(invalid="ignore"):  # NaN has no integer segment
        for x in (outside, outside.astype(np.float64), np.array([np.nan, 0.0])):
            assert approx.evaluate_raw(x).tobytes() == _chain(approx, x).tobytes()
    empty = approx.evaluate_raw(np.zeros((0, 4)))
    assert empty.shape == (0, 4) and empty.dtype == np.float64
    assert chain_calls["fetch_parameters"] == chain_calls["fixed_hadamard_mac"] == 4
    inside = np.array([[INT16.raw_min, -1, 0, INT16.raw_max]], dtype=np.int64)
    assert approx.evaluate_raw(inside).dtype == INT16.storage_dtype()
    assert approx.evaluate_raw(inside.astype(np.float64)).dtype == np.float64
    assert chain_calls["fetch_parameters"] == 4


def test_table_is_built_once_the_traffic_pays_for_it(chain_calls):
    """The first non-empty call pays for the table: it builds a read-only
    table, and no later call runs the chain; an empty call builds nothing,
    and a format wider than ``TABLE_MAX_BITS`` never builds one."""
    for fmt in FORMATS:
        approx = CPWLApproximator("exp", 0.25, fmt)
        assert approx.evaluate_raw(np.zeros((0, 3))).shape == (0, 3)
        assert approx.code_table is None
        approx.evaluate_raw(np.zeros(1))
        table = approx.code_table
        assert table is not None and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1
        chain_calls.clear()
        codes = _every_code(fmt)
        for x in (np.zeros(3), codes, codes.astype(np.float64).reshape(256, -1)):
            approx.evaluate_raw(x)
        assert approx.code_table is table and not chain_calls

    wide = CPWLApproximator("exp", 0.25, INT32)
    for x in (np.zeros(1), np.arange(-(1 << 17), 1 << 17)):
        wide.evaluate_raw(x)
    assert wide.code_table is None and chain_calls["fetch_parameters"] == 2


def _spy_builds(monkeypatch):
    """Elements evaluated and tables built, per approximator object."""
    elements, builds = collections.Counter(), collections.Counter()
    evaluate = CPWLApproximator.evaluate_raw

    def spy(self, x_raw):
        before = self.code_table
        out = evaluate(self, x_raw)
        elements[self] += np.asarray(x_raw).size
        builds[self] += before is None and self.code_table is not None
        return out

    monkeypatch.setattr(CPWLApproximator, "evaluate_raw", spy)
    return elements, builds


TINY = dict(vocab=16, dim=8, heads=2, ff_dim=16, n_layers=1, seed=0)
REPLAY_TUNING = TuningConfig(pool=(BIG, BIG), placement="cost_aware", max_batch_size=8)


def _bursty_trace():
    return synthesize_trace(
        "bert", (EndpointProfile("bert", seq_len=8, vocab=16),),
        1600, 1600 * 2e-5, 1, "bursty", tenants=("tenant-a", "tenant-b"),
    )


def test_a_replay_builds_only_the_tables_its_traffic_amortises(monkeypatch):
    """From cold approximators, a conversational generation replay
    (``generate_chat``'s shapes) and a classifier replay each build one
    table for every approximator they evaluate, and none for an
    approximator they never feed an element."""
    elements, builds = _spy_builds(monkeypatch)
    chat = synthesize_trace(
        "chat", (EndpointProfile("chat", seq_len=8, vocab=16, max_new_tokens=8),),
        72, 72e-4, 1, "conversational", tenants=("tenant-a", "tenant-b"),
    )
    replays = (
        (chat, EndpointSpec("chat", TinyBERT, dict(TINY, seq_len=16, causal=True), generation=True)),
        (_bursty_trace(), EndpointSpec("bert", TinyBERT, dict(TINY, seq_len=8))),
    )
    for trace, spec in replays:
        elements.clear(), builds.clear()
        get_approximator.cache_clear()
        replay_trace(trace, REPLAY_TUNING, (spec,))
        fed = {a for a, n in elements.items() if n}
        assert fed and {a for a in elements if builds[a]} == fed
        assert all(builds[a] == 1 for a in fed)


def test_a_second_replay_builds_no_approximator_and_no_table(monkeypatch):
    """Approximators are memoised per process, so their tables outlive a
    replay: the first replay of one bursty classifier trace builds one
    table per approximator it constructs, the second constructs no
    approximator and builds no table."""
    _, builds = _spy_builds(monkeypatch)
    constructed = collections.Counter()
    init = CPWLApproximator.__init__

    def counting_init(self, name, *args, **kwargs):
        constructed[name] += 1
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(CPWLApproximator, "__init__", counting_init)
    trace = _bursty_trace()
    spec = EndpointSpec("bert", TinyBERT, dict(TINY, seq_len=8))
    get_approximator.cache_clear()
    first = replay_trace(trace, REPLAY_TUNING, (spec,))
    assert sum(constructed.values()) == 4 and sum(builds.values()) == 4
    constructed.clear(), builds.clear()
    second = replay_trace(trace, REPLAY_TUNING, (spec,))
    assert not constructed and not sum(builds.values())
    assert report_fingerprint(second) == report_fingerprint(first)


def test_a_forward_builds_each_table_once_per_process(monkeypatch):
    """``model_forward``'s shapes: the first forward in a process builds
    the table of every op it evaluates, a second builds nothing — on a
    new array too — and emptying the approximator memo builds them
    again."""
    _, builds = _spy_builds(monkeypatch)
    rng = np.random.default_rng(0)
    bert = TinyBERT(vocab=32, seq_len=64, dim=128, heads=4, ff_dim=512, n_layers=2, seed=0)
    block = BottleneckBlock(128, 32, np.random.default_rng(0))
    tokens = rng.integers(0, 32, size=(8, 64))
    images = rng.normal(size=(16, 128, 8, 8))
    built = []
    for _ in range(2):
        get_approximator.cache_clear()
        for _ in range(2):
            backend = ArrayBackend(SystolicArray(BIG), 0.25)
            builds.clear()
            bert.infer(tokens, backend)
            block.infer(images, backend)
            built.append(sorted(a.function.name for a, n in builds.items() if n))
    tables = ["exp", "gelu", "reciprocal", "relu", "rsqrt", "rsqrt"]  # two rsqrt domains
    assert built == [tables, [], tables, []]


@pytest.mark.parametrize("fused_ipf", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("shape", [(1, 3), (7, 9), (64, 80)])
def test_array_charges_the_structural_chain_and_computes_its_values(shape, fused_ipf):
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
    fast, reference = SystolicArray(config), ChainArray(config)
    rng = np.random.default_rng(shape[0])
    with fast.capture() as fast_tape, reference.capture() as reference_tape:
        for function, domain in (("gelu", None), ("relu", (-8.125, 8.125)), ("gelu", None)):
            _tabulated(function, 0.25, domain=domain)  # the gather path
            x = round_saturate(rng.normal(size=shape) * 900.0, INT16)
            got = fast.apply_nonlinear_raw(
                function, x, 0.25, fused_ipf=fused_ipf, domain=domain
            )
            want = reference.apply_nonlinear_raw(
                function, x, 0.25, fused_ipf=fused_ipf, domain=domain
            )
            assert got.tobytes() == want.tobytes()
    # Event for event (kind, label, cycles, ops, breakdown) and count;
    # the array tapes a preload pair whether or not it preloaded, so
    # preloads compare by what the traces were charged.
    issued = [entry for entry in fast_tape if entry[0].kind != "preload"]
    assert [e.kind for e, _ in issued] == ["ipf", "mhp"] * 3
    assert issued == [entry for entry in reference_tape if entry[0].kind != "preload"]
    assert _charged(fast.trace) == _charged(reference.trace)
    assert fast.trace.cycles_by_kind()["preload"] > 0


def _charged(trace):
    return (
        len(trace), trace.total_cycles, trace.cycles_by_kind(), trace.ops_by_kind(),
        trace.cycles_by_label(),
    )


def _one_shot_round_saturate(codes, fmt):
    """``round_saturate`` as one pass per step over the whole array."""
    codes = codes + np.copysign(0.5, codes)
    np.trunc(codes, out=codes)
    np.maximum(codes, fmt.raw_min, out=codes)
    np.minimum(codes, fmt.raw_max, out=codes)
    codes += 0.0
    return codes


@pytest.mark.parametrize("layout", ["contiguous", "strided-1d", "strided-2d"])
def test_round_saturate_runs_in_strips_byte_for_byte(layout):
    n = 1 << 20
    rng = np.random.default_rng(7)
    values = rng.normal(size=2 * n) * 20000.0
    values[:8] = [0.5, -0.5, 2.5, -2.5, -0.3, 1e9, -1e9, -0.0]
    if layout == "contiguous":
        codes = values[:n].copy()
    elif layout == "strided-1d":
        codes = values[::2]
    else:
        codes = values.reshape(512, 4096)[:, ::2]
    assert codes.size == n
    expected = _one_shot_round_saturate(codes, INT16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = round_saturate(codes, INT16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is codes
    assert codes.tobytes() == expected.tobytes()
    assert peak <= 2 * STRIP_ELEMENTS * 8


def test_math_erf_gelu_leaves_every_quantized_table_as_scipy_built_it():
    special = pytest.importorskip("scipy.special")
    reference = NonlinearFunction(
        "gelu", lambda x: 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0))), (-8.0, 8.0)
    )
    for granularity in [round(0.05 * k, 2) for k in range(1, 24)]:
        ours = build_segment_table("gelu", granularity)
        theirs = build_segment_table(reference, granularity)
        for fmt in FORMATS + (INT32,):
            a, b = ours.quantized(fmt), theirs.quantized(fmt)
            assert a.slopes_raw.tobytes() == b.slopes_raw.tobytes()
            assert a.intercepts_raw.tobytes() == b.intercepts_raw.tobytes()
    x = np.random.default_rng(3).normal(size=10_000) * 4.0
    assert np.all(np.abs(gelu(x) - reference(x)) <= 1e-15 * np.maximum(1.0, np.abs(x)))
