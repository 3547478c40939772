"""Round once: inside a model pass, an op's output enters the next op as codes.

Every fixed-point op writes its result back as saturated codes, so an
activation that one op hands the next inside a ``backend.model_pass()``
already is ``codes * 2**-frac``.  ``CPWLBackend`` takes such an input as
the exact codes ``x * 2**frac`` (or, into a GEMM, as values) instead of
rounding it again.  These tests pin that this changes nothing but time:

* **same bits, same tapes** — every shipped model entry point computes
  byte for byte what it computes with the skip forced off, and charges
  the array the same tape;
* **the record is the pass's** — nested passes keep it until the
  outermost one exits, after which an output fed back is rounded again
  (also after an in-place write);
* **the values GEMM** — ``fixed_matmul(values=True)`` writes back the
  codes path's bits at the ``2**53`` accumulator bound, and past it takes
  the int64 codes path.

The suite-wide guard of ``tests/invariants.py`` checks every skipped
rounding of every test; the last test here shows it fires.
"""

import sys

import numpy as np
import pytest

from repro.core import nonlinear_ops as NL
from repro.core.segment_table import QuantizedSegmentTable
from repro.fixedpoint import QFormat, fixed_matmul, quantize
from repro.fixedpoint.quantize import SaturatedCodes
from repro.nn import executor
from repro.nn.executor import (
    ArrayBackend,
    CPWLBackend,
    FloatBackend,
    QuantizedFloatBackend,
)
from repro.nn.models import TinyBERT
from repro.nn.models.resnet import BottleneckBlock, ResidualBlock
from repro.systolic import SystolicArray, SystolicConfig

GRANULARITY = 0.25
CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)


def _bert(seq_len, causal):
    return TinyBERT(
        vocab=16, seq_len=seq_len, dim=8, heads=2, ff_dim=16, n_layers=2,
        causal=causal, seed=0,
    )


def _tokens(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 16, size=shape)


def _images(shape, seed=0):
    return np.random.default_rng(seed).normal(0.0, 2.0, size=shape)


def _flat(result):
    """The arrays of a call's result, in order."""
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, (list, tuple)):
        return [a for item in result for a in _flat(item)]
    if isinstance(result, executor.KVState):
        return [a for a in (*result.k, *result.v) if a is not None]
    return []


def _prefill(backend):
    return _bert(16, True).prefill(_tokens((3, 6)), backend)


def _decode_step(backend):
    model = _bert(16, True)
    _, state = model.prefill(_tokens((3, 6)), backend)
    return model.decode_step(state, _tokens((3,), seed=1), backend), state


def _transcribe(backend):
    return _bert(16, True).transcribe(_tokens((3, 5)), 4, backend)


CASES = {
    **{
        f"bert_seq{seq}_{'causal' if causal else 'bidirectional'}": (
            lambda backend, seq=seq, causal=causal: _bert(seq, causal).infer(
                _tokens((3, seq)), backend
            )
        )
        for seq in (8, 16, 64)
        for causal in (False, True)
    },
    "prefill": _prefill,
    "decode_step": _decode_step,
    "transcribe": _transcribe,
    "bottleneck": lambda backend: BottleneckBlock(
        16, 4, np.random.default_rng(2)
    ).infer(_images((2, 16, 4, 4)), backend),
    "bottleneck_projected": lambda backend: BottleneckBlock(
        8, 4, np.random.default_rng(2), stride=2
    ).infer(_images((2, 8, 6, 6)), backend),
    "residual": lambda backend: ResidualBlock(
        4, 4, np.random.default_rng(3)
    ).infer(_images((2, 4, 5, 5)), backend),
    "residual_projected": lambda backend: ResidualBlock(
        4, 8, np.random.default_rng(3), stride=2
    ).infer(_images((2, 4, 6, 6)), backend),
}


def _readable(tape):
    return [
        (event, (arg.table.name, arg.table.granularity, arg.n_segments))
        if isinstance(arg, QuantizedSegmentTable)
        else (event, arg)
        for event, arg in tape
    ]


def _count_quantize(patch):
    """Log the calls of ``quantize`` through every ``repro`` module that
    bound it by name."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return quantize(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and vars(module).get("quantize") is quantize:
            patch.setattr(module, "quantize", counting)
    return calls


def _run(case, monkeypatch):
    """``(arrays out, tape, quantize calls)`` on a fresh backend."""
    backend = ArrayBackend(SystolicArray(CONFIG), GRANULARITY)
    with monkeypatch.context() as patch:
        rounded = _count_quantize(patch)
        with backend.array.capture() as tape:
            result = CASES[case](backend)
    return _flat(result), _readable(tape), len(rounded)


@pytest.mark.parametrize("case", CASES)
def test_the_skip_changes_no_bit_and_no_tape(case, monkeypatch):
    CASES[case](CPWLBackend(GRANULARITY))  # builds the approximators
    outputs, tape, rounded = _run(case, monkeypatch)
    monkeypatch.setattr(CPWLBackend, "_on_grid", lambda self, x: False)
    expected, expected_tape, rounded_off = _run(case, monkeypatch)
    assert [a.tobytes() for a in outputs] == [a.tobytes() for a in expected]
    assert [a.shape for a in outputs] == [a.shape for a in expected]
    assert tape == expected_tape
    assert rounded < rounded_off  # the skip is taken


def test_nested_passes_keep_the_record_until_the_outermost_exits():
    backend = CPWLBackend(GRANULARITY)
    x = _images((4, 8))
    with backend.model_pass():
        with backend.model_pass():
            y = backend.gelu(x)
            assert backend._on_grid(y)
        # Any float64 view of an output is on the grid; a copy or another
        # dtype is not.
        assert backend._on_grid(y) and backend._on_grid(y[1:].T[::2])
        assert backend._on_grid(y.reshape(-1))
        assert not backend._on_grid(y.T.reshape(-1))
        assert not backend._on_grid(y.view(np.int64))
        assert not backend._on_grid(x) and not backend._on_grid(y + 0.0)
    assert not backend._on_grid(y)
    assert not backend._outputs  # nothing held past the pass


def test_outside_a_pass_nothing_is_recorded():
    backend = CPWLBackend(GRANULARITY)
    y = backend.gelu(_images((4, 8)))
    assert not backend._on_grid(y) and not backend._outputs


def test_a_record_dies_with_its_array():
    backend = CPWLBackend(GRANULARITY)
    with backend.model_pass():
        backend.relu(backend.gelu(_images((4, 8))))
        assert not backend._outputs


@pytest.mark.parametrize("mutate", [False, True], ids=["as_is", "written"])
def test_an_output_fed_back_after_its_pass_is_rounded_again(mutate, monkeypatch):
    backend = CPWLBackend(GRANULARITY)
    block = BottleneckBlock(16, 4, np.random.default_rng(2))
    out = block.infer(_images((2, 16, 4, 4)), backend)
    assert out.flags.writeable
    if mutate:
        out += 1e-3  # off the grid now
    calls = _count_quantize(monkeypatch)
    with backend.model_pass():
        got = backend.relu(out)
    assert calls == [1]
    expected = NL.cpwl_relu(out, GRANULARITY)
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("backend", [FloatBackend(), QuantizedFloatBackend()])
def test_float_backends_pass_through(backend):
    x = _images((2, 4))
    with backend.model_pass():
        with backend.model_pass():
            y = backend.gelu(x)
    assert np.array_equal(y, backend.gelu(x))


# 26-bit codes: a K-term accumulator of rail products reaches K * 2**50,
# so K = 8 sits exactly at the 2**53 bound (the float path) and K = 9
# is past it (the int64 path).
@pytest.mark.parametrize("frac_bits", [0, 1, 13, 25])
@pytest.mark.parametrize("k", [8, 9], ids=["at_bound", "past_bound"])
def test_the_values_gemm_writes_back_the_codes_gemm_bits(frac_bits, k):
    fmt = QFormat(total_bits=26, frac_bits=frac_bits)
    rng = np.random.default_rng(frac_bits)
    rails = np.array([fmt.raw_min, fmt.raw_max, fmt.raw_max - 1, 0, 1, -1])
    a = np.concatenate([
        np.full((1, k), fmt.raw_max), np.full((1, k), fmt.raw_min),
        rng.choice(rails, size=(6, k)),
        rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(24, k)),
    ]).astype(np.float64)
    b = np.concatenate([
        np.full((k, 1), fmt.raw_max), np.full((k, 1), fmt.raw_min),
        rng.choice(rails, size=(k, 6)),
        rng.integers(fmt.raw_min, fmt.raw_max + 1, size=(k, 24)),
    ], axis=1).astype(np.float64)
    expected = fixed_matmul(a, b, fmt)
    got = fixed_matmul(a * fmt.scale, b, fmt, values=True)
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    # Saturation at both rails is exercised.
    assert {fmt.raw_min, fmt.raw_max} <= set(expected.ravel().tolist())


def test_the_values_gemm_on_stacked_operands():
    fmt = QFormat()
    rng = np.random.default_rng(5)
    a = quantize(rng.normal(0, 4, size=(2, 3, 5, 7)), fmt, dtype=np.float64)
    b = quantize(rng.normal(0, 4, size=(3, 7, 4)), fmt, dtype=np.float64)
    got = fixed_matmul(a * fmt.scale, b, fmt, values=True)
    assert got.tobytes() == fixed_matmul(a, b, fmt).tobytes()


def test_saturated_codes_skip_only_the_range_scan():
    approx = NL.get_approximator("gelu", GRANULARITY)
    codes = quantize(_images((3, 5)), approx.fmt, dtype=np.float64)
    plain = approx.evaluate_raw(codes)
    vouched = approx.evaluate_raw(codes.view(SaturatedCodes))
    assert type(vouched) is np.ndarray
    assert vouched.tobytes() == plain.tobytes()


def test_the_guard_fails_a_write_into_an_output_inside_a_pass():
    backend = CPWLBackend(GRANULARITY)
    with backend.model_pass():
        y = backend.gelu(_images((4, 8)))
        y += 1e-3
        with pytest.raises(AssertionError, match="off the grid"):
            backend.relu(y)
