"""Float64 raw codes: one representation from an op's first rounding to its exit.

Inside every fixed-point op a value is a float64 array holding exact raw
integers.  These tests pin the three things that make that safe:

* **equal codes** — ``quantize``, ``fixed_matmul``, ``fixed_hadamard_mac``
  and ``CPWLApproximator.evaluate_raw`` give the same codes from float64
  and from integer operands, against an exact Python-integer reference,
  at both saturation rails, on exact ``k + 0.5`` ties of either sign, on
  negative accumulators (floor, not truncation) and on a wide format
  whose accumulators exceed ``2**53`` (the int64 path);
* **equal bytes** — the composite ops return byte for byte what the
  quantize-dequantize round trip per stage returned (kept below as the
  reference), including the sign of zero;
* **structure** — no round trips and no ``np.clip`` on the hot path, and
  no op writes into a cached parameter, a segment table or its input.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import nonlinear_ops as NL
from repro.core.nonlinear_ops import get_approximator
from repro.fixedpoint import (
    INT16,
    INT32,
    QFormat,
    dequantize,
    fixed_hadamard_mac,
    fixed_matmul,
    quantize,
    round_saturate,
)
from repro.nn.executor import ArrayBackend, CPWLBackend
from repro.systolic import SystolicArray, SystolicConfig

#: The paper's Q8.8, a second 16-bit split, and one format whose
#: products (2**62) are far past float64's exact-integer range.
FORMATS = (INT16, QFormat(16, 12), INT32)


def _fmt_id(fmt):
    return f"Q{fmt.total_bits}.{fmt.frac_bits}"


def _codes(fmt):
    """Raw codes of ``fmt``, biased towards the rails, zero and the
    values that put an accumulator exactly on a rounding tie."""
    half, one = 1 << (fmt.frac_bits - 1), 1 << fmt.frac_bits
    special = [fmt.raw_min, fmt.raw_max, 0, 1, -1, half, -half, one, -one, 3 * half]
    return st.sampled_from(special) | st.integers(fmt.raw_min, fmt.raw_max)


def _writeback(acc: int, fmt) -> int:
    """The PE writeback on a Python integer: exact at any width."""
    half = 1 << (fmt.frac_bits - 1)
    return min(max((acc + half) >> fmt.frac_bits, fmt.raw_min), fmt.raw_max)


def _both(fmt, values, shape):
    """The same codes as storage integers and as float64."""
    ints = np.array(values, dtype=np.int64).reshape(shape).astype(fmt.storage_dtype())
    return ints, ints.astype(np.float64)


def _assert_same_codes(from_ints, from_floats, expected, fmt):
    assert from_ints.dtype == fmt.storage_dtype()
    assert from_floats.dtype == np.float64
    assert not np.signbit(from_floats[from_floats == 0]).any()
    assert from_ints.tolist() == expected
    assert from_floats.tolist() == expected


@pytest.mark.parametrize("fmt", FORMATS, ids=_fmt_id)
class TestEqualCodes:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fixed_matmul(self, fmt, data):
        m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
        # Magnitudes up to 2**28 keep three-term sums of 2**56 products
        # inside int64 while putting them past 2**53.
        codes = _codes(fmt).filter(lambda c: abs(c) <= 1 << 28)
        a = data.draw(st.lists(codes, min_size=m * k, max_size=m * k))
        b = data.draw(st.lists(codes, min_size=k * n, max_size=k * n))
        expected = [
            [
                _writeback(sum(a[i * k + t] * b[t * n + j] for t in range(k)), fmt)
                for j in range(n)
            ]
            for i in range(m)
        ]
        a_i, a_f = _both(fmt, a, (m, k))
        b_i, b_f = _both(fmt, b, (k, n))
        _assert_same_codes(
            fixed_matmul(a_i, b_i, fmt), fixed_matmul(a_f, b_f, fmt), expected, fmt
        )
        # One float64 operand is enough to keep the result in float64.
        assert fixed_matmul(a_f, b_i, fmt).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fixed_hadamard_mac(self, fmt, data):
        size = data.draw(st.integers(1, 6))
        draw = lambda: data.draw(st.lists(_codes(fmt), min_size=size, max_size=size))
        x, k, b = draw(), draw(), draw()
        expected = [
            _writeback(xi * ki + (bi << fmt.frac_bits), fmt)
            for xi, ki, bi in zip(x, k, b)
        ]
        (x_i, x_f), (k_i, k_f), (b_i, b_f) = (_both(fmt, v, (size,)) for v in (x, k, b))
        _assert_same_codes(
            fixed_hadamard_mac(x_i, k_i, b_i, fmt),
            fixed_hadamard_mac(x_f, k_f, b_f, fmt),
            expected,
            fmt,
        )
        # The evaluate_raw mix: float64 activations, integer table rows.
        assert fixed_hadamard_mac(x_f, k_i, b_i, fmt).tolist() == expected

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_evaluate_raw(self, fmt, data):
        name = data.draw(st.sampled_from(["gelu", "exp", "reciprocal", "tanh"]))
        granularity = data.draw(st.sampled_from([0.25, 0.1]))
        approx = get_approximator(name, granularity, fmt)
        x = data.draw(st.lists(_codes(fmt), min_size=1, max_size=8))
        x_i, x_f = _both(fmt, x, (len(x),))
        from_ints, from_floats = approx.evaluate_raw(x_i), approx.evaluate_raw(x_f)
        assert from_ints.dtype == fmt.storage_dtype()
        assert from_floats.dtype == np.float64
        assert from_floats.tobytes() == from_ints.astype(np.float64).tobytes()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_quantize(self, fmt, data):
        # Values that land exactly on k + 0.5 LSB (either sign), values a
        # hair off the tie, tiny negatives (the -0.0 case) and values far
        # past both rails.
        ticks = st.integers(fmt.raw_min - 3, fmt.raw_max + 3)
        offset = st.sampled_from([0.0, 0.5, -0.5, 0.25, -0.25, 0.5 - 2**-20, 2**-20 - 0.5])
        values = data.draw(
            st.lists(
                st.builds(lambda t, o: (t + o) * fmt.scale, ticks, offset)
                | st.sampled_from([-1e-12, 1e-12, -0.0, 1e30, -1e30]),
                min_size=1,
                max_size=8,
            )
        )
        as_ints = quantize(np.array(values), fmt)
        as_floats = quantize(np.array(values), fmt, dtype=np.float64)
        assert as_ints.dtype == fmt.storage_dtype() and as_floats.dtype == np.float64
        assert as_floats.tobytes() == as_ints.astype(np.float64).tobytes()
        # Half away from zero, then saturation, on exact rationals.
        for value, code in zip(values, as_ints.tolist()):
            scaled = value * (1 << fmt.frac_bits)  # exact: a power of two
            magnitude = int(abs(scaled) + 0.5) if abs(scaled) < 2**62 else 2**62
            rounded = magnitude if scaled >= 0 else -magnitude
            assert code == min(max(rounded, fmt.raw_min), fmt.raw_max)


def test_rails_ties_and_negative_accumulators_by_hand():
    """The cases the property must cover, spelled out once on Q8.8."""
    fmt, f64 = INT16, np.float64
    half, one = 128.0, 256.0
    # Ties: acc = (k + 0.5) * 2**frac rounds up (floor of acc + half),
    # for negative accumulators too: -1.5 -> -1, -2.5 -> -2.
    x = np.array([3.0, -3.0, 5.0, -5.0])
    out = fixed_hadamard_mac(x, np.full(4, half), np.zeros(4), fmt)
    assert out.tolist() == [2.0, -1.0, 3.0, -2.0] and out.dtype == f64
    # A negative accumulator just below a code floors away from zero.
    assert fixed_hadamard_mac(
        np.array([-1.0]), np.array([129.0]), np.array([0.0]), fmt
    ).tolist() == [-1.0]
    # Both rails, through the GEMM writeback.
    big = np.full((1, 4), float(fmt.raw_max))
    assert fixed_matmul(big, big.T, fmt).tolist() == [[float(fmt.raw_max)]]
    assert fixed_matmul(big, -big.T, fmt).tolist() == [[float(fmt.raw_min)]]
    # quantize: ties away from zero, saturation, and one zero.
    q = quantize(np.array([0.5, -0.5, 1.5, -1.5, -0.3, 1e9, -1e9]) / one, fmt, dtype=f64)
    assert q.tolist() == [1.0, -1.0, 2.0, -2.0, 0.0, 32767.0, -32768.0]
    assert not np.signbit(q[4])


def test_wide_format_computes_in_int64():
    """Q32.16 products reach 2**62.  Two of them cancel here down to a
    sum that does not saturate, so the bits float64 drops from each
    product decide the result: only the int64 path gets it right,
    whatever representation the operands arrive in."""
    big = 1 << 30
    a = np.array([[big + 1, big + 1, 1]], dtype=np.float64)
    b = np.array([[big + 1], [1 - big], [32766]], dtype=np.float64)
    exact = (big + 1) ** 2 - (big + 1) * (big - 1) + 32766  # 2**31 + 32768
    assert _writeback(exact, INT32) == 32769
    assert _writeback(int((a @ b)[0, 0]), INT32) == 32768  # what BLAS would give
    assert fixed_matmul(a, b, INT32).tolist() == [[32769.0]]
    assert fixed_matmul(a.astype(np.int32), b.astype(np.int32), INT32).tolist() == [[32769]]


# ---------------------------------------------------------------------------
# Equal bytes: the round-trip-per-stage programs, kept as the reference.
# ---------------------------------------------------------------------------
def _roundtrip(x, fmt):
    return dequantize(quantize(x, fmt), fmt)


def _softmax_reference(x, granularity, fmt, row_offset=None):
    x = np.asarray(x, dtype=np.float64)
    if row_offset is None:
        shifted = x - np.max(x, axis=-1, keepdims=True)
    else:
        rows, cols = x.shape[-2:]
        visible = np.arange(cols) <= row_offset + np.arange(rows)[:, None]
        peak = np.max(np.where(visible, x, -np.inf), axis=-1, keepdims=True)
        shifted = np.where(visible, x - peak, 0.0)
    exps = np.maximum(get_approximator("exp", granularity, fmt)(_roundtrip(shifted, fmt)), 0.0)
    if row_offset is not None:
        exps = np.where(visible, exps, 0.0)
    denom = np.maximum(_roundtrip(np.sum(exps, axis=-1, keepdims=True), fmt), 1.0)
    j = np.floor(np.log2(denom))
    recip = get_approximator("reciprocal", granularity, fmt, domain=(1.0, 2.0))
    inv = recip(denom / np.power(2.0, j))
    return _roundtrip(exps * np.broadcast_to(inv, x.shape) * np.power(2.0, -j), fmt)


def _layernorm_reference(x, granularity, gamma, beta, fmt, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    centered = _roundtrip(x - np.sum(x, axis=-1, keepdims=True) / n, fmt)
    squares = _roundtrip(centered * centered, fmt)
    var = _roundtrip(np.sum(squares, axis=-1, keepdims=True) / n + eps, fmt)
    rsqrt = get_approximator("rsqrt", granularity, fmt)
    inv_std = rsqrt(np.maximum(var, rsqrt.table.x_min))
    normed = _roundtrip(centered * np.broadcast_to(inv_std, x.shape), fmt)
    if gamma is not None:
        normed = normed * gamma
    if beta is not None:
        normed = normed + beta
    return _roundtrip(normed, fmt)


_ACTIVATIONS = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.builds(
        lambda shape, spread: np.random.default_rng(seed).normal(size=shape) * spread,
        st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 9)),
        st.sampled_from([1e-3, 0.05, 1.0, 20.0, 400.0, 1e5]),
    )
)


@pytest.mark.parametrize("fmt", FORMATS + (QFormat(16, 0),), ids=_fmt_id)
class TestEqualBytes:
    @given(x=_ACTIVATIONS, granularity=st.sampled_from([0.25, 0.1]))
    @settings(max_examples=25, deadline=None)
    def test_softmax(self, fmt, x, granularity):
        assert (
            NL.cpwl_softmax(x, granularity, fmt).tobytes()
            == _softmax_reference(x, granularity, fmt).tobytes()
        )
        assert (
            NL.cpwl_softmax(x, granularity, fmt, row_offset=1).tobytes()
            == _softmax_reference(x, granularity, fmt, row_offset=1).tobytes()
        )

    @given(x=_ACTIVATIONS, granularity=st.sampled_from([0.25, 0.1]), affine=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_layernorm(self, fmt, x, granularity, affine):
        rng = np.random.default_rng(x.size)
        gamma = rng.normal(size=x.shape[-1]) if affine else None
        beta = rng.normal(size=x.shape[-1]) if affine else None
        assert (
            NL.cpwl_layernorm(x, granularity, gamma, beta, fmt).tobytes()
            == _layernorm_reference(x, granularity, gamma, beta, fmt).tobytes()
        )

    @given(x=_ACTIVATIONS)
    @settings(max_examples=25, deadline=None)
    def test_batchnorm_and_range_reduced_rsqrt(self, fmt, x):
        rng = np.random.default_rng(x.size)
        scale, shift = rng.normal(size=x.shape[1]), rng.normal(size=x.shape[1])
        k, b = scale.reshape(1, -1, 1), shift.reshape(1, -1, 1)
        assert (
            NL.cpwl_batchnorm(x, scale, shift, fmt).tobytes()
            == _roundtrip(x * k + b, fmt).tobytes()
        )
        positive = np.abs(x) + 1e-6
        j = np.floor(np.log2(positive) / 2.0)
        table = get_approximator("rsqrt", 0.25, fmt, domain=(1.0, 4.0))
        expected = _roundtrip(table(positive / np.power(4.0, j)) * np.power(2.0, -j), fmt)
        assert NL.cpwl_rsqrt_range_reduced(positive, 0.25, fmt).tobytes() == expected.tobytes()

    def test_round_saturate_is_the_round_trip(self, fmt):
        x = np.random.default_rng(5).normal(size=(7, 9)) * 3
        x[0, :4] = [-0.3 * fmt.scale, 0.5 * fmt.scale, -0.5 * fmt.scale, -0.0]
        codes = round_saturate(x * (1 << fmt.frac_bits), fmt)
        assert (codes * fmt.scale).tobytes() == _roundtrip(x, fmt).tobytes()


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------
def _count_calls(monkeypatch, *names):
    """Log calls of ``repro.fixedpoint.<name>`` made through any module
    that bound the function by name (``from repro.fixedpoint import``)."""
    calls = []
    for name in names:
        original = getattr(importlib.import_module("repro.fixedpoint.quantize"), name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_composite_ops_never_leave_code_space(monkeypatch):
    """Fixed-point softmax and layernorm round in place on float64 codes:
    no quantize-dequantize round trip between (or around) their stages."""
    x = np.random.default_rng(0).normal(size=(2, 4, 8))
    NL.cpwl_softmax(x, 0.25, INT16)  # build the tables first
    NL.cpwl_layernorm(x, 0.25, np.ones(8), np.zeros(8), INT16)
    calls = _count_calls(monkeypatch, "quantize", "dequantize")
    NL.cpwl_softmax(x, 0.25, INT16)
    NL.cpwl_softmax(x, 0.25, INT16, row_offset=0)
    NL.cpwl_layernorm(x, 0.25, np.ones(8), np.zeros(8), INT16)
    assert calls == []
    NL.cpwl_gelu(x, 0.25, INT16)  # the counter is live: one entry rounding
    assert calls == ["quantize"]
    assert "_roundtrip" not in Path(NL.__file__).read_text()


HOT_PATH_SOURCES = sorted(
    path
    for pattern in (
        "fixedpoint/*.py", "core/ipf.py", "core/nonlinear_ops.py",
        "systolic/*.py", "nn/executor.py",
    )
    for path in Path(NL.__file__).parents[1].glob(pattern)
)


@pytest.mark.parametrize("path", HOT_PATH_SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_hot_path_modules_do_not_call_np_clip(path):
    """``np.clip`` dispatches through Python and costs more than a
    maximum and a minimum on hot-path-sized arrays."""
    clips = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "clip"
    ]
    assert clips == [], f"np.clip called at {path.name}:{clips}"


@pytest.mark.parametrize("make_backend", [
    lambda: CPWLBackend(0.25),
    lambda: ArrayBackend(SystolicArray(SystolicConfig(pe_rows=4, pe_cols=4)), 0.25),
], ids=["cpwl", "array"])
def test_ops_write_into_nothing_they_do_not_own(make_backend):
    """In-place scaling is reserved for arrays an op allocated itself:
    cached parameter codes, segment tables and caller inputs survive
    every backend op byte for byte (and frozen, a write would raise)."""
    get_approximator.cache_clear()
    backend = make_backend()
    rng = np.random.default_rng(3)

    def frozen(*shape):
        array = rng.normal(size=shape)
        array.setflags(write=False)
        return array

    x, w, bias = frozen(2, 6, 8), frozen(8, 8), frozen(8)
    images, filters = frozen(2, 3, 5, 5), frozen(4, 27)
    channel = [frozen(3), frozen(3), frozen(3), np.abs(frozen(3)) + 0.1]

    def run_all():
        return [
            backend.linear(x, w, bias),
            backend.matmul(x[0], w),
            backend.matmul(x, np.swapaxes(x, -1, -2)),
            backend.conv_cols(images, 3, 1, 1, filters, bias[:4])[0],
            backend.gelu(x), backend.relu(x),
            backend.softmax(x), backend.causal_softmax(x, 2),
            backend.layernorm(x, w[0], bias),
            backend.batchnorm(images, channel[0], channel[1]),
            backend.batchnorm_stats(images, *channel),
        ]

    first = run_all()  # builds tables and fills the parameter cache
    cached = [backend._quantized_param(array) for array in (w, bias, filters, bias[:4])]
    assert backend.param_cache.stats()["entries"] == len(cached)
    tables, code_tables = [], []
    for name, domain in (
        ("gelu", None), ("exp", None), ("reciprocal", None), ("rsqrt", None),
        ("rsqrt", (1.0, 4.0)), ("relu", (-8.125, 8.125)),
    ):
        approx = get_approximator(name, 0.25, INT16, domain=domain)
        tables += [
            approx.table.slopes, approx.table.intercepts,
            approx.qtable.slopes_raw, approx.qtable.intercepts_raw,
        ]
        # Built on first use, here at the latest: the second run
        # computes each op from its code table, born read-only.
        approx.evaluate_raw(np.arange(INT16.raw_min, INT16.raw_max + 1))
        code_tables.append(approx.code_table)
    assert not any(table.flags.writeable for table in code_tables)
    for array in tables:
        array.setflags(write=False)
    snapshot = [array.tobytes() for array in tables + code_tables + cached]
    try:
        second = run_all()
    finally:
        for array in tables:
            array.setflags(write=True)
    assert [array.tobytes() for array in tables + code_tables + cached] == snapshot
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))
    # No result aliases an input or a cached array.
    for out in second:
        assert out.flags.writeable
        assert not any(
            np.may_share_memory(out, held)
            for held in [x, w, bias, images, filters] + cached
        )
