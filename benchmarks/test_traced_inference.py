"""Traced-path benchmark: plan-cached whole-matrix execution vs seed.

PR 1 vectorized the *untraced* CPWL fast path; this benchmark pins the
follow-up claim — the cycle-accounted ``SystolicArray``/``ArrayBackend``
path now executes whole operands under cached plans, with bit-identical
outputs and identical per-op cycle totals to the seed's per-tile /
per-pair execution on traced BERT-tiny and ResNet-block inference, and
several times faster.

The host-time gate is on the *new* path alone: the median of its wall
times, each scaled to the reference machine speed by hostbench's
calibration kernel timed around it, must stay under the ceiling recorded
in ``BENCH_traced.json``.  The seed/new ratio is still measured and
recorded, but it divides by one noisy seed timing and moves whenever the
shared integer path the seed reference rides on gets faster, so nothing
is asserted on it.

The seed path is reproduced faithfully on top of today's modules:

* one ``fixed_matmul`` dispatched **per output tile** of every GEMM
  (``tests.reference.dataflow.execute_gemm_per_tile``), with the plan
  rebuilt (uncached) per call — exactly the seed ``execute_gemm`` loop;
* batched (attention) matmuls issued as a **per-pair Python loop** with
  per-pair quantization — the seed ``ArrayBackend.matmul``;
* the seed ``quantize`` (abs/floor/copysign chain, always materializing
  the storage-integer array that ``fixed_matmul`` then converted back
  to float64) in front of every GEMM *and* every nonlinear op, so the
  reference runs on integer codes throughout;
* every nonlinear op run as the **structural chain**
  (``tests.reference.chain.ChainArray``) — data addressing batch by
  batch, the data-rearrange streams **materialized** (the seed built
  them unconditionally and never consumed them), the MHP **lane by
  lane** — where today's path charges the same events from the shape
  and gathers the values from the approximator's code table.

A ``BENCH_traced.json`` perf-trajectory artifact is written to the
repository root so CI can accumulate the measurements across PRs.
"""

import json
import multiprocessing
import os
import statistics
import time
from pathlib import Path

import numpy as np

from hostbench.child import make_calibration
from hostbench.run import at_reference_speed

from repro.fixedpoint import dequantize
from repro.nn.executor import ArrayBackend
from repro.nn.models import TinyBERT
from repro.systolic import SystolicArray, SystolicConfig
from repro.systolic.gemm import plan_gemm
from repro.systolic.trace import TraceEvent

from tests.reference.chain import ChainArray, ChainBackend
from tests.reference.dataflow import StructuralAddressing, execute_gemm_per_tile

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_traced.json"
#: A first run records ``HOST_CEILING_FACTOR`` x its own reference-speed
#: median as the workload's ceiling; later runs are gated against it.
HOST_CEILING_FACTOR = 2.0
PLACEMENT_GATE = 1.3
KV_CACHE_GATE = 2.0
MULTIPROC_GATE = 1.5
GENERATION_GATE = 2.0
AUTOTUNE_GATE = 1.3
ELASTIC_GATE = 1.5
ELASTIC_SPREAD_GATE = 3.0


def _read_artifact() -> dict:
    try:
        return json.loads(ARTIFACT.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _update_artifact(**sections) -> None:
    """Merge sections into ``BENCH_traced.json`` (tests run separately)."""
    data = _read_artifact()
    data.update(sections)
    data["benchmark"] = "traced_inference"
    data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    ARTIFACT.write_text(json.dumps(data, indent=2) + "\n")


# --------------------------------------------------------------------------
# Seed-equivalent traced path.
# --------------------------------------------------------------------------
def _seed_quantize(values, fmt):
    """The seed's quantize: abs/floor/copysign passes, integer output."""
    values = np.asarray(values, dtype=np.float64)
    scaled = np.atleast_1d(values * (1 << fmt.frac_bits))
    raw = np.abs(scaled)
    raw += 0.5
    np.floor(raw, out=raw)
    np.copysign(raw, scaled, out=raw)
    np.clip(raw, fmt.raw_min, fmt.raw_max, out=raw)
    return raw.astype(fmt.storage_dtype()).reshape(values.shape)


class _SeedArray(ChainArray):
    """The structural nonlinear chain plus the seed's per-tile GEMM."""

    def gemm_raw(self, a_raw, b_raw, label="gemm"):
        out, schedule = execute_gemm_per_tile(
            self.config, a_raw, b_raw, use_plan_cache=False
        )
        self.trace.record(
            TraceEvent(
                kind="gemm",
                label=label,
                cycles=schedule.breakdown.total,
                ops=schedule.macs,
                breakdown=schedule.breakdown,
            )
        )
        return out

    def apply_nonlinear(self, function, x, granularity, label=None, domain=None):
        # Integer codes in, integer codes out: the fixed-point ops follow
        # their operands' representation, so this keeps the whole IPF ->
        # MHP chain on the seed's integer-materializing path.
        fmt = self.config.fmt
        out = self.apply_nonlinear_raw(
            function, _seed_quantize(x, fmt), granularity, label=label, domain=domain
        )
        return dequantize(out, fmt)


class _SeedBackend(ChainBackend):
    """The chain reference with the seed's per-pair batched matmul loop."""

    def conv_cols(self, x, kernel, stride, padding, weight_mat, bias):
        # The seed unfolded patches first and quantized the k^2-expanded
        # matrix inside linear() (today's path quantizes before the
        # unfold, which commutes).
        from repro.nn.functional import im2col

        cols, out_hw = im2col(np.asarray(x, dtype=np.float64), kernel, stride, padding)
        return self.linear(cols, weight_mat, bias), out_hw

    def linear(self, x, weight, bias):
        # The seed ran a full quantize-dequantize round trip on the
        # bias-added output (today's path proves it reduces to a clip).
        orig_shape = x.shape
        x2 = np.asarray(x, dtype=np.float64).reshape(-1, orig_shape[-1])
        out = self.matmul(x2, weight.T) + dequantize(
            _seed_quantize(bias, self.fmt), self.fmt
        )
        out = dequantize(_seed_quantize(out, self.fmt), self.fmt)
        return out.reshape(orig_shape[:-1] + (weight.shape[0],))

    def matmul(self, a, b):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim == 2 and b.ndim == 2:
            out = self.array.gemm_raw(
                _seed_quantize(a, self.fmt), _seed_quantize(b, self.fmt)
            )
            return dequantize(out, self.fmt)
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        a_b = np.broadcast_to(a, lead + a.shape[-2:]).reshape((-1,) + a.shape[-2:])
        b_b = np.broadcast_to(b, lead + b.shape[-2:]).reshape((-1,) + b.shape[-2:])
        outs = [self.matmul(x, y) for x, y in zip(a_b, b_b)]
        return np.stack(outs).reshape(lead + (a.shape[-2], b.shape[-1]))


# --------------------------------------------------------------------------
# Workloads (the paper's 8x8x16 design point).
# --------------------------------------------------------------------------
def _paper_config():
    return SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16)


def _bert_workload():
    model = TinyBERT(vocab=32, seq_len=16, dim=32, heads=4, ff_dim=64, n_layers=2)
    tokens = np.random.default_rng(0).integers(0, 32, size=(8, 16))
    return "bert_tiny", model, lambda backend: model.infer(tokens, backend)

def _resnet_workload():
    from repro.nn.autograd import Tensor
    from repro.nn.models.resnet import BottleneckBlock

    # A ResNet-50-style bottleneck (1x1 reduce, 3x3, 1x1 expand): the
    # 1x1 convolutions issue many small output tiles per operand byte,
    # the regime where the seed's per-tile dispatch is most expensive.
    rng = np.random.default_rng(1)
    block = BottleneckBlock(128, 32, rng)
    block.train()
    block.forward(Tensor(rng.normal(size=(2, 128, 8, 8))))  # populate BN stats
    block.eval()
    feature_maps = rng.normal(size=(16, 128, 8, 8))
    return "resnet_block", block, lambda backend: block.infer(feature_maps, backend)


def _best_of(fn, repeats=5):
    """Best-of-N wall time (ratio-of-best is robust to runner noise)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _reference_ms(fn, calibrate, repeats=5):
    """``(best seconds, median ms at reference speed)`` of ``fn``.

    The calibration kernel runs just before and just after every sample,
    so each sample is scaled by how fast the machine was around it (the
    hostbench rule); the median of the scaled samples is what is gated.
    """
    walls, scaled = [], []
    before = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
        after = calibrate()
        scaled.append(at_reference_speed(walls[-1], (before + after) / 2.0) * 1e3)
        before = after
    return min(walls), statistics.median(scaled)


def _run_traced(workload, backend_cls, array_cls):
    """Outputs, cycles and per-kind cycles of one traced run, plus a
    closure that repeats the run on the warm backend (for timing)."""
    array = array_cls(_paper_config())
    backend = backend_cls(array, 0.25)
    _, _, infer = workload
    out = infer(backend)
    cycles = array.total_cycles
    kinds = array.trace.cycles_by_kind()
    array.reset()
    return out, cycles, kinds, lambda: infer(backend)


def test_traced_inference_speedup(print_artifact):
    """The plan-cached traced path is bit-identical to the seed path and
    its host time stays under the recorded reference-speed ceiling."""
    calibrate = make_calibration()
    ceilings = {
        name: row["ceiling_ms"]
        for name, row in _read_artifact().get("workloads", {}).items()
        if "ceiling_ms" in row
    }
    results = {}
    lines = [
        "Traced inference: seed per-tile path vs plan-cached whole-matrix",
        f"  design point: {_paper_config().describe()}",
    ]

    # The motivating shape from the tiling analysis: a 512^2 GEMM on the
    # 8x8 grid is 4096 output tiles, i.e. 4096 per-tile fixed_matmul
    # dispatches in the seed loop vs one whole-operand call.
    from repro.fixedpoint import INT16, quantize as _q

    rng = np.random.default_rng(2)
    config = _paper_config()
    a_raw = _q(rng.normal(size=(512, 512)), INT16)
    b_raw = _q(rng.normal(size=(512, 512)), INT16)
    out_seed, sched_seed = execute_gemm_per_tile(
        config, a_raw, b_raw, use_plan_cache=False
    )
    array = SystolicArray(config)
    out_new = array.gemm_raw(a_raw, b_raw)
    sched_new = plan_gemm(config, 512, 512, 512)
    assert np.array_equal(out_seed, out_new)
    assert sched_seed.breakdown == sched_new.breakdown
    assert array.total_cycles == sched_new.breakdown.total
    t_seed = _best_of(
        lambda: execute_gemm_per_tile(config, a_raw, b_raw, use_plan_cache=False)
    )
    t_new, ms_new = _reference_ms(lambda: array.gemm_raw(a_raw, b_raw), calibrate)
    results["gemm_512"] = {
        "seed_seconds": t_seed,
        "new_seconds": t_new,
        "speedup": t_seed / t_new,
        "new_reference_ms": ms_new,
        "traced_cycles": int(sched_new.breakdown.total),
    }
    lines.append(
        f"  {'gemm_512':<14s} seed {t_seed * 1e3:8.1f} ms   "
        f"new {t_new * 1e3:7.1f} ms   {t_seed / t_new:5.1f}x   "
        f"(4096 tiles -> 1 call)"
    )
    for workload in (_bert_workload(), _resnet_workload()):
        name = workload[0]
        seed_out, seed_cycles, seed_kinds, seed_run = _run_traced(
            workload, _SeedBackend, _SeedArray
        )
        new_out, new_cycles, new_kinds, new_run = _run_traced(
            workload, ArrayBackend, SystolicArray
        )
        # Bit-identical outputs, identical per-op cycle accounting.
        assert np.array_equal(seed_out, new_out), f"{name}: outputs diverged"
        assert seed_cycles == new_cycles, f"{name}: cycle totals diverged"
        assert seed_kinds == new_kinds, f"{name}: per-kind cycles diverged"
        seed_t = _best_of(seed_run)
        new_t, ms_new = _reference_ms(new_run, calibrate)
        speedup = seed_t / new_t
        results[name] = {
            "seed_seconds": seed_t,
            "new_seconds": new_t,
            "speedup": speedup,
            "new_reference_ms": ms_new,
            "traced_cycles": int(new_cycles),
        }
        lines.append(
            f"  {name:<14s} seed {seed_t * 1e3:8.1f} ms   "
            f"new {new_t * 1e3:7.1f} ms   {speedup:5.1f}x   "
            f"({new_cycles} cycles, identical)"
        )
    for name, row in results.items():
        row["ceiling_ms"] = ceilings.get(
            name, HOST_CEILING_FACTOR * row["new_reference_ms"]
        )
        lines.append(
            f"  {name:<14s} new {row['new_reference_ms']:7.2f} ms at reference "
            f"speed, ceiling {row['ceiling_ms']:.2f} ms"
        )
    print_artifact("\n".join(lines))

    _update_artifact(design_point=_paper_config().describe(), workloads=results)

    for name, row in results.items():
        assert row["new_reference_ms"] <= row["ceiling_ms"], (
            f"{name}: {row['new_reference_ms']:.2f} ms at reference speed "
            f"> ceiling {row['ceiling_ms']:.2f} ms"
        )


def test_serving_throughput_measurably_up(print_artifact):
    """A request burst through InferenceEngine on the plan-cached
    whole-matrix shards gives the seed-path shards' outputs and cycles,
    and its host time stays under the recorded reference-speed ceiling
    (the seed/new ratio is recorded, not asserted: see the module
    docstring)."""
    from repro.serving import InferenceEngine, ClusterDispatcher

    config = _paper_config()
    rng = np.random.default_rng(3)
    tokens = rng.integers(0, 32, size=(16, 16))

    def run_burst(backend_cls, array_cls):
        model = TinyBERT(vocab=32, seq_len=16, dim=32, heads=4, ff_dim=64, n_layers=2)
        pool = ClusterDispatcher(
            [backend_cls(array_cls(config), 0.25) for _ in range(2)]
        )
        engine = InferenceEngine(pool, max_batch_size=8, flush_timeout=1e-4)
        engine.register("bert", model)

        def one_burst():
            ids = [engine.submit("bert", row) for row in tokens]
            report = engine.run()
            return [engine.result(i) for i in ids], report

        outputs, report = one_burst()
        return outputs, report, one_burst

    seed_out, seed_report, seed_burst = run_burst(_SeedBackend, _SeedArray)
    new_out, new_report, new_burst = run_burst(ArrayBackend, SystolicArray)

    for s, n in zip(seed_out, new_out):
        assert np.array_equal(s, n)
    assert new_report.total_cycles == seed_report.total_cycles

    seed_t = _best_of(seed_burst, repeats=3)
    new_t, ms_new = _reference_ms(new_burst, make_calibration())
    ceiling_ms = _read_artifact().get("serving_burst", {}).get(
        "ceiling_ms", HOST_CEILING_FACTOR * ms_new
    )
    print_artifact(
        "Serving burst (16 BERT-tiny requests, 2 array shards)\n"
        f"  seed shards {seed_t * 1e3:7.1f} ms   "
        f"new shards {new_t * 1e3:6.1f} ms   {seed_t / new_t:4.1f}x\n"
        f"  new shards {ms_new:6.2f} ms at reference speed, "
        f"ceiling {ceiling_ms:.2f} ms\n"
        + new_report.summary()
    )
    _update_artifact(
        serving_burst={
            "requests": len(tokens),
            "seed_seconds": seed_t,
            "new_seconds": new_t,
            "speedup": seed_t / new_t,
            "new_reference_ms": ms_new,
            "traced_cycles": int(new_report.total_cycles),
            "ceiling_ms": ceiling_ms,
        }
    )
    assert ms_new <= ceiling_ms, (
        f"serving burst: {ms_new:.2f} ms at reference speed "
        f"> ceiling {ceiling_ms:.2f} ms"
    )


def test_host_coalescing_counts(print_artifact):
    """A classifier burst makes far fewer model calls than it has batches.

    256 requests of the serving burst's BERT-tiny on 2 shards are 32
    simulated batches; registered as a ``Module`` the engine charges each
    batch by replaying its shape's trace tape and computes rows in
    stacked host passes (the burst's 4,096 tokens fill one stack), so it
    calls the model twice — the first batch executes, one stack computes
    the rest — where the ``infer_fn=`` reference calls it 32 times, for
    equal outputs and traced cycles.  A second engine assembled from the
    same ``EndpointSpec`` finds every shape's tape on the spec and only
    computes the stack (1 call).
    The gates are on counts, which repeat exactly on any runner.
    """
    from repro.serving import ClusterSpec, EndpointSpec, InferenceEngine
    from repro.serving.deploy import assemble_engine
    from repro.serving.engine import STACK_ELEMENTS

    class CountedBERT(TinyBERT):
        calls = 0

        def infer(self, tokens, backend, kv=None):
            self.calls += 1
            return super().infer(tokens, backend, kv)

    tokens = np.random.default_rng(4).integers(0, 32, size=(256, 16))
    models = []

    def counted(**kwargs):
        models.append(CountedBERT(**kwargs))
        return models[-1]

    spec = EndpointSpec(
        "bert", counted,
        dict(vocab=32, seq_len=16, dim=32, heads=4, ff_dim=64, n_layers=2),
    )
    pool = ClusterSpec.homogeneous(_paper_config(), 2, 0.25)

    def serve(eager):
        if eager:
            engine = InferenceEngine(pool.build(), max_batch_size=8, flush_timeout=1e-4)
            engine.register("bert", infer_fn=counted(**spec.kwargs).infer)
        else:
            engine = assemble_engine(pool, [spec], max_batch_size=8, flush_timeout=1e-4)
        ids = [engine.submit("bert", row) for row in tokens]
        report = engine.run()
        return [engine.result(i) for i in ids], report, models[-1].calls

    outputs, report, calls = serve(eager=False)
    # Engines of one spec share its tapes: the second executes no shape
    # for the first time, it only computes stacks.
    again_outputs, again_report, again_calls = serve(eager=False)
    eager_outputs, eager_report, eager_calls = serve(eager=True)
    for ours, again, theirs in zip(outputs, again_outputs, eager_outputs):
        assert np.array_equal(ours, theirs) and np.array_equal(again, theirs)
    assert report.total_cycles == again_report.total_cycles == eager_report.total_cycles
    assert report.n_batches == eager_report.n_batches == eager_calls == 32
    stacks = -(-tokens.size // STACK_ELEMENTS)
    print_artifact(
        "Host coalescing (256 BERT-tiny requests, 2 array shards)\n"
        f"  batches {report.n_batches}   model calls {calls}, {again_calls} on a "
        f"second engine of the same spec (eager reference {eager_calls})   "
        f"{report.total_cycles} traced cycles, identical"
    )
    _update_artifact(
        host_coalescing={
            "requests": len(tokens),
            "batches": report.n_batches,
            "model_calls": calls,
            "second_replay_model_calls": again_calls,
            "eager_model_calls": eager_calls,
            "traced_cycles": int(report.total_cycles),
        }
    )
    assert calls <= report.n_batches // 2, (
        f"{calls} model calls for {report.n_batches} batches"
    )
    assert again_calls <= stacks, (
        f"{again_calls} model calls on the second engine for {stacks} stacks"
    )


def test_generation_coalescing_counts(print_artifact):
    """A conversational replay makes far fewer model calls than it has
    prefills and decode steps.

    360 generation requests (8-token prompts, 8 new tokens) on 2 shards
    are some 500 simulated units.  Registered as a ``Module`` the engine
    charges every unit after the first of its shape by replaying a trace
    tape and reads its tokens off transcripts — one lockstep prefill +
    decode loop over up to 512 stacked 8-token prompts — so it calls the
    model at most a third as often as the ``infer_fn=`` +
    ``generation_adapter=`` reference, which calls it once per unit, for
    equal tokens and traced cycles.  A second engine assembled from the
    same ``EndpointSpec`` finds every shape's tape on the spec and makes
    lockstep passes only (one pass of 1 prefill + 7 decode steps).  The
    gates are on counts, which repeat exactly on any runner.
    """
    from repro.autotune import EndpointProfile, synthesize_trace
    from repro.serving import (
        ClusterSpec, EndpointSpec, GenerationAdapter, InferenceEngine, RadixKVCache,
    )
    from repro.serving.deploy import assemble_engine
    from repro.serving.engine import STACK_ELEMENTS

    class CountedChat(TinyBERT):
        calls = 0

        def prefill(self, tokens, backend, cached=None):
            self.calls += 1
            return super().prefill(tokens, backend, cached=cached)

        def decode_step(self, state, tokens, backend):
            self.calls += 1
            return super().decode_step(state, tokens, backend)

    new_tokens = 8
    trace = synthesize_trace(
        "chat",
        (EndpointProfile("chat", seq_len=8, vocab=16, max_new_tokens=new_tokens),),
        360, 360 * 1e-4, 0, "conversational", tenants=("tenant-a", "tenant-b"),
    )
    models = []

    def counted(**kwargs):
        models.append(CountedChat(**kwargs))
        return models[-1]

    spec = EndpointSpec(
        "chat", counted,
        dict(vocab=16, seq_len=16, dim=8, heads=2, ff_dim=16, n_layers=1, causal=True),
        generation=True,
    )
    pool = ClusterSpec.homogeneous(_paper_config(), 2, 0.25)
    options = dict(max_batch_size=8, placement="cost_aware")

    def serve(eager):
        if eager:
            engine = InferenceEngine(pool.build(), radix_cache=RadixKVCache(), **options)
            model = counted(**spec.kwargs)
            engine.register(
                "chat", infer_fn=model.infer, generation_adapter=GenerationAdapter(model)
            )
        else:
            engine = assemble_engine(pool, [spec], **options)
        ids = engine.enqueue(trace.requests)
        report = engine.run()
        return [engine.result(i) for i in ids], report, models[-1].calls

    outputs, report, calls = serve(eager=False)
    # Engines of one spec share its tapes: the second executes no shape
    # for the first time, it only makes lockstep passes.
    again_outputs, again_report, again_calls = serve(eager=False)
    eager_outputs, eager_report, eager_calls = serve(eager=True)
    for ours, again, theirs in zip(outputs, again_outputs, eager_outputs):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
        assert again.dtype == theirs.dtype and np.array_equal(again, theirs)
    assert report.total_cycles == again_report.total_cycles == eager_report.total_cycles
    units = len(report.placements)
    assert units == len(eager_report.placements) == eager_calls
    prompt_elements = sum(r.inputs_array().size for r in trace.requests)
    lockstep = -(-prompt_elements // STACK_ELEMENTS) * new_tokens
    print_artifact(
        "Generation coalescing (360 conversational requests, 2 array shards)\n"
        f"  units {units} ({units - len(report.generation_steps)} prefills + "
        f"{len(report.generation_steps)} decode steps)   model calls {calls}, "
        f"{again_calls} on a second engine of the same spec "
        f"(eager reference {eager_calls})   {report.generated_tokens} tokens, "
        f"{report.total_cycles} traced cycles, identical"
    )
    _update_artifact(
        generation_coalescing={
            "requests": len(trace.requests),
            "units": units,
            "decode_steps": len(report.generation_steps),
            "tokens": int(report.generated_tokens),
            "model_calls": calls,
            "second_replay_model_calls": again_calls,
            "eager_model_calls": eager_calls,
            "traced_cycles": int(report.total_cycles),
        }
    )
    assert calls <= units // 3, f"{calls} model calls for {units} units"
    assert again_calls <= lockstep, (
        f"{again_calls} model calls on the second engine for {lockstep} lockstep ones"
    )


class _ForkCounter:
    """Named counts that a forked child (an engine's stack helper) adds
    to as well: one anonymous shared mapping, made before the replays,
    under one lock, with this process's counts and its children's apart."""

    def __init__(self, *names):
        self.names, self.pid = names, os.getpid()
        self._cells = multiprocessing.Array("q", 2 * len(names))

    def add(self, name, n=1):
        cell = 2 * self.names.index(name) + (os.getpid() != self.pid)
        with self._cells.get_lock():
            self._cells[cell] += n

    def clear(self):
        with self._cells.get_lock():
            self._cells[:] = [0] * len(self._cells)

    def counts(self, side=None):
        """Nonzero counts, like a ``Counter``: of both processes, or of
        ``side`` 0 (this one) or 1 (its children) alone."""
        with self._cells.get_lock():
            cells = self._cells[:]
        sides = (0, 1) if side is None else (side,)
        counts = {
            name: sum(cells[2 * i + j] for j in sides)
            for i, name in enumerate(self.names)
        }
        return {name: n for name, n in counts.items() if n}


def test_replay_counts_at_the_hostbench_shapes(print_artifact, monkeypatch):
    """Two replays of one spec at hostbench's three serving shapes (seed 0,
    ``--scale 0.2``) — what every timed repetition after the first is.

    The second replay finds every shape's tape on the spec, so its model
    calls are stacked passes only: ``ceil(elements / STACK_ELEMENTS)`` on
    the 3,200-request bursty trace, exactly one lockstep pass (1 prefill
    + 7 decode steps) over the 72 conversational prompts, and at most
    ``ceil(elements / STACK_ELEMENTS)`` on the flood, which computes rows
    for requests it sheds later.

    Approximators are memoised per process, so from cold (the memo
    emptied before each shape) the first replay constructs every one it
    uses and the second none.  Each builds its code table on first use
    and the table outlives the replay, so the second replay runs the
    IPF -> MHP chain not once: how many replays it takes to get there is
    recorded and gated at exactly 2.  The gates are on counts, which
    repeat exactly on any runner.  Calls made in an engine's
    stack helper process count: how the second replay's model calls and
    rows split between this process and the helper is recorded.
    """
    import dataclasses
    import sys

    from hostbench.workloads import WORKLOADS
    from repro.autotune import replay_trace, report_fingerprint
    from repro.core.cpwl import CPWLApproximator
    from repro.core.nonlinear_ops import get_approximator, relu_domain
    from repro.serving.engine import STACK_ELEMENTS

    model_calls = ("infer", "prefill", "decode_step")
    calls = _ForkCounter(*model_calls, "rows")
    cpwl_work = _ForkCounter("approximators", "chain_calls")
    cpwl = sys.modules["repro.core.cpwl"]
    chain = cpwl.fetch_parameters
    init = CPWLApproximator.__init__

    def counting_chain(*args, **kwargs):
        cpwl_work.add("chain_calls")
        return chain(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        cpwl_work.add("approximators")
        init(self, *args, **kwargs)

    def counted(factory):
        class Counted(factory):
            def infer(self, tokens, backend, *args):
                calls.add("infer")
                calls.add("rows", len(tokens))
                return super().infer(tokens, backend, *args)

            def prefill(self, tokens, backend, cached=None):
                calls.add("prefill")
                return super().prefill(tokens, backend, cached=cached)

            def decode_step(self, state, tokens, backend):
                calls.add("decode_step")
                return super().decode_step(state, tokens, backend)

        return Counted

    def replay(workload, spec):
        calls.clear(), cpwl_work.clear()
        report = replay_trace(workload.trace, workload.tuning, (spec,))
        split = {"parent": calls.counts(0), "helper": calls.counts(1)}
        return calls.counts(), cpwl_work.counts(), report, split

    recorded = {}
    with monkeypatch.context() as patch:
        patch.setattr(cpwl, "fetch_parameters", counting_chain)
        patch.setattr(CPWLApproximator, "__init__", counting_init)
        for name in ("classify_bursty", "generate_chat", "admission_flood"):
            workload = WORKLOADS[name](0, 0.2)
            spec = dataclasses.replace(
                workload.endpoint, factory=counted(workload.endpoint.factory)
            )
            get_approximator.cache_clear()
            (first, work, report, _), (second, work_again, again, split) = (
                replay(workload, spec) for _ in range(2)
            )
            assert report_fingerprint(report) == report_fingerprint(again)
            elements = sum(r.inputs_array().size for r in workload.trace.requests)
            recorded[name] = {
                "requests": len(workload.trace.requests),
                "completed": len(report.completed),
                "stacks": -(-elements // STACK_ELEMENTS),
                "model_calls": sum(first.get(k, 0) for k in model_calls),
                "cpwl": work,
                "second_replay": second,
                "second_replay_split": split,
                "second_replay_cpwl": work_again,
            }
            replays = 2
            while work_again.get("chain_calls") and replays < 100:
                work_again = replay(workload, spec)[1]
                replays += 1
            recorded[name]["replays_to_no_chain_calls"] = replays
    print_artifact(
        "Two replays of one spec (hostbench shapes, seed 0, scale 0.2)\n"
        + "\n".join(
            f"  {name:<16s} {row['requests']:>6,} requests: {row['model_calls']} calls "
            f"{row['cpwl']}, then {row['second_replay']} {row['second_replay_cpwl']} "
            f"(input fills {row['stacks']} stack(s)); no chain call from replay "
            f"{row['replays_to_no_chain_calls']} on"
            for name, row in recorded.items()
        )
    )
    _update_artifact(replay_model_calls=recorded)
    bursty, chat, flood = recorded.values()
    assert bursty["second_replay"]["infer"] == bursty["stacks"]
    assert bursty["second_replay"]["rows"] == bursty["requests"]
    assert chat["second_replay"] == {"prefill": 1, "decode_step": 7}
    assert flood["second_replay"]["infer"] <= flood["stacks"]
    # Approximators and their tables outlive a replay.
    assert bursty["cpwl"]["approximators"] == chat["cpwl"]["approximators"] == 4
    assert not any(row["second_replay_cpwl"] for row in recorded.values())
    assert bursty["replays_to_no_chain_calls"] == chat["replays_to_no_chain_calls"] == 2


def test_nonlinear_code_table(print_artifact, monkeypatch):
    """A ``model_forward``-shaped forward computes its nonlinear ops from
    code tables: after the first, a forward calls neither stage of the
    IPF -> MHP chain nor the structural addressing walk, and it is charged exactly
    the structural chain's cycles (``ChainBackend`` on a ``ChainArray``,
    which must walk it) for bit-identical outputs.

    The first forward builds the table of every approximator it uses
    (each on its first call).  The gates are on counts, which repeat
    exactly on any runner.
    """
    import collections
    import sys

    from hostbench.workloads import model_forward
    from repro.core.cpwl import CPWLApproximator
    from repro.core.nonlinear_ops import get_approximator

    workload = model_forward(0, 0.2)
    config = workload.backend.array.config

    def forward(backend_cls, array_cls):
        backend = backend_cls(array_cls(config), 0.25)
        outputs = (
            workload.bert.infer(workload.tokens, backend),
            workload.block.infer(workload.images, backend),
        )
        return outputs, backend.array.trace

    get_approximator.cache_clear()
    fed = collections.Counter()
    evaluate = CPWLApproximator.evaluate_raw

    def feeding(self, x_raw):
        fed[self] += np.asarray(x_raw).size
        return evaluate(self, x_raw)

    with monkeypatch.context() as patch:
        patch.setattr(CPWLApproximator, "evaluate_raw", feeding)
        forward(ArrayBackend, SystolicArray)
    tables = {}
    for approx, elements in fed.items():
        tables[f"{approx.function.name}[{approx.table.x_min}, {approx.table.x_max}]"] = {
            "elements_per_forward": elements,
            "built_by_first_forward": approx.code_table is not None,
        }

    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("fetch_parameters", "fixed_hadamard_mac"):
            original = getattr(sys.modules["repro.core.cpwl"], name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and vars(module).get(name) is original:
                    patch.setattr(module, name, counted(name, original))
        patch.setattr(
            StructuralAddressing, "run",
            counted("StructuralAddressing.run", StructuralAddressing.run),
        )
        outputs, trace = forward(ArrayBackend, SystolicArray)
        chain_calls = {
            name: calls[name] for name in ("fetch_parameters", "fixed_hadamard_mac")
        }
        reference, reference_trace = forward(ChainBackend, ChainArray)
        reference_walks = calls["StructuralAddressing.run"]
    # The reference ran the structural chain, so the gates below compare
    # the shape charge with the chain's own events.
    assert reference_walks > 0, "the reference forward skipped the structural chain"
    for ours, theirs in zip(outputs, reference):
        assert np.array_equal(ours, theirs), "code tables changed an output"
    assert trace.cycles_by_kind() == reference_trace.cycles_by_kind()
    assert trace.total_cycles == reference_trace.total_cycles
    assert all(row["built_by_first_forward"] for row in tables.values())
    nonlinear_ops = trace.ops_by_kind()["mhp"]
    print_artifact(
        "Nonlinear ops from code tables (model_forward shapes, one forward)\n"
        + "\n".join(
            f"  {name:<24s} {row['elements_per_forward']:>9,} elements/forward   "
            f"built by the first: {row['built_by_first_forward']}"
            for name, row in tables.items()
        )
        + f"\n  second forward: chain calls {chain_calls}\n"
        f"  {trace.total_cycles:,} traced cycles, equal to the structural chain's"
    )
    _update_artifact(
        nonlinear_code_table={
            "approximators": tables,
            "chain_calls_after_warmup": chain_calls,
            "mhp_elements": int(nonlinear_ops),
            "traced_cycles": int(trace.total_cycles),
        }
    )
    assert not any(chain_calls.values()), f"chain ran after the first forward: {chain_calls}"


def test_placement_cost_aware_beats_round_robin(print_artifact):
    """Cost-aware placement >= 1.3x lower simulated makespan than blind
    round-robin on a skewed heterogeneous 4-shard pool.

    The pool mixes grid sizes, MAC counts and clocks (~160x capability
    spread end to end); the request mix is shape-skewed (two
    transformer endpoints with different sequence lengths and widths).
    Cost estimates come from the closed-form cycle model via batched
    ``Workload`` inventories — the same ``gemm_cycles`` the plan cache
    stores — so the policy prices every batch on every design point
    without executing anything twice.  Outputs stay bit-identical:
    placement moves work between shards, never changes arithmetic.
    """
    from repro.nn.workload import transformer_serving_workload
    from repro.serving import ClusterSpec, InferenceEngine, workload_cost_model

    pool_configs = [
        SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6),
    ]
    small_kw = dict(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
    large_kw = dict(vocab=16, seq_len=16, dim=16, heads=4, ff_dim=32, n_layers=2)
    rng = np.random.default_rng(4)
    small_rows = rng.integers(0, 16, size=(24, small_kw["seq_len"]))
    large_rows = rng.integers(0, 16, size=(8, large_kw["seq_len"]))

    def cost(kw):
        return workload_cost_model(
            lambda batch, shape: transformer_serving_workload(
                batch, kw["seq_len"], kw["dim"], kw["heads"],
                kw["ff_dim"], kw["n_layers"],
            )
        )

    def run(placement):
        engine = InferenceEngine(
            ClusterSpec.heterogeneous(pool_configs).build(),
            max_batch_size=4,
            flush_timeout=1e-4,
            placement=placement,
        )
        engine.register("bert_small", TinyBERT(**small_kw), cost_model=cost(small_kw))
        engine.register("bert_large", TinyBERT(**large_kw), cost_model=cost(large_kw))
        ids = [engine.submit("bert_small", row, arrival=0.0) for row in small_rows]
        ids += [engine.submit("bert_large", row, arrival=0.0) for row in large_rows]
        report = engine.run()
        outputs = [engine.result(i) for i in ids]
        return outputs, report

    rr_outputs, rr_report = run("round_robin")
    ca_outputs, ca_report = run("cost_aware")

    for a, b in zip(rr_outputs, ca_outputs):
        assert np.array_equal(a, b), "placement changed results"
    assert rr_report.n_requests == ca_report.n_requests == 32
    # The pinned backward-compat mapping: i-th batch -> shard i % 4.
    for decision in rr_report.placements:
        assert decision.shard == decision.batch_index % 4

    ratio = rr_report.makespan / ca_report.makespan
    results = {
        "pool": [
            f"{c.describe()} @ {c.clock_hz / 1e6:.0f} MHz" for c in pool_configs
        ],
        "requests": 32,
        "round_robin_makespan_us": rr_report.makespan * 1e6,
        "cost_aware_makespan_us": ca_report.makespan * 1e6,
        "speedup": ratio,
        "gate": PLACEMENT_GATE,
        "round_robin_imbalance": rr_report.imbalance(),
        "cost_aware_imbalance": ca_report.imbalance(),
        "cost_aware_utilization": {
            str(shard): round(util, 4)
            for shard, util in ca_report.shard_utilization().items()
        },
    }
    _update_artifact(placement=results)

    print_artifact(
        "Placement on a skewed heterogeneous 4-shard pool "
        "(32 requests, 2 endpoints)\n"
        f"  round_robin makespan {rr_report.makespan * 1e6:9.1f} us\n"
        f"  cost_aware  makespan {ca_report.makespan * 1e6:9.1f} us   "
        f"{ratio:4.1f}x\n"
        + ca_report.placement_section()
    )
    assert ratio >= PLACEMENT_GATE, (
        f"cost_aware only {ratio:.2f}x better than round_robin "
        f"(< {PLACEMENT_GATE}x gate)"
    )


def test_kv_cache_prefix_reuse(print_artifact):
    """KV-prefix reuse >= 2x traced-cycle reduction on a repeated-prefix
    burst, bit-identical to cold execution.

    The production-shaped scenario: a burst of requests sharing a long
    prompt (28 of 32 tokens) hits one engine with a prefix cache and
    one without.  The cached engine executes the first batch cold
    (seeding the cache) and every later batch suffix-only on the shard
    holding the prefix; outputs match element for element, and the
    pool-wide traced cycles drop by the closed-form cost of the skipped
    GEMM/GELU work — the exactness the property suite pins.
    """
    from repro.nn.models import TinyBERT
    from repro.serving import (
        ClusterSpec,
        InferenceEngine,
        RadixKVCache,
        TransformerPrefixAdapter,
    )

    config = _paper_config()
    seq_len, prefix_len = 32, 28
    model = TinyBERT(
        vocab=32, seq_len=seq_len, dim=32, heads=4, ff_dim=64,
        n_layers=2, causal=True,
    )
    rng = np.random.default_rng(6)
    prompt = rng.integers(0, 32, size=prefix_len)
    tokens = np.concatenate(
        [
            np.broadcast_to(prompt, (32, prefix_len)),
            rng.integers(0, 32, size=(32, seq_len - prefix_len)),
        ],
        axis=1,
    )

    def run_burst(cache):
        engine = InferenceEngine(
            ClusterSpec.homogeneous(config, 2).build(),
            max_batch_size=8,
            flush_timeout=1e-4,
            radix_cache=cache,
        )
        adapter = (
            TransformerPrefixAdapter(model, prefix_len) if cache is not None else None
        )
        engine.register("bert", model, prefix_adapter=adapter)
        # Warm the approximator preloads on both shards so the traced
        # totals compare pure inference work.
        for shard in range(2):
            model.infer(tokens[:1], engine.dispatcher.backends[shard])
            engine.dispatcher.array_of(shard).trace.clear()
        ids = [engine.submit("bert", row) for row in tokens]
        report = engine.run()
        outputs = [engine.result(i) for i in ids]
        return outputs, report

    cold_out, cold_report = run_burst(None)
    warm_out, warm_report = run_burst(RadixKVCache())

    for a, b in zip(cold_out, warm_out):
        assert np.array_equal(a, b), "prefix reuse changed results"
    assert warm_report.prefix_misses == 1
    assert warm_report.prefix_hits == 3
    # Exact accounting: cycles saved is precisely the traced difference.
    assert (
        cold_report.total_cycles - warm_report.total_cycles
        == warm_report.prefix_cycles_saved
    )

    ratio = cold_report.total_cycles / warm_report.total_cycles
    results = {
        "design_point": config.describe(),
        "requests": 32,
        "seq_len": seq_len,
        "prefix_len": prefix_len,
        "cold_total_cycles": cold_report.total_cycles,
        "cached_total_cycles": warm_report.total_cycles,
        "cycles_saved": warm_report.prefix_cycles_saved,
        "hit_batches": warm_report.prefix_hits,
        "miss_batches": warm_report.prefix_misses,
        "reduction": ratio,
        "gate": KV_CACHE_GATE,
    }
    _update_artifact(kv_cache=results)

    print_artifact(
        "KV-prefix reuse (32 requests, 28/32 shared prompt, 2 shards)\n"
        f"  cold burst   {cold_report.total_cycles:>12,} cycles\n"
        f"  cached burst {warm_report.total_cycles:>12,} cycles   "
        f"{ratio:4.1f}x fewer\n"
        + warm_report.prefix_section()
    )
    assert ratio >= KV_CACHE_GATE, (
        f"prefix reuse only {ratio:.2f}x traced-cycle reduction "
        f"(< {KV_CACHE_GATE}x gate)"
    )


def test_multiproc_scaleout_throughput(print_artifact):
    """One engine over a 2-shard cluster sustains >= 1.5x the simulated
    throughput of one engine over a single shard, with bit-identical
    outputs.

    The scale-out claim: the engine places every batch on a shard of its
    pool, so adding a shard adds that shard's full capacity.  Throughput
    is simulated requests-per-second (the cycle model's makespan), which
    isolates the capacity claim from host scheduling noise.  The 32
    requests form four equal batches that round-robin placement deals
    two to a shard, so the ideal ratio is 2x and the 1.5x gate leaves
    room for batching-edge effects only.
    """
    from repro.serving import ClusterSpec, EndpointSpec, assemble_engine

    config = _paper_config()
    seq_len = 16
    model_kwargs = dict(
        vocab=32, seq_len=seq_len, dim=32, heads=4, ff_dim=64,
        n_layers=2, causal=True,
    )
    # No prefix endpoint here: every batch then costs the same, so the
    # makespan ratio measures shard capacity alone.  (The kv_cache
    # section above owns the prefix-reuse claim.)
    models = [EndpointSpec(name="bert", factory=TinyBERT, kwargs=model_kwargs)]
    rng = np.random.default_rng(7)
    # A burst (all arrivals at t=0): the makespan then measures pure
    # service capacity, not the arrival spread of the trace.
    requests = [
        {
            "model": "bert",
            "inputs": rng.integers(0, 32, size=seq_len),
            "arrival": 0.0,
        }
        for _ in range(32)
    ]

    def serve(n_shards):
        engine = assemble_engine(ClusterSpec.homogeneous(config, n_shards), models)
        engine.enqueue(requests)
        return engine.run()

    single = serve(1)
    pool = serve(2)

    # Scale-out must not change arithmetic: every request's output is
    # bit-identical to the single-shard run's.
    single_outputs = {
        record.request.inputs.tobytes(): record.outputs
        for record in single.completed
    }
    for record in pool.completed:
        assert np.array_equal(
            record.outputs, single_outputs[record.request.inputs.tobytes()]
        ), "scale-out changed results"
    assert pool.n_requests == 32
    assert {record.shard for record in pool.completed} == {0, 1}

    single_span = single.makespan
    pool_span = pool.makespan
    single_rps = 32 / single_span
    pool_rps = 32 / pool_span
    ratio = pool_rps / single_rps
    results = {
        "design_point": config.describe(),
        "requests": 32,
        "shards": 2,
        "one_shard_makespan_us": single_span * 1e6,
        "two_shard_makespan_us": pool_span * 1e6,
        "one_shard_rps": single_rps,
        "two_shard_rps": pool_rps,
        "speedup": ratio,
        "gate": MULTIPROC_GATE,
    }
    _update_artifact(scaleout=results)

    print_artifact(
        "Scale-out on one engine (32 requests, 1 vs 2 shards)\n"
        f"  1 shard  makespan {single_span * 1e6:9.1f} us   "
        f"{single_rps:10.0f} req/s\n"
        f"  2 shards makespan {pool_span * 1e6:9.1f} us   "
        f"{pool_rps:10.0f} req/s   {ratio:4.2f}x"
    )
    assert ratio >= MULTIPROC_GATE, (
        f"2-shard engine only {ratio:.2f}x single-shard throughput "
        f"(< {MULTIPROC_GATE}x gate)"
    )


def test_generation_continuous_batching(print_artifact):
    """Continuous-batching decode >= 2x the traced-cycle throughput of
    one-request-at-a-time decode on a mixed-arrival generation burst,
    with bit-identical tokens.

    Every decode iteration re-forms its batch from the live pool, so
    sequences admitted at different instants share each step's QKV
    projections, attention GEMMs and FFN — the per-step fixed costs
    (pipeline fill, weight loads) amortize over the batch while the
    serial baseline (``max_batch_size=1``) pays them once per sequence
    per token.  The batched run also stacks the 16 same-length
    prompts into one prefill where the baseline runs 16, which adds a
    smaller share of the gain; tokens are bit-identical because
    batching only stacks rows through the same fixed-point kernels.
    """
    from repro.serving import ClusterDispatcher, GenerationAdapter, InferenceEngine

    config = _paper_config()
    # Narrow decode rows are the fixed-cost-dominated regime the decode
    # pool exists for: a (B, 4) step amortizes nearly all of its cycles.
    model = TinyBERT(
        vocab=16, seq_len=16, dim=4, heads=1, ff_dim=8, n_layers=2,
        causal=True, seed=0,
    )
    rng = np.random.default_rng(9)
    n_requests, prompt_len, max_new = 16, 4, 12
    prompts = rng.integers(0, 16, size=(n_requests, prompt_len))

    def run_burst(max_batch_size):
        pool = ClusterDispatcher.from_arrays([SystolicArray(config)], 0.25)
        engine = InferenceEngine(
            pool, max_batch_size=max_batch_size, flush_timeout=1e-4
        )
        engine.register("gen", generation_adapter=GenerationAdapter(model))
        ids = [
            engine.submit_generation("gen", row, max_new, arrival=i * 1e-7)
            for i, row in enumerate(prompts)
        ]
        report = engine.run()
        outputs = [engine.result(i) for i in ids]
        return outputs, report

    serial_out, serial_report = run_burst(1)
    batched_out, batched_report = run_burst(16)

    # Batching must not change a single token.
    for a, b in zip(serial_out, batched_out):
        assert np.array_equal(a, b), "continuous batching changed tokens"
    assert len(batched_report.completed) == n_requests
    assert not batched_report.shed

    # The decode pool actually merged independent sequences.
    steps = batched_report.generation_steps
    mean_batch = sum(s.batch_size for s in steps) / len(steps)
    assert max(s.batch_size for s in steps) > 1

    # Traced-cycle throughput: tokens per simulated cycle of pool work.
    tokens = batched_report.generated_tokens
    serial_tput = tokens / serial_report.total_cycles
    batched_tput = tokens / batched_report.total_cycles
    ratio = batched_tput / serial_tput
    results = {
        "design_point": config.describe(),
        "requests": n_requests,
        "prompt_len": prompt_len,
        "max_new_tokens": max_new,
        "tokens": tokens,
        "serial_total_cycles": serial_report.total_cycles,
        "batched_total_cycles": batched_report.total_cycles,
        "serial_decode_iterations": serial_report.decode_steps,
        "batched_decode_iterations": batched_report.decode_steps,
        "mean_decode_batch": mean_batch,
        "serial_tokens_per_sec": serial_report.tokens_per_second(),
        "batched_tokens_per_sec": batched_report.tokens_per_second(),
        "speedup": ratio,
        "gate": GENERATION_GATE,
    }
    _update_artifact(generation=results)

    print_artifact(
        f"Continuous-batching decode ({n_requests} requests x {max_new} "
        "tokens, 1 shard)\n"
        f"  one-at-a-time {serial_report.total_cycles:>10,} cycles   "
        f"{serial_report.decode_steps:4d} iterations\n"
        f"  continuous    {batched_report.total_cycles:>10,} cycles   "
        f"{batched_report.decode_steps:4d} iterations   {ratio:4.2f}x\n"
        + batched_report.generation_section()
    )
    assert ratio >= GENERATION_GATE, (
        f"continuous batching only {ratio:.2f}x one-at-a-time "
        f"traced-cycle throughput (< {GENERATION_GATE}x gate)"
    )


def test_autotune_search_beats_default(print_artifact):
    """A short seeded search over recorded traffic finds a deployment
    >= 1.3x better than the default config on the cost x SLO scalar.

    The closed loop the autotuner exists for: a default deployment (the
    full skewed 4-shard pool under blind round-robin) serves a bursty
    deadline-carrying burst with a ``TraceRecorder`` attached; the
    recorded trace is persisted and replayed over a seeded random draw
    of candidate deployments.  The default pool pays for all four
    design points — including two slow-clock shards round-robin keeps
    feeding — so the search finds configs that are simultaneously
    cheaper (smaller pools of the strong design points) and no worse at
    the tail, and the scalar objective (watt-equivalents x p99 seconds
    per unit of honored demand) improves by well over the gate.  The
    search itself is deterministic: same trace, same seed, same front
    every run.
    """
    from repro.autotune import (
        ConfigSpace,
        EndpointSpec,
        TraceRecorder,
        TuningConfig,
        WorkloadCostSpec,
        evaluate,
        load_trace,
        random_search,
        save_trace,
        scalar_score,
    )
    from repro.serving import ClusterSpec, InferenceEngine

    pool_configs = (
        SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6),
    )
    model_kwargs = dict(
        vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
        causal=True, seed=0,
    )
    cost_spec = WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
    endpoints = (
        EndpointSpec(
            name="bert", factory=TinyBERT, kwargs=model_kwargs, cost=cost_spec
        ),
    )
    default = TuningConfig(
        pool=pool_configs, placement="round_robin",
        max_batch_size=4, flush_timeout=1e-4,
    )

    # Record real traffic off the default deployment: a deadline-carrying
    # burst against the skewed pool, captured request by request.
    recorder = TraceRecorder(name="skewed_pool")
    engine = InferenceEngine(
        ClusterSpec.heterogeneous(default.pool).build(),
        max_batch_size=default.max_batch_size,
        flush_timeout=default.flush_timeout,
        placement=default.placement,
        recorder=recorder,
    )
    engine.register("bert", TinyBERT(**model_kwargs), cost_model=cost_spec.build())
    rng = np.random.default_rng(10)
    for i in range(32):
        arrival = float(i % 8) * 1e-6  # four overlapping 8-request waves
        engine.submit(
            "bert", rng.integers(0, 16, size=8), arrival,
            deadline=arrival + 5e-4,
        )
    engine.run()
    assert len(recorder) == 32

    import tempfile

    with tempfile.TemporaryDirectory() as root:
        save_trace(recorder.trace(), f"{root}/skewed_pool.json")
        trace = load_trace(f"{root}/skewed_pool.json")
    assert trace.n_requests == 32

    space = ConfigSpace(
        catalog=pool_configs, max_shards=4,
        batch_sizes=(2, 4, 8), flush_timeouts=(1e-4, 1e-3),
    )
    default_objective = evaluate(trace, default, endpoints)
    front = random_search(trace, space, endpoints, n_candidates=8, seed=0)
    best = front.best()

    default_score = scalar_score(default_objective)
    best_score = scalar_score(best.objective)
    ratio = default_score / best_score
    results = {
        "trace": {
            "name": trace.name,
            "requests": trace.n_requests,
            "horizon_us": trace.horizon * 1e6,
        },
        "candidates_evaluated": front.evaluated,
        "front_size": front.n_entries,
        "default": {
            "config": default.describe(),
            "objective": default_objective.to_dict(),
            "score": default_score,
        },
        "best": {
            "config": best.config.describe(),
            "objective": best.objective.to_dict(),
            "score": best_score,
        },
        "improvement": ratio,
        "gate": AUTOTUNE_GATE,
    }
    _update_artifact(autotune=results)

    print_artifact(
        "Trace-driven autotuning (32 recorded requests, 8-candidate "
        "seeded search)\n"
        f"  default  score {default_score:.3e}   {default.describe()}\n"
        f"  tuned    score {best_score:.3e}   {best.config.describe()}\n"
        f"  improvement {ratio:5.2f}x\n"
        + front.describe()
    )
    assert ratio >= AUTOTUNE_GATE, (
        f"tuned config only {ratio:.2f}x better than the default "
        f"(< {AUTOTUNE_GATE}x gate)"
    )


def test_elastic_runtime_beats_greedy(print_artifact):
    """Look-ahead placement + work-stealing >= 1.5x lower simulated
    makespan than greedy ``cost_aware`` on the skewed 4-shard pool,
    with max/min shard-busy imbalance <= 3x and bit-identical outputs.

    The load-concentration pathology this PR fixes: a warmup of large
    batches occupies both fast shards, so the first batch of a
    hot-prefix stream cold-lands on a slow shard — and greedy placement
    then *pins the whole stream there*, because prefix affinity always
    prefers the shard holding the KV entry and greedy never revisits a
    queued decision.  The slow shard grinds through dozens of hit
    batches at ~3x the fast shards' service time while those shards sit
    idle.  The elastic runtime re-prices queued-but-unstarted batches
    at execution time: once a fast shard frees, the affinity-break test
    fires, the prefix entry migrates with the batch, and the
    remaining stream drains at fast-shard hit cost.  Placement moves
    work between shards, never changes arithmetic, so every request's
    output stays bit-identical to the greedy run's.
    """
    from repro.nn.workload import transformer_serving_workload
    from repro.serving import (
        ClusterSpec,
        InferenceEngine,
        RadixKVCache,
        TransformerPrefixAdapter,
        workload_cost_model,
    )

    pool_configs = [
        SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6),
        SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6),
    ]
    small_kw = dict(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
    large_kw = dict(vocab=16, seq_len=16, dim=16, heads=4, ff_dim=32, n_layers=2)
    prefix_len = 6
    n_large_rows, n_cold, n_hot_batches = 12, 8, 48

    def cost(kw):
        return workload_cost_model(
            lambda batch, shape: transformer_serving_workload(
                batch, kw["seq_len"], kw["dim"], kw["heads"],
                kw["ff_dim"], kw["n_layers"],
            )
        )

    def run(placement, steal):
        engine = InferenceEngine(
            ClusterSpec.heterogeneous(pool_configs).build(),
            max_batch_size=4,
            flush_timeout=1e-7,
            placement=placement,
            radix_cache=RadixKVCache(1 << 20),
            steal=steal,
        )
        small = TinyBERT(**small_kw, causal=True, seed=0)
        engine.register(
            "bert_small", small, cost_model=cost(small_kw),
            prefix_adapter=TransformerPrefixAdapter(small, prefix_len),
        )
        engine.register(
            "bert_large", TinyBERT(**large_kw, seed=0), cost_model=cost(large_kw)
        )
        rng = np.random.default_rng(11)
        # Warmup: three large batches.  Greedy stacks two on shard 0 and
        # spills the third to shard 1, so both fast shards are busy
        # ~105 us when the hot stream starts arriving.
        ids = [
            engine.submit("bert_large", row, arrival=0.0)
            for row in rng.integers(0, 16, size=(n_large_rows, 16))
        ]
        ids += [
            engine.submit("bert_small", row, arrival=0.0)
            for row in rng.integers(0, 16, size=(n_cold, 8))
        ]
        # The hot stream: 4-row batches sharing a 6/8-token prompt, one
        # batch per microsecond — faster than the slow shard can serve
        # them, so a pinned queue builds there under greedy placement.
        prompt = rng.integers(0, 16, size=prefix_len)
        for i in range(n_hot_batches):
            for _ in range(4):
                suffix = rng.integers(0, 16, size=2)
                ids.append(
                    engine.submit(
                        "bert_small",
                        np.concatenate([prompt, suffix]),
                        arrival=1e-6 * (i + 1),
                    )
                )
        report = engine.run()
        outputs = {i: engine.result(i, keep=True) for i in ids}
        return outputs, report

    greedy_out, greedy_report = run("cost_aware", False)
    elastic_out, elastic_report = run("lookahead", True)

    # Re-placement must not change arithmetic: request by request,
    # outputs are bit-identical across the two runs.
    assert greedy_out.keys() == elastic_out.keys()
    for request_id, expected in greedy_out.items():
        assert np.array_equal(expected, elastic_out[request_id]), (
            "elastic re-placement changed results"
        )
    assert elastic_report.steal_count > 0, "no steal fired"

    # Busy-time imbalance over the *whole* pool — idle shards count.
    greedy_busy = {s: greedy_report.shard_busy.get(s, 0.0) for s in range(4)}
    elastic_busy = {s: elastic_report.shard_busy.get(s, 0.0) for s in range(4)}
    assert min(elastic_busy.values()) > 0.0, "elastic left a shard idle"
    spread = max(elastic_busy.values()) / min(elastic_busy.values())

    ratio = greedy_report.makespan / elastic_report.makespan
    results = {
        "pool": [
            f"{c.describe()} @ {c.clock_hz / 1e6:.0f} MHz" for c in pool_configs
        ],
        "requests": len(greedy_out),
        "hot_prefix_batches": n_hot_batches,
        "greedy_makespan_us": greedy_report.makespan * 1e6,
        "elastic_makespan_us": elastic_report.makespan * 1e6,
        "speedup": ratio,
        "gate": ELASTIC_GATE,
        "steals": elastic_report.steal_count,
        "steals_by_reason": elastic_report.steals_by_reason(),
        "greedy_busy_us": {
            str(s): round(b * 1e6, 2) for s, b in greedy_busy.items()
        },
        "elastic_busy_us": {
            str(s): round(b * 1e6, 2) for s, b in elastic_busy.items()
        },
        "elastic_spread": spread,
        "spread_gate": ELASTIC_SPREAD_GATE,
    }
    _update_artifact(elastic=results)

    print_artifact(
        "Elastic runtime on the skewed heterogeneous 4-shard pool "
        f"({len(greedy_out)} requests, hot-prefix stream)\n"
        f"  greedy cost_aware makespan {greedy_report.makespan * 1e6:9.1f} us\n"
        f"  lookahead+steal   makespan {elastic_report.makespan * 1e6:9.1f} us   "
        f"{ratio:4.2f}x\n"
        f"  elastic busy spread {spread:4.2f}x (gate <= {ELASTIC_SPREAD_GATE}x)\n"
        + elastic_report.elastic_section()
    )
    assert ratio >= ELASTIC_GATE, (
        f"elastic runtime only {ratio:.2f}x better than greedy cost_aware "
        f"(< {ELASTIC_GATE}x gate)"
    )
    assert spread <= ELASTIC_SPREAD_GATE, (
        f"elastic busy-time spread {spread:.2f}x exceeds "
        f"{ELASTIC_SPREAD_GATE}x gate"
    )
