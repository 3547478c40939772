"""One measurement process: set up a workload, repeat it, report as JSON.

Started by :mod:`hostbench.run` as ``python -m hostbench.child SPEC``
with the BLAS thread pins already in the environment.  Set-up time runs
from the moment the parent spawned this process to the end of the
warm-up; the timed region of a repetition holds ``repetition()`` and
nothing else.  The last line of standard output is the result.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from time import perf_counter
from typing import Dict, List

MIN_REPETITIONS = 2
MODEL_CLASSES = ("TinyBERT", "BottleneckBlock", "ScoringHead")


def peak_rss_mb() -> float:
    """High-water mark of this process's resident set, in MB.

    ``VmHWM`` and not ``ru_maxrss``: the latter survives ``exec`` and so
    starts at whatever the parent held when it forked.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def make_calibration():
    """A fixed kernel shaped like the program; returns its duration in ms.

    Interference on a shared machine slows different code by different
    factors, so the kernel has one part for each kind of code the
    workloads spend their time in: pure-Python object churn (the
    serving layer), NumPy calls on tiny arrays (per-op overhead of the
    small models), BLAS on a large matrix and element-wise passes over
    an array beyond the L2 cache (``quantize`` on ``model_forward``).
    """
    import numpy as np

    small = (np.arange(64, dtype=np.float64).reshape(8, 8) % 5.0) - 2.0
    large = (np.arange(256 * 256, dtype=np.float64).reshape(256, 256) % 7.0) - 3.0
    stream = (np.arange(512 * 1024, dtype=np.float64) % 977.0) / 31.0 - 15.0
    scratch = np.empty_like(stream)

    def calibrate() -> float:
        start = perf_counter()
        table = {}
        for i in range(20_000):
            table[i] = (i, str(i))
        sorted(table.values(), key=lambda entry: entry[1])
        for _ in range(2_000):
            np.clip(small @ small, -100.0, 100.0).astype(np.int64)
        for _ in range(10):
            (large @ large).sum()
        for _ in range(6):
            np.multiply(stream, 256.0, out=scratch)
            np.trunc(scratch, out=scratch)
            np.clip(scratch, -32768.0, 32767.0, out=scratch)
            scratch.astype(np.int64)
        return (perf_counter() - start) * 1e3

    return calibrate


def per_layer_metrics(tracer, sim, overhead, untraced_wall, calibrations):
    """Every per-layer metric of ``BENCHMARK.json`` from one traced repetition."""
    from hostbench.tracing import LAYERS

    metrics: Dict[str, float] = {}
    layers = tracer.layers()
    for layer in LAYERS:
        for key in ("self_s", "share", "calls"):
            metrics[f"{layer}.{key}"] = layers[layer][key]

    def model_calls(method: str) -> int:
        return tracer.calls("nn", *(f"{cls}.{method}" for cls in MODEL_CLASSES))

    batches = tracer.calls_into("nn")
    quantize_calls = tracer.calls("fixedpoint", "quantize")
    gets = tracer.calls("store", "InProcessLRU.get")
    metrics.update({
        "serving.us_per_request": layers["serving"]["self_s"] / sim["sent"] * 1e6,
        "serving.batches": sim.get("batches", 0),
        "serving.mean_batch_size": sim.get("mean_batch_size", 0.0),
        "serving.prefill_batches": sim.get("prefill_batches", 0),
        "serving.decode_steps": sim.get("decode_steps", 0),
        "serving.mean_decode_batch": sim.get("mean_decode_batch", 0.0),
        "serving.tokens": sim.get("tokens", 0),
        "serving.shed": sim["shed"],
        "serving.deadline_misses": sim["late"],
        "serving.steals": sim.get("steals", 0),
        "serving.radix_hit_share": sim.get("radix_hit_share", 0.0),
        "serving.sim_p50_latency_us": sim.get("sim_p50_latency_us", 0.0),
        "serving.sim_p95_latency_us": sim.get("sim_p95_latency_us", 0.0),
        "serving.sim_goodput": sim.get("sim_goodput", 0.0),
        "nn.infer_calls": model_calls("infer"),
        "nn.prefill_calls": model_calls("prefill"),
        "nn.decode_step_calls": model_calls("decode_step"),
        "systolic.gemm_calls": tracer.calls("systolic", "SystolicArray.gemm_raw"),
        "systolic.gemm_batched_calls": tracer.calls(
            "systolic", "SystolicArray.gemm_raw_batched"
        ),
        "systolic.nonlinear_calls": tracer.calls(
            "systolic", "SystolicArray.apply_nonlinear_raw"
        ),
        "systolic.traced_cycles": sim["sim_cycles"],
        "systolic.cycles_per_host_s": sim["sim_cycles"] / untraced_wall,
        "core.softmax_calls": tracer.calls("core", "cpwl_softmax"),
        "core.layernorm_calls": tracer.calls("core", "cpwl_layernorm"),
        "core.approx_evals": tracer.calls("core", "CPWLApproximator.evaluate_raw"),
        "core.approximator_builds": tracer.calls("core", "CPWLApproximator.__init__"),
        "fixedpoint.quantize_calls": quantize_calls,
        "fixedpoint.quantize_calls_per_batch": (
            quantize_calls / batches if batches else 0.0
        ),
        "fixedpoint.matmul_calls": tracer.calls("fixedpoint", "fixed_matmul"),
        "fixedpoint.elements_quantized": tracer.work("fixedpoint", "quantize"),
        "fixedpoint.macs": tracer.work("fixedpoint", "fixed_matmul"),
        "store.gets": gets,
        "store.hit_share": (
            tracer.work("store", "InProcessLRU.get") / gets if gets else 0.0
        ),
        "store.puts": tracer.calls("store", "InProcessLRU.put"),
        "trace.overhead": overhead,
        "trace.attributed_share": (
            sum(row["self_s"] for row in layers.values()) / tracer.wall_s
        ),
        "host.calib_ms": statistics.median(calibrations),
        "host.calib_spread": (
            (max(calibrations) - min(calibrations)) / statistics.median(calibrations)
        ),
    })
    return metrics


def traced_repetition(raw: bool, body):
    """Run ``body`` under an installed tracer; return (tracer, result)."""
    from hostbench.tracing import Tracer

    tracer = Tracer(raw=raw)
    gc.collect()
    tracer.install()
    try:
        result = tracer.run_root(body)
    finally:
        tracer.restore()
    return tracer, result


def run(spec: Dict[str, object]) -> Dict[str, object]:
    import numpy as np

    from hostbench.workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](int(spec["seed"]), float(spec["scale"]))
    workload.warm()
    setup_s = time.time() - float(spec["spawned_at"])

    calibrate = make_calibration()
    calibrations = [calibrate() for _ in range(3)]
    setup_calib_ms = statistics.median(calibrations)
    before = calibrations[-1]
    repetitions: List[Dict[str, object]] = []
    outcome = None
    best_traced = None
    stop_at = perf_counter() + float(spec["seconds"])
    while len(repetitions) < MIN_REPETITIONS or perf_counter() < stop_at:
        outcome = None  # let go of the previous outcome before collecting
        gc.collect()
        start = perf_counter()
        outcome = workload.repetition()
        wall = perf_counter() - start
        after = calibrate()
        # The kernel runs just before and just after every repetition, so
        # each repetition knows how fast the machine was around it.
        repetitions.append({
            "wall_s": wall,
            "calib_ms": (before + after) / 2.0,
            "sim": workload.summarize(outcome),
        })
        before = after
        if spec["trace"]:
            # A traced repetition right after each untraced one: the two
            # see the same state of the machine, so their ratio is the
            # tracing overhead.  The fastest traced one is the least
            # disturbed; its aggregates are the ones reported.
            outcome = None
            tracer, traced_outcome = traced_repetition(False, workload.repetition)
            repetitions[-1]["traced_wall_s"] = tracer.wall_s
            repetitions[-1]["traced_sim"] = workload.summarize(traced_outcome)
            traced_outcome = None
            if best_traced is None or tracer.wall_s < best_traced.wall_s:
                best_traced = tracer
            before = calibrate()

    result: Dict[str, object] = {
        "setup_s": setup_s,
        "setup_calib_ms": setup_calib_ms,
        "repetitions": repetitions,
        "peak_rss_mb": peak_rss_mb(),
        "n_requests": workload.n_requests,
    }

    if spec["verify"]:
        seed = int(spec["seed"])
        checked, mismatches = workload.verify(outcome, np.random.default_rng(seed))
        result["verified"] = checked
        result["mismatches"] = mismatches
        result["approx_err"] = workload.approx_err(np.random.default_rng(seed + 1))

    if spec["trace"]:
        overhead = statistics.median(
            rep["traced_wall_s"] / rep["wall_s"] for rep in repetitions
        ) - 1.0
        result["per_layer"] = per_layer_metrics(
            best_traced, repetitions[0]["sim"], overhead,
            min(rep["wall_s"] for rep in repetitions),
            [rep["calib_ms"] for rep in repetitions],
        )
        result["trace"] = best_traced.to_dict()
        sample, _ = traced_repetition(True, workload.warm)
        result["trace"]["spans"] = sample.spans
    return result


def main(argv: List[str]) -> int:
    result = run(json.loads(argv[1]))
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
