"""The four workloads: inputs from a seed, one timed repetition, checks.

Every workload offers the same five calls to :mod:`hostbench.child`:
``warm()`` (the part of set-up that runs the program once),
``repetition()`` (the timed region: one offline batch, all requests
submitted and then run), ``summarize()`` (every number the simulator's
own clock produces, which must repeat exactly), ``verify()`` (sampled
requests recomputed alone, bit for bit) and ``approx_err()`` (ONE-SA
path against the float reference).

Sizes are stated at ``--scale 1.0``; the benchmark contract's time cap
makes :data:`DEFAULT_SCALE` the default for all four together.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.autotune import (
    EndpointProfile,
    EndpointSpec,
    TuningConfig,
    WorkloadCostSpec,
    replay_trace,
    report_fingerprint,
    synthesize_trace,
)
from repro.nn.executor import ArrayBackend, FloatBackend
from repro.nn.layers import Linear, Module
from repro.nn.models import TinyBERT
from repro.nn.models.resnet import BottleneckBlock
from repro.systolic import SystolicArray, SystolicConfig

DEFAULT_SCALE = 0.2
#: CPWL granularity of every backend here; ``ClusterSpec`` shards use
#: the same value, which is what makes lone recomputation bit-identical.
GRANULARITY = 0.25
WARM_REQUESTS = 256
VERIFY_SAMPLES = 64
APPROX_SAMPLES = 1024

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
TINY = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=2, clock_hz=100e6)

VOCAB = 16


def _backend(config: SystolicConfig) -> ArrayBackend:
    return ArrayBackend(SystolicArray(config), GRANULARITY)


def _mean_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(a) - np.asarray(b))))


class ScoringHead(Module):
    """One ``Linear(8 -> 4)`` over scaled token rows.

    The cheapest model the engine can serve: on ``admission_flood`` the
    model costs almost nothing, so the serving layer is what is timed.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.fc = Linear(8, 4, np.random.default_rng(seed))

    def infer(self, tokens: np.ndarray, backend) -> np.ndarray:
        features = np.asarray(tokens, dtype=np.float64) / VOCAB
        return self.fc.infer(features, backend)


class ReplayWorkload:
    """A synthesized trace replayed through ``replay_trace``.

    Arrival times live on the simulated clock inside the trace (an open
    loop there; the generator cannot run late).  On the host clock a
    repetition is an offline batch of ``n_requests``.
    """

    def __init__(
        self,
        seed: int,
        n_requests: int,
        spacing: float,
        *,
        endpoint: EndpointSpec,
        profile: EndpointProfile,
        shape: str,
        tenants: Tuple[str, ...],
        tuning: TuningConfig,
        deadline_slack: Optional[float] = None,
    ) -> None:
        self.n_requests = n_requests
        self.endpoint = endpoint
        self.profile = profile
        self.tuning = tuning

        def trace(name: str, n: int):
            return synthesize_trace(
                name,
                (profile,),
                n,
                n * spacing,
                seed,
                shape,
                tenants=tenants,
                deadline_slack=deadline_slack,
            )

        self.trace = trace("timed", n_requests)
        self._warm_trace = trace("warm", min(n_requests, WARM_REQUESTS))

    def warm(self) -> None:
        replay_trace(self._warm_trace, self.tuning, (self.endpoint,))

    def repetition(self):
        return replay_trace(self.trace, self.tuning, (self.endpoint,))

    def summarize(self, report) -> Dict[str, float]:
        completed = report.completed
        late = sum(1 for record in completed if record.deadline_missed)
        latencies = np.asarray(report.latencies) * 1e6
        decode_batches = [step.batch_size for step in report.generation_steps]
        prefills = len(report.placements) - len(decode_batches)
        radix_lookups = len(report.prefix_events)
        return {
            "fingerprint": report_fingerprint(report),
            "sent": self.n_requests,
            "completed": len(completed),
            "shed": report.shed_count,
            "failed": report.failed_count,
            "late": late,
            "sim_cycles": report.total_cycles,
            "sim_p50_latency_us": _percentile(latencies, 0.50),
            "sim_p95_latency_us": _percentile(latencies, 0.95),
            "sim_latency_samples": int(latencies.size),
            "sim_goodput": (len(completed) - late) / self.n_requests,
            "batches": report.n_batches,
            "mean_batch_size": report.mean_batch_size,
            "prefill_batches": prefills if decode_batches else 0,
            "decode_steps": len(decode_batches),
            "mean_decode_batch": (
                float(np.mean(decode_batches)) if decode_batches else 0.0
            ),
            "tokens": report.generated_tokens,
            "steals": report.steal_count,
            "radix_hit_share": (
                sum(event.hit for event in report.prefix_events) / radix_lookups
                if decode_batches and radix_lookups
                else 0.0
            ),
        }

    def verify(self, report, rng: np.random.Generator) -> Tuple[int, int]:
        """Recompute sampled completed requests alone; count mismatches."""
        completed = report.completed
        picks = rng.choice(
            len(completed), size=min(VERIFY_SAMPLES, len(completed)), replace=False
        )
        model = self.endpoint.factory(**dict(self.endpoint.kwargs))
        backends: Dict[int, ArrayBackend] = {}
        mismatches = 0
        for index in picks:
            record = completed[int(index)]
            backend = backends.get(record.shard)
            if backend is None:
                backend = backends[record.shard] = _backend(
                    self.tuning.pool[record.shard]
                )
            request = record.request
            if request.generation is not None:
                expected = model.generate(
                    request.generation.prompt[None],
                    request.generation.max_new_tokens,
                    backend,
                    stop_token=request.generation.stop_token,
                )[0]
            else:
                expected = model.infer(np.asarray(request.inputs)[None], backend)[0]
            if not np.array_equal(expected, record.outputs):
                mismatches += 1
        return len(picks), mismatches

    def approx_err(self, rng: np.random.Generator) -> float:
        model = self.endpoint.factory(**dict(self.endpoint.kwargs))
        tokens = rng.integers(
            0, self.profile.vocab, size=(APPROX_SAMPLES, self.profile.seq_len)
        )
        if self.endpoint.generation:
            run = lambda backend: model.prefill(tokens, backend)[0]
        else:
            run = lambda backend: model.infer(tokens, backend)
        return _mean_abs_diff(run(_backend(BIG)), run(FloatBackend()))


def _percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile (0.0 when there are no values)."""
    return float(np.quantile(values, q, method="inverted_cdf")) if values.size else 0.0


class ForwardWorkload:
    """Whole-model forwards on one array, no serving layer.

    ``iterations`` times: ``TinyBERT`` on a batch of 8 sequences, then a
    ``BottleneckBlock`` on 16 images.  A forward sample is one sequence
    or one image, so an iteration completes 24 "requests".
    """

    BERT_BATCH = 8
    IMAGE_BATCH = 16

    def __init__(self, seed: int, iterations: int) -> None:
        self.iterations = iterations
        self.n_requests = iterations * (self.BERT_BATCH + self.IMAGE_BATCH)
        self.bert = TinyBERT(
            vocab=32, seq_len=64, dim=128, heads=4, ff_dim=512, n_layers=2, seed=0
        )
        self.block = BottleneckBlock(128, 32, np.random.default_rng(0))
        rng = np.random.default_rng(seed)
        self.tokens = rng.integers(0, 32, size=(self.BERT_BATCH, 64))
        self.images = rng.normal(0.0, 1.0, size=(self.IMAGE_BATCH, 128, 8, 8))
        self.backend = _backend(BIG)

    def _forward(self, backend, tokens, images):
        return self.bert.infer(tokens, backend), self.block.infer(images, backend)

    def warm(self) -> None:
        self._forward(self.backend, self.tokens, self.images)

    def repetition(self):
        # The event log would otherwise grow across repetitions.
        array = self.backend.array
        array.reset()
        digest = hashlib.sha256()
        for _ in range(self.iterations):
            logits, maps = self._forward(self.backend, self.tokens, self.images)
            digest.update(logits.tobytes())
            digest.update(maps.tobytes())
        return {
            "fingerprint": digest.hexdigest(),
            "cycles": array.total_cycles,
            "logits": logits,
            "maps": maps,
        }

    def summarize(self, outcome) -> Dict[str, float]:
        return {
            "fingerprint": outcome["fingerprint"],
            "sent": self.n_requests,
            "completed": self.n_requests,
            "shed": 0,
            "failed": 0,
            "late": 0,
            "sim_cycles": outcome["cycles"],
        }

    def verify(self, outcome, rng: np.random.Generator) -> Tuple[int, int]:
        """Every sample of the batch, recomputed alone on a fresh array."""
        backend = _backend(BIG)
        mismatches = 0
        for i in range(self.BERT_BATCH):
            alone = self.bert.infer(self.tokens[i : i + 1], backend)[0]
            mismatches += not np.array_equal(alone, outcome["logits"][i])
        for i in range(self.IMAGE_BATCH):
            alone = self.block.infer(self.images[i : i + 1], backend)[0]
            mismatches += not np.array_equal(alone, outcome["maps"][i])
        return self.BERT_BATCH + self.IMAGE_BATCH, mismatches

    def approx_err(self, rng: np.random.Generator) -> float:
        tokens = rng.integers(0, 32, size=(self.BERT_BATCH, 64))
        images = rng.normal(0.0, 1.0, size=(self.IMAGE_BATCH, 128, 8, 8))
        onesa = self._forward(_backend(BIG), tokens, images)
        exact = self._forward(FloatBackend(), tokens, images)
        return _mean_abs_diff(
            np.concatenate([part.ravel() for part in onesa]),
            np.concatenate([part.ravel() for part in exact]),
        )


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _bert_kwargs(seq_len: int, causal: bool) -> Dict[str, object]:
    return dict(
        vocab=VOCAB, seq_len=seq_len, dim=8, heads=2, ff_dim=16,
        n_layers=1, causal=causal, seed=0,
    )


def classify_bursty(seed: int, scale: float) -> ReplayWorkload:
    return ReplayWorkload(
        seed,
        _scaled(16_000, scale),
        2e-5,
        endpoint=EndpointSpec(
            "bert",
            TinyBERT,
            _bert_kwargs(8, causal=False),
            cost=WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1),
        ),
        profile=EndpointProfile("bert", seq_len=8, vocab=VOCAB),
        shape="bursty",
        tenants=("tenant-a", "tenant-b"),
        tuning=TuningConfig(pool=(BIG, BIG), placement="cost_aware", max_batch_size=8),
    )


def generate_chat(seed: int, scale: float) -> ReplayWorkload:
    return ReplayWorkload(
        seed,
        _scaled(360, scale),
        1e-4,
        endpoint=EndpointSpec(
            "chat", TinyBERT, _bert_kwargs(16, causal=True), generation=True
        ),
        profile=EndpointProfile("chat", seq_len=8, vocab=VOCAB, max_new_tokens=8),
        shape="conversational",
        tenants=("tenant-a", "tenant-b"),
        tuning=TuningConfig(
            pool=(BIG, BIG),
            placement="cost_aware",
            max_batch_size=8,
            radix_budget_bytes=1 << 20,
        ),
    )


def admission_flood(seed: int, scale: float) -> ReplayWorkload:
    # 9 ns between arrivals is above what the four shards drain, and a
    # queue cap below the batch size makes batches flush on the timeout:
    # together they shed about a quarter of the requests and make a few
    # per cent of the rest late, so goodput sits between 0.5 and 0.99.
    return ReplayWorkload(
        seed,
        _scaled(50_000, scale),
        9e-9,
        endpoint=EndpointSpec("head", ScoringHead, {"seed": 0}),
        profile=EndpointProfile("head", seq_len=8, vocab=VOCAB),
        shape="skewed",
        tenants=tuple(f"tenant-{i}" for i in range(8)),
        tuning=TuningConfig(
            pool=(BIG, MID, SLOW, TINY),
            placement="lookahead",
            steal=True,
            max_batch_size=4,
            flush_timeout=2e-7,
            max_queue_depth=3,
        ),
        deadline_slack=1.3e-6,
    )


def model_forward(seed: int, scale: float) -> ForwardWorkload:
    return ForwardWorkload(seed, _scaled(50, scale))


WORKLOADS: Dict[str, Callable[[int, float], object]] = {
    "classify_bursty": classify_bursty,
    "generate_chat": generate_chat,
    "admission_flood": admission_flood,
    "model_forward": model_forward,
}
