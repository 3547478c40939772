"""Request and completion records of the serving engine.

A request carries one *sample* (no batch axis): the dynamic batcher
stacks samples of co-pending requests for the same model along a new
leading axis before inference, and unpacks the stacked output row by
row on completion.  Timestamps are simulated seconds on the serving
clock, so latency accounting is deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.tenancy import DEFAULT_TENANT


@dataclass(frozen=True)
class GenerationRequest:
    """Autoregressive generation parameters riding on a request.

    Attributes
    ----------
    prompt:
        The 1-D integer token prompt (frozen copy; also the request's
        ``inputs``).
    max_new_tokens:
        Upper bound on generated tokens (>= 1; the prefill's greedy
        token is the first).
    stop_token:
        Token id that terminates the sequence early, or None.  The
        stop token itself is included in the output.
    """

    prompt: np.ndarray
    max_new_tokens: int
    stop_token: "int | None" = None

    def __post_init__(self) -> None:
        prompt = np.asarray(self.prompt, dtype=np.int64)
        if prompt.ndim != 1 or prompt.shape[0] < 1:
            raise ValueError(
                f"prompt must be a non-empty 1-D token row, got shape {prompt.shape}"
            )
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        prompt = np.array(prompt, copy=True)
        prompt.setflags(write=False)
        object.__setattr__(self, "prompt", prompt)


@dataclass(frozen=True)
class InferenceRequest:
    """One queued inference call.

    Attributes
    ----------
    request_id:
        Engine-assigned monotonically increasing identifier.
    model:
        Name of the registered model endpoint the request targets.
    inputs:
        One sample *without* the batch axis (e.g. a ``(T,)`` token row
        for a sequence model, a ``(C, H, W)`` image for a CNN).
    arrival:
        Simulated arrival time in seconds.
    tenant:
        Id of the tenant the request belongs to (defaults to the
        engine's implicit single tenant).
    priority:
        Priority under the strict-priority policy, or None to inherit
        the tenant's configured priority — resolved at *scheduling*
        time, so registering the tenant after submitting still takes
        effect (mirroring how WRR weights are read lazily).
    deadline:
        Absolute simulated time the response is due, or None.  A
        request finishing after its deadline is still executed and
        answered, but counts as a deadline miss in the report's SLO
        accounting.
    prefix_key:
        Content digest of the request's shared prompt, set by the
        engine when its endpoint has a prefix adapter and the engine
        carries a ``prefix_cache``
        (a :class:`~repro.serving.prefix_cache.RadixKVCache`).
        Batch assembly keys groups on it, so requests with different
        prompts (or none) never share a batch — cache hits and misses
        cannot silently mix.  A generation request carries its prompt
        *length* here instead, so same-length prompts share a prefill.
    generation:
        :class:`GenerationRequest` parameters when this request asks
        for autoregressive decode (set by
        :meth:`~repro.serving.engine.InferenceEngine.submit_generation`),
        else None.  A generation request's ``outputs`` are its
        generated token row rather than a model-head slice.
    """

    request_id: int
    model: str
    inputs: np.ndarray
    arrival: float = 0.0
    tenant: str = DEFAULT_TENANT
    priority: "int | None" = None
    deadline: "float | None" = None
    prefix_key: "str | None" = None
    generation: "GenerationRequest | None" = None


@dataclass(frozen=True)
class CompletedRequest:
    """A finished request with its placement and timing.

    Attributes
    ----------
    request:
        The original :class:`InferenceRequest`.
    outputs:
        This request's slice of the batched model output.
    shard:
        Index of the dispatcher shard that executed the batch.
    batch_index:
        Index of the batch (within one :meth:`InferenceEngine.run`).
    batch_size:
        Number of requests packed into that batch.
    start, finish:
        Simulated execution window of the batch.
    batch_cycles:
        Cycles the whole batch spent on the shard's array (0 for
        backends without a cycle model).
    attempts:
        Execution attempts the request's batch took to complete (1 =
        first try; > 1 means the batch was retried after shard faults
        and this completion came from a re-placement).
    """

    request: InferenceRequest
    outputs: np.ndarray
    shard: int
    batch_index: int
    batch_size: int
    start: float
    finish: float
    batch_cycles: int = 0
    attempts: int = 1

    @property
    def latency(self) -> float:
        """Arrival-to-completion time in simulated seconds."""
        return self.finish - self.request.arrival

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for batching and a free shard."""
        return self.start - self.request.arrival

    @property
    def deadline_missed(self) -> bool:
        """True when the request had an *explicit* deadline and
        finished past it.

        A record cannot see tenant configs, so misses against a
        tenant-level ``slo_latency`` (requests submitted without their
        own deadline) are scored only by the report, which can:
        :meth:`ServingReport.deadline_misses` /
        :meth:`ServingReport.slo_attainment`.
        """
        deadline = self.request.deadline
        return deadline is not None and self.finish > deadline


@dataclass(frozen=True)
class ShedRecord:
    """A request refused at admission (never executed).

    Attributes
    ----------
    request:
        The shed :class:`InferenceRequest`.  Its id never produces an
        output; :meth:`InferenceEngine.result` raises ``KeyError``.
    reason:
        ``"queue_full"`` (the tenant was at its
        :attr:`~repro.serving.tenancy.TenantConfig.max_queue_depth`) or
        ``"deadline_doomed"`` (its effective deadline was unmeetable
        even starting immediately on the fastest shard).
    at:
        Simulated time of the admission decision (the request's
        arrival, in the discrete-event loop).
    """

    request: InferenceRequest
    reason: str
    at: float


@dataclass(frozen=True)
class FailureRecord:
    """An *admitted* request the engine could not complete.

    Distinct from :class:`ShedRecord` (refused at admission, never
    owed an answer): a failed request was admitted, executed at least
    once, and lost to faults — the fault-tolerance invariant demands
    every admitted request end up in exactly one of
    :attr:`~repro.serving.report.ServingReport.completed` or
    :attr:`~repro.serving.report.ServingReport.failed`.

    Attributes
    ----------
    request:
        The failed :class:`InferenceRequest`; its id never yields an
        output from :meth:`~repro.serving.engine.InferenceEngine.result`.
    reason:
        ``"max_retries"`` (the batch exhausted its
        :class:`~repro.serving.faults.RetryPolicy` budget),
        ``"retry_deadline"`` (the backoff wake time already exceeded
        the request's effective deadline — a doomed retry is dropped,
        not looped), or ``"worker_lost"`` (the worker process serving
        it died and supervision did not re-run it).
    at:
        Simulated time the failure was decided.
    shard:
        Shard of the last failed attempt (None when not shard-bound).
    attempts:
        Execution attempts consumed before giving up.
    """

    request: InferenceRequest
    reason: str
    at: float
    shard: "int | None" = None
    attempts: int = 1
