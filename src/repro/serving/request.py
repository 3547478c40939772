"""Request and completion records of the serving engine.

A request carries one *sample* (no batch axis): the dynamic batcher
stacks samples of co-pending requests for the same model along a new
leading axis before inference, and unpacks the stacked output row by
row on completion.  Timestamps are simulated seconds on the serving
clock, so latency accounting is deterministic and reproducible.

A request exists once as *data*: :class:`TracedRequest` is what a
recorder captures, what a trace stores and — through the one coercion
:func:`describe_request` — what ``InferenceEngine.enqueue`` and
``replay_trace`` accept; ``submit`` / ``submit_generation`` are its
keyword spellings.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

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


def generation_of(prompt, max_new_tokens, stop_token) -> Optional[GenerationRequest]:
    """The generation parameters a request's flat fields spell (None
    without ``max_new_tokens``: plain inference) — the one place a
    :class:`GenerationRequest` is built."""
    if max_new_tokens is None:
        return None
    return GenerationRequest(
        prompt,
        optional_int("max_new_tokens", max_new_tokens),
        optional_int("stop_token", stop_token),
    )


@dataclass(frozen=True)
class TracedRequest:
    """One request as data — enough to issue, or re-issue, it exactly.

    ``inputs`` holds the token/feature payload as nested tuples plus a
    dtype string (JSON-safe; rebuilt with :meth:`inputs_array`).
    ``max_new_tokens`` is None for plain inference requests and set for
    generation requests (where ``inputs`` is the prompt row).  An
    ``arrival`` of None means "with the previous request", resolved by
    the door that admits it as ``submit()`` resolves its keyword.
    """

    model: str
    inputs: Tuple
    dtype: str
    arrival: Optional[float]
    tenant: str = DEFAULT_TENANT
    priority: Optional[int] = None
    deadline: Optional[float] = None
    max_new_tokens: Optional[int] = None
    stop_token: Optional[int] = None

    def inputs_array(self) -> np.ndarray:
        """The payload as the ndarray the engine originally saw."""
        return np.array(self.inputs, dtype=np.dtype(self.dtype))

    def to_dict(self) -> Dict[str, object]:
        """The JSON-safe row: every field by name, ``inputs`` as lists."""
        return {**vars(self), "inputs": self.inputs_array().tolist()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TracedRequest":
        """A description from a mapping of its field names — a
        :meth:`to_dict` row, or one written by hand: only ``model`` and
        ``inputs`` (anything ``np.asarray`` takes; ``dtype`` defaults to
        that array's) are required, the rest default as ``submit()``'s
        keywords do, also when spelt out as None.  A key that is no
        field raises: a misspelt ``deadline`` must not serve without one.
        """
        allowed = cls.__dataclass_fields__.keys()
        unknown = data.keys() - allowed
        if unknown:
            raise ValueError(
                f"request has unknown keys {sorted(unknown)}; allowed: {list(allowed)}"
            )
        missing = {"model", "inputs"} - data.keys()
        if missing:
            raise ValueError(f"request is missing required {sorted(missing)}: {data!r}")
        inputs = np.asarray(data["inputs"], dtype=data.get("dtype"))
        return cls(
            model=str(data["model"]),
            inputs=_to_tuple(inputs.tolist()),
            dtype=str(inputs.dtype),
            arrival=_optional(float, data.get("arrival")),
            tenant=str(data.get("tenant") or DEFAULT_TENANT),
            priority=optional_int("priority", data.get("priority")),
            deadline=_optional(float, data.get("deadline")),
            max_new_tokens=optional_int("max_new_tokens", data.get("max_new_tokens")),
            stop_token=optional_int("stop_token", data.get("stop_token")),
        )

    @classmethod
    def from_request(cls, request: "InferenceRequest") -> "TracedRequest":
        """Capture one live :class:`InferenceRequest`."""
        generation = request.generation
        inputs = np.asarray(request.inputs)
        return cls(
            model=request.model,
            inputs=_to_tuple(inputs.tolist()),
            dtype=str(inputs.dtype),
            arrival=request.arrival,
            tenant=request.tenant,
            priority=request.priority,
            deadline=request.deadline,
            max_new_tokens=(
                None if generation is None else generation.max_new_tokens
            ),
            stop_token=(None if generation is None else generation.stop_token),
        )


def describe_request(item: object) -> TracedRequest:
    """The one coercion behind every front door that takes requests as
    values: a :class:`TracedRequest`, or a mapping of its field names.
    An :class:`InferenceRequest` is deliberately NOT accepted: the
    engine assigns its own request ids, so a caller-built request's id
    would silently stop matching ``result()``.
    """
    if isinstance(item, TracedRequest):
        return item
    if isinstance(item, Mapping):
        return TracedRequest.from_dict(item)
    raise TypeError(
        "a request is a TracedRequest or a mapping of its field names "
        f"(model, inputs[, arrival, tenant, ...]), got {type(item)!r}"
    )


def resolve_arrivals(requests: Iterable[TracedRequest]) -> List[TracedRequest]:
    """``requests`` in their order, an omitted arrival written out as the
    previous request's (0.0 for the first) — what one engine given the
    whole list in this order assigns."""
    resolved: List[TracedRequest] = []
    last = 0.0
    for request in requests:
        if request.arrival is None:
            request = replace(request, arrival=last)
        last = request.arrival
        resolved.append(request)
    return resolved


def _optional(cast, value):
    return None if value is None else cast(value)


def optional_int(name: str, value) -> Optional[int]:
    """``value`` as an int, or None: an integral number passes (``3.0``
    as 3); a bool or a fraction raises ValueError, never truncates."""
    if value is None:
        return None
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _to_tuple(value):
    """Nested lists → nested tuples (hashable, hypothesis-friendly)."""
    if isinstance(value, (list, tuple)):
        return tuple(_to_tuple(item) for item in value)
    return value


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
        carries a ``radix_cache``
        (a :class:`~repro.serving.prefix_cache.RadixKVCache`).
        Batch assembly keys groups on it, so requests with different
        prompts (or none) never share a batch — cache hits and misses
        cannot silently mix.  A generation request carries its prompt
        *length* here instead, so same-length prompts share a prefill.
    generation:
        :class:`GenerationRequest` parameters when this request asks
        for autoregressive decode (``max_new_tokens`` was given at the
        front door it came through), else None.  A generation request's
        ``outputs`` are its generated token row rather than a model-head
        slice.
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
    """

    request: InferenceRequest
    outputs: np.ndarray
    shard: int
    batch_index: int
    batch_size: int
    start: float
    finish: float
    batch_cycles: int = 0

    @property
    def latency(self) -> float:
        """Arrival-to-completion time in simulated seconds."""
        return self.finish - self.request.arrival

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
