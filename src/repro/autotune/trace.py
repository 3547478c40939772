"""Traffic traces: record serving requests, synthesize workloads, persist.

A :class:`TrafficTrace` is a pure value describing a request stream —
a tuple of :class:`~repro.serving.request.TracedRequest` descriptions
(the serving layer's own request-as-data class, re-exported here), in
a versioned JSON-safe format (``TRACE_VERSION``).  ``trace.requests``
is servable as it is by every front door that takes requests as
values.  Traces come from two places:

* **capture** — a :class:`TraceRecorder` attached to a live engine
  (the ``recorder=`` constructor knob) observes every validated
  submission: tenant, model, input tokens, arrival time, priority,
  deadline, and — for generation traffic — prompt, token budget and
  stop token;
* **synthesis** — :func:`synthesize_trace` draws a seeded stream in
  one of three workload shapes (``bursty`` / ``skewed`` /
  ``conversational``), so the autotuner can be exercised on traffic
  the serving stack has never actually seen.

A trace persists as one JSON file at a path the caller names
(:func:`save_trace` / :func:`load_trace`), so a trace recorded by one
process is replayable by any other.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.domains import INTEGER, instance_of, one_of, optional, tuple_of
from repro.serving.request import TracedRequest, resolve_arrivals

#: Schema version stamped into every serialized trace.  Bump on any
#: field change; ``TrafficTrace.from_dict`` refuses versions it does
#: not understand instead of guessing.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TrafficTrace:
    """A versioned, replayable request stream.

    ``seed`` records provenance for synthesized traces (None for
    captured ones); ``requests`` are sorted by arrival at construction
    so the trace is directly feedable to a discrete-event run.  An
    omitted arrival is written out first, as every door resolves it
    (:func:`~repro.serving.request.resolve_arrivals`).
    """

    name: str
    requests: Tuple[TracedRequest, ...]
    seed: Optional[int] = None
    version: int = TRACE_VERSION

    def __post_init__(self) -> None:
        requests = resolve_arrivals(self.requests)
        arrivals = [r.arrival for r in requests]
        if arrivals != sorted(arrivals):
            requests.sort(key=lambda r: r.arrival)
        object.__setattr__(self, "requests", tuple(requests))

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def tenants(self) -> List[str]:
        return sorted({r.tenant for r in self.requests})

    @property
    def horizon(self) -> float:
        """Last recorded arrival (0.0 for an empty trace)."""
        return max((r.arrival for r in self.requests), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "name": self.name,
            "seed": self.seed,
            "requests": [r.to_dict() for r in self.requests],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrafficTrace":
        version = INTEGER("version", data["version"])
        if version != TRACE_VERSION:
            raise ValueError(
                f"trace version {version} is not supported "
                f"(this build reads version {TRACE_VERSION})"
            )
        return cls(
            name=str(data["name"]),
            seed=optional(INTEGER)("seed", data["seed"]),
            requests=tuple(
                TracedRequest.from_dict(item) for item in data["requests"]
            ),
            version=version,
        )


class TraceRecorder:
    """Engine hook capturing every validated submission.

    Pass one as the engine's ``recorder=`` constructor argument (or set
    ``engine.recorder`` afterwards); the engine calls :meth:`record`
    with each validated :class:`~repro.serving.request.InferenceRequest`
    at submission time, through whichever front door it came
    (``submit``, ``submit_generation`` or ``enqueue``) and *before*
    admission control: a request the tenant's queue cap sheds later is
    in the trace, so a replay offers it again and sheds it again.
    :meth:`trace` snapshots the log as an immutable
    :class:`TrafficTrace`; a fresh capture is a new recorder.
    """

    def __init__(self, name: str = "captured") -> None:
        self.name = name
        self._log: List[TracedRequest] = []

    def record(self, request) -> None:
        self._log.append(TracedRequest.from_request(request))

    def __len__(self) -> int:
        return len(self._log)

    def trace(self, name: Optional[str] = None) -> TrafficTrace:
        return TrafficTrace(
            name=name if name is not None else self.name,
            requests=tuple(self._log),
        )


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EndpointProfile:
    """Shape of one synthetic endpoint's requests.

    ``weight`` biases model choice (the ``skewed`` shape raises the
    contrast); ``max_new_tokens`` switches the endpoint's requests to
    generation traffic with ``seq_len``-token prompts.
    """

    model: str
    seq_len: int
    vocab: int = 16
    weight: float = 1.0
    max_new_tokens: Optional[int] = None
    stop_token: Optional[int] = None


def synthesize_trace(
    name: str,
    endpoints: Sequence[EndpointProfile],
    n_requests: int,
    horizon: float,
    seed: int,
    shape: str = "bursty",
    tenants: Sequence[str] = ("default",),
    deadline_slack: Optional[float] = None,
) -> TrafficTrace:
    """Draw a seeded synthetic trace in one of three workload shapes.

    * ``bursty`` — arrivals cluster into a few tight bursts over the
      horizon (the flash-crowd case dynamic batching exists for);
    * ``skewed`` — uniform arrivals, but model and tenant choice
      follow the endpoint weights raised to a power, so one endpoint
      dominates (the hot-model case placement policies trip over);
    * ``conversational`` — multi-turn sessions: each session re-sends
      a growing prompt (shared prefix + fresh suffix), the shape
      prefix/radix caches monetize.

    Same ``(endpoints, n_requests, horizon, seed, shape)`` ⇒ the same
    trace, bit for bit.  ``deadline_slack`` attaches a deadline of
    ``arrival + slack`` to every request so replays score SLO
    attainment.
    """
    endpoints = tuple_of(instance_of(EndpointProfile))("endpoints", endpoints)
    one_of("bursty", "skewed", "conversational")("shape", shape)
    rng = np.random.default_rng(seed)
    weights = np.array([e.weight for e in endpoints], dtype=np.float64)
    if shape == "skewed":
        weights = weights**2
    weights = weights / weights.sum()
    # The draw ``rng.choice(len(endpoints), p=weights)`` makes (one
    # ``rng.random()`` on the normalised CDF), without re-validating
    # ``p`` per request.
    cdf = weights.cumsum()
    cdf /= cdf[-1]

    if shape == "bursty":
        n_bursts = max(1, n_requests // 8)
        burst_times = np.sort(rng.uniform(0.0, horizon, size=n_bursts))
        arrivals = np.sort(
            np.clip(
                burst_times[rng.integers(0, n_bursts, size=n_requests)]
                + rng.exponential(horizon / (20.0 * n_bursts), size=n_requests),
                0.0,
                horizon,
            )
        )
    else:
        arrivals = np.sort(rng.uniform(0.0, horizon, size=n_requests))

    sessions: Dict[int, np.ndarray] = {}
    requests: List[TracedRequest] = []
    for index in range(n_requests):
        endpoint = endpoints[int(cdf.searchsorted(rng.random(), side="right"))]
        tenant = str(tenants[int(rng.integers(0, len(tenants)))])
        if shape == "conversational":
            # A session's next turn keeps the first half of its prompt
            # and redraws the rest — a growing shared prefix.
            session = int(rng.integers(0, max(1, n_requests // 4)))
            row = rng.integers(0, endpoint.vocab, size=endpoint.seq_len)
            prior = sessions.get(session)
            if prior is not None and prior.size == row.size:
                keep = endpoint.seq_len // 2
                row[:keep] = prior[:keep]
            sessions[session] = row
        else:
            row = rng.integers(0, endpoint.vocab, size=endpoint.seq_len)
        arrival = float(arrivals[index])
        requests.append(
            TracedRequest(
                model=endpoint.model,
                inputs=tuple(row.tolist()),
                dtype="int64",  # the dtype of ``rng.integers`` rows
                arrival=arrival,
                tenant=tenant,
                deadline=(
                    None
                    if deadline_slack is None
                    else arrival + float(deadline_slack)
                ),
                max_new_tokens=endpoint.max_new_tokens,
                stop_token=endpoint.stop_token,
            )
        )
    return TrafficTrace(name=name, requests=tuple(requests), seed=seed)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def save_trace(trace: TrafficTrace, path) -> None:
    """Write ``trace`` as one JSON file at ``path``.

    The :meth:`TrafficTrace.to_dict` form goes to a uniquely named temp
    file beside ``path`` and is published with ``os.replace``: a reader
    sees the old file or the new one whole, and two writers never share
    a temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as out:
            json.dump(trace.to_dict(), out)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def load_trace(path) -> TrafficTrace:
    """Read a :func:`save_trace` file back.

    A missing file raises ``FileNotFoundError``, a damaged one
    ``json.JSONDecodeError`` and an unknown version ``ValueError``; the
    file is never touched.
    """
    with open(path) as source:
        return TrafficTrace.from_dict(json.load(source))
