"""Continuous-batching autoregressive decode primitives.

The engine serves generation with Orca/vLLM-style *iteration-level
scheduling*: a request's prompt runs through the normal batch pipeline
as a **prefill** (grouped by prompt *length*, so distinct prompts of
one shape stack into one array pass; each distinct member prompt gets
its own radix-cache lookup and the pass starts from the shortest cached
prefix among them), after which the sequence joins the engine's decode
pool.  Every decode iteration re-forms its batch from scratch —
sequences that just finished a prefill join, finished sequences retire
— so the batch composition tracks the live set instead of convoying
behind the longest request.  Members of one prefill leave it at one
position and one ready time, so they also decode together.

:class:`GenerationAdapter` is the model-facing half: it validates the
request against the model's position table, runs prefill/decode steps
— or, in one lockstep pass, a whole :class:`Transcript` per request —
and prices both with the closed-form cycle accounting of
:mod:`repro.nn.workload`.

:class:`DecodePool` is the scheduler-facing half: the live sequences
and, as one of the engine's work sources, the iteration to run next.
A sequence carries its K/V state with a *cursor*
(:attr:`ActiveSequence.position`): the state may hold rows past it (a
transcript holds them all), and a step reads the first ``position``
rows and writes into nothing the members hold.
Where the endpoint computes once per stack (see
:mod:`repro.serving.engine`), an iteration of a shape seen before
replays its tape and reads its tokens off the members' transcripts: it
stacks nothing and calls no model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.executor import KVState
from repro.nn.models.bert import check_token_ids
from repro.nn.workload import (
    transformer_decode_step_cycles,
    transformer_prefill_cycles,
)
from repro.serving.cluster import BatchProfile, WorkUnit
from repro.serving.request import CompletedRequest, InferenceRequest


@dataclass(frozen=True)
class DecodeStepRecord:
    """One executed decode iteration (one token per member sequence).

    Attributes
    ----------
    step_index:
        Engine-wide batch index of the iteration (shares the numbering
        of prefill/classifier batches, so ``(shard, index)`` pairs stay
        unique across the run).
    model, tenant:
        The decode batch's endpoint and tenant (never mixed).
    shard:
        Shard the iteration executed on.
    batch_size:
        Member sequences decoded together — also the tokens produced.
    position:
        Shared K/V cache length before the step (the global position
        the fed tokens occupy).
    cycles:
        Traced array cycles the iteration cost.
    start, finish:
        Simulated execution window.
    """

    step_index: int
    model: str
    tenant: str
    shard: int
    batch_size: int
    position: int
    cycles: int
    start: float
    finish: float

    @property
    def tokens(self) -> int:
        """Tokens produced by the iteration (one per member)."""
        return self.batch_size


class Transcript(NamedTuple):
    """Everything one generation request will produce, computed ahead."""

    #: Its greedy tokens, cut at ``max_new_tokens`` / the first stop token.
    tokens: List[int]
    #: Its K/V rows: the prompt and every token above but the last (at least).
    state: KVState


@dataclass
class ActiveSequence:
    """A generation request between its prefill and its retirement.

    Mutable by design: the decode loop rebinds ``state``, appends a
    token and moves ``ready_time`` after each iteration.  ``state``
    holds this one sequence's rows, at least the first
    :attr:`position` of them.
    """

    request: InferenceRequest
    state: KVState
    generated: List[int]
    ready_time: float
    first_start: float
    batch_cycles: int
    last_shard: int = 0
    last_batch_index: int = 0
    last_batch_size: int = 1

    @property
    def position(self) -> int:
        """K/V rows committed so far (the next token's global position):
        the prompt and every generated token but the last."""
        return len(self.request.inputs) + len(self.generated) - 1

    @property
    def finished(self) -> bool:
        gen = self.request.generation
        if len(self.generated) >= gen.max_new_tokens:
            return True
        return gen.stop_token is not None and self.generated[-1] == gen.stop_token


class GenerationAdapter:
    """Bridges a causal transformer to the engine's decode scheduler.

    Parameters
    ----------
    model:
        A causal :class:`~repro.nn.models.bert.TinyBERT`-shaped model:
        ``prefill`` / ``decode_step`` / ``seq_len`` plus the shape
        attributes the closed-form cycle accounting needs.
    """

    def __init__(self, model):
        if not getattr(model, "causal", False):
            raise ValueError("generation requires a causal model")
        self.model = model

    # -- request validation / batching key ------------------------------
    def validate(
        self, prompt: np.ndarray, max_new_tokens: int, stop_token: Optional[int]
    ) -> None:
        """Reject a request the model's position table or vocabulary
        cannot hold, or a stop token the model can never emit."""
        prompt = np.asarray(prompt)
        check_token_ids(prompt, self.model.vocab)
        if stop_token is not None and not 0 <= stop_token < self.model.vocab:
            raise ValueError(
                f"stop_token must be a token id in [0, {self.model.vocab}), "
                f"got {stop_token}"
            )
        p = int(prompt.shape[-1])
        if p + max_new_tokens > self.model.seq_len:
            raise ValueError(
                f"prompt ({p}) + max_new_tokens ({max_new_tokens}) exceeds "
                f"the model's {self.model.seq_len}-entry position table"
            )

    def batch_key(self, prompt: np.ndarray) -> str:
        """Shape key grouping same-length prompts into one prefill."""
        return f"g{int(np.asarray(prompt).shape[-1])}"

    # -- execution -------------------------------------------------------
    def prefill(
        self,
        prompts: np.ndarray,
        backend,
        cached: Optional[Sequence[KVState]] = None,
    ) -> Tuple[np.ndarray, KVState]:
        """Run the prompt batch; returns ``(first tokens, stacked state)``.

        ``cached`` carries one radix payload per member; the pass starts
        from the shortest one's length (see ``model.prefill``).
        """
        logits, state = self.model.prefill(prompts, backend, cached=cached)
        return np.argmax(logits, axis=-1), state

    def decode(
        self, states: List[KVState], tokens: np.ndarray, backend, position: int
    ) -> Tuple[np.ndarray, List[KVState]]:
        """One iteration over a copy of the members' first ``position``
        rows (a member may hold more: its cursor decides, not its state).

        Returns ``(next tokens, per-member states)``: member ``j``'s
        state as of after the step — views of the stepped copy, one row
        longer.  The states passed in are *not* touched, so the caller
        hands each member its new state only on success.
        """
        scratch = KVState.stack(states, upto=position)
        logits = self.model.decode_step(scratch, np.asarray(tokens), backend)
        return np.argmax(logits, axis=-1), scratch.split()

    def transcribe(
        self, requests: Sequence[InferenceRequest], backend
    ) -> List[Transcript]:
        """The transcripts of same-length-prompt ``requests``, from one
        lockstep prefill + decode loop over their stacked prompts (rows
        are independent, so each equals what the request's own prefill
        and decode steps produce, in whatever company they run)."""
        limits = [r.generation.max_new_tokens for r in requests]
        stops = [r.generation.stop_token for r in requests]
        rows, state = self.model.transcribe(
            np.stack([r.inputs for r in requests]), limits, backend, stops
        )
        return [
            Transcript(row.tolist(), member)
            for row, member in zip(rows, state.split())
        ]

    # -- closed-form cycle accounting (memoised where defined) -----------
    def prefill_cycles(
        self, batch: int, prompt_len: int, cached_len: int, config
    ) -> int:
        """Traced cycles of a prefill."""
        m = self.model
        return transformer_prefill_cycles(
            batch, prompt_len, cached_len,
            m.dim, m.heads, m.ff_dim, m.n_layers, m.vocab, config,
        )

    def decode_cycles(self, batch: int, position: int, config) -> int:
        """Traced cycles of one decode iteration."""
        m = self.model
        return transformer_decode_step_cycles(
            batch, position, m.dim, m.heads, m.ff_dim, m.n_layers, m.vocab, config
        )

    def cost_model(self, profile, config) -> int:
        """Cost hook for placement: price the profile as a cold prefill."""
        return self.prefill_cycles(
            profile.batch_size, int(profile.sample_shape[0]), 0, config
        )


class DecodePool:
    """The continuous-batching decode pool: sequences between their
    prefill and their retirement, re-batched every iteration.

    One of the engine's work sources (``next_ready`` / ``pop``; a
    decode iteration tied with a fresh batch runs first).
    The tenant scheduler supplies the batch-size cap and the engine-wide
    batch index, ``adapter_of(model)`` the endpoint's
    :class:`GenerationAdapter`, ``once_of(model, shard, backend)`` its
    compute-once state there (None = execute per unit) and
    ``forget(request)`` drops what is held for a request that left the
    pool; ``log`` is the event sink.
    """

    def __init__(
        self, scheduler, adapter_of: Callable, once_of: Callable,
        forget: Callable, radix_cache, log: Callable,
    ) -> None:
        self._scheduler = scheduler
        self._adapter_of = adapter_of
        self._once_of = once_of
        self._forget = forget
        self._radix_cache = radix_cache
        self._log = log
        self._active: List[ActiveSequence] = []

    def next_ready(self) -> Optional[float]:
        return min(seq.ready_time for seq in self._active) if self._active else None

    def admit(self, seq: ActiveSequence) -> Optional[CompletedRequest]:
        """Take a sequence fresh out of its prefill: its completion when
        the first token already finished it, else None (it is pooled)."""
        if seq.finished:
            return self._retire(seq, seq.ready_time)
        self._active.append(seq)
        return None

    def pop(self, ready: float):
        """The work unit of one decode iteration: re-form, step, retire.

        The batch is rebuilt from the live pool every iteration — the
        earliest-ready sequence leads, and every compatible sequence
        (same model, tenant and position; decode batches never mix
        tenants or models) joins up to the scheduler's batch-size cap.
        The iteration starts once every member is ready, so sequences
        whose prefills finished at different instants merge instead of
        decoding in isolated lockstep groups.  Prompts MAY differ
        across members — that is what continuous batching buys.

        The step reads the members' first ``position`` rows and writes
        into nothing they hold (see :meth:`GenerationAdapter.decode`): a
        member's cursor and state only move at the commit.

        Where the endpoint computes once per stack, the iteration is
        charged and filled by the same two helpers as a classifier batch
        and a prefill: the first iteration of a ``(batch, position)``
        executes for real, taped; every later one replays the tape and
        takes each member's next token and state from its transcript.
        """
        lead = min(
            self._active, key=lambda s: (s.ready_time, s.request.request_id)
        )
        group = [
            seq
            for seq in self._active
            if seq.request.model == lead.request.model
            and seq.request.tenant == lead.request.tenant
            and seq.position == lead.position
        ]
        group.sort(key=lambda s: (s.ready_time, s.request.request_id))
        group = group[: self._scheduler.assembler.max_batch_size]
        batch_index = self._scheduler.next_batch_index()
        adapter = self._adapter_of(lead.request.model)
        size = len(group)
        position = lead.position
        profile = BatchProfile(
            model=lead.request.model,
            tenant=lead.request.tenant,
            batch_size=size,
            sample_shape=(position,),
            ready_time=max(seq.ready_time for seq in group),
            estimator=lambda p, config: adapter.decode_cycles(
                p.batch_size, position, config
            ),
        )

        def run(shard, backend):
            def step():
                tokens = np.array([seq.generated[-1] for seq in group], dtype=np.int64)
                return adapter.decode(
                    [seq.state for seq in group], tokens, backend, position
                )

            once = self._once_of(lead.request.model, shard, backend)
            if once is None:
                return step(), False
            stack, array, who = once
            key = ("decode", size, position, array.config, who)
            return stack.once(
                [seq.request for seq in group], key, who, backend, step,
                lambda members: adapter.transcribe(members, backend),
                lambda transcripts: (
                    [t.tokens[len(seq.generated)] for t, seq in zip(transcripts, group)],
                    [t.state for t in transcripts],
                ),
            ), False

        def commit(placed, result, reused):
            next_tokens, states = result
            self._log(
                DecodeStepRecord(
                    step_index=batch_index,
                    model=placed.model,
                    tenant=placed.tenant,
                    shard=placed.shard,
                    batch_size=size,
                    position=position,
                    cycles=placed.batch_cycles,
                    start=placed.start,
                    finish=placed.finish,
                )
            )
            completed: List[CompletedRequest] = []
            for seq, token, state in zip(group, next_tokens, states):
                seq.state = state
                seq.generated.append(int(token))
                seq.ready_time = placed.finish
                seq.batch_cycles += placed.batch_cycles
                seq.last_shard = placed.shard
                seq.last_batch_index = batch_index
                seq.last_batch_size = size
                if seq.finished:
                    self._active.remove(seq)
                    completed.append(self._retire(seq, placed.finish))
            return completed

        return WorkUnit(profile, batch_index, run, commit), None

    def _retire(self, seq: ActiveSequence, finish: float) -> CompletedRequest:
        """Turn a finished sequence into its completion record.

        A retiring sequence donates its whole history — prompt plus all
        generated tokens but the last, exactly the ``position`` K/V rows
        it committed — to the radix cache, so a follow-up request that
        replays the transcript prefills only its new suffix.
        """
        if self._radix_cache is not None:
            history = np.concatenate(
                [
                    np.asarray(seq.request.inputs, dtype=np.int64),
                    np.asarray(seq.generated[:-1], dtype=np.int64),
                ]
            )
            self._radix_cache.insert(
                seq.last_shard,
                seq.request.tenant,
                seq.request.model,
                history,
                seq.state.prefix(seq.position),
            )
        self._forget(seq.request)
        return CompletedRequest(
            request=seq.request,
            outputs=np.asarray(seq.generated, dtype=np.int64),
            shard=seq.last_shard,
            batch_index=seq.last_batch_index,
            batch_size=seq.last_batch_size,
            start=seq.first_start,
            finish=finish,
            batch_cycles=seq.batch_cycles,
        )
