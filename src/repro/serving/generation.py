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
request against the model's position table, runs prefill/decode steps,
and prices both with the closed-form cycle accounting of
:mod:`repro.nn.workload`.  Its :meth:`GenerationAdapter.decode` is
*crash-safe by construction*: the step runs on a stacked **copy** of
the member states (:meth:`~repro.nn.executor.KVState.stack`) and
returns the new K/V rows, so a fault-injected attempt can be discarded
without rolling anything back — the engine appends the rows onto the
per-sequence states only after the attempt survives the fault checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.executor import KVState
from repro.nn.workload import (
    transformer_decode_step_cycles,
    transformer_prefill_cycles,
)
from repro.serving.request import InferenceRequest


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
    attempt:
        0 for a first try; > 0 when the iteration was re-placed after
        shard faults.
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
    attempt: int = 0

    @property
    def tokens(self) -> int:
        """Tokens produced by the iteration (one per member)."""
        return self.batch_size


@dataclass
class ActiveSequence:
    """A generation request between its prefill and its retirement.

    Mutable by design: the decode loop appends K/V rows and tokens
    after each successful iteration, and the fault path bumps
    ``attempt``/``ready_time`` in place.
    """

    request: InferenceRequest
    state: KVState
    generated: List[int]
    ready_time: float
    first_start: float
    batch_cycles: int
    attempts: int = 1
    attempt: int = 0
    exclude_shard: Optional[int] = None
    last_shard: int = 0
    last_batch_index: int = 0
    last_batch_size: int = 1

    @property
    def position(self) -> int:
        """K/V rows cached so far (the next token's global position)."""
        return self.state.pos

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
        self._prefill_cycles: Dict[tuple, int] = {}
        self._decode_cycles: Dict[tuple, int] = {}

    # -- request validation / batching key ------------------------------
    def validate(self, prompt: np.ndarray, max_new_tokens: int) -> None:
        """Reject a request the model's position table cannot hold."""
        p = int(np.asarray(prompt).shape[-1])
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
        self, states: List[KVState], tokens: np.ndarray, backend
    ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
        """One iteration over a copy of the member caches.

        Returns ``(next tokens, per-layer (k_rows, v_rows))`` with the
        rows shaped ``(B, 1, D)``; the member states are *not* mutated
        — the caller appends row ``j`` to member ``j`` on success.
        """
        scratch = KVState.stack(states)
        logits = self.model.decode_step(scratch, np.asarray(tokens), backend)
        step_kv = [(k[:, -1:], v[:, -1:]) for k, v in zip(scratch.k, scratch.v)]
        return np.argmax(logits, axis=-1), step_kv

    # -- closed-form cycle accounting ------------------------------------
    def prefill_cycles(
        self, batch: int, prompt_len: int, cached_len: int, config
    ) -> int:
        """Traced cycles of a prefill (memoized closed form)."""
        key = (batch, prompt_len, cached_len, config)
        if key not in self._prefill_cycles:
            m = self.model
            self._prefill_cycles[key] = transformer_prefill_cycles(
                batch, prompt_len, cached_len,
                m.dim, m.heads, m.ff_dim, m.n_layers, m.vocab, config,
            )
        return self._prefill_cycles[key]

    def decode_cycles(self, batch: int, position: int, config) -> int:
        """Traced cycles of one decode iteration (memoized closed form)."""
        key = (batch, position, config)
        if key not in self._decode_cycles:
            m = self.model
            self._decode_cycles[key] = transformer_decode_step_cycles(
                batch, position,
                m.dim, m.heads, m.ff_dim, m.n_layers, m.vocab, config,
            )
        return self._decode_cycles[key]

    def cost_model(self, profile, config) -> int:
        """Cost hook for placement: price the profile as a cold prefill."""
        return self.prefill_cycles(
            profile.batch_size, int(profile.sample_shape[0]), 0, config
        )
