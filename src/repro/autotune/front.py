"""The search's product: a resumable cost-vs-SLO Pareto front.

A :class:`TuningFront` holds the non-dominated
``(TuningConfig, Objective)`` pairs a search has found for one trace,
pruned by the paper's own dominance code
(:func:`repro.hardware.pareto.pareto_front`) over four axes —
minimize cost and p99, maximize SLO attainment and token throughput.
:meth:`TuningFront.merge` folds new survivors into an existing front,
so a search given a front (``random_search(front=)`` /
``evolutionary_search(front=)``) resumes where the last one stopped
instead of re-discovering it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.autotune.objective import Objective, scalar_score
from repro.autotune.tuning import TuningConfig
from repro.hardware.pareto import pareto_front

#: The four dominance axes, all expressed as minimization (the
#: convention :func:`repro.hardware.pareto.pareto_front` uses):
#: cheaper, more deadlines met, faster tail, more tokens.
_AXES = (
    lambda entry: entry.objective.cost,
    lambda entry: -entry.objective.slo_attainment,
    lambda entry: entry.objective.p99,
    lambda entry: -entry.objective.tokens_per_sec,
)


@dataclass(frozen=True)
class FrontEntry:
    """One surviving candidate: its config and its scored objective."""

    config: TuningConfig
    objective: Objective

    @property
    def score(self) -> float:
        """The entry's scalar rank (see
        :func:`~repro.autotune.objective.scalar_score`)."""
        return scalar_score(self.objective)


def _dedupe(entries: Iterable[FrontEntry]) -> Tuple[FrontEntry, ...]:
    """Drop repeated configs (replay is deterministic: same config,
    same objective), keeping first-seen order."""
    seen = set()
    unique = []
    for entry in entries:
        if entry.config not in seen:
            seen.add(entry.config)
            unique.append(entry)
    return tuple(unique)


@dataclass(frozen=True)
class TuningFront:
    """The non-dominated candidates found for one trace so far.

    ``evaluated`` counts every candidate ever scored into this front
    (across resumed runs), not just the survivors — the honest measure
    of how much search the front represents.
    """

    trace_name: str
    entries: Tuple[FrontEntry, ...]
    evaluated: int = 0

    @classmethod
    def from_entries(
        cls,
        trace_name: str,
        entries: Iterable[FrontEntry],
        evaluated: Optional[int] = None,
    ) -> "TuningFront":
        """Build a front: dedupe, then keep the dominance survivors."""
        unique = _dedupe(entries)
        survivors = tuple(pareto_front(unique, _AXES))
        return cls(
            trace_name=trace_name,
            entries=survivors,
            evaluated=len(unique) if evaluated is None else evaluated,
        )

    def merge(self, entries: Iterable[FrontEntry], evaluated: int = 0) -> "TuningFront":
        """Fold newly scored candidates in; dominated entries fall off.

        This is how runs resume: a search given a front merges what it
        scores into it.  ``evaluated`` adds the number of *new* replays
        the entries came from.
        """
        return TuningFront.from_entries(
            self.trace_name,
            tuple(self.entries) + tuple(entries),
            evaluated=self.evaluated + evaluated,
        )

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    def best(self) -> FrontEntry:
        """The front entry with the lowest scalar score."""
        if not self.entries:
            raise ValueError("the front is empty; nothing has been evaluated")
        return min(self.entries, key=lambda entry: entry.score)

    def describe(self) -> str:
        """One line per surviving config: objective axes and score."""
        lines = [
            f"front for trace {self.trace_name!r}: {self.n_entries} "
            f"non-dominated of {self.evaluated} evaluated"
        ]
        for entry in sorted(self.entries, key=lambda e: e.score):
            o = entry.objective
            lines.append(
                f"  cost {o.cost:8.1f}W  slo {o.slo_attainment:5.1%}  "
                f"p99 {o.p99 * 1e6:9.1f}us  tok/s {o.tokens_per_sec:8.1f}  "
                f"score {entry.score:.3e}  {entry.config.describe()}"
            )
        return "\n".join(lines)
