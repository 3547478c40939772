"""The search's product: a persisted, resumable cost-vs-SLO Pareto front.

A :class:`TuningFront` holds the non-dominated
``(TuningConfig, Objective)`` pairs a search has found for one trace,
pruned by the paper's own dominance code
(:func:`repro.hardware.pareto.pareto_front`) over four axes —
minimize cost and p99, maximize SLO attainment and token throughput.
Fronts are JSON-safe values persisted on the :mod:`repro.store`
fabric (:func:`save_front` / :func:`load_front` under
:data:`FRONT_NAMESPACE`), and :meth:`TuningFront.merge` folds new
survivors into an existing front — so a later search run resumes
where the last one stopped instead of re-discovering it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.autotune.objective import Objective, scalar_score
from repro.autotune.tuning import TuningConfig
from repro.hardware.pareto import pareto_front

#: Schema version stamped into every serialized front.
FRONT_VERSION = 1

#: Store namespace holding persisted fronts (one entry per front name).
FRONT_NAMESPACE = "autotune.fronts"

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

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "objective": self.objective.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FrontEntry":
        return cls(
            config=TuningConfig.from_dict(data["config"]),
            objective=Objective.from_dict(data["objective"]),
        )


def _dedupe(entries: Iterable[FrontEntry]) -> Tuple[FrontEntry, ...]:
    """Drop repeated configs (replay is deterministic: same config,
    same objective), keeping first-seen order."""
    seen = set()
    unique = []
    for entry in entries:
        key = json.dumps(entry.config.to_dict(), sort_keys=True)
        if key not in seen:
            seen.add(key)
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
    version: int = FRONT_VERSION

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

        This is how runs resume: load the persisted front, search some
        more, merge, save.  ``evaluated`` adds the number of *new*
        replays the entries came from.
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "trace_name": self.trace_name,
            "evaluated": self.evaluated,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TuningFront":
        version = int(data["version"])
        if version != FRONT_VERSION:
            raise ValueError(
                f"front version {version} is not supported "
                f"(this build reads version {FRONT_VERSION})"
            )
        return cls(
            trace_name=str(data["trace_name"]),
            evaluated=int(data["evaluated"]),
            entries=tuple(
                FrontEntry.from_dict(item) for item in data["entries"]
            ),
            version=version,
        )


def save_front(front: TuningFront, store, name: Optional[str] = None) -> None:
    """Persist ``front`` on ``store`` (JSON-safe payload).

    Keyed by ``name`` (default: the trace name), so one fabric can
    hold fronts for many traces side by side.
    """
    store.put(FRONT_NAMESPACE, name or front.trace_name, front.to_dict())


def load_front(name: str, store) -> Optional[TuningFront]:
    """Restore a :func:`save_front` snapshot from ``store``, or None if
    absent."""
    data = store.get(FRONT_NAMESPACE, name)
    if data is None:
        return None
    return TuningFront.from_dict(data)
