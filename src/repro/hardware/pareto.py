"""Pareto-front extraction for the latency/power design-space plots.

Fig. 10 scatter-plots every design point (PE count × MAC count) in the
latency-power plane and highlights the Pareto frontier; this module
provides the generic minimization front used by that experiment and the
design-space exploration example.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def pareto_front(
    points: Iterable[T],
    objectives: Sequence[Callable[[T], float]],
) -> List[T]:
    """Return the points not dominated on the given objectives.

    A point dominates another when it is no worse on every objective and
    strictly better on at least one; all objectives are minimized.
    Output preserves the input order of the surviving points.
    """
    items = list(points)
    values = [tuple(obj(p) for p in items) for obj in objectives]
    # values[k][i] is objective k of item i; transpose for per-item tuples.
    per_item = list(zip(*values)) if items else []

    def dominates(a: tuple, b: tuple) -> bool:
        return all(x <= y for x, y in zip(a, b)) and any(
            x < y for x, y in zip(a, b)
        )

    front = []
    for i, item in enumerate(items):
        if not any(
            dominates(per_item[j], per_item[i]) for j in range(len(items)) if j != i
        ):
            front.append(item)
    return front

