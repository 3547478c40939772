"""Seeded search drivers over :class:`~repro.autotune.tuning.TuningConfig`.

Two drivers share one evaluation fabric:

* :func:`random_search` — uniform seeded draws from a
  :class:`~repro.autotune.tuning.ConfigSpace`, the baseline every
  fancier strategy must beat;
* :func:`evolutionary_search` — a mutation/crossover loop: each
  generation scores a population, keeps the scalar-score elite as
  parents, and refills with crossover children and neighbor-hop
  mutants.

Candidate generation is driven entirely by one
``numpy.random.default_rng(seed)`` stream and replay is
deterministic, so a search is reproducible bit for bit.  Candidates
are scored in order, in this process, so every engine after the first
replays the shapes an earlier candidate met from its endpoints' tapes
(:attr:`~repro.serving.deploy.EndpointSpec.tapes`).  Every scored candidate
flows into a :class:`~repro.autotune.front.TuningFront` via the
existing Pareto dominance code; pass a run's front in to resume
it — its surviving configs seed the first population and its
entries stay in the merged result.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autotune.front import FrontEntry, TuningFront
from repro.autotune.objective import scalar_score
from repro.autotune.replay import EndpointSpec, evaluate
from repro.autotune.trace import TrafficTrace
from repro.autotune.tuning import ConfigSpace, TuningConfig
from repro.domains import POSITIVE_INT, at_least


def _evaluate_candidates(
    trace: TrafficTrace,
    configs: Sequence[TuningConfig],
    endpoints: Sequence[EndpointSpec],
) -> List[FrontEntry]:
    """Score every candidate, in order."""
    return [
        FrontEntry(config=config, objective=evaluate(trace, config, endpoints))
        for config in configs
    ]


def random_search(
    trace: TrafficTrace,
    space: ConfigSpace,
    endpoints: Sequence[EndpointSpec],
    n_candidates: int,
    seed: int,
    front: Optional[TuningFront] = None,
) -> TuningFront:
    """Score ``n_candidates`` uniform seeded draws; return the front.

    Pass a previously saved ``front`` to resume: its entries survive
    into the merge and its ``evaluated`` count keeps accumulating.
    """
    n_candidates = POSITIVE_INT("n_candidates", n_candidates)
    rng = np.random.default_rng(seed)
    configs = [space.sample(rng) for _ in range(n_candidates)]
    entries = _evaluate_candidates(trace, configs, endpoints)
    if front is None:
        front = TuningFront.from_entries(trace.name, (), evaluated=0)
    return front.merge(entries, evaluated=len(entries))


def evolutionary_search(
    trace: TrafficTrace,
    space: ConfigSpace,
    endpoints: Sequence[EndpointSpec],
    generations: int,
    population: int,
    seed: int,
    front: Optional[TuningFront] = None,
) -> TuningFront:
    """Mutation/crossover loop over ``generations`` populations.

    Generation 0 samples the space — seeded by the surviving configs
    of ``front`` when resuming.  Each later generation keeps the top
    third (by scalar score) of everything evaluated so far as parents
    and refills the population with crossover children and mutants.
    Every scored candidate is merged into the returned front.
    """
    generations = POSITIVE_INT("generations", generations)
    population = at_least(2)("population", population)
    rng = np.random.default_rng(seed)
    if front is None:
        front = TuningFront.from_entries(trace.name, (), evaluated=0)

    pool: List[TuningConfig] = [entry.config for entry in front.entries]
    pool = pool[:population]
    while len(pool) < population:
        pool.append(space.sample(rng))

    scored: List[FrontEntry] = []
    for _ in range(generations):
        entries = _evaluate_candidates(trace, pool, endpoints)
        front = front.merge(entries, evaluated=len(entries))
        scored.extend(entries)
        parents = sorted(scored, key=lambda entry: scalar_score(entry.objective))
        parents = [entry.config for entry in parents[: max(2, population // 3)]]
        pool = []
        while len(pool) < population:
            if rng.integers(0, 2) == 0 and len(parents) >= 2:
                first, second = rng.choice(len(parents), size=2, replace=False)
                child = space.crossover(
                    parents[int(first)], parents[int(second)], rng
                )
            else:
                child = space.mutate(
                    parents[int(rng.integers(0, len(parents)))], rng
                )
            pool.append(child)
    return front
