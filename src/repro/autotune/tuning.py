"""The knob vector the autotuner searches: one serving deployment, as data.

A :class:`TuningConfig` is everything the replay harness needs to
stand up a candidate deployment — pool composition (a tuple of
:class:`~repro.systolic.config.SystolicConfig` design points),
placement policy plus the ``cost_aware`` occupancy penalty, batcher
knobs, admission caps and the K/V cache byte budget — as a frozen,
hashable value (a front dedupes on the config itself).  Two replays of
the same trace under equal configs are bit-identical, which is what
makes search results comparable and fronts resumable.

A :class:`ConfigSpace` bounds the search: a catalog of shard design
points plus discrete knob ranges, with seeded ``sample`` /
``mutate`` / ``crossover`` operators shared by the random and
evolutionary drivers in :mod:`repro.autotune.search`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.domains import BOOL, NON_NEGATIVE, POSITIVE_INT, check_fields, instance_of
from repro.domains import optional, tuple_of
from repro.serving.cluster import PLACEMENT
from repro.systolic.config import SystolicConfig

_POOL = tuple_of(instance_of(SystolicConfig))

#: Default search range — the pre-elastic trio, so existing seeded
#: searches draw the same stream; operators add ``"lookahead"``
#: explicitly.
_BASELINE_PLACEMENTS = ("round_robin", "least_loaded", "cost_aware")


@dataclass(frozen=True)
class TuningConfig:
    """One candidate deployment: pool + placement + batching + caches.

    ``occupancy_penalty`` only takes effect under ``cost_aware``
    placement (it is the
    :class:`~repro.serving.cluster.CostAwarePlacement` knob);
    ``max_queue_depth`` caps every tenant's queue (None = uncapped);
    ``radix_budget_bytes`` sizes the per-shard K/V cache when the
    replayed models opt into it (None = feature off).  Values the
    engine would refuse are refused here, at construction, so a saved
    front never holds a config that only fails when replayed.

    ``steal`` is the engine's work-stealing switch (its thresholds are
    constants of :mod:`repro.serving.elastic`);
    ``placement="lookahead"`` turns on joint per-round list scheduling.
    Both default off, so an untuned config replays the pinned baseline
    bit-identically.
    """

    pool: Tuple[SystolicConfig, ...]
    placement: str = "round_robin"
    occupancy_penalty: float = 0.0
    max_batch_size: int = 8
    flush_timeout: float = 1e-3
    max_queue_depth: Optional[int] = None
    radix_budget_bytes: Optional[int] = None
    steal: bool = False

    DOMAINS = dict(
        pool=_POOL, placement=PLACEMENT, occupancy_penalty=NON_NEGATIVE,
        max_batch_size=POSITIVE_INT, flush_timeout=NON_NEGATIVE,
        max_queue_depth=optional(POSITIVE_INT),
        radix_budget_bytes=optional(POSITIVE_INT), steal=BOOL,
    )
    __post_init__ = check_fields

    def describe(self) -> str:
        """One line: pool grids, placement and batch knobs."""
        grids = ", ".join(
            f"{c.pe_rows}x{c.pe_cols}x{c.macs_per_pe}@{c.clock_hz / 1e6:.0f}MHz"
            for c in self.pool
        )
        placement = self.placement
        if self.placement == "cost_aware" and self.occupancy_penalty > 0:
            placement = f"cost_aware(occ={self.occupancy_penalty:g})"
        line = (
            f"[{grids}] placement={placement} "
            f"batch<= {self.max_batch_size} flush={self.flush_timeout:g}s"
        )
        if self.steal:
            line += " elastic: steal"
        return line


@dataclass(frozen=True)
class ConfigSpace:
    """Bounds of the search: a shard catalog plus discrete knob ranges.

    ``catalog`` is the set of deployable design points (what the
    operator can actually rack); a candidate pool is any multiset of
    1..``max_shards`` of them.  The remaining ranges enumerate the
    discrete values each knob may take — discrete on purpose, so the
    space is seed-reproducible and mutation is a neighbor hop, not a
    float perturbation that never revisits a value.  The admission cap,
    the cache budget and the steal switch are not searched: a
    sampled config leaves them at their :class:`TuningConfig` defaults.
    """

    catalog: Tuple[SystolicConfig, ...]
    max_shards: int = 4
    placements: Tuple[str, ...] = _BASELINE_PLACEMENTS
    occupancy_penalties: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    batch_sizes: Tuple[int, ...] = (2, 4, 8)
    flush_timeouts: Tuple[float, ...] = (1e-4, 1e-3)

    DOMAINS = dict(
        catalog=_POOL, max_shards=POSITIVE_INT, placements=tuple_of(PLACEMENT),
        occupancy_penalties=tuple_of(NON_NEGATIVE), batch_sizes=tuple_of(POSITIVE_INT),
        flush_timeouts=tuple_of(NON_NEGATIVE),
    )
    __post_init__ = check_fields

    def sample(self, rng: np.random.Generator) -> TuningConfig:
        """One uniform draw from the space (all randomness from ``rng``)."""
        n_shards = int(rng.integers(1, self.max_shards + 1))
        pool = tuple(
            self.catalog[int(rng.integers(0, len(self.catalog)))]
            for _ in range(n_shards)
        )
        placement = str(_pick(rng, self.placements))
        return TuningConfig(
            pool=pool,
            placement=placement,
            occupancy_penalty=(
                _pick(rng, self.occupancy_penalties) if placement == "cost_aware" else 0.0
            ),
            max_batch_size=_pick(rng, self.batch_sizes),
            flush_timeout=_pick(rng, self.flush_timeouts),
        )

    def mutate(
        self, config: TuningConfig, rng: np.random.Generator
    ) -> TuningConfig:
        """One neighbor hop: re-draw a single knob (or swap one shard).

        The steal switch of ``config`` is carried, not searched.
        """
        move = int(rng.integers(0, 5))
        if move == 0:
            # Swap one shard for a catalog neighbor; grow or shrink the
            # pool by one when the bounds allow it.
            pool = list(config.pool)
            action = int(rng.integers(0, 3))
            if action == 0 and len(pool) < self.max_shards:
                pool.append(self.catalog[int(rng.integers(0, len(self.catalog)))])
            elif action == 1 and len(pool) > 1:
                pool.pop(int(rng.integers(0, len(pool))))
            else:
                pool[int(rng.integers(0, len(pool)))] = self.catalog[
                    int(rng.integers(0, len(self.catalog)))
                ]
            return replace(config, pool=tuple(pool))
        if move == 1:
            placement = str(_pick(rng, self.placements))
            return replace(
                config,
                placement=placement,
                occupancy_penalty=(
                    config.occupancy_penalty if placement == "cost_aware" else 0.0
                ),
            )
        if move == 2:
            if config.placement != "cost_aware":
                return replace(config, max_batch_size=_pick(rng, self.batch_sizes))
            return replace(
                config, occupancy_penalty=_pick(rng, self.occupancy_penalties)
            )
        if move == 3:
            return replace(config, max_batch_size=_pick(rng, self.batch_sizes))
        return replace(config, flush_timeout=_pick(rng, self.flush_timeouts))

    def crossover(
        self,
        first: TuningConfig,
        second: TuningConfig,
        rng: np.random.Generator,
    ) -> TuningConfig:
        """A child taking the pool from one parent, each knob from either
        (the admission cap, cache budget and steal switch come with
        the other parent whole)."""
        pool_parent, knob_parent = (
            (first, second) if rng.integers(0, 2) == 0 else (second, first)
        )
        placement = (
            first.placement if rng.integers(0, 2) == 0 else second.placement
        )
        return replace(
            knob_parent,
            pool=pool_parent.pool,
            placement=placement,
            occupancy_penalty=(
                knob_parent.occupancy_penalty
                if placement == "cost_aware"
                else 0.0
            ),
            max_batch_size=(
                first.max_batch_size
                if rng.integers(0, 2) == 0
                else second.max_batch_size
            ),
            flush_timeout=(
                first.flush_timeout
                if rng.integers(0, 2) == 0
                else second.flush_timeout
            ),
        )


def _pick(rng: np.random.Generator, choices: Sequence):
    """Uniform choice by one ``rng.integers`` draw (the stream seeded
    searches are pinned to; ``rng.choice`` would coerce the values)."""
    return choices[int(rng.integers(0, len(choices)))]

