"""The knob vector the autotuner searches: one serving deployment, as data.

A :class:`TuningConfig` is everything the replay harness needs to
stand up a candidate deployment — pool composition (a tuple of
:class:`~repro.systolic.config.SystolicConfig` design points),
placement policy plus the ``cost_aware`` occupancy penalty, batcher
knobs, admission caps and cache byte budgets — as a frozen, JSON-safe
value (design points serialize through the existing
:func:`~repro.serving.cluster.config_to_dict`).  Two replays of the
same trace under equal configs are bit-identical, which is what makes
search results comparable and fronts resumable.

A :class:`ConfigSpace` bounds the search: a catalog of shard design
points plus discrete knob ranges, with seeded ``sample`` /
``mutate`` / ``crossover`` operators shared by the random and
evolutionary drivers in :mod:`repro.autotune.search`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.serving.cluster import config_from_dict, config_to_dict
from repro.serving.elastic import ElasticConfig
from repro.systolic.config import SystolicConfig

_PLACEMENT_CHOICES = ("round_robin", "least_loaded", "cost_aware", "lookahead")

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
    the cache budgets size the per-shard prefix cache and the radix KV
    cache when the replayed models opt into them (None = feature off).

    The elastic-runtime switches (``steal``, ``autoscale``) feed an
    :class:`~repro.serving.elastic.ElasticConfig` the replay harness
    hands the engine (their thresholds are constants of
    :mod:`repro.serving.elastic`); ``placement="lookahead"`` turns on
    joint per-round list scheduling.  All default off, so an untuned
    config replays the pinned baseline bit-identically.
    """

    pool: Tuple[SystolicConfig, ...]
    placement: str = "round_robin"
    occupancy_penalty: float = 0.0
    max_batch_size: int = 8
    flush_timeout: float = 1e-3
    max_queue_depth: Optional[int] = None
    prefix_budget_bytes: Optional[int] = None
    radix_budget_bytes: Optional[int] = None
    steal: bool = False
    autoscale: bool = False

    def __post_init__(self) -> None:
        if not self.pool:
            raise ValueError("a tuning config needs at least one shard")
        if self.placement not in _PLACEMENT_CHOICES:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"available: {list(_PLACEMENT_CHOICES)}"
            )
        if self.occupancy_penalty < 0:
            raise ValueError(
                f"occupancy_penalty must be >= 0, got {self.occupancy_penalty}"
            )
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )

    def elastic(self) -> ElasticConfig:
        """The engine-side elastic knobs this candidate deploys with."""
        return ElasticConfig(steal=self.steal, autoscale=self.autoscale)

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
        if self.steal or self.autoscale:
            line += " " + self.elastic().describe()
        return line

    def to_dict(self) -> Dict[str, object]:
        return {
            "pool": [config_to_dict(config) for config in self.pool],
            "placement": self.placement,
            "occupancy_penalty": self.occupancy_penalty,
            "max_batch_size": self.max_batch_size,
            "flush_timeout": self.flush_timeout,
            "max_queue_depth": self.max_queue_depth,
            "prefix_budget_bytes": self.prefix_budget_bytes,
            "radix_budget_bytes": self.radix_budget_bytes,
            "steal": self.steal,
            "autoscale": self.autoscale,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TuningConfig":
        # Elastic switches are read with defaults so pre-elastic
        # snapshots (recorded fronts, saved Pareto members) keep loading;
        # keys of knobs that became constants are ignored.
        return cls(
            pool=tuple(config_from_dict(item) for item in data["pool"]),
            placement=str(data["placement"]),
            occupancy_penalty=float(data["occupancy_penalty"]),
            max_batch_size=int(data["max_batch_size"]),
            flush_timeout=float(data["flush_timeout"]),
            max_queue_depth=(
                None
                if data["max_queue_depth"] is None
                else int(data["max_queue_depth"])
            ),
            prefix_budget_bytes=(
                None
                if data["prefix_budget_bytes"] is None
                else int(data["prefix_budget_bytes"])
            ),
            radix_budget_bytes=(
                None
                if data["radix_budget_bytes"] is None
                else int(data["radix_budget_bytes"])
            ),
            steal=bool(data.get("steal", False)),
            autoscale=bool(data.get("autoscale", False)),
        )


@dataclass(frozen=True)
class ConfigSpace:
    """Bounds of the search: a shard catalog plus discrete knob ranges.

    ``catalog`` is the set of deployable design points (what the
    operator can actually rack); a candidate pool is any multiset of
    1..``max_shards`` of them.  The remaining ranges enumerate the
    discrete values each knob may take — discrete on purpose, so the
    space is seed-reproducible and mutation is a neighbor hop, not a
    float perturbation that never revisits a value.  The admission cap,
    the cache budgets and the elastic switches are not searched: a
    sampled config leaves them at their :class:`TuningConfig` defaults.
    """

    catalog: Tuple[SystolicConfig, ...]
    max_shards: int = 4
    placements: Tuple[str, ...] = _BASELINE_PLACEMENTS
    occupancy_penalties: Tuple[float, ...] = (0.0, 0.5, 1.0, 2.0)
    batch_sizes: Tuple[int, ...] = (2, 4, 8)
    flush_timeouts: Tuple[float, ...] = (1e-4, 1e-3)

    def __post_init__(self) -> None:
        if not self.catalog:
            raise ValueError("the shard catalog must not be empty")
        if self.max_shards < 1:
            raise ValueError(f"max_shards must be >= 1, got {self.max_shards}")
        for placement in self.placements:
            if placement not in _PLACEMENT_CHOICES:
                raise ValueError(
                    f"unknown placement {placement!r}; "
                    f"available: {list(_PLACEMENT_CHOICES)}"
                )

    def sample(self, rng: np.random.Generator) -> TuningConfig:
        """One uniform draw from the space (all randomness from ``rng``)."""
        n_shards = int(rng.integers(1, self.max_shards + 1))
        pool = tuple(
            self.catalog[int(rng.integers(0, len(self.catalog)))]
            for _ in range(n_shards)
        )
        placement = str(self.placements[int(rng.integers(0, len(self.placements)))])
        return TuningConfig(
            pool=pool,
            placement=placement,
            occupancy_penalty=(
                float(_pick(rng, self.occupancy_penalties))
                if placement == "cost_aware"
                else 0.0
            ),
            max_batch_size=int(_pick(rng, self.batch_sizes)),
            flush_timeout=float(_pick(rng, self.flush_timeouts)),
        )

    def mutate(
        self, config: TuningConfig, rng: np.random.Generator
    ) -> TuningConfig:
        """One neighbor hop: re-draw a single knob (or swap one shard).

        The elastic switches of ``config`` are carried, not searched.
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
            placement = str(
                self.placements[int(rng.integers(0, len(self.placements)))]
            )
            return replace(
                config,
                placement=placement,
                occupancy_penalty=(
                    config.occupancy_penalty if placement == "cost_aware" else 0.0
                ),
            )
        if move == 2:
            if config.placement != "cost_aware":
                return replace(
                    config, max_batch_size=int(_pick(rng, self.batch_sizes))
                )
            return replace(
                config,
                occupancy_penalty=float(_pick(rng, self.occupancy_penalties)),
            )
        if move == 3:
            return replace(
                config, max_batch_size=int(_pick(rng, self.batch_sizes))
            )
        return replace(
            config, flush_timeout=float(_pick(rng, self.flush_timeouts))
        )

    def crossover(
        self,
        first: TuningConfig,
        second: TuningConfig,
        rng: np.random.Generator,
    ) -> TuningConfig:
        """A child taking the pool from one parent, each knob from either
        (the admission cap, cache budgets and elastic switches come with
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

