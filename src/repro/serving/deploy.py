"""From a deployment described as data to a running engine, once.

A candidate replay of :func:`~repro.autotune.replay.replay_trace`
stands an engine up from picklable values.  What that takes exists
here exactly once: endpoints described by construction
(:class:`EndpointSpec`), the engine assembler (:func:`assemble_engine`
— it alone decides which caches exist) and the child start
(:func:`start_child`) an engine's stack helper goes through.
Engine options are forwarded, never re-declared: an option added to
``InferenceEngine`` reaches replays with no edit here or in a front end.
"""

from __future__ import annotations

import copy
import functools
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.domains import BOOL, POSITIVE_INT, check_fields, instance_of, optional
from repro.serving.cluster import ClusterSpec, workload_cost_model
from repro.serving.engine import InferenceEngine
from repro.serving.generation import GenerationAdapter
from repro.serving.prefix_cache import RadixKVCache, TransformerPrefixAdapter

#: Cost models kept, one per ``WorkloadCostSpec`` value (deployments here use one).
COST_MODELS = 16


@dataclass(frozen=True)
class WorkloadCostSpec:
    """Picklable description of a transformer endpoint's cost model.

    Rebuilds :func:`~repro.serving.cluster.workload_cost_model` over
    :func:`~repro.nn.workload.transformer_serving_workload` inside the
    evaluating process (the memoised closure itself does not pickle),
    once per spec *value*: equal specs share one memo of pure estimates.
    """

    seq_len: int
    dim: int
    heads: int
    ff_dim: int
    n_layers: int

    @functools.lru_cache(maxsize=COST_MODELS)
    def build(self) -> Callable:
        from repro.nn.workload import transformer_serving_workload

        return workload_cost_model(
            lambda batch, shape: transformer_serving_workload(
                batch, self.seq_len, self.dim, self.heads, self.ff_dim, self.n_layers
            )
        )


@dataclass(frozen=True)
class EndpointSpec:
    """A model endpoint described by construction, not by instance.

    The assembling process rebuilds the model as ``factory(**kwargs)`` —
    the factory must be importable (a module-level class or function)
    and the kwargs picklable.  Deterministic factories (seeded weight
    init) give every replay bit-identical weights, which is what makes
    a replay reproducible.

    ``prefix_len`` opts plain-inference traffic into KV-prefix reuse
    when the deployment budgets a K/V cache, ``generation=True``
    wraps the model in a
    :class:`~repro.serving.generation.GenerationAdapter`, and ``cost``
    is the closed form ``cost_aware`` placement prices batches with.
    """

    name: str
    factory: Callable[..., object]
    kwargs: Dict[str, object] = field(default_factory=dict)
    prefix_len: Optional[int] = None
    generation: bool = False
    cost: Optional[WorkloadCostSpec] = None

    DOMAINS = dict(
        name=instance_of(str), factory=instance_of(Callable), kwargs=instance_of(dict),
        prefix_len=optional(POSITIVE_INT), generation=BOOL,
        cost=optional(instance_of(WorkloadCostSpec)),
    )
    __post_init__ = check_fields

    @property
    def tapes(self) -> Dict[tuple, list]:
        """What the shapes of this deployment's units are charged, as far
        as any engine assembled from this very object has met them —
        ``(unit shape ..., array config, who) -> trace tape``.

        :func:`assemble_engine` lends the mapping to the endpoint's
        engine, which fills it; the next engine built from the same
        object replays those shapes from its first unit instead of
        executing each once more.  A tape is a function of its key and
        of the model's structure, so the memo is kept beside a snapshot
        of what builds the model and starts over when the description no
        longer equals it (``kwargs`` is a mutable dict).  Nothing else
        evicts it: it holds one tape per design point per unit shape the
        model can form, however many engines were assembled.  It is not
        a field: an equal-but-distinct spec shares nothing, and ``==``,
        ``repr``, ``hash``, pickle and copy never see it.
        """
        described = (self.factory, self.kwargs, self.prefix_len, self.generation)
        snapshot, tapes = self.__dict__.get("_memo", (None, None))
        try:
            stale = snapshot != described
        except ValueError:  # an array among the kwargs: equal to nothing
            stale = True
        if stale:
            # kwargs by value; the factory by reference (a bound method
            # never equals its deep copy).
            kwargs = copy.deepcopy(self.kwargs)
            snapshot = (self.factory, kwargs, self.prefix_len, self.generation)
            tapes = {}
            self.__dict__["_memo"] = snapshot, tapes
        return tapes

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_memo"}


def assemble_engine(
    pool: ClusterSpec,
    endpoints: Sequence[EndpointSpec],
    radix_budget_bytes: Optional[int] = 32 << 20,
    **engine_options,
) -> InferenceEngine:
    """Materialise one deployment: pool built, caches made, models registered.

    The one K/V cache exists only when its per-shard byte budget is not
    None *and* an endpoint can use it (``prefix_len`` or
    ``generation``).  ``engine_options`` are
    :class:`~repro.serving.engine.InferenceEngine` keywords, passed
    through untouched (``radix_cache=`` is decided here and rejected
    there as a duplicate).
    """
    radix_cache = None
    if radix_budget_bytes is not None and any(
        spec.prefix_len is not None or spec.generation for spec in endpoints
    ):
        radix_cache = RadixKVCache(radix_budget_bytes)
    engine = InferenceEngine(
        pool.build(),
        radix_cache=radix_cache,
        **engine_options,
    )
    for spec in endpoints:
        model = spec.factory(**dict(spec.kwargs))
        engine.register(
            spec.name,
            model,
            cost_model=spec.cost.build() if spec.cost is not None else None,
            prefix_adapter=(
                TransformerPrefixAdapter(model, spec.prefix_len)
                if spec.prefix_len is not None and radix_cache is not None
                else None
            ),
            generation_adapter=GenerationAdapter(model) if spec.generation else None,
        )
        engine.share_tapes(spec.name, spec.tapes)
    return engine


def start_child(target: Callable, args: tuple):
    """``target(*args, pipe)`` started in a child, forked on POSIX (nothing
    need pickle): ``(process, its one-way pipe's read end)``.  The one
    way this package starts a child (an engine's stack helper)."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX fallback
        ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=target, args=(*args, child_conn))
    proc.start()
    child_conn.close()
    return proc, parent_conn
