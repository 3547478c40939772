"""Span tracer put around the public functions of each layer, from outside.

A layer is one package of ``src/repro``.  For the traced repetition
only, :meth:`Tracer.install` rebinds each layer's public entry points
to wrappers that keep a span stack: a span's duration minus the time
its child spans cover is charged to the span's layer, so self times add
up to the root span whatever the nesting (nested spans of one layer are
fine).  :meth:`Tracer.restore` puts the identical objects back.

The package binds names with ``from repro.fixedpoint import quantize``,
so a function is rebound in *every* ``repro.*`` / ``hostbench.*``
module attribute that is the original object, and methods on their
class.  Time spent inside the wrappers themselves lands in the caller's
self time; ``trace.overhead`` in the results says how much that is.
"""

from __future__ import annotations

import itertools
import sys
from importlib import import_module
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.store import MISSING

LAYERS = (
    "harness", "autotune", "serving", "nn", "systolic", "core", "fixedpoint", "store"
)
ROOT_LAYER = "harness"
#: Raw spans beyond this many are dropped (aggregates never are).
MAX_RAW_SPANS = 50_000

_MODEL_METHODS = ("infer", "infer_suffix", "infer_suffix_kv", "prefill", "decode_step")


def _quantized_elements(args, result) -> int:
    return result.size


def _matmul_macs(args, result) -> int:
    # Operation count from shapes: each output element of
    # (..., M, K) @ (..., K, N) is a K-term dot product.
    return result.size * args[0].shape[-1]


def _store_hit(args, result) -> int:
    return result is not None and result is not MISSING


def _subclasses(cls) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def entry_points() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(layer, owner, attribute, work)`` for every span boundary.

    ``owner`` is the defining module of a function or the class of a
    method; ``work`` optionally turns a call into a count of work done
    (elements, multiply-accumulates, hits).
    """
    # ``repro.fixedpoint.quantize`` the attribute is the function, which
    # shadows the module of that name: ask the import system instead.
    replay = import_module("repro.autotune.replay")
    nonlinear_ops = import_module("repro.core.nonlinear_ops")
    arithmetic = import_module("repro.fixedpoint.arithmetic")
    quantize = import_module("repro.fixedpoint.quantize")
    from repro.core.cpwl import CPWLApproximator
    from repro.nn.layers import Module
    from repro.serving.engine import InferenceEngine
    from repro.store import InProcessLRU
    from repro.systolic import SystolicArray

    points: List[Tuple[str, object, str, Optional[Callable]]] = [
        ("autotune", replay, "replay_trace", None),
        ("autotune", replay, "build_engine", None),
        ("serving", InferenceEngine, "submit", None),
        ("serving", InferenceEngine, "submit_generation", None),
        ("serving", InferenceEngine, "run", None),
        ("fixedpoint", quantize, "quantize", _quantized_elements),
        ("fixedpoint", quantize, "dequantize", None),
        ("fixedpoint", arithmetic, "fixed_matmul", _matmul_macs),
        ("fixedpoint", arithmetic, "fixed_hadamard_mac", None),
        ("fixedpoint", arithmetic, "accumulator_to_output", None),
        ("fixedpoint", arithmetic, "saturate", None),
        ("core", nonlinear_ops, "get_approximator", None),
        ("core", CPWLApproximator, "__init__", None),
        ("core", CPWLApproximator, "__call__", None),
        ("core", CPWLApproximator, "evaluate_raw", None),
        ("store", InProcessLRU, "get", _store_hit),
        ("store", InProcessLRU, "put", None),
    ]
    points += [
        ("core", nonlinear_ops, name, None)
        for name in sorted(vars(nonlinear_ops))
        if name.startswith("cpwl_")
    ]
    points += [
        ("systolic", SystolicArray, name, None)
        for name in (
            "gemm_raw", "gemm_raw_batched", "apply_nonlinear_raw",
            "matmul", "apply_nonlinear",
        )
    ]
    for cls in sorted(_subclasses(Module), key=lambda c: (c.__module__, c.__name__)):
        if cls.__module__.startswith(("repro.nn.", "hostbench.")):
            points += [
                ("nn", cls, name, None) for name in _MODEL_METHODS if name in vars(cls)
            ]
    return points


class Tracer:
    """Per-(layer, function) self-time aggregates and layer-to-layer edges.

    ``functions[(layer, name)]`` is ``[calls, self_s, total_s, work]``;
    ``edges[(parent_layer, layer)]`` is ``[calls, seconds]``.  With
    ``raw=True`` every span is also kept as
    ``(id, parent_id, layer, name, start_s, end_s)``.
    """

    def __init__(self, raw: bool = False) -> None:
        self.functions: Dict[Tuple[str, str], List[float]] = {}
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self.spans: Optional[List[tuple]] = [] if raw else None
        self.wall_s = 0.0
        # The innermost open span: [layer, seconds its children took, id].
        # An outer span's values wait in its wrapper's local variables, so
        # the Python call stack is the span stack.
        self._open: List[object] = ["", 0.0, -1]
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable, work) -> Callable:
        stats = self.functions.setdefault((layer, name), [0, 0.0, 0.0, 0])
        edges = self.edges
        spans = self.spans
        ids = self._ids
        is_open = self._open
        clock = perf_counter

        def traced(*args, **kwargs):
            parent_layer, parent_children, parent_id = is_open
            is_open[0] = layer
            is_open[1] = 0.0
            if spans is not None:
                is_open[2] = next(ids)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - is_open[1]
                stats[2] += duration
                edge = edges.get((parent_layer, layer))
                if edge is None:
                    edge = edges[(parent_layer, layer)] = [0, 0.0]
                edge[0] += 1
                edge[1] += duration
                if spans is not None and len(spans) < MAX_RAW_SPANS:
                    spans.append((is_open[2], parent_id, layer, name, start, end))
                is_open[0] = parent_layer
                is_open[1] = parent_children + duration
                is_open[2] = parent_id
            if work is not None:
                stats[3] += work(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every entry point to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith(("repro", "hostbench"))
        ]
        for layer, owner, attr, work in entry_points():
            original = vars(owner)[attr]
            if isinstance(owner, type):
                label, holders = f"{owner.__name__}.{attr}", [owner]
            else:
                label, holders = attr, modules
            wrapper = self._wrap(layer, label, original, work)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self) -> None:
        """Put the identical original objects back."""
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def run_root(self, body: Callable[[], object]):
        """Run ``body`` inside the benchmark's own span and return its result."""
        start = perf_counter()
        try:
            return self._wrap(ROOT_LAYER, "root", body, None)()
        finally:
            self.wall_s += perf_counter() - start

    # -- read side --------------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """``self_s``, ``share`` of the root span and ``calls`` per layer."""
        table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for (layer, _), (calls, self_s, _, _) in self.functions.items():
            table[layer]["self_s"] += self_s
            table[layer]["calls"] += calls
        for row in table.values():
            row["share"] = row["self_s"] / self.wall_s if self.wall_s else 0.0
        return table

    def calls(self, layer: str, *names: str) -> int:
        return sum(self.functions.get((layer, name), [0])[0] for name in names)

    def work(self, layer: str, name: str) -> int:
        return self.functions.get((layer, name), [0, 0, 0, 0])[3]

    def calls_into(self, layer: str) -> int:
        """Calls that enter ``layer`` from another layer."""
        return sum(
            calls for (parent, child), (calls, _) in self.edges.items()
            if child == layer and parent != layer
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "functions": [
                {
                    "layer": layer, "function": name, "calls": calls,
                    "self_s": self_s, "total_s": total_s, "work": work,
                }
                for (layer, name), (calls, self_s, total_s, work) in sorted(
                    self.functions.items()
                )
            ],
            "edges": [
                {"parent": parent, "child": child, "calls": calls, "seconds": seconds}
                for (parent, child), (calls, seconds) in sorted(self.edges.items())
                if parent  # the root span has no parent
            ],
        }
