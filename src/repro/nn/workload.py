"""Workload descriptors: exact op inventories of the evaluated networks.

The performance experiments (Fig. 1, Table IV) need the *op counts and
layer shapes* of ResNet-50, BERT-base and a GCN — not their weights.  A
:class:`Workload` is an ordered list of :class:`GemmOp` and
:class:`NonlinearOp` entries built from the published architectures;
the timing model maps each entry to cycles on a design point, and the
profiler derives the Fig. 1 op mix from the same list.

Composite nonlinearities are charged the number of array events their
CPWL decomposition needs (see :mod:`repro.core.nonlinear_ops`):
ReLU/GELU = 1 MHP pass, softmax = 3 (exp, reciprocal,
scale), layernorm = 4 (square, rsqrt, scale, affine), batchnorm = 1
(folded affine).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.systolic.config import SystolicConfig
from repro.systolic.timing import CycleBreakdown, gemm_cycles, nonlinear_cycles

#: MHP passes per composite nonlinear kind.
MHP_PASSES = {
    "relu": 1,
    "gelu": 1,
    "softmax": 3,
    "layernorm": 4,
    "batchnorm": 1,
    "multiply": 1,
    "add": 1,
}


@dataclass(frozen=True)
class GemmOp:
    """One matrix multiplication ``(M, K) @ (K, N)``, repeated ``count``."""

    m: int
    k: int
    n: int
    count: int = 1
    label: str = "gemm"

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n * self.count


@dataclass(frozen=True)
class NonlinearOp:
    """One elementwise/composite op over an ``(M, N)`` matrix."""

    kind: str
    m: int
    n: int
    count: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in MHP_PASSES:
            raise ValueError(
                f"unknown nonlinear kind {self.kind!r}; known: {sorted(MHP_PASSES)}"
            )

    @property
    def elements(self) -> int:
        return self.m * self.n * self.count

    @property
    def mhp_passes(self) -> int:
        return MHP_PASSES[self.kind]


def op_cycles(op: object, config: SystolicConfig) -> int:
    """Total cycles of one inventory entry: every repetition, every MHP pass."""
    if isinstance(op, GemmOp):
        return gemm_cycles(config, op.m, op.k, op.n).total * op.count
    return nonlinear_cycles(config, op.m, op.n).total * op.mhp_passes * op.count


@dataclass
class Workload:
    """An ordered op inventory for one network inference."""

    name: str
    ops: List[object] = field(default_factory=list)

    def add_gemm(self, m: int, k: int, n: int, count: int = 1, label: str = "gemm"):
        self.ops.append(GemmOp(m, k, n, count, label))
        return self

    def add_nonlinear(self, kind: str, m: int, n: int, count: int = 1, label: str = ""):
        self.ops.append(NonlinearOp(kind, m, n, count, label or kind))
        return self

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def gemm_ops(self) -> List[GemmOp]:
        return [op for op in self.ops if isinstance(op, GemmOp)]

    @property
    def nonlinear_ops(self) -> List[NonlinearOp]:
        return [op for op in self.ops if isinstance(op, NonlinearOp)]

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.gemm_ops)

    @property
    def total_nonlinear_elements(self) -> int:
        return sum(op.elements for op in self.nonlinear_ops)

    def elements_by_kind(self) -> Dict[str, int]:
        """Nonlinear element counts per kind (the Fig. 1 numerators)."""
        out: Dict[str, int] = {}
        for op in self.nonlinear_ops:
            out[op.kind] = out.get(op.kind, 0) + op.elements
        return out

    # ------------------------------------------------------------------
    # Timing on a design point
    # ------------------------------------------------------------------
    def latency_breakdown(self, config: SystolicConfig) -> CycleBreakdown:
        """Total cycles of the whole inference on a design point."""
        total = CycleBreakdown(0, 0, 0, 0)
        for op in self.ops:
            if isinstance(op, GemmOp):
                one = gemm_cycles(config, op.m, op.k, op.n)
                for _ in range(op.count):
                    total = total.merged(one)
            else:
                one = nonlinear_cycles(config, op.m, op.n)
                passes = op.mhp_passes * op.count
                for _ in range(passes):
                    total = total.merged(one)
        return total

    def latency_seconds(self, config: SystolicConfig) -> float:
        return self.latency_breakdown(config).seconds(config.clock_hz)

    def throughput_gops(self, config: SystolicConfig) -> float:
        """Achieved GOPS over the whole inference (the Table IV metric).

        Consistent with the paper's accounting, the op count includes
        both the GEMM MACs and the elementwise work absorbed into MHPs.
        """
        seconds = self.latency_seconds(config)
        ops = self.total_macs + self.total_nonlinear_elements
        return ops / seconds / 1e9 if seconds else 0.0

    def gemm_cycle_share(self, config: SystolicConfig) -> float:
        """Fraction of cycles spent in GEMM (power-model phase weight)."""
        gemm = sum(op_cycles(op, config) for op in self.gemm_ops)
        total = gemm + sum(op_cycles(op, config) for op in self.nonlinear_ops)
        return gemm / total if total else 0.0


# ---------------------------------------------------------------------------
# Published architectures
# ---------------------------------------------------------------------------


def resnet50_workload(image_size: int = 224, n_classes: int = 1000) -> Workload:
    """ResNet-50 (He et al.) inference, batch 1, as im2col GEMMs.

    Stage layout: 7×7/2 stem, max-pool /2, then bottleneck stages
    [3, 4, 6, 3] with base widths 64/128/256/512 and expansion 4.  Each
    conv is followed by batchnorm (folded affine) and, per the
    architecture, a ReLU; residual adds are elementwise adds.
    Total ≈ 2.05 G MACs at 224×224 — double-counted as mul+add this is
    the ~4.1 GOP figure the paper's throughput implies.
    """
    wl = Workload("resnet50")
    spatial = image_size // 2  # stem stride 2
    wl.add_gemm(spatial * spatial, 3 * 7 * 7, 64, label="stem")
    wl.add_nonlinear("batchnorm", spatial * spatial, 64, label="stem.bn")
    wl.add_nonlinear("relu", spatial * spatial, 64, label="stem.relu")
    spatial //= 2  # max-pool

    in_c = 64
    stage_blocks = (3, 4, 6, 3)
    stage_width = (64, 128, 256, 512)
    for stage, (blocks, width) in enumerate(zip(stage_blocks, stage_width)):
        out_c = width * 4
        for block in range(blocks):
            stride = 2 if (block == 0 and stage > 0) else 1
            label = f"s{stage + 1}b{block + 1}"
            # 1x1 reduce
            spatial_out = spatial // stride
            wl.add_gemm(spatial_out * spatial_out, in_c * 1, width, label=f"{label}.c1")
            wl.add_nonlinear("batchnorm", spatial_out * spatial_out, width)
            wl.add_nonlinear("relu", spatial_out * spatial_out, width)
            # 3x3
            wl.add_gemm(
                spatial_out * spatial_out, width * 9, width, label=f"{label}.c2"
            )
            wl.add_nonlinear("batchnorm", spatial_out * spatial_out, width)
            wl.add_nonlinear("relu", spatial_out * spatial_out, width)
            # 1x1 expand
            wl.add_gemm(
                spatial_out * spatial_out, width * 1, out_c, label=f"{label}.c3"
            )
            wl.add_nonlinear("batchnorm", spatial_out * spatial_out, out_c)
            if block == 0:
                # projection shortcut
                wl.add_gemm(
                    spatial_out * spatial_out, in_c * 1, out_c, label=f"{label}.proj"
                )
                wl.add_nonlinear("batchnorm", spatial_out * spatial_out, out_c)
            wl.add_nonlinear("add", spatial_out * spatial_out, out_c)
            wl.add_nonlinear("relu", spatial_out * spatial_out, out_c)
            spatial = spatial_out
            in_c = out_c
    # global average pool is a reduction; classifier + softmax
    wl.add_gemm(1, in_c, n_classes, label="fc")
    wl.add_nonlinear("softmax", 1, n_classes, label="softmax")
    return wl


def _encoder_ops(
    batch: int, rows: int, keys: int, dim: int, heads: int, ff_dim: int, n_layers: int
) -> List[object]:
    """Op inventory of ``n_layers`` encoder layers, each computing
    ``rows`` query rows per sample against ``keys`` key/value rows.

    The one shape every transformer inventory and closed form in this
    module is built from.  The linear projections and the feed-forward
    fold the batch into single ``(batch * rows)``-row GEMMs, while the
    attention matmuls (which keep their full ``keys`` reduction axis)
    and the softmaxes stay per sample and head.  A cold pass over ``T``
    tokens is ``(T, T)``; a pass reusing ``C`` cached rows is
    ``(T - C, T)``; a decode step at cache length ``pos`` is
    ``(1, pos + 1)``.
    """
    flat = batch * rows
    head_dim = dim // heads
    pairs = batch * heads
    ops: List[object] = []
    for layer in range(n_layers):
        tag = f"l{layer}"
        ops += [
            GemmOp(flat, dim, dim, 4, f"{tag}.proj"),
            GemmOp(rows, head_dim, keys, pairs, f"{tag}.scores"),
            NonlinearOp("softmax", rows, keys, pairs, f"{tag}.sm"),
            GemmOp(rows, keys, head_dim, pairs, f"{tag}.ctx"),
            NonlinearOp("add", flat, dim, 2, f"{tag}.res"),
            NonlinearOp("layernorm", flat, dim, 2, f"{tag}.ln"),
            GemmOp(flat, dim, ff_dim, 1, f"{tag}.ff1"),
            NonlinearOp("gelu", flat, ff_dim, 1, f"{tag}.gelu"),
            GemmOp(flat, ff_dim, dim, 1, f"{tag}.ff2"),
        ]
    return ops


def bert_base_workload(seq_len: int = 64) -> Workload:
    """BERT-base (12 layers, hidden 768, heads 12, FF 3072), batch 1.

    The default sequence length of 64 matches the op magnitude implied
    by the paper's Table IV (latency × throughput ≈ 5.5 G ops).
    """
    wl = Workload("bert-base", _encoder_ops(1, seq_len, seq_len, 768, 12, 3072, 12))
    wl.add_gemm(1, 768, 2, label="classifier")
    return wl.add_nonlinear("softmax", 1, 2, label="softmax")


def gcn_workload(
    n_nodes: int = 16384,
    n_features: int = 500,
    hidden: int = 128,
    n_classes: int = 16,
    avg_degree: int = 30,
) -> Workload:
    """Two-layer GCN inference on a graph of the paper's op magnitude.

    Feature transform ``X W`` is a dense GEMM; aggregation
    ``A_hat (X W)`` is charged at the edge count (sparse matmul executed
    as gathered dense rows).  Defaults give ≈1.2 G MACs, matching the
    Table IV implied op count.
    """
    wl = Workload("gcn")
    # Layer 1: transform then aggregate (one gathered row per edge).
    wl.add_gemm(n_nodes, n_features, hidden, label="gc1.transform")
    wl.add_gemm(n_nodes, avg_degree, hidden, label="gc1.aggregate")
    wl.add_nonlinear("relu", n_nodes, hidden, label="gc1.relu")
    # Layer 2.
    wl.add_gemm(n_nodes, hidden, n_classes, label="gc2.transform")
    wl.add_gemm(n_nodes, avg_degree, n_classes, label="gc2.aggregate")
    wl.add_nonlinear("softmax", n_nodes, n_classes, label="softmax")
    return wl


def _traced_cycles(ops: Iterable[object], config: SystolicConfig) -> int:
    """Cycles an ``ArrayBackend`` is charged for ``ops`` — *exactly*.

    Covers precisely the charged operations — the GEMMs and the GELU MHP
    pass (softmax, layernorm, residuals and the embedding/pool stages
    are charged no array cycles) — using the
    same :func:`~repro.systolic.timing.gemm_cycles` /
    :func:`~repro.systolic.timing.nonlinear_cycles` closed forms the
    trace records.
    """
    return sum(
        op_cycles(op, config)
        for op in ops
        if isinstance(op, GemmOp) or op.kind == "gelu"
    )


def transformer_serving_workload(
    batch: int,
    seq_len: int,
    dim: int,
    heads: int,
    ff_dim: int,
    n_layers: int,
    n_classes: int = 2,
) -> Workload:
    """Op inventory of one *batched* encoder inference (serving shapes).

    Mirrors how the serving engine executes a stacked batch (see
    :func:`_encoder_ops`).  Feed it to
    :func:`repro.serving.cluster.workload_cost_model` for closed-form
    cost-aware placement of TinyBERT-family endpoints::

        cost = workload_cost_model(
            lambda b, shape: transformer_serving_workload(b, 8, 8, 2, 16, 1)
        )
        engine.register("bert", model, cost_model=cost)
    """
    wl = Workload(
        "transformer-batch",
        _encoder_ops(batch, seq_len, seq_len, dim, heads, ff_dim, n_layers),
    )
    return wl.add_gemm(batch, dim, n_classes, label="classifier")


def transformer_prefix_workload(
    batch: int,
    seq_len: int,
    prefix_len: int,
    dim: int,
    heads: int,
    ff_dim: int,
    n_layers: int,
    n_classes: int = 2,
) -> Workload:
    """Op inventory of a batched encoder inference with a cached prefix.

    The warm (prefix-hit) serving path only executes the
    ``seq_len - prefix_len`` suffix rows against the full ``seq_len``
    key rows.  The classifier still sees every pooled row (the prefix
    rows come from the cache, not from compute).  Feed to
    :func:`repro.serving.cluster.workload_cost_model` to price hit
    batches for cost-aware placement.
    """
    if not 0 < prefix_len < seq_len:
        raise ValueError(
            f"prefix_len must be in (0, seq_len), got {prefix_len} of {seq_len}"
        )
    wl = Workload(
        "transformer-prefix-hit",
        _encoder_ops(batch, seq_len - prefix_len, seq_len, dim, heads, ff_dim, n_layers),
    )
    return wl.add_gemm(batch, dim, n_classes, label="classifier")


#: Prices :func:`transformer_prefill_cycles` and
#: :func:`transformer_prefix_savings` each keep: a 16-position model at
#: batch <= 8 has 8 x (136 prefill + 15 decode) shapes per design point.
PRICE_CACHE_SIZE = 8192


@functools.lru_cache(maxsize=PRICE_CACHE_SIZE)
def transformer_prefix_savings(
    batch: int,
    seq_len: int,
    prefix_len: int,
    dim: int,
    heads: int,
    ff_dim: int,
    n_layers: int,
    config: SystolicConfig,
) -> int:
    """Traced cycles a prefix hit saves, in closed form — *exactly*.

    The traced cycles (see :func:`_traced_cycles`) of the cold
    inventory minus those of the suffix-only one (the classifier GEMM
    cancels).  The property suite asserts ``cold_total_cycles -
    hit_total_cycles`` equals this value for random shapes and design
    points.
    """
    shape = (dim, heads, ff_dim, n_layers)
    # Built first: it validates ``prefix_len``.
    hit = transformer_prefix_workload(batch, seq_len, prefix_len, *shape)
    if dim % heads:
        raise ValueError(f"heads ({heads}) must divide dim ({dim})")
    cold = transformer_serving_workload(batch, seq_len, *shape)
    return _traced_cycles(cold.ops, config) - _traced_cycles(hit.ops, config)


@functools.lru_cache(maxsize=PRICE_CACHE_SIZE)
def transformer_prefill_cycles(
    batch: int,
    prompt_len: int,
    cached_len: int,
    dim: int,
    heads: int,
    ff_dim: int,
    n_layers: int,
    vocab: int,
    config: SystolicConfig,
) -> int:
    """Traced cycles of a generation *prefill* pass, in closed form.

    Covers exactly the work an ``ArrayBackend`` is charged for in
    ``TinyBERT.prefill``: the un-cached suffix rows against all
    ``prompt_len`` key rows, plus the tied-embedding logits GEMM.
    ``cached_len = 0`` is a cold prefill; ``0 < cached_len <
    prompt_len`` is a radix-cache hit computing only the suffix.
    Memoised: a pure function of its ints and the frozen ``config``.
    """
    if not 0 <= cached_len < prompt_len:
        raise ValueError(
            f"cached_len must be in [0, prompt_len), got {cached_len} of {prompt_len}"
        )
    if dim % heads:
        raise ValueError(f"heads ({heads}) must divide dim ({dim})")
    ops = _encoder_ops(
        batch, prompt_len - cached_len, prompt_len, dim, heads, ff_dim, n_layers
    )
    return _traced_cycles(ops + [GemmOp(batch, dim, vocab)], config)


def transformer_decode_step_cycles(
    batch: int,
    position: int,
    dim: int,
    heads: int,
    ff_dim: int,
    n_layers: int,
    vocab: int,
    config: SystolicConfig,
) -> int:
    """Traced cycles of one batched decode step, in closed form.

    ``position`` is the K/V cache length *before* the step (the global
    position of the token being fed), so each layer runs one query row
    against ``position + 1`` key/value rows: a prefill of
    ``position + 1`` tokens with ``position`` of them cached.  The
    generation test suite asserts per-step traced-cycle deltas equal
    this value exactly.
    """
    if position < 1:
        raise ValueError(f"position must be >= 1 (post-prefill), got {position}")
    return transformer_prefill_cycles(
        batch, position + 1, position, dim, heads, ff_dim, n_layers, vocab, config
    )


#: Registry used by the comparison and profiling experiments.
def paper_workloads() -> Dict[str, Workload]:
    """The three Table IV workloads with the paper's evaluation shapes."""
    return {
        "resnet50": resnet50_workload(),
        "bert-base": bert_base_workload(),
        "gcn": gcn_workload(),
    }
