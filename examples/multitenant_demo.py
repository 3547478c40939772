"""Multi-tenant serving: two tenants, different shares, per-tenant SLOs.

Serves the same TinyBERT endpoint to a premium tenant ("gold",
weight 3, strict-priority rank 10, 2 ms latency SLO) and a best-effort
tenant ("free", weight 1, rank 0, 10 ms SLO) contending for one
SystolicArray shard.  Shows weighted-round-robin arbitration shaping
per-tenant latency, the per-tenant SLO section of the serving report,
the lossless per-tenant cycle attribution folded from the placements,
and the same burst replayed under the strict-priority policy.

    python examples/multitenant_demo.py
"""

import numpy as np

from repro.nn.models import TinyBERT
from repro.serving import InferenceEngine, ClusterDispatcher
from repro.systolic import SystolicArray, SystolicConfig

GRANULARITY = 0.25


def build_engine(policy: str) -> InferenceEngine:
    config = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
    pool = ClusterDispatcher.from_arrays([SystolicArray(config)], GRANULARITY)
    engine = InferenceEngine(
        pool, max_batch_size=2, flush_timeout=1e-4, policy=policy
    )
    engine.register(
        "bert", TinyBERT(vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1)
    )
    engine.register_tenant("gold", weight=3.0, priority=10, slo_latency=2e-3)
    engine.register_tenant("free", weight=1.0, priority=0, slo_latency=10e-3)
    return engine


def serve_burst(engine: InferenceEngine, tokens: np.ndarray):
    """Same-instant burst: even rows are gold traffic, odd rows free."""
    ids = {}
    for i, row in enumerate(tokens):
        tenant = "gold" if i % 2 == 0 else "free"
        ids[engine.submit("bert", row, tenant=tenant)] = tenant
    return ids, engine.run()


def main() -> None:
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 16, size=(12, 8))

    # -- weighted round-robin: shares shape latency ----------------------
    engine = build_engine("weighted_round_robin")
    ids, report = serve_burst(engine, tokens)
    print("=== weighted_round_robin (gold weight 3 : free weight 1) ===")
    print(report.summary())  # multi-tenant summaries embed the SLO section

    gold_mean = report.tenant_latencies("gold").mean()
    free_mean = report.tenant_latencies("free").mean()
    print(
        f"\nmean latency gold {gold_mean * 1e6:,.1f} us vs "
        f"free {free_mean * 1e6:,.1f} us "
        f"(weight 3 buys the premium tenant earlier slots)"
    )
    attributed = sum(report.tenant_cycles.values())
    print(
        f"cycle attribution: {report.tenant_cycles} "
        f"sums to {attributed:,} == engine total {report.total_cycles:,}"
    )
    for request_id in ids:
        engine.result(request_id)  # hand outputs over (released once)

    # -- strict priority: the premium tenant always runs first -----------
    engine = build_engine("strict_priority")
    _, report = serve_burst(engine, tokens)
    print("\n=== strict_priority (gold rank 10 > free rank 0) ===")
    order = [
        (c.request.tenant, c.batch_index)
        for c in sorted(report.completed, key=lambda c: (c.start, c.batch_index))
    ]
    print("execution order:", " -> ".join(t for t, _ in order))
    print("\nPer-tenant SLO section:")
    print(report.slo_section())


if __name__ == "__main__":
    main()
