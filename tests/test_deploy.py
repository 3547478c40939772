"""One path from deployment-as-data to a running engine.

``repro.serving.deploy`` holds the one endpoint-by-construction class,
the one engine assembler and the one child-process fan-out; the fleet
front (``serve_multiproc``) and the replay front (``replay_trace``) are
both clients of it.  These tests pin what that buys:

* the two fronts, given the same deployment and the same traffic, run
  the same engine — equal report fingerprints, including under a
  closed-form cost model a fleet worker could not hold before;
* the fan-out collects *every* child before its caller judges any, so a
  dead child never strands a live one blocked in ``send``;
* an option the engine does not know fails in the front's process, not
  as a dead worker.
"""

import dataclasses
import multiprocessing

import pytest

from repro.autotune import (
    EndpointProfile,
    TuningConfig,
    replay_trace,
    report_fingerprint,
    synthesize_trace,
)
from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterSpec,
    EndpointSpec,
    TenantConfig,
    WorkloadCostSpec,
    serve_multiproc,
)
from repro.serving.deploy import fan_out
from repro.systolic import SystolicConfig

BIG = SystolicConfig(pe_rows=8, pe_cols=8, macs_per_pe=16, clock_hz=250e6)
MID = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)
SLOW = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=100e6)
ENDPOINT = EndpointSpec(
    name="bert",
    factory=TinyBERT,
    kwargs=dict(
        vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
        causal=False, seed=0,
    ),
    cost=WorkloadCostSpec(seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1),
)


def test_replay_and_fleet_front_run_the_same_engine():
    n = 200
    trace = synthesize_trace(
        "bursty", (EndpointProfile("bert", seq_len=8, vocab=16),), n, n * 1e-6,
        0, "bursty", tenants=("tenant-a", "tenant-b"), deadline_slack=1e-3,
    )
    tuning = TuningConfig(
        pool=(BIG, MID, SLOW), placement="cost_aware",
        max_batch_size=4, flush_timeout=1e-4,
    )

    def fleet(endpoint):
        return serve_multiproc(
            ClusterSpec.heterogeneous(tuning.pool),
            [endpoint],
            trace.requests,
            n_workers=1,
            placement="cost_aware",
            max_batch_size=4,
            flush_timeout=1e-4,
            tenants=[TenantConfig(tenant) for tenant in trace.tenants],
        ).merged

    served = fleet(ENDPOINT)
    assert served.n_requests == n
    assert report_fingerprint(served) == report_fingerprint(
        replay_trace(trace, tuning, (ENDPOINT,))
    )
    # The worker priced batches with the closed form it was handed, not
    # with the calibrator's fallback: without it the run is another run.
    unpriced = dataclasses.replace(ENDPOINT, cost=None)
    assert report_fingerprint(fleet(unpriced)) != report_fingerprint(served)


def _die_or_deliver(index, size):
    if index == 0:
        raise RuntimeError("this child dies before sending")
    return bytes(size)


def test_fan_out_collects_every_child_before_its_caller_judges_any():
    # Far past any pipe buffer: the second child blocks in ``send``
    # until the parent reads, whatever became of the first.
    size = 4 << 20
    (first, first_code), (second, second_code) = fan_out(
        _die_or_deliver, [(0, size), (1, size)]
    )
    assert first is None and first_code != 0
    assert second == bytes(size) and second_code == 0
    assert multiprocessing.active_children() == []


def test_unknown_option_fails_in_the_front_not_in_a_worker():
    with pytest.raises(TypeError, match="max_batch"):
        serve_multiproc(
            ClusterSpec.homogeneous(MID, 2), [ENDPOINT], [], n_workers=2,
            max_batch=4,
        )
    # The caches are the assembler's decision; the fault plan and the
    # fabric are the front's (``fault_plan=`` / ``store_root=``).
    for owned in ("prefix_cache", "faults", "fabric"):
        with pytest.raises(TypeError, match=owned):
            serve_multiproc(
                ClusterSpec.homogeneous(MID, 2), [ENDPOINT], [], n_workers=2,
                **{owned: None},
            )
    assert multiprocessing.active_children() == []
