"""Multi-worker serving: partitioning, merged-report invariants, the
shared cache fabric, and bit-identity against single-engine serving.

The merge invariants are exact, not approximate: summed tenant cycles,
shard cycles and shed counts of the per-worker reports equal the
merged report's, and worker-local shard indices map injectively onto
the declared cluster's numbering.  The fabric tests run workers
*sequentially in-process* (two `_worker_main` calls over one store
root) so cross-process reuse is observable deterministically: the
second worker's first prompt lookup must be a fabric hit, and its
calibrator must start from the first worker's observations.
"""

import numpy as np
import pytest

from repro.autotune import report_fingerprint
from repro.nn.models import TinyBERT
from repro.serving import (
    CALIBRATION_NAMESPACE,
    ClusterSpec,
    EndpointSpec,
    InferenceEngine,
    RadixKVCache,
    ServingReport,
    TransformerPrefixAdapter,
    merge_reports,
    partition_cluster,
    serve_multiproc,
)
from repro.serving.multiproc import WorkerConfig, _worker_main
from repro.serving.request import describe_request, resolve_arrivals
from repro.store import FileStore
from repro.systolic import SystolicConfig

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
MODEL_KWARGS = dict(
    vocab=16, seq_len=8, dim=8, heads=2, ff_dim=16, n_layers=1,
    causal=True, seed=0,
)
PREFIX_LEN = 5


def _model_spec():
    return EndpointSpec(
        name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS, prefix_len=PREFIX_LEN
    )


def _requests(n, seed=0, shared_prefix=True):
    """Arrival-sorted request dicts with (optionally) one shared prompt."""
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, 16, size=PREFIX_LEN)
    requests = []
    for i in range(n):
        if shared_prefix:
            tokens = np.concatenate(
                [prefix, rng.integers(0, 16, size=8 - PREFIX_LEN)]
            )
        else:
            tokens = rng.integers(0, 16, size=8)
        requests.append(
            {"model": "bert", "inputs": tokens, "arrival": i * 1e-5}
        )
    return requests


class TestPartitioning:
    def test_even_split(self):
        cluster = ClusterSpec.homogeneous(CONFIG, 4)
        parts = partition_cluster(cluster, 2)
        assert [p.n_shards for p in parts] == [2, 2]

    def test_uneven_split_larger_blocks_first(self):
        cluster = ClusterSpec.homogeneous(CONFIG, 5)
        parts = partition_cluster(cluster, 3)
        assert [p.n_shards for p in parts] == [2, 2, 1]

    def test_partitions_preserve_shard_order(self):
        small = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4)
        cluster = ClusterSpec.heterogeneous([CONFIG, small, CONFIG, small])
        parts = partition_cluster(cluster, 2)
        assert parts[0].shards == cluster.shards[:2]
        assert parts[1].shards == cluster.shards[2:]

    def test_too_many_workers_rejected(self):
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        with pytest.raises(ValueError, match="at least one shard"):
            partition_cluster(cluster, 3)
        with pytest.raises(ValueError, match="n_workers"):
            partition_cluster(cluster, 0)


class TestWorkerMain:
    def test_sequential_workers_share_prefix_fabric(self, tmp_path):
        root = str(tmp_path / "fabric")
        requests = _requests(4)
        base = WorkerConfig(
            index=0,
            cluster=ClusterSpec.homogeneous(CONFIG, 1),
            models=(_model_spec(),),
            requests=tuple(requests),
            store_root=root,
        )
        first = _worker_main(base)
        assert first.prefix_misses >= 1  # cold: computed and written through

        second = _worker_main(base)
        # The second worker's store is fresh, so a local hit is
        # impossible — its prompt must come off the shared fabric.
        assert second.prefix_misses == 0
        assert second.prefix_hits >= 1

    def test_sequential_workers_share_calibration(self, tmp_path):
        root = str(tmp_path / "fabric")
        config = WorkerConfig(
            index=0,
            cluster=ClusterSpec.homogeneous(CONFIG, 1),
            models=(_model_spec(),),
            requests=tuple(_requests(4)),
            store_root=root,
        )
        _worker_main(config)
        fabric = FileStore(root)
        state = fabric.get(CALIBRATION_NAMESPACE, "default")
        assert state is not None
        assert state["observations"]  # the run's traced batches persisted

    def test_worker_without_fabric_runs_isolated(self):
        config = WorkerConfig(
            index=0,
            cluster=ClusterSpec.homogeneous(CONFIG, 1),
            models=(_model_spec(),),
            requests=tuple(_requests(3)),
        )
        report = _worker_main(config)
        assert report.n_requests == 3
        assert report.prefix_hits + report.prefix_misses >= 1


class TestServeMultiproc:
    def test_single_worker_path_runs_in_process(self, tmp_path):
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        result = serve_multiproc(
            cluster,
            [_model_spec()],
            _requests(6),
            n_workers=1,
            store_root=str(tmp_path / "fabric"),
        )
        assert len(result.reports) == 1
        assert result.merged.n_requests == 6

    def test_two_workers_merge_invariants_exact(self, tmp_path):
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        requests = _requests(8)
        result = serve_multiproc(
            cluster,
            [_model_spec()],
            requests,
            n_workers=2,
            store_root=str(tmp_path / "fabric"),
        )
        merged, reports = result.merged, result.reports
        assert merged.n_requests == sum(r.n_requests for r in reports) == 8

        # tenant_cycles sum exactly.
        expected = {}
        for report in reports:
            for tenant, cycles in report.tenant_cycles.items():
                expected[tenant] = expected.get(tenant, 0) + cycles
        assert merged.tenant_cycles == expected
        assert merged.total_cycles == sum(r.total_cycles for r in reports)

        # Shard indices remap injectively onto the cluster numbering.
        assert set(merged.shard_cycles) <= set(range(cluster.n_shards))
        assert merged.shed_count == sum(r.shed_count for r in reports)
        assert len(merged.prefix_events) == sum(
            len(r.prefix_events) for r in reports
        )
        assert merged.wall_seconds == max(r.wall_seconds for r in reports)
        # Per-worker cache namespaces stay distinguishable.
        assert any(name.startswith("worker0/") for name in merged.cache_stats)
        assert any(name.startswith("worker1/") for name in merged.cache_stats)

    def test_multiproc_outputs_bit_identical_to_single_engine(self, tmp_path):
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        requests = _requests(8, shared_prefix=True)
        result = serve_multiproc(
            cluster,
            [_model_spec()],
            requests,
            n_workers=2,
            store_root=str(tmp_path / "fabric"),
        )

        model = TinyBERT(**MODEL_KWARGS)
        engine = InferenceEngine(
            ClusterSpec.homogeneous(CONFIG, 2).build(),
            radix_cache=RadixKVCache(),
        )
        engine.register(
            "bert", model, prefix_adapter=TransformerPrefixAdapter(model, PREFIX_LEN)
        )
        engine.enqueue(requests)
        reference = engine.run()

        def outputs_by_input(report):
            return {
                record.request.inputs.tobytes(): record.outputs
                for record in report.completed
            }

        expected = outputs_by_input(reference)
        actual = outputs_by_input(result.merged)
        assert set(actual) == set(expected)
        for key, outputs in actual.items():
            np.testing.assert_array_equal(outputs, expected[key])

    def test_fabric_holds_no_plans_or_approximators(self, tmp_path):
        """Plans and approximators are memoised per process, never written
        to the fabric; the fleet's report is the in-process run's."""
        root = tmp_path / "fabric"
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        spec = EndpointSpec(name="bert", factory=TinyBERT, kwargs=MODEL_KWARGS)
        requests = _requests(8)
        fleet = serve_multiproc(
            cluster, [spec], requests, n_workers=2, store_root=str(root)
        )
        assert [path.name for path in root.iterdir()] == [CALIBRATION_NAMESPACE]

        parts = partition_cluster(cluster, 2)
        described = resolve_arrivals(map(describe_request, requests))
        in_process = merge_reports(
            [
                _worker_main(WorkerConfig(
                    index=worker, cluster=parts[worker], models=(spec,),
                    requests=tuple(described[worker::2]),
                ))
                for worker in range(2)
            ],
            parts,
        )
        assert report_fingerprint(fleet.merged) == report_fingerprint(in_process)

    def test_merge_reports_length_mismatch_rejected(self):
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        parts = partition_cluster(cluster, 2)
        with pytest.raises(ValueError, match="reports"):
            merge_reports([], parts)
        with pytest.raises(ValueError, match="offsets"):
            merge_reports(
                [ServingReport(completed=(), shard_cycles={}, wall_seconds=0.0)]
                * 2,
                parts,
                offsets=[0],
            )


class TestMergeEdgeCases:
    def _run_worker(self, requests, n_shards=1):
        config = WorkerConfig(
            index=0,
            cluster=ClusterSpec.homogeneous(CONFIG, n_shards),
            models=(_model_spec(),),
            requests=tuple(requests),
        )
        return _worker_main(config)

    def test_worker_with_zero_completed_requests(self):
        # An idle worker (no requests routed to it) must merge as a
        # clean zero, not poison counters or throughput.
        busy = self._run_worker(_requests(4))
        idle = self._run_worker(())
        assert idle.n_requests == 0
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        parts = partition_cluster(cluster, 2)
        merged = merge_reports([busy, idle], parts)
        assert merged.n_requests == busy.n_requests
        assert merged.total_cycles == busy.total_cycles
        assert merged.throughput_rps == busy.throughput_rps
        # The idle worker's shard appears only through its (zero) busy
        # account, never with phantom cycles.
        assert 1 not in merged.shard_cycles or merged.shard_cycles[1] == 0

    def test_disjoint_cache_namespaces_stay_disjoint(self):
        # Workers touching non-overlapping cache namespaces must not
        # have stats invented for each other under the worker prefix.
        first = self._run_worker(_requests(2))
        second = self._run_worker(_requests(2, shared_prefix=False))
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        parts = partition_cluster(cluster, 2)
        merged = merge_reports([first, second], parts)
        for worker, report in enumerate((first, second)):
            qualified = {
                name
                for name in merged.cache_stats
                if name.startswith(f"worker{worker}/")
            }
            assert qualified == {
                f"worker{worker}/{name}" for name in report.cache_stats
            }

    def test_explicit_offsets_map_onto_donor_block(self):
        # The redistribution path of the supervisor: two reports over
        # the *same* physical block merge onto shared shard ids, with
        # per-shard counters summed — not onto phantom shards.
        first = self._run_worker(_requests(4))
        second = self._run_worker(_requests(4, seed=1))
        cluster = ClusterSpec.homogeneous(CONFIG, 2)
        parts = partition_cluster(cluster, 2)
        merged = merge_reports([first, second], parts, offsets=[0, 0])
        assert set(merged.shard_cycles) == {0}
        assert merged.shard_cycles[0] == (
            first.shard_cycles[0] + second.shard_cycles[0]
        )
        assert merged.shard_busy[0] == pytest.approx(
            first.shard_busy[0] + second.shard_busy[0]
        )
        assert all(c.shard == 0 for c in merged.completed)
