"""Workload descriptor and profiler tests (Fig. 1 / Table IV substrate)."""

import numpy as np
import pytest

from repro.nn.profiler import ARRAY_COST_WEIGHTS, CPU_COST_WEIGHTS, op_mix
from repro.nn.workload import (
    GemmOp,
    NonlinearOp,
    Workload,
    bert_base_workload,
    gcn_workload,
    paper_workloads,
    resnet50_workload,
)
from repro.systolic.config import ONE_SA_PAPER_CONFIG


class TestOps:
    def test_gemm_macs(self):
        assert GemmOp(2, 3, 4, count=5).macs == 120

    def test_nonlinear_elements_and_passes(self):
        op = NonlinearOp("softmax", 4, 8, count=2)
        assert op.elements == 64
        assert op.mhp_passes == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NonlinearOp("fft", 4, 4)

    def test_workload_builders_chain(self):
        wl = Workload("t").add_gemm(2, 2, 2).add_nonlinear("relu", 2, 2)
        assert wl.total_macs == 8
        assert wl.total_nonlinear_elements == 4


class TestPublishedWorkloads:
    def test_resnet50_mac_count(self):
        """ResNet-50 at 224x224 is ~4.1 G MACs (torchvision's count),
        matching the ~4 G ops Table IV's CPU row implies."""
        wl = resnet50_workload()
        assert 3.5e9 < wl.total_macs < 4.3e9

    def test_resnet50_op_kinds(self):
        kinds = set(resnet50_workload().elements_by_kind())
        assert {"batchnorm", "relu", "softmax", "add"} <= kinds

    def test_bert_base_mac_count(self):
        """BERT-base at seq 64: the paper's implied ~5.5 G ops."""
        wl = bert_base_workload()
        assert 5.0e9 < wl.total_macs < 6.0e9

    def test_bert_op_kinds(self):
        kinds = set(bert_base_workload().elements_by_kind())
        assert {"softmax", "layernorm", "gelu", "add"} <= kinds

    def test_bert_scales_with_sequence(self):
        assert bert_base_workload(128).total_macs > bert_base_workload(64).total_macs

    def test_gcn_mac_count(self):
        """GCN sized to the paper's implied ~1.2 G ops."""
        wl = gcn_workload()
        assert 0.9e9 < wl.total_macs < 1.5e9

    def test_paper_workloads_registry(self):
        wls = paper_workloads()
        assert set(wls) == {"resnet50", "bert-base", "gcn"}


class TestWorkloadTiming:
    def test_latency_positive_and_sane(self):
        cfg = ONE_SA_PAPER_CONFIG
        for wl in paper_workloads().values():
            latency = wl.latency_seconds(cfg)
            assert 1e-3 < latency < 1.0  # ms to sub-second range

    def test_throughput_below_peak(self):
        from repro.systolic.timing import peak_gops

        cfg = ONE_SA_PAPER_CONFIG
        for wl in paper_workloads().values():
            # Elementwise ops inflate the op count slightly, so allow
            # a small margin above the pure-GEMM peak.
            assert wl.throughput_gops(cfg) < 1.1 * peak_gops(cfg)

    def test_gemm_cycle_share_dominates(self):
        cfg = ONE_SA_PAPER_CONFIG
        for wl in paper_workloads().values():
            share = wl.gemm_cycle_share(cfg)
            assert 0.5 < share <= 1.0

    def test_latency_improves_with_macs(self):
        wl = bert_base_workload()
        fast = wl.latency_seconds(ONE_SA_PAPER_CONFIG)
        slow = wl.latency_seconds(ONE_SA_PAPER_CONFIG.with_size(8, 4))
        assert fast < slow


class TestProfiler:
    def test_mix_sums_to_one(self):
        for wl in paper_workloads().values():
            assert sum(op_mix(wl).values()) == pytest.approx(1.0)

    def test_fig1a_resnet_shape(self):
        """Fig. 1(a): GEMM ~72%, batchnorm ~21%, relu ~5% for the
        CIFAR-sized ResNet."""
        mix = op_mix(resnet50_workload(image_size=32))
        assert 0.65 < mix["gemm"] < 0.80
        assert 0.15 < mix["batchnorm"] < 0.28
        assert 0.02 < mix["relu"] < 0.08
        assert mix["batchnorm"] > mix["relu"] > mix["softmax"]

    def test_fig1b_bert_shape(self):
        """Fig. 1(b): GEMM ~82%, GELU largest nonlinear, then
        layernorm, then softmax."""
        mix = op_mix(bert_base_workload())
        assert 0.78 < mix["gemm"] < 0.92
        assert mix["gelu"] > mix["layernorm"] > mix["softmax"]
        assert 0.03 < mix["gelu"] < 0.10

    def test_array_view_collapses_nonlinear(self):
        """On ONE-SA the nonlinear share collapses to MHP passes."""
        cpu = op_mix(resnet50_workload(image_size=32), CPU_COST_WEIGHTS)
        arr = op_mix(resnet50_workload(image_size=32), ARRAY_COST_WEIGHTS)
        assert arr["gemm"] > cpu["gemm"]
        assert arr["batchnorm"] < cpu["batchnorm"]
