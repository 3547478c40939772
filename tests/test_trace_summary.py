"""Trace bookkeeping and run-everything summary tests."""

import numpy as np

from repro.evaluation.summary import QUICK_TASKS, full_report
from repro.systolic.timing import CycleBreakdown
from repro.systolic.trace import Trace, TraceEvent


class TestTrace:
    def make_trace(self):
        trace = Trace()
        trace.record(TraceEvent("gemm", "layer1", cycles=100, ops=1000))
        trace.record(TraceEvent("gemm", "layer2", cycles=50, ops=600))
        trace.record(TraceEvent("mhp", "layer1.gelu", cycles=25, ops=64))
        return trace

    def test_total_cycles(self):
        assert self.make_trace().total_cycles == 175

    def test_cycles_by_kind(self):
        by = self.make_trace().cycles_by_kind()
        assert by == {"gemm": 150, "mhp": 25}

    def test_ops_by_kind(self):
        by = self.make_trace().ops_by_kind()
        assert by == {"gemm": 1600, "mhp": 64}

    def test_cycles_by_label(self):
        by = self.make_trace().cycles_by_label()
        assert by["layer1"] == 100
        assert by["layer1.gelu"] == 25

    def test_clear_and_len(self):
        trace = self.make_trace()
        assert len(trace) == 3
        trace.clear()
        assert len(trace) == 0
        assert trace.total_cycles == 0

    def test_event_with_breakdown(self):
        bd = CycleBreakdown(fill=1, compute=2, drain=3)
        event = TraceEvent("gemm", "x", cycles=bd.total, ops=1, breakdown=bd)
        assert event.cycles == 6

    def test_record_count_equals_repeated_record(self):
        """``record(event, count=n)`` leaves every aggregate exactly as
        ``n`` single calls do."""
        event = TraceEvent("gemm", "attn", cycles=7, ops=30)
        other = TraceEvent("mhp", "attn.gelu", cycles=3, ops=8)
        looped, counted = Trace(), Trace()
        for trace, batched in ((looped, False), (counted, True)):
            trace.record(other)
            if batched:
                trace.record(event, count=6)
            else:
                for _ in range(6):
                    trace.record(event)
            trace.record(event, count=1)
        assert vars(counted) == vars(looped)
        assert len(counted) == 8 and counted.total_cycles == 3 + 7 * 7
        assert counted.cycles_by_label() == {"attn.gelu": 3, "attn": 7 * 7}


class TestSummary:
    def test_quick_report_contains_all_artifacts(self):
        report = full_report(quick=True)
        expected = {
            "fig1",
            "table1",
            "table2",
            "table3",
            "fig8_linear",
            "fig8_nonlinear",
            "fig8_cliff",
            "table4",
            "table5",
        }
        assert set(report) == expected
        # Every artifact is non-trivial text.
        assert all(len(text) > 20 for text in report.values())

    def test_quick_table3_covers_three_families(self):
        report = full_report(quick=True)
        for task in QUICK_TASKS:
            assert task in report["table3"]

    def test_cliff_sentence_mentions_paper_number(self):
        report = full_report(quick=True)
        assert "84.8%" in report["fig8_cliff"]
