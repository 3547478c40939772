"""The benchmark's own checks (collected by the tier-1 suite)."""

import json
import sys

import numpy as np
import pytest

from hostbench import compare
from hostbench.run import ROOT, load_spec, main
from hostbench.tracing import LAYERS, Tracer, entry_points
from hostbench.workloads import WORKLOADS

SPEC = load_spec()


def _run(tmp_path, capsys, *argv):
    out = tmp_path / "result.json"
    status = main([*argv, "--scale", "0.01", "--seconds", "0.2", "--out", str(out)])
    last = json.loads(capsys.readouterr().out.rstrip().rsplit("\n", 1)[-1])
    return status, last, json.loads(out.read_text())


def test_untraced_run_prints_the_declared_end_to_end_metrics(tmp_path, capsys):
    status, last, result = _run(
        tmp_path, capsys, "--workload", "admission_flood", "--trace", "0"
    )
    assert status == 0 and last["correct"] and last["failed"] == 0
    assert last["attempted"] == 500
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in last["metrics"].values())
    run = result["workloads"]["admission_flood"]["untraced"]
    assert run["verified"] == 64 and run["mismatches"] == 0
    assert len(run["end_to_end"]["setup_s"]["samples"]) == 3


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_attributes_the_whole_repetition(tmp_path, capsys, workload):
    status, last, result = _run(tmp_path, capsys, "--workload", workload, "--trace", "1")
    assert status == 0 and last["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    shares = sum(last["metrics"][f"{layer}.share"]["value"] for layer in LAYERS)
    assert shares == pytest.approx(1.0, abs=0.02)
    assert last["metrics"]["trace.attributed_share"]["value"] == pytest.approx(
        1.0, abs=0.02
    )
    trace = result["workloads"][workload]["traced"]["trace"]
    assert trace["spans"] and trace["functions"] and trace["edges"]
    assert last["metrics"]["fixedpoint.quantize_calls"]["value"] > 0


def test_workload_names_and_bounds_are_the_declared_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["hostbench"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_restore_puts_the_identical_objects_back():
    def snapshot():
        holders = [
            module for name, module in sys.modules.items()
            if module is not None and name.startswith(("repro", "hostbench"))
        ] + [owner for _, owner, _, _ in entry_points() if isinstance(owner, type)]
        return {
            (id(holder), key): value
            for holder in holders
            for key, value in vars(holder).items()
        }

    import repro.nn.executor as executor
    from repro.fixedpoint import quantize

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert executor.quantize is not quantize
        assert executor.quantize.__wrapped__ is quantize
    finally:
        tracer.restore()
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_verification_catches_a_corrupted_output():
    workload = WORKLOADS["classify_bursty"](seed=3, scale=0.01)
    report = workload.repetition()
    assert workload.verify(report, np.random.default_rng(0)) == (64, 0)
    for record in report.completed:
        record.outputs[...] += 1.0
    checked, mismatches = workload.verify(report, np.random.default_rng(0))
    assert mismatches == checked == 64


def _result(host_rps):
    def stat(value):
        return {"value": value, "unit": "", "samples": [value * f for f in (0.99, 1.0, 1.01)]}

    run = {
        "end_to_end": {m["name"]: stat(1.0) for m in SPEC["end_to_end"]},
        "sim": {"fingerprint": "0" * 64},
    }
    run["end_to_end"]["host_rps"] = stat(host_rps)
    return {"seed": 0, "scale": 0.2, "workloads": {"classify_bursty": {"untraced": run}}}


@pytest.mark.parametrize(
    "slowdown, verdict, status",
    [(1.3, "worse", 1), (1.05, "within bound", 0), (0.7, "better", 0)],
)
def test_compare_judges_against_the_bound(tmp_path, capsys, slowdown, verdict, status):
    base, change = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(_result(1000.0)))
    change.write_text(json.dumps(_result(1000.0 / slowdown)))
    assert compare.main(["compare", str(base), str(change)]) == status
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    (row,) = [row for row in rows if row[1] == "host_rps"]
    assert " ".join(row[4:]) == verdict


def test_compare_reports_a_wide_spread_as_unresolved():
    noisy = {"value": 1.0, "samples": [0.5, 1.0, 1.5, 2.0]}
    steady = {"value": 1.2, "samples": [1.2, 1.2, 1.2, 1.2]}
    assert compare.classify(noisy, steady, "lower", 0.1) == "unresolved"
    assert compare.classify(steady, noisy, "lower", 0.1) == "unresolved"
    faster = {"value": 0.3, "samples": [0.3, 0.3, 0.4]}
    assert compare.classify(noisy, faster, "lower", 0.1) == "better"


def test_benchmark_json_names_only_files_under_paths():
    assert SPEC["command"] == ["python3", "-m", "hostbench"]
    assert (ROOT / "hostbench" / "out" / ".gitignore").is_file()
