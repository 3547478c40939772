"""Command line of the benchmark: spawn the measurement processes, aggregate.

    python3 -m hostbench --workload NAME --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json`` names; without ``--workload`` every
workload runs, and without ``--trace`` both the untraced and the traced
run.  Metric names, units and bounds are read from ``BENCHMARK.json``,
so what is printed cannot drift from what is declared.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: An untraced run sets up this many times, in as many processes, and
#: splits its measuring time among them.
PROCESSES = 3
CHILD_TIMEOUT_S = 170
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Duration of the calibration kernel (``child.make_calibration``) on
#: this 2-core box when nothing disturbs it; host metrics are stated at
#: that machine speed.
CALIB_REFERENCE_MS = 25.0
#: Traced numbers are flagged beyond these.
MAX_TRACE_OVERHEAD = 0.25
ATTRIBUTION_TOLERANCE = 0.02


def load_spec() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(
    workload: str, seed: int, scale: float, seconds: float,
    verify: bool = False, trace: bool = False,
) -> Dict:
    """Run one measurement process to its end and return its result."""
    env = dict(os.environ)
    for pin in BLAS_PINS:
        env[pin] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    spec = dict(
        workload=workload, seed=seed, scale=scale, seconds=seconds,
        verify=verify, trace=trace, spawned_at=time.time(),
    )
    done = subprocess.run(
        [sys.executable, "-m", "hostbench.child", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def _stat(samples: List[float], unit: str) -> Dict[str, object]:
    return {"value": statistics.median(samples), "unit": unit, "samples": samples}


def at_reference_speed(seconds: float, calib_ms: float) -> float:
    """A duration as it would read with the machine at its reference speed.

    This box slows down by up to a third for tens of seconds at a time
    (neighbours on the host), which no statistic over one run removes.
    The calibration kernel timed next to each measurement is slowed with
    it, so scaling by ``CALIB_REFERENCE_MS / calib_ms`` takes the
    machine's state out and leaves the program's cost.
    """
    return seconds * CALIB_REFERENCE_MS / calib_ms


def sim_consistent(sims: List[Dict]) -> bool:
    """The simulator's clock must read the same in every repetition."""
    return all(sim == sims[0] for sim in sims)


def untraced_run(workload, seed, scale, seconds, units) -> Dict[str, object]:
    """End-to-end metrics: ``PROCESSES`` set-ups, wrappers absent."""
    children = [
        spawn(
            workload, seed, scale, seconds / PROCESSES,
            verify=(index == PROCESSES - 1),
        )
        for index in range(PROCESSES)
    ]
    repetitions = [rep for child in children for rep in child["repetitions"]]
    sims = [rep["sim"] for rep in repetitions]
    sim = sims[0]
    last = children[-1]
    end_to_end = {
        "setup_s": _stat(
            [
                at_reference_speed(child["setup_s"], child["setup_calib_ms"])
                for child in children
            ],
            units["setup_s"],
        ),
        "host_rps": _stat(
            [
                last["n_requests"] / at_reference_speed(rep["wall_s"], rep["calib_ms"])
                for rep in repetitions
            ],
            units["host_rps"],
        ),
        "peak_rss_mb": _stat(
            [child["peak_rss_mb"] for child in children], units["peak_rss_mb"]
        ),
        "sim_cycles_per_request": _stat(
            [sim["sim_cycles"] / sim["completed"]], units["sim_cycles_per_request"]
        ),
        "approx_err": _stat([last["approx_err"]], units["approx_err"]),
    }
    consistent = sim_consistent(sims)
    return {
        "correct": consistent and last["mismatches"] == 0,
        "attempted": sim["sent"],
        "failed": sim["failed"] + last["mismatches"] + (0 if consistent else 1),
        "end_to_end": end_to_end,
        "sim": sim,
        "repetitions": [
            [
                {"wall_s": rep["wall_s"], "calib_ms": rep["calib_ms"]}
                for rep in child["repetitions"]
            ]
            for child in children
        ],
        "setups": [
            {"setup_s": child["setup_s"], "calib_ms": child["setup_calib_ms"]}
            for child in children
        ],
        "verified": last["verified"],
        "mismatches": last["mismatches"],
    }


def traced_run(workload, seed, scale, seconds, units) -> Dict[str, object]:
    """Per-layer metrics: untraced and traced repetitions in turn."""
    child = spawn(workload, seed, scale, seconds, trace=True)
    sims = [rep[key] for rep in child["repetitions"] for key in ("sim", "traced_sim")]
    sim = sims[0]
    per_layer = {
        name: {"value": value, "unit": units[name]}
        for name, value in child["per_layer"].items()
    }
    flags = []
    overhead = per_layer["trace.overhead"]["value"]
    attributed = per_layer["trace.attributed_share"]["value"]
    if overhead > MAX_TRACE_OVERHEAD:
        flags.append(f"trace.overhead {overhead:.3f} > {MAX_TRACE_OVERHEAD}")
    if abs(attributed - 1.0) > ATTRIBUTION_TOLERANCE:
        flags.append(f"trace.attributed_share {attributed:.3f} is not 1.0 +- 0.02")
    consistent = sim_consistent(sims)
    return {
        "correct": consistent,
        "attempted": sim["sent"],
        "failed": sim["failed"] + (0 if consistent else 1),
        "per_layer": per_layer,
        "sim": sim,
        "flags": flags,
        "trace": child["trace"],
    }


def report(workload: str, result: Dict[str, object]) -> None:
    sim = result["sim"]
    print(
        f"== {workload}: sent {sim['sent']}  completed {sim['completed']}  "
        f"shed {sim['shed']}  failed {sim['failed']}  late {sim['late']}  "
        f"fingerprint {sim['fingerprint'][:12]}"
    )
    for name, stat in result.get("end_to_end", {}).items():
        samples = stat["samples"]
        print(
            f"  {name:<28} {stat['value']:>16.6g} {stat['unit']:<8}"
            f" min {min(samples):.6g}  max {max(samples):.6g}  n={len(samples)}"
        )
    if "end_to_end" in result:
        walls = [rep for process in result["repetitions"] for rep in process]
        print(
            f"  repetitions {len(walls)}, the fastest {min(r['wall_s'] for r in walls):.4f} s "
            f"as measured; calibration kernel "
            f"{statistics.median(r['calib_ms'] for r in walls):.1f} ms "
            f"(reference {CALIB_REFERENCE_MS} ms)   "
            f"verified {result['verified']} alone, {result['mismatches']} mismatches"
        )
    for name, stat in result.get("per_layer", {}).items():
        print(f"  {name:<36} {stat['value']:>16.6g} {stat['unit']}")
    for flag in result.get("flags", []):
        print(f"  FLAGGED, per-layer numbers are suspect: {flag}")
    if not result["correct"]:
        print("  INCORRECT: outputs or simulated numbers did not repeat exactly")


def last_line(results: Dict[str, Dict[str, Dict]], single: Optional[str]) -> str:
    """The contract's result object over everything that ran."""
    metrics = {}
    runs = [run for by_kind in results.values() for run in by_kind.values()]
    for workload, by_kind in results.items():
        for run in by_kind.values():
            stats = run.get("end_to_end") or run["per_layer"]
            for name, stat in stats.items():
                key = name if single else f"{workload}.{name}"
                metrics[key] = {"value": stat["value"], "unit": stat["unit"]}
    return json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="hostbench", description=__doc__)
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--out", type=Path, help="result file (JSON)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("hostbench: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    # Read the program once here, so set-up time in the children measures
    # the program and not a cold page cache.
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.special  # noqa: F401  (first gelu imports it)

    from hostbench.workloads import DEFAULT_SCALE, WORKLOADS

    if set(names) != set(WORKLOADS):
        raise SystemExit("hostbench: BENCHMARK.json and workloads.py disagree")
    scale = DEFAULT_SCALE if args.scale is None else args.scale
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }
    kinds = {0: ("untraced",), 1: ("traced",), None: ("untraced", "traced")}[args.trace]
    runners = {"untraced": untraced_run, "traced": traced_run}

    results: Dict[str, Dict[str, Dict]] = {}
    for workload in [args.workload] if args.workload else names:
        results[workload] = {}
        for kind in kinds:
            result = runners[kind](workload, args.seed, scale, args.seconds, units)
            declared = spec["end_to_end" if kind == "untraced" else "per_layer"]
            produced = result["end_to_end" if kind == "untraced" else "per_layer"]
            if set(produced) != {metric["name"] for metric in declared}:
                raise SystemExit("hostbench: metrics differ from BENCHMARK.json")
            report(workload, result)
            results[workload][kind] = result

    out = args.out or ROOT / "hostbench" / "out" / (
        f"{args.workload or 'all'}-seed{args.seed}-{'-'.join(kinds)}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(
        {"seed": args.seed, "scale": scale, "seconds": args.seconds,
         "workloads": results},
        indent=1,
    ))
    print(f"result file: {out}")
    line = last_line(results, args.workload)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
