"""Compare two result files: ``python3 hostbench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the change.  One row
per workload and end-to-end metric, judged against the metric's bound
in ``BENCHMARK.json``:

* ``worse`` / ``better``: the median moved by more than the bound;
* ``within bound``: it did not;
* ``unresolved``: the spread between either side's samples is wider than
  the bound -- unless every sample of ``B`` beats every sample of ``A``.

Host metrics in a result file are already stated at the machine's
reference speed (``run.at_reference_speed``), so a machine that was
slower during one of the two runs is accounted for.

Numbers on the simulator's clock must be equal for one seed and scale;
a row says whether they are.  Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def spread(samples: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


def classify(base: Dict, change: Dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change["value"] - base["value"]) / base["value"]
    a, b = base["samples"], change["samples"]
    if max(spread(a), spread(b)) > bound:
        clear_win = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "better" if clear_win else "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within bound"


def compare(base: Dict, change: Dict, metrics: List[Dict]) -> List[tuple]:
    """Rows ``(workload, metric, base value, change value, verdict)``."""
    rows = []
    for workload, base_runs in base["workloads"].items():
        change_runs = change["workloads"].get(workload)
        if change_runs is None or "untraced" not in base_runs:
            continue
        a, b = base_runs["untraced"], change_runs["untraced"]
        for metric in metrics:
            name = metric["name"]
            verdict = classify(
                a["end_to_end"][name], b["end_to_end"][name],
                metric["better"], metric["bound"],
            )
            rows.append((
                workload, name, a["end_to_end"][name]["value"],
                b["end_to_end"][name]["value"], verdict,
            ))
        if (base["seed"], base["scale"]) == (change["seed"], change["scale"]):
            same = a["sim"] == b["sim"]
            rows.append((
                workload, "simulated clock", a["sim"]["fingerprint"][:12],
                b["sim"]["fingerprint"][:12], "equal" if same else "differs",
            ))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    base, change = (json.loads(Path(path).read_text()) for path in argv[1:])
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(base, change, metrics)
    for workload, name, a, b, verdict in rows:
        a, b = (f"{v:.6g}" if isinstance(v, float) else str(v) for v in (a, b))
        print(f"{workload:<16} {name:<24} {a:>14} {b:>14}  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
