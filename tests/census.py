"""Census by execution: which functions of ``src/repro`` only tests reach.

    PYTHONPATH=src python tests/census.py          # the table
    PYTHONPATH=src python tests/census.py --rows   # ... and every unreached function
    PYTHONPATH=src python tests/census.py --lines  # statements no workload executes
    PYTHONPATH=src python tests/census.py --rows --max-unreached 1000  # the ratchet

Three passes, each in its own process under a ``sys.setprofile`` hook
that records every code object called:

* **workloads** — hostbench's four workloads at seed 0 and scale 0.2
  (``warm``, ``repetition``, ``summarize``, ``verify``, ``approx_err``,
  as one measurement process calls them) and every example's
  ``main()`` (``run_all_experiments.py`` with ``--quick``);
* **bench** — the bench tier (``pytest -m bench benchmarks``);
* **tests** — the rest of tier-1 (``pytest -m "not bench" tests
  hostbench``).

Every function and method defined at module or class level under
``src/repro`` is then *reached* (the workloads pass called it),
*bench-only* (only the bench pass or a later one did: a bench reference
cannot hide code no workload runs), *tests-only* (only the tests pass
did) or *never*.  Nested functions count with the function that
defines them.

``--lines`` runs the same passes at statement level instead: a
``sys.settrace`` hook that traces only frames of ``src/repro`` code
records every line executed.  For each function the workloads pass
executes, it lists the statements of that function (nested functions
included) that no workload executes, ``raise`` statements left out,
and marks with ``t`` those the bench or tests pass executes.  A statement is one
whose first line carries bytecode, so ``try:`` and docstrings are not.
Statements that run only when timing says so (a store lock's wait
loop under contention) can move between runs.

Forked ``multiprocessing`` children are followed: a child keeps the
parent's profiler hook, and a ``multiprocessing.util.Finalize``
installed after the fork writes what the child called to a per-pid
file as it exits, which the pass merges (so the engine's stack helper,
started by ``deploy.start_child``, counts).  A child that leaves
through ``os._exit`` or is killed — a helper killed for silence or for
a run that raised — runs no finalizer and its record is lost; a child started any other way (a hostbench
measurement process is a fresh interpreter) is not followed.
``BENCH_traced.json``, which the bench tier rewrites, is put back as it
was.

``--max-unreached LINES`` makes the census a ratchet: it exits 1 when
the tests-only and never lines together exceed ``LINES`` (bench-only
lines are listed, not counted).
"""

from __future__ import annotations

import argparse
import ast
import json
import multiprocessing.util
import os
import runpy
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

Key = Tuple[str, int, str]  # (path under src/repro, first line, name)


class Function(NamedTuple):
    path: str
    qualname: str
    first: int
    lines: int


def _definitions() -> Iterator[Tuple[Function, ast.AST, str]]:
    """Every module- or class-level ``def`` under ``src/repro``, with
    its node and the source of its file."""

    def visit(node: ast.AST, path: str, prefix: str, source: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, path, f"{prefix}{child.name}.", source)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                function = Function(
                    path, prefix + child.name, first, child.end_lineno - first + 1
                )
                yield function, child, source

    for file in sorted(SRC.rglob("*.py")):
        source = file.read_text()
        path = file.relative_to(SRC).as_posix()
        yield from visit(ast.parse(source, str(file)), path, "", source)


def defined_functions() -> Dict[Key, Function]:
    """Every definition of :func:`_definitions`, keyed as its code
    object reports itself (a decorated function's code starts at its
    first decorator)."""
    return {
        (function.path, function.first, node.name): function
        for function, node, _ in _definitions()
    }


def _code_lines(source: str) -> Set[int]:
    """Lines of ``source`` that carry bytecode, nested code included."""
    lines: Set[int] = set()
    codes = [compile(source, "<census>", "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def defined_statements() -> Dict[Function, List[Tuple[int, str]]]:
    """Per definition, the ``(line, source)`` of every statement in it
    (nested functions included) whose first line carries bytecode,
    except ``raise``: an error path is not a fork a workload should
    reach."""
    found: Dict[Function, List[Tuple[int, str]]] = {}
    files: Dict[str, Tuple[Set[int], List[str]]] = {}
    for function, node, source in _definitions():
        if function.path not in files:
            files[function.path] = _code_lines(source), source.splitlines()
        code_lines, text = files[function.path]
        found[function] = sorted(
            (stmt.lineno, text[stmt.lineno - 1].strip())
            for body in node.body
            for stmt in ast.walk(body)
            if isinstance(stmt, ast.stmt)
            and not isinstance(stmt, ast.Raise)
            and stmt.lineno in code_lines
        )
    return found


def _called_keys(codes) -> List[Key]:
    prefix = str(SRC) + os.sep
    return [
        (code.co_filename[len(prefix):].replace(os.sep, "/"),
         code.co_firstlineno, code.co_name)
        for code in codes
        if code.co_filename.startswith(prefix)
    ]


def _pytest(*args: str) -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", *args])


def _run_workloads() -> None:
    import numpy as np

    from hostbench.workloads import WORKLOADS

    for make in WORKLOADS.values():
        workload = make(0, 0.2)
        workload.warm()
        outcome = workload.repetition()
        workload.summarize(outcome)
        workload.verify(outcome, np.random.default_rng(0))
        workload.approx_err(np.random.default_rng(1))
    for example in sorted(EXAMPLES.glob("*.py")):
        sys.argv = [str(example), "--quick"]
        runpy.run_path(str(example), run_name="census")["main"]()


def _run_bench() -> None:
    _pytest("-m", "bench", str(ROOT / "benchmarks"))


def _run_tests() -> None:
    _pytest("-m", "not bench", str(ROOT / "tests"), str(ROOT / "hostbench"))


PASSES = {"workloads": _run_workloads, "bench": _run_bench, "tests": _run_tests}


def _line_keys(lines) -> List[Tuple[str, int]]:
    prefix = str(SRC) + os.sep
    return [
        (filename[len(prefix):].replace(os.sep, "/"), line)
        for filename, line in lines
    ]


def run_pass(name: str, out: Path, lines: bool = False) -> None:
    """Run one pass under the profiler (``lines``: the line tracer);
    write the called keys (executed lines) to ``out``, merged with those
    of every forked child that exited normally."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(EXAMPLES)]
    seen: Set[object] = set()
    children = out.parent / f"{out.stem}.children"
    children.mkdir()
    prefix = str(SRC) + os.sep

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def trace_lines(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace(frame, event, arg):
        # Only src/repro frames get a local tracer, so only their lines
        # cost a Python call each.
        if frame.f_code.co_filename.startswith(prefix):
            return trace_lines(frame, "line", arg)
        return None

    keys = _line_keys if lines else _called_keys
    hook = sys.settrace if lines else sys.setprofile

    def write_child_record() -> None:
        hook(None)
        record = children / f"{os.getpid()}.json"
        record.write_text(json.dumps(keys(seen)))

    def after_fork(_) -> None:
        # The child inherited ``seen`` and the hook; it leaves through
        # os._exit after multiprocessing's exit finalizers, not atexit.
        multiprocessing.util.Finalize(None, write_child_record, exitpriority=0)

    # The registry holds ``after_fork`` weakly: it lives as long as
    # this frame, which spans the pass.
    multiprocessing.util.register_after_fork(after_fork, after_fork)
    bench = ROOT / "BENCH_traced.json"
    kept = bench.read_bytes()
    hook(trace if lines else profile)
    try:
        PASSES[name]()
    finally:
        hook(None)
        bench.write_bytes(kept)
    called = set(keys(seen))
    for record in children.glob("*.json"):
        called.update(tuple(key) for key in json.loads(record.read_text()))
    out.write_text(json.dumps(sorted(called)))


def run_passes(lines: bool = False) -> Dict[str, Set[tuple]]:
    """Both passes, each in a fresh process: name -> recorded keys."""
    called: Dict[str, Set[tuple]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PASSES:
            out = Path(tmp) / f"{name}.json"
            subprocess.run(
                [sys.executable, __file__, "--pass", name, str(out)]
                + ["--lines"] * lines,
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
            called[name] = {tuple(key) for key in json.loads(out.read_text())}
    return called


def census() -> Dict[str, List[Function]]:
    called = run_passes()
    kinds: Dict[str, List[Function]] = {
        "reached": [], "bench-only": [], "tests-only": [], "never": []
    }
    for key, function in defined_functions().items():
        if key in called["workloads"]:
            kinds["reached"].append(function)
        elif key in called["bench"]:
            kinds["bench-only"].append(function)
        elif key in called["tests"]:
            kinds["tests-only"].append(function)
        else:
            kinds["never"].append(function)
    return kinds


def render(kinds: Dict[str, List[Function]], rows: bool) -> str:
    table: Dict[str, Dict[str, List[int]]] = defaultdict(
        lambda: {kind: [0, 0] for kind in kinds}
    )
    for kind, functions in kinds.items():
        for function in functions:
            package = function.path.split("/")[0].removesuffix(".py")
            for key in (package, "total"):
                table[key][kind][0] += 1
                table[key][kind][1] += function.lines
    header = f"{'package':<12}" + "".join(
        f"{kind + ' fns':>16}{'lines':>8}" for kind in kinds
    )
    lines = [header]
    for package in sorted(table, key=lambda p: (p == "total", p)):
        lines.append(
            f"{package:<12}"
            + "".join(f"{n:>16}{loc:>8}" for n, loc in table[package].values())
        )
    if rows:
        for kind in ("bench-only", "tests-only", "never"):
            lines += ["", f"{kind}:"]
            lines += [
                f"  {f.path}:{f.first}  {f.qualname}  ({f.lines} lines)"
                for f in sorted(kinds[kind], key=lambda f: (f.path, f.first))
            ]
    return "\n".join(lines)


def render_lines(executed: Dict[str, Set[tuple]]) -> str:
    """Statements no workload executes, per function a workload runs."""
    ran: Dict[str, Dict[str, Set[int]]] = {}
    for name, keys in executed.items():
        ran[name] = defaultdict(set)
        for path, line in keys:
            ran[name][path].add(line)
    blocks, missed, marked = [], 0, 0
    for function, statements in defined_statements().items():
        by_workloads = ran["workloads"][function.path]
        by_tests = ran["bench"][function.path] | ran["tests"][function.path]
        unrun = [(line, src) for line, src in statements if line not in by_workloads]
        if not unrun or len(unrun) == len(statements):
            continue
        blocks.append(
            f"{function.path}::{function.qualname}  "
            f"({len(unrun)} of {len(statements)} statements)"
        )
        for line, src in unrun:
            blocks.append(f"  {line:>5} {'t' if line in by_tests else ' '} {src}")
        missed += len(unrun)
        marked += sum(line in by_tests for line, _ in unrun)
    header = (
        "statements no workload executes, in functions a workload runs: "
        f"{missed} ({marked} marked t: tier-1 executes them)"
    )
    return "\n".join([header, ""] + blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", action="store_true", help="list unreached functions")
    parser.add_argument("--lines", action="store_true",
                        help="list statements no workload executes instead")
    parser.add_argument("--max-unreached", type=int, metavar="LINES",
                        help="exit 1 when tests-only + never lines exceed LINES")
    parser.add_argument("--pass", dest="pass_", nargs=2, metavar=("NAME", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_:
        run_pass(args.pass_[0], Path(args.pass_[1]), lines=args.lines)
        return 0
    if args.lines:
        print(render_lines(run_passes(lines=True)))
        return 0
    kinds = census()
    print(render(kinds, args.rows))
    unreached = sum(f.lines for kind in ("tests-only", "never") for f in kinds[kind])
    if args.max_unreached is not None and unreached > args.max_unreached:
        print(f"\n{unreached} tests-only + never lines exceed --max-unreached "
              f"{args.max_unreached}: delete what only tests reach, or raise the "
              "number in a declared change")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
