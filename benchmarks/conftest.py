"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artifact (table or figure), prints
it in paper-like form, and asserts the reproduced *shape* claims.  Run
with ``pytest benchmarks/ --benchmark-only``.

Everything in this directory is auto-marked ``bench`` so the fast
tier-1 invocation (``pytest -q -m "not bench"``) skips it.  The
autouse fixtures of ``tests/invariants.py`` apply here as under
``tests/``: every engine run is held to the run-level invariants, and
every op input taken as exact codes must be on the code grid.
"""

from pathlib import Path

import pytest

from tests.invariants import (  # noqa: F401  (autouse fixtures)
    every_report_holds_the_run_invariants,
    every_skipped_rounding_is_exact,
)

_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if Path(str(item.fspath)).resolve().parent == _BENCH_DIR:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def print_artifact():
    """Print a regenerated artifact, visibly separated in the log."""

    def _print(text: str) -> None:
        print("\n" + "=" * 72)
        print(text)
        print("=" * 72)

    return _print
