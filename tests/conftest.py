"""Suite-wide fixtures.

Every ``ServingReport`` an in-process ``InferenceEngine.run`` returns,
in any test under ``tests/`` — the serving, elastic, generation,
traffic, deploy and pipeline suites among them, whichever marker
selected the test — is held to the run-level invariants of
``tests/invariants.py``.  (Engines in forked children inherit the
check.)

Every test starts with the tape memo of its module's ``EndpointSpec``
constants empty, so each meets its shapes by executing them and no
count depends on which test ran before it.
"""

import functools

import pytest
from invariants import check_invariants

from repro.serving import EndpointSpec, InferenceEngine


@pytest.fixture(autouse=True)
def every_report_holds_the_run_invariants(monkeypatch):
    run = InferenceEngine.run

    @functools.wraps(run)
    def checked_run(self, *args, **kwargs):
        report = run(self, *args, **kwargs)
        check_invariants(report)
        return report

    monkeypatch.setattr(InferenceEngine, "run", checked_run)


@pytest.fixture(autouse=True)
def module_level_specs_start_every_test_without_tapes(request):
    for value in vars(request.module).values():
        for spec in value if isinstance(value, tuple) else (value,):
            if isinstance(spec, EndpointSpec):
                spec.tapes.clear()
