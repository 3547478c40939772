"""Suite-wide fixtures.

Every ``ServingReport`` an in-process ``InferenceEngine.run`` returns,
in any test under ``tests/`` — the serving, elastic, generation,
traffic, deploy and pipeline suites among them, whichever marker
selected the test — is held to the run-level invariants of
``tests/invariants.py``, its per-shard cycles against each shard array's
``total_cycles`` before and after the run.  (Engines in forked children
inherit the check.)

Every test starts with the tape memo of its module's ``EndpointSpec``
constants empty, so each meets its shapes by executing them and no
count depends on which test ran before it.

``store_gets`` lists the key of every ``InProcessLRU.get`` made while a
test runs: what a cache asked its stores, not what they counted.
``radix_lookups`` lists ``(shard, hit)`` for every
``RadixKVCache.lookup``: what a report's K/V-cache lines must add up to.
"""

import functools

import pytest
from invariants import check_invariants

from repro.serving import EndpointSpec, InferenceEngine, RadixKVCache
from repro.store import InProcessLRU


@pytest.fixture(autouse=True)
def every_report_holds_the_run_invariants(monkeypatch):
    run = InferenceEngine.run

    @functools.wraps(run)
    def checked_run(self, *args, **kwargs):
        pool = self.dispatcher
        arrays = {shard: pool.array_of(shard) for shard in range(pool.n_shards)}
        before = {
            shard: array.total_cycles
            for shard, array in arrays.items()
            if array is not None
        }
        report = run(self, *args, **kwargs)
        charged = {
            shard: arrays[shard].total_cycles - cycles
            for shard, cycles in before.items()
        }
        check_invariants(report, charged=charged)
        return report

    monkeypatch.setattr(InferenceEngine, "run", checked_run)


@pytest.fixture(autouse=True)
def module_level_specs_start_every_test_without_tapes(request):
    for value in vars(request.module).values():
        for spec in value if isinstance(value, tuple) else (value,):
            if isinstance(spec, EndpointSpec):
                spec.tapes.clear()


@pytest.fixture
def store_gets(monkeypatch):
    keys = []
    get = InProcessLRU.get

    @functools.wraps(get)
    def spied_get(self, key, *args, **kwargs):
        keys.append(key)
        return get(self, key, *args, **kwargs)

    monkeypatch.setattr(InProcessLRU, "get", spied_get)
    return keys


@pytest.fixture
def radix_lookups(monkeypatch):
    lookups = []
    lookup = RadixKVCache.lookup

    @functools.wraps(lookup)
    def spied_lookup(self, shard, *args, **kwargs):
        found = lookup(self, shard, *args, **kwargs)
        lookups.append((shard, found[0] > 0))
        return found

    monkeypatch.setattr(RadixKVCache, "lookup", spied_lookup)
    return lookups
