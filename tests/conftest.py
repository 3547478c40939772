"""Suite-wide fixtures.

The two autouse fixtures of ``tests/invariants.py`` (shared with
``benchmarks/``) apply to every test under ``tests/``, whichever marker
selected it: every ``ServingReport`` an in-process
``InferenceEngine.run`` returns is held to the run-level invariants, its
per-shard cycles against each shard array's ``total_cycles`` before and
after the run; and every op input a fixed-point backend takes as exact
codes without rounding it must be on the code grid byte for byte.

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
from invariants import (  # noqa: F401  (autouse fixtures)
    every_report_holds_the_run_invariants,
    every_skipped_rounding_is_exact,
)

from repro.serving import EndpointSpec, RadixKVCache
from repro.store import InProcessLRU


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
