"""The cached field hash of ``SystolicConfig`` / ``QFormat`` is safe.

Configs key the plan memo, the calibrating cost model and the
cost-model memos, so their hash is computed once per object and kept on
the instance.  These tests pin what makes that safe:

* equality is untouched and ``a == b`` still implies equal hashes, so
  independently built equal configs find each other's cache entries;
* the cached value never leaves the object: ``dataclasses.replace``,
  ``copy`` / ``deepcopy`` and ``pickle`` all yield objects that hash
  afresh — checked where it matters, in a **fresh interpreter**, because
  ``l3_out_width=None`` is hashed and ``hash(None)`` differs between
  processes before Python 3.12 (``serve_multiproc`` ships configs to
  workers);
* the field hash really runs at most once per object.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro.fixedpoint.qformat as qformat_module
from repro.fixedpoint import QFormat
from repro.serving import BatchProfile, CalibratingCostModel
from repro.systolic import SystolicConfig
from repro.systolic.gemm import plan_gemm

SRC = Path(__file__).resolve().parent.parent / "src"
KWARGS = dict(pe_rows=4, pe_cols=4, macs_per_pe=8, clock_hz=125e6)


def _config():
    """A fresh config object (and a fresh, unshared format) per call."""
    return SystolicConfig(fmt=QFormat(16, 8), **KWARGS)


def _cached(obj):
    return "_hash" in vars(obj)


def _fresh_interpreter(code, *argv):
    """Run ``code`` in a new interpreter: its ``hash(None)`` is its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestEqualConfigsShareEntries:
    def test_equal_objects_hash_equal(self):
        a, b = _config(), _config()
        assert a is not b and a.fmt is not b.fmt
        assert a == b and hash(a) == hash(b)
        assert hash(a.fmt) == hash(b.fmt) == hash(QFormat(16, 8))
        assert a != dataclasses.replace(a, macs_per_pe=4)
        assert a.cycle_key == dataclasses.replace(b, clock_hz=1.0)
        assert len({a, b, a.cycle_key, b.cycle_key}) == 2

    def test_plan_cache_entry_found_through_an_equal_config(self):
        plan_gemm.cache_clear()
        first = plan_gemm(_config(), 16, 8, 12)
        assert plan_gemm(_config(), 16, 8, 12) is first
        assert plan_gemm.cache_info().hits == 1

    def test_calibrator_observation_found_through_an_equal_config(self):
        model = CalibratingCostModel()
        model.observe("m", 4, (8,), _config(), 1000)
        profile = BatchProfile(
            model="m", tenant="t", batch_size=4, sample_shape=(8,), ready_time=0.0
        )
        assert model.estimate(profile, _config()) == 1000.0
        # ...and at another clock: cycle estimates key on cycle_key.
        slower = dataclasses.replace(_config(), clock_hz=50e6)
        assert model.estimate(profile, slower) == 1000.0


class TestCachedValueStaysHome:
    @pytest.mark.parametrize(
        "derive",
        [
            lambda c: dataclasses.replace(c, clock_hz=1.0),
            lambda c: dataclasses.replace(c),
            copy.copy,
            copy.deepcopy,
            lambda c: pickle.loads(pickle.dumps(c)),
        ],
        ids=["replace_clock", "replace", "copy", "deepcopy", "pickle"],
    )
    def test_derived_objects_hash_afresh(self, derive):
        config = _config()
        hash(config), hash(config.cycle_key)
        assert _cached(config) and _cached(config.fmt)
        derived = derive(config)
        assert not _cached(derived)
        # A deep copy's nested objects are copies too, equally uncached.
        assert derived.fmt is config.fmt or not _cached(derived.fmt)
        key = vars(derived).get("cycle_key")
        assert key is None or key is config.cycle_key or not _cached(key)
        if derived == config:
            assert hash(derived) == hash(config)

    def test_format_round_trips_uncached(self):
        fmt = QFormat(12, 4)
        hash(fmt)
        for derived in (copy.copy(fmt), pickle.loads(pickle.dumps(fmt))):
            assert derived == fmt and not _cached(derived)

    def test_pickle_into_a_fresh_interpreter(self, tmp_path):
        """The multiproc path: a hashed config is pickled here and used
        as a dict key over there."""
        config = _config()
        hash(config), hash(config.cycle_key)
        path = tmp_path / "config.pickle"
        path.write_bytes(pickle.dumps({"config": config, "kwargs": KWARGS}))
        code = (
            "import pickle, sys\n"
            "from repro.fixedpoint import QFormat\n"
            "from repro.systolic import SystolicConfig\n"
            "sent = pickle.load(open(sys.argv[1], 'rb'))\n"
            "loaded = sent['config']\n"
            "local = SystolicConfig(fmt=QFormat(16, 8), **sent['kwargs'])\n"
            "for obj in (loaded, loaded.fmt, vars(loaded)['cycle_key']):\n"
            "    assert '_hash' not in vars(obj), obj\n"
            "assert {local: 'found'}[loaded] == 'found'\n"
            "assert {local.cycle_key: 'found'}[loaded.cycle_key] == 'found'\n"
            "assert hash(loaded) == hash(local)\n"
        )
        _fresh_interpreter(code, path)


class TestHashedOnce:
    def test_field_hash_runs_once_per_object(self, monkeypatch):
        """Counted through the ``dataclasses.fields`` call the field
        hash makes, never by timing."""
        hashed = []

        def counting_fields(obj):
            hashed.append(obj)
            return dataclasses.fields(obj)

        monkeypatch.setattr(qformat_module, "fields", counting_fields)
        config = _config()
        key = config.cycle_key
        assert hashed == []  # construction hashes nothing
        assert len({hash(config) for _ in range(5)}) == 1
        table = {config: "config", key: "key"}
        for _ in range(100):
            assert table[config] == "config" and table[key] == "key"
            hash(config.fmt)
        # One field hash each: the config, its cycle key and the format
        # object the two share.
        assert sorted(map(id, hashed)) == sorted(map(id, (config, key, config.fmt)))

    def test_hash_is_not_a_field(self):
        config = _config()
        hash(config)
        assert [f.name for f in dataclasses.fields(config)][-1] == "segment_capacity"
        assert "_hash" not in repr(config) and "_hash" not in dataclasses.asdict(config)
        assert config == _config()  # one hashed, one not
