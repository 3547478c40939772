"""Every field of a public config is checked by its declared domain.

``repro.domains`` declares each domain once; ``SystolicConfig``,
``QFormat``, ``ShardSpec``, ``ClusterSpec``, ``TenantConfig``,
``TuningConfig``, ``ConfigSpace`` and ``EndpointSpec`` each list their
fields' domains in a ``DOMAINS`` table.
These tests pin:

* the normalisation: ``4.0`` is stored as 4, a number field as a float,
  and a bool, a fraction or a non-finite number is refused with one
  message format, ``"<field> must be <domain>, got <value!r>"``;
* the doors without a test of their own: ``EndpointSpec``, the
  engine's ``steal`` switch, ``TransformerPrefixAdapter``'s
  ``prefix_len`` and the integers of a trace file;
* the door fuzzer: every field of the eight classes has a domain (a new
  field without one fails here), and a bool, fraction, NaN, ±inf,
  negative, zero or huge value is either refused at construction or
  stored in its domain — and then a one-``Linear`` head served on that
  config gives finite numbers and an ``int`` cycle count.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import ConfigSpace, TrafficTrace, TuningConfig, build_engine
from repro.domains import (
    BOOL,
    INTEGER,
    NON_NEGATIVE,
    POSITIVE,
    POSITIVE_INT,
    optional,
    tuple_of,
)
from repro.nn.layers import Linear, Module
from repro.nn.models import TinyBERT
from repro.serving import (
    ClusterSpec,
    EndpointSpec,
    InferenceEngine,
    ShardSpec,
    TenantConfig,
    TransformerPrefixAdapter,
    assemble_engine,
)
from repro.fixedpoint import INT16, QFormat
from repro.systolic import SystolicConfig

SMALL = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=4, clock_hz=250e6)


class Head(Module):
    """One ``Linear(8 -> 4)`` over scaled token rows."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.fc = Linear(8, 4, np.random.default_rng(seed))

    def infer(self, tokens, backend):
        return self.fc.infer(np.asarray(tokens, dtype=np.float64) / 16, backend)


HEAD = EndpointSpec("head", Head, {"seed": 0})
ROWS = np.random.default_rng(0).integers(0, 16, size=(6, 8))


class TestDomains:
    def test_integers_are_stored_whole_and_never_truncated(self):
        assert INTEGER("n", 4.0) == 4 and type(INTEGER("n", 4.0)) is int
        assert INTEGER("n", np.int64(-3)) == -3
        for value in (2.5, True, float("nan"), float("inf"), "4", None):
            with pytest.raises(ValueError, match=f"n must be an integer, got {value!r}"):
                INTEGER("n", value)
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
            POSITIVE_INT("n", 0)

    def test_numbers_are_stored_as_finite_floats(self):
        assert NON_NEGATIVE("x", 0) == 0.0 and type(NON_NEGATIVE("x", 0)) is float
        assert POSITIVE("x", np.float32(0.5)) == 0.5
        for value in (True, float("nan"), float("inf"), -float("inf"), 10**400, "1"):
            with pytest.raises(ValueError, match="x must be a finite number >= 0"):
                NON_NEGATIVE("x", value)
        with pytest.raises(ValueError, match=r"x must be a finite number > 0, got 0\.0"):
            POSITIVE("x", 0.0)

    def test_a_bool_is_a_bool(self):
        assert BOOL("b", True) is True
        for value in (1, 0, "yes", None, np.True_):
            with pytest.raises(ValueError, match="b must be a bool"):
                BOOL("b", value)

    def test_combinators(self):
        assert optional(POSITIVE_INT)("n", None) is None
        assert tuple_of(POSITIVE_INT)("sizes", [2.0, 4]) == (2, 4)
        for value in ((), (2, 0), 2, "ab"):
            with pytest.raises(ValueError, match="sizes must be a non-empty tuple"):
                tuple_of(POSITIVE_INT)("sizes", value)


class TestDoorsWithoutATestOfTheirOwn:
    @pytest.mark.parametrize("prefix_len", [2.5, True, -3])
    def test_endpoint_prefix_len(self, prefix_len):
        with pytest.raises(ValueError, match="prefix_len must be an integer >= 1 or None"):
            EndpointSpec("head", Head, prefix_len=prefix_len)

    @pytest.mark.parametrize("prefix_len", [2.5, True, 0])
    def test_prefix_adapter_prefix_len(self, prefix_len):
        model = TinyBERT(seq_len=8, causal=True)
        with pytest.raises(ValueError, match="prefix_len must be an integer >= 1"):
            TransformerPrefixAdapter(model, prefix_len)
        assert TransformerPrefixAdapter(model, 2.0).prefix_len == 2

    @pytest.mark.parametrize("field, value", [("seed", 2.5), ("version", 1.5)])
    def test_trace_file_integers(self, field, value):
        data = {"version": 1, "name": "t", "seed": 2, "requests": [], field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrafficTrace.from_dict(data)
        stored = getattr(TrafficTrace.from_dict(dict(data, **{field: 1.0})), field)
        assert stored == 1 and type(stored) is int

    def test_endpoint_generation_switch(self):
        with pytest.raises(ValueError, match="generation must be a bool, got 1"):
            EndpointSpec("head", Head, generation=1)

    @pytest.mark.parametrize("steal", [1, "yes"])
    def test_engine_steal_switch(self, steal):
        with pytest.raises(ValueError, match="steal must be a bool"):
            InferenceEngine(ClusterSpec.homogeneous(SMALL, 1).build(), steal=steal)


# ---------------------------------------------------------------------------
# The door fuzzer
# ---------------------------------------------------------------------------
#: A valid instance of every public config, the fuzzer's starting point.
BASES = {
    SystolicConfig: SMALL,
    QFormat: INT16,
    ShardSpec: ShardSpec(SMALL),
    ClusterSpec: ClusterSpec((ShardSpec(SMALL),)),
    TenantConfig: TenantConfig("t"),
    TuningConfig: TuningConfig(pool=(SMALL,)),
    ConfigSpace: ConfigSpace(catalog=(SMALL,)),
    EndpointSpec: HEAD,
}

VALUES = (
    True, False, 2.5, 0.5, float("nan"), float("inf"), -float("inf"),
    -3, -0.5, 0, 0.0, 2**40, 1e15,
)


def _serve(engine, tenant="default"):
    ids = [
        engine.submit("head", row, arrival=index * 1e-6, tenant=tenant)
        for index, row in enumerate(ROWS)
    ]
    report = engine.run()
    for request_id in ids:
        if request_id not in {record.request.request_id for record in report.shed}:
            assert np.isfinite(engine.result(request_id)).all()
    return report


#: How each serving config is put to work on the one-Linear head.
SERVE = {
    SystolicConfig: lambda config: _serve(
        build_engine(TuningConfig(pool=(config,)), (HEAD,))
    ),
    ShardSpec: lambda shard: _serve(assemble_engine(ClusterSpec((shard,)), (HEAD,))),
    ClusterSpec: lambda cluster: _serve(assemble_engine(cluster, (HEAD,))),
    TenantConfig: lambda tenant: _serve(
        assemble_engine(ClusterSpec((ShardSpec(SMALL),)), (HEAD,), tenants=(tenant,)),
        tenant=tenant.tenant_id,
    ),
    TuningConfig: lambda tuning: _serve(build_engine(tuning, (HEAD,))),
}


def test_a_huge_flush_timeout_serves():
    """The fuzzer's first find: a batch ready at 2**40 s ends within half
    an ulp of its start, and the run still holds its invariants."""
    report = SERVE[TuningConfig](TuningConfig(pool=(SMALL,), flush_timeout=2**40))
    assert report.n_requests == len(ROWS) and type(report.total_cycles) is int


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_field_refuses_or_serves(data):
    for cls in BASES:
        assert set(cls.DOMAINS) == {field.name for field in dataclasses.fields(cls)}, cls
    cls = data.draw(st.sampled_from(list(BASES)), label="class")
    name = data.draw(
        st.sampled_from([field.name for field in dataclasses.fields(cls)]), label="field"
    )
    value = data.draw(st.sampled_from(VALUES), label="value")
    try:
        config = dataclasses.replace(BASES[cls], **{name: value})
    except ValueError:
        return
    stored = getattr(config, name)
    assert cls.DOMAINS[name](name, stored) == stored
    if cls in SERVE:
        report = SERVE[cls](config)
        assert type(report.total_cycles) is int
        for key, number in report.objective_section().items():
            assert number is None or math.isfinite(number), key
