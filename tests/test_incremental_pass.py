"""The transformer's one incremental pass and its one K/V container.

``TinyBERT`` executes a cold pass, a classifier prefix hit, a warm
prefill and a decode step as one computation — embed the columns past
``kv.pos``, append their K/V rows onto ``kv``, attend against all of it
— the one shape ``repro.nn.workload`` already prices them as.  These
tests pin that from three sides:

* **one computation**: for every split point ``0 < m < T`` the three
  ways of reaching position ``T`` from ``m`` cached rows equal the cold
  pass bit for bit *and* in traced cycles against the closed forms;
* **one container**: a row prefix of a payload is a payload, a fork can
  be extended without touching what it was forked from, and a payload's
  ``nbytes`` is exactly its rows (the cache's byte-budget unit);
* **nothing beside them**: the source holds one K/V class, one
  inference method per layer class and one loop over the layers.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nn.executor as executor_module
import repro.nn.layers as layers_module
from repro.nn.executor import ArrayBackend, CPWLBackend, KVState
from repro.nn.layers import MultiHeadSelfAttention, TransformerEncoderLayer
from repro.nn.models import TinyBERT
from repro.nn.workload import (
    transformer_decode_step_cycles,
    transformer_prefill_cycles,
    transformer_prefix_savings,
)
from repro.serving import GenerationAdapter
from repro.systolic import SystolicArray, SystolicConfig

CONFIG = SystolicConfig(pe_rows=4, pe_cols=4, macs_per_pe=8)
GRANULARITY = 0.25
SEQ_LEN = 8

_MODELS = {}


def _model(n_layers):
    if n_layers not in _MODELS:
        _MODELS[n_layers] = TinyBERT(
            vocab=16, seq_len=SEQ_LEN, dim=8, heads=2, ff_dim=16,
            n_layers=n_layers, causal=True, seed=3,
        )
    return _MODELS[n_layers]


def _shape(model):
    return model.dim, model.heads, model.ff_dim, model.n_layers


def _traced(model):
    """An ``ArrayBackend`` past its one-time table preload, plus a
    function measuring the traced cycles of one call."""
    array = SystolicArray(CONFIG)
    backend = ArrayBackend(array, GRANULARITY)
    model.prefill(np.zeros((1, 2), dtype=np.int64), backend)

    def cycles_of(call):
        before = array.total_cycles
        result = call()
        return result, array.total_cycles - before

    return backend, cycles_of


def _assert_same_rows(a: KVState, b: KVState):
    assert a.pos == b.pos and a.n_layers == b.n_layers
    for i in range(a.n_layers):
        assert np.array_equal(a.k[i], b.k[i])
        assert np.array_equal(a.v[i], b.v[i])


# ---------------------------------------------------------------------------
# One computation: every way from m cached rows to T equals the cold pass
# ---------------------------------------------------------------------------
class TestOneIncrementalPass:
    @given(
        n_layers=st.integers(1, 2),
        batch=st.integers(1, 3),
        split=st.integers(1, SEQ_LEN - 1),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_every_split_point_equals_the_cold_pass(
        self, n_layers, batch, split, seed
    ):
        model = _model(n_layers)
        shape = _shape(model)
        backend, cycles_of = _traced(model)
        rng = np.random.default_rng(seed)
        # Rows share their first ``split`` tokens (a classifier payload
        # is one sequence's rows under the whole batch), then diverge.
        tokens = np.concatenate(
            [
                np.broadcast_to(rng.integers(0, 16, size=split), (batch, split)),
                rng.integers(0, 16, size=(batch, SEQ_LEN - split)),
            ],
            axis=1,
        )

        # -- classifier: infer through a kv filled to ``split`` ----------
        kv = KVState(n_layers)
        cold, cold_cycles = cycles_of(lambda: model.infer(tokens, backend, kv=kv))
        assert np.array_equal(cold, model.infer(tokens, backend))
        assert kv.pos == SEQ_LEN and kv.final_hidden.shape[:2] == (batch, SEQ_LEN)
        payload = kv.prefix(split)
        warm_kv = payload.fork()
        warm, warm_cycles = cycles_of(
            lambda: model.infer(tokens, backend, kv=warm_kv)
        )
        assert np.array_equal(cold, warm)
        assert cold_cycles - warm_cycles == transformer_prefix_savings(
            batch, SEQ_LEN, split, *shape, CONFIG
        )
        # The warm pass left the same complete state the cold one did.
        _assert_same_rows(kv, warm_kv)
        assert np.array_equal(kv.final_hidden, warm_kv.final_hidden)

        # -- generation: warm prefill from per-member payloads -----------
        (cold_logits, cold_state), cycles = cycles_of(
            lambda: model.prefill(tokens, backend)
        )
        assert cycles == transformer_prefill_cycles(
            batch, SEQ_LEN, 0, *shape, model.vocab, CONFIG
        )
        full = model._encode(tokens, backend)  # the whole-sequence recompute
        assert np.array_equal(cold_logits, model.lm_logits(full[:, -1, :], backend))
        cached = [cold_state.prefix(split, j) for j in range(batch)]
        (warm_logits, warm_state), cycles = cycles_of(
            lambda: model.prefill(tokens, backend, cached=cached)
        )
        assert cycles == transformer_prefill_cycles(
            batch, SEQ_LEN, split, *shape, model.vocab, CONFIG
        )
        assert np.array_equal(cold_logits, warm_logits)
        _assert_same_rows(cold_state, warm_state)

        # -- generation: prefill ``split`` columns, then step by step ----
        _, state = model.prefill(tokens[:, :split], backend)
        for position in range(split, SEQ_LEN):
            assert state.pos == position
            logits, cycles = cycles_of(
                lambda: model.decode_step(state, tokens[:, position], backend)
            )
            assert cycles == transformer_decode_step_cycles(
                batch, position, *shape, model.vocab, CONFIG
            )
        assert np.array_equal(cold_logits, logits)
        _assert_same_rows(cold_state, state)

    @given(
        n_layers=st.integers(1, 2),
        split=st.integers(1, SEQ_LEN - 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_row_prefix_of_a_payload_is_a_payload(self, n_layers, split, seed):
        """``payload.prefix(m)`` of a longer capture warm-prefills exactly
        like a payload captured at ``m`` (causal rows never depend on
        what follows them)."""
        model = _model(n_layers)
        backend = CPWLBackend(GRANULARITY)
        rng = np.random.default_rng(seed)
        prompt = rng.integers(0, 16, size=(1, SEQ_LEN), dtype=np.int64)
        longer = rng.integers(split + 1, SEQ_LEN)  # split < longer < SEQ_LEN
        _, at_split = model.prefill(prompt[:, :split], backend)
        _, at_longer = model.prefill(prompt[:, :longer], backend)
        captured = at_split.prefix(split)
        sliced = at_longer.prefix(longer).prefix(split)
        _assert_same_rows(captured, sliced)
        assert sliced.nbytes == captured.nbytes
        logits_a, state_a = model.prefill(prompt, backend, cached=captured)
        logits_b, state_b = model.prefill(prompt, backend, cached=sliced)
        cold_logits, cold_state = model.prefill(prompt, backend)
        assert np.array_equal(logits_a, logits_b)
        assert np.array_equal(logits_a, cold_logits)
        _assert_same_rows(state_a, state_b)
        _assert_same_rows(state_a, cold_state)

    def test_mixed_depth_payloads_start_from_the_shortest(self):
        model = _model(2)
        backend = CPWLBackend(GRANULARITY)
        rng = np.random.default_rng(5)
        prompts = rng.integers(0, 16, size=(2, 6), dtype=np.int64)
        cold_logits, cold_state = model.prefill(prompts, backend)
        cached = [cold_state.prefix(5, 0), cold_state.prefix(2, 1)]
        warm_logits, warm_state = model.prefill(prompts, backend, cached=cached)
        assert np.array_equal(cold_logits, warm_logits)
        _assert_same_rows(cold_state, warm_state)

    def test_every_check_of_the_deleted_methods_still_fires(self):
        model = _model(2)
        backend = CPWLBackend(GRANULARITY)
        tokens = np.zeros((1, SEQ_LEN), dtype=np.int64)
        kv = KVState(2)
        model.infer(tokens, backend, kv=kv)
        # depth must match the model
        with pytest.raises(ValueError, match="layers"):
            model.infer(tokens, backend, kv=KVState(3))
        with pytest.raises(ValueError, match="layers"):
            model.prefill(tokens, backend, cached=_model(1).prefill(
                tokens[:, :3], backend)[1])
        # a classifier pass needs the cached final hidden rows...
        _, gen_state = model.prefill(tokens[:, :3], backend)
        with pytest.raises(ValueError, match="final hidden"):
            model.infer(tokens, backend, kv=gen_state.prefix(3))
        # ...and at least one new column, inside the position table
        with pytest.raises(ValueError, match="position table"):
            model.infer(tokens, backend, kv=kv.prefix(SEQ_LEN))
        full = model.prefill(tokens, backend)[1]
        with pytest.raises(ValueError, match="position table"):
            model.decode_step(full, np.zeros(1, dtype=np.int64), backend)
        with pytest.raises(ValueError, match="prefilled"):
            model.decode_step(KVState(2), np.zeros(1, dtype=np.int64), backend)
        with pytest.raises(ValueError, match="cached prefix length"):
            model.prefill(tokens[:, :3], backend, cached=gen_state.prefix(3))
        with pytest.raises(ValueError, match="cached prefixes for"):
            model.prefill(tokens[:, :4], backend, cached=[gen_state.prefix(2)] * 2)
        # reuse is causal-only, at the model and at the layer
        bidirectional = TinyBERT(
            vocab=16, seq_len=SEQ_LEN, dim=8, heads=2, ff_dim=16, n_layers=2
        )
        with pytest.raises(ValueError, match="causal"):
            bidirectional.infer(tokens, backend, kv=kv.prefix(3))
        rows = np.zeros((1, 2, 8))
        with pytest.raises(ValueError, match="causal"):
            bidirectional.layers[0].infer(rows, backend, kv.prefix(3), 0)


# ---------------------------------------------------------------------------
# One container: who owns rows, and when they are copied
# ---------------------------------------------------------------------------
class TestKVState:
    def _filled(self, batch=2, upto=5):
        model = _model(2)
        backend = CPWLBackend(GRANULARITY)
        rng = np.random.default_rng(9)
        prompts = rng.integers(0, 16, size=(batch, upto), dtype=np.int64)
        _, state = model.prefill(prompts, backend)
        return model, backend, prompts, state

    def test_extending_a_fork_leaves_the_frozen_payload_untouched(self):
        model, backend, prompts, state = self._filled(batch=1)
        payload = state.prefix(4)
        arrays = [*payload.k, *payload.v]
        snapshot = [a.copy() for a in arrays]
        fork = payload.fork()
        model.decode_step(fork, prompts[:, 4], backend)
        model.decode_step(fork, prompts[:, 0], backend)
        assert fork.pos == 6 and payload.pos == 4
        # Same array objects, same bytes, still read-only: extend
        # rebinds the fork's layers and writes into nothing it was given.
        assert all(a is b for a, b in zip(arrays, [*payload.k, *payload.v]))
        assert all(np.array_equal(a, b) for a, b in zip(arrays, snapshot))
        assert not any(a.flags.writeable for a in arrays)
        # The first extension of the fork reproduced the parent's row 4.
        assert np.array_equal(fork.k[0][:, :5], state.k[0])

    def test_payload_is_fresh_frozen_and_charged_for_its_rows_only(self):
        model, _, _, state = self._filled(batch=3, upto=6)
        payload = state.prefix(4, index=1)
        assert payload.pos == 4 and payload.batch == 1
        assert payload.final_hidden is None
        # (k + v) x layers x (1, 4, D) float64 rows: nothing of the
        # (3, 6, D) batch arrays is pinned or charged.
        assert payload.nbytes == 2 * model.n_layers * 4 * model.dim * 8
        for i in range(model.n_layers):
            assert payload.k[i].base is None and not payload.k[i].flags.writeable
            assert np.array_equal(payload.k[i][0], state.k[i][1, :4])
            assert np.array_equal(payload.v[i][0], state.v[i][1, :4])
        for bad in (0, 7):
            with pytest.raises(ValueError, match="prefix length"):
                state.prefix(bad)
        with pytest.raises(ValueError):
            KVState(0)

    def test_classifier_payload_carries_its_final_hidden_rows(self):
        model = _model(2)
        backend = CPWLBackend(GRANULARITY)
        tokens = np.random.default_rng(2).integers(0, 16, size=(2, SEQ_LEN))
        kv = KVState(2)
        model.infer(tokens, backend, kv=kv)
        payload = kv.prefix(3)
        assert payload.final_hidden.shape == (1, 3, model.dim)
        assert not payload.final_hidden.flags.writeable
        assert payload.nbytes == (2 * model.n_layers + 1) * 3 * model.dim * 8

    def test_stack_copies_and_split_inverts_it(self):
        _, _, _, state = self._filled(batch=3)
        parts = state.split()
        assert [p.batch for p in parts] == [1, 1, 1]
        restacked = KVState.stack(parts)
        _assert_same_rows(state, restacked)
        assert not np.shares_memory(restacked.k[0], parts[0].k[0])
        # upto= cuts members of different depths to one length
        mixed = KVState.stack([parts[0].prefix(4), parts[1].prefix(2)], upto=2)
        assert (mixed.batch, mixed.pos) == (2, 2)
        assert np.array_equal(mixed.k[1], state.k[1][:2, :2])
        with pytest.raises(ValueError, match="rows"):
            KVState.stack([parts[0], parts[1].prefix(2)])
        with pytest.raises(ValueError, match="rows"):
            KVState.stack([parts[0], parts[1].prefix(2)], upto=3)
        with pytest.raises(ValueError, match="depth"):
            KVState.stack([parts[0], KVState(1)])
        with pytest.raises(ValueError):
            KVState.stack([])

    def test_freeze_restores_what_serialization_drops(self):
        import pickle

        _, _, _, state = self._filled(batch=1)
        thawed = pickle.loads(pickle.dumps(state.prefix(3)))
        assert thawed.k[0].flags.writeable  # numpy drops the flag
        assert thawed.freeze() is thawed
        assert not any(a.flags.writeable for a in (*thawed.k, *thawed.v))


# ---------------------------------------------------------------------------
# Nothing beside them: structural guards
# ---------------------------------------------------------------------------
def _classes_assigning(module, *attrs):
    """Names of the module's classes whose bodies assign every
    ``self.<attr>`` in ``attrs``."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        assigned = {
            target.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Assign, ast.AnnAssign))
            for target in (sub.targets if isinstance(sub, ast.Assign) else [sub.target])
            if isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        }
        if set(attrs) <= assigned:
            found.append(node.name)
    return found


def test_one_kv_container():
    """``repro.nn.executor`` defines exactly one class holding ``k`` /
    ``v`` row lists: a new role for cached rows is a method on it, so
    nothing converts between containers either."""
    assert _classes_assigning(executor_module, "k", "v") == ["KVState"]
    assert not hasattr(GenerationAdapter, "capture")


@pytest.mark.parametrize("cls", [MultiHeadSelfAttention, TransformerEncoderLayer])
def test_one_inference_method_per_layer_class(cls):
    """A new way to run a layer incrementally is an argument of
    ``infer``, not a method next to it."""
    ladder = re.compile(r"infer_suffix|decode_step|kv_tap")
    assert not [name for name in dir(cls) if ladder.search(name)]
    assert list(inspect.signature(cls.infer).parameters) == [
        "self", "x", "backend", "kv", "index",
    ]


def test_one_attention_entry_point():
    source = Path(layers_module.__file__).read_text()
    assert source.count("self._attend(") == 1


def test_one_loop_over_the_layers():
    """``TinyBERT`` iterates its layers in the training path and in the
    one incremental pass — every inference entry point calls the latter."""
    tree = ast.parse(inspect.getsource(TinyBERT).lstrip())
    looping = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, (ast.For, ast.comprehension))
            and "self.layers" in ast.unparse(node.iter)
            for node in ast.walk(fn)
        )
    ]
    assert sorted(looping) == ["_encode", "forward"]
    for name in ("infer", "prefill", "decode_step"):
        assert "self._encode(" in inspect.getsource(getattr(TinyBERT, name))
    assert not hasattr(TinyBERT, "infer_suffix")
