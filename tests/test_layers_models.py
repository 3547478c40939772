"""Layer and model tests: forward/infer agreement, training sanity."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.executor import CPWLBackend, FloatBackend, QuantizedFloatBackend
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    Module,
    MultiHeadSelfAttention,
    ReLU,
    TransformerEncoderLayer,
)
from repro.nn.models import GCN, SmallResNet, TinyBERT
from repro.nn.models.gcn import normalized_adjacency
from repro.nn.training import Adam, accuracy, train_classifier, train_gcn

RNG = np.random.default_rng(0)
FLOAT = FloatBackend()


def assert_forward_infer_agree(module, x, atol=1e-9):
    module.eval()
    forward = module.forward(Tensor(x)).data
    infer = module.infer(x, FLOAT)
    assert np.allclose(forward, infer, atol=atol)


class TestLayersAgree:
    def test_linear(self):
        layer = Linear(6, 4, RNG)
        assert_forward_infer_agree(layer, RNG.normal(size=(5, 6)))

    def test_conv(self):
        layer = Conv2d(2, 3, 3, RNG, padding=1)
        assert_forward_infer_agree(layer, RNG.normal(size=(2, 2, 6, 6)))

    def test_conv_strided(self):
        layer = Conv2d(2, 3, 3, RNG, stride=2, padding=1)
        assert_forward_infer_agree(layer, RNG.normal(size=(2, 2, 8, 8)))

    def test_batchnorm_eval_mode(self):
        layer = BatchNorm2d(3)
        x = RNG.normal(size=(4, 3, 5, 5))
        layer.train()
        layer.forward(Tensor(x))  # populate running stats
        assert_forward_infer_agree(layer, x, atol=1e-6)

    def test_layernorm(self):
        layer = LayerNorm(8)
        assert_forward_infer_agree(layer, RNG.normal(size=(3, 8)), atol=1e-6)

    def test_activations(self):
        for layer in (ReLU(), GELU()):
            assert_forward_infer_agree(layer, RNG.normal(size=(4, 4)))

    def test_pool_flatten_sequential(self):
        x = RNG.normal(size=(2, 3, 4, 4))
        pool = AvgPool2d(2)
        assert_forward_infer_agree(pool, x)
        assert_forward_infer_agree(Flatten(), pool.infer(x, FLOAT))

    def test_attention(self):
        layer = MultiHeadSelfAttention(16, 4, RNG)
        assert_forward_infer_agree(layer, RNG.normal(size=(2, 5, 16)), atol=1e-9)

    def test_attention_head_divisibility(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3, RNG)

    def test_encoder_layer(self):
        layer = TransformerEncoderLayer(16, 4, 32, RNG)
        assert_forward_infer_agree(layer, RNG.normal(size=(2, 5, 16)), atol=1e-6)


class TestModuleMechanics:
    def test_parameters_recursive(self):
        model = Module()
        model.layers = [Linear(4, 8, RNG), ReLU(), Linear(8, 2, RNG)]
        assert len(model.parameters()) == 4

    def test_train_eval_propagates(self):
        model = Module()
        model.layers = [BatchNorm2d(2)]
        model.eval()
        assert not model.layers[0].training
        model.train()
        assert model.layers[0].training

    def test_zero_grad(self):
        layer = Linear(3, 2, RNG)
        out = layer.forward(Tensor(np.ones((1, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_base_module_abstract(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor(np.zeros(1)))


class TestModels:
    def test_resnet_shapes(self):
        model = SmallResNet(in_channels=3, n_classes=7, seed=0)
        logits = model.forward(Tensor(RNG.normal(size=(4, 3, 8, 8))))
        assert logits.shape == (4, 7)

    def test_resnet_forward_infer_agree(self):
        model = SmallResNet(in_channels=1, n_classes=4, seed=0)
        x = RNG.normal(size=(2, 1, 8, 8))
        model.train()
        model.forward(Tensor(x))  # warm running stats
        model.eval()
        assert np.allclose(model.forward(Tensor(x)).data, model.infer(x, FLOAT), atol=1e-6)

    def test_bert_shapes(self):
        model = TinyBERT(vocab=16, seq_len=8, dim=16, heads=2, ff_dim=32, n_classes=3)
        tokens = RNG.integers(0, 16, size=(5, 8))
        assert model.forward(tokens).shape == (5, 3)
        assert model.infer(tokens, FLOAT).shape == (5, 3)

    def test_bert_forward_infer_agree(self):
        model = TinyBERT(vocab=16, seq_len=8, dim=16, heads=2, ff_dim=32).eval()
        tokens = RNG.integers(0, 16, size=(3, 8))
        assert np.allclose(model.forward(tokens).data, model.infer(tokens, FLOAT), atol=1e-6)

    def test_gcn_shapes_and_agreement(self):
        adj = (RNG.random((20, 20)) < 0.2).astype(float)
        adj = np.maximum(adj, adj.T)
        a_hat = normalized_adjacency(adj)
        model = GCN(in_features=8, hidden=6, n_classes=3).eval()
        feats = RNG.normal(size=(20, 8))
        fwd = model.forward(feats, a_hat).data
        inf = model.infer(feats, a_hat, FLOAT)
        assert fwd.shape == (20, 3)
        assert np.allclose(fwd, inf, atol=1e-9)

    def test_normalized_adjacency_properties(self):
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        a_hat = normalized_adjacency(adj)
        assert np.allclose(a_hat, a_hat.T)
        eigs = np.linalg.eigvalsh(a_hat)
        assert eigs.max() <= 1.0 + 1e-9

    def test_normalized_adjacency_validates(self):
        with pytest.raises(ValueError):
            normalized_adjacency(np.zeros((2, 3)))


class TestTraining:
    def test_adam_reduces_loss(self):
        layer = Linear(4, 1, np.random.default_rng(2))
        opt = Adam(layer.parameters(), lr=0.05)
        x = RNG.normal(size=(32, 4))
        target = x @ np.array([[1.0], [2.0], [-1.0], [0.5]])
        losses = []
        for _ in range(60):
            opt.zero_grad()
            loss = ((layer.forward(Tensor(x)) - Tensor(target)) ** 2).mean()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.1 * losses[0]

    def test_train_classifier_improves(self):
        from repro.data.synthetic import make_image_task

        task = make_image_task("t", n_classes=4, noise=0.3, n_train=128, n_test=64, seed=0)
        model = SmallResNet(in_channels=1, n_classes=4, seed=0)
        log = train_classifier(model, task.x_train, task.y_train, epochs=4, lr=3e-3)
        assert log.accuracies[-1] > 0.8
        assert log.losses[-1] < log.losses[0]

    def test_train_gcn_improves(self):
        from repro.data.synthetic import make_graph_task

        task = make_graph_task("g", n_nodes=80, seed=0)
        model = GCN(task.features.shape[1], hidden=8, n_classes=task.n_classes)
        log = train_gcn(model, task.features, task.a_hat, task.labels, task.train_mask, epochs=60)
        assert log.accuracies[-1] > 0.7

    def test_accuracy_helper(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            accuracy(np.array([1]), np.array([1, 2]))
