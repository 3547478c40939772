"""Autograd engine tests: gradients checked against finite differences."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, cross_entropy
from repro.nn import functional as F


def numerical_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at numpy point x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(op, shape, seed=0, atol=1e-4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    num = numerical_grad(lambda arr: float(op(Tensor(arr)).sum().data), x.copy())
    assert np.allclose(t.grad, num, atol=atol), f"grad mismatch max {np.abs(t.grad - num).max()}"


class TestElementwiseGrads:
    def test_add(self):
        check_grad(lambda t: t + 2.0, (3, 4))

    def test_mul(self):
        check_grad(lambda t: t * 3.0, (3, 4))

    def test_mul_tensors(self):
        rng = np.random.default_rng(1)
        other = Tensor(rng.normal(size=(3, 4)))
        check_grad(lambda t: t * other, (3, 4))

    def test_div(self):
        check_grad(lambda t: t / 2.5, (2, 3))

    def test_rsub(self):
        check_grad(lambda t: 1.0 - t, (4,))

    def test_pow(self):
        check_grad(lambda t: (t * t + 1.0) ** 0.5, (3,))

    def test_relu(self):
        check_grad(lambda t: t.relu(), (5, 5), seed=2)

    def test_gelu(self):
        check_grad(lambda t: t.gelu(), (4, 4), seed=3)

    def test_tanh(self):
        check_grad(lambda t: t.tanh(), (4,))

    def test_sigmoid(self):
        check_grad(lambda t: t.sigmoid(), (4,))

    def test_exp_log(self):
        check_grad(lambda t: (t.exp() + 1.0).log(), (3, 3))


class TestShapeAndReduceGrads:
    def test_matmul(self):
        rng = np.random.default_rng(4)
        b = Tensor(rng.normal(size=(4, 2)))
        check_grad(lambda t: t @ b, (3, 4))

    def test_matmul_batched(self):
        rng = np.random.default_rng(5)
        b = Tensor(rng.normal(size=(2, 4, 3)))
        check_grad(lambda t: t @ b, (2, 5, 4))

    def test_broadcast_add_grad_shapes(self):
        a = Tensor(np.zeros((3, 4)), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.all(b.grad == 3)

    def test_reshape(self):
        check_grad(lambda t: t.reshape(6), (2, 3))

    def test_transpose(self):
        check_grad(lambda t: t.transpose(1, 0), (2, 3))

    def test_getitem(self):
        check_grad(lambda t: t[1:], (4, 3))

    def test_sum_axis(self):
        check_grad(lambda t: t.sum(axis=1), (3, 4))

    def test_mean_tuple_axis(self):
        check_grad(lambda t: t.mean(axis=(0, 1), keepdims=True), (2, 3, 4))

    def test_max_axis(self):
        check_grad(lambda t: t.max(axis=1), (3, 5), seed=6)

    def test_softmax(self):
        check_grad(lambda t: t.softmax(axis=-1), (3, 5), seed=7)

    def test_log_softmax(self):
        check_grad(lambda t: t.log_softmax(axis=-1), (3, 5), seed=8)


class TestGraphMechanics:
    def test_grad_accumulates_over_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_no_grad_tracking_without_flag(self):
        x = Tensor(np.array([1.0]))
        y = x * 2
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        a = x * 2
        b = x * 5
        ((a + b) * 1.0).backward()
        assert x.grad[0] == pytest.approx(7.0)


class TestLosses:
    def test_cross_entropy_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 2.0]]), requires_grad=True)
        labels = np.array([0, 1])
        loss = cross_entropy(logits, labels)
        manual = -np.log(np.exp(2) / (np.exp(2) + 1))
        assert loss.item() == pytest.approx(manual)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 1])
        t = Tensor(x.copy(), requires_grad=True)
        cross_entropy(t, labels).backward()
        num = numerical_grad(
            lambda arr: float(cross_entropy(Tensor(arr), labels).data), x.copy()
        )
        assert np.allclose(t.grad, num, atol=1e-4)


class TestFunctionalGrads:
    def test_conv2d_grads(self):
        rng = np.random.default_rng(10)
        x_data = rng.normal(size=(2, 2, 5, 5))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(x_data.copy(), requires_grad=True)
        out = F.conv2d(x, w, b, padding=1)
        out.sum().backward()
        num = numerical_grad(
            lambda arr: float(F.conv2d(Tensor(arr), Tensor(w.data), Tensor(b.data), padding=1).sum().data),
            x_data.copy(),
        )
        assert np.allclose(x.grad, num, atol=1e-4)

    def test_conv2d_weight_grad(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w_data = rng.normal(size=(2, 1, 3, 3))
        w = Tensor(w_data.copy(), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        F.conv2d(x, w, b).sum().backward()
        num = numerical_grad(
            lambda arr: float(F.conv2d(x, Tensor(arr), Tensor(b.data)).sum().data),
            w_data.copy(),
        )
        assert np.allclose(w.grad, num, atol=1e-4)

    def test_conv2d_shape_validation(self):
        with pytest.raises(ValueError):
            F.conv2d(
                Tensor(np.zeros((1, 2, 4, 4))),
                Tensor(np.zeros((2, 3, 3, 3))),
                Tensor(np.zeros(2)),
            )

    def test_avgpool_grad(self):
        rng = np.random.default_rng(13)
        x_data = rng.normal(size=(1, 2, 4, 4))
        x = Tensor(x_data.copy(), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_im2col_matches_direct_conv(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        cols, (oh, ow) = F.im2col(x, 3)
        out = (cols @ w.reshape(1, -1).T).reshape(1, oh, ow)
        # Direct correlation for reference.
        ref = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                ref[i, j] = np.sum(x[0, 0, i : i + 3, j : j + 3] * w[0, 0])
        assert np.allclose(out[0], ref)

    def test_embedding_grad(self):
        table = Tensor(np.random.default_rng(15).normal(size=(5, 3)), requires_grad=True)
        idx = np.array([[0, 1], [1, 4]])
        F.embedding_lookup(table, idx).sum().backward()
        assert table.grad[1].sum() == pytest.approx(2 * 3.0, abs=1e-9)
        assert np.all(table.grad[2] == 0)
