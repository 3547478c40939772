"""Optimizers and training loops for the small models.

The accuracy experiment needs each stand-in network trained once to a
reasonable baseline; Adam plus a few hundred mini-batches suffices at
these scales.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.nn.autograd import Tensor, cross_entropy
from repro.nn.layers import Module


class Adam:
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: List[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= self.beta1
            m += (1 - self.beta1) * p.grad
            v *= self.beta2
            v += (1 - self.beta2) * p.grad**2
            m_hat = m / (1 - self.beta1**self._t)
            v_hat = v / (1 - self.beta2**self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.mark_dirty()  # invalidate cached quantized forms

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


@dataclass
class TrainLog:
    """Per-epoch loss/accuracy history."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)


def iterate_minibatches(
    n_samples: int, batch_size: int, rng: np.random.Generator
):
    """Yield shuffled index batches covering all samples once."""
    order = rng.permutation(n_samples)
    for start in range(0, n_samples, batch_size):
        yield order[start : start + batch_size]


def train_classifier(
    model: Module,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int = 10,
    batch_size: int = 32,
    lr: float = 1e-2,
    seed: int = 0,
    forward: Optional[Callable] = None,
) -> TrainLog:
    """Train a classifier with Adam + cross-entropy.

    ``forward`` customises how a batch is pushed through the model
    (default ``model.forward(Tensor(batch))``); the GCN's full-graph
    training passes its own closure.
    """
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), lr=lr)
    log = TrainLog()
    forward = forward or (lambda batch: model.forward(Tensor(batch)))
    model.train()
    for _ in range(epochs):
        epoch_loss = 0.0
        correct = 0
        for idx in iterate_minibatches(len(labels), batch_size, rng):
            optimizer.zero_grad()
            logits = forward(inputs[idx])
            loss = cross_entropy(logits, labels[idx])
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item() * len(idx)
            correct += int((logits.data.argmax(axis=-1) == labels[idx]).sum())
        log.losses.append(epoch_loss / len(labels))
        log.accuracies.append(correct / len(labels))
    model.eval()
    return log


def train_gcn(
    model,
    features: np.ndarray,
    a_hat: np.ndarray,
    labels: np.ndarray,
    train_mask: np.ndarray,
    epochs: int = 150,
    lr: float = 1e-2,
) -> TrainLog:
    """Full-batch GCN training on masked nodes (the standard recipe)."""
    optimizer = Adam(model.parameters(), lr=lr)
    log = TrainLog()
    model.train()
    train_idx = np.flatnonzero(train_mask)
    for _ in range(epochs):
        optimizer.zero_grad()
        logits = model.forward(features, a_hat)
        loss = cross_entropy(logits[train_idx], labels[train_idx])
        loss.backward()
        optimizer.step()
        log.losses.append(loss.item())
        log.accuracies.append(
            float((logits.data[train_idx].argmax(axis=-1) == labels[train_idx]).mean())
        )
    model.eval()
    return log


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct hard predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"prediction/label shape mismatch: {predictions.shape} vs {labels.shape}"
        )
    return float((predictions == labels).mean())
