"""Graph convolutional network (the paper's GNN family, Kipf & Welling).

Two :class:`~repro.nn.layers.GraphConv` layers with ReLU — the paper's
GCN [17].  The normalized adjacency ``A_hat = D^-1/2 (A + I) D^-1/2`` is
precomputed by :func:`normalized_adjacency` and both per-layer products
map to GEMMs on the array.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.layers import GraphConv, Module


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalization ``D^-1/2 (A + I) D^-1/2``."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    degrees = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degrees, 1e-12))
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


class GCN(Module):
    """Two-layer GCN node classifier."""

    def __init__(
        self,
        in_features: int,
        hidden: int = 16,
        n_classes: int = 4,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.gc1 = GraphConv(in_features, hidden, rng)
        self.gc2 = GraphConv(hidden, n_classes, rng)

    def forward(self, features: np.ndarray, a_hat: np.ndarray) -> Tensor:
        h = self.gc1.forward(Tensor(features), a_hat).relu()
        return self.gc2.forward(h, a_hat)

    def infer(self, features: np.ndarray, a_hat: np.ndarray, backend) -> np.ndarray:
        with backend.model_pass():
            h = backend.relu(self.gc1.infer(features, a_hat, backend))
            return self.gc2.infer(h, a_hat, backend)

    def predict(self, features: np.ndarray, a_hat: np.ndarray, backend) -> np.ndarray:
        """Hard per-node class predictions."""
        return np.argmax(self.infer(features, a_hat, backend), axis=-1)
