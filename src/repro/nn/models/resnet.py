"""Residual CNN (the paper's CNN family, represented by ResNet).

:class:`SmallResNet` is a compact residual network trainable in seconds
on the synthetic image tasks, with exactly the op types of Fig. 1(a):
im2col GEMMs, batchnorm, ReLU and a final softmax.  The full-size
ResNet-50 used in the performance experiments lives as a workload
descriptor in :mod:`repro.nn.workload`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    Module,
    ReLU,
)


class ResidualBlock(Module):
    """Two 3×3 conv-BN stages with an identity (or 1×1-projected) skip."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
    ):
        super().__init__()
        self.conv1 = Conv2d(in_channels, out_channels, 3, rng, stride=stride, padding=1)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, rng, padding=1)
        self.bn2 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2d(in_channels, out_channels, 1, rng, stride=stride)
            self.proj_bn = BatchNorm2d(out_channels)
        else:
            self.proj = None
            self.proj_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        skip = x
        if self.proj is not None:
            skip = self.proj_bn(self.proj(x))
        return self.relu(out + skip)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        with backend.model_pass():
            out = backend.relu(self.bn1.infer(self.conv1.infer(x, backend), backend))
            out = self.bn2.infer(self.conv2.infer(out, backend), backend)
            skip = x
            if self.proj is not None:
                skip = self.proj_bn.infer(self.proj.infer(x, backend), backend)
            return backend.relu(out + skip)


class BottleneckBlock(Module):
    """ResNet-50-style bottleneck: 1×1 reduce → 3×3 → 1×1 expand.

    The 1×1 convolutions dominate the block's GEMM count (small reduction
    dimension, wide output), which is exactly the shape regime where the
    array's output-stationary tiling issues many small tiles — the
    workload the traced-path benchmarks exercise.  ``in_channels`` must
    equal ``expansion * mid_channels`` for the identity skip; otherwise a
    1×1 projection (with stride) is inserted, as in the reference
    architecture.
    """

    expansion = 4

    def __init__(
        self,
        in_channels: int,
        mid_channels: int,
        rng: np.random.Generator,
        stride: int = 1,
    ):
        super().__init__()
        out_channels = self.expansion * mid_channels
        self.conv1 = Conv2d(in_channels, mid_channels, 1, rng)
        self.bn1 = BatchNorm2d(mid_channels)
        self.conv2 = Conv2d(mid_channels, mid_channels, 3, rng, stride=stride, padding=1)
        self.bn2 = BatchNorm2d(mid_channels)
        self.conv3 = Conv2d(mid_channels, out_channels, 1, rng)
        self.bn3 = BatchNorm2d(out_channels)
        self.relu = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.proj = Conv2d(in_channels, out_channels, 1, rng, stride=stride)
            self.proj_bn = BatchNorm2d(out_channels)
        else:
            self.proj = None
            self.proj_bn = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.relu(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        skip = x
        if self.proj is not None:
            skip = self.proj_bn(self.proj(x))
        return self.relu(out + skip)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        with backend.model_pass():
            out = backend.relu(self.bn1.infer(self.conv1.infer(x, backend), backend))
            out = backend.relu(
                self.bn2.infer(self.conv2.infer(out, backend), backend)
            )
            out = self.bn3.infer(self.conv3.infer(out, backend), backend)
            skip = x
            if self.proj is not None:
                skip = self.proj_bn.infer(self.proj.infer(x, backend), backend)
            return backend.relu(out + skip)


class SmallResNet(Module):
    """Residual CNN for ``(N, C, H, W)`` images (8×8 by default).

    Architecture: conv stem → two residual blocks (the second downsamples)
    → global average pool → linear classifier.  Logits are returned; the
    loss applies softmax.
    """

    def __init__(
        self,
        in_channels: int = 1,
        n_classes: int = 10,
        width: int = 8,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.stem = Conv2d(in_channels, width, 3, rng, padding=1)
        self.stem_bn = BatchNorm2d(width)
        self.relu = ReLU()
        self.block1 = ResidualBlock(width, width, rng)
        self.block2 = ResidualBlock(width, 2 * width, rng, stride=2)
        self.pool = AvgPool2d(4)
        self.flatten = Flatten()
        self.fc = Linear(2 * width, n_classes, rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.stem_bn(self.stem(x)))
        out = self.block1(out)
        out = self.block2(out)
        out = self.flatten(self.pool(out))
        return self.fc(out)

    def infer(self, x: np.ndarray, backend) -> np.ndarray:
        with backend.model_pass():
            out = backend.relu(
                self.stem_bn.infer(self.stem.infer(x, backend), backend)
            )
            out = self.block1.infer(out, backend)
            out = self.block2.infer(out, backend)
            out = self.flatten.infer(self.pool.infer(out, backend), backend)
            return self.fc.infer(out, backend)

    def predict(self, x: np.ndarray, backend) -> np.ndarray:
        """Hard class predictions."""
        return np.argmax(self.infer(x, backend), axis=-1)
