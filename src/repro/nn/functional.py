"""Forward/backward kernels that need custom (non-composed) rules.

Convolution is expressed through im2col so that on the accelerator side
it maps to exactly the GEMM the systolic array executes (the paper's
"im2col-based convolution", Section II-A); pooling uses window
reshaping.  Each op builds a custom autograd node so training stays
vectorized.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.autograd import Tensor


def im2col(
    images: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` images into GEMM-ready patch rows.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(N * out_h * out_w, C * kernel * kernel)`` — multiplying by a
    ``(C k k, F)`` weight matrix is the convolution, which is how the
    executor maps conv layers onto the array.
    """
    n, c, h, w = images.shape
    if padding:
        images = np.pad(
            images,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    strides = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold patch rows back into image gradients (inverse of im2col)."""
    n, c, h, w = image_shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    windows = cols.reshape(n, out_h, out_w, c, kernel, kernel)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                :,
                ki : ki + out_h * stride : stride,
                kj : kj + out_w * stride : stride,
            ] += windows[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution: ``x (N,C,H,W)``, ``weight (F,C,k,k)``, ``bias (F,)``."""
    n, c, h, w = x.shape
    f, c2, kernel, kernel2 = weight.shape
    if c != c2 or kernel != kernel2:
        raise ValueError(f"incompatible conv shapes {x.shape} and {weight.shape}")
    cols, (out_h, out_w) = im2col(x.data, kernel, stride, padding)
    w_mat = weight.data.reshape(f, -1)  # (F, Ckk)
    out_mat = cols @ w_mat.T + bias.data  # (N*oh*ow, F)
    out_data = out_mat.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, f)
        if weight.requires_grad:
            weight._accumulate((grad_mat.T @ cols).reshape(weight.shape))
        if bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=0))
        if x.requires_grad:
            grad_cols = grad_mat @ w_mat
            x._accumulate(col2im(grad_cols, x.shape, kernel, stride, padding))

    return x._make(out_data, (x, weight, bias), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int = None) -> Tensor:
    """Average pooling over square windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    strides = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    out_data = windows.mean(axis=(-2, -1))
    scale = 1.0 / (kernel * kernel)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_input = np.zeros_like(x.data)
        for ki in range(kernel):
            for kj in range(kernel):
                grad_input[
                    :,
                    :,
                    ki : ki + out_h * stride : stride,
                    kj : kj + out_w * stride : stride,
                ] += grad * scale
        x._accumulate(grad_input)

    return x._make(out_data, (x,), backward)


def embedding_lookup(table: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding table for integer ``indices``."""
    indices = np.asarray(indices)
    out_data = table.data[indices]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, indices, grad)
            table._accumulate(full)

    return table._make(out_data, (table,), backward)
