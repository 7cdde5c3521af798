"""Array-level layer primitives with explicit forward/backward pairs.

Activations are channels-last (N, H, W, C) for cache-friendly im2col;
parameter tensors keep the (out, in, kh, kw) layout used by checkpoints.
Convolutions are stride-1 with "same" padding (3x3) or pointwise (1x1);
pooling and upsampling use factor 2.

Every forward returns (output, cache). The cache holds what the matching
backward reads, for a 3x3 conv the whole im2col matrix: a caller that will
not run backward drops it at once, so the matrix is freed right after its
GEMM (see `network.forward_batch`).
"""

from __future__ import annotations

import numpy as np


def _im2col3(x: np.ndarray) -> np.ndarray:
    """(N, H, W, C) -> (N, H, W, 9*C) patch matrix for a 3x3 same conv."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    # win is (N, H, W, C, 3, 3); put the window dims ahead of channels
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n, h, w, 9 * c)


def _w_mat(W: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (9*C, O) matching the im2col column order."""
    o, c = W.shape[:2]
    return W.transpose(2, 3, 1, 0).reshape(9 * c, o)


def conv3x3_forward(x, W, b):
    cols = _im2col3(x)
    out = cols @ _w_mat(W)
    out += b
    return out, (cols, x.shape, W)


def conv3x3_backward(dout, cache):
    """Gradients (dx, dW, db) of a 3x3 conv from its (cols, x_shape, W) cache.

    dx is col2im of dcols = dout @ W_mat^T, built one sample at a time so that
    only an (H, W, 9C) dcols is live instead of (N, H, W, 9C). This is the
    same arithmetic as the whole-batch form: numpy's matmul issues one BLAS
    call per (sample, row) matrix in both, and every cell still receives its
    nine taps in the same (di, dj) order, so dx is equal bit for bit.
    """
    cols, x_shape, W = cache
    n, h, w, c = x_shape
    o = W.shape[0]
    dmat = np.tensordot(cols, dout, axes=([0, 1, 2], [0, 1, 2]))  # (9C, O)
    dW = dmat.reshape(3, 3, c, o).transpose(3, 2, 0, 1)
    db = dout.sum(axis=(0, 1, 2))
    w_t = _w_mat(W).T
    dxp = np.zeros((n, h + 2, w + 2, c), dtype=dout.dtype)
    for i in range(n):
        dcols = (dout[i] @ w_t).reshape(h, w, 3, 3, c)
        for di in range(3):
            for dj in range(3):
                dxp[i, di:di + h, dj:dj + w, :] += dcols[:, :, di, dj, :]
    return dxp[:, 1:h + 1, 1:w + 1, :], dW, db


def conv1x1_forward(x, W, b):
    out = x @ W[:, :, 0, 0].T + b
    return out, (x, W)


def conv1x1_backward(dout, cache):
    x, W = cache
    dW = np.tensordot(dout, x, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
    db = dout.sum(axis=(0, 1, 2))
    dx = dout @ W[:, :, 0, 0]
    return dx, dW, db


def relu_forward(x):
    return np.maximum(x, 0.0), x > 0


def relu_backward(dout, mask):
    return dout * mask


def maxpool2_forward(x):
    n, h, w, c = x.shape
    xr = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5) \
          .reshape(n, h // 2, w // 2, 4, c)
    arg = xr.argmax(axis=3)
    out = np.take_along_axis(xr, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, (arg, x.shape)


def maxpool2_backward(dout, cache):
    arg, x_shape = cache
    n, h, w, c = x_shape
    dxr = np.zeros((n, h // 2, w // 2, 4, c), dtype=dout.dtype)
    np.put_along_axis(dxr, arg[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    return dxr.reshape(n, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5) \
              .reshape(n, h, w, c)


def upsample2_forward(x):
    return x.repeat(2, axis=1).repeat(2, axis=2)


def upsample2_backward(dout):
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


def dropout_forward(x, rate: float, rng):
    """Inverted dropout; identity when inactive (rng is None) or rate == 0."""
    if rng is None or rate <= 0.0:
        return x, None
    mask = (rng.uniform(size=x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * mask, mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
