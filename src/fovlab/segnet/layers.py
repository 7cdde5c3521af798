"""Array-level layer primitives with explicit forward/backward pairs.

Activations are channels-last (N, H, W, C) for cache-friendly im2col;
parameter tensors keep the (out, in, kh, kw) layout used by checkpoints.
Convolutions are stride-1 with "same" padding (3x3) or pointwise (1x1);
pooling and upsampling use factor 2.

Every forward returns (output, cache); the cache holds what the matching
backward reads, for a 3x3 conv the whole im2col matrix. Passes that run no
backward give each forward an `out` in a `network.Workspace` instead: it
allocates nothing, keeps no cache, and a 3x3 conv reads a zero-bordered buffer.
"""

from __future__ import annotations

import numpy as np

COL_BLOCK_BYTES = 256 * 1024  # column block of a workspace conv: fits L2 with room for its GEMM


def _im2col3(xp: np.ndarray) -> np.ndarray:
    """Zero-bordered (N, H+2, W+2, C) -> (N, H, W, 3, 3*C) view of the 3x3 patches:
    rows of 3*C contiguous values, so one strided copy gives _w_mat's column order."""
    n, hp, wp, c = xp.shape
    s = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, hp - 2, wp - 2, 3, 3 * c), (s[0], s[1], s[2], s[1], s[3]), writeable=False)


def _w_mat(W: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (9*C, O) matching the im2col column order."""
    o, c = W.shape[:2]
    return W.transpose(2, 3, 1, 0).reshape(9 * c, o)


def conv3x3_forward(x, W, b, xp=None, w_mat=None, cols=None, out=None):
    """3x3 same conv of x, the interior of zero-bordered `xp` (padded if None).
    With a column block `cols`, rows of patches are unfolded into it a few at a
    time and multiplied by w_mat = _w_mat(W) into `out` while still in L2. Both
    forms run one GEMM per (sample, row) on equal operands: equal bits."""
    n, h, w, c = x.shape
    if xp is None:
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    if cols is None:
        cols = np.ascontiguousarray(_im2col3(xp)).reshape(n, h, w, 9 * c)
        out = cols @ _w_mat(W)
        out += b
        return out, (cols, x.shape, W)
    win = _im2col3(xp)
    rows = cols.size // (w * 9 * c)
    if rows == 0:  # one row is larger than the block
        cols, rows = np.empty(w * 9 * c, cols.dtype), 1
    blk = cols[:rows * w * 9 * c].reshape(rows, w, 9 * c)
    # with contiguous output rows, the bias add runs over whole rows, not C at a time
    flat = out.strides[2] == out.strides[3] * out.shape[3]
    acc, bias = (np.reshape(out, (n, h, -1), copy=False), np.tile(b, w)) if flat else (out, b)
    for i in range(n):
        for r in range(0, h, rows):
            k = min(rows, h - r)
            np.copyto(blk[:k].reshape(k, w, 3, 3 * c), win[i, r:r + k])
            np.matmul(blk[:k], w_mat, out=out[i, r:r + k])
            acc[i, r:r + k] += bias
    return out, None


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


def relu_forward(x, out=None):
    """ReLU; into `out` (which may be x) without the backward mask."""
    return np.maximum(x, 0.0, out=out), (x > 0 if out is None else None)


def relu_backward(dout, mask):
    return dout * mask


def maxpool2_forward(x, out=None):
    """2x2 max-pool; into `out` as max(max(x00, x01), max(x10, x11)) (ReLU left no -0.0
    to tie with 0.0, so it is the argmax's value), without the argmax."""
    if out is not None:
        np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2], out=out)
        return np.maximum(out, np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]), out=out), None
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


def upsample2_forward(x, out=None):
    """Nearest-neighbour 2x upsample, into `out` as one broadcast copy."""
    n, h, w, c = x.shape
    out = np.empty((n, 2 * h, 2 * w, c), x.dtype) if out is None else out
    np.reshape(out, (n, h, 2, w, 2, c), copy=False)[...] = x[:, :, None, :, None, :]
    return out


def upsample2_backward(dout):
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


def dropout_forward(x, rate: float, rng, out=None):
    """Inverted dropout into `out` (may be x); identity if rng is None or rate == 0."""
    if rng is None or rate <= 0.0:
        if out is not None:
            out[...] = x
        return x if out is None else out, None
    mask = (rng.uniform(size=x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return np.multiply(x, mask, out=out), mask


def dropout_backward(dout, mask):
    return dout if mask is None else dout * mask


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
