"""Array-level layer primitives with explicit forward/backward pairs.

Activations are channels-last (N, H, W, C) for cache-friendly im2col;
parameter tensors keep the (out, in, kh, kw) layout used by checkpoints.
Convolutions are stride-1 with "same" padding (3x3) or pointwise (1x1);
pooling and upsampling use factor 2.

Every forward writes into an `out` in a `network.Workspace`. A backward's
cache is a view of those buffers: a 3x3 conv keeps its zero-bordered input and
takes its nine shifted windows in turn, so no im2col matrix is built outside the
forward's column block; ReLU takes its mask from its output, max-pool its
routing from its input. Dropout keeps a bool keep mask, 1 byte a cell. The ReLU
and dropout backwards overwrite their `dout` with the result.

A 3x3 conv backward runs in two phases, so it holds one input-sized array at
a time: dW from the nine windows, one GEMM each over all cells, then dx in
blocks of whole samples, or of rows of one, that fit the column block. Every
gradient has the bits of one GEMM per tap over all cells, with OpenBLAS,
because each block's GEMM covers whole groups of the kernel's rows and is never
one row (a GEMV) alone. One-channel products are GEMVs, and one-channel sums
follow the memory layout, so a conv with C = 1 or O = 1 (a base width of 1)
rounds as its inputs' layout has it, not as any former form did.

A 3x3 conv of a nearest-2x upsample never needs the upsampled copy. Its forward
can run as four 2x2 convs of the bordered source, one per output phase, with
the taps that read one source cell summed (sub-pixel convolution, Shi et al.
2016): fewer FLOPs, other rounding. Its backward takes the nine windows of the
upsampled input straight from the bordered source, with the same bits.
"""

from __future__ import annotations

import numpy as np

COL_BLOCK_BYTES = 256 * 1024  # column block of a conv forward: fits L2 with room for its GEMM


def _patches(xp: np.ndarray, k: int) -> np.ndarray:
    """Zero-bordered (N, H+2, W+2, C) -> (N, H+3-k, W+3-k, k, k*C) view of the kxk
    patches: rows of k*C contiguous values, so one strided copy gives the column
    order of _w_mat (k = 3) and _phase_mats (k = 2)."""
    n, hp, wp, c = xp.shape
    s = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, hp + 1 - k, wp + 1 - k, k, k * c), (s[0], s[1], s[2], s[1], s[3]),
        writeable=False)


def _w_mat(W: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (9*C, O) matching the im2col column order."""
    o, c = W.shape[:2]
    return W.transpose(2, 3, 1, 0).reshape(9 * c, o)


def _phase_mats(W: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) -> (2, 2, 4*C, O): for output phase (pr, pc) of a 3x3 conv of a
    nearest-2x upsample, the 2x2 conv weights on the bordered source, in the
    column order of its 2x2 patches. Along each axis, phase 0 reads source
    offsets (-1, 0) with taps (0, 1+2), and phase 1 offsets (0, +1) with (0+1, 2)."""
    def fold(V, axis):  # (.., 3 taps, ..) -> (2 phases, .., 2 taps, ..)
        t = [np.take(V, i, axis) for i in range(3)]
        return np.stack([np.stack([t[0], t[1] + t[2]], axis), np.stack([t[0] + t[1], t[2]], axis)])
    o, c = W.shape[:2]
    folded = fold(fold(W, 2), 4)  # (pc, pr, O, C, 2, 2)
    return folded.transpose(1, 0, 4, 5, 3, 2).reshape(2, 2, 4 * c, o)


def conv3x3_forward(x, W, b, xp, w_mat, cols, out):
    """3x3 same conv of x, the interior of zero-bordered `xp`, into `out`; cache
    (xp, x_shape, W). Rows of patches are unfolded into the column block `cols`
    and multiplied by w_mat = _w_mat(W) while still in L2: one GEMM per (sample,
    row), as on the whole im2col matrix, so the bits are equal.

    An `out` twice x's height takes the conv of x's nearest-2x upsample, with
    w_mat = _phase_mats(W): output phase (pr, pc) is the GEMM of x's 2x2 patches
    from bordered offset (pr, pc), written to out[:, pr::2, pc::2]."""
    n, h, w, c = x.shape
    up = out.shape[1] != h
    k = 2 if up else 3
    win, mats = _patches(xp, k), w_mat.reshape(-1, k * k * c, w_mat.shape[-1])
    rows = cols.size // (w * k * k * c)
    if rows == 0:  # one row is larger than the block
        cols, rows = np.empty(w * k * k * c, cols.dtype), 1
    blk = cols[:rows * w * k * k * c].reshape(rows, w, k * k * c)
    # with contiguous output rows, the bias add runs over whole rows, not C at a time
    flat = not up and out.strides[2] == out.strides[3] * out.shape[3]
    acc, bias = (np.reshape(out, (n, h, -1), copy=False), np.tile(b, w)) if flat else (None, b)
    for i in range(n):
        for r in range(0, h, rows):
            m = min(rows, h - r)
            for phase, mat in enumerate(mats):
                pr, pc = divmod(phase, 2)
                np.copyto(blk[:m].reshape(m, w, k, k * c), win[i, r + pr:r + pr + m, pc:pc + w])
                dst = out[i, 2 * r + pr:2 * (r + m):2, pc::2] if up else out[i, r:r + m]
                np.matmul(blk[:m], mat, out=dst)
                if flat:
                    acc[i, r:r + m] += bias
                else:
                    dst += bias
    return out, (xp, x.shape, W)


def conv3x3_backward(dout, cache, input_grad: bool = True):
    """Gradients (dx, dW, db) of a 3x3 conv from its (xp, x_shape, W) cache;
    dx is None without `input_grad`, for a conv on the network's input.

    Phase 1, dW: one (N, H, W, C) buffer takes each tap's shifted window of xp
    in (di, dj) order, and dW[tap] = window^T @ dout is one GEMM over all N*H*W
    cells, so the sum over cells is never split. The buffer is freed after it.

    Phase 2, dx: the unbordered dx is filled block by block. A block is as many
    whole samples as fit COL_BLOCK_BYTES, or, when one sample does not, as many
    of its rows. For each tap in (di, dj) order, one GEMM takes every dout row
    the block reads times that tap's contiguous (O, C) weight block into a
    block-sized scratch buffer, whose shifted window is added into dx. So every
    cell receives its nine taps in (di, dj) order from +0.0 (kn2row, Vasudevan,
    Anderson & Gregg 2017, run backwards), as one GEMM per tap over all cells
    would give it.

    A row of a GEMM rounds as in one over all of dout only if it falls in the
    same group of the BLAS kernel's rows (OpenBLAS takes them 4 at a time from
    the first), and a one-row product is a GEMV, which rounds otherwise. So each
    block's GEMM starts and ends on a multiple of 8 rows of dout, or at its end,
    and is never one row alone. dx is a new array, not the interior of a
    bordered one, and an up conv's channel-half dout is read in place, not
    copied: GEMMs do not see the layout, but one-channel GEMVs and sums do.

    When xp is the bordered (N, H/2+2, W/2+2, C) source of a nearest-2x upsample
    whose conv this is, each window is gathered from it cell by cell (window
    cell (i, j) reads source cell ((di+i+1)//2, (dj+j+1)//2)): the same buffer,
    so the same bits, without the upsampled input.
    """
    xp, x_shape, W = cache
    n, h, w, c = x_shape
    o = W.shape[0]
    d = dout.reshape(-1, o)
    tap = np.empty(x_shape, dout.dtype)
    dmat = np.empty((3, 3, c, o), dout.dtype)
    up = xp.shape[1] != h + 2
    if up:
        src = xp.reshape(n, -1, c)
        rows = [(np.arange(h) + di + 1) // 2 * xp.shape[2] for di in range(3)]
        cols = [(np.arange(w) + dj + 1) // 2 for dj in range(3)]
    for di in range(3):
        for dj in range(3):
            if up:  # mode "clip" takes into `tap` unbuffered; every index is in range
                np.take(src, (rows[di][:, None] + cols[dj]).ravel(), axis=1,
                        out=tap.reshape(n, -1, c), mode="clip")
            else:
                np.copyto(tap, xp[:, di:di + h, dj:dj + w])
            np.matmul(tap.reshape(-1, c).T, d, out=dmat[di, dj])
    del tap
    dW, db = dmat.transpose(3, 2, 0, 1), dout.sum(axis=(0, 1, 2))
    if not input_grad:
        return None, dW, db
    w_taps = np.ascontiguousarray(W.transpose(2, 3, 0, 1))  # (3, 3, O, C)
    dx = np.zeros(x_shape, dout.dtype)
    fit = COL_BLOCK_BYTES // (w * c * dout.itemsize)  # dx rows that fit a block
    per, height = (min(n, fit // h), h) if fit >= h else (1, max(fit, 1))
    group = 8  # a block's GEMM runs over whole groups of d's rows
    span = per * h if height == h else height + 2  # dout rows a block reads, at most
    scratch = np.empty((span * w + 2 * group) * c, dout.dtype)
    for i in range(0, n, per):
        k = min(i + per, n)
        for r in range(0, h, height):
            e = min(r + height, h)
            a, b = max(r - 1, 0), min(e + 1, h)  # dout rows [a, b) feed dx rows [r, e)
            first, stop = (i * h + a) * w, ((k - 1) * h + b) * w  # as rows of d
            lo, hi = first - first % group, min(stop - stop % -group, len(d))
            lo = max(lo - group, 0) if hi - lo == 1 else lo
            g = scratch[:(hi - lo) * c].reshape(-1, c)
            blk = g[first - lo:stop - lo].reshape(k - i, b - a, w, c)
            for di in range(3):
                y0, y1 = max(r, a + di - 1), min(e, b + di - 1)
                for dj in range(3):
                    np.matmul(d[lo:hi], w_taps[di, dj], out=g)
                    x0, x1 = max(dj - 1, 0), min(w + dj - 1, w)
                    dx[i:k, y0:y1, x0:x1] += blk[:, y0 + 1 - di - a:y1 + 1 - di - a,
                                                 x0 + 1 - dj:x1 + 1 - dj]
    return dx, dW, db


def conv1x1_forward(x, W, b):
    out = x @ W[:, :, 0, 0].T + b
    return out, (x, W)


def conv1x1_backward(dout, cache):
    x, W = cache
    dW = np.tensordot(dout, x, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
    db = dout.sum(axis=(0, 1, 2))
    dx = dout @ W[:, :, 0, 0]
    return dx, dW, db


def relu_forward(x, out):
    """ReLU into `out` (which may be x); the output is the backward's cache."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(dout, out):
    """ReLU gradient from its output (out > 0 iff x > 0), written into `dout`.
    `out` may be the output after dropout (in place, or a dropped copy): it
    zeroed only cells whose dout is already +-0, equal under either mask."""
    return np.multiply(dout, out > 0, out=dout)


def maxpool2_forward(x, out):
    """2x2 max-pool into `out` as max(max(x00, x01), max(x10, x11)) (ReLU left no
    -0.0 to tie with 0.0, so it is the argmax's value)."""
    np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2], out=out)
    return np.maximum(out, np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]), out=out)


def maxpool2_backward(dout, cache):
    """Route each gradient to the first cell of its window, in (00, 01, 10, 11)
    order, that equals the pooled output (cache (x, out)): the argmax's cell."""
    x, out = cache
    dx = np.zeros(x.shape, dout.dtype)
    free = np.ones(out.shape, bool)
    for i in (0, 1):
        for j in (0, 1):
            hit = free & (x[:, i::2, j::2] == out)
            np.copyto(dx[:, i::2, j::2], dout, where=hit)
            free &= ~hit
    return dx


def upsample2_forward(x, out):
    """Nearest-neighbour 2x upsample into `out`, as one broadcast copy."""
    n, h, w, c = x.shape
    np.reshape(out, (n, h, 2, w, 2, c), copy=False)[...] = x[:, :, None, :, None, :]
    return out


def upsample2_backward(dout):
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


def _drop(x, keep, rate, out):
    """x * keep / (1 - rate) into `out`: x * keep then times the scale in x's
    dtype, the bits of x times the float keep mask it replaces."""
    np.multiply(x, keep, out=out)
    out *= x.dtype.type(1.0) / (1.0 - rate)
    return out


def dropout_forward(x, rate: float, rng, out):
    """Inverted dropout into `out` (may be x) -> (out, cache), cache the bool
    keep mask and the rate; a copy with cache None if rng is None or rate == 0.
    rng.random draws the stream and the doubles of rng.uniform."""
    if rng is None or rate <= 0.0:
        out[...] = x
        return out, None
    keep = rng.random(size=x.shape) >= rate
    return _drop(x, keep, rate, out), (keep, rate)


def dropout_backward(dout, cache):
    """Dropout gradient from its (keep, rate) cache, written into `dout`."""
    return dout if cache is None else _drop(dout, *cache, out=dout)


def sigmoid(x):
    """1 / (1 + exp(-x)), as exp(-|x|) over 1 + exp(-|x|) where x < 0, so that
    no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
