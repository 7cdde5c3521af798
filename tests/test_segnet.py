import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fovlab.errors import NumericError
from fovlab.segnet import layers
from fovlab.segnet import (NetConfig, Network, TrainConfig, binarize, infer_mcd, infer_mle,
                           load_checkpoint, parameter_count, save_checkpoint, train,
                           unet_init)
from fovlab.segnet.layers import (_patches, _phase_mats, _w_mat, conv1x1_forward,
                                  conv3x3_backward, conv3x3_forward, maxpool2_backward,
                                  maxpool2_forward, sigmoid)
from fovlab.segnet.network import (PROB_CLIP, Workspace, backward_batch, conv_specs,
                                   forward_batch, forward_maps, normalize_counts)
from fovlab.segnet.training import Adam, _bce, _bce_and_dlogits
from fovlab.types import BevImage, FovMask, GridSpec, ProbMap, seeded_rng

SPEC16 = GridSpec(extent=8.0, resolution=16)


@pytest.fixture
def rand_image():
    rng = np.random.default_rng(3)
    return BevImage(SPEC16, rng.integers(0, 6, (16, 16)))


@pytest.fixture
def rand_target():
    rng = np.random.default_rng(4)
    return FovMask(SPEC16, rng.uniform(size=(16, 16)) > 0.5)


def _unet(cfg: NetConfig, seed: int, dtype) -> Network:
    """unet_init's float32 weights, cast to `dtype`."""
    net = unet_init(cfg, seed=seed)
    net.params = {k: v.astype(dtype) for k, v in net.params.items()}
    return net


def test_net_config_validation():
    with pytest.raises(ValueError):
        NetConfig(depth=7, resolution=128)
    with pytest.raises(ValueError):
        NetConfig(depth=2, resolution=64)
    with pytest.raises(ValueError):
        NetConfig(depth=4, resolution=60)  # not divisible by 16
    with pytest.raises(ValueError):
        NetConfig(dropout_rate=1.0)
    NetConfig(depth=6, resolution=64)  # 64 == 2^6: valid


def test_init_deterministic():
    cfg = NetConfig(depth=3, base_channels=4, resolution=16)
    a = unet_init(cfg, seed=5)
    b = unet_init(cfg, seed=5)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c = unet_init(cfg, seed=6)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_init_zero_biases_he_bounds():
    cfg = NetConfig(depth=3, base_channels=4, resolution=16)
    net = unet_init(cfg, seed=0)
    for name, out_ch, in_ch, k in conv_specs(cfg):
        W = net.params[f"{name}.W"]
        b = net.params[f"{name}.b"]
        assert np.all(b == 0.0)
        limit = np.sqrt(6.0 / (in_ch * k * k))
        assert np.all(np.abs(W) <= limit)


def test_parameter_count_closed_form():
    """Layer-by-layer sum done independently of conv_specs."""
    depth, base = 3, 4
    cfg = NetConfig(depth=depth, base_channels=base, resolution=16)

    def conv(o, i, k):
        return o * i * k * k + o

    want = 0
    ch = 1
    enc = [base * 2 ** l for l in range(depth)]
    for out in enc:
        want += conv(out, ch, 3) + conv(out, out, 3)
        ch = out
    bott = base * 2 ** depth
    want += conv(bott, ch, 3) + conv(bott, bott, 3)
    for l in reversed(range(depth)):
        chl = base * 2 ** l
        want += conv(chl, 2 * chl, 3) + conv(chl, 2 * chl, 3) + conv(chl, chl, 3)
    want += conv(1, base, 1)
    assert parameter_count(cfg) == want
    net = unet_init(cfg, seed=0)
    assert sum(p.size for p in net.params.values()) == want


def test_zero_network_outputs_half(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=0)
    for k in net.params:
        net.params[k][:] = 0
    pm = infer_mle(net, rand_image)
    assert np.all(pm.values == 0.5)


def test_forward_deterministic_without_dropout(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=1)
    a = infer_mle(net, rand_image)
    b = infer_mle(net, rand_image)
    np.testing.assert_array_equal(a.values, b.values)


def test_forward_output_in_open_unit_interval(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=1)
    pm = infer_mle(net, rand_image)
    assert np.all(pm.values > 0.0) and np.all(pm.values < 1.0)


def test_forward_shape_mismatch(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=32), seed=1)
    with pytest.raises(ValueError):
        infer_mle(net, rand_image)


def _sigmoid_masked(x):
    """The former sigmoid, one boolean-mask pass per sign: the bit oracle of
    `sigmoid`."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype, bits, step", [(np.float32, np.uint32, 2**13 + 1),
                                               (np.float64, np.uint64, 2**45 + 12345)])
def test_sigmoid_matches_masked_form(dtype, bits, step):
    """The same bytes as the former form on a spread of bit patterns (both
    signs, every exponent, subnormals), infinities and signed zeros. Only a
    NaN's sign may differ, which forward_maps never meets: it refuses
    non-finite maps."""
    n = np.iinfo(bits).max // step
    x = (np.arange(n, dtype=np.uint64) * np.uint64(step)).astype(bits).view(dtype)
    x = np.concatenate([x, np.array([0.0, -0.0, np.inf, -np.inf, np.nan], dtype=dtype)])
    with np.errstate(invalid="ignore"):
        got, want = sigmoid(x), _sigmoid_masked(x)
        assert sigmoid(x.reshape(-1, 1)).tobytes() == got.tobytes()
    assert got.dtype == dtype and got.shape == x.shape
    finite_or_inf = ~np.isnan(x)
    assert got[finite_or_inf].tobytes() == want[finite_or_inf].tobytes()
    assert np.isnan(got[~finite_or_inf]).all()


def test_forward_matches_scalar_reference():
    """Independent straight-line forward pass with plain loops, depth 3 at 8x8."""
    cfg = NetConfig(depth=3, base_channels=1, dropout_rate=0.0, resolution=8)
    net = _unet(cfg, 2, np.float64)
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 5, (8, 8))
    spec = GridSpec(extent=4.0, resolution=8)
    got = infer_mle(net, BevImage(spec, counts)).values

    def conv3(x, W, b):
        c_in, h, w = x.shape
        o = W.shape[0]
        out = np.zeros((o, h, w))
        for oc in range(o):
            for i in range(h):
                for j in range(w):
                    acc = b[oc]
                    for c in range(c_in):
                        for di in range(3):
                            for dj in range(3):
                                ii, jj = i + di - 1, j + dj - 1
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += W[oc, c, di, dj] * x[c, ii, jj]
                    out[oc, i, j] = acc
        return out

    def relu(x):
        return np.maximum(x, 0.0)

    def pool(x):
        c, h, w = x.shape
        out = np.zeros((c, h // 2, w // 2))
        for cc in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[cc, i, j] = x[cc, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        return out

    def up(x):
        c, h, w = x.shape
        out = np.zeros((c, 2 * h, 2 * w))
        for cc in range(c):
            for i in range(2 * h):
                for j in range(2 * w):
                    out[cc, i, j] = x[cc, i // 2, j // 2]
        return out

    p = net.params
    x = normalize_counts(counts, np.float64)[None]
    skips = []
    for l in range(3):
        x = relu(conv3(x, p[f"enc{l}.c1.W"], p[f"enc{l}.c1.b"]))
        x = relu(conv3(x, p[f"enc{l}.c2.W"], p[f"enc{l}.c2.b"]))
        skips.append(x)
        x = pool(x)
    x = relu(conv3(x, p["bott.c1.W"], p["bott.c1.b"]))
    x = relu(conv3(x, p["bott.c2.W"], p["bott.c2.b"]))
    for l in reversed(range(3)):
        x = conv3(up(x), p[f"dec{l}.up.W"], p[f"dec{l}.up.b"])
        x = np.concatenate([x, skips[l]], axis=0)
        x = relu(conv3(x, p[f"dec{l}.c1.W"], p[f"dec{l}.c1.b"]))
        x = relu(conv3(x, p[f"dec{l}.c2.W"], p[f"dec{l}.c2.b"]))
    logits = np.tensordot(p["head.W"][:, :, 0, 0], x, axes=([1], [0])) + p["head.b"][:, None, None]
    want = 1.0 / (1.0 + np.exp(-logits[0]))
    np.testing.assert_allclose(got, np.clip(want, 1e-7, 1 - 1e-7), atol=1e-12)


def _conv3x3_backward_reference(dout, cache):
    """conv3x3_backward as it was before per-sample col2im: one (N, H, W, 9C)
    dcols for the whole batch."""
    cols, x_shape, W = cache
    n, h, w, c = x_shape
    o = W.shape[0]
    dmat = np.tensordot(cols, dout, axes=([0, 1, 2], [0, 1, 2]))  # (9C, O)
    dW = dmat.reshape(3, 3, c, o).transpose(3, 2, 0, 1)
    db = dout.sum(axis=(0, 1, 2))
    dcols = (dout @ _w_mat(W).T).reshape(n, h, w, 3, 3, c)
    dxp = np.zeros((n, h + 2, w + 2, c), dtype=dout.dtype)
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h, dj:dj + w, :] += dcols[:, :, :, di, dj, :]
    return dxp[:, 1:h + 1, 1:w + 1, :], dW, db


# conv3x3_backward before its input gradient ran in blocks: the bit oracle of
# the two-phase form
def _conv3x3_backward_scatter(dout, cache, input_grad: bool = True):
    """Gradients (dx, dW, db) of a 3x3 conv from its (xp, x_shape, W) cache;
    dx is None without `input_grad`, for a conv on the network's input.

    No im2col matrix is built: one (N, H, W, C) buffer takes each tap's shifted
    window of xp in (di, dj) order, and dW[tap] = window^T @ dout is one GEMM
    over all N*H*W cells. The same buffer then takes dout @ W[tap], a GEMM with
    that tap's contiguous (O, C) weight block, which is added into its window
    of the zero-bordered dx, so every cell receives its nine taps in (di, dj)
    order (kn2row, Vasudevan, Anderson & Gregg 2017, run backwards).

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
    flat = tap.reshape(-1, c)
    dmat = np.empty((3, 3, c, o), dout.dtype)
    if input_grad:
        w_taps = np.ascontiguousarray(W.transpose(2, 3, 0, 1))  # (3, 3, O, C)
        dxp = np.zeros((n, h + 2, w + 2, c), dtype=dout.dtype)
    up = xp.shape[1] != h + 2
    if up:
        src, cells = xp.reshape(n, -1, c), tap.reshape(n, -1, c)
        rows = [(np.arange(h) + di + 1) // 2 * xp.shape[2] for di in range(3)]
        cols = [(np.arange(w) + dj + 1) // 2 for dj in range(3)]
    for di in range(3):
        for dj in range(3):
            if up:  # mode "clip" takes into `cells` unbuffered; every index is in range
                np.take(src, (rows[di][:, None] + cols[dj]).ravel(), axis=1, out=cells,
                        mode="clip")
            else:
                np.copyto(tap, xp[:, di:di + h, dj:dj + w])
            np.matmul(flat.T, d, out=dmat[di, dj])
            if input_grad:
                np.matmul(d, w_taps[di, dj], out=flat)
                dxp[:, di:di + h, dj:dj + w] += tap
    dx = dxp[:, 1:h + 1, 1:w + 1, :] if input_grad else None
    return dx, dmat.transpose(3, 2, 0, 1), dout.sum(axis=(0, 1, 2))


def _forward_reference(net, x, drop_rng=None, stem=None):
    """forward_batch's cache-free pass as it was before the workspace: np.pad
    and sliding_window_view im2col, np.concatenate, argmax pooling, and a
    `stem` dict that the first pass over `x` fills and later passes read. The
    up convs take the phase form: per output phase, the whole 2x2 im2col
    matrix of the low-resolution input times its _phase_mats matrix."""
    cfg, p, rate = net.config, net.params, net.config.dropout_rate

    def im2col(x, k):
        n, h, w, c = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
        return win.transpose(0, 1, 2, 4, 5, 3).reshape(n, h + 3 - k, w + 3 - k, k * k * c)

    def conv(x, name):
        out = im2col(x, 3) @ _w_mat(p[f"{name}.W"])
        out += p[f"{name}.b"]
        return out

    def conv_up(x, name):
        n, h, w, _ = x.shape
        cols, mats = im2col(x, 2), _phase_mats(p[f"{name}.W"])
        out = np.empty((n, 2 * h, 2 * w, mats.shape[-1]), x.dtype)
        for pr in (0, 1):
            for pc in (0, 1):
                phase = cols[:, pr:pr + h, pc:pc + w] @ mats[pr, pc]
                phase += p[f"{name}.b"]
                out[:, pr::2, pc::2] = phase
        return out

    def conv_relu(x, name):
        return np.maximum(conv(x, name), 0.0)

    def dropout(x):
        if drop_rng is None or rate <= 0.0:
            return x
        return x * ((drop_rng.uniform(size=x.shape) >= rate).astype(x.dtype) / (1.0 - rate))

    def pool(x):
        n, h, w, c = x.shape
        xr = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5) \
              .reshape(n, h // 2, w // 2, 4, c)
        arg = xr.argmax(axis=3)
        return np.take_along_axis(xr, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def double_conv(x, name):
        return dropout(conv_relu(conv_relu(x, f"{name}.c1"), f"{name}.c2"))

    skips = []
    for l in range(cfg.depth):
        if l == 0 and stem is not None:
            if "enc0" not in stem:
                stem["enc0"] = conv_relu(conv_relu(x, "enc0.c1"), "enc0.c2")
            x = dropout(stem["enc0"])
        else:
            x = double_conv(x, f"enc{l}")
        skips.append(x)
        x = pool(x)
    x = double_conv(x, "bott")
    for l in reversed(range(cfg.depth)):
        x = conv_up(x, f"dec{l}.up")
        x = double_conv(np.concatenate([x, skips[l]], axis=3), f"dec{l}")
    return sigmoid(conv1x1_forward(x, p["head.W"], p["head.b"])[0])


def _conv3x3_forward_reference(x, W, b):
    """The former allocating conv3x3_forward: np.pad, then the whole im2col
    matrix, which it returned in its (cols, x_shape, W) cache."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.ascontiguousarray(_patches(xp, 3)).reshape(n, h, w, 9 * c)
    out = cols @ _w_mat(W)
    out += b
    return out, (cols, x.shape, W)


def _forward_cached_reference(net, x, drop_rng=None):
    """forward_batch's cache-keeping pass as it was before training ran on a
    workspace: every layer allocates its output, a 3x3 conv keeps its im2col
    matrix, ReLU a bool mask, max-pool its argmax, and the decoder joins its
    halves with np.concatenate. Returns (probs, caches) for _backward_reference."""
    cfg, p, rate = net.config, net.params, net.config.dropout_rate
    caches = {}

    def conv(x, name):
        out, caches[name] = _conv3x3_forward_reference(x, p[f"{name}.W"], p[f"{name}.b"])
        return out

    def conv_relu(x, name):
        x = conv(x, name)
        caches[f"{name}.relu"] = x > 0
        return np.maximum(x, 0.0)

    def double_conv(x, name):
        x = conv_relu(conv_relu(x, f"{name}.c1"), f"{name}.c2")
        mask = None
        if drop_rng is not None and rate > 0.0:
            mask = (drop_rng.uniform(size=x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
            x = x * mask
        caches[f"{name}.drop"] = mask
        return x

    skips = []
    for l in range(cfg.depth):
        x = double_conv(x, f"enc{l}")
        skips.append(x)
        n, h, w, c = x.shape
        xr = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5) \
              .reshape(n, h // 2, w // 2, 4, c)
        arg = xr.argmax(axis=3)
        caches[f"pool{l}"] = (arg, x.shape)
        x = np.take_along_axis(xr, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    x = double_conv(x, "bott")
    for l in reversed(range(cfg.depth)):
        x = conv(x.repeat(2, axis=1).repeat(2, axis=2), f"dec{l}.up")
        x = double_conv(np.concatenate([x, skips[l]], axis=3), f"dec{l}")
    logits, caches["head"] = conv1x1_forward(x, p["head.W"], p["head.b"])
    return sigmoid(logits), caches


def _on_cols(conv_bw):
    """A 3x3 conv backward on (xp, x_shape, W) caches, run on the former
    (cols, x_shape, W) ones: the im2col matrix's centre tap is the input."""
    def run(dout, cache):
        cols, x_shape, W = cache
        c = x_shape[3]
        xp = np.pad(cols[..., 4 * c:5 * c], ((0, 0), (1, 1), (1, 1), (0, 0)))
        return conv_bw(dout, (xp, x_shape, W))
    return run


def _backward_reference(net, caches, dlogits, conv3x3_bw=_conv3x3_backward_reference):
    """backward_batch on _forward_cached_reference's caches, with the former
    backward forms: bool ReLU masks, max-pool gradients put at the argmax, and
    by default whole-batch col2im of the kept im2col matrix; `conv3x3_bw`
    replaces that conv backward."""
    cfg, grads = net.config, {}

    def conv_bw(d, name):
        d, grads[f"{name}.W"], grads[f"{name}.b"] = conv3x3_bw(d, caches[name])
        return d

    def double_conv_bw(d, name):
        mask = caches[f"{name}.drop"]
        d = d if mask is None else d * mask
        d = conv_bw(d * caches[f"{name}.c2.relu"], f"{name}.c2")
        return conv_bw(d * caches[f"{name}.c1.relu"], f"{name}.c1")

    x, W = caches["head"]
    grads["head.W"] = np.tensordot(dlogits, x, axes=([0, 1, 2], [0, 1, 2]))[:, :, None, None]
    grads["head.b"] = dlogits.sum(axis=(0, 1, 2))
    d = dlogits @ W[:, :, 0, 0]
    d_skip = {}
    for l in range(cfg.depth):
        d = double_conv_bw(d, f"dec{l}")
        ch = cfg.base_channels * (2 ** l)
        d_up, d_skip[l] = d[..., :ch], d[..., ch:]
        d = conv_bw(d_up, f"dec{l}.up")
        n, h2, w2, c = d.shape
        d = d.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))
    d = double_conv_bw(d, "bott")
    for l in reversed(range(cfg.depth)):
        arg, (n, h, w, c) = caches[f"pool{l}"]
        dxr = np.zeros((n, h // 2, w // 2, 4, c), dtype=d.dtype)
        np.put_along_axis(dxr, arg[:, :, :, None, :], d[:, :, :, None, :], axis=3)
        d = dxr.reshape(n, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, h, w, c)
        d = d + d_skip[l]
        d = double_conv_bw(d, f"enc{l}")
    return grads


def _tied_input(rng, n, res, dtype):
    """Counts-like input: 4x4 blocks of a few levels, about half of them exact
    zeros, so that activations are constant over patches and pooling windows tie."""
    levels = rng.choice([0.0, 0.0, 0.25, 0.5, 1.0], size=(n, res // 4, res // 4, 1))
    return levels.repeat(4, axis=1).repeat(4, axis=2).astype(dtype)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(depth=st.sampled_from([3, 4]), base=st.sampled_from([1, 4, 8]),
       n=st.sampled_from([1, 2, 5]), res=st.sampled_from([16, 32]),
       dtype=st.sampled_from([np.float32, np.float64]), rate=st.sampled_from([0.0, 0.1, 0.2]),
       tied=st.booleans(), batches=st.lists(st.integers(0, 1), min_size=2, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_training_steps_match_cached_reference_property(depth, base, n, res, dtype, rate, tied,
                                                        batches, seed):
    """Training steps whose caches are views of a workspace (bordered inputs,
    ReLU outputs, first-match pooling) equal the former cache-keeping path, run
    with conv3x3_backward, byte for byte: probs, every gradient, and the
    parameters after each Adam step, with nonzero biases, inputs with exact
    zeros and tied pooling windows, and a batch seen again after a step, so
    that a stale stem or weight matrix shows."""
    rng = np.random.default_rng(seed)
    net = _unet(NetConfig(depth=depth, base_channels=base, dropout_rate=rate,
                          resolution=res), seed % 1000, dtype)
    for name in net.params:
        if name.endswith(".b"):
            net.params[name][:] = rng.normal(scale=0.1, size=net.params[name].shape)
    ref = net.copy()
    opt, ref_opt = Adam(net.params, 1e-2), Adam(ref.params, 1e-2)
    data = [(_tied_input(rng, n, res, dtype) if tied else
             rng.uniform(size=(n, res, res, 1)).astype(dtype),
             (rng.uniform(size=(n, res, res, 1)) > 0.5).astype(dtype)) for _ in range(2)]
    for step, which in enumerate(batches):
        x, y = data[which]
        got, caches = forward_batch(net, x, drop_rng=seeded_rng(seed, step))
        want, ref_caches = _forward_cached_reference(ref, x, drop_rng=seeded_rng(seed, step))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        _, dlogits = _bce_and_dlogits(got, y)
        grads = backward_batch(net, caches, dlogits)
        ref_grads = _backward_reference(ref, ref_caches, dlogits, _on_cols(conv3x3_backward))
        assert grads.keys() == ref_grads.keys() == net.params.keys()
        for k in grads:
            assert grads[k].dtype == ref_grads[k].dtype and grads[k].shape == ref_grads[k].shape
            assert grads[k].tobytes() == ref_grads[k].tobytes(), k
        opt.step(net.params, grads)
        ref_opt.step(ref.params, ref_grads)
        for k in net.params:
            assert net.params[k].tobytes() == ref.params[k].tobytes(), k


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2]), h=st.sampled_from([2, 4, 8]), w=st.sampled_from([2, 6]),
       c=st.sampled_from([1, 3]), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_maxpool2_backward_routes_to_argmax_property(n, h, w, c, dtype, seed):
    """First-match routing against the pooled output puts each gradient where
    argmax does, on values drawn from a few levels (signed zeros included), so
    that most windows tie."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0], dtype), size=(n, h, w, c))
    out = maxpool2_forward(x, out=np.empty((n, h // 2, w // 2, c), dtype))
    dout = rng.standard_normal(out.shape).astype(dtype)
    xr = x.reshape(n, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 2, 4, 5) \
          .reshape(n, h // 2, w // 2, 4, c)
    arg = xr.argmax(axis=3)
    dxr = np.zeros(xr.shape, dtype)
    np.put_along_axis(dxr, arg[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
    want = dxr.reshape(n, h // 2, w // 2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5).reshape(x.shape)
    got = maxpool2_backward(dout, (x, out))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(depth=st.sampled_from([3, 4]), base=st.sampled_from([1, 4, 8]),
       n=st.sampled_from([1, 2, 5]), res=st.sampled_from([16, 32]),
       dtype=st.sampled_from([np.float32, np.float64]), rate=st.sampled_from([0.0, 0.1, 0.2]),
       seed=st.integers(0, 2**32 - 1),
       passes=st.lists(st.tuples(st.integers(0, 1), st.booleans()), min_size=3, max_size=5))
def test_workspace_forward_matches_reference_property(depth, base, n, res, dtype, rate, seed,
                                                      passes):
    """Passes on one workspace equal the former cache-free forward, with its up
    convs in phase form, byte for byte, with nonzero biases, dropout on and
    off, and the input switched between passes, so that a stale buffer, a stale
    stem or a written border shows, the up convs' bordered sources included.
    The workspace holds no upsampled input."""
    rng = np.random.default_rng(seed)
    net = _unet(NetConfig(depth=depth, base_channels=base, dropout_rate=rate,
                          resolution=res), seed % 1000, dtype)
    for name in net.params:
        if name.endswith(".b"):
            net.params[name][:] = rng.normal(scale=0.1, size=net.params[name].shape)
    inputs = [rng.uniform(size=(n, res, res, 1)).astype(dtype) for _ in range(2)]
    ws = Workspace(net)
    for t, (which, dropout) in enumerate(passes):
        drop = (lambda: seeded_rng(seed, t)) if dropout else (lambda: None)
        got, caches = forward_batch(net, inputs[which], drop_rng=drop(), ws=ws)
        want = _forward_reference(net, inputs[which], drop_rng=drop())
        assert caches is None and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    ups = [f"dec{l}.up" for l in range(depth)]
    assert not set(ups) & ws.bufs.keys()
    sources = ["bott.drop"] + [f"dec{l}.drop" for l in range(1, depth)]
    inputs = [name for name in ws.w_mats if name not in ups]
    assert len(inputs) + len(sources) == 5 * depth + 2
    for buf in (ws.bufs[name] for name in inputs + sources):  # conv inputs' borders
        assert not buf[:, 0].any() and not buf[:, -1].any()
        assert not buf[:, :, 0].any() and not buf[:, :, -1].any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2]), c=st.sampled_from([1, 3, 8]), o=st.sampled_from([1, 4, 8]),
       h=st.sampled_from([1, 2, 7, 16]), w=st.sampled_from([1, 2, 16]),
       block=st.sampled_from([1, 100, 1000, 100000]), half=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
def test_conv3x3_workspace_form_matches_reference_property(n, c, o, h, w, block, half, dtype,
                                                           seed):
    """The blocked form, for any column block (smaller than one row too), into
    a bordered interior or one channel half of it, gives the former allocating
    form's output bit for bit, and caches its bordered input, not the im2col
    matrix; that matrix is the sliding-window one."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, c)).astype(dtype)
    W = rng.standard_normal((o, c, 3, 3)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype)
    want, (cols, _, _) = _conv3x3_forward_reference(x, W, b)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    assert cols.tobytes() == win.transpose(0, 1, 2, 4, 5, 3).reshape(n, h, w, 9 * c).tobytes()
    dst = np.zeros((n, h + 2, w + 2, 2 * o if half else o), dtype)
    out = dst[:, 1:-1, 1:-1, :o]
    got, cache = conv3x3_forward(x, W, b, xp, _w_mat(W), np.empty(block, dtype), out)
    assert got is out and cache[0] is xp and cache[1] == x.shape and cache[2] is W
    assert out.tobytes() == want.tobytes()
    rest = dst.copy()
    rest[:, 1:-1, 1:-1, :o] = 0
    assert not rest.any()


def _conv3x3_backward_exact(dout, xp, W):
    """(dx, dW) of a 3x3 conv, tap by tap in np.longdouble, from the bordered input."""
    h, w = xp.shape[1] - 2, xp.shape[2] - 2
    dout, xp, W = (a.astype(np.longdouble) for a in (dout, xp, W))
    dxp, dW = np.zeros(xp.shape, np.longdouble), np.zeros(W.shape, np.longdouble)
    for di in range(3):
        for dj in range(3):
            dW[:, :, di, dj] = np.einsum("nhwo,nhwc->oc", dout, xp[:, di:di + h, dj:dj + w])
            dxp[:, di:di + h, dj:dj + w] += dout @ W[:, :, di, dj]
    return dxp[:, 1:h + 1, 1:w + 1], dW


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, 5]), c=st.sampled_from([1, 3, 8, 16]),
       o=st.sampled_from([1, 4, 8, 16]), h=st.sampled_from([1, 2, 8, 16]),
       w=st.sampled_from([2, 8, 16]), dtype=st.sampled_from([np.float32, np.float64]),
       tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv3x3_backward_matches_reference_property(n, c, o, h, w, dtype, tied, seed):
    """dx and dW of the per-tap GEMMs, and of the former whole-batch im2col
    form, lie within 16 eps(dtype) of the longdouble sum, scaled by the same
    sum of absolute terms, on inputs with exact zeros and ties too; db equals
    the former form's bit for bit, and without the input gradient dW and db
    are unchanged and dx is not made."""
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.choice(np.array([0.0, 0.0, 0.5, -1.0, 2.0]), size=shape)) if tied \
        else rng.standard_normal
    x, W, dout = (draw(shape).astype(dtype) for shape in ((n, h, w, c), (o, c, 3, 3), (n, h, w, o)))
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    _, ref_cache = _conv3x3_forward_reference(x, W, np.zeros(o, dtype))
    exact = _conv3x3_backward_exact(dout, xp, W)
    scale = _conv3x3_backward_exact(np.abs(dout), np.abs(xp), np.abs(W))
    got = conv3x3_backward(dout, (xp, x.shape, W))
    want = _conv3x3_backward_reference(dout, ref_cache)
    for grads in (got, want):
        for g, e, s in zip(grads, exact, scale):
            assert g.dtype == dtype and g.shape == e.shape
            assert np.all(np.abs(g - e) <= 16 * np.finfo(dtype).eps * s)
    assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()
    dx, dW, db = conv3x3_backward(dout, (xp, x.shape, W), input_grad=False)
    assert dx is None and dW.tobytes() == got[1].tobytes() and db.tobytes() == got[2].tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, 5, 9]), c=st.sampled_from([2, 3, 8, 16]),
       o=st.sampled_from([1, 4, 8, 32]), h=st.sampled_from([1, 2, 7, 16]),
       w=st.sampled_from([1, 2, 5, 16]), up=st.booleans(), input_grad=st.booleans(),
       rows=st.one_of(st.none(), st.integers(0, 40)),
       dtype=st.sampled_from([np.float32, np.float64]), tied=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(n=9, c=2, o=32, h=1, w=1, up=False, input_grad=True, rows=2, dtype=np.float32,
         tied=False, seed=0)  # the last block is one cell: its GEMM takes whole groups
@example(n=2, c=3, o=32, h=7, w=1, up=False, input_grad=True, rows=1, dtype=np.float64,
         tied=True, seed=1)  # one-row blocks of a one-cell-wide image
@example(n=5, c=8, o=4, h=1, w=5, up=True, input_grad=True, rows=3, dtype=np.float32,
         tied=True, seed=2)  # blocks of whole up-conv samples that end inside a row group
def test_conv3x3_backward_matches_scatter_property(n, c, o, h, w, up, input_grad, rows, dtype,
                                                   tied, seed):
    """The two-phase backward gives the scatter form's dx, dW and db bit for
    bit: on plain and up-conv (source) caches, one-cell-wide images, ties,
    zeros and -0.0 in dout, with and without the input gradient, for the
    default column block and blocks of `rows` dx rows (0: less than one row),
    so that blocks hold several samples, one sample or part of one."""
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.choice(np.array([0.0, -0.0, 0.5, -1.0, 2.0]), size=shape)) \
        if tied else rng.standard_normal
    shape = (n, 2 * h, 2 * w, c) if up else (n, h, w, c)
    x, W, dout = (draw(s).astype(dtype) for s in ((n, h, w, c), (o, c, 3, 3), shape[:3] + (o,)))
    cache = (np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))), shape, W)
    want = _conv3x3_backward_scatter(dout, cache, input_grad)
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(layers, "COL_BLOCK_BYTES", rows * shape[2] * c * np.dtype(dtype).itemsize)
        got = conv3x3_backward(dout, cache, input_grad)
    assert (got[0] is None) == (want[0] is None) == (not input_grad)
    for g, e in zip(got, want):
        assert g is None or (g.dtype == e.dtype and g.shape == e.shape
                             and g.tobytes() == e.tobytes())


def _conv3x3_forward_exact(xp, W, b):
    """A 3x3 conv of the interior of bordered `xp`, tap by tap in np.longdouble."""
    h, w = xp.shape[1] - 2, xp.shape[2] - 2
    xp, W, b = (a.astype(np.longdouble) for a in (xp, W, b))
    out = np.broadcast_to(b, (xp.shape[0], h, w, b.size)).copy()
    for di in range(3):
        for dj in range(3):
            out += np.einsum("nhwc,oc->nhwo", xp[:, di:di + h, dj:dj + w], W[:, :, di, dj])
    return out


def _upsampled(x):
    """The zero-bordered nearest-2x upsample of x."""
    return np.pad(x.repeat(2, axis=1).repeat(2, axis=2), ((0, 0), (1, 1), (1, 1), (0, 0)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, 3]), c=st.sampled_from([1, 3, 8]), o=st.sampled_from([1, 4, 8]),
       h=st.sampled_from([1, 2, 5, 8]), w=st.sampled_from([1, 2, 8]),
       block=st.sampled_from([1, 100, 1000, 100000]), half=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]), tied=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_conv3x3_phase_form_matches_upsample_property(n, c, o, h, w, block, half, dtype, tied,
                                                      seed):
    """The four 2x2 phase convs of x, for any column block (smaller than one
    row too), into a bordered interior or one channel half of it, lie within
    16 eps(dtype) of the longdouble 3x3 conv of x's nearest-2x upsample, scaled
    by the same sum of absolute terms, on inputs with exact zeros and ties too;
    they cache x's bordered copy and write nothing else."""
    rng = np.random.default_rng(seed)
    draw = (lambda shape: rng.choice(np.array([0.0, 0.0, 0.5, -1.0, 2.0]), size=shape)) if tied \
        else rng.standard_normal
    x, W, b = (draw(shape).astype(dtype) for shape in ((n, h, w, c), (o, c, 3, 3), (o,)))
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    dst = np.zeros((n, 2 * h + 2, 2 * w + 2, 2 * o if half else o), dtype)
    out = dst[:, 1:-1, 1:-1, :o]
    got, cache = conv3x3_forward(x, W, b, xp, _phase_mats(W), np.empty(block, dtype), out)
    assert got is out and cache[0] is xp and cache[1] == x.shape and cache[2] is W
    up = _upsampled(x)
    exact = _conv3x3_forward_exact(up, W, b)
    scale = _conv3x3_forward_exact(np.abs(up), np.abs(W), np.abs(b))
    assert np.all(np.abs(out - exact) <= 16 * np.finfo(dtype).eps * scale)
    rest = dst.copy()
    rest[:, 1:-1, 1:-1, :o] = 0
    assert not rest.any()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([1, 2, 3]), c=st.sampled_from([1, 3, 8]), o=st.sampled_from([1, 4]),
       h=st.sampled_from([1, 2, 5]), w=st.sampled_from([1, 2, 6]),
       dtype=st.sampled_from([np.float32, np.float64]), input_grad=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_conv3x3_backward_of_upsample_reads_its_source_property(n, c, o, h, w, dtype,
                                                                input_grad, seed):
    """The backward of a conv of x's nearest-2x upsample, cached with x's
    bordered copy, equals the one cached with the bordered upsample, bit for
    bit."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, h, w, c)).astype(dtype)
    W = rng.standard_normal((o, c, 3, 3)).astype(dtype)
    dout = rng.standard_normal((n, 2 * h, 2 * w, o)).astype(dtype)
    shape = (n, 2 * h, 2 * w, c)
    got = conv3x3_backward(dout, (np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0))), shape, W),
                           input_grad=input_grad)
    want = conv3x3_backward(dout, (_upsampled(x), shape, W), input_grad=input_grad)
    assert (got[0] is None) == (want[0] is None) == (not input_grad)
    for g, e in zip(got, want):
        assert g is None or (g.dtype == e.dtype and g.shape == e.shape
                             and g.tobytes() == e.tobytes())


def test_conv3x3_backward_peak_memory():
    """A conv backward builds no im2col matrix, and its tap buffer is freed
    before dx is made: at (4, 64, 64, 16) -> 8 it peaks at no more than one
    bordered input, one dout and one column block (two bordered inputs before)."""
    import tracemalloc
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 64, 64, 16)).astype(np.float32)
    W = rng.standard_normal((8, 16, 3, 3)).astype(np.float32)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    dout = rng.standard_normal((4, 64, 64, 8)).astype(np.float32)
    tracemalloc.start()
    try:
        grads = conv3x3_backward(dout, (xp, x.shape, W))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del grads
    assert peak <= xp.nbytes + dout.nbytes + layers.COL_BLOCK_BYTES


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_forward_batch_probs_close_with_and_without_caches(dtype, dropout):
    """A pass with caches (up convs on the upsample) and one without (phase
    convs) give probabilities within 32 eps(dtype) (7.5 eps measured)."""
    net = _unet(NetConfig(depth=3, base_channels=4, dropout_rate=0.2, resolution=16), 1, dtype)
    x = np.random.default_rng(2).uniform(size=(3, 16, 16, 1)).astype(dtype)
    rng = (lambda: seeded_rng(5)) if dropout else (lambda: None)
    kept, caches = forward_batch(net, x, drop_rng=rng())
    free, none = forward_batch(net, x, drop_rng=rng(), ws=Workspace(net))
    assert caches and none is None and kept.dtype == free.dtype == dtype
    assert np.abs(kept - free).max() <= 32 * np.finfo(dtype).eps


def test_cache_free_forward_peak_memory_below_half_of_cached():
    """Passes on a workspace keep no cache, im2col matrix included, and reuse
    its buffers: two of them, workspace and all, peak below half of one pass
    that keeps the former caches. So does one pass that keeps today's caches,
    views of its own workspace."""
    import tracemalloc
    net = unet_init(NetConfig(depth=4, base_channels=8, resolution=64), seed=0)
    x = np.random.default_rng(0).uniform(size=(1, 64, 64, 1)).astype(np.float32)

    def free():
        ws = Workspace(net)
        return [forward_batch(net, x, drop_rng=seeded_rng(t), ws=ws) for t in range(2)]

    runs = {
        "former": lambda: _forward_cached_reference(net, x, drop_rng=seeded_rng(0)),
        "cached": lambda: forward_batch(net, x, drop_rng=seeded_rng(0)),
        "free": free,
    }
    peaks = {}
    for key, run in runs.items():
        tracemalloc.start()
        try:
            out = run()
            peaks[key] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
    assert peaks["free"] < 0.5 * peaks["former"]
    assert peaks["cached"] < 0.5 * peaks["former"]


def _training_step_peak(fwd, bwd, res=64, batch=4):
    """tracemalloc peak of one training step (forward with caches, loss
    gradient, backward) at d4/w8, dropout 0.1, res 64 and batch 4 by default."""
    import tracemalloc
    net = unet_init(NetConfig(depth=4, base_channels=8, dropout_rate=0.1, resolution=res), seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(batch, res, res, 1)).astype(np.float32)
    y = (rng.uniform(size=(batch, res, res, 1)) > 0.5).astype(np.float32)
    tracemalloc.start()
    try:
        probs, caches = fwd(net, x, drop_rng=seeded_rng(0))
        bwd(net, caches, _bce_and_dlogits(probs, y)[1])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_step_peak_memory_below_half_of_former():
    """A training step holds no im2col matrix and no copied activations: it
    peaks below 0.18 of the former cache-keeping step (0.157 measured)."""
    now = _training_step_peak(forward_batch, backward_batch)
    assert now < 0.18 * _training_step_peak(_forward_cached_reference, _backward_reference)


# tracemalloc peak of _training_step_peak(forward_batch, backward_batch) when
# dropout kept a float32 mask, backward_batch left its caches in place and
# the dec{l}.up convs kept their upsampled input
FLOAT_MASK_STEP_PEAK = 18_484_752

# tracemalloc peak of _training_step_peak(forward_batch, backward_batch, 128, 10)
# when a dec{l}.up conv's backward rebuilt its bordered, upsampled input and
# each encoder level kept its c2 output before and after dropout
UPSAMPLED_INPUT_STEP_PEAK = 108_629_049

# tracemalloc peak of _training_step_peak(forward_batch, backward_batch, 128, 10)
# when conv3x3_backward was _conv3x3_backward_scatter
SCATTER_BACKWARD_STEP_PEAK = 88_886_699


def test_training_step_peak_memory_below_float_mask_step():
    """Bool keep masks, in-place ReLU and dropout backwards, caches freed as
    backward_batch uses them, and up-conv inputs rebuilt from their source
    bring a step to at most 0.8 of its peak before them (0.55 measured)."""
    assert _training_step_peak(forward_batch, backward_batch) <= 0.8 * FLOAT_MASK_STEP_PEAK


def test_training_step_peak_memory_below_upsampled_input_step():
    """Up-conv backwards that gather their windows from the low-resolution
    source, and encoder c2 outputs freed once dropout has copied them, bring
    a res-128 batch-10 step to at most 0.85 of its peak before them (0.818
    measured then: 88.9 MB)."""
    now = _training_step_peak(forward_batch, backward_batch, 128, 10)
    assert now <= 0.85 * UPSAMPLED_INPUT_STEP_PEAK


def test_training_step_peak_memory_below_scatter_backward_step():
    """Conv backwards that free their tap buffer before making dx, and build dx
    in column blocks without a bordered copy, bring a res-128 batch-10 step to
    at most 0.9 of its peak with the scatter backward (0.849 measured: 75.5 MB)."""
    now = _training_step_peak(forward_batch, backward_batch, 128, 10)
    assert now <= 0.9 * SCATTER_BACKWARD_STEP_PEAK


@pytest.mark.parametrize("depth, base, res, n, dtype", [
    (3, 2, 16, 3, np.float64),
    (4, 4, 48, 5, np.float32),  # a bottleneck three cells wide
    (5, 8, 32, 2, np.float32),  # a bottleneck one cell wide
    (6, 2, 64, 3, np.float32),
    (4, 8, 128, 10, np.float32),  # the benchmark's step: level 0 in blocks of rows
])
def test_training_step_grads_match_scatter_backward(monkeypatch, depth, base, res, n, dtype):
    """backward_batch's gradients equal those with the scatter conv backward,
    byte for byte."""
    net = _unet(NetConfig(depth=depth, base_channels=base, dropout_rate=0.1, resolution=res),
                0, dtype)
    rng = np.random.default_rng(depth * base)
    x = rng.uniform(size=(n, res, res, 1)).astype(dtype)
    y = (rng.uniform(size=x.shape) > 0.5).astype(dtype)

    def step():
        probs, caches = forward_batch(net, x, drop_rng=seeded_rng(0))
        return backward_batch(net, caches, _bce_and_dlogits(probs, y)[1])

    got = step()
    monkeypatch.setattr(layers, "conv3x3_backward", _conv3x3_backward_scatter)
    want = step()
    assert got.keys() == want.keys() == net.params.keys()
    for k in got:
        assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k


def test_backward_batch_consumes_caches():
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.2, resolution=16), seed=1)
    x = np.random.default_rng(2).uniform(size=(2, 16, 16, 1)).astype(np.float32)
    probs, caches = forward_batch(net, x, drop_rng=seeded_rng(5))
    assert caches
    backward_batch(net, caches, np.ones_like(probs))
    assert caches == {}


def test_training_dropout_caches_are_bool_keep_masks():
    """Every dropout of a training forward keeps (keep, rate): the bool mask of
    rng.random(shape) >= rate, drawn in the forward's order."""
    rate = 0.2
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=rate, resolution=16), seed=1)
    x = np.random.default_rng(2).uniform(size=(2, 16, 16, 1)).astype(np.float32)
    _, caches = forward_batch(net, x, drop_rng=seeded_rng(5))
    names = ["enc0", "enc1", "enc2", "bott", "dec2", "dec1", "dec0"]
    assert sorted(k for k in caches if k.endswith(".drop")) == sorted(f"{n}.drop" for n in names)
    draw = seeded_rng(5)
    for name in names:
        keep, r = caches[f"{name}.drop"]
        assert keep.dtype == bool and r == rate
        assert np.array_equal(keep, draw.random(size=keep.shape) >= rate), name


def test_training_encoder_relu_caches_are_the_skip_copies():
    """A training forward keeps each encoder level's c2 output once: its ReLU
    cache is the dropped skip half of dec{l}.c1's bordered input, and each
    up conv caches the bordered source it reads."""
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.2, resolution=16), seed=1)
    x = np.random.default_rng(2).uniform(size=(2, 16, 16, 1)).astype(np.float32)
    _, caches = forward_batch(net, x, drop_rng=seeded_rng(5))
    for l in range(3):
        assert np.shares_memory(caches[f"enc{l}.c2.relu"], caches[f"dec{l}.c1"][0]), l
        src = caches["bott.c2.relu"] if l == 2 else caches[f"dec{l + 1}.c2.relu"]
        xp, shape = caches[f"dec{l}.up"][:2]
        assert xp.shape == (2, shape[1] // 2 + 2, shape[2] // 2 + 2, shape[3])
        assert np.shares_memory(xp, src) and np.array_equal(xp[:, 1:-1, 1:-1], src), l


def test_train_frees_every_workspace(monkeypatch, tiny_pairs):
    """Each training step and validation pass runs on a workspace of its own;
    nothing holds any of them after train returns."""
    import weakref

    import fovlab.segnet.network as network
    import fovlab.segnet.training as training

    refs = []

    class Tracked(Workspace):
        def __init__(self, net):
            super().__init__(net)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(network, "Workspace", Tracked)
    monkeypatch.setattr(training, "Workspace", Tracked)
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=64), seed=0)
    train(net, tiny_pairs[:4], tiny_pairs[4:6],
          TrainConfig(max_epochs=2, batch_size=2, patience=5, seed=0))
    assert len(refs) == 2 * (2 + 1)  # per epoch: two steps and one validation pass
    assert all(ref() is None for ref in refs)


def test_infer_mcd_normalizes_once(monkeypatch, rand_image):
    """infer_mcd checks and normalizes its image once, whatever T, and its
    passes give one-pass forward_maps' maps bit for bit."""
    import fovlab.segnet.network as network

    calls = []
    orig = network.normalize_counts

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.2, resolution=16), seed=1)
    monkeypatch.setattr(network, "normalize_counts", counted)
    mean, sigma = infer_mcd(net, rand_image, T=5, seed=2)
    assert len(calls) == 1
    stack = np.stack([forward_maps(net, rand_image, [seeded_rng(2, t)])[0] for t in range(5)])
    assert mean.values.tobytes() == stack.mean(axis=0).tobytes()
    assert sigma.dtype == np.float64 and sigma.tobytes() == stack.std(axis=0).tobytes()


def test_mcd_workspace_is_freed_and_does_not_grow_with_passes(monkeypatch):
    """infer_mcd builds one workspace and nothing holds it after return; its
    peak grows with T by no more than the larger stack of T maps."""
    import tracemalloc
    import weakref

    import fovlab.segnet.network as network

    refs = []

    class Tracked(Workspace):
        def __init__(self, net):
            super().__init__(net)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(network, "Workspace", Tracked)
    res = 64
    net = unet_init(NetConfig(depth=4, base_channels=8, dropout_rate=0.1, resolution=res), seed=0)
    image = BevImage(GridSpec(extent=8.0, resolution=res),
                     np.random.default_rng(3).integers(0, 6, (res, res)))
    peaks = {}
    for T in (2, 8):
        tracemalloc.start()
        try:
            infer_mcd(net, image, T=T, seed=1)
            peaks[T] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(refs) == 2 and all(ref() is None for ref in refs)
    assert peaks[8] - peaks[2] <= 8 * res * res * 8


def test_bce_half_is_ln2():
    assert _bce(np.full((16, 16), 0.5), np.zeros((16, 16), bool)) == \
        pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_small():
    gt = np.eye(16, dtype=bool)
    assert _bce(gt.astype(float), gt) <= 1e-6 * abs(np.log(1e-7))


def test_bce_matches_scalar_loop(rand_target):
    probs = np.random.default_rng(6).uniform(0.01, 0.99, (16, 16))
    got = _bce(probs, rand_target.mask)
    total = 0.0
    for i in range(16):
        for j in range(16):
            p = min(max(probs[i, j], 1e-7), 1 - 1e-7)
            t = 1.0 if rand_target.mask[i, j] else 0.0
            total += -(t * np.log(p) + (1 - t) * np.log(1 - p))
    assert got == pytest.approx(total / 256, abs=1e-12)


def grad_check(net: Network, image: BevImage, target: FovMask,
               n_samples: int = 120, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    Checks `n_samples` randomly chosen weight entries (biases are excluded:
    with zero-bias init, degenerate all-zero inputs sit exactly on the ReLU
    kink where one-sided bias perturbations are non-differentiable). Intended
    for tiny float64 networks with dropout off.
    """
    x = normalize_counts(image.counts, net.dtype)[None, :, :, None]
    y = target.mask.astype(net.dtype)[None, :, :, None]

    probs, caches = forward_batch(net, x)
    _, dlogits = _bce_and_dlogits(probs, y)
    grads = backward_batch(net, caches, dlogits)

    weight_names = [k for k in net.param_names() if k.endswith(".W")]
    slots = [(k, i) for k in weight_names for i in range(net.params[k].size)]
    picks = seeded_rng(seed).choice(len(slots), size=min(n_samples, len(slots)), replace=False)

    def loss_at() -> float:
        p, _ = forward_batch(net, x)
        return _bce(p, y)

    max_rel = 0.0
    for pick in picks:
        name, flat = slots[pick]
        w = net.params[name].reshape(-1)
        orig = w[flat]
        w[flat] = orig + h
        lp = loss_at()
        w[flat] = orig - h
        lm = loss_at()
        w[flat] = orig
        numeric = (lp - lm) / (2.0 * h)
        analytic = grads[name].reshape(-1)[flat]
        if not (np.isfinite(numeric) and np.isfinite(analytic)):
            return np.inf
        denom = max(abs(numeric), abs(analytic), 1e-8)
        max_rel = max(max_rel, abs(numeric - analytic) / denom)
    return float(max_rel)


def tiny_check_net(depth: int = 3, base: int = 4, resolution: int = 16,
                   seed: int = 0) -> Network:
    """Small double-precision network for gradient checking."""
    cfg = NetConfig(depth=depth, base_channels=base, dropout_rate=0.0,
                    resolution=resolution)
    return _unet(cfg, seed, np.float64)


def test_grad_check_random(rand_image, rand_target):
    net = tiny_check_net(depth=3, base=4, resolution=16, seed=1)
    err = grad_check(net, rand_image, rand_target, n_samples=120, seed=0)
    assert err < 1e-4


def test_grad_check_degenerate_input():
    net = tiny_check_net(depth=3, base=4, resolution=16, seed=1)
    img = BevImage(SPEC16, np.zeros((16, 16), dtype=int))
    tgt = FovMask(SPEC16, np.zeros((16, 16), bool))
    err = grad_check(net, img, tgt, n_samples=120, seed=0)
    assert np.isfinite(err) and err < 1e-4


def test_grad_check_detects_corruption(rand_image, rand_target, monkeypatch):
    """Negative control: corrupting the conv backward must blow up the check."""
    import fovlab.segnet.layers as L
    orig = L.conv3x3_backward

    def corrupted(dout, cache, **kwargs):
        dx, dW, db = orig(dout, cache, **kwargs)
        return dx, dW * 1.05, db

    net = tiny_check_net(depth=3, base=4, resolution=16, seed=1)
    monkeypatch.setattr(L, "conv3x3_backward", corrupted)
    err = grad_check(net, rand_image, rand_target, n_samples=120, seed=0)
    assert err > 1e-2


def test_train_overfits_tiny_set(tiny_pairs):
    small = tiny_pairs[:10]
    cfg = NetConfig(depth=3, base_channels=4, dropout_rate=0.05, resolution=64)
    net = unet_init(cfg, seed=0)
    tcfg = TrainConfig(learning_rate=1e-2, max_epochs=200, batch_size=10,
                       patience=200, seed=0)
    net, history = train(net, small, small, tcfg)
    assert history[-1]["train_loss"] < 0.1 * history[0]["train_loss"]


def test_train_patience_stops_on_plateau(tiny_pairs):
    """Inject a fake eval so validation loss plateaus after epoch 2."""
    import fovlab.segnet.training as T

    losses = [1.0, 0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6]
    calls = {"n": 0}
    orig = T._eval_loss

    def fake_eval(net, xs, ys, batch_size):
        v = losses[min(calls["n"], len(losses) - 1)]
        calls["n"] += 1
        return v

    T._eval_loss = fake_eval
    try:
        cfg = NetConfig(depth=3, base_channels=4, resolution=64)
        net = unet_init(cfg, seed=0)
        tcfg = TrainConfig(learning_rate=1e-4, max_epochs=30, batch_size=10,
                           patience=3, seed=0)
        _, history = train(net, tiny_pairs[:4], tiny_pairs[4:6], tcfg)
    finally:
        T._eval_loss = orig
    # best at epoch 2, then exactly 3 non-improving epochs
    assert len(history) == 5


def test_train_bit_reproducible(tiny_pairs):
    cfg = NetConfig(depth=3, base_channels=4, resolution=64)
    tcfg = TrainConfig(learning_rate=1e-3, max_epochs=3, batch_size=5, seed=11)
    n1, h1 = train(unet_init(cfg, seed=2), tiny_pairs[:8], tiny_pairs[8:], tcfg)
    n2, h2 = train(unet_init(cfg, seed=2), tiny_pairs[:8], tiny_pairs[8:], tcfg)
    assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
    assert [h["val_loss"] for h in h1] == [h["val_loss"] for h in h2]
    for k in n1.params:
        np.testing.assert_array_equal(n1.params[k], n2.params[k])


def test_train_rejects_empty_split(tiny_pairs):
    cfg = NetConfig(depth=3, base_channels=4, resolution=64)
    with pytest.raises(ValueError):
        train(unet_init(cfg, seed=0), [], tiny_pairs[:2], TrainConfig())


def test_train_aborts_on_nonfinite_loss(tiny_pairs):
    cfg = NetConfig(depth=3, base_channels=4, resolution=64)
    net = unet_init(cfg, seed=0)
    net.params["head.W"][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        train(net, tiny_pairs[:4], tiny_pairs[4:6], TrainConfig(max_epochs=1))


def test_infer_mle_matches_forward(rand_image):
    """infer_mle is one forward_batch on the normalized counts, dropout off,
    clipped: a training forward's bits, but for its up convs' phase form,
    within 32 eps(float32) (2 eps measured)."""
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=1)
    x = normalize_counts(rand_image.counts)[None, :, :, None]
    want = np.clip(forward_batch(net, x)[0][0, :, :, 0].astype(np.float64),
                   PROB_CLIP, 1.0 - PROB_CLIP)
    got = infer_mle(net, rand_image).values
    assert got.dtype == np.float64 and np.abs(got - want).max() <= 32 * np.finfo(np.float32).eps


def test_mcd_zero_dropout_equals_mle(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.0,
                              resolution=16), seed=1)
    mean, sigma = infer_mcd(net, rand_image, T=7, seed=0)
    assert np.all(sigma == 0.0)
    np.testing.assert_allclose(mean.values, infer_mle(net, rand_image).values, atol=1e-15)


def test_mcd_single_pass_zero_sigma(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.1,
                              resolution=16), seed=1)
    _, sigma = infer_mcd(net, rand_image, T=1, seed=0)
    assert sigma.shape == (16, 16) and np.all(sigma == 0.0)


def test_mcd_reproducible_and_matches_welford(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.1,
                              resolution=16), seed=1)
    mean1, sigma1 = infer_mcd(net, rand_image, T=50, seed=9)
    mean2, sigma2 = infer_mcd(net, rand_image, T=50, seed=9)
    np.testing.assert_array_equal(mean1.values, mean2.values)
    np.testing.assert_array_equal(sigma1, sigma2)

    # independent accumulation oracle: Welford online mean/variance per pass
    m = np.zeros((16, 16))
    m2 = np.zeros((16, 16))
    for t in range(50):
        v = forward_maps(net, rand_image, [seeded_rng(9, t)])[0]
        delta = v - m
        m += delta / (t + 1)
        m2 += delta * (v - m)
    np.testing.assert_allclose(mean1.values, m, atol=1e-12)
    np.testing.assert_allclose(sigma1, np.sqrt(m2 / 50), atol=1e-12)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       order=st.integers(1, 6).flatmap(lambda T: st.permutations(range(T))))
def test_mcd_sub_seed_independent_of_pass_order(seed, order):
    """Passes run in any order, each computing its own stem, give infer_mcd's
    mean and sigma (one shared stem) bit for bit: on a small net, and on the
    benchmark's float32 depth-4, width-8 net."""
    for depth, base, rate, res in ((3, 4, 0.2, 16), (4, 8, 0.1, 32)):
        image = BevImage(GridSpec(extent=8.0, resolution=res),
                         np.random.default_rng(3).integers(0, 6, (res, res)))
        net = unet_init(NetConfig(depth=depth, base_channels=base, dropout_rate=rate,
                                  resolution=res), seed=1)
        assert net.dtype == np.float32
        stack = np.empty((len(order), res, res))
        for t in order:
            stack[t] = forward_maps(net, image, [seeded_rng(seed, t)])[0]
        mean, sigma = infer_mcd(net, image, T=len(order), seed=seed)
        np.testing.assert_array_equal(stack.mean(axis=0), mean.values)
        np.testing.assert_array_equal(stack.std(axis=0), sigma)


def test_binarize_threshold_semantics():
    spec = SPEC16
    pm = ProbMap(spec, np.full((16, 16), 0.8))
    assert binarize(pm, 0.7).mask.all()
    pm = ProbMap(spec, np.full((16, 16), 0.7))
    assert not binarize(pm, 0.7).mask.any()  # strict inequality
    with pytest.raises(ValueError):
        binarize(pm, 1.0)


def test_binarize_matches_round_oracle():
    rng = np.random.default_rng(8)
    vals = rng.uniform(size=(16, 16))
    pm = ProbMap(SPEC16, vals)
    got = binarize(pm, 0.5).mask
    want = np.round(vals).astype(bool)
    disagree = got != want
    assert np.all(vals[disagree] == 0.5)


def test_checkpoint_round_trip(tmp_path, rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=3)
    path = tmp_path / "net.fvnt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    assert raw[:4] == b"FVNT"
    back = load_checkpoint(path)
    assert back.config == net.config
    for k in net.params:
        np.testing.assert_array_equal(back.params[k], net.params[k])
    np.testing.assert_array_equal(infer_mle(back, rand_image).values,
                                  infer_mle(net, rand_image).values)


def test_checkpoint_bytes_deterministic(tmp_path):
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=3)
    save_checkpoint(tmp_path / "a.fvnt", net)
    save_checkpoint(tmp_path / "b.fvnt", net)
    assert (tmp_path / "a.fvnt").read_bytes() == (tmp_path / "b.fvnt").read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fvnt"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    from fovlab.errors import DataError
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_with_non_finite_weight_is_data_error(tmp_path):
    from fovlab.errors import DataError
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=3)
    for value in (np.nan, np.inf):
        net.params["enc1.c1.W"][0, 0, 0, 0] = value
        save_checkpoint(tmp_path / "bad.fvnt", net)
        with pytest.raises(DataError, match="non-finite values in enc1.c1.W"):
            load_checkpoint(tmp_path / "bad.fvnt")


def test_overflowing_network_is_numeric_error(rand_image):
    """Finite weights whose activations overflow give non-finite maps: a
    NumericError, not maps clipped or averaged into probabilities."""
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=3)
    for values in net.params.values():
        values *= 1e30
    assert all(np.isfinite(v).all() for v in net.params.values())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="not finite"):
            infer_mle(net, rand_image)
        with pytest.raises(NumericError, match="not finite"):
            infer_mcd(net, rand_image, T=2)


def test_probmap_refuses_nan():
    values = np.full((16, 16), 0.5)
    values[3, 4] = np.nan
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        ProbMap(SPEC16, values)
