import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovlab.errors import NumericError
from fovlab.segnet import (NetConfig, TrainConfig, binarize, grad_check, infer_mcd,
                           infer_mle, load_checkpoint, parameter_count, save_checkpoint,
                           train, unet_init)
from fovlab.segnet.layers import (_im2col3, _w_mat, conv1x1_forward, conv3x3_backward,
                                  conv3x3_forward, maxpool2_backward, maxpool2_forward, sigmoid)
from fovlab.segnet.network import (PROB_CLIP, Workspace, backward_batch, conv_specs,
                                   forward_batch, forward_maps, normalize_counts)
from fovlab.segnet.training import Adam, _bce, _bce_and_dlogits, tiny_check_net
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


def test_forward_matches_scalar_reference():
    """Independent straight-line forward pass with plain loops, depth 3 at 8x8."""
    cfg = NetConfig(depth=3, base_channels=1, dropout_rate=0.0, resolution=8)
    net = unet_init(cfg, seed=2, dtype=np.float64)
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


def _forward_reference(net, x, drop_rng=None, stem=None):
    """forward_batch's cache-free pass as it was before the workspace: np.pad
    and sliding_window_view im2col, np.concatenate, argmax pooling, and a
    `stem` dict that the first pass over `x` fills and later passes read."""
    cfg, p, rate = net.config, net.params, net.config.dropout_rate

    def conv(x, name):
        n, h, w, c = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
        cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n, h, w, 9 * c)
        out = cols @ _w_mat(p[f"{name}.W"])
        out += p[f"{name}.b"]
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
        x = conv(x.repeat(2, axis=1).repeat(2, axis=2), f"dec{l}.up")
        x = double_conv(np.concatenate([x, skips[l]], axis=3), f"dec{l}")
    return sigmoid(conv1x1_forward(x, p["head.W"], p["head.b"])[0])


def _conv3x3_forward_reference(x, W, b):
    """The former allocating conv3x3_forward: np.pad, then the whole im2col
    matrix, which it returned in its (cols, x_shape, W) cache."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.ascontiguousarray(_im2col3(xp)).reshape(n, h, w, 9 * c)
    out = cols @ _w_mat(W)
    out += b
    return out, (cols, x.shape, W)


def _forward_cached_reference(net, x, drop_rng=None):
    """forward_batch with keep_caches as it was before training ran on a
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
    net = unet_init(NetConfig(depth=depth, base_channels=base, dropout_rate=rate,
                              resolution=res), seed=seed % 1000, dtype=dtype)
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
        got, caches = forward_batch(net, x, drop_rng=seeded_rng(seed, step), keep_caches=True)
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
    """Passes on one workspace equal the former cache-free forward byte for
    byte, with nonzero biases, dropout on and off, and the input switched
    between passes, so that a stale buffer, a stale stem or a written border
    shows."""
    rng = np.random.default_rng(seed)
    net = unet_init(NetConfig(depth=depth, base_channels=base, dropout_rate=rate,
                              resolution=res), seed=seed % 1000, dtype=dtype)
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
    for buf in (ws.bufs[name] for name in ws.w_mats if name in ws.bufs):  # conv inputs' borders
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


def test_conv3x3_backward_peak_memory():
    """A conv backward builds no im2col matrix: at (4, 64, 64, 16) -> 8 it peaks
    at no more than two bordered inputs (a tap buffer and dx) and one dout."""
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
    assert peak <= 2 * xp.nbytes + dout.nbytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dropout", [False, True])
def test_forward_batch_probs_same_with_and_without_caches(dtype, dropout):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.2, resolution=16),
                    seed=1, dtype=dtype)
    x = np.random.default_rng(2).uniform(size=(3, 16, 16, 1)).astype(dtype)
    rng = (lambda: seeded_rng(5)) if dropout else (lambda: None)
    kept, caches = forward_batch(net, x, drop_rng=rng(), keep_caches=True)
    free, none = forward_batch(net, x, drop_rng=rng())
    assert caches and none is None
    assert kept.tobytes() == free.tobytes()
    with pytest.raises(ValueError):
        forward_batch(net, x, keep_caches=True, ws=Workspace(net))


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
        "cached": lambda: forward_batch(net, x, drop_rng=seeded_rng(0), keep_caches=True),
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


def test_training_step_peak_memory_below_half_of_former():
    """A training step (forward with caches, loss gradient, backward) holds no
    im2col matrix and no copied activations: at res 64, d4/w8, batch 4 it
    peaks below 0.3 of the former cache-keeping step."""
    import tracemalloc
    net = unet_init(NetConfig(depth=4, base_channels=8, dropout_rate=0.1, resolution=64), seed=0)
    rng = np.random.default_rng(0)
    x = rng.uniform(size=(4, 64, 64, 1)).astype(np.float32)
    y = (rng.uniform(size=(4, 64, 64, 1)) > 0.5).astype(np.float32)

    def step(fwd, bwd):
        probs, caches = fwd(net, x, drop_rng=seeded_rng(0))
        return bwd(net, caches, _bce_and_dlogits(probs, y)[1])

    peaks = {}
    for key, fwd, bwd in (
            ("former", _forward_cached_reference, _backward_reference),
            ("now", lambda *a, **k: forward_batch(*a, **k, keep_caches=True), backward_batch)):
        tracemalloc.start()
        try:
            grads = step(fwd, bwd)
            peaks[key] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del grads
    assert peaks["now"] < 0.3 * peaks["former"]


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
    mean, conf = infer_mcd(net, rand_image, T=5, seed=2)
    assert len(calls) == 1
    stack = np.stack([forward_maps(net, rand_image, [seeded_rng(2, t)])[0] for t in range(5)])
    assert mean.values.tobytes() == stack.mean(axis=0).tobytes()
    assert conf.sigma.tobytes() == stack.std(axis=0).tobytes()


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
    """infer_mle is one forward_batch on the normalized counts, dropout off, clipped."""
    net = unet_init(NetConfig(depth=3, base_channels=4, resolution=16), seed=1)
    x = normalize_counts(rand_image.counts)[None, :, :, None]
    want = np.clip(forward_batch(net, x)[0][0, :, :, 0].astype(np.float64),
                   PROB_CLIP, 1.0 - PROB_CLIP)
    assert infer_mle(net, rand_image).values.tobytes() == want.tobytes()


def test_mcd_zero_dropout_equals_mle(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.0,
                              resolution=16), seed=1)
    mean, conf = infer_mcd(net, rand_image, T=7, seed=0)
    assert np.all(conf.sigma == 0.0)
    np.testing.assert_allclose(mean.values, infer_mle(net, rand_image).values, atol=1e-15)


def test_mcd_single_pass_zero_sigma(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.1,
                              resolution=16), seed=1)
    _, conf = infer_mcd(net, rand_image, T=1, seed=0)
    assert np.all(conf.sigma == 0.0)


def test_mcd_reproducible_and_matches_welford(rand_image):
    net = unet_init(NetConfig(depth=3, base_channels=4, dropout_rate=0.1,
                              resolution=16), seed=1)
    mean1, conf1 = infer_mcd(net, rand_image, T=50, seed=9)
    mean2, conf2 = infer_mcd(net, rand_image, T=50, seed=9)
    np.testing.assert_array_equal(mean1.values, mean2.values)
    np.testing.assert_array_equal(conf1.sigma, conf2.sigma)

    # independent accumulation oracle: Welford online mean/variance per pass
    m = np.zeros((16, 16))
    m2 = np.zeros((16, 16))
    for t in range(50):
        v = forward_maps(net, rand_image, [seeded_rng(9, t)])[0]
        delta = v - m
        m += delta / (t + 1)
        m2 += delta * (v - m)
    np.testing.assert_allclose(mean1.values, m, atol=1e-12)
    np.testing.assert_allclose(conf1.sigma, np.sqrt(m2 / 50), atol=1e-12)


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
        mean, conf = infer_mcd(net, image, T=len(order), seed=seed)
        np.testing.assert_array_equal(stack.mean(axis=0), mean.values)
        np.testing.assert_array_equal(stack.std(axis=0), conf.sigma)


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
