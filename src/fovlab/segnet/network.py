"""UNet definition: configuration, parameter layout, forward/backward, checkpoints.

Architecture, for depth d and base width b:

  encoder level l in [0, d):  conv3x3 -> ReLU -> conv3x3 -> ReLU -> dropout,
                              channels b * 2^l; 2x2 max-pool between levels
  bottleneck:                 same double-conv block at b * 2^d channels
  decoder level l in (d, 0]:  nearest 2x upsample -> conv3x3 halving channels
                              -> concat encoder skip -> two conv3x3+ReLU -> dropout
  head:                       1x1 conv to 1 channel -> sigmoid

Input counts are normalized per image by log1p followed by max-scaling into
[0, 1] before the first layer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from ..types import BevImage, seeded_rng
from . import layers as L

PROB_CLIP = 1e-7  # keeps probability maps strictly inside (0, 1)

FVNT_MAGIC = b"FVNT"
FVNT_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    """UNet hyperparameters. depth counts downsampling stages."""

    depth: int = 4
    base_channels: int = 8
    dropout_rate: float = 0.10
    resolution: int = 64

    def __post_init__(self):
        if not 3 <= self.depth <= 6:
            raise ValueError("depth must lie in [3, 6]")
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.resolution < 8 or self.resolution % (2 ** self.depth) != 0:
            raise ValueError(
                f"resolution {self.resolution} must be >= 8 and divisible by 2^depth={2 ** self.depth}")


def conv_specs(cfg: NetConfig) -> list[tuple[str, int, int, int]]:
    """Canonical (name, out_ch, in_ch, kernel) list in forward execution order."""
    specs = []
    ch_in = 1
    for l in range(cfg.depth):
        ch_out = cfg.base_channels * (2 ** l)
        specs.append((f"enc{l}.c1", ch_out, ch_in, 3))
        specs.append((f"enc{l}.c2", ch_out, ch_out, 3))
        ch_in = ch_out
    ch_out = cfg.base_channels * (2 ** cfg.depth)
    specs.append(("bott.c1", ch_out, ch_in, 3))
    specs.append(("bott.c2", ch_out, ch_out, 3))
    for l in reversed(range(cfg.depth)):
        ch = cfg.base_channels * (2 ** l)
        specs.append((f"dec{l}.up", ch, 2 * ch, 3))
        specs.append((f"dec{l}.c1", ch, 2 * ch, 3))
        specs.append((f"dec{l}.c2", ch, ch, 3))
    specs.append(("head", 1, cfg.base_channels, 1))
    return specs


def parameter_count(cfg: NetConfig) -> int:
    return sum(o * i * k * k + o for _, o, i, k in conv_specs(cfg))


@dataclass
class Network:
    """Parameter container; `params` maps '<conv>.W' / '<conv>.b' to arrays."""

    config: NetConfig
    params: dict = field(default_factory=dict)

    def param_names(self) -> list[str]:
        names = []
        for name, _, _, _ in conv_specs(self.config):
            names.extend([f"{name}.W", f"{name}.b"])
        return names

    @property
    def dtype(self):
        return self.params["head.W"].dtype

    def copy(self) -> "Network":
        return Network(self.config, {k: v.copy() for k, v in self.params.items()})


def unet_init(cfg: NetConfig, seed: int = 0, dtype=np.float32) -> Network:
    """He-uniform weights, zero biases; bit-deterministic per (cfg, seed)."""
    rng = seeded_rng(seed)
    params = {}
    for name, out_ch, in_ch, k in conv_specs(cfg):
        fan_in = in_ch * k * k
        limit = np.sqrt(6.0 / fan_in)
        params[f"{name}.W"] = rng.uniform(-limit, limit, (out_ch, in_ch, k, k)).astype(dtype)
        params[f"{name}.b"] = np.zeros(out_ch, dtype=dtype)
    net = Network(cfg, params)
    assert sum(p.size for p in params.values()) == parameter_count(cfg)
    return net


def normalize_counts(counts: np.ndarray, dtype=np.float32) -> np.ndarray:
    """log1p then per-image max scaling into [0, 1]."""
    x = np.log1p(counts.astype(np.float64))
    m = x.max() if x.size else 0.0
    if m > 0:
        x = x / m
    return x.astype(dtype)


class Workspace:
    """Buffers, weight matrices (made by the first pass) and enc0 stem of the passes
    of one call; `net` must not change while it is in use, and a pass that raises
    leaves it unusable."""

    def __init__(self, net: Network):
        self.cols = np.empty(L.COL_BLOCK_BYTES // net.dtype.itemsize, net.dtype)
        self.bufs, self.w_mats, self.stem_of = {}, {}, None


def forward_batch(net: Network, x: np.ndarray, drop_rng=None, keep_caches: bool = False,
                  ws: Workspace | None = None):
    """Run the network on a normalized channels-last (N, H, W, 1) batch.

    Returns (probs (N, H, W, 1) raw sigmoid output, caches). Dropout is
    active iff drop_rng is given.

    The pass runs on `ws` (a new Workspace when None): each activation is the
    interior of a zero-bordered buffer its producer writes into, and the stem
    is reused while the input bytes are unchanged. `caches`, for backward_batch,
    is built only with `keep_caches` (training steps and grad_check), as views
    of the buffers of a workspace of the pass's own: the parameters change
    between steps, and a shared workspace's weight matrices and stem would not.
    """
    if keep_caches and ws is not None:
        raise ValueError("keep_caches and ws are exclusive")
    ws = ws or Workspace(net)
    cfg, p, rate = net.config, net.params, net.config.dropout_rate
    ws.w_mats = ws.w_mats or {name: L._w_mat(p[f"{name}.W"])
                              for name, *_, k in conv_specs(cfg) if k == 3}
    caches = {} if keep_caches else None
    n, res = x.shape[:2]

    def kept(key, out, cache):
        if caches is not None:
            caches[key] = cache
        return out

    def buf(key, level, ch, pad=1, chans=slice(None)):
        side, b = res >> level, ws.bufs.get(key)
        if b is None or b.shape[:2] != (n, side + 2 * pad):
            b = ws.bufs[key] = np.zeros((n, side + 2 * pad, side + 2 * pad, ch), net.dtype)
        return b[:, pad:pad + side, pad:pad + side, chans]

    def conv(x, name, out):
        return kept(name, *L.conv3x3_forward(x, p[f"{name}.W"], p[f"{name}.b"], ws.bufs[name],
                                             ws.w_mats[name], ws.cols, out))

    def conv_relu(x, name, out):
        y = L.relu_forward(conv(x, name, out), out=out)
        return kept(f"{name}.relu", y, y)

    def double_conv(x, name, level, ch, out=None, stem=False):  # stem: reuse the kept c2 output
        x = buf(f"{name}.drop", level, ch, 0) if stem else \
            conv_relu(conv_relu(x, f"{name}.c1", buf(f"{name}.c2", level, ch)),
                      f"{name}.c2", buf(f"{name}.drop", level, ch, 0))
        out, mask = L.dropout_forward(x, rate, drop_rng, x if out is None else out)
        return kept(f"{name}.drop", out, mask)

    stem = (x.shape, x.tobytes())
    reuse, ws.stem_of = ws.stem_of == stem, stem
    x, x_in = buf("enc0.c1", 0, 1), x
    x[...] = x_in
    for l in range(cfg.depth):
        c = cfg.base_channels << l
        skip = buf(f"dec{l}.c1", l, 2 * c, chans=slice(c, None))
        x = double_conv(x, f"enc{l}", l, c, skip, stem=l == 0 and reuse)
        nxt = f"enc{l + 1}.c1" if l + 1 < cfg.depth else "bott.c1"
        pooled = L.maxpool2_forward(x, out=buf(nxt, l + 1, c))
        x = kept(f"pool{l}", pooled, (x, pooled))
    x = double_conv(x, "bott", cfg.depth, cfg.base_channels << cfg.depth)
    for l in reversed(range(cfg.depth)):
        c = cfg.base_channels << l
        x = L.upsample2_forward(x, out=buf(f"dec{l}.up", l, 2 * c))
        conv(x, f"dec{l}.up", buf(f"dec{l}.c1", l, 2 * c, chans=slice(c)))
        x = double_conv(buf(f"dec{l}.c1", l, 2 * c), f"dec{l}", l, c)
    logits = kept("head", *L.conv1x1_forward(x, p["head.W"], p["head.b"]))
    return L.sigmoid(logits), caches


def backward_batch(net: Network, caches: dict, dlogits: np.ndarray) -> dict:
    """Gradients of every parameter given dLoss/dlogits and forward_batch's
    caches (kept with keep_caches=True). A 3x3 conv reads the nine shifted
    windows of the bordered input it kept, one at a time, and builds no im2col
    matrix."""
    cfg = net.config
    grads = {}

    def conv_bw(d, name, input_grad=True):
        d, grads[f"{name}.W"], grads[f"{name}.b"] = L.conv3x3_backward(
            d, caches[name], input_grad=input_grad)
        return d

    def conv_relu_bw(d, name, input_grad=True):
        return conv_bw(L.relu_backward(d, caches[f"{name}.relu"]), name, input_grad)

    def double_conv_bw(d, name, input_grad=True):
        d = L.dropout_backward(d, caches[f"{name}.drop"])
        return conv_relu_bw(conv_relu_bw(d, f"{name}.c2"), f"{name}.c1", input_grad)

    d, grads["head.W"], grads["head.b"] = L.conv1x1_backward(dlogits, caches["head"])

    d_skip = {}
    for l in range(cfg.depth):  # reverse of decoder execution order
        d = double_conv_bw(d, f"dec{l}")
        ch = cfg.base_channels * (2 ** l)
        d_up, d_skip[l] = d[..., :ch], d[..., ch:]
        d = L.upsample2_backward(conv_bw(d_up, f"dec{l}.up"))

    d = double_conv_bw(d, "bott")
    for l in reversed(range(cfg.depth)):
        d = L.maxpool2_backward(d, caches[f"pool{l}"])
        d = d + d_skip[l]
        # the network's input takes no gradient
        d = double_conv_bw(d, f"enc{l}", input_grad=l > 0)
    return grads


def forward_maps(net: Network, image: BevImage, rngs) -> np.ndarray:
    """(len(rngs), H, W) float64 probability maps of `image`, one pass per rng
    (dropout off for None), clipped into [PROB_CLIP, 1 - PROB_CLIP]. The image
    is normalized once, and the passes share one Workspace, dropped on return:
    its buffers, weight matrices and the stem before the first dropout are made once."""
    res = net.config.resolution
    if image.spec.resolution != res:
        raise ValueError(f"image resolution {image.spec.resolution} != network resolution {res}")
    x = normalize_counts(image.counts, np.float32 if net.dtype == np.float32 else np.float64)
    x, maps, ws = x[None, :, :, None], np.empty((len(rngs), res, res)), Workspace(net)
    for t, rng in enumerate(rngs):
        maps[t] = forward_batch(net, x, drop_rng=rng, ws=ws)[0][0, :, :, 0]
    return np.clip(maps, PROB_CLIP, 1.0 - PROB_CLIP, out=maps)


def save_checkpoint(path, net: Network) -> None:
    """FVNT checkpoint: magic, u32 version, length-prefixed JSON config,
    then parameters as little-endian f32 in canonical layer order."""
    cfg = net.config
    header = json.dumps({
        "depth": cfg.depth, "base_channels": cfg.base_channels,
        "dropout_rate": cfg.dropout_rate, "resolution": cfg.resolution,
    }, sort_keys=True).encode("ascii")
    with open(path, "wb") as f:
        f.write(FVNT_MAGIC)
        f.write(struct.pack("<I", FVNT_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for name in net.param_names():
            f.write(net.params[name].astype("<f4").tobytes(order="C"))


def load_checkpoint(path) -> Network:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != FVNT_MAGIC:
        raise DataError(f"{path}: not an FVNT checkpoint")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FVNT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<I", data, 8)
    try:
        doc = json.loads(data[12:12 + hlen].decode("ascii"))
        cfg = NetConfig(**doc)
    except (ValueError, TypeError) as e:
        raise DataError(f"{path}: malformed checkpoint header ({e})") from e
    net = Network(cfg, {})
    offset = 12 + hlen
    for name, out_ch, in_ch, k in conv_specs(cfg):
        for suffix, shape in ((".W", (out_ch, in_ch, k, k)), (".b", (out_ch,))):
            n_vals = int(np.prod(shape))
            raw = data[offset:offset + 4 * n_vals]
            if len(raw) != 4 * n_vals:
                raise DataError(f"{path}: truncated checkpoint")
            net.params[name + suffix] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            offset += 4 * n_vals
    if offset != len(data):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return net
