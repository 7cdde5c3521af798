"""Loss, Adam optimizer, training loop with early stopping, and gradient checks."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError
from ..types import BevImage, FovMask, seeded_rng
from .network import (Network, NetConfig, PROB_CLIP, Workspace, backward_batch,
                      forward_batch, normalize_counts, unet_init)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 30
    batch_size: int = 10
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or \
                min(self.learning_rate, self.max_epochs, self.batch_size, self.patience) <= 0:
            raise ValueError(f"TrainConfig values must be positive and finite, got {self}")


def _bce(probs: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(probs.astype(np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    t = targets.astype(np.float64)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))


def _bce_and_dlogits(probs: np.ndarray, targets: np.ndarray):
    """Loss plus gradient w.r.t. pre-sigmoid logits.

    The loss clamps probabilities to [PROB_CLIP, 1-PROB_CLIP]; in the clamped
    zone the exact derivative is zero, elsewhere it is (p - t) / n_cells.
    """
    p = probs.astype(np.float64)
    t = targets.astype(np.float64)
    in_range = (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    loss = float(-np.mean(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc)))
    dlogits = np.where(in_range, p - t, 0.0) / p.size
    return loss, dlogits.astype(probs.dtype)


class Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8)."""

    def __init__(self, params: dict, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            params[k] -= (self.lr * (self.m[k] / b1c)
                          / (np.sqrt(self.v[k] / b2c) + self.eps)).astype(params[k].dtype)


def _stack_dataset(net: Network, dataset) -> tuple[np.ndarray, np.ndarray]:
    dtype = net.dtype
    xs = np.stack([normalize_counts(img.counts, dtype) for img, _ in dataset])[..., None]
    ys = np.stack([mask.mask.astype(dtype) for _, mask in dataset])[..., None]
    return xs, ys


def _eval_loss(net: Network, xs: np.ndarray, ys: np.ndarray, batch_size: int) -> float:
    total = 0.0
    ws = Workspace(net)
    for i in range(0, xs.shape[0], batch_size):
        probs, _ = forward_batch(net, xs[i:i + batch_size], ws=ws)
        chunk = xs[i:i + batch_size].shape[0]
        total += _bce(probs, ys[i:i + batch_size]) * chunk
    return total / xs.shape[0]


def train(net: Network, train_set, val_set, cfg: TrainConfig):
    """Mini-batch Adam with dropout; stops early on stalled validation loss.

    `train_set` / `val_set` are sequences of (BevImage, FovMask). Returns
    (network restored to the best validation epoch, per-epoch history) where
    history rows are dicts: epoch, train_loss, val_loss, seconds.

    Fixed seeds give bit-identical loss histories on one machine.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be non-empty")
    xs, ys = _stack_dataset(net, train_set)
    vxs, vys = _stack_dataset(net, val_set)
    n = xs.shape[0]
    opt = Adam(net.params, cfg.learning_rate)
    shuffle_rng = seeded_rng(cfg.seed, 0xD5)

    best_val = np.inf
    best_params = None
    bad_epochs = 0
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(n)
        train_loss = 0.0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            probs, caches = forward_batch(net, xs[idx], drop_rng=seeded_rng(cfg.seed, epoch, b),
                                          keep_caches=True)
            loss, dlogits = _bce_and_dlogits(probs, ys[idx])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss!r} at epoch {epoch}, batch {b} "
                    f"(lr={cfg.learning_rate})")
            grads = backward_batch(net, caches, dlogits)
            del caches  # else the next batch's forward runs with two sets of caches alive
            opt.step(net.params, grads)
            train_loss += loss * idx.size
        train_loss /= n
        val_loss = _eval_loss(net, vxs, vys, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        history.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "seconds": time.perf_counter() - tic,
        })
        if val_loss < best_val:
            best_val = val_loss
            best_params = {k: v.copy() for k, v in net.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    if best_params is not None:
        net.params = best_params
    return net, history


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

    probs, caches = forward_batch(net, x, keep_caches=True)
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
    return unet_init(cfg, seed=seed, dtype=np.float64)
