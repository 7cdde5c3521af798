"""Loss, Adam optimizer and training loop with early stopping."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError
from ..types import check_int, seeded_rng
from .network import (Network, PROB_CLIP, Workspace, backward_batch, forward_batch,
                      normalize_counts)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 30
    batch_size: int = 10
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")
        for name in ("max_epochs", "batch_size", "patience"):
            check_int(getattr(self, name), name, 1)
        check_int(self.seed, "seed", 0)


def _bce(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean binary cross-entropy, computed in float64 (float64 arrays are not copied)."""
    p = np.clip(probs.astype(np.float64, copy=False), PROB_CLIP, 1.0 - PROB_CLIP)
    t = targets.astype(np.float64, copy=False)
    return float(-np.mean(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))


def _bce_and_dlogits(probs: np.ndarray, targets: np.ndarray):
    """Loss plus gradient w.r.t. pre-sigmoid logits.

    The loss clamps probabilities to [PROB_CLIP, 1-PROB_CLIP]; in the clamped
    zone the exact derivative is zero, elsewhere it is (p - t) / n_cells.
    """
    p, t = probs.astype(np.float64), targets.astype(np.float64)
    in_range = (p > PROB_CLIP) & (p < 1.0 - PROB_CLIP)
    dlogits = np.where(in_range, p - t, 0.0) / p.size
    return _bce(p, t), dlogits.astype(probs.dtype)


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
    bad_epochs = 0
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        order = shuffle_rng.permutation(n)
        train_loss = 0.0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            probs, caches = forward_batch(net, xs[idx], drop_rng=seeded_rng(cfg.seed, epoch, b))
            loss, dlogits = _bce_and_dlogits(probs, ys[idx])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss {loss!r} at epoch {epoch}, batch {b} "
                    f"(lr={cfg.learning_rate})")
            grads = backward_batch(net, caches, dlogits)  # empties caches
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
    net.params = best_params  # set by the first epoch: a non-finite loss raises first
    return net, history
