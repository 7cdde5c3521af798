"""Experiment harness: the estimator factory and the scoring core, and on top
of them cross-validation, the security sweep and throughput timing.

Every estimator is built by `make_estimator` and scored by `evaluate`; the
CLI commands are loops over these. Every random stream is derived from
(global seed, labels), so a run is reproducible from its config and seed.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .attacks import AttackSpec, spoof
from .classical import (MIN_BINS, MIN_K, concave_hull, polar_to_mask, rasterize_polygon,
                        raytrace_continuous, raytrace_quantized)
from .datasets import Frame
from .errors import DataError
from .geometry import cloud_to_bev, filter_points, project_to_bev
from .metrics import ConfusionCounts, auprc_arrays, confusion, metrics
from .segnet import Network, binarize, infer_mcd, infer_mle, parameter_count, train, unet_init
from .segnet.inference import DEFAULT_THRESHOLD
from .types import FilterSpec, GridSpec, derive_seed, seeded_rng

CROSSVAL_BASE_CHANNELS = (4, 8, 16, 32)
CROSSVAL_DROPOUT = (0.05, 0.10, 0.15)
CROSSVAL_LR = (1e-4, 1e-3, 1e-2)

ESTIMATORS = ("rayq", "rayc", "concave", "mle", "mcd")
CLASSICAL_ESTIMATORS, LEARNED_ESTIMATORS = ESTIMATORS[:3], ESTIMATORS[3:]


# ----------------------------------------------------------------------------
# estimators and scoring


def make_estimator(name: str, grid: GridSpec, filt: FilterSpec, *, net: Network | None = None,
                   n_bins: int = 360, k: int = 16, mcd_passes: int = 20,
                   threshold: float = DEFAULT_THRESHOLD):
    """Return `estimate(cloud, seed) -> (mask, scores, sigma | None)` for one estimator.

    Classical estimators run project -> filter -> estimator -> rasterize and
    score each cell by its mask bit. 'mle' and 'mcd' run `cloud_to_bev` and
    the network `net`; `seed` drives the MC-dropout passes. Parameters are
    checked here, so a ValueError from `estimate` means a degenerate frame.
    """
    if name not in ESTIMATORS:
        raise ValueError(f"unknown estimator {name!r}; choose from {', '.join(ESTIMATORS)}")
    if name in LEARNED_ESTIMATORS:
        if net is None:
            raise DataError(f"estimator {name!r} needs a checkpoint")
        if net.config.resolution != grid.resolution:
            raise DataError(f"checkpoint resolution {net.config.resolution} != dataset "
                            f"resolution {grid.resolution}")
        if (name == "mcd" and mcd_passes < 1) or not 0.0 < threshold < 1.0:
            raise ValueError(f"need mcd_passes >= 1 and threshold in (0, 1), "
                             f"got {mcd_passes}, {threshold}")

        def infer(cloud, seed):
            img = cloud_to_bev(cloud, grid, filt)
            if name == "mcd":
                pm, conf = infer_mcd(net, img, T=mcd_passes, seed=seed)
                sigma = conf.sigma
            else:
                pm, sigma = infer_mle(net, img), None
            return binarize(pm, threshold), pm.values, sigma
        return infer
    if (name == "rayq" and n_bins < MIN_BINS) or (name == "concave" and k < MIN_K):
        raise ValueError(f"{name} needs n_bins >= {MIN_BINS} and k >= {MIN_K}, "
                         f"got n_bins={n_bins}, k={k}")

    def estimate(cloud, seed):
        pts = filter_points(project_to_bev(cloud), filt)[:, :2]
        if name == "rayq":
            mask = polar_to_mask(raytrace_quantized(pts, n_bins), grid)
        elif name == "rayc":
            mask = rasterize_polygon(raytrace_continuous(pts), grid)
        else:
            mask = rasterize_polygon(concave_hull(pts, k), grid)
        return mask, mask.mask.astype(float), None
    return estimate


def _auprc(scores: np.ndarray, truth: np.ndarray) -> float | None:
    """AUPRC, or None when there is no visible cell to rank."""
    return auprc_arrays(scores, truth) if truth.any() else None


def evaluate(predict, truths, labels: dict | None = None) -> tuple[list[dict], dict]:
    """Score predictions against ground truth, frame by frame and pooled.

    `predict(i)` returns frame i's (mask, scores, ...); scores may be None,
    which leaves AUPRC out, and anything after them is ignored. A ValueError
    from `predict` makes the frame a row with its "error", left out of the
    pool. AUPRC is None where no cell is visible. Returns (per-frame rows,
    pooled row); every row carries `labels` and "frame".
    """
    labels = labels or {}
    rows = []
    total = ConfusionCounts(0, 0, 0, 0)
    scored, truth = [], []
    for i, gt in enumerate(truths):
        try:
            mask, scores = predict(i)[:2]
        except ValueError as e:
            rows.append({**labels, "frame": i, "error": str(e)})
            continue
        c = confusion(mask, gt)
        total = total + c
        row = metrics(c, {**labels, "frame": i}).to_row()
        if scores is not None:
            scored.append(np.ravel(scores))
            truth.append(gt.mask.ravel())
            row["auprc"] = _auprc(scored[-1], truth[-1])
        rows.append(row)
    pooled = metrics(total, {**labels, "frame": "pooled"}).to_row()
    if scored:
        pooled["auprc"] = _auprc(np.concatenate(scored), np.concatenate(truth))
    return rows, pooled


# ----------------------------------------------------------------------------
# cross-validation


def crossval(dataset, grid_configs, folds: int = 5, seed: int = 0, train_fn=None):
    """k-fold cross-validation over a (NetConfig, TrainConfig) grid.

    `dataset` is a sequence of (BevImage, FovMask) pairs. Folds are contiguous
    chunks of a seeded shuffle. Returns (best_net_cfg, best_train_cfg, table)
    where table rows record every (config, fold) validation loss. Ties are
    broken by smaller parameter count, then lower learning rate.

    `train_fn(net, train_set, val_set, cfg) -> (net, history)` may be injected
    for testing; it defaults to segnet.train.
    """
    n = len(dataset)
    if not 2 <= folds <= n:
        raise ValueError(f"need 2 <= folds <= {n} samples, got {folds} folds")
    if not grid_configs:
        raise ValueError("empty cross-validation grid")
    for net_cfg, train_cfg in grid_configs:
        if net_cfg.base_channels not in CROSSVAL_BASE_CHANNELS:
            raise ValueError(f"base_channels {net_cfg.base_channels} outside the search grid")
        if not any(abs(net_cfg.dropout_rate - d) < 1e-12 for d in CROSSVAL_DROPOUT):
            raise ValueError(f"dropout_rate {net_cfg.dropout_rate} outside the search grid")
        if not any(abs(train_cfg.learning_rate - lr) < 1e-15 for lr in CROSSVAL_LR):
            raise ValueError(f"learning_rate {train_cfg.learning_rate} outside the search grid")
    train_fn = train_fn or train

    order = seeded_rng(seed, 0xCF).permutation(n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    fold_idx = [order[bounds[i]:bounds[i + 1]] for i in range(folds)]

    table = []
    summary = []
    for ci, (net_cfg, train_cfg) in enumerate(grid_configs):
        losses = []
        for fi in range(folds):
            val = [dataset[j] for j in fold_idx[fi]]
            tr = [dataset[j] for f2 in range(folds) if f2 != fi for j in fold_idx[f2]]
            net = unet_init(net_cfg, seed=seed + ci)
            _, history = train_fn(net, tr, val, train_cfg)
            val_loss = min(h["val_loss"] for h in history)
            losses.append(val_loss)
            table.append({
                "config": ci, "fold": fi, "val_loss": val_loss,
                "base_channels": net_cfg.base_channels,
                "dropout_rate": net_cfg.dropout_rate,
                "learning_rate": train_cfg.learning_rate,
            })
        summary.append((float(np.mean(losses)), parameter_count(net_cfg),
                        train_cfg.learning_rate, ci))
    best = min(summary)
    best_net_cfg, best_train_cfg = grid_configs[best[3]]
    return best_net_cfg, best_train_cfg, table


# ----------------------------------------------------------------------------
# security sweep


def security_sweep(frames: list[Frame], grid: GridSpec, filt: FilterSpec,
                   estimators=CLASSICAL_ESTIMATORS, net: Network | None = None,
                   spoof_counts=(0, 25, 50, 75, 100, 125, 150), mcd_passes: int = 20,
                   n_bins: int = 360, k: int = 16, seed: int = 0) -> tuple[list[dict], list[dict]]:
    """Metrics per (estimator, spoof count) under uniform spoofing.

    `net` is the network of the learned estimators ('mle', 'mcd'), which
    binarize at DEFAULT_THRESHOLD. Returns (rows, per_frame): one row of
    means per (estimator, spoof count), over the frames that were scored (a
    metric no frame defines is None), and every frame's record, failed frames
    included (a long-format table for violin plots).
    """
    estimates = [(est, make_estimator(est, grid, filt, net=net, n_bins=n_bins, k=k,
                                      mcd_passes=mcd_passes))
                 for est in estimators]
    counts = [int(n) for n in spoof_counts]
    attacks = {n: AttackSpec(kind="uniform", n_points=n, budget=max(150, n), bounds=grid.extent)
               for n in counts if n}
    truths = [f.mask for f in frames]
    rows, per_frame = [], []
    for est, estimate in estimates:
        for n_spoof in counts:
            def predict(fi):
                cloud = frames[fi].cloud
                if n_spoof:
                    cloud = spoof(cloud, replace(attacks[n_spoof], seed=derive_seed(seed, fi, n_spoof)))
                return estimate(cloud, derive_seed(seed, fi, n_spoof, 1))

            per, _ = evaluate(predict, truths, {"estimator": est, "n_spoof": n_spoof})
            per_frame.extend({c: r[c] for c in r if c != "accuracy"} for r in per)
            row = {"estimator": est, "n_spoof": n_spoof}
            for key in ("precision", "recall", "accuracy", "f1", "auprc"):
                values = [r[key] for r in per if r.get(key) is not None]
                row[key] = float(np.mean(values)) if values else None
            rows.append(row)
    return rows, per_frame


# ----------------------------------------------------------------------------
# timing


def measure_hz(fn, frames) -> dict:
    """Median and p95 frame rate of fn over the frames it handles. A frame on
    which fn raises ValueError (a degenerate frame) is counted as failed and
    left out; when every frame fails, that is a DataError."""
    times, failed = [], 0
    for frame in frames:
        t0 = time.perf_counter()
        try:
            fn(frame)
            times.append(time.perf_counter() - t0)
        except ValueError:
            failed += 1
    if not times:
        raise DataError(f"no frame could be estimated: all {failed} raised ValueError")
    times = np.array(times)
    return {
        "frames": len(times),
        "failed": failed,
        "median_hz": float(1.0 / np.median(times)),
        "p95_hz": float(1.0 / np.quantile(times, 0.95)),
        "median_ms": float(np.median(times) * 1e3),
        "p95_ms": float(np.quantile(times, 0.95) * 1e3),
    }


# ----------------------------------------------------------------------------
# output writers


def write_jsonl(path, rows: list[dict]) -> None:
    with open(path, "w") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def write_csv(path, rows: list[dict]) -> None:
    if not rows:
        Path(path).write_text("")
        return
    keys = sorted({k for row in rows for k in row})
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=keys)
        w.writeheader()
        w.writerows(rows)


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Aligned text table for terminal output."""
    if not rows:
        return "(empty)\n"
    columns = columns or sorted({k for row in rows for k in row})
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(c), max(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


__all__ = [
    "make_estimator", "evaluate", "crossval", "security_sweep", "measure_hz",
    "write_jsonl", "write_csv", "format_table",
    "CROSSVAL_BASE_CHANNELS", "CROSSVAL_DROPOUT", "CROSSVAL_LR",
    "ESTIMATORS", "CLASSICAL_ESTIMATORS", "LEARNED_ESTIMATORS",
]
