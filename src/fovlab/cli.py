"""Command-line entry point wiring the library into end-to-end workflows.

Subcommands: synth, attack, estimate, train, infer, eval, crossval, sweep,
bench. Every command accepts --seed, prints its resolved configuration, and
is reproducible from (config, seed) alone.

estimate, eval and sweep score every frame on its own: a frame its estimator
cannot handle (for example rayc on fewer than 3 points) becomes a row with an
"error" message, is left out of pooled and mean metrics, and the command still
succeeds. bench leaves such frames out of its timings and reports their number
as "failed"; when no frame works, it is a data error.

Exit codes: 0 ok, 2 usage, 3 data error (DataError or OSError: a missing file,
or a malformed config, checkpoint or dataset file, such as a manifest, PGM mask
or FVPC cloud that does not parse or holds invalid values, an integer field of
a config, a manifest grid or a checkpoint header that is a bool, not an integer
or out of range, a config family name that is unknown or an out_dir that is not
a string, a checkpoint with a non-finite parameter, a manifest row whose path
is absolute or has a '..' part, a train split whose resolution the net depth of
train or crossval cannot halve that often, or an attack --out that is, contains
or lies inside --dataset), 4 numeric failure (a non-finite training loss, or
non-finite probability maps from a network whose activations overflow); any
other exception, ValueError included, is a bug and propagates. A flag value
that a library check would refuse (an unknown estimator, a seed, count, depth,
threshold or attack sigma, bounds or center out of range, a learning rate that
is not finite and positive, a crossval value outside the search grid) is a
usage error: the flag's parser type applies the same rule, so nothing is
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import io as fio
from .attacks import DEFAULT_BUDGET, AttackSpec
from .classical import MIN_BINS, MIN_K
from .config import load_config, parse_config, resolved_dict
from .datasets import SPLITS, attack_dataset, frames_to_pairs, open_dataset, synthesize_dataset
from .errors import DataError, NumericError
from .experiments import (CLASSICAL_ESTIMATORS, CROSSVAL_BASE_CHANNELS, CROSSVAL_DROPOUT,
                          CROSSVAL_LR, ESTIMATORS, crossval, evaluate, format_table,
                          make_estimator, measure_hz, security_sweep, write_csv, write_jsonl)
from .metrics import iou
from .segnet import NetConfig, TrainConfig, load_checkpoint, save_checkpoint, train, unet_init
from .segnet.inference import DEFAULT_THRESHOLD
from .types import derive_seed


def _echo_config(args, extra: dict | None = None) -> None:
    doc = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    if extra:
        doc.update(extra)
    print("resolved config: " + json.dumps(doc, sort_keys=True, default=str))


def _load_experiment(args):
    cfg = load_config(args.config) if args.config else parse_config({}, where="<defaults>")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed,
                                  train=dataclasses.replace(cfg.train, seed=args.seed))
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_experiment(args)
    out = args.out or cfg.out_dir
    if not out:
        raise DataError("synth needs --out or an out_dir in the config")
    frames = dict(cfg.frames)
    if args.frames is not None:
        frames = {"train": 0, "val": 0, "test": args.frames} if args.split == "test" \
            else {**frames, args.split: args.frames}
    _echo_config(args, {"resolved": resolved_dict(cfg), "out": str(out)})
    manifest = synthesize_dataset(out, cfg.family, cfg.lidar, cfg.grid, cfg.filter,
                                  frames, seed=cfg.seed, force=args.force)
    counts = {s: len(rows) for s, rows in manifest["splits"].items()}
    print(f"wrote dataset to {out}: {counts}")
    return 0


def cmd_attack(args) -> int:
    attack = AttackSpec(kind=args.kind, n_points=args.n_points,
                        budget=max(DEFAULT_BUDGET, args.n_points),
                        cluster_center=(args.center_x, args.center_y),
                        cluster_sigma=args.sigma, bounds=args.bounds,
                        seed=args.seed or 0)
    _echo_config(args, {"attack": dataclasses.asdict(attack)})
    attack_dataset(args.dataset, args.out, attack, seed=args.seed or 0, force=args.force)
    print(f"wrote adversarial variant to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    _echo_config(args)
    grid, filt, frames = open_dataset(args.dataset, args.split)
    estimate = make_estimator(args.method, grid, filt, n_bins=args.n_bins, k=args.k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ious = {}

    def predict(i):
        mask = estimate(frames[i].cloud, 0)[0]
        fio.save_mask_pgm(out / f"pred_{i:05d}.pgm", mask)
        ious[i] = iou(mask, frames[i].mask)
        return mask, None

    rows, pooled = evaluate(predict, [f.mask for f in frames], {"method": args.method})
    for row in rows:
        if row["frame"] in ious:
            row["iou"] = ious[row["frame"]]
    write_jsonl(out / "metrics.jsonl", rows + [pooled])
    print(format_table([pooled]))
    return 0


def cmd_train(args) -> int:
    cfg = _load_experiment(args)
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, max_epochs=args.epochs))
    if args.lr is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, learning_rate=args.lr))
    grid, filt, train_frames = open_dataset(args.dataset, "train")
    _, _, val_frames = open_dataset(args.dataset, "val")
    depth = cfg.net["depth"]
    _check_fit(train_frames, grid, depth, 1, f"net settings (depth {depth})")
    net_cfg = NetConfig(**cfg.net, resolution=grid.resolution)
    _echo_config(args, {"net": dataclasses.asdict(net_cfg),
                        "train": dataclasses.asdict(cfg.train)})
    train_pairs = frames_to_pairs(train_frames, grid, filt)
    val_pairs = frames_to_pairs(val_frames, grid, filt)
    net = unet_init(net_cfg, seed=cfg.seed)
    net, history = train(net, train_pairs, val_pairs, cfg.train)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out, net)
    write_jsonl(out.with_suffix(out.suffix + ".log.jsonl"), history)
    best = min(h["val_loss"] for h in history)
    print(f"wrote checkpoint {out} ({len(history)} epochs, best val loss {best:.4f})")
    return 0


def _check_fit(frames, grid, depth: int, folds: int, what: str) -> None:
    """A train split with fewer frames than `folds`, or a resolution that a
    UNet of `depth` cannot halve that often, is a DataError naming `what`."""
    if len(frames) < folds or grid.resolution % (2 ** depth):
        raise DataError(f"{what} do not fit the train split: "
                        f"{len(frames)} frames at resolution {grid.resolution}")


def _network_estimator(args):
    """Dataset frames and the MLE or MC-dropout estimator of `--checkpoint`."""
    grid, filt, frames = open_dataset(args.dataset, args.split)
    net = load_checkpoint(args.checkpoint)
    return frames, make_estimator("mcd" if args.mcd else "mle", grid, filt, net=net,
                                  mcd_passes=args.mcd, threshold=args.threshold)


def cmd_infer(args) -> int:
    _echo_config(args)
    frames, estimate = _network_estimator(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(frames):
        mask, scores, sigma = estimate(frame.cloud, derive_seed(args.seed or 0, i))
        np.save(out / f"prob_{i:05d}.npy", scores)
        fio.save_mask_pgm(out / f"pred_{i:05d}.pgm", mask)
        if sigma is not None:
            np.save(out / f"conf_{i:05d}.npy", sigma)
    print(f"wrote {len(frames)} predictions to {out}")
    return 0


def cmd_eval(args) -> int:
    _echo_config(args)
    frames, estimate = _network_estimator(args)
    rows, pooled = evaluate(lambda i: estimate(frames[i].cloud, derive_seed(args.seed or 0, i)),
                            [f.mask for f in frames])
    if args.out:
        write_jsonl(args.out, rows + [pooled])
    print(format_table([pooled]))
    return 0


def cmd_crossval(args) -> int:
    _echo_config(args)
    grid, filt, frames = open_dataset(args.dataset, "train")
    _check_fit(frames, grid, args.depth, args.folds, f"--folds {args.folds} --depth {args.depth}")
    pairs = frames_to_pairs(frames, grid, filt)
    grid_cfgs = []
    for b in args.base_channels:
        for d in CROSSVAL_DROPOUT if args.dropout is None else (args.dropout,):
            for lr in CROSSVAL_LR if args.lr is None else (args.lr,):
                grid_cfgs.append((
                    NetConfig(depth=args.depth, base_channels=b, dropout_rate=d,
                              resolution=grid.resolution),
                    TrainConfig(learning_rate=lr, max_epochs=args.epochs,
                                seed=args.seed or 0)))
    net_cfg, train_cfg, table = crossval(pairs, grid_cfgs, folds=args.folds,
                                         seed=args.seed or 0)
    if args.out:
        write_jsonl(args.out, table)
    print(format_table(table, ["config", "fold", "base_channels", "dropout_rate",
                               "learning_rate", "val_loss"]))
    print("selected: " + json.dumps({
        "base_channels": net_cfg.base_channels, "dropout_rate": net_cfg.dropout_rate,
        "learning_rate": train_cfg.learning_rate}, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    _echo_config(args)
    grid, filt, frames = open_dataset(args.dataset, args.split)
    net = load_checkpoint(args.checkpoint) if args.checkpoint else None
    estimates = {name: make_estimator(name, grid, filt, net=net, n_bins=args.n_bins, k=args.k,
                                      mcd_passes=args.mcd) for name in args.estimators}
    rows, per_frame = security_sweep(frames, grid, estimates, args.counts, args.seed or 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_jsonl(out / "sweep.jsonl", rows)
    write_csv(out / "sweep_frames.csv", per_frame)
    print(format_table(rows, ["estimator", "n_spoof", "precision", "recall", "f1", "auprc"]))
    return 0


def cmd_bench(args) -> int:
    _echo_config(args)
    grid, filt, frames = open_dataset(args.dataset, args.split)
    clouds = [frames[i % len(frames)].cloud for i in range(args.frames)]
    net = load_checkpoint(args.checkpoint) if args.checkpoint else None
    estimate = make_estimator(args.method, grid, filt, net=net, n_bins=args.n_bins, k=args.k)
    for cloud in clouds:  # warm caches before timing, on the first frame that works
        try:
            estimate(cloud, 0)
            break
        except ValueError:
            continue
    stats = measure_hz(lambda cloud: estimate(cloud, 0), clouds)
    stats["method"] = args.method
    stats["resolution"] = grid.resolution
    print(json.dumps(stats, sort_keys=True))
    return 0


def _estimator_list(text: str) -> list[str]:
    names = text.split(",")
    unknown = [n for n in names if n not in ESTIMATORS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown estimators {unknown}; "
                                         f"choose from {', '.join(ESTIMATORS)}")
    return names


def _int_list(minimum: int, grid: tuple | None = None):
    """argparse type: comma-separated integers, each >= `minimum` (and in `grid`)."""
    def parse(text: str) -> list[int]:
        try:
            values = [int(c) for c in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"need comma-separated integers, got {text!r}") from None
        if min(values) < minimum:
            raise argparse.ArgumentTypeError(f"need integers >= {minimum}, got {text!r}")
        if grid is not None and not set(values) <= set(grid):
            raise argparse.ArgumentTypeError(f"need integers from {grid}, got {text!r}")
        return values
    return parse


def _checked(convert, ok, need: str):
    """argparse type: `convert(text)`, refused unless `ok(value)` is true.

    `ok` may also be a library constructor that raises ValueError on a value
    it refuses, so the flag applies the library's own rule.
    """
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"need {need}, got {text!r}")
    return parse


def _int_at_least(minimum: int):
    return _checked(int, lambda n: n >= minimum, f"an integer >= {minimum}")


_learning_rate = _checked(float, lambda lr: TrainConfig(learning_rate=lr), "a number > 0")
_sigma = _checked(float, lambda s: AttackSpec(cluster_sigma=s), "a number >= 0")
_bounds = _checked(float, lambda b: AttackSpec(bounds=b), "a number > 0")
_center = _checked(float, lambda c: AttackSpec(cluster_center=(c, c)), "a finite number")
_depth = _checked(int, lambda d: NetConfig(depth=d), "an integer in [3, 6]")
_threshold = _checked(float, lambda t: 0.0 < t < 1.0, "a number in (0, 1)")


def _classical(n_bins: int) -> argparse.ArgumentParser:
    """Parent parser of the classical flags, one per --n-bins default: parsers
    built from one parent share its Action objects, and so their defaults."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--n-bins", type=_int_at_least(MIN_BINS), default=n_bins)
    parent.add_argument("--k", type=_int_at_least(MIN_K), default=16)
    return parent


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fovlab",
                                description="FOV estimation workbench: synthesize scenes, "
                                            "attack them, estimate FOV, train and evaluate models")
    sub = p.add_subparsers(dest="command", required=True)
    dataset, split, network = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    dataset.add_argument("--dataset", required=True)
    split.add_argument("--split", default="test", choices=SPLITS)
    data, classical = (dataset, split), _classical(360)
    network.add_argument("--checkpoint", required=True)
    network.add_argument("--mcd", type=_int_at_least(0), default=0,
                         help="MC-dropout passes (0 = MLE)")
    network.add_argument("--threshold", type=_threshold, default=DEFAULT_THRESHOLD)

    def add(name, fn, help_, *parents):
        sp = sub.add_parser(name, help=help_, parents=parents)
        sp.set_defaults(func=fn)
        sp.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="override the config seed")
        return sp

    sp = add("synth", cmd_synth, "generate a synthetic dataset with ground-truth FOV masks", split)
    sp.add_argument("--config", help="experiment config JSON")
    sp.add_argument("--out", help="output dataset directory")
    sp.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    sp.add_argument("--frames", type=_int_at_least(0), default=None,
                    help="override frame count for --split")

    sp = add("attack", cmd_attack, "write an adversarial variant of a dataset", dataset)
    sp.add_argument("--out", required=True)
    sp.add_argument("--kind", default="uniform", choices=("uniform", "cluster"))
    sp.add_argument("--n-points", type=_int_at_least(0), default=DEFAULT_BUDGET)
    sp.add_argument("--bounds", type=_bounds, default=75.0)
    sp.add_argument("--center-x", type=_center, default=0.0)
    sp.add_argument("--center-y", type=_center, default=0.0)
    sp.add_argument("--sigma", type=_sigma, default=1.0)
    sp.add_argument("--force", action="store_true")

    sp = add("estimate", cmd_estimate, "run a classical FOV estimator over a dataset",
             *data, classical)
    sp.add_argument("--method", required=True, choices=CLASSICAL_ESTIMATORS)
    sp.add_argument("--out", required=True, help="directory for masks and metrics.jsonl")

    sp = add("train", cmd_train, "train the segmentation network on a dataset", dataset)
    sp.add_argument("--config", help="experiment config JSON (net/train sections)")
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--epochs", type=_int_at_least(1), default=None)
    sp.add_argument("--lr", type=_learning_rate, default=None)

    sp = add("infer", cmd_infer, "write probability maps and masks for a split", network, *data)
    sp.add_argument("--out", required=True)

    sp = add("eval", cmd_eval, "evaluate a checkpoint against ground truth", network, *data)
    sp.add_argument("--out", help="metrics JSON-lines path")

    sp = add("crossval", cmd_crossval, "grid search via k-fold cross-validation", dataset)
    sp.add_argument("--folds", type=_int_at_least(2), default=5)
    sp.add_argument("--depth", type=_depth, default=4)
    sp.add_argument("--epochs", type=_int_at_least(1), default=5)
    sp.add_argument("--base-channels", type=_int_list(1, CROSSVAL_BASE_CHANNELS), default="4,8")
    sp.add_argument("--dropout", type=float, choices=CROSSVAL_DROPOUT, default=None)
    sp.add_argument("--lr", type=float, choices=CROSSVAL_LR, default=None)
    sp.add_argument("--out")

    sp = add("sweep", cmd_sweep, "metrics vs spoof count for a set of estimators", *data, classical)
    sp.add_argument("--estimators", type=_estimator_list, default="rayq,rayc,concave")
    sp.add_argument("--counts", type=_int_list(0), default="0,25,50,75,100,125,150",
                    help="spoofed point counts, comma-separated")
    sp.add_argument("--checkpoint", help="checkpoint for mle/mcd estimators")
    sp.add_argument("--mcd", type=_int_at_least(1), default=20,
                    help="MC-dropout passes of the mcd estimator")
    sp.add_argument("--out", required=True, help="output directory")

    sp = add("bench", cmd_bench, "throughput of the full preprocess+estimate path",
             *data, _classical(720))
    sp.add_argument("--method", default="rayq", choices=ESTIMATORS)
    sp.add_argument("--checkpoint")
    sp.add_argument("--frames", type=_int_at_least(1), default=50)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
