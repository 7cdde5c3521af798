"""Experiment configuration: strict JSON parsing into the library dataclasses.

A config document combines the sections below; unknown keys anywhere are
rejected before any work starts.

    {
      "family":  {"name": "outdoor-sparse", ...SceneFamily overrides},
      "lidar":   {...LidarModel},          # defaults follow the family
      "grid":    {"extent": 75, "resolution": 256},
      "filter":  {...FilterSpec},
      "net":     {...NetConfig, no resolution},  # train uses the dataset's
      "train":   {...TrainConfig},
      "frames":  {"train": 400, "val": 50, "test": 100},
      "seed":    0,
      "out_dir": "runs/exp1"               # optional
    }

An integer field, here or in a section's dataclass, must be an integer in its
range: a bool (true) or a float (4.0) is refused, as `types.check_int` rules.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .scenes import LidarModel, SceneFamily, default_grid, default_lidar
from .segnet import NetConfig, TrainConfig
from .types import FilterSpec, GridSpec, check_int

_SECTIONS = ("family", "lidar", "grid", "filter", "net", "train", "frames",
             "seed", "out_dir")


def build_dataclass(cls, doc: dict, where: str):
    """Construct a dataclass from a JSON object, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected an object, got {type(doc).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise DataError(f"{where}: unknown keys {unknown}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise DataError(f"{where}: {e}") from e


@dataclass
class ExperimentConfig:
    family: SceneFamily
    lidar: LidarModel
    grid: GridSpec
    filter: FilterSpec
    net: dict  # NetConfig keyword arguments but resolution
    train: TrainConfig
    frames: dict
    seed: int = 0
    out_dir: str | None = None


def parse_config(doc: dict, where: str = "config") -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise DataError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - set(_SECTIONS))
    if unknown:
        raise DataError(f"{where}: unknown sections {unknown}")

    fam_doc = doc.get("family", {})
    if not isinstance(fam_doc, dict):
        raise DataError(f"{where}.family: expected an object, got {type(fam_doc).__name__}")
    try:
        preset = SceneFamily.preset(fam_doc.get("name", "outdoor-sparse"))
    except ValueError as e:
        raise DataError(f"{where}.family: {e}") from e
    family = build_dataclass(SceneFamily, {**dataclasses.asdict(preset), **fam_doc},
                             f"{where}.family")

    lidar = build_dataclass(LidarModel, doc["lidar"], f"{where}.lidar") \
        if "lidar" in doc else default_lidar(family.name)
    grid = build_dataclass(GridSpec, doc["grid"], f"{where}.grid") \
        if "grid" in doc else default_grid(family.name)
    filt = build_dataclass(FilterSpec, doc["filter"], f"{where}.filter") \
        if "filter" in doc else FilterSpec(max_range=lidar.max_range)

    net_doc = doc.get("net", {})
    if isinstance(net_doc, dict) and "resolution" in net_doc:
        raise DataError(f"{where}.net: unknown keys ['resolution']; "
                        "the net takes its dataset's resolution")
    # checked at NetConfig's default resolution, 64, which 2^depth divides for
    # every depth it accepts; train builds the net at its dataset's resolution
    net = dataclasses.asdict(build_dataclass(NetConfig, net_doc, f"{where}.net"))
    del net["resolution"]
    train = build_dataclass(TrainConfig, doc.get("train", {}), f"{where}.train")

    frames = doc.get("frames", {"train": 0, "val": 0, "test": 0})
    if not isinstance(frames, dict) or set(frames) - {"train", "val", "test"}:
        raise DataError(f"{where}.frames: expected keys from {{train, val, test}}")
    seed = doc.get("seed", 0)
    try:
        for split, n in frames.items():
            check_int(n, f"frames.{split}", 0)
        check_int(seed, "seed", 0)
    except ValueError as e:
        raise DataError(f"{where}: {e}") from e
    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise DataError(f"{where}.out_dir: expected a string, got {out_dir!r}")
    return ExperimentConfig(family=family, lidar=lidar, grid=grid, filter=filt,
                            net=net, train=train, frames=frames, seed=seed, out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{p}: invalid JSON ({e})") from e
    return parse_config(doc, where=str(p))


def resolved_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved config for echoing back to the user."""
    out = dataclasses.asdict(cfg)
    if cfg.out_dir is None:
        del out["out_dir"]
    return out
