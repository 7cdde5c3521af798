"""Dataset plumbing: synthesize frame sets, write/read them on disk, attack them.

On-disk layout under a dataset root:

    manifest.json              # grid/lidar/family config + file triples per split
    <split>/frame_NNNNN.fvpc   # point cloud
    <split>/frame_NNNNN.pgm    # ground-truth visibility mask
    <split>/frame_NNNNN.scene.json

The manifest lists, for every split in {train, val, test}, one
{cloud, mask, scene} triple per frame. Each path is relative to the root and
inside it: a row path that is absolute or has a '..' part is a DataError,
raised before any file is read or written.

`load_manifest(root)` is the one reader of manifest.json: it checks the
document and returns `(manifest, grid, filter)`, the parsed dict with the
GridSpec and FilterSpec it declares, each built once. `open_dataset` reads a
split's frames from that parse, so every frame's mask carries that grid.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from . import io as fio
from .attacks import AttackSpec, spoof
from .config import build_dataclass
from .errors import DataError
from .geometry import cloud_to_bev
from .scenes import LidarModel, SceneFamily, generate_scene, ground_truth_fov, simulate_lidar
from .types import BevImage, FilterSpec, FovMask, GridSpec, PointCloud, derive_seed

SPLITS = ("train", "val", "test")


@dataclass
class Frame:
    cloud: PointCloud
    mask: FovMask


def frame_seed(base_seed: int, split: str, index: int) -> int:
    """Stable per-frame seed; keeps splits disjoint in RNG space."""
    return derive_seed(base_seed, SPLITS.index(split), index)


def synthesize_dataset(out_dir, family: SceneFamily, lidar: LidarModel, grid: GridSpec,
                       filt: FilterSpec, frames_per_split: dict, seed: int = 0,
                       force: bool = False) -> dict:
    """Generate and write a dataset; returns the manifest dict.

    Deterministic per (family, lidar, grid, frames, seed): rerunning with an
    identical config produces byte-identical files.
    """
    out = Path(out_dir)
    _fresh_dir(out, force)
    manifest = {
        "family": dataclasses.asdict(family),
        "lidar": dataclasses.asdict(lidar),
        "grid": {"extent": grid.extent, "resolution": grid.resolution},
        "filter": dataclasses.asdict(filt),
        "seed": seed,
        "splits": {},
    }
    for split in SPLITS:
        n = frames_per_split.get(split, 0)
        rows = []
        split_dir = out / split
        if n:
            split_dir.mkdir(exist_ok=True)
        for i in range(n):
            fseed = frame_seed(seed, split, i)
            scene = generate_scene(family, fseed)
            cloud = simulate_lidar(scene, lidar, fseed)
            mask = ground_truth_fov(scene, lidar, grid)
            stem = f"frame_{i:05d}"
            fio.save_point_cloud(split_dir / f"{stem}.fvpc", cloud)
            fio.save_mask_pgm(split_dir / f"{stem}.pgm", mask)
            fio.save_scene(split_dir / f"{stem}.scene.json", scene)
            rows.append({
                "cloud": f"{split}/{stem}.fvpc",
                "mask": f"{split}/{stem}.pgm",
                "scene": f"{split}/{stem}.scene.json",
            })
        manifest["splits"][split] = rows
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(root) -> tuple[dict, GridSpec, FilterSpec]:
    """The manifest under `root`, with the grid and filter it declares, each
    built once. One that is not JSON, lacks "grid" or "splits", has "splits"
    that is not an object or names a split outside SPLITS, or has a malformed
    grid or filter is a DataError naming the file."""
    path = Path(root) / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
        if not isinstance(manifest, dict) or not {"grid", "splits"} <= manifest.keys():
            raise DataError("manifest needs 'grid' and 'splits'")
        if not isinstance(manifest["splits"], dict):
            raise DataError("manifest 'splits' is not an object")
        if not manifest["splits"].keys() <= set(SPLITS):
            raise DataError(f"manifest 'splits' may name only {', '.join(SPLITS)}, "
                            f"not {', '.join(sorted(manifest['splits'].keys() - set(SPLITS)))}")
        try:
            grid = GridSpec(extent=manifest["grid"]["extent"],
                            resolution=manifest["grid"]["resolution"])
        except (KeyError, TypeError, ValueError) as e:  # KeyError: both keys are required
            raise DataError(f"bad grid ({type(e).__name__}: {e})") from e
        filt = build_dataclass(FilterSpec, manifest.get("filter", {}), "filter")
    except FileNotFoundError:
        raise DataError(f"no manifest.json under {root}") from None
    except (ValueError, DataError) as e:  # ValueError: not JSON
        raise DataError(f"{path}: {e}") from e
    return manifest, grid, filt


def load_frames(root, split: str) -> list[Frame]:
    return open_dataset(root, split)[2]


def _split_files(root: Path, manifest: dict, split: str, keys: tuple) -> list[list[Path]]:
    """The `keys` files of each frame row of `split` in the loaded `manifest` of
    `root`, as paths under `root`. A row that is not an object with those keys,
    or a path that is not a string, is absolute or has a '..' part, is a
    DataError naming manifest.json."""
    files = []
    try:  # one loop of string tests: reading a small frame takes tens of microseconds
        for row in manifest["splits"].get(split, []):
            paths = []
            for key in keys:
                if row[key].startswith("/") or ".." in row[key].split("/"):
                    raise ValueError(f"{row[key]!r} is not a relative path inside the dataset")
                paths.append(root / row[key])
            files.append(paths)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise DataError(f"{root / 'manifest.json'}: bad {split} row ({type(e).__name__}: {e})") from e
    return files


def _fresh_dir(out: Path, force: bool) -> None:
    """Create the output directory `out`; a non-empty one is a DataError
    unless `force`, which removes it first."""
    if out.exists() and any(out.iterdir()):
        if not force:
            raise DataError(f"output directory {out} is not empty (use force to overwrite)")
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)


def open_dataset(root, split: str) -> tuple[GridSpec, FilterSpec, list[Frame]]:
    """Grid, filter and frames of one split, from one parse of the manifest:
    every frame's mask carries that grid. An empty split is a DataError."""
    manifest, grid, filt = load_manifest(root)
    frames = [Frame(fio.load_point_cloud(cloud), fio.load_mask_pgm(mask, grid))
              for cloud, mask in _split_files(Path(root), manifest, split, ("cloud", "mask"))]
    if not frames:
        raise DataError(f"dataset split {split!r} is empty")
    return grid, filt, frames


def attack_dataset(in_dir, out_dir, attack: AttackSpec, seed: int = 0,
                   force: bool = False) -> dict:
    """Write an adversarial variant: clouds rewritten through the injector,
    ground-truth masks and scenes copied unchanged (spoofed points do not
    confer real visibility). An output directory that is the dataset, lies
    inside it or contains it is a DataError, raised before anything is removed."""
    src = Path(in_dir)
    out = Path(out_dir)
    a, b = src.resolve(), out.resolve()
    if a == b or a in b.parents or b in a.parents:
        raise DataError(f"output directory {out} is, contains or lies inside the dataset {src}")
    manifest = load_manifest(src)[0]
    files = {split: _split_files(src, manifest, split, ("cloud", "mask", "scene"))
             for split in manifest["splits"]}
    _fresh_dir(out, force)
    manifest["attack"] = dataclasses.asdict(attack)
    manifest["attack_seed"] = seed
    for split, rows in files.items():
        if rows:
            (out / split).mkdir(exist_ok=True)
        for i, (cloud, *copies) in enumerate(rows):
            per_frame = dataclasses.replace(attack, seed=frame_seed(seed, split, i))
            fio.save_point_cloud(out / cloud.relative_to(src),
                                 spoof(fio.load_point_cloud(cloud), per_frame))
            for path in copies:  # mask and scene
                shutil.copyfile(path, out / path.relative_to(src))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def frames_to_pairs(frames: list[Frame], grid: GridSpec, filt: FilterSpec) -> list[tuple[BevImage, FovMask]]:
    """Preprocess frames into (BevImage, FovMask) training pairs."""
    return [(cloud_to_bev(f.cloud, grid, filt), f.mask) for f in frames]


__all__ = [
    "Frame", "SPLITS", "frame_seed", "synthesize_dataset", "attack_dataset",
    "load_manifest", "load_frames", "open_dataset", "frames_to_pairs",
]
