"""Dataset plumbing: synthesize frame sets, write/read them on disk, attack them.

On-disk layout under a dataset root:

    manifest.json              # grid/lidar/family config + file triples per split
    <split>/frame_NNNNN.fvpc   # point cloud
    <split>/frame_NNNNN.pgm    # ground-truth visibility mask
    <split>/frame_NNNNN.scene.json

The manifest lists, for every split in {train, val, test}, one
{cloud, mask, scene} triple per frame (paths relative to the root).
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
    if out.exists() and any(out.iterdir()):
        if not force:
            raise DataError(f"output directory {out} is not empty (use force to overwrite)")
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "family": dataclasses.asdict(family),
        "lidar": dataclasses.asdict(lidar),
        "grid": {"extent": grid.extent, "resolution": grid.resolution},
        "filter": dataclasses.asdict(filt),
        "seed": seed,
        "splits": {},
    }
    for split in SPLITS:
        n = int(frames_per_split.get(split, 0))
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


def load_manifest(root) -> dict:
    """The manifest under `root`. One that is not JSON, lacks "grid" or "splits",
    has "splits" that is not an object, or has a malformed grid or filter is a
    DataError naming the file."""
    path = Path(root) / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes())
        if not isinstance(manifest, dict) or not {"grid", "splits"} <= manifest.keys():
            raise DataError("manifest needs 'grid' and 'splits'")
        if not isinstance(manifest["splits"], dict):
            raise DataError("manifest 'splits' is not an object")
        manifest_grid(manifest), manifest_filter(manifest)
    except FileNotFoundError:
        raise DataError(f"no manifest.json under {root}") from None
    except (ValueError, DataError) as e:  # ValueError: not JSON
        raise DataError(f"{path}: {e}") from e
    return manifest


def manifest_grid(manifest: dict) -> GridSpec:
    try:
        return GridSpec(extent=manifest["grid"]["extent"], resolution=manifest["grid"]["resolution"])
    except (KeyError, TypeError, ValueError) as e:  # KeyError: both keys are required
        raise DataError(f"bad grid ({type(e).__name__}: {e})") from e


def manifest_filter(manifest: dict) -> FilterSpec:
    return build_dataclass(FilterSpec, manifest.get("filter", {}), "filter")


def load_frames(root, split: str) -> list[Frame]:
    root = Path(root)
    manifest = load_manifest(root)
    grid = manifest_grid(manifest)
    try:
        files = [(root / row["cloud"], root / row["mask"]) for row in manifest["splits"].get(split, [])]
    except (KeyError, TypeError) as e:  # a row that is not an object with both keys
        raise DataError(f"{root / 'manifest.json'}: bad {split} row ({type(e).__name__}: {e})") from e
    return [Frame(fio.load_point_cloud(cloud), fio.load_mask_pgm(mask, grid)) for cloud, mask in files]


def open_dataset(root, split: str) -> tuple[GridSpec, FilterSpec, list[Frame]]:
    """Grid, filter and frames of one split; an empty split is a DataError."""
    manifest = load_manifest(root)
    frames = load_frames(root, split)
    if not frames:
        raise DataError(f"dataset split {split!r} is empty")
    return manifest_grid(manifest), manifest_filter(manifest), frames


def attack_dataset(in_dir, out_dir, attack: AttackSpec, seed: int = 0,
                   force: bool = False) -> dict:
    """Write an adversarial variant: clouds rewritten through the injector,
    ground-truth masks and scenes copied unchanged (spoofed points do not
    confer real visibility)."""
    src = Path(in_dir)
    out = Path(out_dir)
    manifest = load_manifest(src)
    try:  # split -> per frame, (source, destination) of its cloud, mask and scene
        files = {split: [[(src / row[k], out / row[k]) for k in ("cloud", "mask", "scene")]
                         for row in rows] for split, rows in manifest["splits"].items()}
    except (KeyError, TypeError) as e:
        raise DataError(f"{src / 'manifest.json'}: bad split row ({type(e).__name__}: {e})") from e
    if out.exists() and any(out.iterdir()):
        if not force:
            raise DataError(f"output directory {out} is not empty (use force to overwrite)")
        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)

    manifest["attack"] = dataclasses.asdict(attack)
    manifest["attack_seed"] = seed
    for split, rows in files.items():
        if rows:
            (out / split).mkdir(exist_ok=True)
        for i, ((cloud_in, cloud_out), *copies) in enumerate(rows):
            cloud = fio.load_point_cloud(cloud_in)
            per_frame = dataclasses.replace(attack, seed=frame_seed(seed, split, i))
            fio.save_point_cloud(cloud_out, spoof(cloud, per_frame))
            for a, b in copies:  # mask and scene
                shutil.copyfile(a, b)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def frames_to_pairs(frames: list[Frame], grid: GridSpec, filt: FilterSpec) -> list[tuple[BevImage, FovMask]]:
    """Preprocess frames into (BevImage, FovMask) training pairs."""
    return [(cloud_to_bev(f.cloud, grid, filt), f.mask) for f in frames]


__all__ = [
    "Frame", "SPLITS", "frame_seed", "synthesize_dataset", "attack_dataset",
    "load_manifest", "load_frames", "open_dataset", "frames_to_pairs",
    "manifest_grid", "manifest_filter",
]
