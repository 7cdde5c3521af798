import json

import numpy as np
import pytest

from fovlab.attacks import AttackSpec
from fovlab.datasets import (attack_dataset, frames_to_pairs, load_frames, load_manifest,
                             manifest_filter, manifest_grid, synthesize_dataset)
from fovlab.errors import DataError
from fovlab.scenes import LidarModel, SceneFamily, ground_truth_fov
from fovlab.types import FilterSpec, GridSpec
from fovlab import io as fio


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    family = SceneFamily.preset("outdoor-sparse")
    lidar = LidarModel(n_beams=180, max_range=75.0, range_noise_sigma=0.02, dropout_prob=0.01)
    grid = GridSpec(extent=75.0, resolution=64)
    filt = FilterSpec(max_range=75.0)
    manifest = synthesize_dataset(out, family, lidar, grid, filt,
                                  {"train": 3, "val": 2, "test": 2}, seed=5)
    return out, manifest


def test_manifest_structure(small_dataset):
    root, manifest = small_dataset
    assert {len(manifest["splits"][s]) for s in ("train", "val", "test")} == {3, 2}
    for split, rows in manifest["splits"].items():
        for row in rows:
            assert set(row) == {"cloud", "mask", "scene"}
            for key in row:
                assert (root / row[key]).exists()
    disk = load_manifest(root)
    assert disk["splits"] == manifest["splits"]


def test_synthesis_deterministic(tmp_path, small_dataset):
    root, manifest = small_dataset
    family = SceneFamily.preset("outdoor-sparse")
    lidar = LidarModel(n_beams=180, max_range=75.0, range_noise_sigma=0.02, dropout_prob=0.01)
    grid = GridSpec(extent=75.0, resolution=64)
    rerun = tmp_path / "rerun"
    synthesize_dataset(rerun, family, lidar, grid, FilterSpec(max_range=75.0),
                       {"train": 3, "val": 2, "test": 2}, seed=5)
    for split, rows in manifest["splits"].items():
        for row in rows:
            for key in ("cloud", "mask", "scene"):
                assert (root / row[key]).read_bytes() == (rerun / row[key]).read_bytes()


def test_masks_match_oracle_recompute(small_dataset):
    root, manifest = small_dataset
    lidar = LidarModel(**manifest["lidar"])
    grid = manifest_grid(manifest)
    frames = load_frames(root, "test")
    for frame, row in zip(frames, manifest["splits"]["test"]):
        want = ground_truth_fov(fio.load_scene(root / row["scene"]), lidar, grid)
        np.testing.assert_array_equal(frame.mask.mask, want.mask)


def test_refuses_nonempty_dir_without_force(small_dataset):
    root, _ = small_dataset
    family = SceneFamily.preset("outdoor-sparse")
    with pytest.raises(DataError):
        synthesize_dataset(root, family, LidarModel(n_beams=180),
                           GridSpec(extent=75.0, resolution=64), FilterSpec(),
                           {"train": 1}, seed=0)


def test_attack_dataset_deltas(small_dataset, tmp_path):
    root, manifest = small_dataset
    out = tmp_path / "adv"
    attack = AttackSpec(kind="uniform", n_points=25, bounds=75.0)
    attack_dataset(root, out, attack, seed=3)
    for split, rows in manifest["splits"].items():
        for row in rows:
            benign = fio.load_point_cloud(root / row["cloud"])
            attacked = fio.load_point_cloud(out / row["cloud"])
            assert len(attacked) - len(benign) == 25
            np.testing.assert_array_equal(attacked.points[:len(benign)], benign.points)
            # ground truth masks copied byte-identically
            assert (root / row["mask"]).read_bytes() == (out / row["mask"]).read_bytes()
    adv_manifest = load_manifest(out)
    assert adv_manifest["attack"]["n_points"] == 25


def test_attack_dataset_deterministic(small_dataset, tmp_path):
    root, _ = small_dataset
    attack = AttackSpec(kind="uniform", n_points=10, bounds=75.0)
    attack_dataset(root, tmp_path / "a1", attack, seed=3)
    attack_dataset(root, tmp_path / "a2", attack, seed=3)
    m = load_manifest(tmp_path / "a1")
    for rows in m["splits"].values():
        for row in rows:
            assert (tmp_path / "a1" / row["cloud"]).read_bytes() == \
                   (tmp_path / "a2" / row["cloud"]).read_bytes()


def test_frames_to_pairs(small_dataset):
    root, manifest = small_dataset
    grid = manifest_grid(manifest)
    pairs = frames_to_pairs(load_frames(root, "train"), grid, FilterSpec(max_range=75.0))
    assert len(pairs) == 3
    img, mask = pairs[0]
    assert img.counts.shape == (64, 64)
    assert mask.mask.shape == (64, 64)


def test_load_manifest_missing(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path)


def test_manifest_filter_null_is_error():
    """An absent or empty filter is the default; `null` is refused."""
    assert manifest_filter({}) == FilterSpec() == manifest_filter({"filter": {}})
    with pytest.raises(DataError):
        manifest_filter({"filter": None})


def test_attack_dataset_malformed_split_is_data_error(small_dataset, tmp_path):
    """A frame row without its scene is refused before anything is written."""
    root, manifest = small_dataset
    bad = tmp_path / "bad"
    bad.mkdir()
    rows = [{k: str(root / v) for k, v in row.items()} for row in manifest["splits"]["test"]]
    del rows[1]["scene"]
    (bad / "manifest.json").write_text(json.dumps({**manifest, "splits": {"test": rows}}))
    out = tmp_path / "adv"
    with pytest.raises(DataError, match="bad split row") as err:
        attack_dataset(bad, out, AttackSpec(kind="uniform", n_points=5, bounds=75.0))
    assert str(bad / "manifest.json") in str(err.value)
    assert not out.exists()
