import json
import shutil

import numpy as np
import pytest

from fovlab.attacks import AttackSpec
from fovlab.datasets import (attack_dataset, frames_to_pairs, load_frames, load_manifest,
                             open_dataset, synthesize_dataset)
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
    disk, grid, filt = load_manifest(root)
    assert disk["splits"] == manifest["splits"]
    assert (grid, filt) == (GridSpec(extent=75.0, resolution=64), FilterSpec(max_range=75.0))


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
    grid = load_manifest(root)[1]
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
    adv_manifest = load_manifest(out)[0]
    assert adv_manifest["attack"]["n_points"] == 25


def test_attack_dataset_deterministic(small_dataset, tmp_path):
    root, _ = small_dataset
    attack = AttackSpec(kind="uniform", n_points=10, bounds=75.0)
    attack_dataset(root, tmp_path / "a1", attack, seed=3)
    attack_dataset(root, tmp_path / "a2", attack, seed=3)
    m = load_manifest(tmp_path / "a1")[0]
    for rows in m["splits"].values():
        for row in rows:
            assert (tmp_path / "a1" / row["cloud"]).read_bytes() == \
                   (tmp_path / "a2" / row["cloud"]).read_bytes()


def test_frames_to_pairs(small_dataset):
    root, _ = small_dataset
    _, grid, filt = load_manifest(root)
    pairs = frames_to_pairs(load_frames(root, "train"), grid, filt)
    assert len(pairs) == 3
    img, mask = pairs[0]
    assert img.counts.shape == (64, 64)
    assert mask.mask.shape == (64, 64)


def test_load_manifest_missing(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path)


def test_manifest_filter_null_is_error(small_dataset, tmp_path):
    """An absent or empty filter is the default; `null` is refused."""
    _, manifest = small_dataset
    doc = {k: v for k, v in manifest.items() if k != "filter"}
    for filt in ({}, {"filter": {}}):
        (tmp_path / "manifest.json").write_text(json.dumps({**doc, **filt}))
        assert load_manifest(tmp_path)[2] == FilterSpec()
    (tmp_path / "manifest.json").write_text(json.dumps({**doc, "filter": None}))
    with pytest.raises(DataError, match="filter: expected an object"):
        load_manifest(tmp_path)


def test_open_dataset_masks_carry_the_manifest_grid(small_dataset):
    """The grid open_dataset returns is the one object every mask carries:
    the manifest's grid is built once per read."""
    root, _ = small_dataset
    grid, _, frames = open_dataset(root, "train")
    assert len(frames) == 3
    assert all(frame.mask.spec is grid for frame in frames)


def _bad_copy(root, manifest, tmp_path, edit):
    """A copy of the dataset whose test split rows are `edit`ed."""
    bad = tmp_path / "bad"
    shutil.copytree(root, bad)
    rows = [dict(row) for row in manifest["splits"]["test"]]
    edit(rows)
    (bad / "manifest.json").write_text(json.dumps({**manifest, "splits": {"test": rows}}))
    return bad


def test_attack_dataset_malformed_split_is_data_error(small_dataset, tmp_path):
    """A frame row without its scene is refused before anything is written."""
    root, manifest = small_dataset
    bad = _bad_copy(root, manifest, tmp_path, lambda rows: rows[1].pop("scene"))
    out = tmp_path / "adv"
    with pytest.raises(DataError, match="bad test row") as err:
        attack_dataset(bad, out, AttackSpec(kind="uniform", n_points=5, bounds=75.0))
    assert str(bad / "manifest.json") in str(err.value)
    assert not out.exists()


@pytest.mark.parametrize("where", ["absolute", "parent"])
def test_attack_dataset_refuses_paths_outside_the_dataset(small_dataset, tmp_path, where):
    """A row path that is absolute (here the source's own cloud) or climbs out
    with '..' (a file beside the dataset) is refused before anything is
    created: the file it names keeps its bytes."""
    root, manifest = small_dataset
    cloud = manifest["splits"]["test"][0]["cloud"]
    (tmp_path / "victim").mkdir()
    shutil.copyfile(root / cloud, tmp_path / "victim" / "c.fvpc")
    path = {"absolute": str(tmp_path / "bad" / cloud), "parent": "../victim/c.fvpc"}[where]
    bad = _bad_copy(root, manifest, tmp_path, lambda rows: rows[0].update(cloud=path))
    victim = bad / path
    before = victim.read_bytes()
    out = tmp_path / "adv"
    with pytest.raises(DataError, match="bad test row .* is not a relative path inside") as err:
        attack_dataset(bad, out, AttackSpec(kind="uniform", n_points=10, bounds=75.0))
    assert str(bad / "manifest.json") in str(err.value)
    assert victim.read_bytes() == before
    assert not out.exists()
    with pytest.raises(DataError, match="is not a relative path inside"):
        load_frames(bad, "test")


def test_load_frames_of_an_empty_split_is_data_error(small_dataset, tmp_path):
    root, manifest = small_dataset
    bad = _bad_copy(root, manifest, tmp_path, lambda rows: rows.clear())
    with pytest.raises(DataError, match="dataset split 'test' is empty"):
        load_frames(bad, "test")
