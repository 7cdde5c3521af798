import hashlib
import json
import shutil

import numpy as np
import pytest

from fovlab.attacks import AttackSpec
from fovlab.datasets import (attack_dataset, frames_to_pairs, load_frames, load_manifest,
                             open_dataset, synthesize_dataset)
from fovlab.errors import DataError
from fovlab.scenes import (FAMILY_NAMES, LidarModel, SceneFamily, default_grid, default_lidar,
                           ground_truth_fov)
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


# sha256 of each file of a 2-frame test split, seed 0, for every family at res
# 64 and 256, as synthesized before the oracle and rasterizer caches kept
# indices in place of coordinates: any change of scene sampling, LiDAR, oracle
# or file writers shows here
SYNTH_SHA256 = {
    "outdoor-sparse/64/frame_00000.fvpc":
        "700dd2b78b386e13be7842abc1446e4400d605a8ac822b1405e6f208a778432c",
    "outdoor-sparse/64/frame_00000.pgm":
        "a010aa474b52e44ddcee38e50e416768909e4ae4d72dc5599c052ad2242defab",
    "outdoor-sparse/64/frame_00000.scene.json":
        "c1f0070524e399f7daaacfe3e58cf40f8f05dc5695c215b00cc8d90b9632a6e5",
    "outdoor-sparse/64/frame_00001.fvpc":
        "a33cd0368401d966d4f9626035d06cf83b8af7721e449c0793a923cf5406ed2e",
    "outdoor-sparse/64/frame_00001.pgm":
        "b4914d78be817d80f66829aa5d52f40b9d564f8f8f714618aa8bf70907ac6cea",
    "outdoor-sparse/64/frame_00001.scene.json":
        "817f25e3e0ca288b868a4bd61e3c317d21808d3d9aeb5f6c7010f7493eb736c1",
    "outdoor-dense/64/frame_00000.fvpc":
        "57f113b62faa848ab715b86637a8d3d8e84598aad3cabf0f0b6441718cf20b91",
    "outdoor-dense/64/frame_00000.pgm":
        "4d4d22b5e0f2ed2a82ea9427349f6f3f8cc4c08156971ab93fbf9f92da014c4e",
    "outdoor-dense/64/frame_00000.scene.json":
        "c596550f46b41d1ed7f38a9d449e72db5a1c35557c4786ba50ffa44686522bb5",
    "outdoor-dense/64/frame_00001.fvpc":
        "b97084155202db1cc3649854388058c1fc867077482d2c907e203306da474f62",
    "outdoor-dense/64/frame_00001.pgm":
        "579ca42603af9e1e7562a17f45d77ac69fe2e03870dd3547e851b999aa6d2f98",
    "outdoor-dense/64/frame_00001.scene.json":
        "582dd47d102941cadfd5b3d655f579a4594ebd3dcdd2a0b81a8cdfd376bda2e1",
    "indoor/64/frame_00000.fvpc":
        "50d5ac18384962e9723ed1302457307a415b13b94fc8663cabd6c9ef1bc8a24b",
    "indoor/64/frame_00000.pgm":
        "5719c36a947a0cee3404f6eb712dff7a6263c2127e1860e5c9f30ae5caa27d0e",
    "indoor/64/frame_00000.scene.json":
        "de3a362e5927fbb7b7b1c2d01a027b73d5621914fe11928a77feed403681bfbe",
    "indoor/64/frame_00001.fvpc":
        "e5b9914e03dc98b0cc17b5d092545e81f78a503b3c171c4e03bdb1906941fcdf",
    "indoor/64/frame_00001.pgm":
        "b6e714b1605b3145267e80b2444d7162683399bbd4449c6033da3bb84ff0d062",
    "indoor/64/frame_00001.scene.json":
        "90a87293aa855c4793c5a02a4eaf329f11030972fa8983133738a248faed37b4",
    "outdoor-sparse/256/frame_00000.fvpc":
        "700dd2b78b386e13be7842abc1446e4400d605a8ac822b1405e6f208a778432c",
    "outdoor-sparse/256/frame_00000.pgm":
        "09c33c9ace1e433d3338b431de5fe034e212ff89cafaaf3c5b8c8127aa557a84",
    "outdoor-sparse/256/frame_00000.scene.json":
        "c1f0070524e399f7daaacfe3e58cf40f8f05dc5695c215b00cc8d90b9632a6e5",
    "outdoor-sparse/256/frame_00001.fvpc":
        "a33cd0368401d966d4f9626035d06cf83b8af7721e449c0793a923cf5406ed2e",
    "outdoor-sparse/256/frame_00001.pgm":
        "7aa72f238837d938356c69c835b9061eca1c363e3115c9f1a0734bc84259f164",
    "outdoor-sparse/256/frame_00001.scene.json":
        "817f25e3e0ca288b868a4bd61e3c317d21808d3d9aeb5f6c7010f7493eb736c1",
    "outdoor-dense/256/frame_00000.fvpc":
        "57f113b62faa848ab715b86637a8d3d8e84598aad3cabf0f0b6441718cf20b91",
    "outdoor-dense/256/frame_00000.pgm":
        "d618c0237e0cbcb199727fc5525a4a661a8054014d3da9955442544967a2c1db",
    "outdoor-dense/256/frame_00000.scene.json":
        "c596550f46b41d1ed7f38a9d449e72db5a1c35557c4786ba50ffa44686522bb5",
    "outdoor-dense/256/frame_00001.fvpc":
        "b97084155202db1cc3649854388058c1fc867077482d2c907e203306da474f62",
    "outdoor-dense/256/frame_00001.pgm":
        "b299fd844caf80a06b0c682ca9dc6eb8b455c824872d3a9b0052a10d387b8fc1",
    "outdoor-dense/256/frame_00001.scene.json":
        "582dd47d102941cadfd5b3d655f579a4594ebd3dcdd2a0b81a8cdfd376bda2e1",
    "indoor/256/frame_00000.fvpc":
        "50d5ac18384962e9723ed1302457307a415b13b94fc8663cabd6c9ef1bc8a24b",
    "indoor/256/frame_00000.pgm":
        "e2b1623c5ef99612be028e736309eb53380e9a941c47f277ca206156d37fabc0",
    "indoor/256/frame_00000.scene.json":
        "de3a362e5927fbb7b7b1c2d01a027b73d5621914fe11928a77feed403681bfbe",
    "indoor/256/frame_00001.fvpc":
        "e5b9914e03dc98b0cc17b5d092545e81f78a503b3c171c4e03bdb1906941fcdf",
    "indoor/256/frame_00001.pgm":
        "f416a723306b4569f093ab0f545920e69f9384a7f355672bda7d14d1db3882f9",
    "indoor/256/frame_00001.scene.json":
        "90a87293aa855c4793c5a02a4eaf329f11030972fa8983133738a248faed37b4",
}


@pytest.mark.parametrize("res", (64, 256))
def test_synthesis_bytes_are_pinned(tmp_path, res):
    got = {}
    for name in FAMILY_NAMES:
        lidar = default_lidar(name)
        root = tmp_path / name
        synthesize_dataset(root, SceneFamily.preset(name), lidar, default_grid(name, res),
                           FilterSpec(max_range=lidar.max_range), {"test": 2}, seed=0)
        for path in sorted((root / "test").iterdir()):
            got[f"{name}/{res}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == {k: v for k, v in SYNTH_SHA256.items() if k.split("/")[1] == str(res)}
