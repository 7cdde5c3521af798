import json

import numpy as np
import pytest

from fovlab import io as fio
from fovlab.errors import DataError
from fovlab.scenes import Scene
from fovlab.types import FovMask, GridSpec, PointCloud, Pose


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    pose = Pose(np.array([1.0, 2.0, 0.5]), np.array([0.6, 0.0, 0.0, 0.8]))
    return PointCloud(rng.standard_normal((37, 3)).astype(np.float32).astype(np.float64),
                      pose, frame_id=3)


def test_fvpc_round_trip(tmp_path, cloud):
    path = tmp_path / "c.fvpc"
    fio.save_point_cloud(path, cloud)
    back = fio.load_point_cloud(path, frame_id=3)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.pose.position, cloud.pose.position)
    np.testing.assert_array_equal(back.pose.quaternion, cloud.pose.quaternion)
    assert back.frame_id == 3


def test_fvpc_bytes_deterministic(tmp_path, cloud):
    a, b = tmp_path / "a.fvpc", tmp_path / "b.fvpc"
    fio.save_point_cloud(a, cloud)
    fio.save_point_cloud(b, cloud)
    assert a.read_bytes() == b.read_bytes()


def test_fvpc_layout(tmp_path, cloud):
    path = tmp_path / "c.fvpc"
    fio.save_point_cloud(path, cloud)
    raw = path.read_bytes()
    assert raw[:4] == b"FVPC"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[64:68], "little") == 37
    assert len(raw) == 68 + 37 * 12


def test_fvpc_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fvpc"
    path.write_bytes(b"NOPE" + b"\x00" * 100)
    with pytest.raises(DataError):
        fio.load_point_cloud(path)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    spec = GridSpec(extent=10.0, resolution=16)
    mask = FovMask(spec, rng.uniform(size=(16, 16)) > 0.4)
    path = tmp_path / "m.pgm"
    fio.save_mask_pgm(path, mask)
    back = fio.load_mask_pgm(path, spec)
    np.testing.assert_array_equal(back.mask, mask.mask)


def test_pgm_header_and_values(tmp_path):
    spec = GridSpec(extent=8.0, resolution=8)
    mask = np.zeros((8, 8), dtype=bool)
    mask[3, 5] = True
    fio.save_mask_pgm(tmp_path / "m.pgm", FovMask(spec, mask))
    raw = (tmp_path / "m.pgm").read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    body = raw[len(b"P5\n8 8\n255\n"):]
    assert sorted(set(body)) == [0, 255]
    # row 0 is the top (+y); cell (ix=3, iy=5) sits at row 8-1-5=2, col 3
    assert body[2 * 8 + 3] == 255


def test_pgm_bytes_deterministic(tmp_path):
    spec = GridSpec(extent=8.0, resolution=8)
    mask = FovMask(spec, np.eye(8, dtype=bool))
    fio.save_mask_pgm(tmp_path / "a.pgm", mask)
    fio.save_mask_pgm(tmp_path / "b.pgm", mask)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_scene_json_round_trip(tmp_path, sample_scene):
    path = tmp_path / "scene.json"
    fio.save_scene(path, sample_scene)
    back = fio.load_scene(path)
    assert back.bounds == sample_scene.bounds
    assert len(back.obstacles) == len(sample_scene.obstacles)
    for a, b in zip(back.obstacles, sample_scene.obstacles):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(back.sensor.quaternion, sample_scene.sensor.quaternion)


def test_scene_json_schema(tmp_path, sample_scene):
    path = tmp_path / "scene.json"
    fio.save_scene(path, sample_scene)
    doc = json.loads(path.read_text())
    assert set(doc) == {"bounds", "sensor", "obstacles"}
    assert set(doc["sensor"]) == {"position", "quaternion"}


def test_scene_json_malformed(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"bounds": 10}')
    with pytest.raises(DataError):
        fio.load_scene(path)
