import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fovlab import io as fio
from fovlab.errors import DataError
from fovlab.scenes import Scene
from fovlab.types import FovMask, GridSpec, PointCloud, Pose


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    pose = Pose(np.array([1.0, 2.0, 0.5]), np.array([0.6, 0.0, 0.0, 0.8]))
    return PointCloud(rng.standard_normal((37, 3)).astype(np.float32).astype(np.float64), pose)


def test_fvpc_round_trip(tmp_path, cloud):
    path = tmp_path / "c.fvpc"
    fio.save_point_cloud(path, cloud)
    back = fio.load_point_cloud(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.pose.position, cloud.pose.position)
    np.testing.assert_array_equal(back.pose.quaternion, cloud.pose.quaternion)


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
    """A mask and a strided view of one (FovMask keeps a bool view as given)."""
    rng = np.random.default_rng(1)
    spec = GridSpec(extent=10.0, resolution=16)
    cells = rng.uniform(size=(16, 16)) > 0.4
    for view in (cells, cells.T, np.tile(cells, 2)[:, ::2]):
        mask = FovMask(spec, view)
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


@pytest.mark.parametrize("header", [b"2x6 8 255", b"064 8 255", b"+8 8 255", b"16 16 255",
                                    b"8 8 1"])
def test_pgm_header_must_match_spec(tmp_path, header):
    """The header tokens are `<res> <res> 255` of the spec, compared as bytes."""
    spec = GridSpec(extent=8.0, resolution=8)
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n" + header + b"\n" + bytes(8 * 8))
    with pytest.raises(DataError, match="expected a 8x8 maxval-255 PGM"):
        fio.load_mask_pgm(path, spec)


def test_pgm_bytes_deterministic(tmp_path):
    spec = GridSpec(extent=8.0, resolution=8)
    mask = FovMask(spec, np.eye(8, dtype=bool))
    fio.save_mask_pgm(tmp_path / "a.pgm", mask)
    fio.save_mask_pgm(tmp_path / "b.pgm", mask)
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


PROPERTY = dict(deadline=None, derandomize=True, database=None)


@settings(max_examples=40, **PROPERTY)
@given(points=st.integers(0, 64).flatmap(lambda n: arrays(
           np.float32, (n, 3), elements=st.floats(width=32, allow_nan=False, allow_infinity=False))),
       position=arrays(np.float64, 3, elements=st.floats(-1e6, 1e6)),
       quaternion=st.one_of(st.just((1.0, 0.0, 0.0, 0.0)), st.tuples(
           *[st.floats(0.1, 1.0) | st.floats(-1.0, -0.1) for _ in range(4)])))
def test_fvpc_round_trip_property(tmp_path_factory, points, position, quaternion):
    """Any float32-representable cloud and pose, the empty cloud included,
    loads back bit for bit and saves back to the same bytes."""
    q = np.asarray(quaternion) / np.linalg.norm(quaternion)
    cloud = PointCloud(points.astype(np.float64), Pose(position, q))
    path = tmp_path_factory.mktemp("fvpc") / "c.fvpc"
    fio.save_point_cloud(path, cloud)
    back = fio.load_point_cloud(path)
    assert back.points.tobytes() == cloud.points.tobytes()
    assert back.pose.position.tobytes() == cloud.pose.position.tobytes()
    assert back.pose.quaternion.tobytes() == cloud.pose.quaternion.tobytes()
    fio.save_point_cloud(path.with_suffix(".again"), back)
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


@settings(max_examples=30, **PROPERTY)
@given(mask=st.integers(8, 70).flatmap(lambda res: arrays(bool, (res, res))))
def test_pgm_round_trip_property(tmp_path_factory, mask):
    """A mask at any resolution, odd or even, loads back cell for cell and
    saves back to the same bytes."""
    spec = GridSpec(extent=12.5, resolution=mask.shape[0])
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    fio.save_mask_pgm(path, FovMask(spec, mask))
    back = fio.load_mask_pgm(path, spec)
    np.testing.assert_array_equal(back.mask, mask)
    fio.save_mask_pgm(path.with_suffix(".again"), back)
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


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


def scene_to_dict(scene) -> dict:
    """The former document of save_scene; json.dumps(..., indent=2) of it is
    the writer's oracle."""
    return {
        "bounds": float(scene.bounds),
        "sensor": {
            "position": [float(v) for v in scene.sensor.position],
            "quaternion": [float(v) for v in scene.sensor.quaternion],
        },
        "obstacles": [[[float(x), float(y)] for x, y in poly] for poly in scene.obstacles],
    }


_TRIANGLE = np.array([[-0.0, 1e-300], [1e16, -0.0], [3.0, 2.0]])


@pytest.mark.parametrize("scene", [
    Scene([], Pose.identity(), 20.0),
    Scene([], Pose.from_yaw(0.7, (-0.0, 1e-300, 1e16)), float("inf")),
    Scene([], Pose.identity(), float("-inf")),
    Scene([], Pose.identity(), float("nan")),
    Scene([_TRIANGLE], Pose.from_yaw(2.0, (-5.0, -0.0, 0.0)), 1e16),
    Scene([_TRIANGLE + 1.0, np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0]]) - 10.0],
          Pose.identity(), 7),
], ids=["empty", "inf-bounds", "minus-inf-bounds", "nan-bounds", "tiny-huge-signed-zero",
        "integral"])
def test_scene_json_matches_json_dumps(tmp_path, scene):
    path = tmp_path / "scene.json"
    fio.save_scene(path, scene)
    assert path.read_text() == json.dumps(scene_to_dict(scene), indent=2) + "\n"


def test_scene_json_matches_json_dumps_on_generated_scenes(tmp_path):
    from fovlab.scenes import FAMILY_NAMES, SceneFamily, generate_scene
    path = tmp_path / "scene.json"
    for family in FAMILY_NAMES:
        for seed in range(10):
            scene = generate_scene(SceneFamily.preset(family), seed)
            fio.save_scene(path, scene)
            assert path.read_text() == json.dumps(scene_to_dict(scene), indent=2) + "\n"


def test_scene_json_malformed(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text('{"bounds": 10}')
    with pytest.raises(DataError):
        fio.load_scene(path)
