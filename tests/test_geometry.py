import numpy as np
import pytest

from fovlab.geometry import cloud_to_bev, filter_points, project_to_bev, quantize, to_polar
from fovlab.types import BevImage, FilterSpec, GridSpec, PointCloud, Pose

SQ2 = np.sqrt(2.0) / 2.0


def test_pose_rejects_non_unit_quaternion():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.array([1.0, 0.0, 0.1, 0.0]))


def test_project_identity_rotation():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), Pose.identity())
    out = project_to_bev(cloud)
    np.testing.assert_allclose(out, [[1.0, 2.0, 3.0]])


def test_project_90deg_yaw():
    pose = Pose(np.zeros(3), np.array([SQ2, 0.0, 0.0, SQ2]))
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), pose)
    out = project_to_bev(cloud)
    np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_project_inverse_rotation_recovers_input():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        pose = Pose(rng.standard_normal(3), q)
        pts = rng.standard_normal((5, 3))
        projected = project_to_bev(PointCloud(pts, pose))
        back = projected @ pose.rotation_matrix()  # R^T applied on the right
        np.testing.assert_allclose(back, pts, atol=1e-9)


def test_project_translate_flag():
    pose = Pose(np.array([10.0, -5.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    cloud = PointCloud(np.array([[1.0, 1.0, 0.0]]), pose)
    np.testing.assert_allclose(project_to_bev(cloud), [[1.0, 1.0, 0.0]])


def test_filter_removes_far_and_high_points():
    spec = FilterSpec(max_range=75.0, z_min=-1.0, z_max=3.0)
    pts = np.array([
        [80.0, 0.0, 0.0],   # planar range 80 > 75: removed
        [10.0, 0.0, 5.0],   # treetop artifact above z_max: removed
        [10.0, 0.0, 0.5],   # kept
        [75.0, 0.0, 0.0],   # exactly at the cap: kept
    ])
    out = filter_points(pts, spec)
    np.testing.assert_allclose(out, [[10.0, 0.0, 0.5], [75.0, 0.0, 0.0]])


def test_filter_empty_input():
    assert filter_points(np.zeros((0, 3)), FilterSpec()).shape == (0, 3)


def test_filter_idempotent():
    rng = np.random.default_rng(1)
    spec = FilterSpec(max_range=40.0, z_min=-0.5, z_max=2.0)
    pts = rng.uniform(-80, 80, (500, 3))
    once = filter_points(pts, spec)
    twice = filter_points(once, spec)
    np.testing.assert_array_equal(once, twice)


def test_quantize_center_cell():
    spec = GridSpec(extent=75.0, resolution=64)
    bev = quantize(np.array([[0.0, 0.0]]), spec)
    assert bev.counts[32, 32] == 1
    assert bev.counts.sum() == 1


def test_quantize_drops_outside_extent():
    spec = GridSpec(extent=75.0, resolution=64)
    bev = quantize(np.array([[100.0, 0.0]]), spec)
    assert bev.counts.sum() == 0


def test_quantize_upper_edge_dropped():
    spec = GridSpec(extent=75.0, resolution=64)
    bev = quantize(np.array([[75.0, 0.0], [-75.0, 0.0]]), spec)
    # +extent falls out; -extent lands in cell 0
    assert bev.counts.sum() == 1
    assert bev.counts[0, 32] == 1


def test_quantize_conserves_in_extent_count():
    rng = np.random.default_rng(2)
    spec = GridSpec(extent=75.0, resolution=64)
    pts = rng.uniform(-74.9, 74.9, (1000, 2))
    assert quantize(pts, spec).counts.sum() == 1000


def test_to_polar_axis_cases():
    out = to_polar(np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]]))
    np.testing.assert_allclose(out[:, 0], [0.0, np.pi / 2.0, np.pi])
    np.testing.assert_allclose(out[:, 1], [1.0, 2.0, 3.0])


def test_to_polar_drops_origin():
    out = to_polar(np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert out.shape[0] == 1


def test_polar_round_trip():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-50, 50, (1000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-6]
    az, r = to_polar(pts).T
    back = np.column_stack([r * np.cos(az), r * np.sin(az)])
    np.testing.assert_allclose(back, pts, atol=1e-9)


def test_cloud_to_bev_pipeline(sample_cloud, small_grid, default_filter):
    bev = cloud_to_bev(sample_cloud, small_grid, default_filter)
    assert isinstance(bev, BevImage)
    assert 0 < bev.counts.sum() <= len(sample_cloud)
