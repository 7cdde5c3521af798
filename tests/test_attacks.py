import numpy as np
import pytest

from fovlab.attacks import AttackSpec, spoof
from fovlab.types import PointCloud


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-30, 30, (200, 2))
    return PointCloud(np.column_stack([pts, np.zeros(200)]))


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(kind="lasers")
    with pytest.raises(ValueError):
        AttackSpec(kind="cluster", n_points=200, budget=150)
    for key, value in [("n_points", 2.0), ("n_points", -1), ("budget", True), ("budget", -1),
                       ("seed", 1.5), ("seed", -1)]:
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            AttackSpec(**{key: value})
    for bounds, sigma in [(-1.0, 1.0), (float("inf"), 1.0), (75.0, -1.0), (75.0, float("nan"))]:
        with pytest.raises(ValueError):
            AttackSpec(bounds=bounds, cluster_sigma=sigma)
    for center in [(float("nan"), 0.0), (0.0, float("inf"))]:
        with pytest.raises(ValueError):
            AttackSpec(kind="cluster", cluster_center=center)


def test_spoof_cluster_zero_points_is_identity(cloud):
    out = spoof(cloud, AttackSpec(kind="cluster", n_points=0))
    np.testing.assert_array_equal(out.points, cloud.points)


def test_spoof_cluster_budget_count(cloud):
    spec = AttackSpec(kind="cluster", n_points=150, cluster_center=(10.0, 5.0), cluster_sigma=2.0)
    out = spoof(cloud, spec)
    assert len(out) == len(cloud) + 150
    np.testing.assert_array_equal(out.points[:len(cloud)], cloud.points)
    assert np.all(out.points[len(cloud):, 2] == 0.0)


def test_spoof_cluster_within_5_sigma():
    empty = PointCloud(np.zeros((0, 3)))
    for seed in range(100):
        spec = AttackSpec(kind="cluster", n_points=50, cluster_center=(3.0, -4.0),
                          cluster_sigma=0.5, seed=seed)
        pts = spoof(empty, spec).points[:, :2]
        dist = np.hypot(pts[:, 0] - 3.0, pts[:, 1] + 4.0)
        assert np.all(dist <= 5 * 0.5 * np.sqrt(2) + 1e-9)


def test_spoof_uniform_support(cloud):
    spec = AttackSpec(kind="uniform", n_points=150, bounds=75.0)
    out = spoof(cloud, spec)
    added = out.points[len(cloud):]
    assert added.shape == (150, 3)
    assert np.all(np.abs(added[:, :2]) <= 75.0)
    assert np.all(added[:, 2] == 0.0)


def test_spoof_uniform_mean_near_zero():
    empty = PointCloud(np.zeros((0, 3)))
    xs = []
    for seed in range(100):
        spec = AttackSpec(kind="uniform", n_points=100, bounds=75.0, seed=seed)
        xs.append(spoof(empty, spec).points[:, 0])
    assert abs(np.concatenate(xs).mean()) < 2.0


def test_spoof_deterministic_per_seed(cloud):
    spec = AttackSpec(kind="uniform", n_points=50, bounds=40.0, seed=9)
    a = spoof(cloud, spec).points
    b = spoof(cloud, spec).points
    np.testing.assert_array_equal(a, b)


def test_attack_size_delta_exact(cloud):
    for spec in (AttackSpec(kind="uniform", n_points=137, bounds=75.0),
                 AttackSpec(kind="cluster", n_points=42)):
        out = spoof(cloud, spec)
        assert len(out) - len(cloud) == spec.n_points
        np.testing.assert_array_equal(out.points[:len(cloud)], cloud.points)
