import numpy as np
import pytest

from fovlab.attacks import AttackSpec, DefenseSpec, adaptive_spoof, defend, spoof
from fovlab.scenes import LidarModel, Scene, simulate_lidar
from fovlab.types import PointCloud, Pose

from conftest import wall_quad


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
    with pytest.raises(ValueError):
        AttackSpec(kind="uniform", bounds=-1.0)


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


def test_defense_spec_validation():
    with pytest.raises(ValueError):
        DefenseSpec(max_range=-1.0)
    with pytest.raises(ValueError):
        DefenseSpec(min_neighbors=0)
    assert not DefenseSpec().enabled
    assert DefenseSpec.default().enabled


def test_defend_range_stage():
    pts = np.array([[200.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    out = defend(PointCloud(pts), DefenseSpec(max_range=75.0))
    np.testing.assert_array_equal(out.points, [[10.0, 0.0, 0.0]])


def test_defend_isolated_point_removed():
    pts = np.array([
        [0.0, 0.0, 0.0], [0.3, 0.0, 0.0], [0.0, 0.3, 0.0],   # small clique
        [10.0, 10.0, 0.0],                                    # isolated
    ])
    out = defend(PointCloud(pts), DefenseSpec(isolation_radius=1.0, min_neighbors=1))
    assert len(out) == 3
    assert [10.0, 10.0, 0.0] not in out.points.tolist()


def test_defend_wall_returns_retained():
    scene = Scene(obstacles=[wall_quad(10.0, y_half=8.0)], sensor=Pose.identity(), bounds=20.0)
    model = LidarModel(n_beams=720, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)
    cloud = simulate_lidar(scene, model, 0)
    assert len(cloud) > 50
    out = defend(cloud, DefenseSpec.default())
    # adjacent wall returns are ~0.1 m apart: everything survives
    assert len(out) == len(cloud)


def test_defend_cluster_stage():
    rng = np.random.default_rng(1)
    big = rng.uniform(-0.4, 0.4, (20, 2))
    small = rng.uniform(-0.4, 0.4, (3, 2)) + 20.0
    pts = np.column_stack([np.vstack([big, small]), np.zeros(23)])
    out = defend(PointCloud(pts), DefenseSpec(isolation_radius=1.5, cluster_min_size=5))
    assert len(out) == 20


def test_defend_idempotent():
    rng = np.random.default_rng(2)
    # chains plus noise: removal cascades must stabilize after one defend()
    chain = np.column_stack([np.linspace(0, 8, 9), np.zeros(9)])
    noise = rng.uniform(-50, 50, (60, 2))
    pts = np.column_stack([np.vstack([chain, noise]), np.zeros(69)])
    spec = DefenseSpec(max_range=75.0, isolation_radius=1.2, min_neighbors=2, cluster_min_size=4)
    once = defend(PointCloud(pts), spec)
    twice = defend(once, spec)
    np.testing.assert_array_equal(once.points, twice.points)


def test_attack_size_delta_exact(cloud):
    for spec in (AttackSpec(kind="uniform", n_points=137, bounds=75.0),
                 AttackSpec(kind="cluster", n_points=42)):
        out = spoof(cloud, spec)
        assert len(out) - len(cloud) == spec.n_points
        np.testing.assert_array_equal(out.points[:len(cloud)], cloud.points)


def test_adaptive_spoof_disabled_defense_is_cluster(cloud):
    spec = AttackSpec(kind="cluster", n_points=30, cluster_center=(5.0, 5.0), seed=3)
    a = adaptive_spoof(cloud, DefenseSpec(), spec)
    b = spoof(cloud, spec)
    np.testing.assert_array_equal(a.points, b.points)


def test_adaptive_spoof_survives_default_defense(cloud):
    defense = DefenseSpec.default()
    spec = AttackSpec(kind="cluster", n_points=150, cluster_center=(20.0, 0.0),
                      cluster_sigma=8.0, seed=4)
    attacked = adaptive_spoof(cloud, defense, spec)
    assert len(attacked) == len(cloud) + 150
    survivors = defend(attacked, defense)
    benign_surviving = len(defend(cloud, defense))
    spoofed_surviving = len(survivors) - benign_surviving
    assert spoofed_surviving >= 135  # >= 90% of 150


def test_adaptive_spoof_infeasible(cloud):
    defense = DefenseSpec(isolation_radius=1.0, cluster_min_size=40)
    spec = AttackSpec(kind="cluster", n_points=10)
    with pytest.raises(ValueError, match="infeasible"):
        adaptive_spoof(cloud, defense, spec)
