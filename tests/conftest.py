"""Shared fixtures: small scenes, clouds, and trained-net stand-ins kept cheap."""

import dataclasses

import numpy as np
import pytest

from fovlab.geometry import cloud_to_bev
from fovlab.scenes import (LidarModel, Scene, SceneFamily, default_lidar, generate_scene,
                           ground_truth_fov, simulate_lidar)
from fovlab.types import FilterSpec, GridSpec, Pose


def cell_centers(spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) cell centre arrays, each (res, res), 'ij' indexed: cell (ix, iy)
    at (axis[ix], axis[iy]) on the grid's 1-d axis, as the masks index it."""
    c = spec.cell_centers_1d()
    return np.meshgrid(c, c, indexing="ij")


def wall_quad(x0: float, y_half: float = 5.0, thickness: float = 0.5) -> np.ndarray:
    """Vertical wall straddling x = x0, CCW."""
    return np.array([
        [x0, -y_half], [x0 + thickness, -y_half],
        [x0 + thickness, y_half], [x0, y_half],
    ])


@pytest.fixture(scope="session")
def sparse_family() -> SceneFamily:
    return SceneFamily.preset("outdoor-sparse")


@pytest.fixture(scope="session")
def noiseless_lidar() -> LidarModel:
    return dataclasses.replace(default_lidar("outdoor-sparse"),
                               range_noise_sigma=0.0, dropout_prob=0.0)


@pytest.fixture(scope="session")
def small_grid() -> GridSpec:
    return GridSpec(extent=75.0, resolution=64)


@pytest.fixture(scope="session")
def default_filter() -> FilterSpec:
    return FilterSpec(max_range=75.0)


@pytest.fixture(scope="session")
def sample_scene(sparse_family) -> Scene:
    return generate_scene(sparse_family, 42)


@pytest.fixture(scope="session")
def sample_cloud(sample_scene, noiseless_lidar):
    return simulate_lidar(sample_scene, noiseless_lidar, 42)


@pytest.fixture(scope="session")
def sample_points(sample_cloud, default_filter):
    from fovlab.geometry import filter_points, project_to_bev
    return filter_points(project_to_bev(sample_cloud), default_filter)[:, :2]


@pytest.fixture(scope="session")
def sample_gt(sample_scene, noiseless_lidar, small_grid):
    return ground_truth_fov(sample_scene, noiseless_lidar, small_grid)


@pytest.fixture(scope="session")
def tiny_pairs(sparse_family, noiseless_lidar, small_grid, default_filter):
    """Twelve (BevImage, FovMask) pairs for train/eval smoke tests."""
    pairs = []
    for seed in range(12):
        scene = generate_scene(sparse_family, seed)
        cloud = simulate_lidar(scene, noiseless_lidar, seed)
        pairs.append((cloud_to_bev(cloud, small_grid, default_filter),
                      ground_truth_fov(scene, noiseless_lidar, small_grid)))
    return pairs
