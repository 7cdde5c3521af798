"""BEV preprocessing (projection, filtering, quantization, polar transforms) and index ranges.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .types import BevImage, FilterSpec, GridSpec, PointCloud, Pose


def project_to_bev(cloud: PointCloud) -> np.ndarray:
    """Project a point cloud into the gravity-aligned BEV frame.

    Rotates every point by the pose quaternion and does not translate: the
    BEV grid is sensor-centered, so the pose position is ignored. Returns an
    (N, 3) array of gravity-aligned (x, y) plus the retained z.
    """
    q = cloud.pose.quaternion
    if abs(np.linalg.norm(q) - 1.0) > 1e-9:
        raise ValueError("pose quaternion is not unit norm")
    return cloud.points @ cloud.pose.rotation_matrix().T


def filter_points(points_xyz: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Keep points with planar range <= max_range and z within [z_min, z_max]."""
    pts = np.asarray(points_xyz, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts
    planar = np.hypot(pts[:, 0], pts[:, 1])
    keep = (planar <= spec.max_range) & (pts[:, 2] >= spec.z_min) & (pts[:, 2] <= spec.z_max)
    return pts[keep]


def quantize(points_xy: np.ndarray, spec: GridSpec) -> BevImage:
    """Accumulate point counts on the grid; points outside the extent are dropped.

    Cell index along each axis is floor((coord + extent) / cell_size); points
    exactly on the +extent boundary fall at index == resolution and are dropped.
    """
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2) if np.size(points_xy) else np.zeros((0, 2))
    res = spec.resolution
    counts = np.zeros((res, res), dtype=np.int64)
    if pts.shape[0]:
        idx = np.floor((pts + spec.extent) / spec.cell_size).astype(np.int64)
        keep = np.all((idx >= 0) & (idx < res), axis=1)
        idx = idx[keep]
        np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
    return BevImage(spec, counts)


def to_polar(points_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert (N, 2) points to azimuths in [0, 2pi) and ranges. Origin points are dropped."""
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2) if np.size(points_xy) else np.zeros((0, 2))
    r = np.hypot(pts[:, 0], pts[:, 1])
    keep = r > 0.0
    if not keep.all():
        pts, r = pts[keep], r[keep]
    az = np.arctan2(pts[:, 1], pts[:, 0])
    # np.mod(az, 2pi) to the bit: az + 2pi where az < 0, and +0.0 for -0.0
    az += 2.0 * np.pi * (az < 0.0)
    # a tiny negative azimuth rounds up to 2*pi exactly; fold back into [0, 2pi)
    az[az >= 2.0 * np.pi] = 0.0
    return az, r


def flat_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of every range [lo[i], hi[i]), with the i it came from."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) + (lo - np.cumsum(n) + n)[owner]


def cloud_to_bev(cloud: PointCloud, grid: GridSpec, filt: FilterSpec) -> BevImage:
    """Standard preprocess chain: project, filter, quantize."""
    return quantize(filter_points(project_to_bev(cloud), filt)[:, :2], grid)


__all__ = [
    "project_to_bev", "filter_points", "quantize", "to_polar",
    "flat_ranges", "cloud_to_bev", "Pose",
]
