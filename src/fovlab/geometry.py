"""BEV preprocessing (projection, filtering, quantization, polar transforms),
index ranges and the convex hull of a point list.

All operations are pure functions over immutable inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import numpy as np

from .types import BevImage, FilterSpec, GridSpec, PointCloud


def project_to_bev(cloud: PointCloud) -> np.ndarray:
    """Project a point cloud into the gravity-aligned BEV frame.

    Rotates every point by the pose quaternion and does not translate: the
    BEV grid is sensor-centered, so the pose position is ignored. Returns an
    (N, 3) array of gravity-aligned (x, y) plus the retained z.
    """
    return cloud.points @ cloud.pose.rotation_matrix().T


def filter_points(points_xyz: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Keep points with planar range <= max_range and z within [z_min, z_max]."""
    pts = np.asarray(points_xyz, dtype=np.float64).reshape(-1, 3)
    planar = np.hypot(pts[:, 0], pts[:, 1])
    keep = (planar <= spec.max_range) & (pts[:, 2] >= spec.z_min) & (pts[:, 2] <= spec.z_max)
    return pts[keep]


def quantize(points_xy: np.ndarray, spec: GridSpec) -> BevImage:
    """Accumulate point counts on the grid; points outside the extent are dropped.

    Cell index along each axis is floor((coord + extent) / cell_size); points
    exactly on the +extent boundary fall at index == resolution and are dropped.
    """
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2)
    res = spec.resolution
    counts = np.zeros((res, res), dtype=np.int64)
    idx = np.floor((pts + spec.extent) / spec.cell_size).astype(np.int64)
    keep = np.all((idx >= 0) & (idx < res), axis=1)
    idx = idx[keep]
    np.add.at(counts, (idx[:, 0], idx[:, 1]), 1)
    return BevImage(spec, counts)


def to_polar(points_xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convert (N, 2) points to azimuths in [0, 2pi) and ranges. Origin points are dropped."""
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    keep = r > 0.0
    if not keep.all():
        pts, r = pts[keep], r[keep]
    return azimuth(pts[:, 0], pts[:, 1]), r


def azimuth(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Azimuth of each point (x, y) in [0, 2pi)."""
    az = np.arctan2(y, x)
    # np.mod(az, 2pi) to the bit: az + 2pi where az < 0, and +0.0 for -0.0
    az += 2.0 * np.pi * (az < 0.0)
    # a tiny negative azimuth rounds up to 2*pi exactly; fold back into [0, 2pi)
    az[az >= 2.0 * np.pi] = 0.0
    return az


def flat_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of every range [lo[i], hi[i]), with the i it came from."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(n.size), n)
    return owner, np.arange(owner.size) + (lo - np.cumsum(n) + n)[owner]


def convex_hull(xy: list, tie: float | None = None) -> list | None:
    """Andrew's monotone chain (1979): the indices of the convex hull of the
    (x, y) pairs `xy`, counterclockwise from the least (x, y), with points on
    an edge dropped. With `tie`, None if the third point of some turn it tests
    lies within `tie` of the line of the first two (|cross| <= tie x the 1-norm
    of their difference), where rounding could decide the turn."""
    order = sorted(range(len(xy)), key=xy.__getitem__)
    halves = []
    for seq in (order, order[::-1]):
        chain = []
        for i in seq:
            qx, qy = xy[i]
            while len(chain) >= 2:
                ax, ay = xy[chain[-2]]
                bx, by = xy[chain[-1]]
                cross = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
                if tie is not None and abs(cross) <= tie * (abs(bx - ax) + abs(by - ay)):
                    return None
                if cross <= 0:
                    chain.pop()
                else:
                    break
            chain.append(i)
        halves.append(chain[:-1])
    return halves[0] + halves[1]


def cloud_to_bev(cloud: PointCloud, grid: GridSpec, filt: FilterSpec) -> BevImage:
    """Standard preprocess chain: project, filter, quantize."""
    return quantize(filter_points(project_to_bev(cloud), filt)[:, :2], grid)


__all__ = [
    "project_to_bev", "filter_points", "quantize", "to_polar", "azimuth",
    "flat_ranges", "convex_hull", "cloud_to_bev",
]
