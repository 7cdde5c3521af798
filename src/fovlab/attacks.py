"""LiDAR spoofing injectors, naive point-cloud defenses, and the adaptive attacker.

Attacks only append points (injection threat model): benign points are never
moved or removed, so |attacked| - |benign| == n_points exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .types import PointCloud, seeded_rng

DEFAULT_BUDGET = 150  # spoofed-point budget of the threat model


@dataclass(frozen=True)
class AttackSpec:
    """Spoofed-point injection parameters."""

    kind: str = "uniform"               # "cluster" | "uniform"
    n_points: int = DEFAULT_BUDGET
    budget: int = DEFAULT_BUDGET
    cluster_center: tuple = (0.0, 0.0)  # cluster attack only
    cluster_sigma: float = 1.0          # cluster attack only
    bounds: float = 75.0                # uniform attack only: half-width of the square
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("cluster", "uniform"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not 0 <= self.n_points <= self.budget:
            raise ValueError("n_points must satisfy 0 <= n_points <= budget")
        if self.cluster_sigma < 0 or self.bounds <= 0:
            raise ValueError("cluster_sigma must be >= 0 and bounds > 0")


@dataclass(frozen=True)
class DefenseSpec:
    """Sequential point-cloud defense; a stage runs only when its parameter is set.

    Stage order is fixed: range validation, isolated-point removal,
    outlier-cluster removal. `isolation_radius` doubles as the linkage radius
    of the clustering stage.
    """

    max_range: float | None = None
    isolation_radius: float = 1.0
    min_neighbors: int | None = None
    cluster_min_size: int | None = None

    def __post_init__(self):
        if self.max_range is not None and not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if not self.isolation_radius > 0:
            raise ValueError("isolation_radius must be positive")
        if self.min_neighbors is not None and not self.min_neighbors > 0:
            raise ValueError("min_neighbors must be positive")
        if self.cluster_min_size is not None and not self.cluster_min_size > 0:
            raise ValueError("cluster_min_size must be positive")

    @property
    def enabled(self) -> bool:
        return any(v is not None for v in (self.max_range, self.min_neighbors, self.cluster_min_size))

    @staticmethod
    def default() -> "DefenseSpec":
        return DefenseSpec(max_range=75.0, isolation_radius=1.0, min_neighbors=2, cluster_min_size=5)


def _append(cloud: PointCloud, spoofed_xy: np.ndarray) -> PointCloud:
    spoofed = np.column_stack([spoofed_xy, np.zeros(spoofed_xy.shape[0])])
    return PointCloud(np.vstack([cloud.points, spoofed]), cloud.pose, cloud.frame_id)


def spoof(cloud: PointCloud, spec: AttackSpec) -> PointCloud:
    """Append `spec.n_points` spoofed points at z=0: a Gaussian cluster around
    `cluster_center`, or spread uniformly over [-bounds, bounds]^2."""
    rng = seeded_rng(spec.seed)
    if spec.kind == "cluster":
        xy = np.asarray(spec.cluster_center, dtype=np.float64) \
            + spec.cluster_sigma * rng.standard_normal((spec.n_points, 2))
    else:
        xy = rng.uniform(-spec.bounds, spec.bounds, (spec.n_points, 2))
    return _append(cloud, xy)


def defend(cloud: PointCloud, spec: DefenseSpec) -> PointCloud:
    """Run the enabled defense stages in order; idempotent.

    The isolated-point stage removes, simultaneously, every point with fewer
    than `min_neighbors` other points within `isolation_radius` (planar
    distance) and repeats until stable, so a second application is a no-op.
    """
    pts = cloud.points
    if pts.shape[0] and spec.max_range is not None:
        planar = np.hypot(pts[:, 0], pts[:, 1])
        pts = pts[planar <= spec.max_range]

    if pts.shape[0] and spec.min_neighbors is not None:
        while pts.shape[0]:
            tree = cKDTree(pts[:, :2])
            counts = np.array(tree.query_ball_point(pts[:, :2], spec.isolation_radius,
                                                    return_length=True)) - 1
            keep = counts >= spec.min_neighbors
            if np.all(keep):
                break
            pts = pts[keep]

    if pts.shape[0] and spec.cluster_min_size is not None:
        tree = cKDTree(pts[:, :2])
        parent = np.arange(pts.shape[0])

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in tree.query_pairs(spec.isolation_radius):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
        roots = np.array([find(i) for i in range(pts.shape[0])])
        _, inverse, sizes = np.unique(roots, return_inverse=True, return_counts=True)
        pts = pts[sizes[inverse] >= spec.cluster_min_size]

    return PointCloud(pts.copy(), cloud.pose, cloud.frame_id)


def adaptive_spoof(cloud: PointCloud, defense: DefenseSpec, spec: AttackSpec) -> PointCloud:
    """Cluster attack tuned to survive `defense`.

    Spoofed points are placed in mutually supporting mini-clusters: every
    cluster fits in a ball of diameter <= isolation_radius (so each member has
    cluster_size-1 neighbors), cluster sizes meet cluster_min_size, and all
    ranges respect max_range.
    """
    if spec.kind != "cluster":
        raise ValueError("spec.kind must be 'cluster'")
    if not defense.enabled:
        return spoof(cloud, spec)
    if spec.n_points == 0:
        return _append(cloud, np.zeros((0, 2)))

    need = 1
    if defense.min_neighbors is not None:
        need = max(need, defense.min_neighbors + 1)
    if defense.cluster_min_size is not None:
        need = max(need, defense.cluster_min_size)
    if need > spec.n_points:
        raise ValueError(
            f"infeasible: defense requires clusters of {need} points but only "
            f"{spec.n_points} are budgeted")

    n_clusters = max(1, spec.n_points // need)
    sizes = np.full(n_clusters, spec.n_points // n_clusters)
    sizes[: spec.n_points % n_clusters] += 1

    rng = seeded_rng(spec.seed)
    ball = 0.45 * defense.isolation_radius  # cluster diameter 0.9 * radius
    center0 = np.asarray(spec.cluster_center, dtype=np.float64)
    chunks = []
    for size in sizes:
        center = center0 + spec.cluster_sigma * rng.standard_normal(2)
        if defense.max_range is not None:
            lim = max(0.0, defense.max_range - ball)
            norm = np.hypot(*center)
            if norm > lim:
                center = center * (lim / norm) if norm > 0 else center
        ang = rng.uniform(0.0, 2.0 * np.pi, size)
        rad = ball * np.sqrt(rng.uniform(size=size))
        chunks.append(center + np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
    return _append(cloud, np.vstack(chunks))


__all__ = [
    "AttackSpec", "DefenseSpec", "DEFAULT_BUDGET",
    "spoof", "defend", "adaptive_spoof",
]
