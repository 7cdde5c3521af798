"""LiDAR spoofing: point injection, the paper's threat model.

An attack only appends points, a Gaussian cluster or a uniform scatter:
benign points are never moved or removed, so |attacked| - |benign| ==
n_points exactly. `spoof` backs the attack command and the security sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if not (math.isfinite(self.cluster_sigma) and self.cluster_sigma >= 0
                and math.isfinite(self.bounds) and self.bounds > 0):
            raise ValueError("cluster_sigma must be finite and >= 0, bounds finite and > 0")
        if not all(map(math.isfinite, self.cluster_center)):
            raise ValueError("cluster_center must be finite")


def spoof(cloud: PointCloud, spec: AttackSpec) -> PointCloud:
    """Append `spec.n_points` spoofed points at z=0: a Gaussian cluster around
    `cluster_center`, or spread uniformly over [-bounds, bounds]^2."""
    rng = seeded_rng(spec.seed)
    if spec.kind == "cluster":
        xy = np.asarray(spec.cluster_center, dtype=np.float64) \
            + spec.cluster_sigma * rng.standard_normal((spec.n_points, 2))
    else:
        xy = rng.uniform(-spec.bounds, spec.bounds, (spec.n_points, 2))
    spoofed = np.column_stack([xy, np.zeros(spec.n_points)])
    return PointCloud(np.vstack([cloud.points, spoofed]), cloud.pose)


__all__ = ["AttackSpec", "DEFAULT_BUDGET", "spoof"]
