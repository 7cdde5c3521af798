"""Shared data contracts: poses, point clouds, and grid-aligned maps.

Grid convention used everywhere in this package: a square, sensor-centered
grid spanning ``[-extent, +extent]`` in x and y. Grid arrays are indexed
``[ix, iy]`` ('ij' indexing), with the center of cell ``(ix, iy)`` at

    x = -extent + (ix + 0.5) * cell_size,   y likewise.

The sensor sits at the grid center, i.e. between cells for even resolutions.

Seeding contract: every random stream in this package (scenes, LiDAR noise,
spoofed points, weight init, shuffles, dropout masks, MC-dropout passes) is
``seeded_rng(*labels)`` of integer labels naming what it draws for, and a
seed handed on to another component is ``derive_seed(*labels)``. Equal
labels give equal streams, whatever else ran before or in parallel.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


def seeded_rng(*labels: int) -> np.random.Generator:
    """The random stream named by integer `labels`."""
    return np.random.default_rng(np.random.SeedSequence(labels))


def derive_seed(*labels: int) -> int:
    """Stable 32-bit seed for a cell of an experiment, from its integer labels."""
    return int(np.random.SeedSequence(labels).generate_state(1)[0])


def check_int(value, name: str, minimum: int, maximum: int | None = None) -> None:
    """Refuse `value` unless it is an integer, not a bool, in [minimum, maximum]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _as_float_array(x, shape=None) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


@dataclass(frozen=True)
class Pose:
    """Sensor pose: position (m) and attitude as a unit quaternion (w,x,y,z)."""

    position: np.ndarray
    quaternion: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _as_float_array(self.position, (3,)))
        q = _as_float_array(self.quaternion, (4,))
        object.__setattr__(self, "quaternion", q)
        if abs(np.linalg.norm(q) - 1.0) > 1e-9:
            raise ValueError(f"quaternion norm {np.linalg.norm(q)!r} not unit within 1e-9")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))

    @staticmethod
    def from_yaw(yaw: float, position=(0.0, 0.0, 0.0)) -> "Pose":
        """Pose rotated by `yaw` radians about +z."""
        return Pose(np.asarray(position, dtype=np.float64),
                    np.array([np.cos(yaw / 2.0), 0.0, 0.0, np.sin(yaw / 2.0)]))

    def rotation_matrix(self) -> np.ndarray:
        w, x, y, z = self.quaternion
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])


@dataclass
class PointCloud:
    """Raw 3D returns (sensor frame, meters) plus the sensor pose."""

    points: np.ndarray  # (N, 3) float
    pose: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GridSpec:
    """Square sensor-centered grid: half-width `extent` (m), `resolution` cells per side."""

    extent: float = 75.0
    resolution: int = 256

    def __post_init__(self):
        if not self.extent > 0:
            raise ValueError("extent must be > 0")
        check_int(self.resolution, "resolution", 8)

    @property
    def cell_size(self) -> float:
        return 2.0 * self.extent / self.resolution

    def cell_centers_1d(self) -> np.ndarray:
        """Coordinates of cell centers along one axis."""
        return -self.extent + (np.arange(self.resolution) + 0.5) * self.cell_size


@dataclass
class BevImage:
    """Per-cell point counts over a GridSpec."""

    spec: GridSpec
    counts: np.ndarray  # (res, res) int

    def __post_init__(self):
        counts = np.asarray(self.counts)
        res = self.spec.resolution
        if counts.shape != (res, res):
            raise ValueError(f"counts must be ({res}, {res}), got {counts.shape}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        self.counts = counts.astype(np.int64, copy=False)


@dataclass
class FovMask:
    """Binary visibility grid (True = visible)."""

    spec: GridSpec
    mask: np.ndarray  # (res, res) bool

    def __post_init__(self):
        m = np.asarray(self.mask)
        res = self.spec.resolution
        if m.shape != (res, res):
            raise ValueError(f"mask must be ({res}, {res}), got {m.shape}")
        self.mask = m.astype(bool, copy=False)


@dataclass
class ProbMap:
    """Per-cell visibility probability in [0, 1]."""

    spec: GridSpec
    values: np.ndarray  # (res, res) float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        res = self.spec.resolution
        if v.shape != (res, res):
            raise ValueError(f"values must be ({res}, {res}), got {v.shape}")
        if not (v.min() >= 0.0 and v.max() <= 1.0):  # NaN fails both
            raise ValueError("probabilities must lie in [0, 1]")
        self.values = v


@dataclass(frozen=True)
class FilterSpec:
    """Point filter: planar range cap and vertical band (gravity-aligned frame)."""

    max_range: float = 75.0
    z_min: float = -1.0
    z_max: float = 3.0

    def __post_init__(self):
        if not self.max_range > 0:
            raise ValueError("max_range must be > 0")
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be < z_max")
