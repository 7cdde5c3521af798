"""Synthetic 2D scenes: obstacle sampling, LiDAR simulation, exact FOV oracle.

Scenes are planar (returns at z=0 in the world frame): the downstream pipeline
collapses to BEV before estimation, so a planar simulator exercises every
path while keeping the visibility oracle exact.

Each family surrounds the sensor with an enclosing wall ring composed of
convex quads (urban block / room walls), so nearly every beam returns a hit,
plus a sampled number of interior obstacles. Concave structures are composed
from convex pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .geometry import flat_ranges
from .types import FovMask, GridSpec, PointCloud, Pose, seeded_rng

FAMILY_NAMES = ("outdoor-sparse", "outdoor-dense", "indoor")

_REJECTION_LIMIT = 10_000
_MIN_RANGE = 0.1  # noise clamp floor, meters


@dataclass
class Scene:
    """Obstacle set (convex CCW polygons, world frame) plus sensor pose."""

    obstacles: list  # list of (V, 2) float arrays
    sensor: Pose = field(default_factory=Pose.identity)
    bounds: float = 60.0

    def __post_init__(self):
        polys, fault = [], None
        for poly in self.obstacles:
            try:
                p = np.asarray(poly, dtype=np.float64)
                if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
                    raise ValueError("each obstacle needs >= 3 (x, y) vertices")
            except (TypeError, ValueError, OverflowError) as e:
                fault = e  # raised unless an earlier polygon is not convex
                break
            polys.append(p)
        sx, sy = self.sensor.position[:2]
        if polys:
            # convex and CCW: every turn a->b->c is left or straight, and one is
            # left; the sensor is in or on a polygon if left of or on every edge
            v, nxt, nxt2, starts = _rings(polys)
            a, b, c = v, v[nxt], v[nxt2]
            turn = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
            if not (np.logical_and.reduceat(turn > -1e-12, starts)
                    & np.logical_or.reduceat(turn > 1e-12, starts)).all():
                raise ValueError("obstacles must be convex with CCW vertex order")
            side = (b[:, 0] - a[:, 0]) * (sy - a[:, 1]) - (b[:, 1] - a[:, 1]) * (sx - a[:, 0])
        if fault is not None:
            raise fault
        if polys and np.logical_and.reduceat(side >= 0.0, starts).any():
            raise ValueError("sensor position lies inside an obstacle")
        self.obstacles = polys

    def edges(self) -> np.ndarray:
        """All obstacle edges stacked as an (E, 2, 2) array [start, end]."""
        if not self.obstacles:
            return np.zeros((0, 2, 2))
        v, nxt, _, _ = _rings(self.obstacles)
        return np.stack([v, v[nxt]], axis=1)


def _rings(polys: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The vertices of a non-empty list of polygons, concatenated; the index of
    each one's next and next-but-one vertex in its polygon; the polygon starts."""
    counts = np.array([len(p) for p in polys])
    starts = np.cumsum(counts) - counts
    first, size = np.repeat(starts, counts), np.repeat(counts, counts)
    k = np.arange(first.size) - first  # position within its polygon
    return (np.concatenate(polys), first + (k + 1) % size, first + (k + 2) % size, starts)


@dataclass(frozen=True)
class LidarModel:
    """Planar spinning-LiDAR model: one ray per azimuth, first hit returned."""

    n_beams: int = 720
    max_range: float = 75.0
    range_noise_sigma: float = 0.05
    dropout_prob: float = 0.02

    def __post_init__(self):
        if self.n_beams < 8:
            raise ValueError("n_beams must be >= 8")
        if not self.max_range > 0:
            raise ValueError("max_range must be > 0")
        if self.range_noise_sigma < 0:
            raise ValueError("range_noise_sigma must be >= 0")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")


@dataclass(frozen=True)
class SceneFamily:
    """Sampling recipe for one scene regime (emulates an outdoor/indoor dataset)."""

    name: str
    n_obstacles: tuple = (3, 8)        # inclusive count range for interior obstacles
    obstacle_size: tuple = (2.0, 8.0)  # obstacle diameter range, meters
    bounds: float = 60.0
    placement: tuple = (4.0, 24.0)     # radial annulus for obstacle centers
    enclosure_radius: tuple | None = (28.0, 40.0)
    enclosure_vertices: tuple = (14, 22)
    enclosure_jitter: float = 0.12     # relative radial jitter of ring vertices
    wall_thickness: float = 1.5
    n_clutter: tuple = (6, 16)         # small poles/posts catching 1-2 beams
    clutter_size: tuple = (0.2, 0.7)
    random_yaw: bool = True
    seed: int = 0                      # base seed mixed with the per-scene seed

    def __post_init__(self):
        if self.name not in FAMILY_NAMES:
            raise ValueError(f"unknown family name {self.name!r}")
        for lo, hi in (self.n_obstacles, self.obstacle_size, self.placement,
                       self.n_clutter, self.clutter_size):
            if hi < lo:
                raise ValueError("family ranges must be non-empty")
        if self.enclosure_radius is not None and self.enclosure_radius[1] < self.enclosure_radius[0]:
            raise ValueError("family ranges must be non-empty")

    @staticmethod
    def preset(name: str) -> "SceneFamily":
        if name == "outdoor-sparse":
            return SceneFamily(name)
        if name == "outdoor-dense":
            return SceneFamily(
                name, n_obstacles=(10, 20), obstacle_size=(1.5, 6.0),
                placement=(3.0, 20.0), enclosure_radius=(22.0, 34.0),
                enclosure_jitter=0.15, n_clutter=(10, 24))
        if name == "indoor":
            return SceneFamily(
                name, n_obstacles=(4, 10), obstacle_size=(0.5, 2.5), bounds=12.0,
                placement=(1.5, 6.5), enclosure_radius=(7.0, 10.5),
                enclosure_vertices=(5, 9), enclosure_jitter=0.10,
                wall_thickness=0.4, n_clutter=(3, 10), clutter_size=(0.08, 0.3))
        raise ValueError(f"unknown family name {name!r}")


def default_lidar(family_name: str) -> LidarModel:
    if family_name == "indoor":
        return LidarModel(n_beams=720, max_range=15.0, range_noise_sigma=0.01, dropout_prob=0.01)
    return LidarModel()


def default_grid(family_name: str, resolution: int = 256) -> GridSpec:
    extent = 12.0 if family_name == "indoor" else 75.0
    return GridSpec(extent=extent, resolution=resolution)


def point_in_convex(poly: np.ndarray, point) -> bool:
    """True if `point` is inside or on a convex CCW polygon."""
    p = np.asarray(point, dtype=np.float64)
    a = poly
    b = np.concatenate([poly[1:], poly[:1]])
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    return bool(np.all(cross >= 0.0))


def _convex_blob(rng: np.random.Generator, center: np.ndarray, size: float) -> np.ndarray | None:
    """Random convex polygon of roughly `size` diameter around `center`."""
    n = int(rng.integers(4, 9))
    radii = (size / 2.0) * np.sqrt(rng.uniform(0.3, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = center + np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    return pts[hull.vertices]  # CCW for 2D qhull


def _enclosure_quads(rng: np.random.Generator, family: SceneFamily) -> list:
    """Closed wall ring as a list of convex quads."""
    lo, hi = family.enclosure_radius
    radius = rng.uniform(lo, hi)
    n = int(rng.integers(family.enclosure_vertices[0], family.enclosure_vertices[1] + 1))
    ang = 2.0 * np.pi * np.arange(n) / n
    r_in = radius * (1.0 + family.enclosure_jitter * rng.uniform(-1.0, 1.0, n))
    inner = np.column_stack([r_in * np.cos(ang), r_in * np.sin(ang)])
    outer = np.column_stack([(r_in + family.wall_thickness) * np.cos(ang),
                             (r_in + family.wall_thickness) * np.sin(ang)])
    quads = []
    for k in range(n):
        k2 = (k + 1) % n
        quads.append(np.array([inner[k], outer[k], outer[k2], inner[k2]]))
    return quads


def generate_scene(family: SceneFamily, seed: int) -> Scene:
    """Sample a scene deterministically from (family, seed)."""
    rng = seeded_rng(family.seed, seed)
    sensor_xy = np.zeros(2)
    obstacles = []
    if family.enclosure_radius is not None:
        obstacles.extend(_enclosure_quads(rng, family))

    draws = 0

    def place(count: int, size_range: tuple) -> None:
        nonlocal draws
        placed = 0
        while placed < count:
            draws += 1
            if draws > _REJECTION_LIMIT:
                raise ValueError(
                    f"obstacle rejection sampling failed after {_REJECTION_LIMIT} draws")
            size = rng.uniform(*size_range)
            rad = rng.uniform(*family.placement)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            center = np.array([rad * np.cos(theta), rad * np.sin(theta)])
            if np.max(np.abs(center)) + size / 2.0 > family.bounds:
                continue
            poly = _convex_blob(rng, center, size)
            if poly is None or point_in_convex(poly, sensor_xy):
                continue
            obstacles.append(poly)
            placed += 1

    place(int(rng.integers(family.n_obstacles[0], family.n_obstacles[1] + 1)),
          family.obstacle_size)
    place(int(rng.integers(family.n_clutter[0], family.n_clutter[1] + 1)),
          family.clutter_size)

    yaw = rng.uniform(0.0, 2.0 * np.pi) if family.random_yaw else 0.0
    return Scene(obstacles=obstacles, sensor=Pose.from_yaw(yaw), bounds=family.bounds)


def simulate_lidar(scene: Scene, model: LidarModel, seed: int) -> PointCloud:
    """Cast one ray per beam azimuth; return first hits with range noise.

    Beams are equally spaced in the sensor frame; returned points are in the
    sensor frame (z from the inverse attitude rotation, 0 for yaw-only poses).
    Each edge is tested only against the beams in its wedge from the sensor,
    culled as in `ground_truth_fov`, so the first hits are those of testing
    every beam against every edge.
    """
    rng = seeded_rng(seed)
    n = model.n_beams
    phi = 2.0 * np.pi * np.arange(n) / n
    # noise and dropout are drawn for every beam up front so the stream does
    # not depend on scene content
    noise = rng.normal(0.0, model.range_noise_sigma, n) if model.range_noise_sigma > 0 else np.zeros(n)
    dropped = rng.uniform(size=n) < model.dropout_prob if model.dropout_prob > 0 else np.zeros(n, bool)

    R = scene.sensor.rotation_matrix()
    dirs3 = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)]) @ R.T
    d = dirs3[:, :2]
    norms = np.linalg.norm(d, axis=1)
    ok = norms > 1e-12
    d[ok] = d[ok] / norms[ok, None]

    origin = scene.sensor.position[:2]
    edges = scene.edges()
    t_min = np.full(n, np.inf)
    if edges.shape[0]:
        # only the beams in an edge's wedge can hit it: the oracle's cull
        az = np.arctan2(d[:, 1], d[:, 0])
        order = np.argsort(az)
        first, last = _wedge_ranges(az[order], origin, edges[:, 0], edges[:, 1])
        edge, at = flat_ranges(first.ravel(), last.ravel())
        beam, edge = order[at % n], edge // 2  # each edge has two ranges
        p, e = edges[edge, 0], edges[edge, 1] - edges[edge, 0]
        po, db = p - origin, d[beam]
        denom = db[:, 0] * e[:, 1] - db[:, 1] * e[:, 0]
        cross_po_e = po[:, 0] * e[:, 1] - po[:, 1] * e[:, 0]
        cross_po_d = po[:, 0] * db[:, 1] - po[:, 1] * db[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross_po_e / denom
            s = cross_po_d / denom
        valid = (np.abs(denom) > 1e-15) & (t > 1e-9) & (s >= 0.0) & (s <= 1.0)
        np.minimum.at(t_min, beam[valid], t[valid])

    hit = ok & ~dropped & (t_min <= model.max_range)
    ranges = np.maximum(t_min[hit] + noise[hit], _MIN_RANGE)
    world = origin + ranges[:, None] * d[hit]
    world3 = np.column_stack([world, np.zeros(world.shape[0])])
    sensor_pts = (world3 - scene.sensor.position) @ R
    return PointCloud(sensor_pts, scene.sensor)


def _segments_blocked(origin: np.ndarray, targets: np.ndarray, edge_p: np.ndarray,
                      edge_q: np.ndarray) -> np.ndarray:
    """For each target, does segment origin->target touch segment edge_p->edge_q?

    Inclusive test: proper crossings and any endpoint/collinear touching count
    as blocked (obstacle boundaries occlude). `edge_p` and `edge_q` are one
    (x, y) point each, or a pair of coordinate arrays giving each target its
    own edge; the arithmetic per target is the same either way.
    """
    ox, oy = origin
    cx, cy = targets[:, 0], targets[:, 1]
    px, py = edge_p
    qx, qy = edge_q

    # orientation of (a->b, a->c): cross(b-a, c-a)
    d1 = (cx - ox) * (py - oy) - (cy - oy) * (px - ox)   # orient(o, c, p)
    d2 = (cx - ox) * (qy - oy) - (cy - oy) * (qx - ox)   # orient(o, c, q)
    d3 = (qx - px) * (oy - py) - (qy - py) * (ox - px)   # orient(p, q, o)
    d4 = (qx - px) * (cy - py) - (qy - py) * (cx - px)   # orient(p, q, c)

    proper = (d1 * d2 < 0) & (d3 * d4 < 0)

    def on_seg(ax, ay, bx, by, xx, xy):
        return ((np.minimum(ax, bx) <= xx) & (xx <= np.maximum(ax, bx))
                & (np.minimum(ay, by) <= xy) & (xy <= np.maximum(ay, by)))

    touch = ((d1 == 0) & on_seg(ox, oy, cx, cy, px, py)) \
        | ((d2 == 0) & on_seg(ox, oy, cx, cy, qx, qy)) \
        | ((d3 == 0) & on_seg(px, py, qx, qy, ox, oy)) \
        | ((d4 == 0) & on_seg(px, py, qx, qy, cx, cy))
    return proper | touch


# Padding of each edge's azimuth wedge, in radians. Cell azimuths and the
# orientation tests work on the same rounded differences from the sensor and
# disagree about a direction by a few 1e-16 rad, so no cell an edge can block
# lies outside its padded wedge.
_WEDGE_MARGIN = 1e-9
# When an edge's line passes the sensor closer than this many times the
# edge's reach, rounding alone can report cells on the far side of the
# sensor as blocked, so its antipodal wedge is tested too.
_NEAR_LINE = 1e-9
# candidate (cell, edge) pairs per blocked test; bounds its temporaries
_BATCH_PAIRS = 16384


def _wedge_ranges(az: np.ndarray, origin: np.ndarray, p: np.ndarray,
                  q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index ranges that hold every cell the edges p->q ((E, 2) each) can
    block, as (E, 2) starts and stops into the sorted azimuths `az` (in
    [-pi, pi]) taken twice round, so that a range may pass the +-pi seam.

    Column 0 is the padded wedge the edge spans from the sensor, column 1 its
    antipode (empty unless the edge's line passes the sensor). An edge through
    the sensor gets every cell.
    """
    ox, oy = origin
    px, py, qx, qy = p[:, 0], p[:, 1], q[:, 0], q[:, 1]
    a = np.arctan2(py - oy, px - ox)
    b = np.arctan2(qy - oy, qx - ox)
    width = (b - a) % (2 * np.pi)
    flip = width > np.pi
    start = np.where(flip, b, a) - _WEDGE_MARGIN
    width = np.where(flip, 2 * np.pi - width, width) + 2 * _WEDGE_MARGIN

    d3 = (qx - px) * (oy - py) - (qy - py) * (ox - px)   # as in _segments_blocked
    # an edge through the sensor blocks every cell, as _segments_blocked's d3 term
    every = (d3 == 0) & (np.minimum(px, qx) <= ox) & (ox <= np.maximum(px, qx)) \
        & (np.minimum(py, qy) <= oy) & (oy <= np.maximum(py, qy))
    reach = np.maximum(np.hypot(px - ox, py - oy), np.hypot(qx - ox, qy - oy))
    near_line = np.abs(d3) <= _NEAR_LINE * np.hypot(qx - px, qy - py) * reach

    width = np.where(every, 2 * np.pi, width)
    lo = (np.stack([start, start + np.pi], axis=1) + np.pi) % (2 * np.pi) - np.pi
    # a negative width empties the antipode of an edge whose line misses the sensor
    hi = lo + np.stack([width, np.where(near_line & ~every, width, -1.0)], axis=1)
    around = np.concatenate([az, az + 2 * np.pi])
    first = np.searchsorted(around, lo, "left")
    return first, np.maximum(first, np.searchsorted(around, hi, "right"))


@lru_cache(maxsize=8)
def _cells_by_azimuth(spec: GridSpec, max_range: float, origin: bytes) -> tuple[np.ndarray, ...]:
    """The cells of `spec` whose centers lie within `max_range` of the sensor,
    sorted by azimuth from the sensor at `origin` (the bytes of its float64
    (x, y), so that -0.0 and 0.0 are separate entries): read-only int32 flat
    indices, their azimuths, and their centers' world x and y."""
    ox, oy = np.frombuffer(origin)
    X, Y = (a.ravel() for a in spec.cell_centers())
    cells = np.nonzero(np.hypot(X, Y) <= max_range)[0]
    tx, ty = ox + X[cells], oy + Y[cells]
    # azimuths from the same rounded differences the orientation tests use
    az = np.arctan2(ty - oy, tx - ox)
    order = np.argsort(az)
    out = cells[order].astype(np.int32), az[order], tx[order], ty[order]
    for a in out:
        a.flags.writeable = False  # every later call reuses them
    return out


def ground_truth_fov(scene: Scene, model: LidarModel, spec: GridSpec) -> FovMask:
    """Exact visibility: a cell is visible iff the segment from the sensor to
    its center is within max_range and touches no obstacle interior or boundary.

    That is, `_segments_blocked` is false for the cell and every edge. It
    decides each cell on its own, so leaving out pairs that cannot be blocked
    changes no bit: each edge is tested only against the in-range cells in the
    wedge it spans from the sensor, padded by `_WEDGE_MARGIN`, that no nearer
    edge has already blocked (an edge whose line passes the sensor also takes
    its antipodal wedge, and one through the sensor every cell). Every pair
    gets the proper-crossing terms, with d3 once per edge; only pairs with an
    orientation of exactly 0 get the touching terms. The cells, sorted by
    azimuth, and their centers are cached per (grid, max_range, sensor
    position), which every synthesized scene on a grid shares.

    Deterministic and independent of sensor noise parameters.
    """
    origin = scene.sensor.position[:2]
    ox, oy = origin
    cells, az, tx, ty = _cells_by_azimuth(spec, model.max_range, origin.tobytes())
    visible = np.ones(cells.size, dtype=bool)

    edges = scene.edges()
    p, q = edges[:, 0], edges[:, 1]
    (px, py), (qx, qy) = p.T, q.T
    ex, ey = qx - px, qy - py
    d3 = ex * (oy - py) - ey * (ox - px)  # orient(p, q, o): one value per edge
    first, last = _wedge_ranges(az, origin, p, q)
    # nearest edges first: cells they block are not tested again
    by_range = np.argsort(np.minimum(np.hypot(*(p - origin).T), np.hypot(*(q - origin).T)))
    # batches of whole edges, cut where the running pair count passes a
    # multiple of _BATCH_PAIRS
    pairs = np.cumsum((last - first).sum(axis=1)[by_range])
    for batch in np.split(by_range, np.nonzero(np.diff(pairs // _BATCH_PAIRS))[0] + 1):
        edge, idx = flat_ranges(first[batch].ravel(), last[batch].ravel())
        idx = idx % cells.size  # the ranges wrap back to single indices into az
        keep = visible[idx]
        idx, edge = idx[keep], batch[edge[keep] // 2]  # each edge has two ranges
        # _segments_blocked's orientations, with d3 gathered per edge; take()
        # gathers the same values several times faster than indexing
        cx, cy = tx.take(idx), ty.take(idx)
        epx, epy, eqx, eqy = px.take(edge), py.take(edge), qx.take(edge), qy.take(edge)
        dcx, dcy = cx - ox, cy - oy
        d1 = dcx * (epy - oy) - dcy * (epx - ox)
        d2 = dcx * (eqy - oy) - dcy * (eqx - ox)
        e3 = d3.take(edge)
        d4 = ex.take(edge) * (cy - epy) - ey.take(edge) * (cx - epx)
        blocked = (d1 * d2 < 0) & (e3 * d4 < 0)
        # a touch needs an orientation of exactly 0: those pairs take the full test
        tie = (d1 == 0) | (d2 == 0) | (e3 == 0) | (d4 == 0)
        if tie.any():
            blocked[tie] = _segments_blocked(origin, np.column_stack([cx[tie], cy[tie]]),
                                             (epx[tie], epy[tie]), (eqx[tie], eqy[tie]))
        visible[idx[blocked]] = False

    res = spec.resolution
    mask = np.zeros(res * res, dtype=bool)
    mask[cells] = visible
    return FovMask(spec, mask.reshape(res, res))


__all__ = [
    "Scene", "LidarModel", "SceneFamily", "FAMILY_NAMES",
    "generate_scene", "simulate_lidar", "ground_truth_fov",
    "default_lidar", "default_grid", "point_in_convex",
]
