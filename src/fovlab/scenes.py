"""Synthetic 2D scenes: obstacle sampling, LiDAR simulation, exact FOV oracle.

Scenes are planar (returns at z=0 in the world frame): the downstream pipeline
collapses to BEV before estimation, so a planar simulator exercises every
path while keeping the visibility oracle exact.

Each family surrounds the sensor with an enclosing wall ring composed of
convex quads (urban block / room walls), so nearly every beam returns a hit,
plus a sampled number of interior obstacles. Concave structures are composed
from convex pieces.

An interior obstacle is the convex hull of 4-8 random points, its vertices
in the order scipy's Qhull gave them when the first datasets were made:
counterclockwise from the counterclockwise-first end of the first facet left
in Qhull's facet list. The order is kept so that scene files and datasets
already made keep their bytes. `_qhull_order` reproduces it without scipy,
from `geometry.convex_hull` and a replay of Qhull's 2-d build, and refuses a
blob (which is redrawn, as one Qhull rejected was) when any decision it makes
lies within 1e-11 of the largest coordinate magnitude of a tie.

The oracle's definition is the brute-force rule: a cell is visible iff its
centre is within max_range and `_segments_blocked` (the rounded orientation
test of the sensor-to-centre segment against an edge) is False for every
edge. `ground_truth_fov` returns that mask bit for bit while evaluating only
the pairs no error bound decides. Besides the azimuth wedge of each edge, two
culls apply to every edge that is neither near-line nor through the sensor,
each proved in `_cull_radii` from a bound on the rounding of the four
orientations: cells nearer than (1 - 1e-4) x the edge's distance are not
blocked by it (the segment to them stays at least 1e-4 x that distance short
of the edge, far more than the rounding can move it), and cells beyond
(1 + 1e-3) x its reach, in a direction at least 1e-9 rad inside its span,
are (the segment crosses the edge's line by at least 1e-3 x the line's
distance, and its ends straddle the segment to the cell by at least 1e-9 rad).
The in-range cells are kept in (azimuth sector, range key) order, with
n // 32 sectors for n cells and a range quantum of one cell size, so that
both culls select a key range within each sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import convex_hull, flat_ranges
from .types import FovMask, GridSpec, PointCloud, Pose, check_int, seeded_rng

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
        self._edges = np.stack([v, v[nxt]], axis=1) if polys else np.zeros((0, 2, 2))
        self._edges.flags.writeable = False
        self._wedges_at = None  # the sensor position `_wedges` last saw, and its result
        self._wedges_of = None

    def edges(self) -> np.ndarray:
        """All obstacle edges stacked as a read-only (E, 2, 2) array [start,
        end], made once from the obstacles as validated."""
        return self._edges

    def _wedges(self) -> tuple[np.ndarray, ...]:
        """`_wedge_bounds` of the edges from the sensor, made once per sensor
        position: `simulate_lidar` and `ground_truth_fov` share it."""
        origin = self.sensor.position[:2]
        if self._wedges_at != origin.tobytes():
            edges = self._edges
            self._wedges_of = _wedge_bounds(origin, edges[:, 0], edges[:, 1])
            for a in self._wedges_of:
                a.flags.writeable = False
            self._wedges_at = origin.tobytes()
        return self._wedges_of


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
        check_int(self.n_beams, "n_beams", 8)
        if not self.max_range > 0:
            raise ValueError("max_range must be > 0")
        sigma = self.range_noise_sigma
        if not 0 <= sigma < np.inf:
            raise ValueError(f"range_noise_sigma must be finite and >= 0, got {sigma!r}")
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
        for key, minimum in (("n_obstacles", 0), ("n_clutter", 0), ("enclosure_vertices", 3)):
            for end in getattr(self, key):
                check_int(end, key, minimum)
        for key, ends in (("obstacle_size", self.obstacle_size),
                          ("clutter_size", self.clutter_size),
                          ("enclosure_radius", self.enclosure_radius or ()),
                          ("wall_thickness", (self.wall_thickness,))):
            for end in ends:
                if not 0 < end < np.inf:
                    raise ValueError(f"{key} must be finite and > 0, got {end!r}")
        for end in self.placement:
            if not 0 <= end < np.inf:
                raise ValueError(f"placement must be finite and >= 0, got {end!r}")
        if not 0 <= self.enclosure_jitter < 1:
            raise ValueError(f"enclosure_jitter must be in [0, 1), got {self.enclosure_jitter!r}")
        for lo, hi in (self.n_obstacles, self.obstacle_size, self.placement,
                       self.n_clutter, self.clutter_size, self.enclosure_vertices):
            if hi < lo:
                raise ValueError("family ranges must be non-empty")
        if self.enclosure_radius is not None and self.enclosure_radius[1] < self.enclosure_radius[0]:
            raise ValueError("family ranges must be non-empty")
        if not self.bounds > 0:
            raise ValueError("bounds must be > 0")
        check_int(self.seed, "seed", 0)

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
    """True if `point` is inside or on a convex CCW polygon: left of or on
    every edge, in plain floats (the bits of the same numpy arithmetic)."""
    px, py = float(point[0]), float(point[1])
    ring = poly.tolist()
    ax, ay = ring[-1]
    for bx, by in ring:
        if not (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0:
            return False
        ax, ay = bx, by
    return True


def _convex_blob(rng: np.random.Generator, center: np.ndarray, size: float) -> np.ndarray | None:
    """Random convex polygon of roughly `size` diameter around `center`, its
    vertices in Qhull's order (`_qhull_order`); None if that is not certain."""
    n = int(rng.integers(4, 9))
    radii = (size / 2.0) * np.sqrt(rng.uniform(0.3, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = center + np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    order = _qhull_order(pts.tolist())
    return None if order is None else pts[order]


# `_qhull_order` refuses a decision that lies within this fraction of the
# largest |coordinate| of a tie; Qhull's own rounding and tolerances are a
# few 1e-15 of it
_TIE = 1e-11


class _Tie(Exception):
    """`_qhull_order` cannot be certain of Qhull's order: a decision lies
    within _TIE of a tie, or the build went where exact arithmetic cannot."""


class _Facet:
    """An edge of Qhull's 2-d build: its two point indices, newest vertex
    first; the facets opposite each; its outward unit normal and offset; its
    outside points, furthest last, and their furthest distance; whether it is
    visible from the point being added or new; the last new facet it made."""

    __slots__ = ("v", "nb", "nx", "ny", "off", "out", "far", "visible", "new", "replace")

    def __init__(self, xy: list, a: int, b: int, inside: tuple):
        (x0, y0), (x1, y1) = xy[a], xy[b]
        nx, ny = y1 - y0, x0 - x1  # as qh_sethyperplane_det, then turned away from `inside`
        norm = math.sqrt(nx * nx + ny * ny)
        nx, ny = nx / norm, ny / norm
        off = -(x0 * nx + y0 * ny)
        if off + inside[0] * nx + inside[1] * ny > 0:
            nx, ny, off = -nx, -ny, -off
        self.v, self.nx, self.ny, self.off = (a, b), nx, ny, off
        self.nb, self.out, self.far = [], [], 0.0
        self.visible = self.new = False
        self.replace = None


def _qhull_order(xy: list) -> list | None:
    """The indices of the convex hull of the (x, y) pairs `xy` in the order of
    `scipy.spatial.ConvexHull(xy).vertices` (the Qhull 2020.2 that scipy 1.17
    bundles), or None where that order is not certain.

    The hull is `convex_hull`'s. Qhull's order runs counterclockwise from
    the counterclockwise-first end of the first facet (edge) of its final
    facet list, which a replay of its 2-d build finds (Barber, Dobkin &
    Huhdanpaa 1996, "The Quickhull algorithm for convex hulls"):

    - The initial simplex is the first least and the first greatest x
      (`qh_maxmin`), then the point of largest |det| with them among the
      first least and greatest y. If that det is below 1e-3 x (x width x
      largest width), it is instead the first point in index order whose
      |det| exceeds both it and 1e-2 x that product, else the largest.
    - Its facets are made as (max x, min x), (third, min x), (third, max x),
      and each other point goes to the first it lies outside of, the
      furthest last (`qh_partitionall`). Facets only ever leave the list or
      join its end, so the first of the three that is a hull edge is the
      first facet at the end. Only if none is is the build replayed
      (`_replay`).

    Tie policy: every decision made here is refused (None) when it lies
    within _TIE x the largest |coordinate| of a tie, where Qhull's rounding
    could decide it: a point's distance from a facet's line, the difference
    of two such distances, a turn of the chain, and the dets of the initial
    simplex (against _TIE x largest |coordinate| x largest width). So is an
    initial simplex with |det| within 100 times that of 0 (Qhull's near-zero
    case), a replay that could merge facets (a new facet's midpoint within
    the tie band of a neighbour's line) and one whose final hull is not the
    chain's. A refused blob is redrawn, as one Qhull rejected was.
    """
    n = len(xy)
    xs, ys = [p[0] for p in xy], [p[1] for p in xy]
    tol = _TIE * max(max(xs), -min(xs), max(ys), -min(ys))
    hull = convex_hull(xy, tol)
    if hull is None or len(hull) < 3:
        return None
    minx, maxx = xs.index(min(xs)), xs.index(max(xs))
    xwidth = xs[maxx] - xs[minx]
    width = max(xwidth, max(ys) - min(ys))
    target, det_tol = xwidth * width, tol * width
    (ax, ay), (bx, by) = xy[minx], xy[maxx]

    def widest(candidates, third, best, enough):
        """qh_maxsimplex's third point among `candidates`: the first of largest
        |det| with the first two, or the first of them past `enough`."""
        for i in candidates:
            if i == minx or i == maxx or i == third:
                continue
            px, py = xy[i]
            det = abs((ax - px) * (by - py) - (ay - py) * (bx - px))
            if third is not None and abs(det - best) <= det_tol:
                raise _Tie
            if det > best:
                third, best = i, det
                if abs(det - enough) <= det_tol:
                    raise _Tie
                if det > enough:
                    break
        return third, best

    try:
        third, best = widest((ys.index(min(ys)), ys.index(max(ys))), None, -1.0, math.inf)
        if third is not None and abs(best - 1e-3 * target) <= det_tol:
            raise _Tie
        if best < 1e-3 * target:
            third, best = widest(range(n), third, best, 1e-2 * target)
        if best <= 100 * det_tol:
            return None
        inside = ((xs[third] + xs[maxx] + xs[minx]) / 3, (ys[third] + ys[maxx] + ys[minx]) / 3)
        f0, f1, f2 = initial = (_Facet(xy, maxx, minx, inside), _Facet(xy, third, minx, inside),
                                _Facet(xy, third, maxx, inside))
        f0.nb, f1.nb, f2.nb = [f1, f2], [f0, f2], [f0, f1]
        pending = [i for i in range(n) if i != minx and i != maxx and i != third]
        for f in initial:  # qh_partitionall
            keep, top = [], None
            for i in pending:
                px, py = xy[i]
                d = f.off + px * f.nx + py * f.ny
                if abs(d) <= tol or top is not None and d > 0 and abs(d - f.far) <= tol:
                    raise _Tie
                if d < 0:
                    keep.append(i)
                elif top is None or d > f.far:
                    if top is not None:
                        f.out.append(top)
                    top, f.far = i, d
                else:
                    f.out.append(i)
            if top is not None:
                f.out.append(top)
            pending = keep
        succ = dict(zip(hull, hull[1:] + hull[:1]))
        edges = [f for f in initial if succ.get(f.v[0]) == f.v[1] or succ.get(f.v[1]) == f.v[0]]
        if edges:
            if edges[0].out:
                return None
        else:
            facets = _replay(xy, initial, tol, inside)
            if len(facets) != len(hull) or any(
                    succ.get(f.v[0]) != f.v[1] and succ.get(f.v[1]) != f.v[0] for f in facets):
                return None
            edges = facets
    except _Tie:
        return None
    a, b = edges[0].v
    k = hull.index(a if succ[a] == b else b)
    return hull[k:] + hull[:k]


def _replay(xy: list, initial: tuple, tol: float, inside: tuple) -> list:
    """Qhull's 2-d build on from the partitioned initial facets (none of them
    a hull edge): its final facet list. Raises _Tie as `_qhull_order` says.

    The facet holding the furthest outside point moves to the front
    (`qh_furthestnext`). Then, while any is left, the furthest outside point
    of the first facet from `facet_next` on that has one is added
    (`qh_nextfurthest`, `qh_addpoint`): the facets visible from it are found
    breadth-first and move to the end (`qh_findhorizon`); each makes a new
    facet per horizon neighbour, in visible-facet and neighbour-slot order
    (`qh_makenewfacets`); their outside points are repartitioned from their
    last new facet (`qh_partitionvisible`) by a walk over the new facets
    (`qh_findbest`), or over the list's tail once the new facets' normals
    are found to lie in different quadrants (`qh_findbestnew`), then uphill
    over the old facets (`qh_findbesthorizon`); an old facet that gains its
    first outside point moves to the end. The visible facets are deleted.
    """
    order = list(initial)
    furthest = None
    for f in order:  # qh_furthestnext
        if f.out:
            if furthest is not None and abs(f.far - furthest.far) <= tol:
                raise _Tie
            if furthest is None or f.far > furthest.far:
                furthest = f
    if furthest is None:
        raise _Tie
    order.remove(furthest)
    order.insert(0, furthest)
    facet_next = furthest  # None stands for the list's tail
    sharp = None  # per added point: whether its new facets are sharp, once tested

    def after(f):
        k = order.index(f) + 1
        return order[k] if k < len(order) else None

    def remove(f):
        nonlocal facet_next
        if f is facet_next:
            facet_next = after(f)
        order.remove(f)

    def append(f):
        nonlocal facet_next
        order.append(f)
        if facet_next is None:
            facet_next = f

    def dist(q, f):
        return f.off + xy[q][0] * f.nx + xy[q][1] * f.ny

    def outside(d):
        if abs(d) <= tol:
            raise _Tie
        return d > 0

    def above(d, best):
        if abs(d - best) <= tol:
            raise _Tie
        return d > best

    def best_horizon(q, best, bestd):  # qh_findbesthorizon
        seen, facet, queue = {best}, best, []
        while facet is not None:
            last = None
            for nb in facet.nb:
                if nb.new or nb in seen:
                    continue
                seen.add(nb)
                d = dist(q, nb)
                if above(d, bestd):
                    queue.clear()
                    best, bestd = nb, d
                    if last is not None:
                        queue.append(last)
                    last = nb
            facet = last or (queue.pop() if queue else None)
        return best, bestd

    def best_new(q, start, news):  # qh_findbestnew
        best, bestd = None, -math.inf
        i, j = order.index(start), order.index(news[0])
        for f in order[i:] + order[j:i]:
            d = dist(q, f)
            if best is None or above(d, bestd):
                best, bestd = f, d
                if outside(d):
                    return best, d
        return best_horizon(q, best, bestd)

    def best_of(q, start, news):  # qh_findbest over the new facets
        nonlocal sharp
        best, bestd = start, dist(q, start)
        seen = {start}
        while not outside(bestd):  # to the first further new neighbour, if any
            for nb in best.nb:
                if nb.new and nb not in seen:
                    seen.add(nb)
                    d = dist(q, nb)
                    if above(d, bestd):
                        best, bestd = nb, d
                        break
            else:
                break
        else:
            return best, bestd
        if sharp is None:  # qh_sharpnewfacets
            quadrants = set()
            for f in order[order.index(news[0]):]:
                if abs(f.nx) <= _TIE or abs(f.ny) <= _TIE:
                    raise _Tie
                quadrants.add((f.nx > 0, f.ny > 0))
            sharp = len(quadrants) > 1
            if sharp:
                return best_new(q, best, news)
        return best_horizon(q, best, bestd)

    while True:
        while facet_next is not None and not facet_next.out:  # qh_nextfurthest
            facet_next = after(facet_next)
        if facet_next is None:
            return order
        top = facet_next
        p = top.out.pop()
        remove(top)  # qh_findhorizon
        append(top)
        top.visible = True
        visible, seen = [top], {top}
        for v in visible:
            for nb in v.nb:
                if nb not in seen:
                    seen.add(nb)
                    if outside(dist(p, nb)):
                        remove(nb)
                        append(nb)
                        nb.visible = True
                        visible.append(nb)
        news = []  # qh_makenewfacets, qh_matchnewfacets
        for v in visible:
            for slot in (0, 1):
                horizon = v.nb[slot]
                if not horizon.visible:
                    new = _Facet(xy, p, v.v[1 - slot], inside)
                    new.nb, new.new = [horizon, None], True
                    horizon.nb[horizon.nb.index(v)] = new
                    append(new)
                    news.append(new)
                    v.replace = new
        if len(news) != 2:
            raise _Tie
        news[0].nb[1], news[1].nb[1] = news[1], news[0]
        for new in news:  # qh_premerge merges nothing clearly convex
            for f, g in ((new, new.nb[0]), (new.nb[0], new), (new, new.nb[1])):
                (x0, y0), (x1, y1) = xy[f.v[0]], xy[f.v[1]]
                if g.off + (x0 + x1) / 2 * g.nx + (y0 + y1) / 2 * g.ny > -tol:
                    raise _Tie
        sharp = None
        for v in visible:  # qh_partitionvisible, qh_partitionpoint
            for q in v.out:
                best, d = (best_new if sharp else best_of)(q, v.replace or news[0], news)
                if not outside(d):
                    continue
                if best.out:
                    if above(d, best.far):
                        best.out.append(q)
                        best.far = d
                    else:
                        best.out.insert(-1, q)
                    continue
                best.out.append(q)
                best.far = d
                if facet_next is not best:
                    if not best.new:
                        remove(best)
                        append(best)
                        best.new = True
                    elif facet_next is not None and facet_next.new:
                        facet_next = news[0]
        for v in visible:  # qh_deletevisible, qh_resetlists
            remove(v)
        for f in order[order.index(news[0]):]:
            f.new = False


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
        lo, hi, *_ = scene._wedges()
        around = np.concatenate([az[order], az[order] + 2 * np.pi])
        first = np.searchsorted(around, lo, "left")
        last = np.maximum(first, np.searchsorted(around, hi, "right"))
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
# (edge, sector) spans or candidate (edge, cell) pairs per batch; bounds
# every transient index array of ground_truth_fov
_BATCH_PAIRS = 16384
# relative margins of ground_truth_fov's near and far culls (see _cull_radii)
_NEAR_CUT = 1e-4
_FAR_CUT = 1e-3
_ROUNDOFF = 2.0 ** -53  # of float64 arithmetic


def _wedge_bounds(origin: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, ...]:
    """Azimuth bounds that hold every direction in which the edges p->q
    ((E, 2) each) can block a point from the sensor at `origin`.

    Returns (E, 2) starts `lo` in [-pi, pi) and ends `hi` (which may pass
    pi): column 0 is the padded wedge the edge spans from the sensor, column
    1 its antipode, empty (hi < lo) unless the edge is near-line. An edge
    through the sensor gets the whole turn. Also returns each edge's d3 (as
    in `_segments_blocked`), its reach (its farther end's distance) and
    whether it is near-line.
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
    return lo, hi, d3, reach, near_line


def _cull_radii(origin: np.ndarray, p: np.ndarray, q: np.ndarray, d3: np.ndarray,
                reach: np.ndarray, near_line: np.ndarray,
                rmax: float) -> tuple[np.ndarray, np.ndarray]:
    """Per edge p->q, the ranges from the sensor at `origin` that decide
    `_segments_blocked` without a test, as (near, far) arrays: it is False
    for every cell nearer than near[e], and True for every cell farther than
    far[e] whose azimuth lies 2 _WEDGE_MARGIN or more inside the edge's
    padded wedge. `d3`, `reach` and `near_line` come from `_wedge_bounds`,
    `rmax` is the largest range of a cell. An edge that does not qualify
    gets near 0 and far inf; near-line edges never qualify.

    Proofs, in exact reals with u = 2**-53. P, Q and C are the edge's ends
    and the cell less the sensor o, E = q - p, rho = |C|, h = |D3| / |E| the
    distance of the edge's line from o and dist that of the edge (taken as h
    where the foot of the perpendicular falls on the edge, else as the
    nearer end's distance; within a relative 1e-6, which the margins below
    absorb). Each orientation is a cross product of two exact differences a
    and b (d1: C, P; d2: C, Q; d3: E, o - p; d4: E, c - p) rounded four
    times, so it is within err = 5u|a||b| + 2**-1073 of the exact D. A
    qualifying edge is not near-line, so h > 0.99e-9 reach and d3 != 0 has
    the sign of D3; its scale (dist > 1e-60, reach and rmax < 1e60, |d3| >
    1e-140) keeps every product in the proofs finite and nonzero.

    Near, (1 - _NEAR_CUT) dist, qualifying when _NEAR_CUT dist > 16u reach.
    A cell nearer than that has rho < (1 - 0.99e-4) dist. A touch via d1 == 0
    needs p in the bounding box of o and c, so |P| <= rho < dist; via d2 ==
    0 likewise. A touch via d4 == 0 needs c in the edge's bounding box, where
    its distance from the edge is its distance from the line, at most
    err(d4) / |E| <= 10u reach + 2**-1073 / |E| < dist - rho. A proper
    crossing: let s be c's signed distance from the line, h at o. If s|E| >
    err(d4), d4 has the sign of d3. Otherwise s < 1.2e-6 h, and the line o-c
    meets the edge's line at Y, |Y| = rho h / (h - s) < (1 - 0.97e-4) dist,
    so off the edge: p and q lie on one side of Y, at least 0.97e-4 dist from
    it, where the lines meet at an angle of sine h / |Y| >= h / dist. So p
    and q lie on one side of the line o-c, at least 0.97e-4 h from it, and
    |D1| >= 0.97e-4 h rho > 5u rho reach + 2**-1073 >= err(d1) (as rho >
    h / 2), likewise D2: d1 d2 >= 0.

    Far, (1 + _FAR_CUT) reach, qualifying when _FAR_CUT h > 8u (rmax +
    reach). A cell farther than that with its azimuth 2 _WEDGE_MARGIN inside
    the padded wedge has rho >= (1 + 0.99e-3) reach and a direction at least
    0.99e-9 rad inside the edge's span (arctan2, the rounded differences
    and the sector arithmetic move an azimuth by less than 1e-14 rad). The
    ray from o through c meets the edge at X, |X| <= reach, with p and q on
    either side of it: |D1| >= rho |P| sin(0.99e-9) > err(d1), likewise D2,
    so d1 d2 < 0. And s = h (1 - rho / |X|) <= -0.99e-3 h, so |D4| >=
    0.99e-3 h |E| > 5u |E| (rmax + reach) + 2**-1073 >= err(d4) with the
    sign opposite to D3: d3 d4 < 0, a proper crossing.
    """
    ox, oy = origin
    (px, py), (qx, qy) = p.T, q.T
    ex, ey = qx - px, qy - py
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.abs(d3) / np.hypot(ex, ey)
    foot = ((px - ox) * ex + (py - oy) * ey < 0) & ((qx - ox) * ex + (qy - oy) * ey > 0)
    dist = np.where(foot, h, np.minimum(np.hypot(px - ox, py - oy), np.hypot(qx - ox, qy - oy)))
    scaled = ~near_line & (dist > 1e-60) & (reach < 1e60) & (np.abs(d3) > 1e-140)
    near = scaled & (_NEAR_CUT * dist > 16 * _ROUNDOFF * reach)
    far = scaled & (rmax < 1e60) & (_FAR_CUT * h > 8 * _ROUNDOFF * (rmax + reach))
    return (np.where(near, (1 - _NEAR_CUT) * dist, 0.0),
            np.where(far, (1 + _FAR_CUT) * reach, np.inf))


@lru_cache(maxsize=8)
def _cells_by_sector(spec: GridSpec, max_range: float, origin: bytes) -> tuple:
    """The cells of `spec` whose centres lie within `max_range` of the sensor
    at `origin` (the bytes of its float64 (x, y), so that -0.0 and 0.0 are
    separate entries), in (azimuth sector, range key) order.

    Azimuth and range come from the same rounded differences the orientation
    tests use. Of the n cells, sector s of S = n // 32 (at least 1, at most
    _BATCH_PAIRS // 4) holds those with floor((azimuth + pi) S / 2pi) = s
    (the cell at azimuth pi in the last), about 32 each; the range key is
    floor(range / cell size), below about 0.71 resolution + 1 for any
    extent, so the packed key sector * keys + key stays far below 2**63.
    Returns read-only arrays: int32 flat cell indices, their packed keys and
    their centres' world x and y, and the S + 1 sector starts; then the
    number of range keys and the largest range.
    """
    ox, oy = np.frombuffer(origin)
    X, Y = (a.ravel() for a in spec.cell_centers())
    cells = np.flatnonzero(np.hypot(X, Y) <= max_range)
    tx, ty = ox + X[cells], oy + Y[cells]
    del X, Y  # the temporaries below are dropped as soon as they are used, for a low peak
    dx, dy = tx - ox, ty - oy
    rng = np.hypot(dx, dy)
    rmax = float(rng.max(initial=0.0))
    packed = np.floor(rng / spec.cell_size).astype(np.int64)  # the range key, for now
    n_keys = int(packed.max(initial=0)) + 1
    del rng
    n_sec = min(max(cells.size // 32, 1), _BATCH_PAIRS // 4)
    sector = np.floor((np.arctan2(dy, dx) + np.pi) * (n_sec / (2 * np.pi)))
    del dx, dy
    packed += np.minimum(sector, n_sec - 1).astype(np.int64) * n_keys
    del sector
    order = np.argsort(packed, kind="stable")
    packed = packed[order]
    starts = np.searchsorted(packed, np.arange(n_sec + 1) * n_keys)
    out = cells[order].astype(np.int32), packed, tx[order], ty[order], starts
    for a in out:
        a.flags.writeable = False  # every later call reuses them
    return (*out, n_keys, rmax)


def _groups(sizes: np.ndarray) -> list[slice]:
    """Slices of consecutive entries of `sizes` that add up to at most
    _BATCH_PAIRS each (a larger entry alone in its slice)."""
    if sizes.sum() <= _BATCH_PAIRS:
        return [slice(0, sizes.size)]
    step = max(_BATCH_PAIRS - int(sizes.max()), 1)
    cuts = np.nonzero(np.diff((np.cumsum(sizes) - sizes) // step))[0] + 1
    bounds = [0, *cuts.tolist(), sizes.size]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _pairs(s_lo: np.ndarray, s_hi: np.ndarray, cut: np.ndarray, edge: np.ndarray,
           visible: np.ndarray, packed: np.ndarray, stop: np.ndarray, n_keys: int):
    """For each span i in turn, (edge, cell index) pairs of edge[i] and the
    cells still visible of sectors s_lo[i] <= s < s_hi[i] (counted twice
    round) whose range key is cut[i] or more and whose index is below
    stop[s], in batches drawn from at most _BATCH_PAIRS cells."""
    for g in _groups(s_hi - s_lo):
        span, s = flat_ranges(s_lo[g], s_hi[g])
        span += g.start
        s %= stop.size
        # a sector's cells are sorted by range key: those at or past the cut are its tail
        first = np.searchsorted(packed, s * n_keys + cut[span])
        last = np.maximum(stop[s], first)
        for b in _groups(last - first):
            at, idx = flat_ranges(first[b], last[b])
            keep = visible[idx]
            at, idx = at[keep], idx[keep]  # only these stay alive while the batch is tested
            yield edge[span[b][at]], idx


def ground_truth_fov(scene: Scene, model: LidarModel, spec: GridSpec) -> FovMask:
    """Exact visibility: a cell is visible iff the segment from the sensor to
    its center is within max_range and touches no obstacle interior or boundary.

    That is, `_segments_blocked` is False for the cell and every edge. It
    decides each cell on its own, so a pair whose outcome is known needs no
    test and no bit changes. A pair is left out when the cell lies outside
    the edge's padded wedge (`_wedge_bounds`), is already blocked, or is
    nearer than (1 - 1e-4) x the edge's distance; a cell is blocked untested
    when it lies beyond (1 + 1e-3) x the edge's reach in a sector at least
    1e-9 rad inside the edge's span (2 x `_WEDGE_MARGIN` inside the padded
    wedge). `_cull_radii`
    proves both culls from error bounds on the rounded orientations and
    grants them per edge only where those bounds hold: never to near-line
    edges or edges through the sensor, and the far one only while the
    largest cell range stays within about 1e-3 h / 8u of the edge's reach.

    The in-range cells are cached per (grid, max_range, sensor position),
    which every synthesized scene on a grid shares, in (sector, range key)
    order (`_cells_by_sector`): n // 32 sectors for n cells (about 32 cells
    a sector, at most _BATCH_PAIRS // 4 sectors) and a range quantum of one
    cell size, so both culls are key ranges within a sector. A sector's
    horizon is the least far key of an edge that holds it inside its wedge:
    its cells from there on are blocked. The front-facing edges (d3 <= 0,
    the sensor outside their polygon) are then tested nearest first on the
    cells from their near key to the horizon, and the back-facing ones on
    the cells still visible; each batch draws on at most _BATCH_PAIRS cells.
    A pair takes `_segments_blocked`'s proper-crossing terms, with d3 once
    per edge; only pairs with d1 d2 or d3 d4 exactly 0 take its touching
    terms.

    Deterministic and independent of sensor noise parameters.
    """
    origin = scene.sensor.position[:2]
    ox, oy = origin
    cells, packed, tx, ty, starts, n_keys, rmax = _cells_by_sector(
        spec, model.max_range, origin.tobytes())
    visible = np.ones(cells.size, dtype=bool)

    edges = scene.edges()
    p, q = edges[:, 0], edges[:, 1]
    (px, py), (qx, qy) = p.T, q.T
    lo, hi, d3, reach, near_line = scene._wedges()
    near, far = _cull_radii(origin, p, q, d3, reach, near_line, rmax)
    # sectors and range keys, in the cache's arithmetic
    n_sec = starts.size - 1
    per_rad = n_sec / (2 * np.pi)
    s_lo = np.floor((lo + np.pi) * per_rad).astype(np.int64)
    s_hi = np.where(hi < lo, s_lo, np.minimum(
        np.floor((hi + np.pi) * per_rad).astype(np.int64) + 1, s_lo + n_sec))
    inner_lo = np.ceil((lo[:, 0] + 2 * _WEDGE_MARGIN + np.pi) * per_rad).astype(np.int64)
    inner_hi = np.floor((hi[:, 0] - 2 * _WEDGE_MARGIN + np.pi) * per_rad).astype(np.int64)
    inner_hi = np.where(far < np.inf, np.maximum(inner_hi, inner_lo), inner_lo)
    # keys below floor(near / cell size) are nearer than near, keys above
    # floor(far / cell size) farther than far
    near_key = np.floor(near / spec.cell_size).astype(np.int64)
    far_key = np.minimum(np.floor(far / spec.cell_size) + 1, n_keys).astype(np.int64)

    # the certain blocks: the cells of a sector at or past its horizon, the
    # least far key of an edge that holds the sector inside its wedge
    horizon = np.full(n_sec, n_keys)
    for g in _groups(inner_hi - inner_lo):
        span, s = flat_ranges(inner_lo[g], inner_hi[g])
        np.minimum.at(horizon, s % n_sec, far_key[g][span])
    tail = np.searchsorted(packed, np.arange(n_sec) * n_keys + horizon)
    # the other pairs of each wedge, from the edge's near key to the horizon
    by_range = np.minimum(np.hypot(px - ox, py - oy), np.hypot(qx - ox, qy - oy))
    order = np.lexsort((by_range, d3 > 0))
    cut = np.stack([near_key, np.zeros_like(near_key)], axis=1)[order].ravel()
    ends, ex, ey = np.stack([px, py, qx, qy]), qx - px, qy - py
    for edge, idx in _pairs(s_lo[order].ravel(), s_hi[order].ravel(), cut, order.repeat(2),
                            visible, packed, tail, n_keys):
        # _segments_blocked's orientations, with d3 gathered per edge; take()
        # gathers the same values several times faster than indexing
        cx, cy = tx.take(idx), ty.take(idx)
        epx, epy, eqx, eqy = ends.take(edge, axis=1)
        dcx, dcy = cx - ox, cy - oy
        d12 = (dcx * (epy - oy) - dcy * (epx - ox)) * (dcx * (eqy - oy) - dcy * (eqx - ox))
        d34 = d3.take(edge) * (ex.take(edge) * (cy - epy) - ey.take(edge) * (cx - epx))
        blocked = (d12 < 0) & (d34 < 0)
        # a touch needs an orientation of exactly 0, so a product of 0 (or a
        # NaN, which an overflow can hide a 0 in): those pairs take the full test
        tie = ~(np.abs(d12 * d34) > 0)
        if tie.any():
            blocked[tie] = _segments_blocked(origin, np.column_stack([cx[tie], cy[tie]]),
                                             (epx[tie], epy[tie]), (eqx[tie], eqy[tie]))
        visible[idx[blocked]] = False
    # and the certain blocks, as runs of cells to keep and to clear per sector
    runs = np.stack([tail - starts[:-1], starts[1:] - tail], axis=1).ravel()
    visible &= np.repeat(np.tile([True, False], n_sec), runs)

    res = spec.resolution
    mask = np.zeros(res * res, dtype=bool)
    mask[cells] = visible
    return FovMask(spec, mask.reshape(res, res))


__all__ = [
    "Scene", "LidarModel", "SceneFamily", "FAMILY_NAMES",
    "generate_scene", "simulate_lidar", "ground_truth_fov",
    "default_lidar", "default_grid", "point_in_convex",
]
