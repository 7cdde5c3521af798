"""Classical FOV estimators: quantized/continuous ray tracing and concave hull.

All estimators consume BEV points (N, 2) in the sensor frame and produce
either a per-azimuth range profile (the farthest return of each azimuth bin)
or a bounding polygon (FovPolygon), plus rasterizers that turn both into grid
masks comparable with the ground-truth masks. Points and cell centers fall
into azimuth bins by one rule, _bins.

The concave hull's closure test (points_in_polygon) and the polygon rasterizer
share one even-odd rule (Haines 1994, "Point in Polygon Strategies") and one
core that applies it; only the way points are found and read differs (sorted
complex keys, or indices on the grid axis).
Point (px, py) crosses edge (x1, y1)-(x2, y2) iff min(y1, y2) <= py < max(y1, y2)
and px < x1 + (py - y1) * (x2 - x1) / (y2 - y1), and is inside iff it crosses an
odd number of edges, or lies on the boundary: within _BOUNDARY_TOL of the line
of an edge of nonzero length and of that edge's bounding box. The core searches
each (edge, row) pair once, at the crossing. The crossing's neighbours in the
row show whether any point lies in a strip twice as wide as the boundary
candidate strip; only where one does, or the strip is unbounded, is the
candidate strip searched and its points tested against the edge. Parity comes
from runs between the sorted crossing positions, not from a count over every
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import azimuth, convex_hull, flat_ranges, to_polar
from .types import FovMask, GridSpec

_TWO_PI = 2.0 * np.pi
MIN_BINS = 8  # fewest azimuth bins raytrace_quantized accepts
MIN_K = 3  # smallest neighbour count concave_hull accepts
_BOUNDARY_TOL = 1e-9  # a point this close to a polygon edge (m) lies on it
_STRIP_PAD = 1e-6  # (m) slack of the boundary candidate strip, far above rounding


@dataclass
class FovPolygon:
    """Ordered polygon boundary of the estimated visible region (sensor frame)."""

    vertices: np.ndarray  # (V, 2); |x|, |y| <= 1e150, so that edge arithmetic cannot overflow

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3 or not (np.abs(v) <= 1e150).all():
            raise ValueError("polygon needs >= 3 finite (x, y) vertices, each |x|, |y| <= 1e150")
        self.vertices = v


def _bins(az: np.ndarray, n_bins: int) -> np.ndarray:
    """Bin of each azimuth in [0, 2pi); bin i covers [2*pi*i/n, 2*pi*(i+1)/n)."""
    return np.minimum((az / _TWO_PI * n_bins).astype(np.int64), n_bins - 1)


def raytrace_quantized(points_xy: np.ndarray, n_bins: int = 360) -> np.ndarray:
    """(n_bins,) max range per azimuth bin; bins with no points get range 0 (invisible)."""
    if n_bins < MIN_BINS:
        raise ValueError(f"n_bins must be >= {MIN_BINS}")
    az, r = to_polar(points_xy)
    ranges = np.zeros(n_bins)
    np.maximum.at(ranges, _bins(az, n_bins), r)
    return ranges


def raytrace_continuous(points_xy: np.ndarray) -> FovPolygon:
    """Connect azimuth-sorted points into a closed FOV boundary polygon.

    Duplicate azimuths (within 1e-9 radians) keep only the max-range point.
    """
    az, r = to_polar(points_xy)
    if az.size < 3:
        raise ValueError("degenerate input: need >= 3 points with distinct azimuths")
    order = np.lexsort((-r, az))
    az, r = az[order], r[order]
    # group azimuths closer than 1e-9; first entry of each group has max range
    new_group = np.empty(az.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = np.diff(az) > 1e-9
    az, r = az[new_group], r[new_group]
    if az.size < 3:
        raise ValueError("degenerate input: need >= 3 points with distinct azimuths")
    return FovPolygon(np.column_stack([r * np.cos(az), r * np.sin(az)]))


def concave_hull(points_xy: np.ndarray, k: int = 16) -> FovPolygon:
    """k-nearest-neighbor gift wrapping (Moreira-Santos / Park-Oh style).

    Walks the boundary choosing, among the k nearest unused candidates, the
    one with the largest clockwise turn whose edge does not intersect the
    boundary built so far. Retries with k+1 whenever the walk gets stuck or
    some point falls outside the closed hull.
    """
    if k < MIN_K:
        raise ValueError(f"k must be >= {MIN_K}")
    pts = np.ascontiguousarray(points_xy, dtype=np.float64).reshape(-1, 2)
    # the distinct rows in (x, y) order, as np.unique(pts, axis=0) gives them
    pts = _sorted_unique(pts.view([("f0", np.float64), ("f1", np.float64)]).ravel())
    pts = pts.view(np.float64).reshape(-1, 2)
    n = pts.shape[0]
    if n < 3:
        raise ValueError("need >= 3 distinct points")
    d = pts - pts[0]
    cross = d[:, 0] * d[1, 1] - d[:, 1] * d[1, 0]
    scale = max(1.0, float(np.abs(d).max()))
    if np.abs(cross).max() <= 1e-12 * scale * scale:
        raise ValueError("all points are collinear")
    if n == 3:
        return FovPolygon(pts)

    kk = max(3, min(int(k), n - 1))
    while kk < n - 1:
        hull = _try_hull(pts, kk)
        if hull is not None:
            return FovPolygon(hull)
        kk += 1
    # k has grown to cover every point: the boundary-tightness limit is the
    # convex hull, which always closes and contains the whole set
    return FovPolygon(pts[convex_hull(pts.tolist())])


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-d array, without the numpy.ma import np.unique
    makes: the same (unstable) sort, then the first entry of each run of
    equal ones, all NaNs of a float array being one run, so that a tie such
    as -0.0 and 0.0 keeps the entry np.unique keeps."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    keep[1:] = a[1:] != a[:-1]
    if a.dtype.kind == "f":
        keep[1:] &= ~np.isnan(a[:-1])  # NaNs sort last
    return a[keep]


def _try_hull(pts: np.ndarray, kk: int) -> np.ndarray | None:
    """One boundary walk at neighborhood size kk.

    Depth-first: at each vertex the k nearest unused candidates are tried in
    order of largest clockwise turn, skipping edges that would properly cross
    the boundary built so far (shared endpoints and collinear touching do not
    count); dead ends backtrack instead of failing the whole attempt. The
    walk may close onto the start once three edges exist, and a closure is
    accepted only if every unused point lies inside or on the polygon. A vertex's
    boundary stays fixed while its candidates are tried, so they are tested at once.
    """
    n = pts.shape[0]
    first = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])  # lowest y, then lowest x
    used = np.zeros(n, dtype=bool)
    used[first] = True
    hull = np.empty((n + 1, 2))
    hull[0] = pts[first]
    hull_idx = [first]
    budget = 12 * n  # cap on candidate trials before giving up on this kk

    def candidates(current: int, prev_angle: float, m: int):
        """(candidate, crosses the boundary) pairs from hull vertex m - 1, in order."""
        avail = np.nonzero(~used)[0]
        if m >= 4:
            avail = np.append(avail, first)  # closing the loop becomes legal
        d2 = np.sum((pts[avail] - pts[current]) ** 2, axis=1)
        avail = avail[np.argsort(d2, kind="stable")[:kk]]
        v = pts[avail] - pts[current]
        turn = np.mod(np.arctan2(v[:, 1], -v[:, 0]) - prev_angle, _TWO_PI)
        avail = avail[np.argsort(-turn, kind="stable")]
        # every boundary edge a->b; the most recent one, and the first one when
        # closing onto the start, share an endpoint with the trial edge, so one
        # product below is exactly 0 and they never count
        (x1, y1), (x2, y2) = pts[current], pts[avail].T[:, :, None]
        (ax, ay), (bx, by) = hull[:m - 1].T, hull[1:m].T
        dx, dy, ex, ey = x1 - x2, y1 - y2, ax - bx, ay - by
        t1 = dx * (ay - y1) + dy * (x1 - ax)
        t2 = dx * (by - y1) + dy * (x1 - bx)
        t3 = ex * (y1 - ay) + ey * (ax - x1)
        t4 = ex * (y2 - ay) + ey * (ax - x2)
        cross = (t1 * t2 < 0) & (t3 * t4 < 0)
        return zip(avail.tolist(), cross.any(axis=1).tolist())

    stack = [candidates(first, 0.0, 1)]  # one iterator per hull vertex
    trials = 0
    while stack:
        m = len(hull_idx)
        for idx, crosses in stack[-1]:
            trials += 1
            if trials > budget:
                return None
            if crosses:
                continue
            if idx == first:
                poly = hull[:m].copy()
                rest = pts[~used]
                if rest.shape[0] == 0 or np.all(points_in_polygon(rest, poly)):
                    return poly
                continue  # closure rejected: some point falls outside
            hull[m] = pts[idx]
            hull_idx.append(idx)
            used[idx] = True
            back = pts[hull_idx[-2]] - pts[idx]
            angle = float(np.arctan2(back[1], -back[0]))
            stack.append(candidates(idx, angle, m + 1))
            break
        else:  # every candidate tried: backtrack
            stack.pop()
            v = hull_idx.pop()
            if v != first:
                used[v] = False
            if not hull_idx:
                return None
    return None


@lru_cache(maxsize=32)
def _center_polar(spec: GridSpec, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Range and azimuth bin of each cell centre, [ix, iy] as the grid's masks."""
    axis = spec.cell_centers_1d()
    r = np.hypot(axis[:, None], axis)
    bins = _bins(azimuth(axis[:, None], axis), n_bins)
    r.flags.writeable = bins.flags.writeable = False  # every later call reuses them
    return r, bins


def polar_to_mask(ranges: np.ndarray, spec: GridSpec) -> FovMask:
    """Cell visible iff its center range <= the range of its center's azimuth
    bin, one of ranges.size bins (as raytrace_quantized returns them)."""
    r, bins = _center_polar(spec, ranges.size)
    return FovMask(spec, r <= ranges[bins])


def _even_odd(rows, n, x_of, y_of, locate, poly) -> np.ndarray:
    """points_in_polygon on n points already in (y, x) order, whose distinct
    y values are `rows`; `x_of(i)` and `y_of(i)` gather the x and y of the
    points at indices i (-1 the last), and `locate(r, q, side)` is the
    np.searchsorted position of (rows[r], q) among them.

    Each (edge, row) pair is searched once, at its crossing x_at. That
    position counts the crossing, and its two neighbours in the row bound the
    widened strip x_at +- 2 * half around the boundary candidate strip: where
    both lie outside it, so does every point of the row. Only the other pairs,
    among them those whose strip is unbounded (horizontal or near-horizontal
    edges), search the strip itself and test its points against the edge. The
    sorted crossing positions split the points into runs of alternating parity."""
    v = np.asarray(poly, dtype=np.float64)
    (x1, y1), (x2, y2) = v.T, np.concatenate([v[1:], v[:1]]).T
    ex, ey = x2 - x1, y2 - y1
    elen = np.hypot(ex, ey)
    tol = _BOUNDARY_TOL
    xlo, xhi = np.minimum(x1, x2) - tol, np.maximum(x1, x2) + tol
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    # the (edge, row) pairs an edge may cross or touch; a zero-length edge has none
    live = elen != 0.0
    e, r = flat_ranges(np.searchsorted(rows, ylo - tol, side="left") * live,
                       np.searchsorted(rows, yhi + tol, side="right") * live)
    y = rows[r]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_at = x1[e] + (y - y1[e]) * ex[e] / ey[e]  # not finite on horizontal edges
        half = (tol + _STRIP_PAD) * elen / np.abs(ey)
        at = locate(r, np.where(np.isfinite(x_at), x_at, 0.0), "left")  # finite keys only
        # the points just before and at `at`, the row's nearest on either side of
        # x_at; where one lies in another row (or `at` is 0 or n) the row has none
        # on that side, so the test can only err towards the exact path, as it
        # does for a non-finite x_at or strip
        wide = (2.0 * half)[e]
        clear = (x_of(at - 1) < x_at - wide) & (x_of(np.minimum(at, n - 1)) > x_at + wide)
    crosses = (ylo[e] <= y) & (y < yhi[e])

    # a row has an even number of crossings, so the count to a point's right
    # has the parity of the count at or before it in (y, x) order; every
    # crossing's x_at is finite
    ends = np.concatenate(([0], np.sort(at[crosses]), [n]))
    parity = np.zeros(ends.size - 1, dtype=bool)
    parity[1::2] = True
    inside = np.repeat(parity, ends[1:] - ends[:-1])

    s = np.flatnonzero(~clear)
    if s.size:  # some point lies in a widened strip, or a strip is unbounded
        e, r, x_at = e[s], r[s], x_at[s]
        with np.errstate(invalid="ignore", over="ignore"):
            strip_lo, strip_hi = np.fmax(x_at - half[e], xlo[e]), np.fmin(x_at + half[e], xhi[e])
        pair, c = flat_ranges(locate(r, strip_lo, "left"), locate(r, strip_hi, "right"))
        ce, cx, cy = e[pair], x_of(c), y_of(c)
        cross = ex[ce] * (cy - y1[ce]) - ey[ce] * (cx - x1[ce])
        inside[c[(np.abs(cross) / elen[ce] <= tol) & (cx >= xlo[ce]) & (cx <= xhi[ce])
                 & (cy >= ylo[ce] - tol) & (cy <= yhi[ce] + tol)]] = True
    return inside


def points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Which (N, 2) points lie inside or on the closed (V, 2) polygon.

    Points are grouped into rows of equal y. An edge is evaluated only on the
    rows it spans; its boundary candidates in a row are the points within
    _BOUNDARY_TOL + _STRIP_PAD of its line and inside its padded box.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    keys = pts[:, 1] + 1j * pts[:, 0]  # complex keys sort by y, then by x
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    px, py, rows = keys.imag, keys.real, _sorted_unique(keys.real)
    out = np.empty(keys.size, dtype=bool)
    out[order] = _even_odd(rows, keys.size, px.__getitem__, py.__getitem__,
                           lambda r, q, side: np.searchsorted(keys, rows[r] + 1j * q, side), poly)
    return out


@lru_cache(maxsize=32)
def _grid_rows(spec: GridSpec) -> tuple:
    """_even_odd's arguments for the cell centers, whose rows share one x
    axis: only the axis is kept. Center i, in (y, x) order, lies at
    (axis[i % res], axis[i // res])."""
    axis, res = spec.cell_centers_1d(), spec.resolution
    axis.flags.writeable = False
    return (axis, res * res, lambda i: axis[i % res], lambda i: axis[i // res],
            lambda r, q, side: r * res + np.searchsorted(axis, q, side))


def rasterize_polygon(poly: FovPolygon, spec: GridSpec) -> FovMask:
    """Cell visible iff its center is inside or on the polygon."""
    res = spec.resolution
    inside = _even_odd(*_grid_rows(spec), poly.vertices).reshape(res, res)
    return FovMask(spec, np.ascontiguousarray(inside.T))


__all__ = [
    "FovPolygon",
    "raytrace_quantized", "raytrace_continuous", "concave_hull",
    "rasterize_polygon", "polar_to_mask", "points_in_polygon",
]
