import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from fovlab import classical
from fovlab.attacks import AttackSpec, spoof
from fovlab.classical import (_BOUNDARY_TOL, MIN_BINS, FovPolygon, concave_hull,
                              points_in_polygon, polar_to_mask, rasterize_polygon,
                              raytrace_continuous, raytrace_quantized)
from fovlab.geometry import filter_points, flat_ranges, project_to_bev
from fovlab.metrics import iou
from fovlab.scenes import (FAMILY_NAMES, SceneFamily, _cells_by_sector, default_grid,
                           default_lidar, generate_scene, ground_truth_fov, simulate_lidar)
from fovlab.types import FilterSpec, FovMask, GridSpec

from conftest import cell_centers

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY = dict(deadline=None, derandomize=True, database=None)


def _points_in_polygon_reference(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """The former per-edge loop of points_in_polygon, kept as its oracle."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    px, py = pts[:, 0], pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    v1 = np.asarray(poly, dtype=np.float64)
    v2 = np.roll(v1, -1, axis=0)
    tol = _BOUNDARY_TOL
    for (x1, y1), (x2, y2) in zip(v1, v2):
        crosses = ((y1 <= py) & (y2 > py)) | ((y2 <= py) & (y1 > py))
        if np.any(crosses):
            x_int = x1 + (py[crosses] - y1) * (x2 - x1) / (y2 - y1)
            hit = np.zeros_like(inside)
            hit[crosses] = px[crosses] < x_int
            inside ^= hit
        ex, ey = x2 - x1, y2 - y1
        elen = np.hypot(ex, ey)
        if elen == 0.0:
            continue
        cross = ex * (py - y1) - ey * (px - x1)
        within = (np.abs(cross) / elen <= tol) \
            & (px >= min(x1, x2) - tol) & (px <= max(x1, x2) + tol) \
            & (py >= min(y1, y2) - tol) & (py <= max(y1, y2) + tol)
        on_edge |= within
    return inside | on_edge


def _area(poly: FovPolygon) -> float:
    """Shoelace area of a polygon (positive regardless of orientation)."""
    x, y = poly.vertices[:, 0], poly.vertices[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _rasterize_polygon_reference(poly: FovPolygon, spec: GridSpec) -> FovMask:
    """The former scanline fill of rasterize_polygon, kept as its oracle: per
    row of cell centers, an odd count of crossings to a center's left marks it
    inside; then the centers on an edge are marked."""
    res = spec.resolution
    centers = spec.cell_centers_1d()
    v1 = poly.vertices
    v2 = np.roll(v1, -1, axis=0)
    inside = np.zeros((res, res), dtype=bool)  # [ix, iy]

    # crossing x per row, half-open in y so vertices are not double counted
    rows_of, xs_of = [], []
    for (x1, y1), (x2, y2) in zip(v1, v2):
        if y1 == y2:
            continue
        ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
        i0 = int(np.searchsorted(centers, ylo, side="left"))
        i1 = int(np.searchsorted(centers, yhi, side="left"))
        if i1 > i0:
            ys = centers[i0:i1]
            rows_of.append(np.arange(i0, i1))
            xs_of.append(x1 + (ys - y1) * (x2 - x1) / (y2 - y1))
    if rows_of:
        rows = np.concatenate(rows_of)
        xs = np.concatenate(xs_of)
        order = np.lexsort((xs, rows))
        rows, xs = rows[order], xs[order]
        starts = np.searchsorted(rows, np.arange(res), side="left")
        ends = np.searchsorted(rows, np.arange(res), side="right")
        for iy in range(res):
            row_xs = xs[starts[iy]:ends[iy]]
            if row_xs.size:
                inside[:, iy] = (np.searchsorted(row_xs, centers, side="left") % 2) == 1

    # boundary-coincident centers are visible; only cells near each edge qualify
    tol = _BOUNDARY_TOL
    for (x1, y1), (x2, y2) in zip(v1, v2):
        elen = np.hypot(x2 - x1, y2 - y1)
        if elen == 0.0:
            continue
        ix0 = int(np.searchsorted(centers, min(x1, x2) - tol, side="left"))
        ix1 = int(np.searchsorted(centers, max(x1, x2) + tol, side="right"))
        iy0 = int(np.searchsorted(centers, min(y1, y2) - tol, side="left"))
        iy1 = int(np.searchsorted(centers, max(y1, y2) + tol, side="right"))
        if ix1 <= ix0 or iy1 <= iy0:
            continue
        cx = centers[ix0:ix1][:, None]
        cy = centers[iy0:iy1][None, :]
        cross = (x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1)
        inside[ix0:ix1, iy0:iy1] |= np.abs(cross) / elen <= tol
    return FovMask(spec, inside)


def _even_odd_reference(rows, px, py, locate, poly) -> np.ndarray:
    """The former classical._even_odd, kept as its oracle: three searches per
    (edge, row) pair (the crossing and both ends of the boundary candidate
    strip) and the parity of a cumulative count over every point."""
    x1, y1 = np.asarray(poly, dtype=np.float64).T
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    ex, ey = x2 - x1, y2 - y1
    elen = np.hypot(ex, ey)
    tol = _BOUNDARY_TOL
    xlo, xhi = np.minimum(x1, x2) - tol, np.maximum(x1, x2) + tol
    ylo, yhi = np.minimum(y1, y2), np.maximum(y1, y2)
    live = elen != 0.0
    e, r = flat_ranges(np.searchsorted(rows, ylo - tol, side="left") * live,
                       np.searchsorted(rows, yhi + tol, side="right") * live)
    y = rows[r]
    with np.errstate(divide="ignore", invalid="ignore"):
        x_at = x1[e] + (y - y1[e]) * ex[e] / ey[e]
        half = ((tol + classical._STRIP_PAD) * elen / np.abs(ey))[e]
        strip_lo, strip_hi = np.fmax(x_at - half, xlo[e]), np.fmin(x_at + half, xhi[e])
    crosses = (ylo[e] <= y) & (y < yhi[e])
    before = locate(r[crosses], x_at[crosses], "left")
    inside = (np.cumsum(np.bincount(before, minlength=px.size + 1))[:-1] & 1).astype(bool)
    pair, c = flat_ranges(locate(r, strip_lo, "left"), locate(r, strip_hi, "right"))
    ce = e[pair]
    cross = ex[ce] * (py[c] - y1[ce]) - ey[ce] * (px[c] - x1[ce])
    inside[c[(np.abs(cross) / elen[ce] <= tol) & (px[c] >= xlo[ce]) & (px[c] <= xhi[ce])
             & (py[c] >= ylo[ce] - tol) & (py[c] <= yhi[ce] + tol)]] = True
    return inside


def _assert_core_matches_reference(points: np.ndarray, verts: np.ndarray,
                                   spec: GridSpec | None = None) -> None:
    """classical._even_odd equals _even_odd_reference through points_in_polygon
    and, given a grid, through the rasterizer's own locator."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classical, "_even_odd", _even_odd_gathered)
        want = points_in_polygon(points, verts)
    np.testing.assert_array_equal(points_in_polygon(points, verts), want)
    if spec is not None:
        np.testing.assert_array_equal(classical._even_odd(*classical._grid_rows(spec), verts),
                                      _even_odd_gathered(*classical._grid_rows(spec), verts))


def _even_odd_gathered(rows, n, x_of, y_of, locate, poly) -> np.ndarray:
    """_even_odd_reference called as classical._even_odd is: on the x and y
    of all n points, gathered in order."""
    i = np.arange(n)
    return _even_odd_reference(rows, x_of(i), y_of(i), locate, poly)


def _to_polar_reference(points_xy: np.ndarray) -> np.ndarray:
    """geometry.to_polar as it was, one (N, 2) array of (azimuth, range)."""
    pts = np.asarray(points_xy, dtype=np.float64).reshape(-1, 2)
    r = np.hypot(pts[:, 0], pts[:, 1])
    keep = r > 0.0
    pts, r = pts[keep], r[keep]
    az = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    az[az >= 2.0 * np.pi] = 0.0
    return np.column_stack([az, r])


def _raytrace_quantized_reference(points_xy: np.ndarray, n_bins: int) -> np.ndarray:
    """The former raytrace_quantized body, on the stacked polar columns."""
    polar = _to_polar_reference(points_xy)
    ranges = np.zeros(n_bins)
    if polar.shape[0]:
        bins = np.minimum((polar[:, 0] / (2.0 * np.pi) * n_bins).astype(np.int64), n_bins - 1)
        np.maximum.at(ranges, bins, polar[:, 1])
    return ranges


def _raytrace_continuous_reference(points_xy: np.ndarray) -> np.ndarray:
    """The former raytrace_continuous body, on the stacked polar columns."""
    polar = _to_polar_reference(points_xy)
    order = np.lexsort((-polar[:, 1], polar[:, 0]))
    polar = polar[order]
    new_group = np.empty(polar.shape[0], dtype=bool)
    new_group[0] = True
    new_group[1:] = np.diff(polar[:, 0]) > 1e-9
    polar = polar[new_group]
    az, r = polar[:, 0], polar[:, 1]
    return np.column_stack([r * np.cos(az), r * np.sin(az)])


def test_fovpolygon_validation():
    # the last triangle is finite, but its edge arithmetic overflows: on GridSpec(10, 8)
    # it rasterized to 64 cells where the true answer is 32
    for bad in ([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, np.inf]],
                [[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]],
                [[-1e308, -9.0], [1e308, 9.0], [-5.0, 9.0]]):
        with pytest.raises(ValueError):
            FovPolygon(np.array(bad))
    FovPolygon(np.array([[-1e150, -9.0], [1e150, 9.0], [-5.0, 9.0]]))  # the bound is inclusive


def test_rayq_single_point():
    ranges = raytrace_quantized(np.array([[5.0, 0.0]]), 360)
    assert ranges.shape == (360,) and ranges.dtype == np.float64
    assert ranges[0] == 5.0
    assert ranges[1:].sum() == 0.0


def test_rayq_max_rule():
    pts = np.array([[3.0, 0.0], [7.0, 0.0]])
    assert raytrace_quantized(pts, 360)[0] == 7.0


def test_rayq_requires_enough_bins():
    with pytest.raises(ValueError):
        raytrace_quantized(np.array([[1.0, 0.0]]), 4)


def test_rayq_iou_against_oracle(sample_scene, noiseless_lidar, sample_points):
    grid = GridSpec(extent=75.0, resolution=256)
    gt = ground_truth_fov(sample_scene, noiseless_lidar, grid)
    mask = polar_to_mask(raytrace_quantized(sample_points, noiseless_lidar.n_beams), grid)
    assert iou(mask, gt) >= 0.9


def test_rayq_monotone_in_points(sample_points):
    rng = np.random.default_rng(0)
    ranges = raytrace_quantized(sample_points, 360)
    extra = rng.uniform(-75, 75, (50, 2))
    ranges2 = raytrace_quantized(np.vstack([sample_points, extra]), 360)
    assert np.all(ranges2 >= ranges)


def test_rayq_points_inside_estimated_fov(sample_points):
    """Every input point lies inside or on the estimated FOV: its range never
    exceeds the range of its own azimuth bin (exact, in polar space)."""
    from fovlab.geometry import to_polar

    for n_bins in (36, 360, 720):
        ranges = raytrace_quantized(sample_points, n_bins)
        az, r = to_polar(sample_points)
        bins = np.minimum((az / (2 * np.pi) * n_bins).astype(int), n_bins - 1)
        assert np.all(r <= ranges[bins])


def test_rayc_diamond():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    poly = raytrace_continuous(pts)
    assert poly.vertices.shape == (4, 2)
    assert abs(_area(poly) - 2.0) < 1e-12


def test_rayc_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        raytrace_continuous(np.array([[1.0, 0.0], [0.0, 1.0]]))
    # 3 points but only 2 distinct azimuths
    with pytest.raises(ValueError, match="degenerate"):
        raytrace_continuous(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


def test_rayc_duplicate_azimuth_keeps_max_range():
    pts = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    poly = raytrace_continuous(pts)
    assert poly.vertices.shape[0] == 3
    assert [3.0, 0.0] in poly.vertices.tolist()
    assert [1.0, 0.0] not in poly.vertices.tolist()


def test_rayc_matches_shoelace_oracle():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-20, 20, (50, 2))
    poly = raytrace_continuous(pts)
    # independent oracle: azimuth-sort, max-per-azimuth, scalar shoelace loop
    az = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2 * np.pi)
    r = np.hypot(pts[:, 0], pts[:, 1])
    best = {}
    for a, radius, p in zip(az, r, pts):
        if a not in best or radius > best[a][0]:
            best[a] = (radius, p)
    ordered = [best[a][1] for a in sorted(best)]
    area = 0.0
    for i, p in enumerate(ordered):
        q = ordered[(i + 1) % len(ordered)]
        area += p[0] * q[1] - q[0] * p[1]
    assert abs(_area(poly) - abs(area) / 2.0) < 1e-9


def test_concave_hull_unit_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    poly = concave_hull(pts, 3)
    assert sorted(map(tuple, poly.vertices)) == sorted(map(tuple, pts))


def test_concave_hull_collinear_errors():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="collinear"):
        concave_hull(pts, 3)


def test_concave_hull_k_validation():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        concave_hull(pts, 2)


def test_concave_hull_equals_convex_hull_at_large_k():
    rng = np.random.default_rng(11)
    for trial in range(10):
        pts = rng.standard_normal((40, 2)) * 10.0
        got = set(map(tuple, concave_hull(pts, len(pts) - 1).vertices))
        want = set(map(tuple, pts[ConvexHull(pts).vertices]))
        assert got == want, f"trial {trial}"


def test_concave_hull_contains_all_points():
    rng = np.random.default_rng(13)
    for trial in range(200):
        n = int(rng.integers(10, 60))
        pts = rng.uniform(-10, 10, (n, 2))
        poly = concave_hull(pts, 8)
        assert points_in_polygon(pts, poly.vertices).all(), f"trial {trial}"


def _proper_crossings(poly: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j) of non-adjacent edges i -> i+1 and j -> j+1 that cross."""
    a, b = poly, np.roll(poly, -1, axis=0)

    def orient(p, q, r):  # sign of (q - p) x (r - p), over all (i, j) pairs
        return np.sign((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
                       - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))

    ai, bi, aj, bj = a[:, None], b[:, None], a[None, :], b[None, :]
    cross = (orient(ai, bi, aj) * orient(ai, bi, bj) < 0) \
        & (orient(aj, bj, ai) * orient(aj, bj, bi) < 0)
    i, j = np.nonzero(np.triu(cross, 2))
    v = len(poly)
    return [(int(p), int(q)) for p, q in zip(i, j) if (q + 1) % v != p]


@settings(max_examples=60, **PROPERTY)
@given(n=st.integers(3, 40), k=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["square", "ring", "lattice"]))
def test_concave_hull_simple_and_contains_points_property(n, k, seed, layout):
    """The hull of a small cloud is a simple polygon holding every input point."""
    rng = np.random.default_rng(seed)
    if layout == "square":
        pts = rng.uniform(-10, 10, (n, 2))
    elif layout == "ring":
        theta = rng.uniform(0.25 * np.pi, 1.75 * np.pi, n)
        pts = rng.uniform(8, 10, (n, 1)) * np.column_stack([np.cos(theta), np.sin(theta)])
    else:  # collinear runs and repeated points
        pts = rng.integers(-3, 4, (n, 2)).astype(float)
    try:
        poly = concave_hull(pts, k)
    except ValueError:  # fewer than 3 distinct points, or all collinear
        return
    assert _proper_crossings(poly.vertices) == []
    assert points_in_polygon(pts, poly.vertices).all()


def _crosses_any(p1, p2, a: np.ndarray, b: np.ndarray) -> bool:
    """Does segment p1->p2 properly intersect any of the segments a[i]->b[i]?

    Shared endpoints and collinear touching do not count (strict test).
    """
    t1 = (p1[0] - p2[0]) * (a[:, 1] - p1[1]) + (p1[1] - p2[1]) * (p1[0] - a[:, 0])
    t2 = (p1[0] - p2[0]) * (b[:, 1] - p1[1]) + (p1[1] - p2[1]) * (p1[0] - b[:, 0])
    t3 = (a[:, 0] - b[:, 0]) * (p1[1] - a[:, 1]) + (a[:, 1] - b[:, 1]) * (a[:, 0] - p1[0])
    t4 = (a[:, 0] - b[:, 0]) * (p2[1] - a[:, 1]) + (a[:, 1] - b[:, 1]) * (a[:, 0] - p2[0])
    return bool(np.any((t1 * t2 < 0) & (t3 * t4 < 0)))


def _try_hull_reference(pts: np.ndarray, kk: int) -> np.ndarray | None:
    """The former boundary walk, kept as the oracle of classical._try_hull: it
    tests each trial edge against the boundary when the trial comes up."""
    n = pts.shape[0]
    first = int(np.lexsort((pts[:, 0], pts[:, 1]))[0])  # lowest y, then lowest x
    used = np.zeros(n, dtype=bool)
    used[first] = True
    hull = np.empty((n + 1, 2))
    hull[0] = pts[first]
    hull_idx = [first]
    budget = 12 * n  # cap on candidate trials before giving up on this kk

    def candidates(current: int, prev_angle: float, m: int) -> np.ndarray:
        avail = np.nonzero(~used)[0]
        if m >= 4 and used[first]:
            avail = np.append(avail, first)  # closing the loop becomes legal
        if avail.size == 0:
            return avail
        d2 = np.sum((pts[avail] - pts[current]) ** 2, axis=1)
        avail = avail[np.argsort(d2, kind="stable")[:kk]]
        v = pts[avail] - pts[current]
        turn = np.mod(np.arctan2(v[:, 1], -v[:, 0]) - prev_angle, 2.0 * np.pi)
        return avail[np.argsort(-turn, kind="stable")]

    stack = [candidates(first, 0.0, 1)]
    pos = [0]
    trials = 0
    while stack:
        m = len(hull_idx)
        cand_list = stack[-1]
        moved = False
        while pos[-1] < len(cand_list):
            idx = int(cand_list[pos[-1]])
            pos[-1] += 1
            trials += 1
            if trials > budget:
                return None
            # the most recent edge (shared endpoint) is skipped; so is the
            # very first edge when closing back onto the start vertex
            lo = 1 if idx == first else 0
            hi = m - 2
            if hi > lo and _crosses_any(pts[hull_idx[-1]], pts[idx],
                                        hull[lo:hi], hull[lo + 1:hi + 1]):
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
            pos.append(0)
            moved = True
            break
        if not moved:
            stack.pop()
            pos.pop()
            v = hull_idx.pop()
            if v != first:
                used[v] = False
            if not hull_idx:
                return None
    return None


def _frame_points(family: str, seed: int, cap: int | None = None) -> np.ndarray:
    """A synthesized frame's filtered BEV points, thinned in scan order to at
    most `cap` as the benchmark thins them."""
    lidar = default_lidar(family)
    cloud = simulate_lidar(generate_scene(SceneFamily.preset(family), seed), lidar, seed)
    pts = filter_points(project_to_bev(cloud), FilterSpec(max_range=lidar.max_range))[:, :2]
    return pts if cap is None else pts[::max(1, -(-pts.shape[0] // cap))]


@pytest.mark.parametrize("cap", (48, 96))
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_concave_hull_matches_reference_walk(monkeypatch, family, cap):
    """Seeds 0-9 at k 3, 8 and 16: the batched crossing tests give the very
    vertices of the walk that tests each trial edge on its own."""
    clouds = [_frame_points(family, seed, cap) for seed in range(10)]
    got = [concave_hull(pts, k).vertices for pts in clouds for k in (3, 8, 16)]
    monkeypatch.setattr(classical, "_try_hull", _try_hull_reference)
    want = [concave_hull(pts, k).vertices for pts in clouds for k in (3, 8, 16)]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_try_hull_matches_reference_on_small_clouds():
    """Clouds of 4-12 points, with lattice ties and collinear runs, at every kk."""
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(4, 13))
        pts = rng.integers(-3, 4, (n, 2)).astype(float) if trial % 2 else rng.uniform(-5, 5, (n, 2))
        pts = np.unique(pts, axis=0)
        for kk in range(3, pts.shape[0]):
            got, want = classical._try_hull(pts, kk), _try_hull_reference(pts, kk)
            assert (got is None) == (want is None), (trial, kk)
            if got is not None:
                assert got.tobytes() == want.tobytes(), (trial, kk)


def test_sorted_unique_matches_np_unique():
    """Rows and 1-d values drawn from few values, -0.0 and NaN among them:
    the same entries in the same order as np.unique, the same one of each
    tie kept (by its bytes)."""
    rng = np.random.default_rng(23)
    values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan])
    row = [("f0", np.float64), ("f1", np.float64)]
    for trial in range(400):
        n = int(rng.integers(0, 120))
        pts = rng.choice(values[:5] if trial % 2 else values, size=(n, 2))
        want = np.unique(pts, axis=0)
        got = classical._sorted_unique(pts.view(row).ravel()).view(np.float64).reshape(-1, 2)
        assert got.tobytes() == want.tobytes(), trial
        col = pts[:, 0]
        assert classical._sorted_unique(col).tobytes() == np.unique(col).tobytes(), trial


def test_concave_hull_dedupes_as_np_unique(monkeypatch):
    """Every walk receives np.unique's rows of a cloud with repeated points
    and signed zeros."""
    rng = np.random.default_rng(29)
    pts = rng.integers(-4, 5, (60, 2)).astype(float)
    pts[::3] *= -1.0  # -0.0 beside 0.0
    seen = []
    monkeypatch.setattr(classical, "_try_hull",
                        lambda q, kk: seen.append(q.copy()) or _try_hull_reference(q, kk))
    concave_hull(pts, 5)
    assert seen and all(q.tobytes() == np.unique(pts, axis=0).tobytes() for q in seen)


def test_concave_hull_tighter_than_convex():
    # C-shaped cloud: concave hull with small k has less area than convex hull
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.25 * np.pi, 1.75 * np.pi, 300)
    radius = rng.uniform(8.0, 10.0, 300)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    tight = concave_hull(pts, 6)
    loose_area = _area(FovPolygon(pts[ConvexHull(pts).vertices]))
    assert _area(tight) < 0.9 * loose_area


def test_rasterize_full_extent_square():
    spec = GridSpec(extent=10.0, resolution=16)
    square = FovPolygon(np.array([[-10.0, -10.0], [10.0, -10.0], [10.0, 10.0], [-10.0, 10.0]]))
    assert rasterize_polygon(square, spec).mask.all()


def test_rasterize_outside_extent():
    spec = GridSpec(extent=10.0, resolution=16)
    poly = FovPolygon(np.array([[20.0, 20.0], [30.0, 20.0], [25.0, 30.0]]))
    assert not rasterize_polygon(poly, spec).mask.any()


def test_rasterize_boundary_center_visible():
    spec = GridSpec(extent=8.0, resolution=16)  # centers at +-0.5, +-1.5, ...
    # polygon edge passes exactly through centers at y = 0.5
    poly = FovPolygon(np.array([[-4.5, 0.5], [4.5, 0.5], [4.5, 4.5], [-4.5, 4.5]]))
    mask = rasterize_polygon(poly, spec)
    X, Y = cell_centers(spec)
    on_edge = (np.abs(Y - 0.5) < 1e-12) & (np.abs(X) <= 4.5)
    assert mask.mask[on_edge].all()


@st.composite
def _polygon_cases(draw):
    """A grid of res 8-64 and a polygon of 3-40 vertices on it, with repeated
    vertices, horizontal and near-horizontal edges, vertices on cell centers
    or just off them in x (edges then pass at the rim of the widened strip)
    and spikes far past the grid."""
    spec = GridSpec(extent=draw(st.sampled_from([1.0, 10.0, 75.0])),
                    resolution=draw(st.integers(8, 64)))
    e = spec.extent
    free = st.floats(-1.2 * e, 1.2 * e, allow_nan=False)
    center = st.sampled_from(spec.cell_centers_1d().tolist())
    tiny = st.sampled_from([1e-15, -1e-12, 5e-10, -1e-9, 2e-9, 1e-6]).map(lambda d: d * e)
    nudge = st.sampled_from([1e-10, 5e-10, 1e-9, 2e-9, 1e-6]).map(lambda d: d * e)
    verts = [draw(st.tuples(free, free))]
    for _ in range(draw(st.integers(2, 39))):
        px, py = verts[-1]
        kind = draw(st.sampled_from(["free", "center", "off-center", "spike", "repeat", "flat",
                                     "near-flat"]))
        if kind == "free":
            verts.append(draw(st.tuples(free, free)))
        elif kind == "center":
            verts.append(draw(st.tuples(center, center)))
        elif kind == "off-center":
            verts.append((draw(center) + draw(st.sampled_from([-1.0, 1.0])) * draw(nudge),
                          draw(center)))
        elif kind == "spike":
            verts.append(draw(st.tuples(st.sampled_from([-40 * e, 40 * e]), free)))
        elif kind == "repeat":
            verts.append((px, py))
        elif kind == "flat":
            verts.append((draw(st.one_of(free, center)), py))
        else:
            verts.append((draw(free), py + draw(tiny)))
    return spec, np.array(verts)


@settings(max_examples=150, **PROPERTY)
@given(case=_polygon_cases(), seed=st.integers(0, 2**32 - 1))
def test_polygon_kernel_matches_references_property(case, seed):
    """rasterize_polygon equals the former scanline fill, which equals the
    former points_in_polygon on the cell centers, and equals points_in_polygon
    on the cell centers, so the grid locator agrees with the complex-key one;
    points_in_polygon equals its former loop on random points, on points on
    edges and on points that share a vertex's y; on all of them the even-odd
    core equals its former version."""
    spec, verts = case
    poly = FovPolygon(verts)
    X, Y = cell_centers(spec)
    centers = np.column_stack([X.ravel(), Y.ravel()])
    want = _rasterize_polygon_reference(poly, spec).mask
    np.testing.assert_array_equal(
        want, _points_in_polygon_reference(centers, verts).reshape(X.shape))
    np.testing.assert_array_equal(rasterize_polygon(poly, spec).mask, want)
    np.testing.assert_array_equal(points_in_polygon(centers, verts).reshape(X.shape), want)

    rng = np.random.default_rng(seed)
    e = spec.extent
    ends = np.roll(verts, -1, axis=0)
    t = rng.uniform(0.0, 1.0, (len(verts), 1))
    points = np.vstack([
        rng.uniform(-1.5 * e, 1.5 * e, (200, 2)),
        verts, verts + t * (ends - verts),
        np.column_stack([rng.uniform(-1.5 * e, 1.5 * e, len(verts)), verts[:, 1]]),
    ])
    np.testing.assert_array_equal(points_in_polygon(points, verts),
                                  _points_in_polygon_reference(points, verts))
    _assert_core_matches_reference(centers, verts, spec)
    _assert_core_matches_reference(points, verts)


def test_rasterize_matches_reference_on_rayc_polygons():
    """Cell for cell on the continuous ray trace of benign and spoofed frames."""
    filt = FilterSpec(max_range=75.0)
    for name in FAMILY_NAMES:
        scene = generate_scene(SceneFamily.preset(name), 1)
        cloud = simulate_lidar(scene, default_lidar(name), 1)
        for n_spoof in (0, 150):
            pts = filter_points(project_to_bev(
                spoof(cloud, AttackSpec(n_points=n_spoof, budget=150, seed=2))), filt)[:, :2]
            poly = raytrace_continuous(pts)
            for res in (64, 129, 256):
                spec = GridSpec(extent=75.0, resolution=res)
                np.testing.assert_array_equal(rasterize_polygon(poly, spec).mask,
                                              _rasterize_polygon_reference(poly, spec).mask,
                                              err_msg=f"{name} {n_spoof} {res}")


def _benchmark_frames():
    """The filtered points of res-256 frames of every family, seeds 0-3, as
    synthesized and with 150 uniformly spoofed points, with their grids."""
    for name in FAMILY_NAMES:
        lidar, grid = default_lidar(name), default_grid(name, 256)
        filt = FilterSpec(max_range=lidar.max_range)
        for seed in range(4):
            cloud = simulate_lidar(generate_scene(SceneFamily.preset(name), seed), lidar, seed)
            for n_spoof in (0, 150):
                atk = AttackSpec(kind="uniform", n_points=n_spoof, budget=150,
                                 bounds=grid.extent, seed=seed)
                yield (f"{name} {seed} {n_spoof}", grid,
                       filter_points(project_to_bev(spoof(cloud, atk)), filt)[:, :2])


def test_even_odd_matches_reference_on_benchmark_frames():
    """The core equals its former version on the rayc polygon of each frame,
    on the grid and on the frame's own points."""
    for label, grid, pts in _benchmark_frames():
        poly = raytrace_continuous(pts).vertices
        np.testing.assert_array_equal(classical._even_odd(*classical._grid_rows(grid), poly),
                                      _even_odd_gathered(*classical._grid_rows(grid), poly),
                                      err_msg=label)
        _assert_core_matches_reference(pts, poly)


def test_raytraces_match_references_on_spoofed_frames():
    """Equal bytes to the former bodies on spoofed frames with points added at
    the origin (of either sign), with y = -0.0, and on the azimuth of another
    point (half its range, and the same point again)."""
    extra = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [3.0, -0.0], [-4.0, -0.0],
                      [-0.0, 5.0], [0.0, -6.0]])
    for label, _grid, pts in _benchmark_frames():
        pts = np.vstack([pts, extra, pts[::7] * 0.5, pts[::11]])
        for n_bins in (MIN_BINS, 360, 1000):
            assert raytrace_quantized(pts, n_bins).tobytes() \
                == _raytrace_quantized_reference(pts, n_bins).tobytes(), (label, n_bins)
        assert raytrace_continuous(pts).vertices.tobytes() \
            == _raytrace_continuous_reference(pts).tobytes(), label


def test_rasterize_never_calls_points_in_polygon(monkeypatch):
    """The rasterizer reaches the even-odd core directly, so a wrapper on
    points_in_polygon (the benchmark's counter) sees only concave closures."""
    spec = GridSpec(extent=10.0, resolution=32)
    poly = FovPolygon(np.array([[-9.0, -7.0], [8.0, -2.0], [1.0, 0.5], [3.0, 9.0]]))
    want = rasterize_polygon(poly, spec).mask

    def refuse(*_args):
        raise AssertionError("rasterize_polygon called points_in_polygon")

    monkeypatch.setattr(classical, "points_in_polygon", refuse)
    np.testing.assert_array_equal(rasterize_polygon(poly, spec).mask, want)


def test_per_spec_caches_are_read_only():
    """The cached center arrays are shared by every later call for the spec."""
    spec = GridSpec(extent=16.0, resolution=32)
    polar_to_mask(np.full(16, 10.0), spec)
    rasterize_polygon(FovPolygon(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])), spec)
    for a in (*classical._center_polar(spec, 16), classical._grid_rows(spec)[0]):
        with pytest.raises(ValueError):
            a[0] = 1


def _held_arrays(cached) -> list:
    """The distinct arrays a cache entry holds: its own, and those its
    functions close over."""
    found = {}
    for item in cached:
        for a in [item] + [c.cell_contents for c in getattr(item, "__closure__", None) or ()]:
            if isinstance(a, np.ndarray):
                found[id(a)] = a
    return list(found.values())


def test_per_grid_caches_stay_within_budget():
    """On a res-256, extent-75 grid: the oracle's cells and offset table take
    at most 512 KiB, the rasterizer's rows only the axis, and the polar
    centres their ranges and bins; no array is a res**2-element copy of the
    axis's coordinates."""
    spec = GridSpec(extent=75.0, resolution=256)
    res, axis = spec.resolution, spec.cell_centers_1d()
    caches = {
        "_cells_by_sector": (_cells_by_sector(spec, 75.0, np.zeros(2).tobytes()), 512 * 1024),
        "_grid_rows": (classical._grid_rows(spec), res * 8),
        "_center_polar": (classical._center_polar(spec, 360), 2 * res * res * 8),
    }
    copies = [np.tile(axis, res), np.repeat(axis, res)]
    for name, (cached, budget) in caches.items():
        held = _held_arrays(cached)
        assert held and sum(a.nbytes for a in held) <= budget, name
        for a in held:
            assert not (a.size == res * res and a.dtype.kind == "f"
                        and any(np.array_equal(a.ravel(order=o), c) for c in copies for o in "CF")), name


def test_rasterize_area_close_to_shoelace():
    rng = np.random.default_rng(19)
    spec = GridSpec(extent=10.0, resolution=128)
    for trial in range(5):
        pts = rng.uniform(-8, 8, (30, 2))
        poly = FovPolygon(pts[ConvexHull(pts).vertices])
        mask = rasterize_polygon(poly, spec)
        cell_area = spec.cell_size ** 2
        raster_area = mask.mask.sum() * cell_area
        perimeter = np.sum(np.hypot(*(np.roll(poly.vertices, -1, 0) - poly.vertices).T))
        tol = perimeter * spec.cell_size
        assert abs(raster_area - _area(poly)) <= tol


def test_polar_to_mask_disk():
    spec = GridSpec(extent=16.0, resolution=32)
    mask = polar_to_mask(np.full(16, 10.0), spec)
    X, Y = cell_centers(spec)
    np.testing.assert_array_equal(mask.mask, np.hypot(X, Y) <= 10.0)


def test_polar_to_mask_all_zero():
    spec = GridSpec(extent=16.0, resolution=32)
    assert not polar_to_mask(np.zeros(16), spec).mask.any()


def test_polar_to_mask_matches_per_cell_oracle():
    rng = np.random.default_rng(23)
    spec = GridSpec(extent=16.0, resolution=32)
    ranges = rng.uniform(0, 20, 24)
    mask = polar_to_mask(ranges, spec)
    X, Y = cell_centers(spec)
    for ix in range(32):
        for iy in range(32):
            az = np.arctan2(Y[ix, iy], X[ix, iy]) % (2 * np.pi)
            b = min(int(az / (2 * np.pi) * 24), 23)
            want = np.hypot(X[ix, iy], Y[ix, iy]) <= ranges[b]
            assert mask.mask[ix, iy] == want


def test_polar_to_mask_bins_per_spec_and_bin_count():
    """Equal to the uncached binning for every (spec, n_bins) pair, with the
    calls interleaved so that bins cached for one pair cannot serve another."""
    rng = np.random.default_rng(31)
    specs = (GridSpec(extent=16.0, resolution=32), GridSpec(extent=75.0, resolution=48))
    for n in (MIN_BINS, 360, 361, MIN_BINS):
        for spec in specs:
            ranges = rng.uniform(0, 1.2 * spec.extent, n)
            X, Y = cell_centers(spec)
            az = np.mod(np.arctan2(Y, X), 2 * np.pi)
            az[az >= 2 * np.pi] = 0.0
            bins = np.minimum((az / (2 * np.pi) * n).astype(np.int64), n - 1)
            np.testing.assert_array_equal(polar_to_mask(ranges, spec).mask,
                                          np.hypot(X, Y) <= ranges[bins], err_msg=f"{spec} {n}")


@settings(max_examples=60, **PROPERTY)
@given(res=st.sampled_from((8, 9, 64, 255)), n_bins=st.sampled_from((8, 360, 720)),
       extent=st.floats(1.0, 100.0), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_rayq_marks_every_cell_whose_center_is_a_point(res, n_bins, extent, share, seed):
    """Cell centers taken as the points are visible in the mask they trace,
    which holds only if points and cell centers fall into bins by one rule."""
    spec = GridSpec(extent=extent, resolution=res)
    X, Y = cell_centers(spec)
    chosen = np.random.default_rng(seed).random(X.shape) < share
    mask = polar_to_mask(raytrace_quantized(np.column_stack([X[chosen], Y[chosen]]), n_bins), spec)
    assert mask.mask[chosen].all()


def test_classical_mask_grows_under_spoofing(sample_points):
    """Injected points can only grow the quantized ray-trace mask."""
    rng = np.random.default_rng(29)
    grid = GridSpec(extent=75.0, resolution=128)
    mask = polar_to_mask(raytrace_quantized(sample_points, 360), grid).mask
    pts = sample_points
    for n in (25, 50, 100, 150):
        extra = rng.uniform(-75, 75, (n, 2))
        bigger = polar_to_mask(raytrace_quantized(np.vstack([pts, extra]), 360), grid).mask
        assert np.all(bigger | ~mask), "mask shrank under injection"
        assert np.all(bigger >= mask)
        pts = np.vstack([pts, extra])
        mask = bigger
