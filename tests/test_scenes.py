import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from fovlab.geometry import flat_ranges, project_to_bev, quantize
import fovlab.scenes as scenes_module
from fovlab.scenes import (_BATCH_PAIRS, _FAR_CUT, _MIN_RANGE, _NEAR_CUT, _WEDGE_MARGIN,
                           FAMILY_NAMES, LidarModel, Scene, SceneFamily, _cells_by_sector,
                           _cull_radii, _qhull_order, _segments_blocked, _wedge_bounds,
                           default_grid, default_lidar, generate_scene, ground_truth_fov,
                           point_in_convex, simulate_lidar)
from fovlab.types import FovMask, GridSpec, PointCloud, Pose, seeded_rng

from conftest import wall_quad

# fixed examples: the property tests stay deterministic and write no example database
PROPERTY = dict(deadline=None, derandomize=True, database=None)


def _ground_truth_fov_reference(scene: Scene, model: LidarModel, spec: GridSpec) -> FovMask:
    """The oracle without culling: every in-range cell against every edge."""
    origin = scene.sensor.position[:2]
    X, Y = spec.cell_centers()
    cx = (origin[0] + X).ravel()
    cy = (origin[1] + Y).ravel()
    targets = np.column_stack([cx, cy])
    visible = np.hypot(X.ravel(), Y.ravel()) <= model.max_range

    edges = scene.edges()
    for k in range(edges.shape[0]):
        active = np.nonzero(visible)[0]
        if active.size == 0:
            break
        blocked = _segments_blocked(origin, targets[active], edges[k, 0], edges[k, 1])
        visible[active[blocked]] = False
    res = spec.resolution
    return FovMask(spec, visible.reshape(res, res))


def _edges_reference(scene: Scene) -> np.ndarray:
    """The former per-obstacle build of Scene.edges, kept as its oracle."""
    if not scene.obstacles:
        return np.zeros((0, 2, 2))
    return np.concatenate([np.stack([p, np.roll(p, -1, axis=0)], axis=1) for p in scene.obstacles])


def _simulate_lidar_reference(scene: Scene, model: LidarModel, seed: int) -> PointCloud:
    """The former dense simulate_lidar, kept as its oracle: every beam against
    every edge, in (beams x edges) arrays."""
    rng = seeded_rng(seed)
    n = model.n_beams
    phi = 2.0 * np.pi * np.arange(n) / n
    noise = rng.normal(0.0, model.range_noise_sigma, n) if model.range_noise_sigma > 0 else np.zeros(n)
    dropped = rng.uniform(size=n) < model.dropout_prob if model.dropout_prob > 0 else np.zeros(n, bool)

    R = scene.sensor.rotation_matrix()
    dirs3 = np.column_stack([np.cos(phi), np.sin(phi), np.zeros(n)]) @ R.T
    d = dirs3[:, :2]
    norms = np.linalg.norm(d, axis=1)
    ok = norms > 1e-12
    d[ok] = d[ok] / norms[ok, None]

    origin = scene.sensor.position[:2]
    edges = _edges_reference(scene)
    t_min = np.full(n, np.inf)
    if edges.shape[0]:
        p = edges[:, 0]            # (E, 2)
        e = edges[:, 1] - edges[:, 0]
        po = p - origin            # (E, 2)
        denom = d[:, 0, None] * e[None, :, 1] - d[:, 1, None] * e[None, :, 0]  # (B, E)
        cross_po_e = po[:, 0] * e[:, 1] - po[:, 1] * e[:, 0]                   # (E,)
        cross_po_d = po[None, :, 0] * d[:, 1, None] - po[None, :, 1] * d[:, 0, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross_po_e[None, :] / denom
            s = cross_po_d / denom
        valid = (np.abs(denom) > 1e-15) & (t > 1e-9) & (s >= 0.0) & (s <= 1.0)
        t = np.where(valid, t, np.inf)
        t_min = t.min(axis=1)

    hit = ok & ~dropped & (t_min <= model.max_range)
    ranges = np.maximum(t_min[hit] + noise[hit], _MIN_RANGE)
    world = origin + ranges[:, None] * d[hit]
    world3 = np.column_stack([world, np.zeros(world.shape[0])])
    sensor_pts = (world3 - scene.sensor.position) @ R
    return PointCloud(sensor_pts, scene.sensor)


def _is_convex_ccw(poly: np.ndarray, tol: float = 1e-12) -> bool:
    a = poly
    b = np.roll(poly, -1, axis=0)
    c = np.roll(poly, -2, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    return bool(np.all(cross > -tol) and np.any(cross > tol))


def _point_in_convex_reference(poly: np.ndarray, point) -> bool:
    p = np.asarray(point, dtype=np.float64)
    a = poly
    b = np.roll(poly, -1, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
    return bool(np.all(cross >= 0.0))


def _validate_reference(obstacles: list, sensor: Pose) -> list:
    """The former per-polygon checks of Scene.__post_init__, kept as their
    oracle: the converted polygons, or the first fault in polygon order."""
    polys = []
    for poly in obstacles:
        p = np.asarray(poly, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
            raise ValueError("each obstacle needs >= 3 (x, y) vertices")
        if not _is_convex_ccw(p):
            raise ValueError("obstacles must be convex with CCW vertex order")
        polys.append(p)
    sensor_xy = sensor.position[:2]
    for p in polys:
        if _point_in_convex_reference(p, sensor_xy):
            raise ValueError("sensor position lies inside an obstacle")
    return polys


def assert_matches_reference(scene: Scene, model: LidarModel, spec: GridSpec) -> np.ndarray:
    expected = _ground_truth_fov_reference(scene, model, spec).mask
    np.testing.assert_array_equal(ground_truth_fov(scene, model, spec).mask, expected)
    return expected


def translated(scene: Scene, offset) -> Scene:
    """The same scene moved by `offset`: a sensor off the world origin."""
    position = scene.sensor.position + np.array([offset[0], offset[1], 0.0])
    return Scene(obstacles=[p + np.asarray(offset) for p in scene.obstacles],
                 sensor=Pose(position, scene.sensor.quaternion), bounds=scene.bounds)


OPEN_LIDAR = LidarModel(n_beams=64, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)


def room_family(**overrides) -> SceneFamily:
    """Obstacle-free regular room: deterministic geometry for oracle tests."""
    base = dict(name="indoor", n_obstacles=(0, 0), obstacle_size=(0.5, 1.0),
                bounds=12.0, placement=(2.0, 6.0), enclosure_radius=(10.0, 10.0),
                enclosure_vertices=(16, 16), enclosure_jitter=0.0,
                wall_thickness=0.4, n_clutter=(0, 0), random_yaw=False)
    base.update(overrides)
    return SceneFamily(**base)


def test_scene_validates_obstacles():
    with pytest.raises(ValueError):
        Scene(obstacles=[np.array([[0.0, 0.0], [1.0, 0.0]])])  # 2 vertices
    with pytest.raises(ValueError):
        # clockwise square
        Scene(obstacles=[np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]) + 5.0])


def test_scene_rejects_sensor_inside_obstacle():
    with pytest.raises(ValueError):
        Scene(obstacles=[np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])])


def test_lidar_model_invariants():
    with pytest.raises(ValueError):
        LidarModel(n_beams=4)
    with pytest.raises(ValueError):
        LidarModel(dropout_prob=1.0)
    with pytest.raises(ValueError):
        LidarModel(max_range=0.0)


def test_family_presets_and_validation():
    for name in ("outdoor-sparse", "outdoor-dense", "indoor"):
        fam = SceneFamily.preset(name)
        assert fam.name == name
    with pytest.raises(ValueError):
        SceneFamily.preset("lunar")
    with pytest.raises(ValueError):
        SceneFamily(name="indoor", n_obstacles=(5, 2))


def test_generate_zero_obstacle_family():
    fam = SceneFamily(name="indoor", n_obstacles=(0, 0), obstacle_size=(1.0, 2.0),
                      bounds=12.0, placement=(2.0, 6.0), enclosure_radius=None,
                      n_clutter=(0, 0))
    scene = generate_scene(fam, 0)
    assert scene.obstacles == []


def test_generate_deterministic(sparse_family):
    a = generate_scene(sparse_family, 7)
    b = generate_scene(sparse_family, 7)
    assert len(a.obstacles) == len(b.obstacles)
    for pa, pb in zip(a.obstacles, b.obstacles):
        np.testing.assert_array_equal(pa, pb)
    np.testing.assert_array_equal(a.sensor.quaternion, b.sensor.quaternion)


def test_generate_count_within_range():
    fam = SceneFamily(name="indoor", n_obstacles=(4, 10), obstacle_size=(0.5, 2.0),
                      bounds=12.0, placement=(2.0, 8.0), enclosure_radius=None,
                      n_clutter=(0, 0))
    for seed in range(100):
        scene = generate_scene(fam, seed)
        assert 4 <= len(scene.obstacles) <= 10


def test_generate_rejection_failure():
    # obstacles so large they always contain the sensor
    fam = SceneFamily(name="indoor", n_obstacles=(1, 1), obstacle_size=(80.0, 90.0),
                      bounds=12.0, placement=(0.0, 0.1), enclosure_radius=None,
                      n_clutter=(0, 0))
    with pytest.raises(ValueError, match="rejection"):
        generate_scene(fam, 0)


def test_simulate_empty_scene_gives_empty_cloud():
    scene = Scene(obstacles=[], sensor=Pose.identity(), bounds=20.0)
    cloud = simulate_lidar(scene, LidarModel(n_beams=64, max_range=10.0,
                                             range_noise_sigma=0.0, dropout_prob=0.0), 0)
    assert len(cloud) == 0


def test_simulate_wall_range_analytic():
    scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.identity(), bounds=20.0)
    model = LidarModel(n_beams=360, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)
    cloud = simulate_lidar(scene, model, 0)
    # beam at azimuth 0 hits the front face at exactly 10 m
    ranges = np.hypot(cloud.points[:, 0], cloud.points[:, 1])
    az = np.mod(np.arctan2(cloud.points[:, 1], cloud.points[:, 0]), 2 * np.pi)
    beam0 = np.argmin(np.minimum(az, 2 * np.pi - az))
    assert abs(ranges[beam0] - 10.0) < 1e-9


def test_simulate_first_hit_occlusion():
    near = wall_quad(5.0, y_half=8.0)
    far = wall_quad(10.0, y_half=8.0)
    scene = Scene(obstacles=[near, far], sensor=Pose.identity(), bounds=20.0)
    model = LidarModel(n_beams=720, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)
    cloud = simulate_lidar(scene, model, 1)
    # no return may lie on the far wall: every +x-side hit is on the near wall
    forward = cloud.points[cloud.points[:, 0] > 0]
    assert forward.shape[0] > 0
    assert forward[:, 0].max() <= 5.0 + 1e-9


def test_simulate_deterministic_per_seed(sample_scene):
    model = LidarModel(n_beams=128, max_range=75.0, range_noise_sigma=0.1, dropout_prob=0.1)
    a = simulate_lidar(sample_scene, model, 5)
    b = simulate_lidar(sample_scene, model, 5)
    np.testing.assert_array_equal(a.points, b.points)
    c = simulate_lidar(sample_scene, model, 6)
    assert c.points.shape != a.points.shape or not np.array_equal(c.points, a.points)


def test_ground_truth_empty_scene_is_range_disk():
    scene = Scene(obstacles=[], sensor=Pose.identity(), bounds=20.0)
    model = LidarModel(n_beams=64, max_range=10.0, range_noise_sigma=0.0, dropout_prob=0.0)
    spec = GridSpec(extent=16.0, resolution=32)
    mask = ground_truth_fov(scene, model, spec)
    X, Y = spec.cell_centers()
    np.testing.assert_array_equal(mask.mask, np.hypot(X, Y) <= 10.0)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@pytest.mark.parametrize("res", (64, 256))
def test_oracle_matches_reference_seeded(family, res):
    fam = SceneFamily.preset(family)
    for seed in (0, 1, 2):
        assert_matches_reference(generate_scene(fam, seed), default_lidar(family),
                                 default_grid(family, res))


def test_oracle_matches_reference_wall_across_seam():
    """The wall at x = -10 spans azimuth +-pi, so its wedge wraps around."""
    scene = Scene(obstacles=[wall_quad(-10.0)], sensor=Pose.identity(), bounds=20.0)
    mask = assert_matches_reference(scene, OPEN_LIDAR, GridSpec(extent=16.0, resolution=32))
    X, Y = GridSpec(extent=16.0, resolution=32).cell_centers()
    assert not mask[(X < -10.5) & (np.abs(Y) < 2.0)].any()
    assert mask[(X > -9.5) & (X < -0.5) & (np.abs(Y) < 2.0)].all()


@pytest.mark.parametrize("sensor_xy, quad, hidden", [
    # edge (4, 4)-(8, 8) lies on the sensor's ray through the cell centres (k + 0.5, k + 0.5)
    ((0.0, 0.0), [[4.0, 4.0], [8.0, 8.0], [7.0, 9.0], [3.0, 5.0]], (20, 20)),
    # sensor within rounding of the line of edge 0: rounding alone reports
    # cell (3, 22), on the far side of the sensor, as blocked
    ((1.694, -0.078), [[4.728281460222315, -1.655826359315604],
                       [5.61549826145691, -2.117179095957593],
                       [5.846174629777905, -1.6735706953402956],
                       [4.95895782854331, -1.2122179586983064]], (3, 22)),
    ((0.273, -1.504), [[3.8914777783428134, 0.8558768119627045],
                       [4.729088375181427, 1.4021445925096265],
                       [4.455954484907966, 1.8209498909289337],
                       [3.618343888069352, 1.2746821103820116]], (4, 8)),
])
def test_oracle_matches_reference_edge_collinear_with_sensor(sensor_xy, quad, hidden):
    scene = Scene(obstacles=[np.array(quad)], sensor=Pose.from_yaw(0.0, (*sensor_xy, 0.0)),
                  bounds=30.0)
    mask = assert_matches_reference(scene, OPEN_LIDAR, GridSpec(extent=16.0, resolution=32))
    assert not mask[hidden]


@pytest.mark.parametrize("x0, sensor_xy, any_visible", [
    (0.0, (0.0, 0.0), False),     # sensor on the edge x = 0
    (0.0, (0.0, -5.0), False),    # sensor on a vertex
    (1e-12, (0.0, 0.0), True),    # sensor 1e-12 off the edge: its wedge spans nearly pi
])
def test_oracle_matches_reference_sensor_on_edge_line(x0, sensor_xy, any_visible):
    """Scene validation rejects a sensor on an obstacle, so the first two
    sensors are moved there after construction; the oracle still agrees with
    the reference, which counts every cell as blocked."""
    scene = Scene(obstacles=[wall_quad(x0)], sensor=Pose.from_yaw(0.0, (-1.0, 0.0, 0.0)),
                  bounds=20.0)
    scene.sensor = Pose.from_yaw(0.0, (*sensor_xy, 0.0))
    mask = assert_matches_reference(scene, OPEN_LIDAR, GridSpec(extent=16.0, resolution=32))
    assert mask.any() == any_visible


def test_oracle_matches_reference_cells_on_vertex_rays():
    """Cell centres (k + 0.5, k + 0.5) and (3k + 1.5, k + 0.5) lie exactly on
    the rays through the vertices (6, 6) and (6, 2); the touching rule blocks
    the ones beyond."""
    tri = np.array([[6.0, 2.0], [8.0, 2.0], [6.0, 6.0]])
    scene = Scene(obstacles=[tri], sensor=Pose.identity(), bounds=20.0)
    spec = GridSpec(extent=16.0, resolution=32)
    mask = assert_matches_reference(scene, OPEN_LIDAR, spec)
    assert not mask[16 + 7, 16 + 7]      # (7.5, 7.5), past the vertex (6, 6)
    assert not mask[16 + 10, 16 + 3]     # (10.5, 3.5), past the vertex (6, 2)
    assert mask[16 + 4, 16 + 4]          # (4.5, 4.5), before it


def test_oracle_matches_reference_cells_on_an_edge():
    """Cell centres (4.5, k + 0.5) lie on the wall's near edge x = 4.5, and the
    segment to them crosses no other edge: only the touching rule blocks them."""
    wall = np.array([[4.5, -2.5], [5.0, -2.5], [5.0, 2.5], [4.5, 2.5]])
    scene = Scene(obstacles=[wall], sensor=Pose.identity(), bounds=20.0)
    mask = assert_matches_reference(scene, OPEN_LIDAR, GridSpec(extent=16.0, resolution=32))
    assert not mask[16 + 4, 16 + 0]      # (4.5, 0.5), on the edge
    assert mask[16 + 3, 16 + 0]          # (3.5, 0.5), before it


def test_oracle_matches_reference_empty_scene():
    scene = Scene(obstacles=[], sensor=Pose.identity(), bounds=20.0)
    mask = assert_matches_reference(scene, OPEN_LIDAR, GridSpec(extent=64.0, resolution=32))
    assert mask.any() and not mask.all()


def test_oracle_matches_reference_unbounded_range():
    """max_range = inf: every cell is in range, and the far cull's bound uses
    the largest cell range."""
    for family in FAMILY_NAMES:
        model = dataclasses.replace(default_lidar(family), max_range=np.inf)
        mask = assert_matches_reference(generate_scene(SceneFamily.preset(family), 4), model,
                                        default_grid(family, 64))
        assert mask.any() and not mask.all()


def test_oracle_matches_reference_huge_extent():
    """Cells 31 km wide around a sensor off the origin: range keys stay small
    and the packed (sector, key) cannot overflow."""
    scene = translated(generate_scene(SceneFamily.preset("outdoor-dense"), 5), (3e3, -2e3))
    spec = GridSpec(extent=1e6, resolution=64)
    model = dataclasses.replace(default_lidar("outdoor-dense"), max_range=np.inf)
    assert_matches_reference(scene, model, spec)
    cells, packed = _cells_by_sector(spec, np.inf, scene.sensor.position[:2].tobytes())[:2]
    assert cells.size == 64 * 64 and 0 <= packed.min() and packed.max() < 2**31


@pytest.mark.parametrize("res", (8, 16))
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_oracle_matches_reference_coarse_grids(family, res):
    """Two and eight sectors: each edge's wedge holds a sector or two."""
    for seed in range(6):
        scene = translated(generate_scene(SceneFamily.preset(family), seed), (0.5 * seed, -1.0))
        assert_matches_reference(scene, default_lidar(family), default_grid(family, res))


def test_oracle_matches_reference_tiny_obstacle_beside_sensor():
    """A 0.05 m square 0.1 m from the sensor shadows a thin wedge out to 75 m:
    nearly all of it is marked blocked by the far cull."""
    square = np.array([[0.1, -0.025], [0.15, -0.025], [0.15, 0.025], [0.1, 0.025]])
    scene = Scene(obstacles=[square, wall_quad(-30.0)], sensor=Pose.identity(), bounds=80.0)
    model = LidarModel(n_beams=64, max_range=75.0, range_noise_sigma=0.0, dropout_prob=0.0)
    spec = default_grid("outdoor-sparse", 256)
    ends = np.roll(square, -1, axis=0)
    _, _, *geometry = _wedge_bounds(np.zeros(2), square, ends)
    assert (_cull_radii(np.zeros(2), square, ends, *geometry, 75.0)[1] < np.inf).all()
    mask = assert_matches_reference(scene, model, spec)
    X, Y = spec.cell_centers()
    assert not mask[(X > 1.0) & (np.abs(Y) < 0.1 * X)].any()


@settings(max_examples=12, **PROPERTY)
@given(family=st.sampled_from(FAMILY_NAMES), seed=st.integers(0, 2**31 - 1),
       offset=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       res=st.sampled_from((16, 64, 128)))
def test_oracle_matches_reference_property(family, seed, offset, res):
    scene = translated(generate_scene(SceneFamily.preset(family), seed), offset)
    assert_matches_reference(scene, default_lidar(family), default_grid(family, res))


@pytest.mark.parametrize("budget", (256, 1000))
def test_oracle_batches_stay_within_budget(monkeypatch, budget):
    """Every index array of a range expansion holds at most _BATCH_PAIRS
    entries, and a small budget, which splits the work into many batches,
    changes no bit."""
    sizes = []

    def recording(lo, hi):
        owner, idx = flat_ranges(lo, hi)
        sizes.append(idx.size)
        return owner, idx

    monkeypatch.setattr(scenes_module, "flat_ranges", recording)
    expansions = []
    for batch_pairs in (_BATCH_PAIRS, budget):
        monkeypatch.setattr(scenes_module, "_BATCH_PAIRS", batch_pairs)
        _cells_by_sector.cache_clear()
        sizes.clear()
        for family in FAMILY_NAMES:
            assert_matches_reference(generate_scene(SceneFamily.preset(family), 7),
                                     default_lidar(family), default_grid(family, 64))
        assert 0 < max(sizes) <= batch_pairs
        expansions.append(len(sizes))
    assert expansions[1] > expansions[0]
    _cells_by_sector.cache_clear()


def test_oracle_cache_interleaved_translated_scenes():
    """Two translated copies of one scene on one grid, called in turn: each
    sensor position gets its own cached order, and every result is exact."""
    scene = generate_scene(SceneFamily.preset("indoor"), 3)
    copies = [translated(scene, (1.25, -0.5)), translated(scene, (-3.0, 2.0))]
    for copy in copies + copies[::-1] + copies:
        assert_matches_reference(copy, default_lidar("indoor"), default_grid("indoor", 64))


def test_oracle_cache_keeps_signed_zero_origins_apart():
    spec = GridSpec(extent=16.0, resolution=32)
    _cells_by_sector.cache_clear()
    for x in (-0.0, 0.0, -0.0):
        scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.from_yaw(0.0, (x, 0.0, 0.0)),
                      bounds=20.0)
        assert_matches_reference(scene, OPEN_LIDAR, spec)
    info = _cells_by_sector.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_oracle_cache_arrays_are_read_only():
    """Every later call on the grid reuses them, so none may write to them."""
    spec = GridSpec(extent=16.0, resolution=32)
    origin = np.array([1.25, -0.5])
    cells, packed, tx, ty, starts, _, _ = _cells_by_sector(spec, OPEN_LIDAR.max_range,
                                                           origin.tobytes())
    assert cells.dtype == np.int32 and cells.shape == packed.shape == tx.shape == ty.shape
    assert packed.dtype == starts.dtype == np.int64 and tx.dtype == ty.dtype == np.float64
    X, Y = spec.cell_centers()
    assert tx.tobytes() == (origin[0] + X.ravel()[cells]).tobytes()
    assert ty.tobytes() == (origin[1] + Y.ravel()[cells]).tobytes()
    for a in (cells, packed, tx, ty, starts):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_oracle_cache_is_bounded():
    maxsize = _cells_by_sector.cache_info().maxsize
    assert maxsize is not None
    _cells_by_sector.cache_clear()
    scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.identity(), bounds=20.0)
    for k in range(maxsize + 3):
        assert_matches_reference(translated(scene, (0.25 * k, 0.0)), OPEN_LIDAR,
                                 GridSpec(extent=16.0, resolution=16))
    assert _cells_by_sector.cache_info().currsize == maxsize


@pytest.mark.parametrize("spec, max_range, origin", [
    (GridSpec(extent=75.0, resolution=256), 75.0, (0.0, 0.0)),
    (GridSpec(extent=12.0, resolution=128), 15.0, (-2.5, 40.125)),
    (GridSpec(extent=16.0, resolution=8), 50.0, (1.25, -0.5)),
    (GridSpec(extent=16.0, resolution=32), 0.3, (0.0, 0.0)),  # no cell in range
    (GridSpec(extent=1e6, resolution=64), np.inf, (3e3, -2e3)),
])
def test_oracle_cache_sector_key_order(spec, max_range, origin):
    """Each in-range cell once, in (sector, range key) order: sector
    floor((azimuth + pi) S / 2pi) of S = n // 32 (1 to _BATCH_PAIRS // 4),
    the cell at azimuth pi in the last, and key floor(range / cell size),
    both from the differences the orientation tests round."""
    cells, packed, tx, ty, starts, n_keys, rmax = _cells_by_sector(
        spec, max_range, np.array(origin).tobytes())
    X, Y = spec.cell_centers()
    assert np.array_equal(np.sort(cells), np.flatnonzero(np.hypot(X, Y) <= max_range))
    n_sec = starts.size - 1
    assert n_sec == min(max(cells.size // 32, 1), _BATCH_PAIRS // 4)
    dx, dy = tx - origin[0], ty - origin[1]
    sector = np.floor((np.arctan2(dy, dx) + np.pi) * (n_sec / (2 * np.pi)))
    key = np.floor(np.hypot(dx, dy) / spec.cell_size).astype(np.int64)
    assert key.max(initial=0) < n_keys <= spec.resolution
    assert rmax == np.hypot(dx, dy).max(initial=0.0)
    assert np.array_equal(packed, np.minimum(sector, n_sec - 1).astype(np.int64) * n_keys + key)
    assert (np.diff(packed) >= 0).all()
    assert np.array_equal(starts, np.searchsorted(packed, np.arange(n_sec + 1) * n_keys))
    assert starts[0] == 0 and starts[-1] == cells.size


@st.composite
def culled_edges(draw):
    """A sensor off the origin and an edge p->q, coordinates within +-1e4:
    anywhere, nearly radial (its line passing the sensor within 1e-17 to
    1e-12 of its reach: near-line) or with its line just outside _NEAR_LINE.
    Uniform draws from a drawn seed: rounding trouble needs coordinates with
    full mantissas, which Hypothesis's own floats seldom give."""
    kind = draw(st.sampled_from(("anywhere", "radial", "just-outside")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    o = rng.uniform(-1e4, 1e4, 2)
    if kind == "anywhere":
        return o, rng.uniform(-1e4, 1e4, 2), rng.uniform(-1e4, 1e4, 2)
    # the line o + h n + t d, at distance h from the sensor, from t0 to t1
    theta = rng.uniform(-np.pi, np.pi)
    n, d = np.array([np.cos(theta), np.sin(theta)]), np.array([-np.sin(theta), np.cos(theta)])
    t0 = rng.uniform(1e-3, 5e3) * rng.choice([-1.0, 1.0])
    t1 = t0 + rng.uniform(1e-3, 5e3) * np.sign(t0)
    scale = 10.0 ** rng.uniform(-17.0, -12.0) if kind == "radial" \
        else 1e-9 * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0))
    h = scale * max(abs(t0), abs(t1))
    return o, o + h * n + t0 * d, o + h * n + t1 * d


def _unit(v):
    return v / np.hypot(v[..., :1], v[..., 1:])


@settings(max_examples=400, **PROPERTY)
@given(edge=culled_edges(), seed=st.integers(0, 2**32 - 1))
def test_near_cull_certificate_property(edge, seed):
    """_segments_blocked is False for every cell nearer than the near cull's
    radius of a qualifying edge: in any direction, on the rays through the
    edge's ends and the foot of the perpendicular, and just across the edge's
    line, where the proof's second case applies."""
    o, p, q = edge
    _, _, d3, *geometry = _wedge_bounds(o, p[None], q[None])
    near = _cull_radii(o, p[None], q[None], d3, *geometry, 1e5)[0][0]
    if not near > 0:
        return
    rng = np.random.default_rng(seed)
    e = _unit(q - p)
    foot = p + np.clip(np.dot(o - p, e), 0.0, np.hypot(*(q - p))) * e
    a = rng.uniform(-np.pi, np.pi, 100)
    directions = np.concatenate([np.column_stack([np.cos(a), np.sin(a)]),
                                 _unit(np.stack([p, q, foot]) - o)[rng.integers(0, 3, 200)]])
    # the side of the line away from the sensor, at 1.001 to 11 times its distance
    normal, h = np.array([e[1], -e[0]]) * np.sign(d3[0]), abs(d3[0]) / np.hypot(*(q - p))
    across = (h * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0, 200)))[:, None] * normal
    cells = o + np.concatenate([
        (near * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 300)))[:, None] * directions,
        (near * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0, 200)))[:, None] * e
        * np.sign(np.dot(p - o, e)) + across])
    ranges = np.hypot(*(cells - o).T)  # as the cache rounds them
    assert (ranges < near).any()
    assert not _segments_blocked(o, cells[ranges < near], p, q).any()


@settings(max_examples=400, **PROPERTY)
@given(edge=culled_edges(), seed=st.integers(0, 2**32 - 1),
       reach_ratio=st.floats(1.002, 2000.0))
def test_far_cull_certificate_property(edge, seed, reach_ratio):
    """_segments_blocked is True for every cell farther than the far cull's
    radius of a qualifying edge, at most `rmax` away, whose azimuth lies
    2 _WEDGE_MARGIN or more inside the padded wedge: at the inner bounds,
    next to them and between them, from just past the radius to rmax."""
    o, p, q = edge
    lo, hi, *geometry = _wedge_bounds(o, p[None], q[None])
    rmax = reach_ratio * geometry[1][0]
    far = _cull_radii(o, p[None], q[None], *geometry, rmax)[1][0]
    first, last = lo[0, 0] + 2 * _WEDGE_MARGIN, hi[0, 0] - 2 * _WEDGE_MARGIN
    if not far < np.inf or last < first:
        return
    rng = np.random.default_rng(seed)
    width = (last - first) * np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 100),
                                             10.0 ** rng.uniform(-16.0, 0.0, 200)])
    a = np.concatenate([first + width[:102], first + width[102:202], last - width[202:]])
    gap = 10.0 ** rng.uniform(-16.0, np.log10(rmax / far - 1.0), a.size)
    cells = o + (far * (1.0 + gap))[:, None] * np.column_stack([np.cos(a), np.sin(a)])
    d = cells - o
    az, ranges = np.arctan2(d[:, 1], d[:, 0]), np.hypot(d[:, 0], d[:, 1])
    inside = ((az - first) % (2 * np.pi) <= last - first) & (ranges > far) & (ranges <= rmax)
    assert inside.any()
    assert _segments_blocked(o, cells[inside], p, q).all()


def test_cull_qualification():
    """Near-line edges and edges through the sensor never qualify; the far
    cull also needs rmax within about 1e-3 h / 8u of the edge's reach."""
    o = np.array([0.0, 0.0])
    p = np.array([[1.0, -1.0], [1.0, 1e-12], [0.0, -1.0], [1e-9, 1.0], [-1e-12, 2.0]])
    q = np.array([[1.0, 1.0], [2.0, 2e-12], [0.0, 1.0], [1e-9, 2.0], [2.0, 2.0]])
    _, _, *geometry = _wedge_bounds(o, p, q)
    near, far = _cull_radii(o, p, q, *geometry, 100.0)
    assert np.array_equal(near > 0, [True, False, False, False, True])
    assert np.array_equal(far < np.inf, [True, False, False, False, True])
    assert near[0] == (1 - _NEAR_CUT) * 1.0 and far[0] == (1 + _FAR_CUT) * np.sqrt(2.0)
    # the first edge's line is h = 1 away: its far bound gives out at 1e-3 / 8u = 1.13e12
    assert _cull_radii(o, p[:1], q[:1], *(g[:1] for g in geometry), 1.1e12)[1][0] < np.inf
    assert _cull_radii(o, p[:1], q[:1], *(g[:1] for g in geometry), 1.2e12)[1][0] == np.inf


@settings(max_examples=8, **PROPERTY)
@given(family=st.sampled_from(FAMILY_NAMES), seed=st.integers(0, 2**31 - 1))
def test_shrunk_hits_land_in_visible_cells_property(family, seed):
    """Every noiseless hit, shrunk 1% toward the sensor, lies in a visible cell.

    A cell centre sits up to half a cell diagonal from the hit, so next to an
    obstacle's silhouette it can be hidden while the hit is not: the property
    holds cell for cell only in an obstacle-free regular ring whose apothem
    times 1% exceeds that half diagonal (at least 0.214 m against 0.207 m for
    outdoor-dense at res 512). Hits in full scenes are checked point by point
    in test_shrunk_hits_unoccluded_sparse_scenes.
    """
    ring = dataclasses.replace(SceneFamily.preset(family), n_obstacles=(0, 0),
                               n_clutter=(0, 0), enclosure_jitter=0.0)
    scene = generate_scene(ring, seed)
    model = dataclasses.replace(default_lidar(family), range_noise_sigma=0.0, dropout_prob=0.0)
    spec = default_grid(family, 512)
    mask = ground_truth_fov(scene, model, spec).mask
    pts = project_to_bev(simulate_lidar(scene, model, seed))[:, :2] * 0.99
    assert pts.shape[0] == model.n_beams
    idx = np.floor((pts + spec.extent) / spec.cell_size).astype(int)
    ok = mask[idx[:, 0], idx[:, 1]]
    assert ok.all(), f"{np.count_nonzero(~ok)} hits in invisible cells"


def test_ground_truth_cell_behind_wall_invisible():
    scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.identity(), bounds=20.0)
    model = LidarModel(n_beams=64, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)
    spec = GridSpec(extent=16.0, resolution=32)
    mask = ground_truth_fov(scene, model, spec)
    X, Y = spec.cell_centers()
    behind = (X > 10.5) & (np.abs(Y) < 2.0)
    assert not mask.mask[behind].any()
    before = (X > 0.5) & (X < 9.5) & (np.abs(Y) < 2.0)
    assert mask.mask[before].all()


def test_ground_truth_noise_independent(sample_scene, small_grid):
    noisy = LidarModel(n_beams=720, max_range=75.0, range_noise_sigma=0.5, dropout_prob=0.3)
    clean = dataclasses.replace(noisy, range_noise_sigma=0.0, dropout_prob=0.0)
    a = ground_truth_fov(sample_scene, noisy, small_grid)
    b = ground_truth_fov(sample_scene, clean, small_grid)
    np.testing.assert_array_equal(a.mask, b.mask)


def test_hits_land_in_visible_cells_regular_room():
    """Noiseless hits, shrunk 1% toward the sensor, must fall in visible cells."""
    fam = room_family()
    model = LidarModel(n_beams=720, max_range=15.0, range_noise_sigma=0.0, dropout_prob=0.0)
    spec = GridSpec(extent=12.0, resolution=512)
    for seed in (0, 1, 2):
        scene = generate_scene(fam, seed)
        mask = ground_truth_fov(scene, model, spec)
        cloud = simulate_lidar(scene, model, seed)
        pts = project_to_bev(cloud)[:, :2] * 0.99
        idx = np.floor((pts + spec.extent) / spec.cell_size).astype(int)
        ok = mask.mask[idx[:, 0], idx[:, 1]]
        assert ok.all(), f"seed {seed}: {np.count_nonzero(~ok)} hits in invisible cells"


def test_shrunk_hits_unoccluded_sparse_scenes(sparse_family, noiseless_lidar):
    """Point-level consistency on full scenes: every noiseless hit, shrunk 1%
    toward the sensor, is unblocked under the oracle's segment predicates.

    The simulator finds hits with parametric ray-edge intersection; the oracle
    uses orientation tests, so agreement cross-checks the two routes without
    grid quantization in between.
    """
    checked = 0
    for seed in (0, 1, 2, 3):
        scene = generate_scene(sparse_family, seed)
        cloud = simulate_lidar(scene, noiseless_lidar, seed)
        pts = project_to_bev(cloud)[:, :2] * 0.99
        edges = scene.edges()
        origin = scene.sensor.position[:2]
        for k in range(edges.shape[0]):
            blocked = _segments_blocked(origin, pts + origin, edges[k, 0], edges[k, 1])
            assert not blocked.any(), f"seed {seed}: shrunk hit blocked by edge {k}"
        checked += pts.shape[0]
    assert checked > 1000


def test_visibility_star_shaped(sample_scene, noiseless_lidar):
    """Beyond the first occlusion along a ray, every farther cell is invisible."""
    spec = GridSpec(extent=75.0, resolution=128)
    mask = ground_truth_fov(sample_scene, noiseless_lidar, spec)
    rng = np.random.default_rng(0)
    X, Y = spec.cell_centers()
    for _ in range(200):
        theta = rng.uniform(0, 2 * np.pi)
        d = np.array([np.cos(theta), np.sin(theta)])
        ts = np.linspace(0.5, noiseless_lidar.max_range, 200)
        pts = ts[:, None] * d
        idx = np.floor((pts + spec.extent) / spec.cell_size).astype(int)
        keep = np.all((idx >= 0) & (idx < spec.resolution), axis=1)
        idx = idx[keep]
        vis = mask.mask[idx[:, 0], idx[:, 1]]
        # visibility along the exact ray samples: once the *cell-center ray*
        # check fails it may not recover; sample cell centers directly
        centers = np.column_stack([X[idx[:, 0], idx[:, 1]], Y[idx[:, 0], idx[:, 1]]])
        on_ray = np.abs(centers @ np.array([-d[1], d[0]])) < 1e-9
        vis_on_ray = vis[on_ray]
        if vis_on_ray.size > 1:
            flips = np.diff(vis_on_ray.astype(int))
            assert not np.any(flips > 0), "visibility recovered past an occlusion"


def test_visible_fraction_monotone_in_obstacles(noiseless_lidar):
    base = Scene(obstacles=[wall_quad(20.0)], sensor=Pose.identity(), bounds=60.0)
    spec = GridSpec(extent=75.0, resolution=64)
    fractions = []
    obstacles = [wall_quad(20.0)]
    for x0 in (30.0, -15.0, 5.0):
        mask = ground_truth_fov(Scene(obstacles=list(obstacles), sensor=Pose.identity(),
                                      bounds=60.0), noiseless_lidar, spec)
        fractions.append(mask.mask.mean())
        obstacles.append(wall_quad(x0, y_half=10.0))
    assert all(fractions[i + 1] <= fractions[i] + 1e-12 for i in range(len(fractions) - 1))


def test_point_in_convex():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert point_in_convex(tri, (0.5, 0.5))
    assert point_in_convex(tri, (0.0, 0.0))  # boundary counts
    assert not point_in_convex(tri, (2.0, 2.0))


def _convex_blob_reference(rng: np.random.Generator, center: np.ndarray,
                           size: float) -> np.ndarray | None:
    """The former `_convex_blob`, kept as the oracle of Qhull's vertex order."""
    n = int(rng.integers(4, 9))
    radii = (size / 2.0) * np.sqrt(rng.uniform(0.3, 1.0, n))
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = center + np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return None
    return pts[hull.vertices]


def _qhull_mismatches(point_sets) -> list:
    """The sets whose `_qhull_order` is not `ConvexHull(...).vertices` (a
    refusal counts, and so does an order where Qhull raised)."""
    bad = []
    for pts in point_sets:
        try:
            want = ConvexHull(pts).vertices.tolist()
        except QhullError:
            want = None
        if _qhull_order(pts.tolist()) != want:
            bad.append(pts.tolist())
    return bad


def test_qhull_order_matches_qhull_on_blobs():
    """20,000 blobs drawn as `_convex_blob` draws them, with the sizes and
    centres the families draw (clutter posts to large obstacles)."""
    rng = np.random.default_rng(29)

    def blobs():
        for _ in range(20000):
            size, rad, theta = rng.uniform(0.08, 8.0), rng.uniform(1.5, 24.0), rng.uniform(0, 7)
            center = np.array([rad * np.cos(theta), rad * np.sin(theta)])
            n = int(rng.integers(4, 9))
            radii = (size / 2.0) * np.sqrt(rng.uniform(0.3, 1.0, n))
            ang = rng.uniform(0.0, 2.0 * np.pi, n)
            yield center + np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])

    assert _qhull_mismatches(blobs()) == []


def test_qhull_order_matches_qhull_on_point_sets():
    """3 to 30 points, uniform, normal or on a circle, off the origin: about
    half the sets need the replay of Qhull's build."""
    rng = np.random.default_rng(30)

    def sets():
        for k in range(6000):
            n, shift = int(rng.integers(3, 31)), rng.uniform(-30.0, 30.0, 2)
            if k % 3 == 0:
                yield rng.uniform(-5.0, 5.0, (n, 2)) + shift
            elif k % 3 == 1:
                yield rng.normal(0.0, rng.uniform(0.1, 5.0), (n, 2)) + shift
            else:
                a = rng.uniform(0.0, 2.0 * np.pi, n)
                yield rng.uniform(0.1, 10.0) * np.column_stack([np.cos(a), np.sin(a)]) + shift

    assert _qhull_mismatches(sets()) == []


@pytest.mark.parametrize("points", [
    [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],               # collinear
    [[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [1.0, 2.0]],               # on a hull edge
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],   # a duplicate vertex
    [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0], [1.0, 0.5], [1.0, 0.5]],  # inside
    # on the diagonal (0, 0)-(1, 1), an edge of the initial simplex
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]],
], ids=["collinear", "edge-point", "duplicate-vertex", "duplicate-inside", "on-diagonal"])
def test_qhull_order_refuses_ties(points):
    assert _qhull_order(points) is None
    assert _qhull_order([[x + 10.0, y - 20.0] for x, y in points]) is None


def test_generate_scene_matches_qhull_reference(monkeypatch):
    """Every family at seeds 0-199 gives the bytes of the generator with the
    former, Qhull-built blob."""
    for family in FAMILY_NAMES:
        fam = SceneFamily.preset(family)
        got = [generate_scene(fam, seed) for seed in range(200)]
        with monkeypatch.context() as m:
            m.setattr(scenes_module, "_convex_blob", _convex_blob_reference)
            want = [generate_scene(fam, seed) for seed in range(200)]
        for seed, (a, b) in enumerate(zip(got, want)):
            assert len(a.obstacles) == len(b.obstacles), (family, seed)
            assert all(p.tobytes() == q.tobytes() for p, q in zip(a.obstacles, b.obstacles)), \
                (family, seed)
            assert a.sensor.quaternion.tobytes() == b.sensor.quaternion.tobytes()


def test_enclosure_returns_every_beam(sparse_family, noiseless_lidar):
    """The wall ring makes the azimuth-range map well-posed: all beams hit."""
    for seed in (0, 1, 2, 3, 4):
        scene = generate_scene(sparse_family, seed)
        cloud = simulate_lidar(scene, noiseless_lidar, seed)
        assert len(cloud) == noiseless_lidar.n_beams


def assert_lidar_matches_reference(scene: Scene, model: LidarModel, seed: int = 0) -> None:
    got, want = simulate_lidar(scene, model, seed), _simulate_lidar_reference(scene, model, seed)
    assert got.points.tobytes() == want.points.tobytes()


def test_edges_match_reference():
    for family in FAMILY_NAMES:
        for seed in range(4):
            scene = generate_scene(SceneFamily.preset(family), seed)
            assert scene.edges().tobytes() == _edges_reference(scene).tobytes()
    empty = Scene(obstacles=[], sensor=Pose.identity(), bounds=20.0)
    assert empty.edges().shape == (0, 2, 2)


@settings(max_examples=40, **PROPERTY)
@given(family=st.sampled_from(FAMILY_NAMES), seed=st.integers(0, 2**31 - 1),
       offset=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)),
       lattice=st.booleans(), yaw=st.floats(0.0, 2 * np.pi),
       n_beams=st.sampled_from((8, 9, 64, 720, 1440)), noisy=st.booleans())
def test_simulate_lidar_matches_reference_property(family, seed, offset, lattice, yaw, n_beams,
                                                   noisy):
    """Generated scenes moved off the origin (onto integer offsets, when
    `lattice`), under a yawed sensor: the wedge-culled cloud has the bytes of
    the dense one."""
    if lattice:
        offset = np.round(offset)
    scene = translated(generate_scene(SceneFamily.preset(family), seed), offset)
    scene = Scene(scene.obstacles, Pose.from_yaw(yaw, scene.sensor.position), scene.bounds)
    model = dataclasses.replace(default_lidar(family), n_beams=n_beams)
    if not noisy:
        model = dataclasses.replace(model, range_noise_sigma=0.0, dropout_prob=0.0)
    assert_lidar_matches_reference(scene, model, seed)


# an edge of each lies on a ray of the 8-beam fan from a sensor at (0, 0),
# or has zero length; all are CCW and convex
_COLLINEAR_QUAD = np.array([[4.0, 4.0], [8.0, 8.0], [7.0, 9.0], [3.0, 5.0]])
_ZERO_EDGE_QUAD = np.array([[4.0, -1.0], [6.0, -1.0], [6.0, 0.0], [6.0, 0.0], [6.0, 1.0],
                            [4.0, 1.0]])


@pytest.mark.parametrize("n_beams", (8, 1440))
@pytest.mark.parametrize("yaw", (0.0, np.pi / 4, 2.0))
@pytest.mark.parametrize("offset", ((0.0, 0.0), (1.0, 1.0), (-3.25, 0.5)))
@pytest.mark.parametrize("case", ("collinear", "zero-length", "through-sensor", "empty"))
def test_simulate_lidar_matches_reference_degenerate_edges(case, offset, yaw, n_beams):
    model = LidarModel(n_beams=n_beams, max_range=50.0, range_noise_sigma=0.0, dropout_prob=0.0)
    quads = {"collinear": [_COLLINEAR_QUAD, wall_quad(-10.0)],
             "zero-length": [_ZERO_EDGE_QUAD, wall_quad(-10.0)],
             "through-sensor": [wall_quad(0.0)], "empty": []}[case]
    off = np.asarray(offset)
    scene = Scene([q + off for q in quads], Pose.from_yaw(yaw, (*(off - [1.0, 0.0]), 0.0)), 30.0)
    # Scene refuses a sensor on an obstacle, so it is moved onto the offset
    # afterwards, onto the wall's edge x = 0 in the through-sensor case
    scene.sensor = Pose.from_yaw(yaw, (*off, 0.0))
    assert_lidar_matches_reference(scene, model)


def _scene_outcome(make):
    try:
        return [p.tobytes() for p in make()]
    except (TypeError, ValueError, OverflowError) as e:
        return type(e), str(e)


_SQUARE = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
_POLYGONS = {
    "valid": _SQUARE,
    "valid-offset": _SQUARE - 3.0,
    "zero-edge": _ZERO_EDGE_QUAD,
    "clockwise": _SQUARE[::-1],
    "dart": np.array([[1.0, 1.0], [3.0, 1.0], [2.0, 1.5], [2.0, 3.0]]),
    "collinear": np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
    "two-vertices": np.array([[1.0, 1.0], [2.0, 1.0]]),
    "three-columns": np.ones((4, 3)),
    "flat": np.arange(6.0),
    "ragged": [[1.0, 1.0], [2.0, 1.0, 0.0], [2.0, 2.0]],
    "text": [["a", "b"], ["c", "d"], ["e", "f"]],
    "nan": np.array([[1.0, 1.0], [np.nan, 1.0], [2.0, 2.0]]),
    "inf": np.array([[1.0, 1.0], [np.inf, 1.0], [2.0, 2.0]]),
    "around-origin": np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
    "sensor-on-edge": np.array([[0.0, -1.0], [1.0, -1.0], [1.0, 1.0], [0.0, 1.0]]),
    "tiny-turn": np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0 - 1e-13], [2.0, 2.0]]),
}


@settings(max_examples=300, **PROPERTY)
@given(names=st.lists(st.sampled_from(sorted(_POLYGONS)), max_size=6),
       sensor=st.sampled_from(((0.0, 0.0), (1.5, 1.5), (-2.5, -2.5), (5.0, 5.0))))
def test_scene_validation_matches_reference_property(names, sensor):
    """Lists that mix valid polygons with up to six faults of every kind: the
    same message, or none, and the same polygons when accepted."""
    obstacles = [_POLYGONS[name] for name in names]
    pose = Pose.from_yaw(0.3, (*sensor, 0.0))
    with np.errstate(invalid="ignore"):  # inf - inf in a turn of the "inf" polygon
        assert _scene_outcome(lambda: Scene(obstacles, pose).obstacles) \
            == _scene_outcome(lambda: _validate_reference(obstacles, pose))


def test_point_in_convex_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(200):
        poly = generate_scene(SceneFamily.preset("indoor"), int(rng.integers(1000))).obstacles[-1]
        point = poly.mean(axis=0) + rng.normal(0.0, 0.5, 2)
        assert point_in_convex(poly, point) == _point_in_convex_reference(poly, point)
