import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fovlab.geometry import project_to_bev, quantize
from fovlab.scenes import (_MIN_RANGE, FAMILY_NAMES, LidarModel, Scene, SceneFamily,
                           _cells_by_azimuth, _segments_blocked, default_grid, default_lidar,
                           generate_scene, ground_truth_fov, point_in_convex, simulate_lidar)
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


@settings(max_examples=12, **PROPERTY)
@given(family=st.sampled_from(FAMILY_NAMES), seed=st.integers(0, 2**31 - 1),
       offset=st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
def test_oracle_matches_reference_property(family, seed, offset):
    scene = translated(generate_scene(SceneFamily.preset(family), seed), offset)
    assert_matches_reference(scene, default_lidar(family), default_grid(family, 64))


def test_oracle_cache_interleaved_translated_scenes():
    """Two translated copies of one scene on one grid, called in turn: each
    sensor position gets its own cached order, and every result is exact."""
    scene = generate_scene(SceneFamily.preset("indoor"), 3)
    copies = [translated(scene, (1.25, -0.5)), translated(scene, (-3.0, 2.0))]
    for copy in copies + copies[::-1] + copies:
        assert_matches_reference(copy, default_lidar("indoor"), default_grid("indoor", 64))


def test_oracle_cache_keeps_signed_zero_origins_apart():
    spec = GridSpec(extent=16.0, resolution=32)
    _cells_by_azimuth.cache_clear()
    for x in (-0.0, 0.0, -0.0):
        scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.from_yaw(0.0, (x, 0.0, 0.0)),
                      bounds=20.0)
        assert_matches_reference(scene, OPEN_LIDAR, spec)
    info = _cells_by_azimuth.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_oracle_cache_arrays_are_read_only():
    """Every later call on the grid reuses them, so none may write to them."""
    spec = GridSpec(extent=16.0, resolution=32)
    origin = np.array([1.25, -0.5])
    cells, az, tx, ty = _cells_by_azimuth(spec, OPEN_LIDAR.max_range, origin.tobytes())
    assert cells.dtype == np.int32 and cells.shape == az.shape == tx.shape == ty.shape
    assert az.dtype == tx.dtype == ty.dtype == np.float64
    X, Y = spec.cell_centers()
    assert tx.tobytes() == (origin[0] + X.ravel()[cells]).tobytes()
    assert ty.tobytes() == (origin[1] + Y.ravel()[cells]).tobytes()
    for a in (cells, az, tx, ty):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_oracle_cache_is_bounded():
    maxsize = _cells_by_azimuth.cache_info().maxsize
    assert maxsize is not None
    _cells_by_azimuth.cache_clear()
    scene = Scene(obstacles=[wall_quad(10.0)], sensor=Pose.identity(), bounds=20.0)
    for k in range(maxsize + 3):
        assert_matches_reference(translated(scene, (0.25 * k, 0.0)), OPEN_LIDAR,
                                 GridSpec(extent=16.0, resolution=16))
    assert _cells_by_azimuth.cache_info().currsize == maxsize


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
