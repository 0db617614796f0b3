"""Geometry tests.

The oracles here are deliberately independent routes: homogeneous 3x3
matrices for SE(2) algebra, a per-cell segment-vs-open-box slab test for ray
traversal, and a matrix-inverse point-in-rectangle test for predictable
masks. They were written against the contracts before the implementation and
stay frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridtrack.geometry import (
    GridSpec,
    ObservationGrid,
    Pose2,
    encode_observation,
    predictable_mask,
    se2_apply,
    se2_compose,
    se2_inverse,
    se2_relative,
    source_points,
    wrap_angle,
)

# ---------------------------------------------------------------- oracles


def pose_from_matrix(m: np.ndarray) -> tuple[float, float, float]:
    return float(m[0, 2]), float(m[1, 2]), math.atan2(m[1, 0], m[0, 0])


def assert_pose_close(p: Pose2, xyt: tuple[float, float, float], tol: float = 1e-9):
    assert abs(p.x - xyt[0]) <= tol
    assert abs(p.y - xyt[1]) <= tol
    assert abs(wrap_angle(p.theta - xyt[2])) <= tol


def ray_cells_oracle(bearing: float, t_end: float, spec: GridSpec):
    """Brute force over every cell: slab-intersect the segment [0, t_end]
    from the grid center against the cell's open box; the cell is walked iff
    the overlap has strictly positive length. Terminal cell = walked cell
    whose overlap reaches furthest. Zero-length segment: center cell only."""
    c, cs, m = spec.center, spec.cell_size, spec.size_cells
    if t_end <= 0.0:
        return {(c, c)}, (c, c)
    dx, dy = math.cos(bearing), math.sin(bearing)
    walked = set()
    best = None
    best_hi = -1.0
    for i in range(m):
        for j in range(m):
            lo_x, hi_x = (i - c - 0.5) * cs, (i - c + 0.5) * cs
            lo_y, hi_y = (j - c - 0.5) * cs, (j - c + 0.5) * cs
            t0, t1 = 0.0, t_end
            empty = False
            for d, lo, hi in ((dx, lo_x, hi_x), (dy, lo_y, hi_y)):
                if d == 0.0:
                    if not (lo < 0.0 < hi):
                        empty = True
                        break
                else:
                    a, b = lo / d, hi / d
                    if a > b:
                        a, b = b, a
                    t0, t1 = max(t0, a), min(t1, b)
            if empty or t1 <= t0:
                continue
            walked.add((i, j))
            if t1 > best_hi:
                best_hi, best = t1, (i, j)
    return walked, best


def encode_oracle(rays, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    m = spec.size_cells
    vis = np.zeros((m, m), dtype=np.uint8)
    occ = np.zeros((m, m), dtype=np.uint8)
    hx = spec.half_extent
    any_ray = False
    for bearing, rng in rays:
        any_ray = True
        t_end = min(rng, spec.max_range)
        cells, last = ray_cells_oracle(bearing, t_end, spec)
        for cell in cells:
            vis[cell] = 1
        ex, ey = rng * math.cos(bearing), rng * math.sin(bearing)
        if rng <= spec.max_range and math.isfinite(rng) and abs(ex) < hx and abs(ey) < hx:
            occ[last] = 1
    if any_ray:
        vis[spec.center, spec.center] = 1
        occ[spec.center, spec.center] = 0
    return vis, occ


def mask_oracle(chain, spec: GridSpec) -> np.ndarray:
    total = np.eye(3)
    for t in chain:
        total = t.matrix() @ total
    inv = np.linalg.inv(total)
    m, c, cs = spec.size_cells, spec.center, spec.cell_size
    out = np.zeros((m, m), dtype=np.uint8)
    hx = spec.half_extent
    for i in range(m):
        for j in range(m):
            p = inv @ np.array([(i - c) * cs, (j - c) * cs, 1.0])
            if abs(p[0]) <= hx and abs(p[1]) <= hx:
                out[i, j] = 1
    return out


finite_coord = st.floats(-50.0, 50.0, allow_nan=False)
any_angle = st.floats(-12.0, 12.0, allow_nan=False)
poses = st.builds(Pose2, finite_coord, finite_coord, any_angle)


# ---------------------------------------------------------------- Pose2


def test_theta_normalized_to_half_open_pi():
    assert Pose2(0, 0, math.pi).theta == pytest.approx(math.pi)
    assert Pose2(0, 0, -math.pi).theta == pytest.approx(math.pi)
    assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
    p = Pose2(0, 0, 2 * math.pi)
    assert abs(p.theta) < 1e-12
    assert -math.pi < p.theta <= math.pi


@given(any_angle)
def test_wrap_angle_range(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi
    assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-9)
    assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-9)


def test_pose_rejects_non_finite():
    with pytest.raises(ValueError):
        Pose2(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Pose2(0, math.inf, 0)


def test_compose_scripted():
    p = Pose2(1.5, -2.0, 0.7)
    assert_pose_close(se2_compose(Pose2.identity(), p), (1.5, -2.0, 0.7))
    assert_pose_close(se2_compose(Pose2(1, 0, 0), Pose2(2, 3, 0)), (3, 3, 0))
    assert_pose_close(
        se2_compose(Pose2(0, 0, math.pi / 2), Pose2(1, 0, 0)), (0, 1, math.pi / 2)
    )


@given(poses, poses)
def test_compose_matches_matrix_oracle(a, b):
    got = se2_compose(a, b)
    want = pose_from_matrix(a.matrix() @ b.matrix())
    assert_pose_close(got, want)


@given(poses, poses, poses)
def test_compose_associative_via_matrices(a, b, c):
    left = se2_compose(se2_compose(a, b), c)
    want = pose_from_matrix(a.matrix() @ b.matrix() @ c.matrix())
    assert_pose_close(left, want)


@given(poses)
def test_inverse_round_trip(p):
    assert_pose_close(se2_compose(p, se2_inverse(p)), (0, 0, 0))
    assert_pose_close(se2_compose(se2_inverse(p), p), (0, 0, 0))


@given(poses)
def test_inverse_matches_matrix_oracle(p):
    assert_pose_close(se2_inverse(p), pose_from_matrix(np.linalg.inv(p.matrix())))


def test_relative_scripted():
    p = Pose2(3, -1, 0.4)
    assert_pose_close(se2_relative(p, p), (0, 0, 0))
    # sensor advances 1m along x: a world point at src-frame (2,0) is at (1,0) in dst
    t = se2_relative(Pose2(0, 0, 0), Pose2(1, 0, 0))
    np.testing.assert_allclose(se2_apply(t, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-12)
    # sensor turns +90deg in place: world point at src-frame (1,0) lands at (0,-1)
    t = se2_relative(Pose2(0, 0, 0), Pose2(0, 0, math.pi / 2))
    np.testing.assert_allclose(se2_apply(t, np.array([1.0, 0.0])), [0.0, -1.0], atol=1e-12)


@given(poses, poses, st.lists(st.tuples(finite_coord, finite_coord), min_size=1, max_size=4))
def test_relative_maps_world_points_between_frames(a, b, pts):
    world = np.array(pts, dtype=float)
    in_a = se2_apply(se2_inverse(a), world)
    in_b = se2_apply(se2_inverse(b), world)
    got = se2_apply(se2_relative(a, b), in_a)
    np.testing.assert_allclose(got, in_b, atol=1e-7)


# ---------------------------------------------------------------- GridSpec


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(size_cells=4, cell_size=0.2)
    with pytest.raises(ValueError):
        GridSpec(size_cells=1, cell_size=0.2)
    with pytest.raises(ValueError):
        GridSpec(size_cells=5, cell_size=0.0)
    with pytest.raises(ValueError):
        GridSpec(size_cells=5, cell_size=0.2, max_range=-1.0)


def test_grid_spec_rejects_nan_max_range():
    """``nan <= 0`` is False, so a plain sign check let NaN through, and a
    beam then walked but never marked its hit. +inf means no clipping."""
    with pytest.raises(ValueError, match="max_range must be positive, got nan"):
        GridSpec(size_cells=5, cell_size=0.25, max_range=math.nan)
    assert GridSpec(size_cells=5, cell_size=0.25, max_range=math.inf).max_range == math.inf


def test_grid_spec_defaults_and_helpers():
    spec = GridSpec(size_cells=5, cell_size=0.25)
    assert spec.max_range == pytest.approx(1.25)
    assert spec.center == 2
    assert spec.half_extent == pytest.approx(0.625)
    assert spec.axis_centers()[2] == 0.0 and spec.axis_centers()[3] == 0.25


# ---------------------------------------------------------------- ObservationGrid


def test_observation_grid_rejects_occupied_unobserved():
    vis = np.zeros((3, 3), dtype=np.uint8)
    occ = np.zeros((3, 3), dtype=np.uint8)
    occ[1, 1] = 1
    with pytest.raises(ValueError):
        ObservationGrid(vis=vis, occ=occ)


def test_observation_grid_rejects_non_binary():
    bad = np.full((3, 3), 2, dtype=np.uint8)
    with pytest.raises(ValueError):
        ObservationGrid(vis=bad, occ=np.zeros((3, 3), dtype=np.uint8))


@pytest.mark.parametrize("value", [2, 255])
def test_observation_grid_rejects_values_above_one(value):
    for name in ("vis", "occ"):
        planes = {"vis": np.ones((3, 3), dtype=np.uint8), "occ": np.zeros((3, 3), dtype=np.uint8)}
        planes[name][1, 2] = value
        with pytest.raises(ValueError, match=f"{name} must be binary"):
            ObservationGrid(**planes)


@pytest.mark.parametrize("value", [257, 2, -1, 0.7, np.nan])
def test_observation_grid_rejects_values_a_uint8_cast_would_change(value):
    # int64 and float64 planes: 257 would wrap to 1, 0.7 and NaN truncate to 0
    for name in ("vis", "occ"):
        planes = {"vis": np.ones((3, 3)), "occ": np.zeros((3, 3))}
        planes[name] = planes[name].astype(np.asarray(value).dtype)
        planes[name][1, 2] = value
        with pytest.raises(ValueError, match=f"{name} must be binary"):
            ObservationGrid(**planes)


def test_observation_grid_accepts_bool_planes():
    vis = np.eye(3, dtype=bool)
    g = ObservationGrid(vis=vis, occ=np.zeros((3, 3), dtype=bool))
    assert g.vis.dtype == np.uint8 and np.array_equal(g.vis, vis)
    assert g.occ.dtype == np.uint8 and not g.occ.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_observation_grid_accepts_zero_one_numeric_planes(dtype):
    vis = np.eye(3, dtype=dtype)
    g = ObservationGrid(vis=vis, occ=vis.copy())
    assert g.vis.dtype == g.occ.dtype == np.uint8
    assert np.array_equal(g.vis, np.eye(3)) and np.array_equal(g.occ, np.eye(3))


@pytest.mark.parametrize("plane", [np.array(1, dtype=np.uint8), [[0, 1], [0, 0]]], ids=["0-d", "list"])
def test_observation_grid_requires_square_2d_arrays(plane):
    with pytest.raises(ValueError, match="vis must be"):
        ObservationGrid(vis=plane, occ=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="occ must be"):
        ObservationGrid(vis=np.zeros((2, 2), dtype=np.uint8), occ=plane)


def test_observation_grid_planes():
    vis = np.eye(3, dtype=np.uint8)
    g = ObservationGrid(vis=vis, occ=vis.copy())
    planes = g.planes()
    assert planes.shape == (2, 3, 3) and planes.dtype == np.float32
    np.testing.assert_array_equal(planes[0], vis)


# ---------------------------------------------------------------- encoding


def grid5() -> GridSpec:
    return GridSpec(size_cells=5, cell_size=0.25)


def test_encode_empty_ray_list_is_all_zeros():
    g = encode_observation([], grid5())
    assert not g.vis.any() and not g.occ.any()


def test_encode_single_beam_east():
    spec = grid5()
    g = encode_observation([(0.0, 2 * spec.cell_size)], spec)
    vis = np.zeros((5, 5), dtype=np.uint8)
    occ = np.zeros((5, 5), dtype=np.uint8)
    vis[2, 2] = vis[3, 2] = vis[4, 2] = 1
    occ[4, 2] = 1
    np.testing.assert_array_equal(g.vis, vis)
    np.testing.assert_array_equal(g.occ, occ)


def test_encode_axis_conventions():
    spec = grid5()
    r = spec.cell_size
    north = encode_observation([(math.pi / 2, r)], spec)
    assert north.occ[2, 3] == 1
    south = encode_observation([(-math.pi / 2, r)], spec)
    assert south.occ[2, 1] == 1
    west = encode_observation([(math.pi, r)], spec)
    assert west.occ[1, 2] == 1


def test_encode_no_return_marks_free_to_boundary():
    spec = grid5()
    g = encode_observation([(0.0, math.inf)], spec)
    assert not g.occ.any()
    np.testing.assert_array_equal(g.vis[2:, 2], [1, 1, 1])
    assert g.vis.sum() == 3


def test_encode_endpoint_outside_grid_is_no_return():
    spec = grid5()
    g = encode_observation([(0.0, 10 * spec.cell_size)], spec)
    assert not g.occ.any()
    np.testing.assert_array_equal(g.vis[2:, 2], [1, 1, 1])


def test_encode_clips_at_max_range():
    spec = GridSpec(size_cells=5, cell_size=0.25, max_range=0.4)
    g = encode_observation([(0.0, math.inf)], spec)
    # crossings at 0.125 and 0.375 < 0.4: center plus two cells east are walked
    np.testing.assert_array_equal(g.vis[2:, 2], [1, 1, 1])
    assert g.vis.sum() == 3 and not g.occ.any()


def test_encode_hit_exactly_at_max_range_is_occupied():
    spec = GridSpec(size_cells=5, cell_size=0.25, max_range=0.5)
    g = encode_observation([(0.0, 0.5)], spec)
    assert g.occ[4, 2] == 1


def test_encode_range_just_beyond_max_range_is_no_return():
    spec = GridSpec(size_cells=5, cell_size=0.25, max_range=0.5)
    g = encode_observation([(0.0, 0.5000001)], spec)
    assert not g.occ.any()


def test_encode_endpoint_on_cell_boundary_occupies_prior_cell():
    # endpoint exactly on the 1.5-cell boundary: open-interior rule puts the
    # terminal in the nearer cell (cell_size 0.25 keeps the arithmetic exact)
    spec = grid5()
    g = encode_observation([(0.0, 1.5 * spec.cell_size)], spec)
    assert g.occ[3, 2] == 1 and g.occ[4, 2] == 0
    assert g.vis[4, 2] == 0


def test_encode_zero_range_marks_center_only():
    spec = grid5()
    g = encode_observation([(0.0, 0.0)], spec)
    assert g.vis[2, 2] == 1 and g.vis.sum() == 1
    assert not g.occ.any()


def test_encode_center_cell_forced_free():
    spec = grid5()
    g = encode_observation([(0.0, 0.1 * spec.cell_size)], spec)
    assert g.vis[2, 2] == 1 and g.occ[2, 2] == 0


def test_encode_occupied_wins_over_free():
    spec = grid5()
    g = encode_observation([(0.0, math.inf), (0.0, 2 * spec.cell_size)], spec)
    assert g.occ[4, 2] == 1 and g.vis[4, 2] == 1


def test_encode_rejects_bad_rays():
    spec = grid5()
    with pytest.raises(ValueError):
        encode_observation([(0.0, -0.1)], spec)
    with pytest.raises(ValueError):
        encode_observation([(math.nan, 1.0)], spec)
    with pytest.raises(ValueError):
        encode_observation([(math.inf, 1.0)], spec)
    with pytest.raises(ValueError):
        encode_observation([(0.0, math.nan)], spec)


def random_rays(rng: np.random.Generator, spec: GridSpec):
    n = int(rng.integers(0, 24))
    rays = []
    for _ in range(n):
        bearing = float(rng.uniform(-math.pi, math.pi))
        if rng.random() < 0.25:
            rays.append((bearing, math.inf))
        else:
            rays.append((bearing, float(rng.uniform(0.0, 1.4 * spec.max_range))))
    return rays


@pytest.mark.parametrize("seed", range(4))
def test_encode_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(80):
        m = int(rng.choice([3, 5, 7, 9, 11, 13, 15]))
        cs = float(rng.uniform(0.05, 0.6))
        max_r = float(rng.uniform(0.4, 1.5)) * m * cs
        spec = GridSpec(size_cells=m, cell_size=cs, max_range=max_r)
        rays = random_rays(rng, spec)
        got = encode_observation(rays, spec)
        want_vis, want_occ = encode_oracle(rays, spec)
        np.testing.assert_array_equal(got.vis, want_vis)
        np.testing.assert_array_equal(got.occ, want_occ)
        assert not (got.occ > got.vis).any()


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 5, 7, 9]),
)
@settings(max_examples=60, deadline=None)
def test_encode_occ_subset_vis_property(seed, m):
    rng = np.random.default_rng(seed)
    spec = GridSpec(size_cells=m, cell_size=float(rng.uniform(0.05, 0.5)))
    g = encode_observation(random_rays(rng, spec), spec)
    assert not (g.occ > g.vis).any()


# ------------------------------------------------- the per-beam walk, kept
#
# ``encode_observation`` walks every beam of a scan in one numpy pass. The
# two functions below are the walk it replaced, one beam at a time, kept
# verbatim as the reference it must match byte for byte.


def _traverse_ray(bearing: float, t_end: float, spec: GridSpec) -> list[tuple[int, int]]:
    """Cells whose open interior the ray segment [0, t_end] from the grid
    center passes through, in traversal order.

    Exact cell walking: a boundary is crossed into the next cell only if the
    segment extends strictly past the crossing, and a crossing that lands
    exactly on a cell corner steps diagonally, so a ray grazing a corner never
    claims the two side cells it merely touches.
    """
    m, cs, c = spec.size_cells, spec.cell_size, spec.center
    dx, dy = math.cos(bearing), math.sin(bearing)
    i = j = c
    cells = [(i, j)]
    if t_end <= 0.0:
        return cells

    step_i = 1 if dx > 0 else -1
    step_j = 1 if dy > 0 else -1
    # Parametric distance to the first boundary crossing along each axis,
    # then a constant increment per cell. The origin is a cell center, so the
    # first crossing is half a cell away.
    t_max_x = (0.5 * cs) / abs(dx) if dx != 0.0 else math.inf
    t_max_y = (0.5 * cs) / abs(dy) if dy != 0.0 else math.inf
    t_delta_x = cs / abs(dx) if dx != 0.0 else math.inf
    t_delta_y = cs / abs(dy) if dy != 0.0 else math.inf

    while True:
        if t_max_x < t_max_y:
            t_next = t_max_x
            ni, nj = i + step_i, j
        elif t_max_y < t_max_x:
            t_next = t_max_y
            ni, nj = i, j + step_j
        else:
            # exact corner crossing: step diagonally
            t_next = t_max_x
            ni, nj = i + step_i, j + step_j
        if t_next >= t_end:
            break
        if not (0 <= ni < spec.size_cells and 0 <= nj < spec.size_cells):
            break
        if ni != i:
            t_max_x += t_delta_x
        if nj != j:
            t_max_y += t_delta_y
        i, j = ni, nj
        cells.append((i, j))
    return cells


def loop_encode_observation(
    ranges: list[tuple[float, float]], spec: GridSpec
) -> ObservationGrid:
    """Encode a set of range measurements into visibility/occupancy grids.

    Each entry is (bearing radians, range meters); ``math.inf`` means the beam
    returned nothing. The terminal cell of a returning beam is marked occupied
    and visible, all cells walked before it are marked free and visible, and a
    non-returning beam marks everything it walks (up to the grid boundary or
    ``max_range``) as free. A measured range beyond ``max_range`` or ending
    outside the grid is treated as a non-return within the grid. Cells no ray
    walks stay unobserved.

    When at least one beam was cast, the sensor's own cell is forced visible
    and free. If a cell is walked as free by one beam and terminal for
    another, occupied wins.
    """
    m = spec.size_cells
    vis = np.zeros((m, m), dtype=np.uint8)
    occ = np.zeros((m, m), dtype=np.uint8)
    hx = spec.half_extent
    any_ray = False
    for bearing, rng in ranges:
        if not math.isfinite(bearing):
            raise ValueError(f"non-finite bearing {bearing}")
        if math.isnan(rng) or rng < 0.0:
            raise ValueError(f"invalid range {rng}")
        any_ray = True
        hit = rng <= spec.max_range
        t_end = min(rng, spec.max_range)
        if hit and math.isfinite(rng):
            ex = rng * math.cos(bearing)
            ey = rng * math.sin(bearing)
            hit = abs(ex) < hx and abs(ey) < hx  # endpoint strictly inside grid
        cells = _traverse_ray(bearing, t_end, spec)
        for ci, cj in cells:
            vis[ci, cj] = 1
        if hit:
            occ[cells[-1]] = 1
    if any_ray:
        c = spec.center
        vis[c, c] = 1
        occ[c, c] = 0
    return ObservationGrid(vis=vis, occ=occ)


def assert_encodes_like_the_walk(scan, spec: GridSpec):
    want = loop_encode_observation(scan, spec)
    for given_as in (scan, np.asarray(scan, dtype=float).reshape(-1, 2)):
        got = encode_observation(given_as, spec)
        assert np.array_equal(got.vis, want.vis)
        assert np.array_equal(got.occ, want.occ)


# axis bearings, signed zeros, a bearing whose sine is 1e-17, and the
# diagonals atan2(p, q) of the cell lattice, where corner ties are exact at
# cell sizes 0.25 and 0.5
EDGE_BEARINGS = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1e-17, -1e-17]
LATTICE_BEARINGS = [
    math.atan2(p, q) for p in range(-4, 5) for q in range(-4, 5) if (p, q) != (0, 0)
]


def walk_scan(rng: np.random.Generator, spec: GridSpec, n: int) -> list:
    """``n`` (bearing, range) pairs mixing edge, lattice and random bearings
    with ranges of 0, inf, exactly max_range, beyond it, on half-cell
    boundaries along an axis or a diagonal, and uniform ones."""
    cs, m, max_r = spec.cell_size, spec.size_cells, spec.max_range
    scan = []
    for _ in range(n):
        u = rng.random()
        if u < 0.2:
            bearing = EDGE_BEARINGS[rng.integers(len(EDGE_BEARINGS))]
        elif u < 0.5:
            bearing = LATTICE_BEARINGS[rng.integers(len(LATTICE_BEARINGS))]
        else:
            bearing = float(rng.uniform(-math.pi, math.pi))
        v = rng.random()
        if v < 0.1:
            r = 0.0
        elif v < 0.25:
            r = math.inf
        elif v < 0.3:
            r = max_r
        elif v < 0.4:
            r = max_r * float(rng.uniform(1.0, 1.5))
        elif v < 0.6:
            r = (int(rng.integers(0, m)) + 0.5) * cs * float(rng.choice([1.0, math.sqrt(2.0)]))
        else:
            r = float(rng.uniform(0.0, 1.2 * m * cs))
        scan.append((bearing, r))
    return scan


@pytest.mark.parametrize("seed", range(4))
def test_encode_matches_the_per_beam_walk(seed):
    """Every odd grid from 3 to 51, cell sizes where corner ties are exact
    and random ones, max_range inside the grid, past its corners and the
    default, and scans of 1-40 beams."""
    rng = np.random.default_rng(3000 + seed)
    for m in range(3, 53, 2):
        for cs in (0.25, 0.5, float(rng.uniform(0.05, 0.6))):
            for max_r in (0.3 * m * cs, 0.0, 1.6 * m * cs):
                spec = GridSpec(size_cells=m, cell_size=cs, max_range=max_r)
                assert_encodes_like_the_walk(walk_scan(rng, spec, int(rng.integers(1, 41))), spec)


@pytest.mark.parametrize("n_beams", [240, 720])
@pytest.mark.parametrize("m", [33, 51])
def test_encode_full_scans_match_the_per_beam_walk(n_beams, m):
    """Scans as the simulator casts them: equally spaced bearings from -pi,
    one per beam, with random and edge-case ranges."""
    rng = np.random.default_rng(n_beams + m)
    spec = GridSpec(size_cells=m, cell_size=0.2)
    bearings = -math.pi + 2.0 * math.pi * np.arange(n_beams) / n_beams
    for _ in range(3):
        ranges = [r for _, r in walk_scan(rng, spec, n_beams)]
        assert_encodes_like_the_walk(list(zip(bearings.tolist(), ranges)), spec)


@pytest.mark.parametrize("builder, m, n_beams", [
    ("static_crossing", 51, 240), ("moving_turning", 33, 240), ("occlusion_scenario", 51, 720),
])
def test_encode_builder_scans_match_the_per_beam_walk(monkeypatch, builder, m, n_beams):
    from gridtrack import simulator

    scans = []
    encode = simulator.encode_observation

    def record(ranges, spec):
        scans.append(ranges)
        return encode(ranges, spec)

    monkeypatch.setattr(simulator, "encode_observation", record)
    spec = GridSpec(size_cells=m, cell_size=0.2)
    kw = {} if builder == "occlusion_scenario" else {"frames": 8}
    getattr(simulator, builder)(seed=1, spec=spec, n_beams=n_beams, **kw)
    assert scans
    for scan in scans:
        assert_encodes_like_the_walk(np.asarray(scan).tolist(), spec)


def test_encode_infinite_max_range_matches_oracle():
    """With max_range inf nothing clips a beam but the grid. A beam that
    returned nothing then marks no cell occupied, as the brute-force oracle
    says; the per-beam walk marked the cell it stopped in."""
    rng = np.random.default_rng(7)
    for m in (3, 5, 9, 15):
        spec = GridSpec(size_cells=m, cell_size=0.25, max_range=math.inf)
        rays = walk_scan(rng, spec, 24)
        got = encode_observation(rays, spec)
        want_vis, want_occ = encode_oracle(rays, spec)
        np.testing.assert_array_equal(got.vis, want_vis)
        np.testing.assert_array_equal(got.occ, want_occ)
        assert np.array_equal(got.vis, loop_encode_observation(rays, spec).vis)
    g = encode_observation([(0.0, math.inf)], GridSpec(size_cells=5, cell_size=0.25, max_range=math.inf))
    assert not g.occ.any() and g.vis.sum() == 3


BAD_ENTRIES = [
    (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 0.5), (0.5, -0.1), (0.5, math.nan),
    (0.5, -math.inf), (math.nan, math.nan), (math.inf, -1.0),
]


@pytest.mark.parametrize("k", [0, 1, 6])
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=str)
def test_encode_error_text_and_order_match_the_walk(k, bad):
    """The first bad entry in input order raises, its bearing checked before
    its range, with the walk's message; a later bad entry never wins."""
    spec = grid5()
    scan = [(0.1 * i, 0.3) for i in range(8)]
    scan[k] = bad
    scan[k + 1] = (0.2, -5.0) if math.isfinite(bad[0]) else (math.nan, 1.0)
    with pytest.raises(ValueError) as want:
        loop_encode_observation(scan, spec)
    for given_as in (scan, np.array(scan)):
        with pytest.raises(ValueError) as got:
            encode_observation(given_as, spec)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scan", [
    np.zeros((4, 3)), np.zeros(6), np.zeros((2, 2, 2)), [(0.0, 1.0, 2.0)], [0.0, 1.0], np.zeros((0, 3)),
], ids=["4x3", "flat-6", "2x2x2", "triple", "flat-pair", "0x3"])
def test_encode_rejects_scans_that_are_not_pairs(scan):
    with pytest.raises(ValueError, match="bearing, range"):
        encode_observation(scan, grid5())


def test_encode_empty_scan_as_array_is_all_zeros():
    g = encode_observation(np.zeros((0, 2)), grid5())
    assert not g.vis.any() and not g.occ.any()


# ---------------------------------------------------------------- predictable mask


def test_mask_identity_chain_all_ones():
    spec = grid5()
    m = predictable_mask([Pose2.identity()] * 3, spec)
    assert m.shape == (3, 5, 5)
    assert m.all()
    empty = predictable_mask([], spec)
    assert empty.shape == (0, 5, 5) and empty.dtype == bool


@pytest.mark.parametrize("m", [3, 5, 9, 21, 33, 51])
@pytest.mark.parametrize("cs", [0.2, 0.4, 0.5])
def test_mask_still_sensor_all_ones_at_every_size(m, cs):
    spec = GridSpec(size_cells=m, cell_size=cs)
    for chain in ([], [Pose2.identity()], [Pose2.identity()] * 7):
        got = predictable_mask(chain, spec)
        assert got.shape == (len(chain), m, m)
        assert got.all()


def test_source_points_match_per_transform_inverse():
    spec = GridSpec(size_cells=7, cell_size=0.3)
    poses = [Pose2(0.2, -0.1, 0.4), Pose2.identity(), Pose2(-0.5, 0.3, -2.0)]
    bx, by = source_points(poses, spec)
    assert bx.shape == by.shape == (3, 7, 7)
    ax = spec.axis_centers()
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)
    for k, p in enumerate(poses):
        want = se2_apply(se2_inverse(p), cells)
        np.testing.assert_allclose(bx[k].ravel(), want[:, 0], atol=1e-12)
        np.testing.assert_allclose(by[k].ravel(), want[:, 1], atol=1e-12)
    bx, by = source_points([], spec)
    assert bx.shape == by.shape == (0, 7, 7)


def test_mask_forward_translation_zeros_leading_edge():
    # sensor advances +3 cells along x; the relative coordinate transform for
    # a world-fixed point is x -> x - 3*cs
    spec = GridSpec(size_cells=7, cell_size=0.25)
    chain = [se2_relative(Pose2(0, 0, 0), Pose2(3 * spec.cell_size, 0, 0))]
    m = predictable_mask(chain, spec)[-1]
    assert m[:4].all()
    assert not m[4:].any()
    assert int(m.size - m.sum()) == 3 * spec.size_cells


def test_mask_two_step_translation_composes():
    spec = GridSpec(size_cells=7, cell_size=0.25)
    step = se2_relative(Pose2(0, 0, 0), Pose2(2 * spec.cell_size, 0, 0))
    m = predictable_mask([step, step], spec)[-1]
    assert m[:3].all() and not m[3:].any()
    assert int(m.size - m.sum()) == 4 * spec.size_cells


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("axis", ["+x", "-x", "+y", "-y"])
def test_mask_whole_cell_translation_zero_count(n, axis):
    spec = GridSpec(size_cells=9, cell_size=0.2)
    d = n * spec.cell_size
    dest = {
        "+x": Pose2(d, 0, 0),
        "-x": Pose2(-d, 0, 0),
        "+y": Pose2(0, d, 0),
        "-y": Pose2(0, -d, 0),
    }[axis]
    m = predictable_mask([se2_relative(Pose2(0, 0, 0), dest)], spec)[-1]
    assert int(m.size - m.sum()) == n * spec.size_cells
    sums = m.sum(axis=1) if "x" in axis else m.sum(axis=0)
    # the zero band hugs the edge in the direction of motion
    if axis in ("+x", "+y"):
        assert (sums[-n:] == 0).all() and (sums[:-n] == spec.size_cells).all()
    else:
        assert (sums[:n] == 0).all() and (sums[n:] == spec.size_cells).all()


def test_mask_monotone_under_forward_motion():
    # moving steadily away, longer chains can only lose cells once shifted
    # into the same frame
    spec = GridSpec(size_cells=9, cell_size=0.2)
    step = se2_relative(Pose2(0, 0, 0), Pose2(spec.cell_size, 0, 0))
    prev = predictable_mask([step], spec)[-1]
    for k in range(2, 5):
        cur = predictable_mask([step] * k, spec)[-1]
        # frame t+k cell (i, j) overlaps frame t+k-1 cell (i+1, j)
        assert not (cur[:-1] & ~prev[1:]).any()
        prev = cur


@given(
    st.lists(
        st.builds(
            Pose2,
            st.floats(-1.0, 1.0),
            st.floats(-1.0, 1.0),
            st.floats(-math.pi, math.pi),
        ),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=80, deadline=None)
def test_mask_matches_matrix_oracle(chain):
    spec = GridSpec(size_cells=7, cell_size=0.3)
    got = predictable_mask(chain, spec)
    assert got.shape == (len(chain), 7, 7) and got.dtype == bool
    for k, row in enumerate(got):
        np.testing.assert_array_equal(row, mask_oracle(chain[: k + 1], spec))


def single_chain_mask(chain, spec: GridSpec) -> np.ndarray:
    """The one-mask-per-chain formula: compose the whole chain, map the cell
    centers back through it once, keep those inside the footprint."""
    total = Pose2.identity()
    for t in chain:
        total = se2_compose(t, total)
    bx, by = source_points([total], spec)
    hx = spec.half_extent
    return (np.abs(bx[0]) <= hx) & (np.abs(by[0]) <= hx)


@pytest.mark.parametrize("m, cs", [(7, 0.3), (21, 0.4), (33, 0.2)])
def test_mask_rows_bitwise_equal_single_chain_prefixes(m, cs):
    spec = GridSpec(size_cells=m, cell_size=cs)
    rng = np.random.default_rng(m)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        scale = float(rng.choice([0.01, 0.3, 3.0])) * spec.half_extent
        chain = [
            Pose2(*rng.uniform(-scale, scale, 2), float(rng.uniform(-math.pi, math.pi)))
            for _ in range(k)
        ]
        got = predictable_mask(chain, spec)
        for j in range(k):
            assert np.array_equal(got[j], single_chain_mask(chain[: j + 1], spec))
