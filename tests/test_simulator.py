"""Simulator checks: analytic ray casting against scalar per-shape oracles,
determinism, truth rasterization, recorded builder digests, and the scripted
occlusion scene."""

import hashlib
import math
import struct

import numpy as np
import pytest

from gridtrack.geometry import GridSpec, Pose2
from gridtrack.simulator import (
    Bounds,
    Disc,
    DynamicObject,
    Rect,
    SequenceBatch,
    Velocity2,
    WorldScene,
    _cast_all,
    moving_straight,
    moving_turning,
    occlusion_scenario,
    sensor_poses,
    simulate_sequence,
    static_crossing,
)

# ------------------------------------------------------------------ oracles
# Scalar closed-form intersections, written independently of the vectorized
# casting code and kept in terms of plain math calls.


def ray_disc_oracle(ox, oy, dx, dy, disc, eps=1e-9):
    fx, fy = ox - disc.cx, oy - disc.cy
    b = fx * dx + fy * dy
    c = fx * fx + fy * fy - disc.radius * disc.radius
    disk = b * b - c
    if disk < 0.0:
        return math.inf
    root = math.sqrt(disk)
    for t in (-b - root, -b + root):
        if t > eps:
            return t
    return math.inf


def ray_rect_oracle(ox, oy, dx, dy, rect, eps=1e-9):
    t_lo, t_hi = -math.inf, math.inf
    for o, d, lo, hi in (
        (ox, dx, rect.cx - rect.half_w, rect.cx + rect.half_w),
        (oy, dy, rect.cy - rect.half_h, rect.cy + rect.half_h),
    ):
        if d == 0.0:
            if not (lo <= o <= hi):
                return math.inf
            continue
        t1, t2 = (lo - o) / d, (hi - o) / d
        t_lo = max(t_lo, min(t1, t2))
        t_hi = min(t_hi, max(t1, t2))
    if t_lo > t_hi or t_hi <= eps:
        return math.inf
    return t_lo if t_lo > eps else t_hi


def first_hit_oracle(ox, oy, bearing, shapes):
    dx, dy = math.cos(bearing), math.sin(bearing)
    best = math.inf
    for s in shapes:
        if isinstance(s, Disc):
            t = ray_disc_oracle(ox, oy, dx, dy, s)
        else:
            t = ray_rect_oracle(ox, oy, dx, dy, s)
        best = min(best, t)
    return best


def boundary_distance(px, py, shape):
    if isinstance(shape, Disc):
        return abs(math.hypot(px - shape.cx, py - shape.cy) - shape.radius)
    dx = abs(px - shape.cx) - shape.half_w
    dy = abs(py - shape.cy) - shape.half_h
    if dx > 0.0 or dy > 0.0:
        return math.hypot(max(dx, 0.0), max(dy, 0.0))
    return -max(dx, dy)


def random_shapes(rng, n):
    shapes = []
    for _ in range(n):
        cx, cy = rng.uniform(-4, 4, size=2)
        if rng.random() < 0.5:
            shapes.append(Disc(radius=float(rng.uniform(0.2, 1.5)), cx=float(cx), cy=float(cy)))
        else:
            hw, hh = rng.uniform(0.2, 1.5, size=2)
            shapes.append(Rect(half_w=float(hw), half_h=float(hh), cx=float(cx), cy=float(cy)))
    return shapes


# ------------------------------------------------------------- ray casting


def test_cast_matches_scalar_oracle_random_scenes():
    rng = np.random.default_rng(11)
    for _ in range(40):
        shapes = random_shapes(rng, int(rng.integers(1, 6)))
        ox, oy = rng.uniform(-3, 3, size=2)
        bearings = rng.uniform(-math.pi, math.pi, size=50)
        got = _cast_all(bearings, float(ox), float(oy), shapes)
        for b, r in zip(bearings, got):
            want = first_hit_oracle(float(ox), float(oy), float(b), shapes)
            if math.isinf(want):
                assert math.isinf(r)
            else:
                assert r == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cast_axis_aligned_beam_hits_rect_face():
    wall = Rect(half_w=0.1, half_h=2.0, cx=3.0, cy=0.0)
    r = _cast_all(np.array([0.0]), 0.0, 0.0, [wall])
    assert r[0] == pytest.approx(2.9)


def test_cast_beam_parallel_to_rect_misses():
    wall = Rect(half_w=0.1, half_h=2.0, cx=3.0, cy=5.0)
    r = _cast_all(np.array([0.0]), 0.0, 0.0, [wall])
    assert math.isinf(r[0])


def test_cast_disc_behind_sensor_misses():
    d = Disc(radius=0.5, cx=-3.0, cy=0.0)
    r = _cast_all(np.array([0.0]), 0.0, 0.0, [d])
    assert math.isinf(r[0])


def test_cast_nearest_shape_wins():
    near = Disc(radius=0.5, cx=2.0, cy=0.0)
    far = Disc(radius=0.5, cx=5.0, cy=0.0)
    r = _cast_all(np.array([0.0]), 0.0, 0.0, [far, near])
    assert r[0] == pytest.approx(1.5)


# ----------------------------------------------------------- construction


def test_shape_validation():
    with pytest.raises(ValueError):
        Disc(radius=0.0)
    with pytest.raises(ValueError):
        Rect(half_w=1.0, half_h=-1.0)
    with pytest.raises(ValueError):
        Bounds(0, 0, 0, 1)


def test_scene_rejects_object_outside_bounds():
    obj = DynamicObject(shape=Disc(radius=1.0, cx=9.0, cy=0.0), velocity=Velocity2(1, 0))
    with pytest.raises(ValueError):
        WorldScene(static_shapes=(), dynamic_objects=(obj,), bounds=Bounds(-5, 5, -5, 5))


def test_trajectory_poses_straight():
    poses = sensor_poses(4, 4.0, speed=2.0)
    assert len(poses) == 4
    assert poses[0] == Pose2.identity()
    assert poses[3].x == pytest.approx(1.5)
    assert poses[3].y == 0.0
    assert poses[3].theta == 0.0


def test_trajectory_poses_turning_heading_accumulates():
    poses = sensor_poses(5, 5.0, speed=1.0, yaw_rate=0.5)
    assert poses[4].theta == pytest.approx(4 * 0.5 / 5.0)


def test_sensor_poses_still_sensor_is_identity():
    poses = sensor_poses(6, 8.0)
    assert len(poses) == 6
    assert all(p == Pose2.identity() for p in poses)


@pytest.mark.parametrize("frames", [0, -3])
def test_sensor_poses_rejects_fewer_than_one_frame(frames):
    with pytest.raises(ValueError, match=f"frames must be at least 1, got {frames}"):
        sensor_poses(frames, 8.0)


def test_batch_validation():
    spec = GridSpec(size_cells=5, cell_size=0.5)
    batch = static_crossing(seed=0, spec=spec, frames=3)
    with pytest.raises(ValueError):
        SequenceBatch(
            spec=spec,
            observations=batch.observations,
            rel_transforms=batch.rel_transforms[:-1],
        )
    with pytest.raises(ValueError):
        SequenceBatch(
            spec=spec,
            observations=batch.observations,
            rel_transforms=batch.rel_transforms,
            truth_occ=batch.truth_occ[:-1],
        )
    with pytest.raises(ValueError):
        SequenceBatch(
            spec=GridSpec(size_cells=7, cell_size=0.5),
            observations=batch.observations,
            rel_transforms=batch.rel_transforms,
        )


# -------------------------------------------------------------- simulation


def walled_scene(extent=4.0):
    return WorldScene(
        static_shapes=(
            Rect(half_w=0.1, half_h=extent, cx=extent, cy=0.0),
            Rect(half_w=0.1, half_h=extent, cx=-extent, cy=0.0),
            Rect(half_w=extent, half_h=0.1, cx=0.0, cy=extent),
            Rect(half_w=extent, half_h=0.1, cx=0.0, cy=-extent),
        ),
        dynamic_objects=(
            DynamicObject(shape=Disc(radius=0.6, cx=1.0, cy=-2.0), velocity=Velocity2(0.0, 2.0)),
        ),
        bounds=Bounds(-extent, extent, -extent, extent),
    )


def test_simulate_deterministic_per_seed():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    poses = sensor_poses(5, 5.0)
    a = simulate_sequence(
        walled_scene(), poses, 5.0, spec, n_beams=90, seed=7, noise_half_width=0.05
    )
    b = simulate_sequence(
        walled_scene(), poses, 5.0, spec, n_beams=90, seed=7, noise_half_width=0.05
    )
    for oa, ob, ta, tb in zip(a.observations, b.observations, a.truth_occ, b.truth_occ):
        assert np.array_equal(oa.vis, ob.vis)
        assert np.array_equal(oa.occ, ob.occ)
        assert np.array_equal(ta, tb)
    assert a.rel_transforms == b.rel_transforms


def test_simulate_seed_changes_noise():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    poses = sensor_poses(5, 5.0)
    a = simulate_sequence(
        walled_scene(), poses, 5.0, spec, n_beams=90, seed=1, noise_half_width=0.2
    )
    b = simulate_sequence(
        walled_scene(), poses, 5.0, spec, n_beams=90, seed=2, noise_half_width=0.2
    )
    diff = any(
        not np.array_equal(oa.occ, ob.occ) for oa, ob in zip(a.observations, b.observations)
    )
    assert diff


def test_simulate_rejects_empty_scene_and_short_runs():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    empty = WorldScene(static_shapes=(), dynamic_objects=(), bounds=Bounds(-1, 1, -1, 1))
    poses = sensor_poses(5, 5.0)
    with pytest.raises(ValueError):
        simulate_sequence(empty, poses, 5.0, spec, n_beams=10, seed=0)
    with pytest.raises(ValueError):
        simulate_sequence(walled_scene(), poses[:1], 5.0, spec, n_beams=10, seed=0)
    with pytest.raises(ValueError):
        simulate_sequence(walled_scene(), poses, 5.0, spec, n_beams=0, seed=0)


def test_simulate_rejects_short_pose_lists_and_bad_rates():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    poses = sensor_poses(3, 5.0, speed=1.0)
    with pytest.raises(ValueError, match="at least 2 frames"):
        simulate_sequence(walled_scene(), [], 5.0, spec, n_beams=10, seed=0)
    for rate in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="frame_rate must be positive"):
            simulate_sequence(walled_scene(), poses, rate, spec, n_beams=10, seed=0)
        with pytest.raises(ValueError, match="frame_rate must be positive"):
            sensor_poses(3, rate)


def test_occupied_cells_lie_near_shape_boundaries():
    """Noise-free scans only mark occupancy where a shape boundary passes
    within one cell diagonal of the cell center."""
    spec = GridSpec(size_cells=25, cell_size=0.3)
    scene = walled_scene(extent=3.0)
    batch = simulate_sequence(scene, sensor_poses(4, 4.0), 4.0, spec, n_beams=180, seed=3)
    # dynamic disc position per frame: starts at (1, -2), vy=2, dt=0.25
    for f, obs in enumerate(batch.observations):
        shapes = list(scene.static_shapes)
        cy = -2.0 + 0.5 * f
        shapes.append(Disc(radius=0.6, cx=1.0, cy=cy))
        tol = math.sqrt(2.0) * spec.cell_size
        for i, j in zip(*np.nonzero(obs.occ)):
            px, py = spec.axis_centers()[i], spec.axis_centers()[j]
            d = min(boundary_distance(px, py, s) for s in shapes)
            assert d <= tol, f"frame {f} cell ({i},{j}) is {d:.3f} from any boundary"


def test_truth_matches_direct_inside_test():
    spec = GridSpec(size_cells=25, cell_size=0.3)
    scene = walled_scene(extent=3.0)
    batch = simulate_sequence(scene, sensor_poses(2, 4.0), 4.0, spec, n_beams=60, seed=0)
    ax = spec.axis_centers()
    for f in range(batch.frames):
        cy = -2.0 + 0.5 * f
        shapes = list(scene.static_shapes) + [Disc(radius=0.6, cx=1.0, cy=cy)]
        want = np.zeros((25, 25), dtype=np.uint8)
        for i in range(25):
            for j in range(25):
                px, py = ax[i], ax[j]
                inside = False
                for s in shapes:
                    if isinstance(s, Disc):
                        inside |= (px - s.cx) ** 2 + (py - s.cy) ** 2 <= s.radius**2
                    else:
                        inside |= abs(px - s.cx) <= s.half_w and abs(py - s.cy) <= s.half_h
                want[i, j] = inside
        assert np.array_equal(batch.truth_occ[f], want)


def test_dynamic_object_reflects_at_bounds():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    scene = WorldScene(
        static_shapes=(),
        dynamic_objects=(
            DynamicObject(shape=Disc(radius=0.3, cx=0.0, cy=0.0), velocity=Velocity2(0.0, 3.0)),
        ),
        bounds=Bounds(-1.0, 1.0, -1.0, 1.0),
    )
    batch = simulate_sequence(scene, sensor_poses(20, 5.0), 5.0, spec, n_beams=40, seed=0)
    # the disc must stay inside the grid's truth footprint the whole time
    for t in batch.truth_occ:
        assert t.sum() > 0
        centers = np.nonzero(t)
        ys = spec.axis_centers()[centers[1]]
        assert np.all(np.abs(ys) <= 1.0)


def test_truth_shifts_one_cell_under_unit_sensor_motion():
    """Moving straight at one cell per frame over a static world, each truth
    frame is the previous one shifted by one cell toward the sensor."""
    spec = GridSpec(size_cells=25, cell_size=0.25)
    batch = moving_straight(seed=5, spec=spec, frames=8, frame_rate=8.0)
    for f in range(1, batch.frames):
        cur = batch.truth_occ[f]
        prev = batch.truth_occ[f - 1]
        assert np.array_equal(cur[:-1, :], prev[1:, :])
    t = batch.rel_transforms[1]
    assert t.x == pytest.approx(-spec.cell_size)
    assert t.y == pytest.approx(0.0)
    assert t.theta == 0.0


def test_builders_deterministic_and_distinct():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    for builder in (static_crossing, moving_straight, moving_turning):
        a = builder(seed=13, spec=spec, frames=6)
        b = builder(seed=13, spec=spec, frames=6)
        c = builder(seed=14, spec=spec, frames=6)
        for oa, ob in zip(a.observations, b.observations):
            assert np.array_equal(oa.vis, ob.vis)
            assert np.array_equal(oa.occ, ob.occ)
        assert a.rel_transforms == b.rel_transforms
        assert any(
            not np.array_equal(oa.vis, oc.vis)
            for oa, oc in zip(a.observations, c.observations)
        )


def _batch_digest(batch):
    h = hashlib.sha256()
    for obs, truth, t in zip(batch.observations, batch.truth_occ, batch.rel_transforms):
        h.update(np.ascontiguousarray(obs.vis).tobytes())
        h.update(np.ascontiguousarray(obs.occ).tobytes())
        h.update(np.ascontiguousarray(truth).tobytes())
        h.update(struct.pack("<3d", t.x, t.y, t.theta))
    return h.hexdigest()


# sha256 over every frame's vis/occ planes, truth and (x, y, theta); a
# mismatch means every dataset the builders generate has changed
BUILDER_DIGESTS = {
    ("static_crossing", 0): "5138c730e50759c2837c567c00c216b77af14eeab635b603c86d2d724d27f591",
    ("static_crossing", 7): "f9e3f9f641baea865ab13f4632248d0ca2d1aa2aa64a7a6a693d37c20ceea9c3",
    ("moving_straight", 0): "91ba59387040808d36f5cdcc3bf37fc49d39d66516c17c022f572c57c7620ff2",
    ("moving_straight", 7): "aecbb17e413cac0f67be2c1f7deedf0486b744e992927dad70d95d20cab24700",
    ("moving_turning", 0): "41d394c572317ab01cea1004b40dc4811d740df55277d56503a4e0e1019434a8",
    ("moving_turning", 7): "4940307d217bb0260f856c50aa4b96ee670b05b93c0ada5f6a3846bcc0216d15",
    ("occlusion", 0): "617ab8e9adaa118ae8f1332f7aeb4766e2b085352ccf8ba3b7786ca817d976ab",
    ("occlusion", 7): "617ab8e9adaa118ae8f1332f7aeb4766e2b085352ccf8ba3b7786ca817d976ab",
}


def test_builders_match_recorded_digests():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    builders = {
        "static_crossing": lambda s: static_crossing(s, spec, frames=8),
        "moving_straight": lambda s: moving_straight(s, spec, frames=8),
        "moving_turning": lambda s: moving_turning(s, spec, frames=8),
        "occlusion": lambda s: occlusion_scenario(s, spec).batch,
    }
    got = {(name, s): _batch_digest(build(s)) for name, build in builders.items() for s in (0, 7)}
    assert got == BUILDER_DIGESTS


def test_static_crossing_is_static_and_has_motion_in_truth():
    spec = GridSpec(size_cells=33, cell_size=0.3)
    batch = static_crossing(seed=2, spec=spec, frames=10)
    assert batch.is_static()
    assert batch.frames == 10
    moved = any(
        not np.array_equal(batch.truth_occ[f], batch.truth_occ[f - 1])
        for f in range(1, batch.frames)
    )
    assert moved


def test_moving_turning_rotates():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    batch = moving_turning(seed=4, spec=spec, frames=8)
    assert not batch.is_static()
    assert batch.rel_transforms[0] == Pose2.identity()
    assert any(abs(t.theta) > 1e-6 for t in batch.rel_transforms[1:])


# --------------------------------------------------------------- occlusion


def disc_cells(spec, center, radius):
    ax = spec.axis_centers()
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    return (gx - center[0]) ** 2 + (gy - center[1]) ** 2 <= radius**2


@pytest.mark.parametrize("k", [0, 2, 5])
def test_occlusion_scenario_counts(k):
    spec = GridSpec(size_cells=33, cell_size=0.3)
    scn = occlusion_scenario(seed=1, spec=spec, occluded_frames=k, pad=6)
    assert len(scn.occluded_frames) == k
    if k:
        frames = list(scn.occluded_frames)
        assert frames == list(range(frames[0], frames[0] + k))
        mid = (scn.batch.frames - 1) / 2.0
        assert abs((frames[0] + frames[-1]) / 2.0 - mid) < 1e-9


def test_occlusion_hides_disc_during_listed_frames():
    spec = GridSpec(size_cells=33, cell_size=0.3)
    scn = occlusion_scenario(seed=1, spec=spec, occluded_frames=5, pad=6)
    for f in scn.occluded_frames:
        cells = disc_cells(spec, scn.disc_centers[f], scn.disc_radius)
        vis = scn.batch.observations[f].vis.astype(bool)
        assert not np.any(vis & cells), f"frame {f} leaks disc visibility"
    # well before the occlusion the disc is observed as occupied
    first = scn.occluded_frames[0]
    seen = False
    for f in range(0, first - 1):
        cells = disc_cells(spec, scn.disc_centers[f], scn.disc_radius)
        if np.any(scn.batch.observations[f].occ.astype(bool) & cells):
            seen = True
    assert seen


def test_occlusion_without_wall_always_visible():
    spec = GridSpec(size_cells=33, cell_size=0.3)
    scn = occlusion_scenario(seed=1, spec=spec, occluded_frames=5, pad=6, with_wall=False)
    assert scn.occluded_frames == ()
    assert scn.wall is None
    for f in range(scn.batch.frames):
        cells = disc_cells(spec, scn.disc_centers[f], scn.disc_radius)
        assert np.any(scn.batch.observations[f].occ.astype(bool) & cells)


def test_occlusion_truth_advances_one_cell_per_frame():
    spec = GridSpec(size_cells=33, cell_size=0.3)
    scn = occlusion_scenario(seed=1, spec=spec, occluded_frames=5, pad=6, with_wall=False)
    for f in range(1, scn.batch.frames):
        cur = scn.batch.truth_occ[f]
        prev = scn.batch.truth_occ[f - 1]
        assert np.array_equal(cur[:, 1:], prev[:, :-1])
        cj = np.nonzero(cur)[1].mean()
        pj = np.nonzero(prev)[1].mean()
        assert cj - pj == pytest.approx(1.0)


def test_occlusion_centers_match_truth_centroid():
    spec = GridSpec(size_cells=33, cell_size=0.3)
    scn = occlusion_scenario(seed=1, spec=spec, occluded_frames=5, pad=6, with_wall=False)
    for f in range(scn.batch.frames):
        iy = np.nonzero(scn.batch.truth_occ[f])[1]
        cy = spec.axis_centers()[iy].mean()
        assert cy == pytest.approx(scn.disc_centers[f][1], abs=0.5 * spec.cell_size)
