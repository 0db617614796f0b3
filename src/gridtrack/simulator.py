"""Synthetic 2D range-scan worlds: shapes, sensor poses, analytic ray
casting, and ground-truth unoccluded occupancy.

Worlds hold axis-aligned rectangles and discs only, so every ray intersection
has a closed form and the first-hit logic can be checked against a per-shape
oracle. Objects pass through each other and the sensor; dynamic objects
reflect off the world bounds so they stay in play for the whole sequence.
Time is counted in frames: every speed is meters per frame and every yaw
rate radians per frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    GridSpec,
    Pose2,
    encode_observation,
    se2_relative,
)

__all__ = [
    "Disc",
    "Rect",
    "DynamicObject",
    "Bounds",
    "WorldScene",
    "SequenceBatch",
    "OcclusionScenario",
    "sensor_poses",
    "simulate_sequence",
    "occlusion_scenario",
    "static_crossing",
    "moving_straight",
    "moving_turning",
    "scenario_builders",
]


@dataclass(frozen=True)
class Disc:
    """A disc in world coordinates (meters)."""

    radius: float
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in world coordinates (meters)."""

    half_w: float
    half_h: float
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if self.half_w <= 0.0 or self.half_h <= 0.0:
            raise ValueError("rectangle extents must be positive")


@dataclass(frozen=True)
class DynamicObject:
    """A disc or rect moving at a constant ``(vx, vy)`` velocity in meters
    per frame. The simulator advances the shape itself, so a moving rect
    works as a moving disc does."""

    shape: Disc | Rect
    velocity: tuple[float, float]


@dataclass(frozen=True)
class Bounds:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("bounds must have positive area")


def _bound_radii(shape) -> tuple[float, float]:
    if isinstance(shape, Disc):
        return shape.radius, shape.radius
    return shape.half_w, shape.half_h


@dataclass(frozen=True)
class WorldScene:
    static_shapes: tuple
    dynamic_objects: tuple
    bounds: Bounds

    def __post_init__(self):
        object.__setattr__(self, "static_shapes", tuple(self.static_shapes))
        object.__setattr__(self, "dynamic_objects", tuple(self.dynamic_objects))
        for obj in self.dynamic_objects:
            rx, ry = _bound_radii(obj.shape)
            b = self.bounds
            if b.x_max - b.x_min <= 2 * rx or b.y_max - b.y_min <= 2 * ry:
                raise ValueError("bounds too small for a dynamic object")
            if not (b.x_min + rx <= obj.shape.cx <= b.x_max - rx):
                raise ValueError("dynamic object starts outside bounds")
            if not (b.y_min + ry <= obj.shape.cy <= b.y_max - ry):
                raise ValueError("dynamic object starts outside bounds")


def sensor_poses(frames: int, speed: float = 0.0, yaw_rate: float = 0.0) -> list[Pose2]:
    """World-frame sensor pose at every frame, starting at the origin, for a
    constant speed (m/frame) and yaw rate (rad/frame): zero speed is a still
    sensor, zero yaw rate drives straight. Poses advance by forward Euler:
    heading first, then position along the new heading. ``frames`` must be
    at least 1."""
    if frames < 1:
        raise ValueError(f"frames must be at least 1, got {frames}")
    out = [Pose2.identity()]
    x = y = theta = 0.0
    for _ in range(1, frames):
        theta += yaw_rate
        x += speed * math.cos(theta)
        y += speed * math.sin(theta)
        out.append(Pose2(x, y, theta))
    return out


@dataclass(frozen=True)
class SequenceBatch:
    """One simulated (or imported) sequence: per-frame observations, the
    relative egomotion transforms T_{k,k-1} (identity at k=0), and optional
    unoccluded ground truth in each frame's sensor frame."""

    spec: GridSpec
    observations: tuple
    rel_transforms: tuple
    truth_occ: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(self.observations))
        object.__setattr__(self, "rel_transforms", tuple(self.rel_transforms))
        f = len(self.observations)
        if f < 1:
            raise ValueError("a sequence needs at least one frame")
        if len(self.rel_transforms) != f:
            raise ValueError("rel_transforms length must match observations")
        m = self.spec.size_cells
        for obs in self.observations:
            if obs.size_cells != m:
                raise ValueError("observation size does not match GridSpec")
        if self.truth_occ is not None:
            truth = tuple(np.asarray(t, dtype=np.uint8) for t in self.truth_occ)
            if len(truth) != f:
                raise ValueError("truth_occ length must match observations")
            for t in truth:
                if t.shape != (m, m):
                    raise ValueError("truth grid size does not match GridSpec")
            object.__setattr__(self, "truth_occ", truth)

    @property
    def frames(self) -> int:
        return len(self.observations)

    def is_static(self) -> bool:
        return all(t.is_identity() for t in self.rel_transforms)


# ------------------------------------------------------------- ray casting


def _cast_all(bearings_world: np.ndarray, ox: float, oy: float, shapes) -> np.ndarray:
    """Nearest-hit range per bearing against every shape; inf where nothing
    is hit. Vectorized over beams, looped over shapes."""
    dx = np.cos(bearings_world)
    dy = np.sin(bearings_world)
    best = np.full(bearings_world.shape, np.inf)
    eps = 1e-9
    for shape in shapes:
        if isinstance(shape, Disc):
            fx, fy = ox - shape.cx, oy - shape.cy
            b = fx * dx + fy * dy
            c = fx * fx + fy * fy - shape.radius * shape.radius
            disc = b * b - c
            with np.errstate(invalid="ignore"):
                root = np.sqrt(np.maximum(disc, 0.0))
                t1 = -b - root
                t2 = -b + root
            t = np.where(t1 > eps, t1, np.where(t2 > eps, t2, np.inf))
            t = np.where(disc >= 0.0, t, np.inf)
        else:
            lo_x, hi_x = shape.cx - shape.half_w, shape.cx + shape.half_w
            lo_y, hi_y = shape.cy - shape.half_h, shape.cy + shape.half_h
            with np.errstate(divide="ignore", invalid="ignore"):
                inv_dx = np.where(dx != 0.0, 1.0 / dx, np.inf)
                inv_dy = np.where(dy != 0.0, 1.0 / dy, np.inf)
                tx1 = (lo_x - ox) * inv_dx
                tx2 = (hi_x - ox) * inv_dx
                ty1 = (lo_y - oy) * inv_dy
                ty2 = (hi_y - oy) * inv_dy
            # degenerate axis: ray parallel to slab, inside iff origin between
            in_x = (lo_x <= ox) & (ox <= hi_x)
            in_y = (lo_y <= oy) & (oy <= hi_y)
            tx_lo = np.where(dx != 0.0, np.minimum(tx1, tx2), np.where(in_x, -np.inf, np.inf))
            tx_hi = np.where(dx != 0.0, np.maximum(tx1, tx2), np.where(in_x, np.inf, -np.inf))
            ty_lo = np.where(dy != 0.0, np.minimum(ty1, ty2), np.where(in_y, -np.inf, np.inf))
            ty_hi = np.where(dy != 0.0, np.maximum(ty1, ty2), np.where(in_y, np.inf, -np.inf))
            t_enter = np.maximum(tx_lo, ty_lo)
            t_exit = np.minimum(tx_hi, ty_hi)
            valid = (t_enter <= t_exit) & (t_exit > eps)
            t = np.where(t_enter > eps, t_enter, t_exit)
            t = np.where(valid, t, np.inf)
        best = np.minimum(best, t)
    return best


def _truth_grid(shapes, pose: Pose2, spec: GridSpec) -> np.ndarray:
    """Cell is occupied iff its center (in the sensor frame at pose) lies
    inside any shape."""
    ax = spec.axis_centers()
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    c, s = math.cos(pose.theta), math.sin(pose.theta)
    wx = c * gx - s * gy + pose.x
    wy = s * gx + c * gy + pose.y
    occ = np.zeros(gx.shape, dtype=bool)
    for shape in shapes:
        if isinstance(shape, Disc):
            occ |= (wx - shape.cx) ** 2 + (wy - shape.cy) ** 2 <= shape.radius**2
        else:
            occ |= (np.abs(wx - shape.cx) <= shape.half_w) & (
                np.abs(wy - shape.cy) <= shape.half_h
            )
    return occ.astype(np.uint8)


def _advance(obj: DynamicObject, bounds: Bounds) -> DynamicObject:
    """The object one frame later, reflected off the bounds."""
    (vx, vy), (rx, ry) = obj.velocity, _bound_radii(obj.shape)
    cx, cy = obj.shape.cx, obj.shape.cy
    lo_x, hi_x = bounds.x_min + rx, bounds.x_max - rx
    lo_y, hi_y = bounds.y_min + ry, bounds.y_max - ry
    cx += vx
    cy += vy
    if cx > hi_x:
        cx, vx = 2 * hi_x - cx, -vx
    elif cx < lo_x:
        cx, vx = 2 * lo_x - cx, -vx
    if cy > hi_y:
        cy, vy = 2 * hi_y - cy, -vy
    elif cy < lo_y:
        cy, vy = 2 * lo_y - cy, -vy
    return DynamicObject(replace(obj.shape, cx=cx, cy=cy), (vx, vy))


def simulate_sequence(
    scene: WorldScene,
    poses: list[Pose2],
    spec: GridSpec,
    n_beams: int,
    seed: int,
    noise_half_width: float = 0.0,
) -> SequenceBatch:
    """Simulate one sequence with one frame per world-frame sensor pose
    (see ``sensor_poses``): per frame, cast n_beams equally spaced beams
    from the sensor (nearest shape intersection wins), encode the scan,
    record the relative egomotion transform, and rasterize unoccluded truth.

    The first frame uses the initial configuration; before each later
    frame every dynamic object's shape, disc or rect alike, moves by its
    velocity and reflects off the scene bounds. ``noise_half_width`` adds
    zero-mean uniform range noise to returning beams.
    """
    if n_beams < 1:
        raise ValueError("n_beams must be >= 1")
    if not scene.static_shapes and not scene.dynamic_objects:
        raise ValueError("scene has no shapes")
    if len(poses) < 2:
        raise ValueError("sequence needs at least 2 frames")

    rng = np.random.default_rng(seed)
    bearings = -math.pi + 2.0 * math.pi * np.arange(n_beams) / n_beams

    moving = scene.dynamic_objects
    observations = []
    rel_transforms = []
    truth = []
    for f, pose in enumerate(poses):
        if f > 0:
            moving = [_advance(o, scene.bounds) for o in moving]
        shapes = [*scene.static_shapes, *(o.shape for o in moving)]
        ranges = _cast_all(bearings + pose.theta, pose.x, pose.y, shapes)
        if noise_half_width > 0.0:
            noise = rng.uniform(-noise_half_width, noise_half_width, size=n_beams)
            hit = np.isfinite(ranges)
            ranges = np.where(hit, np.maximum(ranges + noise, 0.0), ranges)
        observations.append(encode_observation(np.column_stack([bearings, ranges]), spec))
        rel_transforms.append(
            Pose2.identity() if f == 0 else se2_relative(poses[f - 1], pose)
        )
        truth.append(_truth_grid(shapes, pose, spec))
    return SequenceBatch(
        spec=spec,
        observations=observations,
        rel_transforms=rel_transforms,
        truth_occ=truth,
    )


# ------------------------------------------------------------- scenarios


@dataclass(frozen=True)
class OcclusionScenario:
    """A scripted static-sensor sequence where a constant-velocity disc
    passes behind a wall, fully occluded for a known set of frames."""

    batch: SequenceBatch
    occluded_frames: tuple
    disc_centers: tuple  # (x, y) sensor-frame meters per frame
    disc_radius: float
    wall: Rect | None


def occlusion_scenario(
    seed: int,
    spec: GridSpec,
    occluded_frames: int = 5,
    pad: int = 8,
    with_wall: bool = True,
    n_beams: int = 720,
) -> OcclusionScenario:
    """Build the scripted occlusion scene: a wall ahead of the sensor, a disc
    of radius 1.5 cells crossing behind it at one cell per frame. The wall
    length is solved from the occlusion geometry so the disc is fully inside
    the wall's shadow for exactly ``occluded_frames`` frames (0 means the
    disc is never fully hidden). ``pad`` visible frames lead and trail the
    occlusion."""
    if occluded_frames < 0 or pad < 1:
        raise ValueError("occluded_frames must be >= 0 and pad >= 1")
    cs, c = spec.cell_size, spec.center
    k = occluded_frames
    wall_x = round(0.45 * c) * cs
    disc_x = round(0.9 * c) * cs
    r = 1.5 * cs
    # margin covers cells that merely touch the disc, so grazing beams near
    # the shadow edge cannot reveal part of it
    r_eff = r + 0.75 * cs

    total = k + 2 * pad
    poses = sensor_poses(total)
    mid = (total - 1) / 2.0
    ys = [(f - mid) * cs for f in range(total)]

    def shadow_angle_needed(y: float) -> float:
        rho = math.hypot(disc_x, y)
        return abs(math.atan2(y, disc_x)) + math.asin(min(r_eff / rho, 1.0))

    if k > 0:
        inside = sorted((y for y in ys), key=abs)[:k]
        outside = sorted((y for y in ys), key=abs)[k]
        a_in = max(shadow_angle_needed(y) for y in inside)
        a_out = shadow_angle_needed(outside)
        half_angle = 0.5 * (a_in + a_out)
    else:
        half_angle = 0.5 * math.asin(min(r_eff / disc_x, 1.0))
    wall_half_len = wall_x * math.tan(half_angle)

    wall = Rect(half_w=0.4 * cs, half_h=wall_half_len, cx=wall_x, cy=0.0)
    disc = DynamicObject(shape=Disc(radius=r, cx=disc_x, cy=ys[0]), velocity=(0.0, cs))
    reach = abs(ys[0]) + total * cs + r
    bounds = Bounds(-2 * disc_x - 1.0, 2 * disc_x + 1.0, -reach - 1.0, reach + 1.0)
    scene = WorldScene(
        static_shapes=(wall,) if with_wall else (),
        dynamic_objects=(disc,),
        bounds=bounds,
    )
    batch = simulate_sequence(scene, poses, spec, n_beams=n_beams, seed=seed)

    occluded = tuple(
        f
        for f, y in enumerate(ys)
        if with_wall and shadow_angle_needed(y) <= math.atan2(wall_half_len, wall_x)
    )
    return OcclusionScenario(
        batch=batch,
        occluded_frames=occluded,
        disc_centers=tuple((disc_x, y) for y in ys),
        disc_radius=r,
        wall=wall if with_wall else None,
    )


def static_crossing(
    seed: int,
    spec: GridSpec,
    frames: int = 20,
    n_beams: int = 240,
) -> SequenceBatch:
    """Static sensor in a walled room with two fixed pillars and crossing
    discs; pillar and disc placement vary with the seed."""
    poses = sensor_poses(frames)
    rng = np.random.default_rng(seed)
    cs, hx = spec.cell_size, spec.half_extent
    room = 0.86 * hx
    wall_t = 0.4 * cs
    walls = (
        Rect(half_w=wall_t, half_h=room, cx=room, cy=0.0),
        Rect(half_w=wall_t, half_h=room, cx=-room, cy=0.0),
        Rect(half_w=room, half_h=wall_t, cx=0.0, cy=room),
        Rect(half_w=room, half_h=wall_t, cx=0.0, cy=-room),
    )
    pillars = []
    for sx in (-1.0, 1.0):
        px = sx * float(rng.uniform(0.30, 0.55)) * hx
        py = float(rng.uniform(-0.45, 0.45)) * hx
        half = float(rng.uniform(1.0, 1.8)) * cs
        pillars.append(Rect(half_w=half, half_h=half, cx=px, cy=py))

    margin = 0.70 * hx
    discs = []
    for sy in (-1.0, 1.0):
        radius = min(float(rng.uniform(1.2, 2.0)) * cs, 0.3 * margin)
        x0 = float(rng.uniform(-0.5, 0.5)) * 1.6 * (margin - radius)
        y0 = sy * (margin - radius) * 0.9
        speed = float(rng.uniform(0.6, 1.0)) * cs
        vx = float(rng.uniform(-0.25, 0.25)) * cs
        discs.append(
            DynamicObject(shape=Disc(radius=radius, cx=x0, cy=y0), velocity=(vx, -sy * speed))
        )
    scene = WorldScene(
        static_shapes=tuple(walls) + tuple(pillars),
        dynamic_objects=tuple(discs),
        bounds=Bounds(-margin, margin, -margin, margin),
    )
    return simulate_sequence(scene, poses, spec, n_beams=n_beams, seed=seed)


def _roadside_scene(rng, spec: GridSpec, path_len: float, lateral: float) -> WorldScene:
    """Static obstacles scattered along a sensor path: two long walls plus
    seeded pillars and parked discs."""
    cs = spec.cell_size
    walls = (
        Rect(half_w=path_len, half_h=0.4 * cs, cx=path_len * 0.4, cy=lateral),
        Rect(half_w=path_len, half_h=0.4 * cs, cx=path_len * 0.4, cy=-lateral),
    )
    shapes = list(walls)
    n_obj = 6
    for i in range(n_obj):
        ox = float(rng.uniform(-0.3, 1.1)) * path_len
        oy = float(rng.uniform(-0.8, 0.8)) * lateral
        if rng.random() < 0.5:
            half = float(rng.uniform(1.0, 2.2)) * cs
            shapes.append(Rect(half_w=half, half_h=half, cx=ox, cy=oy))
        else:
            shapes.append(Disc(radius=float(rng.uniform(1.0, 2.0)) * cs, cx=ox, cy=oy))
    span = path_len * 2 + 4 * lateral
    return WorldScene(
        static_shapes=tuple(shapes),
        dynamic_objects=(),
        bounds=Bounds(-span, span, -span, span),
    )


def _moving_sensor(
    seed: int,
    spec: GridSpec,
    frames: int,
    n_beams: int,
    cells_per_frame: float,
    yaw_per_frame: float,
    lateral: float,
) -> SequenceBatch:
    """Sensor at a constant speed and yaw rate through a seeded roadside
    scene whose walls sit ``lateral`` half-extents to either side."""
    rng = np.random.default_rng(seed)
    cs = spec.cell_size
    path_len = frames * cells_per_frame * cs
    scene = _roadside_scene(rng, spec, path_len + spec.half_extent, lateral * spec.half_extent)
    poses = sensor_poses(frames, speed=cells_per_frame * cs, yaw_rate=yaw_per_frame)
    return simulate_sequence(scene, poses, spec, n_beams=n_beams, seed=seed)


def moving_straight(
    seed: int,
    spec: GridSpec,
    frames: int = 20,
    n_beams: int = 240,
) -> SequenceBatch:
    """Sensor drives straight at one cell per frame through a seeded
    corridor scene."""
    return _moving_sensor(seed, spec, frames, n_beams, 1.0, 0.0, 0.6)


def moving_turning(
    seed: int,
    spec: GridSpec,
    frames: int = 20,
    n_beams: int = 240,
) -> SequenceBatch:
    """Sensor follows a constant-rate turn, 0.75 cells and 0.06 rad per
    frame, through a seeded obstacle field."""
    return _moving_sensor(seed, spec, frames, n_beams, 0.75, 0.06, 0.7)


def scenario_builders() -> dict:
    """Name -> builder(seed, spec, **kw) map used by the command line."""
    return {
        "static-crossing": static_crossing,
        "occlusion": lambda seed, spec, **kw: occlusion_scenario(seed, spec, **kw).batch,
        "moving-straight": moving_straight,
        "moving-turning": moving_turning,
    }
