"""SE(2) poses, grid conventions, ray-cast observation encoding, and
predictable-space masks.

Grid convention (pinned once, used everywhere): grids are row-major numpy
arrays indexed ``[i, j]`` with axis 0 along sensor-forward x and axis 1 along
sensor-left y. Cell ``[0, 0]`` sits at the most negative (x, y) corner and the
sensor occupies the exact center cell, so ``size_cells`` must be odd. The
center of cell ``(i, j)`` is at ``((i - c) * cell_size, (j - c) * cell_size)``
with ``c = size_cells // 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Pose2",
    "GridSpec",
    "ObservationGrid",
    "wrap_angle",
    "se2_compose",
    "se2_inverse",
    "se2_relative",
    "se2_apply",
    "encode_observation",
    "source_points",
    "predictable_mask",
    "json_field",
]


def wrap_angle(theta: float) -> float:
    """Normalize an angle to (-pi, pi]. In-range values pass through
    unchanged, so wrapping is bitwise idempotent."""
    if -math.pi < theta <= math.pi:
        return theta
    t = math.atan2(math.sin(theta), math.cos(theta))
    if t <= -math.pi:
        t = math.pi
    return t


@dataclass(frozen=True)
class Pose2:
    """A rigid SE(2) transform / sensor pose: translation (x, y) in meters and
    heading theta in radians, normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise ValueError(f"non-finite pose ({self.x}, {self.y}, {self.theta})")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    @staticmethod
    def identity() -> "Pose2":
        return Pose2(0.0, 0.0, 0.0)

    def is_identity(self, tol: float = 0.0) -> bool:
        return abs(self.x) <= tol and abs(self.y) <= tol and abs(self.theta) <= tol

    def matrix(self) -> np.ndarray:
        """3x3 homogeneous matrix equivalent of this transform."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s, self.x], [s, c, self.y], [0.0, 0.0, 1.0]])


def se2_compose(a: Pose2, b: Pose2) -> Pose2:
    """Compose two transforms: the result applies ``b`` first, then ``a``.

    Equals the product of the corresponding homogeneous matrices.
    """
    ca, sa = math.cos(a.theta), math.sin(a.theta)
    return Pose2(
        a.x + ca * b.x - sa * b.y,
        a.y + sa * b.x + ca * b.y,
        a.theta + b.theta,
    )


def se2_inverse(p: Pose2) -> Pose2:
    c, s = math.cos(p.theta), math.sin(p.theta)
    return Pose2(-(c * p.x + s * p.y), -(-s * p.x + c * p.y), -p.theta)


def se2_relative(src: Pose2, dst: Pose2) -> Pose2:
    """Relative transform between two world-frame poses.

    Returns ``T`` such that a world-fixed point's coordinates in the ``dst``
    frame equal ``T`` applied to its coordinates in the ``src`` frame,
    i.e. ``T = inverse(dst) . src``.
    """
    return se2_compose(se2_inverse(dst), src)


def se2_apply(p: Pose2, points: np.ndarray) -> np.ndarray:
    """Apply the transform to an (N, 2) array of points."""
    pts = np.asarray(points, dtype=float)
    c, s = math.cos(p.theta), math.sin(p.theta)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1] + p.x
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1] + p.y
    return out


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the observation window: an odd ``size_cells`` x
    ``size_cells`` grid of ``cell_size``-meter cells centered on the sensor.

    ``max_range`` clips rays; it defaults to ``size_cells * cell_size`` which
    covers the whole grid including its diagonal, so by default only the grid
    boundary clips.
    """

    size_cells: int
    cell_size: float
    max_range: float = field(default=0.0)

    def __post_init__(self):
        if self.size_cells < 3 or self.size_cells % 2 == 0:
            raise ValueError(f"size_cells must be odd and >= 3, got {self.size_cells}")
        if not (self.cell_size > 0.0 and math.isfinite(self.cell_size)):
            raise ValueError(f"cell_size must be positive, got {self.cell_size}")
        if self.max_range == 0.0:
            object.__setattr__(self, "max_range", self.size_cells * self.cell_size)
        if self.max_range <= 0.0:
            raise ValueError(f"max_range must be positive, got {self.max_range}")

    @property
    def center(self) -> int:
        return self.size_cells // 2

    @property
    def half_extent(self) -> float:
        """Half the metric side length of the grid footprint."""
        return 0.5 * self.size_cells * self.cell_size

    def axis_centers(self) -> np.ndarray:
        """Metric coordinates of cell centers along one axis."""
        return (np.arange(self.size_cells) - self.center) * self.cell_size

    def in_grid(self, i: int, j: int) -> bool:
        return 0 <= i < self.size_cells and 0 <= j < self.size_cells


def json_field(doc: dict, key: str, kind):
    """``doc[key]`` from a decoded JSON object, checked to be an instance of
    ``kind`` (a type or tuple of types; a bool never counts as a number).
    Raises ValueError when the key is missing or has another type."""
    value = doc.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"key {key!r} is missing or has the wrong type: {value!r}")
    return value


def _check_binary(name: str, arr: np.ndarray, m: int) -> np.ndarray:
    a = np.asarray(arr, dtype=np.uint8)
    if a.shape != (m, m):
        raise ValueError(f"{name} must be {m}x{m}, got {a.shape}")
    if not np.isin(a, (0, 1)).all():
        raise ValueError(f"{name} must be binary")
    return a


@dataclass(frozen=True)
class ObservationGrid:
    """Paired binary grids for one frame: ``vis`` marks cells the sensor
    actually observed, ``occ`` marks cells observed to be occupied.

    Occupancy is only asserted where observed: ``occ <= vis`` elementwise.
    """

    vis: np.ndarray
    occ: np.ndarray

    def __post_init__(self):
        m = self.vis.shape[0]
        object.__setattr__(self, "vis", _check_binary("vis", self.vis, m))
        object.__setattr__(self, "occ", _check_binary("occ", self.occ, m))
        if (self.occ > self.vis).any():
            raise ValueError("occ asserts occupancy in unobserved cells")
        self.vis.setflags(write=False)
        self.occ.setflags(write=False)

    @property
    def size_cells(self) -> int:
        return self.vis.shape[0]

    def planes(self, dtype=np.float32) -> np.ndarray:
        """Stack (vis, occ) as a (2, M, M) float array for the network."""
        return np.stack([self.vis, self.occ]).astype(dtype)


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
        if not spec.in_grid(ni, nj):
            break
        if ni != i:
            t_max_x += t_delta_x
        if nj != j:
            t_max_y += t_delta_y
        i, j = ni, nj
        cells.append((i, j))
    return cells


def encode_observation(
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


def source_points(transforms, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Metric (x, y) of every cell center mapped back through the inverse of
    each of the B ``transforms``, as two (B, M, M) arrays (B may be 0)."""
    invs = [se2_inverse(t) for t in transforms]
    c, s, tx, ty = np.array(
        [(math.cos(p.theta), math.sin(p.theta), p.x, p.y) for p in invs]
    ).reshape(-1, 4).T[:, :, None, None]
    axis = spec.axis_centers()
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return c * gx - s * gy + tx, s * gx + c * gy + ty


def predictable_mask(chain: list[Pose2], spec: GridSpec) -> np.ndarray:
    """Boolean (K, M, M) masks of the cells in each of K future frames whose
    centers were inside the grid extent of the last observed frame.

    ``chain`` lists the K per-step relative transforms from the last observed
    frame onwards, oldest first; row k is the mask of the frame reached by
    ``chain[:k+1]``. A cell is kept if its center, mapped back through the
    inverse of that composed prefix, lands inside the (closed) footprint of
    the observed frame's grid. An identity prefix keeps every cell; an empty
    chain gives an empty (0, M, M) result.
    """
    totals = []
    total = Pose2.identity()
    for t in chain:
        total = se2_compose(t, total)
        totals.append(total)
    bx, by = source_points(totals, spec)
    hx = spec.half_extent
    return (np.abs(bx) <= hx) & (np.abs(by) <= hx)
