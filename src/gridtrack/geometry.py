"""SE(2) poses, grid conventions, ray-cast observation encoding, and
predictable-space masks.

Grid convention (pinned once, used everywhere): grids are row-major numpy
arrays indexed ``[i, j]`` with axis 0 along sensor-forward x and axis 1 along
sensor-left y. Cell ``[0, 0]`` sits at the most negative (x, y) corner and the
sensor occupies the exact center cell, so ``size_cells`` must be odd. The
center of cell ``(i, j)`` is at ``((i - c) * cell_size, (j - c) * cell_size)``
with ``c = size_cells // 2``.

Scan encoding walks each beam from the center cell through every cell whose
open interior the beam passes: it crosses a cell boundary only where the
beam extends strictly past it, steps diagonally where a crossing lands
exactly on a cell corner, and stops at the grid boundary or the beam's end.
``encode_observation`` walks all beams of a scan in one numpy pass, with the
same result bit for bit as walking them one at a time. Per beam, the
crossing times along each axis are the first crossing, half a cell out,
plus one cell's time per later crossing, added up in the same order. After
its k-th crossing along one axis a beam is k cells out along that axis and
as many cells out along the other as that axis has crossings no later,
which is also the diagonal cell at a corner tie. The walk takes a crossing
iff it comes before the beam's end and lands in the grid; since time only
grows and the beam only moves away from the center, that holds for a prefix
of the crossings in time order, so the two places a single walk stops
become masks.
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
        if not self.max_range > 0.0:  # NaN too; +inf means no clipping
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


def json_field(doc: dict, key: str, kind):
    """``doc[key]`` from a decoded JSON object, checked to be an instance of
    ``kind`` (a type or tuple of types; a bool never counts as a number).
    Raises ValueError when the key is missing or has another type."""
    value = doc.get(key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"key {key!r} is missing or has the wrong type: {value!r}")
    return value


def _shape(arr) -> str:
    return str(arr.shape) if isinstance(arr, np.ndarray) else type(arr).__name__


def _check_binary(name: str, arr: np.ndarray, m: int) -> np.ndarray:
    """``arr`` as a uint8 (m, m) plane of 0s and 1s. A plane of another dtype
    must hold exactly those values: a cast that wraps or truncates raises."""
    if not isinstance(arr, np.ndarray) or arr.shape != (m, m):
        raise ValueError(f"{name} must be a {m}x{m} array, got {_shape(arr)}")
    a = arr
    if a.dtype != np.uint8:
        with np.errstate(invalid="ignore"):  # NaN is rejected below, not warned about
            a = arr.astype(np.uint8)
        if not np.array_equal(a, arr):
            raise ValueError(f"{name} must be binary")
    if (a > 1).any():
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
        if not isinstance(self.vis, np.ndarray) or self.vis.ndim != 2:
            raise ValueError(f"vis must be a square 2-D array, got {_shape(self.vis)}")
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


def encode_observation(
    ranges: list[tuple[float, float]] | np.ndarray, spec: GridSpec
) -> ObservationGrid:
    """Encode one scan into visibility/occupancy grids.

    ``ranges`` is a sequence of (bearing radians, range meters) pairs or an
    (N, 2) float array of them; ``math.inf`` means the beam returned nothing.
    Each beam walks the cells whose open interior the segment from the grid
    center to ``min(range, max_range)`` passes through: a boundary is crossed
    only if the segment extends strictly past it, and a crossing that lands
    exactly on a cell corner steps diagonally, so a beam grazing a corner
    never claims the two side cells it merely touches. The walk stops at the
    grid boundary.

    The terminal cell of a returning beam is marked occupied and visible, all
    cells walked before it are marked free and visible, and a non-returning
    beam marks everything it walks as free. A measured range beyond
    ``max_range`` or ending outside the grid is treated as a non-return
    within the grid. Cells no beam walks stay unobserved. When at least one
    beam was cast, the sensor's own cell is forced visible and free. If a
    cell is walked as free by one beam and terminal for another, occupied
    wins.

    All beams are walked at once, with the same cells bit for bit as a walk
    beam by beam (the module docstring says why): each crossing time is the
    walk's own float64 sum, and each crossing's cell follows from how many
    crossings of the other axis come no later.

    Raises ValueError for an input that is not (N, 2) pairs, and for the
    first entry, in input order, with a non-finite bearing (checked first)
    or a NaN or negative range.
    """
    m, c, cs = spec.size_cells, spec.center, spec.cell_size
    vis = np.zeros((m, m), dtype=np.uint8)
    occ = np.zeros((m, m), dtype=np.uint8)
    scan = np.asarray(ranges, dtype=float)
    if scan.shape == (0,):
        scan = scan.reshape(0, 2)
    if scan.ndim != 2 or scan.shape[1] != 2:
        raise ValueError(f"a scan must be (bearing, range) pairs, got shape {scan.shape}")
    bearing, rng = scan[:, 0], scan[:, 1]
    bad_bearing = ~np.isfinite(bearing)
    bad = bad_bearing | np.isnan(rng) | (rng < 0.0)
    if bad.any():
        k = int(bad.argmax())
        if bad_bearing[k]:
            raise ValueError(f"non-finite bearing {float(bearing[k])}")
        raise ValueError(f"invalid range {float(rng[k])}")
    if not len(scan):
        return ObservationGrid(vis=vis, occ=occ)

    # d[a, n]: beam n's direction along axis a (x, then y)
    b = bearing.tolist()
    d = np.empty((2, len(b)))
    d[0] = np.fromiter(map(math.cos, b), float, len(b))
    d[1] = np.fromiter(map(math.sin, b), float, len(b))
    ad = np.abs(d)
    t_end = np.minimum(rng, spec.max_range)
    hx = spec.half_extent
    hit = np.isfinite(rng) & (rng <= spec.max_range)
    end = np.where(hit, rng, 0.0) * d  # the endpoint must lie strictly inside the grid
    hit &= (np.abs(end) < hx).all(axis=0)

    # t[k, a, n]: beam n's k-th crossing of a cell boundary along axis a,
    # the first half a cell out from the center, then one cell apart: the
    # same float64 additions, in the same order, as a walk beam by beam. A
    # beam leaves the grid by its c + 1-th crossing along either axis. Along
    # an axis the beam (almost) does not move, the crossings are inf.
    t = np.empty((c + 1, 2, len(b)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step = cs / ad
        t[0] = (0.5 * cs) / ad
        t[1:] = step
        np.add.accumulate(t, axis=0, out=t)

    # n_other[k, a, n]: how many crossings along the other axis come no
    # later than t[k, a, n], for the c crossings that can land in the grid.
    # The other axis crosses at (l + 1/2) of its steps, so e below counts
    # them up to the rounding of a few dozen additions: it is off by at most
    # one, and the count is e - (other[e - 1] > t) + (other[e] <= t),
    # reading the other axis's crossings padded with -inf in front and +inf
    # behind. The clip keeps e an index where the quotient is inf or NaN.
    inside = t[:c]
    padded = np.empty((c + 3, 2, len(b)))
    padded[0], padded[1:-1], padded[-1] = -np.inf, t[:, ::-1], np.inf
    padded = padded.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        est = np.floor(inside / step[::-1] + 0.5)
    e = np.fmin(np.fmax(est, 0.0), c + 1).astype(np.intp)
    at = e * ad.size + np.arange(ad.size).reshape(ad.shape)
    n_other = e - (padded[at] > inside) + (padded[at + ad.size] <= inside)

    # After crossing k along axis a the beam is k + 1 cells out along a and
    # n_other cells out along the other axis. The walk takes a crossing iff
    # it comes before t_end and lands in the grid; both hold for a prefix of
    # the crossings in time order, so the walked cells are exactly those, a
    # tie on both axes gives the same diagonal cell from either side, and
    # the last cell is as many cells out along each axis as were walked.
    walked = (inside < t_end) & (n_other <= c)
    steps = np.arange(1, c + 1)[:, None, None]
    sign = np.where(d > 0.0, 1, -1) * np.array([[m], [1]])  # flat index per cell out
    cells = c * (m + 1) + sign * steps + sign[::-1] * n_other
    vis.reshape(-1)[cells[walked]] = 1
    last = c * (m + 1) + (sign * walked.sum(axis=0)).sum(axis=0)
    occ.reshape(-1)[last[hit]] = 1
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
