"""Bit-exact sequence persistence, dataset directories, and an importer for
planar scan logs.

Sequences are stored in the DTSEQ1 binary format: a 6-byte magic, a
little-endian header (grid side length as u16, cell size in whole millimeters
as u32, frame count as u32, flags as u8 with bit 0 marking truth presence),
then one unpadded record per frame: a visibility bit-plane, an occupancy
bit-plane, the egomotion delta as three little-endian 64-bit reals (x, y,
theta), and, when flagged, a truth bit-plane. Bit-planes are row-major,
packed 8 cells per byte, most significant bit first. Reading back a written
sequence reproduces it bit for bit.

A dataset directory holds the sequence files and a ``manifest.json`` that
lists them, with the frame rate and the seed when the writer gave them. The
grid and frame count of each sequence live only in its own header.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import (
    GridSpec,
    ObservationGrid,
    Pose2,
    encode_observation,
    json_field,
    se2_relative,
)
from .simulator import SequenceBatch

__all__ = [
    "MAGIC",
    "DatasetManifest",
    "write_sequence",
    "read_sequence",
    "write_dataset",
    "read_dataset",
    "import_scans",
]

MAGIC = b"DTSEQ1"
_HEADER = struct.Struct("<HIIB")
MANIFEST_NAME = "manifest.json"


def _frame_dtype(m: int, flags: int) -> np.dtype:
    """One frame's record: the packed planes and the pose, no padding."""
    nb = (m * m + 7) // 8
    fields = [("vis", "u1", (nb,)), ("occ", "u1", (nb,)), ("pose", "<f8", (3,))]
    return np.dtype(fields + ([("truth", "u1", (nb,))] if flags else []))


def _cell_size_mm(spec: GridSpec) -> int:
    mm = round(spec.cell_size * 1000.0)
    if mm < 1 or mm > 0xFFFFFFFF or mm / 1000.0 != spec.cell_size:
        raise ValueError(
            f"cell_size {spec.cell_size!r} is not a whole number of millimeters; "
            "the sequence format stores cell size as integer mm"
        )
    return mm


def _check_storable(spec: GridSpec) -> int:
    if spec.size_cells > 0xFFFF:
        raise ValueError(f"grid side {spec.size_cells} exceeds the format's u16 limit")
    if spec.max_range != spec.size_cells * spec.cell_size:
        raise ValueError(
            "the sequence format stores no range cap; only the default "
            "max_range (grid side length) round-trips"
        )
    return _cell_size_mm(spec)


def _pack(planes, frames: int) -> np.ndarray:
    return np.packbits(np.reshape(planes, (frames, -1)), axis=1)


def write_sequence(batch: SequenceBatch, path) -> None:
    """Serialize one sequence; ``read_sequence`` restores it bit-identically."""
    mm = _check_storable(batch.spec)
    m, frames = batch.spec.size_cells, batch.frames
    flags = 1 if batch.truth_occ is not None else 0
    rec = np.empty(frames, dtype=_frame_dtype(m, flags))
    rec["vis"] = _pack([o.vis for o in batch.observations], frames)
    rec["occ"] = _pack([o.occ for o in batch.observations], frames)
    rec["pose"] = [(t.x, t.y, t.theta) for t in batch.rel_transforms]
    if flags:
        rec["truth"] = _pack(batch.truth_occ, frames)
    with open(path, "wb") as fh:
        fh.write(MAGIC + _HEADER.pack(m, mm, frames, flags) + rec.tobytes())


def read_sequence(path) -> SequenceBatch:
    """Load one sequence; any ValueError names the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_sequence(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _decode_sequence(blob: bytes) -> SequenceBatch:
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("bad magic, not a DTSEQ1 sequence")
    if len(blob) < len(MAGIC) + _HEADER.size:
        raise ValueError("truncated header")
    m, mm, frames, flags = _HEADER.unpack_from(blob, len(MAGIC))
    if flags not in (0, 1):
        raise ValueError(f"unknown flags byte {flags:#x}")
    if frames < 1:
        raise ValueError(f"frame count must be positive, got {frames}")
    spec = GridSpec(size_cells=m, cell_size=mm / 1000.0)
    dtype = _frame_dtype(m, flags)
    expected = len(MAGIC) + _HEADER.size + frames * dtype.itemsize
    if len(blob) != expected:
        raise ValueError(f"expected {expected} bytes for {frames} frames, got {len(blob)}")
    rec = np.frombuffer(blob, dtype=dtype, count=frames, offset=len(MAGIC) + _HEADER.size)

    def unpack(name):
        return np.unpackbits(rec[name], axis=1, count=m * m).reshape(frames, m, m)

    vis, occ = unpack("vis"), unpack("occ")
    return SequenceBatch(
        spec=spec,
        observations=tuple(ObservationGrid(vis=v, occ=o) for v, o in zip(vis, occ)),
        rel_transforms=tuple(Pose2(*p) for p in rec["pose"].tolist()),
        truth_occ=tuple(unpack("truth")) if flags else None,
    )


# ------------------------------------------------------------------ manifests


@dataclass(frozen=True)
class DatasetManifest:
    """Index of a dataset directory: the sequence files (bare names inside
    the directory) and, when the writer gave them, the frame rate in Hz and
    the seed the data were generated from. Grid and frame counts are read
    from the files."""

    files: tuple
    frame_rate: float | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "files", tuple(self.files))
        if not self.files:
            raise ValueError("a dataset needs at least one sequence")
        for name in self.files:
            if name in ("", ".", "..") or "/" in name or "\\" in name:
                raise ValueError(
                    f"files entry {name!r} is not a bare file name in the dataset directory"
                )
        if self.frame_rate is not None and not 0.0 < self.frame_rate < math.inf:
            raise ValueError(f"frame_rate must be positive and finite, got {self.frame_rate}")

    def save(self, dirpath) -> None:
        doc = {"files": list(self.files), "frame_rate": self.frame_rate, "seed": self.seed}
        doc = {key: value for key, value in doc.items() if value is not None}
        with open(os.path.join(dirpath, MANIFEST_NAME), "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, dirpath) -> "DatasetManifest":
        """Read ``manifest.json``. Keys it does not use, such as the grid,
        frame_counts, sequence_count and provenance of older manifests, are
        ignored."""
        path = os.path.join(dirpath, MANIFEST_NAME)
        with open(path) as fh:
            try:
                return cls._from_doc(json.load(fh))
            except ValueError as exc:
                raise ValueError(f"manifest {path}: {exc}") from exc

    @classmethod
    def _from_doc(cls, doc) -> "DatasetManifest":
        if not isinstance(doc, dict):
            raise ValueError("manifest is not a JSON object")
        files = json_field(doc, "files", list)
        if not all(isinstance(n, str) for n in files):
            raise ValueError("files must be a list of file names")

        def optional(key, kind):
            return None if doc.get(key) is None else json_field(doc, key, kind)

        return cls(
            files=tuple(files),
            frame_rate=optional("frame_rate", (int, float)),
            seed=optional("seed", int),
        )


def write_dataset(
    dirpath, batches, frame_rate: float | None = None, seed: int | None = None
) -> DatasetManifest:
    batches = list(batches)
    if not batches:
        raise ValueError("no sequences to write")
    spec = batches[0].spec
    for b in batches:
        if b.spec != spec:
            raise ValueError("all sequences in a dataset must share one GridSpec")
    # before the directory exists, so an unstorable grid leaves nothing behind
    _check_storable(spec)
    os.makedirs(dirpath, exist_ok=True)
    files = []
    for i, b in enumerate(batches):
        name = f"seq_{i:05d}.dtseq"
        write_sequence(b, os.path.join(dirpath, name))
        files.append(name)
    manifest = DatasetManifest(files=tuple(files), frame_rate=frame_rate, seed=seed)
    manifest.save(dirpath)
    return manifest


def read_dataset(dirpath) -> tuple:
    """Load a dataset directory: (manifest, list of sequences). Every file
    the manifest lists must exist and share the first file's grid."""
    manifest = DatasetManifest.load(dirpath)
    batches = []
    for name in manifest.files:
        path = os.path.join(dirpath, name)
        if not os.path.isfile(path):
            raise ValueError(f"manifest references missing file {name}")
        batch = read_sequence(path)
        if batches and batch.spec != batches[0].spec:
            raise ValueError(
                f"{name}: grid {batch.spec} does not match {manifest.files[0]}'s "
                f"grid {batches[0].spec}; a dataset shares one grid"
            )
        batches.append(batch)
    return manifest, batches


# ------------------------------------------------------------------- importer


def _parse_rows(path) -> list:
    """Numeric rows from a delimited UTF-8 text file. Commas and whitespace
    both separate fields; blank lines and '#' comments are skipped; bytes
    that are not UTF-8 decode to U+FFFD and so make their row malformed."""
    rows = []
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].replace(",", " ").strip()
            if not text:
                continue
            try:
                rows.append((lineno, [float(tok) for tok in text.split()]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {line.strip()!r}") from None
    return rows


@contextmanager
def _at_row(path, lineno: int):
    """Prefix any ValueError raised inside with ``<path>:<lineno>:``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _check_times(rows, path) -> None:
    """Timestamps (first field of each row) must be finite and strictly
    increasing."""
    prev = -math.inf
    for lineno, (t, *_) in rows:
        if not math.isfinite(t):
            raise ValueError(f"{path}:{lineno}: non-finite timestamp {t}")
        if not t > prev:
            raise ValueError(
                f"{path}:{lineno}: timestamps must be strictly increasing ({prev} then {t})"
            )
        prev = t


def import_scans(
    scan_file,
    odom_file,
    spec: GridSpec,
    tolerance: float | None = None,
) -> SequenceBatch:
    """Build a sequence from planar scan and odometry logs.

    Scan rows are ``timestamp bearing range bearing range ...`` (a bare
    timestamp means a frame with no returns); odometry rows are ``timestamp x
    y theta`` in a fixed world frame. Timestamps must be finite and strictly
    increasing. Each scan is paired with the odometry pose nearest in time;
    pairs further apart than the tolerance are an error. The tolerance
    defaults to half the median scan period, or any pairing for a single
    scan; a given one must be positive (inf accepts any pairing) and is
    checked before the files are read. Egomotion transforms come from
    consecutive paired poses; no ground truth is attached. Every error in a
    row is a ValueError naming its file and line.
    """
    if tolerance is not None and not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    scan_rows = _parse_rows(scan_file)
    odom_rows = _parse_rows(odom_file)
    if not scan_rows:
        raise ValueError(f"{scan_file}: no scan rows")
    if not odom_rows:
        raise ValueError(f"{odom_file}: no odometry rows")
    _check_times(scan_rows, scan_file)
    _check_times(odom_rows, odom_file)
    observations = []
    for lineno, vals in scan_rows:
        with _at_row(scan_file, lineno):
            if len(vals) % 2 != 1:
                raise ValueError("expected a timestamp then (bearing, range) pairs")
            observations.append(encode_observation(list(zip(vals[1::2], vals[2::2])), spec))
    poses = []
    for lineno, vals in odom_rows:
        with _at_row(odom_file, lineno):
            if len(vals) != 4:
                raise ValueError("expected timestamp, x, y, theta")
            poses.append(Pose2(x=vals[1], y=vals[2], theta=vals[3]))
    scan_t = [vals[0] for _, vals in scan_rows]
    odom_t = np.asarray([vals[0] for _, vals in odom_rows])

    if tolerance is None:
        tolerance = float(np.median(np.diff(scan_t))) / 2.0 if len(scan_t) >= 2 else math.inf

    matched = []
    for (lineno, _), t in zip(scan_rows, scan_t):
        i = int(np.searchsorted(odom_t, t))
        best = min(
            (j for j in (i - 1, i) if 0 <= j < len(odom_t)),
            key=lambda j: abs(odom_t[j] - t),
        )
        if abs(odom_t[best] - t) > tolerance:
            raise ValueError(
                f"{scan_file}:{lineno}: scan at t={t} has no odometry within "
                f"{tolerance} (nearest at t={odom_t[best]})"
            )
        matched.append(best)

    transforms = [Pose2.identity()]
    for prev, cur in zip(matched, matched[1:]):
        with _at_row(odom_file, odom_rows[cur][0]):
            transforms.append(se2_relative(poses[prev], poses[cur]))
    return SequenceBatch(
        spec=spec,
        observations=tuple(observations),
        rel_transforms=tuple(transforms),
        truth_occ=None,
    )
