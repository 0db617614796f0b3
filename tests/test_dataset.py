"""Sequence codec round trips, manifest integrity, the scan importer, and
byte-level fuzzing of the two binary decoders (.dtseq and .ckpt)."""

import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridtrack.dataset import (
    MAGIC,
    DatasetManifest,
    import_scans,
    read_dataset,
    read_sequence,
    write_dataset,
    write_sequence,
)
from gridtrack.geometry import (
    GridSpec,
    ObservationGrid,
    Pose2,
    encode_observation,
    se2_apply,
)
from gridtrack.model import Model, ModelConfig, build, load_checkpoint, save_checkpoint
from gridtrack.simulator import SequenceBatch, moving_turning, static_crossing

SPEC = GridSpec(size_cells=15, cell_size=0.3)


def assert_batches_identical(a: SequenceBatch, b: SequenceBatch):
    assert a.spec == b.spec
    assert a.frames == b.frames
    for f in range(a.frames):
        assert np.array_equal(a.observations[f].vis, b.observations[f].vis)
        assert np.array_equal(a.observations[f].occ, b.observations[f].occ)
        ta, tb = a.rel_transforms[f], b.rel_transforms[f]
        assert (ta.x, ta.y, ta.theta) == (tb.x, tb.y, tb.theta)
    if a.truth_occ is None:
        assert b.truth_occ is None
    else:
        for f in range(a.frames):
            assert np.array_equal(a.truth_occ[f], b.truth_occ[f])


def random_batch(rng, m=7, with_truth=None):
    frames = int(rng.integers(1, 7))
    spec = GridSpec(size_cells=m, cell_size=float(rng.integers(1, 500)) / 1000.0)
    obs, rel, truth = [], [], []
    for f in range(frames):
        vis = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
        occ = vis & rng.integers(0, 2, size=(m, m), dtype=np.uint8)
        obs.append(ObservationGrid(vis=vis, occ=occ))
        if f == 0:
            rel.append(Pose2.identity())
        else:
            rel.append(
                Pose2(
                    x=float(rng.normal()),
                    y=float(rng.normal()),
                    theta=float(rng.uniform(-np.pi, np.pi)),
                )
            )
        truth.append(rng.integers(0, 2, size=(m, m), dtype=np.uint8))
    if with_truth is None:
        with_truth = bool(rng.integers(0, 2))
    return SequenceBatch(
        spec=spec,
        observations=tuple(obs),
        rel_transforms=tuple(rel),
        truth_occ=tuple(truth) if with_truth else None,
    )


# ----------------------------------------------------------------- core codec


def test_round_trip_static_batch(tmp_path):
    batch = static_crossing(seed=4, spec=SPEC, frames=8)
    path = tmp_path / "s.dtseq"
    write_sequence(batch, path)
    assert_batches_identical(batch, read_sequence(path))


def test_round_trip_moving_batch_with_truth(tmp_path):
    batch = moving_turning(seed=4, spec=SPEC, frames=8)
    assert batch.truth_occ is not None
    assert not batch.is_static()
    path = tmp_path / "m.dtseq"
    write_sequence(batch, path)
    assert_batches_identical(batch, read_sequence(path))


def test_round_trip_without_truth(tmp_path):
    src = static_crossing(seed=4, spec=SPEC, frames=6)
    batch = SequenceBatch(
        spec=src.spec, observations=src.observations, rel_transforms=src.rel_transforms
    )
    path = tmp_path / "nt.dtseq"
    write_sequence(batch, path)
    back = read_sequence(path)
    assert back.truth_occ is None
    assert_batches_identical(batch, back)


def test_round_trip_many_random_batches(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "r.dtseq"
    for _ in range(1000):
        batch = random_batch(rng)
        write_sequence(batch, path)
        back = read_sequence(path)
        assert_batches_identical(batch, back)
        # rewriting what was read reproduces the same bytes
        blob = path.read_bytes()
        write_sequence(back, path)
        assert path.read_bytes() == blob


def test_plane_packing_arithmetic(tmp_path):
    rng = np.random.default_rng(1)
    m = 101
    spec = GridSpec(size_cells=m, cell_size=0.2)
    vis = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
    obs = ObservationGrid(vis=vis, occ=vis & rng.integers(0, 2, size=(m, m), dtype=np.uint8))
    batch = SequenceBatch(
        spec=spec,
        observations=(obs,) * 3,
        rel_transforms=(Pose2.identity(),) * 3,
        truth_occ=(vis,) * 3,
    )
    path = tmp_path / "p.dtseq"
    write_sequence(batch, path)
    plane = (101 * 101 + 7) // 8
    assert plane == 1276
    assert path.stat().st_size == 6 + 11 + 3 * (2 * plane + 24 + plane)


def test_read_rejects_even_grid(tmp_path):
    path = tmp_path / "even.dtseq"
    path.write_bytes(MAGIC + struct.pack("<HIIB", 8, 300, 1, 0) + b"\x00" * 64)
    with pytest.raises(ValueError, match="odd"):
        read_sequence(path)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dtseq"
    path.write_bytes(b"NOTSEQ" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        read_sequence(path)


def test_read_rejects_truncation(tmp_path):
    batch = static_crossing(seed=4, spec=SPEC, frames=6)
    path = tmp_path / "t.dtseq"
    write_sequence(batch, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(ValueError, match="expected"):
        read_sequence(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="expected"):
        read_sequence(path)


def test_read_rejects_unknown_flags(tmp_path):
    path = tmp_path / "f.dtseq"
    path.write_bytes(MAGIC + struct.pack("<HIIB", 7, 300, 1, 9) + b"\x00" * 64)
    with pytest.raises(ValueError, match="flags"):
        read_sequence(path)


def _patched(blob: bytes, pos: int, raw: bytes) -> bytes:
    return blob[:pos] + raw + blob[pos + len(raw) :]


# Byte patches of an 11x11 file: the header holds the grid side at byte 6,
# and frame 0's record starts at byte 17 with 16-byte visibility and
# occupancy planes, then the pose.
@pytest.mark.parametrize(
    "patch, message",
    [
        (lambda b: _patched(b, 6, struct.pack("<H", 10)), "size_cells must be odd and >= 3, got 10"),
        (lambda b: _patched(b, 17, b"\x00" * 16 + b"\xff"),
         "occ asserts occupancy in unobserved cells"),
        (lambda b: _patched(b, 49, struct.pack("<d", float("nan"))), "non-finite pose (nan, "),
    ],
    ids=["even-side", "occupied-unobserved", "nan-pose"],
)
def test_read_sequence_errors_name_the_file(tmp_path, patch, message):
    path = tmp_path / "bad.dtseq"
    write_sequence(moving_turning(seed=4, spec=GridSpec(size_cells=11, cell_size=0.4), frames=4), path)
    path.write_bytes(patch(path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_sequence(path)


def test_write_rejects_fractional_millimeters(tmp_path):
    spec = GridSpec(size_cells=7, cell_size=0.1234)
    obs = ObservationGrid(vis=np.zeros((7, 7), np.uint8), occ=np.zeros((7, 7), np.uint8))
    batch = SequenceBatch(spec=spec, observations=(obs,), rel_transforms=(Pose2.identity(),))
    with pytest.raises(ValueError, match="millimeter"):
        write_sequence(batch, tmp_path / "x.dtseq")


def test_write_rejects_custom_range_cap(tmp_path):
    spec = GridSpec(size_cells=7, cell_size=0.3, max_range=1.0)
    obs = ObservationGrid(vis=np.zeros((7, 7), np.uint8), occ=np.zeros((7, 7), np.uint8))
    batch = SequenceBatch(spec=spec, observations=(obs,), rel_transforms=(Pose2.identity(),))
    with pytest.raises(ValueError, match="max_range"):
        write_sequence(batch, tmp_path / "x.dtseq")


# ------------------------------------------------------------------ manifests


def make_dataset(tmp_path, n=3):
    batches = [static_crossing(seed=s, spec=SPEC, frames=6) for s in range(n)]
    manifest = write_dataset(tmp_path, batches, frame_rate=8.0, seed=0)
    return batches, manifest


def test_dataset_round_trip(tmp_path):
    batches, manifest = make_dataset(tmp_path)
    loaded, back = read_dataset(tmp_path)
    assert loaded == manifest
    assert len(back) == len(batches)
    for a, b in zip(batches, back):
        assert_batches_identical(a, b)


def test_manifest_fields(tmp_path):
    _, manifest = make_dataset(tmp_path, n=2)
    assert manifest.seed == 0
    assert manifest.files == ("seq_00000.dtseq", "seq_00001.dtseq")
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(doc) == ["files", "frame_rate", "seed"]


def test_manifest_verify_missing_file(tmp_path):
    make_dataset(tmp_path)
    (tmp_path / "seq_00001.dtseq").unlink()
    with pytest.raises(ValueError, match="missing file"):
        read_dataset(tmp_path)


def test_manifest_verify_header_mismatch(tmp_path):
    make_dataset(tmp_path)
    other = static_crossing(seed=9, spec=GridSpec(size_cells=11, cell_size=0.3), frames=6)
    write_sequence(other, tmp_path / "seq_00001.dtseq")
    with pytest.raises(ValueError, match="does not match seq_00000.dtseq's grid"):
        read_dataset(tmp_path)


@pytest.mark.parametrize("form", ["absolute", "parent-relative"])
def test_read_dataset_rejects_entries_outside_the_directory(tmp_path, form):
    """A files entry must be a bare name in the dataset directory, even when
    the path it spells names a valid sequence elsewhere."""
    make_dataset(tmp_path / "other", n=1)
    data = tmp_path / "data"
    make_dataset(data, n=1)
    entry = {
        "absolute": str(tmp_path / "other" / "seq_00000.dtseq"),
        "parent-relative": "../other/seq_00000.dtseq",
    }[form]
    doc = json.loads((data / "manifest.json").read_text())
    doc["files"] = [entry]
    (data / "manifest.json").write_text(json.dumps(doc))
    want = re.escape(f"manifest {data / 'manifest.json'}: files entry {entry!r}")
    with pytest.raises(ValueError, match=want):
        read_dataset(data)


def test_manifest_in_parent_format_loads(tmp_path):
    """A manifest that also lists the grid, frame counts and sequence count,
    as manifests once did, still loads; the files' headers decide."""
    batches, manifest = make_dataset(tmp_path, n=2)
    (tmp_path / "manifest.json").write_text(json.dumps({
        "files": ["seq_00000.dtseq", "seq_00001.dtseq"],
        "frame_counts": [6, 6],
        "frame_rate": 8.0,
        "grid": {"cell_size": 0.3, "size_cells": 15},
        "provenance": "synthetic",
        "seed": 0,
        "sequence_count": 2,
    }))
    loaded, back = read_dataset(tmp_path)
    assert loaded == manifest
    for a, b in zip(batches, back):
        assert_batches_identical(a, b)


def test_manifest_validation():
    good = dict(frame_rate=8.0, files=("a.dtseq",), seed=1)
    DatasetManifest(**good)
    DatasetManifest(**{**good, "seed": None})
    DatasetManifest(**{**good, "frame_rate": None})
    with pytest.raises(ValueError, match="at least one"):
        DatasetManifest(**{**good, "files": ()})
    for name in (".", "..", "sub/a.dtseq", "sub\\a.dtseq"):
        with pytest.raises(ValueError, match="bare file name"):
            DatasetManifest(**{**good, "files": (name,)})
    for rate in (0.0, -8.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="frame_rate"):
            DatasetManifest(**{**good, "frame_rate": rate})


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


MANIFEST_EDITS = {
    "no-files": _drop("files"),
    "frame_rate-string": _set("frame_rate", "8"),
    "frame_rate-negative": _set("frame_rate", -8.0),
    "file-not-string": _set("files", [7]),
    "seed-string": _set("seed", "0"),
    "top-level-list": lambda doc: [doc],
}


@pytest.mark.parametrize("edit", MANIFEST_EDITS.values(), ids=MANIFEST_EDITS.keys())
def test_manifest_load_rejects_malformed_keys(tmp_path, edit):
    make_dataset(tmp_path, n=1)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match="manifest.json"):
        DatasetManifest.load(tmp_path)


def test_manifest_without_frame_rate_loads(tmp_path):
    """The frame rate is recorded only when the writer gives one."""
    make_dataset(tmp_path, n=1)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(_drop("frame_rate")(json.loads(path.read_text()))))
    manifest = DatasetManifest.load(tmp_path)
    assert manifest.frame_rate is None
    assert manifest.seed == 0


def test_manifest_load_ignores_old_provenance_key(tmp_path):
    """Older manifests also said where the data came from; a seeded one
    marked imported once failed to load."""
    _, manifest = make_dataset(tmp_path, n=1)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "provenance": "imported"}))
    assert DatasetManifest.load(tmp_path) == manifest


def test_write_dataset_rejects_mixed_grids(tmp_path):
    a = static_crossing(seed=0, spec=SPEC, frames=4)
    b = static_crossing(seed=0, spec=GridSpec(size_cells=11, cell_size=0.3), frames=4)
    with pytest.raises(ValueError, match="share one GridSpec"):
        write_dataset(tmp_path, [a, b], frame_rate=8.0, seed=0)


def test_write_dataset_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no sequences"):
        write_dataset(tmp_path, [], frame_rate=8.0, seed=0)


def test_write_dataset_rejects_unstorable_grid_before_creating_the_directory(tmp_path):
    batch = static_crossing(seed=0, spec=GridSpec(size_cells=11, cell_size=0.1234), frames=4)
    out = tmp_path / "d2"
    with pytest.raises(ValueError, match="not a whole number of millimeters"):
        write_dataset(out, [batch], frame_rate=8.0, seed=0)
    assert not out.exists()


# ------------------------------------------------------------------- importer


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_import_static_sensor(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(
        scan,
        [
            "0.0 0.0 1.0 1.5707963267948966 1.2",
            "0.125 0.0 1.0",
            "0.25 3.141592653589793 0.9",
        ],
    )
    write_lines(odom, ["0.0 2.0 3.0 0.5", "0.125 2.0 3.0 0.5", "0.25 2.0 3.0 0.5"])
    batch = import_scans(scan, odom, SPEC)
    assert batch.frames == 3
    assert batch.is_static()
    assert batch.truth_occ is None
    expected = encode_observation([(0.0, 1.0), (1.5707963267948966, 1.2)], SPEC)
    assert np.array_equal(batch.observations[0].vis, expected.vis)
    assert np.array_equal(batch.observations[0].occ, expected.occ)
    for obs in batch.observations:
        assert (obs.occ <= obs.vis).all()


def test_import_unit_translation_transform(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0 0.0 1.0", "0.125 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "0.125 1.0 0.0 0.0"])
    batch = import_scans(scan, odom, SPEC)
    rel = batch.rel_transforms[1]
    # the point at (1,0) in the first frame lands at the second frame's origin
    moved = se2_apply(rel, np.array([[1.0, 0.0]]))
    assert np.allclose(moved, [[0.0, 0.0]], atol=1e-12)
    assert rel.x == -1.0 and rel.y == 0.0 and rel.theta == 0.0


def test_import_zero_beam_scan(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0", "0.125 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "0.125 0.0 0.0 0.0"])
    batch = import_scans(scan, odom, SPEC)
    assert batch.observations[0].vis.sum() == 0
    assert batch.observations[0].occ.sum() == 0
    assert batch.observations[1].vis.sum() > 0


def test_import_commas_and_comments(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["# a header comment", "0.0, 0.0, 1.0", "", "0.125, 0.0, 1.0"])
    write_lines(odom, ["0.0, 0.0, 0.0, 0.0", "0.125, 0.1, 0.0, 0.0  # moved"])
    batch = import_scans(scan, odom, SPEC)
    assert batch.frames == 2
    assert batch.rel_transforms[1].x == -0.1


def test_import_nearest_pose_association(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0 0.0 1.0", "1.0 0.0 1.0"])
    # denser odometry; nearest to t=1.0 is the 0.98 row
    write_lines(
        odom,
        ["-0.02 0.0 0.0 0.0", "0.4 5.0 0.0 0.0", "0.98 2.0 0.0 0.0", "1.7 9.0 0.0 0.0"],
    )
    batch = import_scans(scan, odom, SPEC)
    assert batch.rel_transforms[1].x == -2.0


def test_import_tolerance_violation(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0 0.0 1.0", "0.125 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "5.0 1.0 0.0 0.0"])
    with pytest.raises(ValueError, match="no odometry within"):
        import_scans(scan, odom, SPEC)
    # widening the tolerance accepts the pairing; inf accepts any pairing
    for tolerance in (10.0, math.inf):
        assert import_scans(scan, odom, SPEC, tolerance=tolerance).frames == 2


@pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1.0])
def test_import_rejects_a_bad_tolerance(tmp_path, tolerance):
    """The scan at t=1 s is 1 s from its nearest pose: such values must not
    let it pair unchecked, and they are refused before the files are read."""
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0 0.0 1.0", "1.0 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "50.0 1.0 0.0 0.0"])
    with pytest.raises(ValueError, match="no odometry within 0.5"):
        import_scans(scan, odom, SPEC)
    for scan_file in (scan, tmp_path / "missing.txt"):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            import_scans(scan_file, odom, SPEC, tolerance=tolerance)


def test_import_malformed_rows(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(odom, ["0.0 0.0 0.0 0.0"])
    write_lines(scan, ["0.0 0.5"])
    with pytest.raises(ValueError, match="pairs"):
        import_scans(scan, odom, SPEC)
    write_lines(scan, ["0.0 abc 1.0"])
    with pytest.raises(ValueError, match="malformed"):
        import_scans(scan, odom, SPEC)
    write_lines(scan, ["0.0 0.0 1.0"])
    write_lines(odom, ["0.0 1.0 2.0"])
    with pytest.raises(ValueError, match="theta"):
        import_scans(scan, odom, SPEC)


def test_import_rejects_nonincreasing_timestamps(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.2 0.0 1.0", "0.1 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "0.3 0.0 0.0 0.0"])
    with pytest.raises(ValueError, match="strictly increasing"):
        import_scans(scan, odom, SPEC)


@pytest.mark.parametrize(
    "which, lines, line, message",
    [
        ("scan", ["0.0 0.0 1.0", "inf 0.0 1.0"], 2, "non-finite timestamp inf"),
        ("scan", ["nan 0.0 1.0"], 1, "non-finite timestamp nan"),
        ("odom", ["0.0 0.0 0.0 0.0", "inf 0.0 0.0 0.0"], 2, "non-finite timestamp inf"),
        ("scan", ["0.0 0.0 1.0", "# gap", "0.125 0.0 -1.0"], 3, "invalid range -1.0"),
        ("scan", ["0.0 nan 1.0"], 1, "non-finite bearing nan"),
        ("odom", ["0.0 0.0 0.0 inf"], 1, "non-finite pose (0.0, 0.0, inf)"),
        ("odom", ["0.0 1e308 0.0 0.0", "0.125 -1e308 0.0 0.0"], 2, "non-finite pose"),
        ("scan", ["0.0 0.0 1.0", "0.0 0.0 1.0"], 2, "strictly increasing"),
    ],
    ids=["scan-inf-time", "scan-nan-time", "odom-inf-time", "negative-range",
         "nan-bearing", "inf-theta", "overflowing-motion", "repeated-time"],
)
def test_import_row_errors_name_file_and_line(tmp_path, which, lines, line, message):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["0.0 0.0 1.0", "0.125 0.0 1.0"])
    write_lines(odom, ["0.0 0.0 0.0 0.0", "0.125 0.0 0.0 0.0"])
    path = scan if which == "scan" else odom
    write_lines(path, lines)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".*" + re.escape(message)):
        import_scans(scan, odom, SPEC)


_token = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-0", "#", ",", ""]),
    st.text(max_size=3),
)


@st.composite
def _log(draw, fields):
    """A valid log (rows of a timestamp then a ``fields``-drawn count of
    finite numbers) with up to three tokens replaced, inserted or deleted."""
    rows = [
        [repr(0.125 * i)] + [repr(draw(st.floats(0.0, 3.0))) for _ in range(draw(fields))]
        for i in range(draw(st.integers(1, 4)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(row)))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or at == len(row):
            row.insert(at, draw(_token))
        elif edit == "replace":
            row[at] = draw(_token)
        else:
            del row[at]
    return "\n".join(" ".join(row) for row in rows)


@given(
    scan_text=_log(st.integers(0, 3).map(lambda beams: 2 * beams)),
    odom_text=_log(st.just(3)),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_import_fuzzed_rows_give_a_sequence_or_a_file_error(tmp_path, scan_text, odom_text):
    """Valid logs with arbitrary tokens replaced, inserted or deleted yield a
    SequenceBatch or a ValueError naming one of the two files, never another
    exception."""
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    scan.write_text(scan_text, encoding="utf-8")
    odom.write_text(odom_text, encoding="utf-8")
    try:
        batch = import_scans(scan, odom, SPEC)
    except ValueError as exc:
        assert str(scan) in str(exc) or str(odom) in str(exc), str(exc)
    else:
        assert isinstance(batch, SequenceBatch)
        assert batch.frames == len(batch.rel_transforms)


def test_import_empty_files(tmp_path):
    scan, odom = tmp_path / "scan.txt", tmp_path / "odom.txt"
    write_lines(scan, ["# nothing"])
    write_lines(odom, ["0.0 0.0 0.0 0.0"])
    with pytest.raises(ValueError, match="no scan rows"):
        import_scans(scan, odom, SPEC)
    write_lines(scan, ["0.0 0.0 1.0"])
    write_lines(odom, ["# nothing"])
    with pytest.raises(ValueError, match="no odometry rows"):
        import_scans(scan, odom, SPEC)


# ------------------------------------------------------------- decoder fuzzing

# One byte edit: (kind, position, byte). Positions wrap around the file.
_byte_edit = st.tuples(
    st.sampled_from(["flip", "overwrite", "truncate", "insert"]),
    st.integers(0, 2**20),
    st.integers(0, 255),
)


def apply_byte_edit(blob: bytes, edit) -> bytes:
    kind, pos, byte = edit
    pos %= len(blob)
    if kind == "flip":
        return blob[:pos] + bytes([blob[pos] ^ (1 << (byte % 8))]) + blob[pos + 1 :]
    if kind == "overwrite":
        return blob[:pos] + bytes([byte]) + blob[pos + 1 :]
    if kind == "truncate":
        return blob[:pos]
    return blob[:pos] + bytes([byte]) + blob[pos:]


@given(edit=_byte_edit)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_read_sequence_fuzzed_bytes_give_a_sequence_or_a_value_error(tmp_path, edit):
    """A single flipped, overwritten, cut or inserted byte in a .dtseq file
    loads as a SequenceBatch or raises a ValueError naming the file, never
    another exception. (Without a checksum some edits load as a different
    sequence.)"""
    path = tmp_path / "seq.dtseq"
    spec = GridSpec(size_cells=11, cell_size=0.4)
    write_sequence(moving_turning(seed=4, spec=spec, frames=4), path)
    path.write_bytes(apply_byte_edit(path.read_bytes(), edit))
    try:
        batch = read_sequence(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(batch, SequenceBatch)


@given(edit=_byte_edit)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_checkpoint_fuzzed_bytes_give_a_model_or_a_value_error(tmp_path, edit):
    """A single flipped, overwritten, cut or inserted byte in a .ckpt file
    loads as a Model or raises a ValueError naming the file, never another
    exception."""
    path = tmp_path / "model.ckpt"
    grid = GridSpec(size_cells=9, cell_size=0.5)
    save_checkpoint(build(ModelConfig.for_variant("RNN16", grid), seed=0), path)
    path.write_bytes(apply_byte_edit(path.read_bytes(), edit))
    try:
        model = load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(model, Model)
