"""End-to-end command line flows: gen, train, eval, render."""

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from gridtrack.cli import build_parser, main
from gridtrack.dataset import read_dataset, write_dataset
from gridtrack.evaluation import f1_horizon
from gridtrack.model import ModelConfig, build, load_checkpoint, rollout, save_checkpoint
from gridtrack.render import frame_panel, plot_curves, write_ppm
from gridtrack.simulator import (
    SequenceBatch,
    moving_straight,
    moving_turning,
    scenario_builders,
    static_crossing,
)
from gridtrack.geometry import GridSpec
from gridtrack.tensor import no_grad
from gridtrack.training import ShowBlankSchedule


def run(*argv):
    return main([str(a) for a in argv])


def gen_args(out, scenario="static-crossing", seed=0, sequences=2, grid=15, frames=6):
    return (
        "gen", "--scenario", scenario, "--seed", seed, "--sequences", sequences,
        "--out", out, "--grid", grid, "--frames", frames,
    )


def dir_bytes(root):
    return {
        name: (root / name).read_bytes() for name in sorted(os.listdir(root))
    }


# ------------------------------------------------------------------------ gen


def test_gen_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert run(*gen_args(out)) == 0
    manifest, batches = read_dataset(out)
    assert manifest.seed == 0
    assert len(batches) == 2
    assert "wrote 2 x 6-frame" in capsys.readouterr().out


def test_gen_deterministic_per_seed(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(*gen_args(a, seed=5)) == 0
    assert run(*gen_args(b, seed=5)) == 0
    assert run(*gen_args(c, seed=6)) == 0
    assert dir_bytes(a) == dir_bytes(b)
    assert dir_bytes(a) != dir_bytes(c)


def test_gen_occlusion_scenario(tmp_path):
    out = tmp_path / "occ"
    assert run("gen", "--scenario", "occlusion", "--seed", "7", "--sequences", "1",
               "--out", out, "--grid", "21") == 0
    _, batches = read_dataset(out)
    assert batches[0].truth_occ is not None
    assert batches[0].is_static()


def test_gen_occlusion_rejects_frames(tmp_path, capsys):
    out = tmp_path / "occ"
    assert run("gen", "--scenario", "occlusion", "--frames", "40", "--sequences", "1",
               "--out", out, "--grid", "21") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--frames" in err
    assert not out.exists()


# sha256 of each sequence file gen writes for --seed 0 --sequences 2 --grid 15
# (and --frames 6 where it applies). The two occlusion files match: the
# script is noise-free, so its seed changes nothing.
GEN_DIGESTS = {
    "static-crossing": (
        "e97eccdefb34b0fce5743dc4ea7963918f059570f505dee1a4aabe50a4c4164d",
        "6ba477fa2857cf7aaef4d23939d3ce7c7fcef5d9791ba5b0c6a0f94bda983b67",
    ),
    "occlusion": (
        "5c967097998576ce201125c8d7a6a297a947c206358f54ec15adadc175437fb4",
        "5c967097998576ce201125c8d7a6a297a947c206358f54ec15adadc175437fb4",
    ),
    "moving-straight": (
        "c0100141eb5adc85a11079e28dd20c4624cde3704faefadab0dd1136aafe3104",
        "70b3064a387f36d91c2e47447275b02c685dbf6b210c96cdacdd1246a72d083d",
    ),
    "moving-turning": (
        "51fded84f6d9c6ac1569910d339c84fef4935809e52ced07fa43d07ab7b2e2f0",
        "e5b4cebb5c6469bb674d8b80d53ba283827e9b8eb682c4eaf4c7d91988c5f7c5",
    ),
}


@pytest.mark.parametrize("scenario", GEN_DIGESTS)
def test_gen_writes_recorded_bytes(tmp_path, scenario):
    """A mismatch means every dataset gen writes for this scenario has
    changed; the manifest records the files and the seed, nothing else."""
    out = tmp_path / scenario
    argv = gen_args(out, scenario=scenario)
    if scenario == "occlusion":
        argv = argv[:-2]  # its length follows from the script
    assert run(*argv) == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert doc == {"files": ["seq_00000.dtseq", "seq_00001.dtseq"], "seed": 0}
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in doc["files"])
    assert got == GEN_DIGESTS[scenario]


def test_gen_rejects_zero_sequences(tmp_path, capsys):
    assert run(*gen_args(tmp_path / "x", sequences=0)) == 2
    assert "--sequences" in capsys.readouterr().err


def test_gen_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit):
        run(*gen_args(tmp_path / "x", scenario="flying-sensor"))


# ---------------------------------------------------------------------- train


@pytest.fixture(scope="module")
def static_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "static"
    assert run(*gen_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def moving_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "moving"
    assert run(*gen_args(out, scenario="moving-straight", frames=4)) == 0
    return out


def train_args(data, ckpt, **over):
    base = {
        "--variant": "RNN16", "--stm": "off", "--show": 3, "--blank": 3,
        "--steps": 2, "--seed": 1, "--data": data, "--out": ckpt,
    }
    base.update(over)
    argv = ["train"]
    for k, v in base.items():
        argv += [k, v]
    return argv


def test_train_writes_checkpoint(static_data, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    assert run(*train_args(static_data, ckpt)) == 0
    model = load_checkpoint(ckpt)
    assert model.config.variant == "RNN16"
    assert model.config.grid.size_cells == 15
    out = capsys.readouterr().out
    assert "trained RNN16 for 2 steps" in out


def test_train_rejects_nondividing_schedule(static_data, tmp_path, capsys):
    assert run(*train_args(static_data, tmp_path / "m.ckpt", **{"--show": 4, "--blank": 3})) == 2
    assert "divide" in capsys.readouterr().err


def test_train_refuses_moving_without_stm(moving_data, tmp_path, capsys):
    args = train_args(moving_data, tmp_path / "m.ckpt", **{"--show": 2, "--blank": 2, "--steps": 1})
    assert run(*args) == 2
    assert "override" in capsys.readouterr().err


def test_train_baseline_override_allows_it(moving_data, tmp_path):
    args = train_args(moving_data, tmp_path / "b.ckpt", **{"--show": 2, "--blank": 2, "--steps": 1})
    assert run(*args, "--baseline-override") == 0
    assert load_checkpoint(tmp_path / "b.ckpt").config.use_stm is False


def test_train_stm_on_moving_data(moving_data, tmp_path):
    args = train_args(moving_data, tmp_path / "s.ckpt",
                      **{"--stm": "on", "--show": 2, "--blank": 2, "--steps": 1})
    assert run(*args) == 0
    assert load_checkpoint(tmp_path / "s.ckpt").config.use_stm is True


def test_train_batches_sequences_with_different_egomotion(tmp_path, capsys):
    spec = GridSpec(size_cells=15, cell_size=0.4)
    data = tmp_path / "mixed"
    write_dataset(data, [moving_straight(seed=0, spec=spec, frames=4),
                         moving_turning(seed=1, spec=spec, frames=4)], frame_rate=8.0, seed=0)
    args = train_args(data, tmp_path / "s.ckpt", **{
        "--stm": "on", "--show": 2, "--blank": 2, "--steps": 1, "--batch-size": 2})
    assert run(*args) == 0
    assert "trained RNN16 for 1 steps" in capsys.readouterr().out


def test_train_rejects_differing_frame_counts(tmp_path, capsys):
    spec = GridSpec(size_cells=15, cell_size=0.2)
    data = tmp_path / "uneven"
    write_dataset(data, [static_crossing(seed=0, spec=spec, frames=6),
                         static_crossing(seed=1, spec=spec, frames=4)], frame_rate=8.0, seed=0)
    assert run(*train_args(data, tmp_path / "m.ckpt")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "differing frame counts" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("flag", ["--checkpoint-every", "--plateau-patience"])
def test_train_rejects_negative_counts(static_data, tmp_path, capsys, flag):
    args = train_args(static_data, tmp_path / "m.ckpt", **{flag: -1})
    assert run(*args) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_learning_rate(static_data, tmp_path, capsys, lr):
    assert run(*train_args(static_data, tmp_path / "m.ckpt", **{"--lr": lr})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "learning_rate" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_reports_divergence(tmp_path, capsys):
    """A finite learning rate large enough to blow up the loss ends train
    with exit 2 and an error line, not a traceback, and writes no
    checkpoint."""
    data = tmp_path / "d"
    assert run(*gen_args(data, grid=11, frames=4)) == 0
    args = train_args(data, tmp_path / "m.ckpt", **{
        "--show": 2, "--blank": 2, "--steps": 3, "--lr": 1e38})
    assert run(*args) == 2
    assert capsys.readouterr().err == "error: training diverged at step 2\n"
    assert not (tmp_path / "m.ckpt").exists()


def test_train_writes_log(static_data, tmp_path):
    log = tmp_path / "loss.log"
    assert run(*train_args(static_data, tmp_path / "m.ckpt"), "--log", str(log)) == 0
    assert len(log.read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("flag, path", [
    ("--out", "afile/model.ckpt"),
    ("--log", "afile/logs/train.log"),
    ("--checkpoint-dir", "afile/ckpt"),
    ("--out", "adir"),
    ("--log", "adir"),
])
def test_train_rejects_an_output_under_a_file_before_the_first_step(static_data, tmp_path,
                                                                     capsys, flag, path):
    """An output that cannot be written, because a file stands where a
    directory must be or a directory where the file must be, stops train
    before its first step."""
    (tmp_path / "afile").write_text("not a directory")
    (tmp_path / "adir").mkdir()
    log = tmp_path / "train.log"
    over = {"--log": log, "--out": tmp_path / "m.ckpt", flag: tmp_path / path}
    argv = train_args(static_data, over.pop("--out"), **over)
    if flag == "--checkpoint-dir":
        argv += ["--checkpoint-every", "1"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    why = "names a directory, not a file" if path == "adir" else "is not a directory"
    assert err.startswith(f"error: {flag} ") and why in err
    assert not log.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert not any((tmp_path / "adir").iterdir())


def test_train_ignores_a_checkpoint_dir_it_never_writes(static_data, tmp_path):
    """With --checkpoint-every 0 no checkpoint is written, so a
    --checkpoint-dir under a file is no reason to refuse the run."""
    (tmp_path / "afile").write_text("not a directory")
    ckpt = tmp_path / "m.ckpt"
    argv = train_args(static_data, ckpt, **{"--checkpoint-dir": tmp_path / "afile/ckpt"})
    assert run(*argv, "--checkpoint-every", "0") == 0
    assert ckpt.exists()


# ----------------------------------------------------------------------- eval


@pytest.fixture(scope="module")
def static_ckpt(static_data, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("cli") / "static.ckpt"
    assert run(*train_args(static_data, ckpt)) == 0
    return ckpt


def test_eval_single_checkpoint(static_data, static_ckpt, tmp_path, capsys):
    out = tmp_path / "ev"
    assert run("eval", "--ckpt", static_ckpt, "--data", static_data,
               "--show", "3", "--blank", "3", "--out", out) == 0
    assert (out / "horizon_static.txt").exists()
    assert (out / "curves.ppm").read_bytes().startswith(b"P6\n")
    stdout = capsys.readouterr().out
    assert "offset\tprecision\trecall\tf1\tn_cells" in stdout


def test_eval_compares_two_checkpoints(static_data, static_ckpt, tmp_path, capsys):
    other = tmp_path / "other.ckpt"
    assert run(*train_args(static_data, other, **{"--seed": 9})) == 0
    out = tmp_path / "cmp"
    assert run("eval", "--ckpt", static_ckpt, "--ckpt", other, "--data", static_data,
               "--show", "3", "--blank", "3", "--out", out,
               "--label", "first", "--label", "second") == 0
    table = (out / "comparison.txt").read_text()
    assert "f1[first]" in table and "f1[second]" in table
    assert (out / "horizon_first.txt").exists()
    assert (out / "horizon_second.txt").exists()
    assert "better at" in capsys.readouterr().out
    _, batches = read_dataset(static_data)
    schedule = ShowBlankSchedule(total_frames=6, show=3, blank=3)
    curves = {
        label: f1_horizon(load_checkpoint(path), batches, schedule)
        for label, path in (("first", static_ckpt), ("second", other))
    }
    want = tmp_path / "want.ppm"
    plot_curves(
        want,
        {label: (c.offsets, c.f1) for label, c in curves.items()},
        title="f1 by prediction offset",
    )
    assert (out / "curves.ppm").read_bytes() == want.read_bytes()


def test_eval_prints_the_same_with_blas_pinned_or_not(tmp_path):
    """Pinning BLAS to one thread lets eval score sequences on several
    threads; the printed curve must not change."""
    data, ckpt, out = tmp_path / "data", tmp_path / "m.ckpt", tmp_path / "ev"
    assert run(*gen_args(data, sequences=4, grid=21, frames=12)) == 0
    spec = read_dataset(data)[1][0].spec
    save_checkpoint(build(ModelConfig.for_variant("GRU3DilConv_16", spec), seed=0), ckpt)
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    stdout = []
    for env in ({**unset, **dict.fromkeys(blas, "1")}, unset):
        proc = subprocess.run(
            [sys.executable, "-m", "gridtrack.cli", "eval", "--ckpt", str(ckpt),
             "--data", str(data), "--show", "3", "--blank", "3", "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout)
    assert "offset\tprecision" in stdout[0]
    assert stdout[0] == stdout[1]


def test_eval_rejects_bad_threshold(static_data, static_ckpt, tmp_path, capsys):
    assert run("eval", "--ckpt", static_ckpt, "--data", static_data,
               "--show", "3", "--blank", "3", "--threshold", "1.5",
               "--out", tmp_path / "x") == 2
    assert "threshold" in capsys.readouterr().err


def test_eval_rejects_grid_mismatch(static_ckpt, tmp_path, capsys):
    other = tmp_path / "grid11"
    assert run(*gen_args(other, grid=11)) == 0
    assert run("eval", "--ckpt", static_ckpt, "--data", other,
               "--show", "3", "--blank", "3", "--out", tmp_path / "x") == 2
    assert "does not match the dataset grid" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_eval_rejects_three_checkpoints(static_data, static_ckpt, tmp_path, capsys):
    assert run("eval", "--ckpt", static_ckpt, "--ckpt", static_ckpt,
               "--ckpt", static_ckpt, "--data", static_data,
               "--show", "3", "--blank", "3", "--out", tmp_path / "x") == 2
    assert "at most two" in capsys.readouterr().err


def test_eval_rejects_manifest_missing_key(static_data, static_ckpt, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(static_data, data)
    doc = json.loads((data / "manifest.json").read_text())
    del doc["files"]
    (data / "manifest.json").write_text(json.dumps(doc))
    assert run("eval", "--ckpt", static_ckpt, "--data", data,
               "--show", "3", "--blank", "3", "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "manifest.json" in err and "files" in err


def test_eval_rejects_manifest_entry_outside_dataset(static_data, static_ckpt, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(static_data, data)
    shutil.copytree(static_data, tmp_path / "other")
    doc = json.loads((data / "manifest.json").read_text())
    doc["files"][0] = "../other/seq_00000.dtseq"
    (data / "manifest.json").write_text(json.dumps(doc))
    assert run("eval", "--ckpt", static_ckpt, "--data", data,
               "--show", "3", "--blank", "3", "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "manifest.json" in err and "../other/seq_00000.dtseq" in err


@pytest.mark.parametrize("name", ["layer0.wz.kernel", "decoder.bias"])
def test_eval_and_render_reject_non_finite_checkpoint(static_data, tmp_path, capsys, name):
    """A checkpoint with one NaN weight and a valid checksum stops eval and
    render with exit 2 and an error naming the file and the parameter."""
    _, batches = read_dataset(static_data)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", batches[0].spec), seed=0)
    dict(model.named_parameters())[name].data.flat[0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(model, ckpt)
    for command, *extra in (("eval", "--show", "3", "--blank", "3"), ("render",)):
        assert run(command, *extra, "--ckpt", ckpt, "--data", static_data,
                   "--out", tmp_path / command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{ckpt}: non-finite values in {name}" in err


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_eval_and_render_reject_an_out_at_or_under_a_file_before_scoring(
        static_data, static_ckpt, tmp_path, capsys, monkeypatch, out):
    """An --out that cannot be a directory stops eval and render before they
    load a checkpoint, so no scoring is lost to it."""
    def never(*args, **kwargs):
        raise AssertionError("called before --out was checked")

    monkeypatch.setattr("gridtrack.cli.f1_horizon", never)
    monkeypatch.setattr("gridtrack.cli.load_checkpoint", never)
    (tmp_path / "afile").write_text("not a directory")
    for command, *extra in (("eval", "--show", "3", "--blank", "3"), ("render",)):
        assert run(command, *extra, "--ckpt", static_ckpt, "--data", static_data,
                   "--out", tmp_path / out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "is not a directory" in err
    assert (tmp_path / "afile").read_text() == "not a directory"


def test_eval_rejects_checkpoint_with_nan_max_range(static_data, tmp_path, capsys):
    """JSON decoding accepts NaN, so a well-checksummed checkpoint can claim
    ``"max_range": NaN``; eval stops with exit 2 and an error naming it."""
    _, batches = read_dataset(static_data)
    grid = dataclasses.replace(batches[0].spec)
    object.__setattr__(grid, "max_range", float("nan"))  # what GridSpec now refuses
    ckpt = tmp_path / "nan_range.ckpt"
    save_checkpoint(build(ModelConfig.for_variant("GRU3DilConv_16", grid), seed=0), ckpt)
    assert b'"max_range": NaN' in ckpt.read_bytes()
    with pytest.raises(ValueError, match="max_range must be positive, got nan"):
        load_checkpoint(ckpt)
    assert run("eval", "--show", "3", "--blank", "3", "--ckpt", ckpt, "--data", static_data,
               "--out", tmp_path / "eval") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ckpt) in err and "max_range" in err


# --------------------------------------------------------------------- render


def test_render_writes_frames(static_data, static_ckpt, tmp_path):
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", out, "--scale", "2") == 0
    frames = sorted(p.name for p in out.glob("frame_*.ppm"))
    assert frames == [f"frame_{f:03d}.ppm" for f in range(6)]
    assert not list(out.glob("hidden_*.ppm"))
    blob = (out / "frame_000.ppm").read_bytes()
    assert blob.startswith(b"P6\n")


def test_render_hidden_tiles(static_data, static_ckpt, tmp_path):
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", out, "--scale", "2", "--hidden") == 0
    assert len(list(out.glob("hidden_*.ppm"))) == 6


def test_render_overlay_requires_truth(static_ckpt, tmp_path, capsys):
    spec = GridSpec(size_cells=15, cell_size=0.2)
    src = static_crossing(seed=0, spec=spec, frames=6)
    bare = SequenceBatch(
        spec=src.spec, observations=src.observations, rel_transforms=src.rel_transforms
    )
    data = tmp_path / "barren"
    write_dataset(data, [bare], frame_rate=8.0, seed=0)
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", data,
               "--out", out, "--overlay") == 2
    assert "no ground truth" in capsys.readouterr().err
    # without the overlay flag the same dataset renders fine
    assert run("render", "--ckpt", static_ckpt, "--data", data, "--out", out) == 0


def test_render_sequence_out_of_range(static_data, static_ckpt, tmp_path, capsys):
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", tmp_path / "x", "--sequence", "7") == 2
    assert "out of range" in capsys.readouterr().err


def test_render_rejects_zero_scale(static_data, static_ckpt, tmp_path, capsys):
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", out, "--scale", "0") == 2
    assert "scale must be at least 1" in capsys.readouterr().err
    assert not list(out.glob("*.ppm"))
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["7", "0", "1", "-0.5", "nan"])
def test_render_rejects_bad_threshold(static_data, static_ckpt, tmp_path, capsys, threshold):
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", out, "--threshold", threshold) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def test_render_rejects_grid_mismatch(static_ckpt, tmp_path, capsys):
    other = tmp_path / "grid11"
    assert run(*gen_args(other, grid=11)) == 0
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", other, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(GridSpec(15, 0.2)) in err and str(GridSpec(11, 0.2)) in err
    assert not out.exists()


def test_render_blanked_schedule(static_data, static_ckpt, tmp_path):
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", static_ckpt, "--data", static_data,
               "--out", out, "--show", "3", "--blank", "3") == 0
    assert len(list(out.glob("frame_*.ppm"))) == 6


def test_render_matches_rollout_with_egomotion_warp(tmp_path):
    """Render's panels come from the shared rollout, including the warp of
    the recurrent state under a turning sensor's egomotion."""
    spec = GridSpec(size_cells=15, cell_size=0.2)
    batch = moving_turning(seed=3, spec=spec, frames=8)
    assert not batch.is_static()
    data = tmp_path / "turning"
    write_dataset(data, [batch], frame_rate=8.0, seed=3)
    ckpt = tmp_path / "stm.ckpt"
    save_checkpoint(
        build(ModelConfig.for_variant("GRU3DilConv_16", spec, use_stm=True), seed=4), ckpt
    )
    out = tmp_path / "imgs"
    assert run("render", "--ckpt", ckpt, "--data", data, "--out", out,
               "--show", "2", "--blank", "2") == 0

    model = load_checkpoint(ckpt)
    _, (seq,) = read_dataset(data)
    schedule = ShowBlankSchedule(total_frames=8, show=2, blank=2)

    def panels(m):
        with no_grad():
            preds = rollout(m, seq, schedule)
        return [
            frame_panel(seq.observations[f], p.data[0, 0], truth=seq.truth_occ[f])
            for f, p in enumerate(preds)
        ]

    expected = panels(model)
    assert len(list(out.glob("frame_*.ppm"))) == len(expected) == 8
    for f, panel in enumerate(expected):
        write_ppm(tmp_path / "want.ppm", panel)
        assert (out / f"frame_{f:03d}.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()
    # the same weights without the warp render differently, so the byte
    # equality above covers the warp path
    no_warp = dataclasses.replace(
        model, config=dataclasses.replace(model.config, use_stm=False)
    )
    assert any(not np.array_equal(a, b) for a, b in zip(expected, panels(no_warp)))


# ---------------------------------------------------------------------- misc


def test_quick_start_pipeline_runs_as_written(tmp_path, monkeypatch):
    """README's quick start at 11x11: its relative output paths name
    directories that do not exist yet."""
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--scenario", "static-crossing", "--grid", 11, "--frames", 4,
               "--sequences", 2, "--seed", 0, "--out", "data/train") == 0
    assert run("train", "--data", "data/train", "--variant", "RNN16", "--show", 2,
               "--blank", 2, "--steps", 2, "--out", "run/model.ckpt",
               "--log", "logs/train.log") == 0
    assert load_checkpoint("run/model.ckpt").config.grid.size_cells == 11
    assert len((tmp_path / "logs" / "train.log").read_text().splitlines()) == 2
    assert run("eval", "--ckpt", "run/model.ckpt", "--data", "data/train",
               "--show", 2, "--blank", 2, "--out", "eval_out") == 0
    assert sorted(os.listdir("eval_out")) == ["curves.ppm", "horizon_model.txt"]
    assert run("render", "--ckpt", "run/model.ckpt", "--data", "data/train", "--sequence", 0,
               "--show", 2, "--blank", 2, "--overlay", "--out", "render_out") == 0
    assert sorted(os.listdir("render_out")) == [f"frame_{f:03d}.ppm" for f in range(4)]


def test_parser_accepts_every_scenario():
    parser = build_parser()
    for name in scenario_builders():
        assert parser.parse_args(["gen", "--scenario", name, "--out", "x"]).scenario == name


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gridtrack.cli", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "train" in proc.stdout
