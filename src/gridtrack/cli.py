"""Command line pipeline: generate corpora, train models, evaluate them, and
render frame-by-frame pixmaps.

Every command is deterministic given its arguments and seeds, and exits 0
only when all requested outputs were written.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dataset import read_dataset, write_dataset
from .evaluation import compare_models, f1_horizon
from .geometry import GridSpec
from .model import ModelConfig, build, load_checkpoint, save_checkpoint, unroll, variant_names
from .render import frame_panel, hidden_tiles, plot_curves, write_ppm
from .simulator import scenario_builders
from .tensor import no_grad
from .training import OPTIMIZERS, ShowBlankSchedule, TrainConfig, train


def _uniform_frame_count(batches) -> int:
    counts = {b.frames for b in batches}
    if len(counts) != 1:
        raise ValueError(
            f"sequences have differing frame counts {sorted(counts)}; "
            "one shared show/blank schedule needs a common length"
        )
    return counts.pop()


def _check_directory(path, option: str) -> None:
    """Raise ValueError, naming ``option``, unless ``path`` is a directory
    or ``os.makedirs`` could make it one: its nearest existing ancestor must
    be a directory."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"{option}: {probe} exists and is not a directory")


# ------------------------------------------------------------------- commands


def cmd_gen(args) -> int:
    if args.sequences < 1:
        raise ValueError("--sequences must be at least 1")
    spec = GridSpec(size_cells=args.grid, cell_size=args.cell_size)
    builder = scenario_builders()[args.scenario]
    kwargs = {"frame_rate": args.frame_rate}
    if args.frames is not None:
        if args.scenario == "occlusion":
            raise ValueError(
                "--frames does not apply to --scenario occlusion; "
                "its length follows from the occlusion script"
            )
        kwargs["frames"] = args.frames
    batches = [builder(args.seed + i, spec, **kwargs) for i in range(args.sequences)]
    write_dataset(args.out, batches, frame_rate=args.frame_rate, seed=args.seed)
    print(
        f"wrote {len(batches)} x {batches[0].frames}-frame "
        f"sequences ({args.scenario}, grid {args.grid}) to {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    _, batches = read_dataset(args.data)
    frames = _uniform_frame_count(batches)
    schedule = ShowBlankSchedule(total_frames=frames, show=args.show, blank=args.blank)
    moving = any(not b.is_static() for b in batches)
    cfg = TrainConfig(
        schedule=schedule,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        batch_size=args.batch_size,
        max_steps=args.steps,
        seed=args.seed,
        moving_sensor=moving,
        baseline_override=args.baseline_override,
        plateau_patience=args.plateau_patience,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        log_path=args.log,
    )
    # learn that an output cannot be written before training, not after
    _check_directory(os.path.dirname(args.out) or ".", f"--out {args.out}")
    if args.log:
        _check_directory(os.path.dirname(args.log) or ".", f"--log {args.log}")
    if args.checkpoint_every > 0:
        _check_directory(args.checkpoint_dir, f"--checkpoint-dir {args.checkpoint_dir}")
    model = build(
        ModelConfig.for_variant(args.variant, batches[0].spec, use_stm=args.stm == "on"),
        seed=args.seed,
    )
    result = train(model, batches, cfg)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_checkpoint(result.model, args.out)
    last = f"{result.losses[-1]:.6f}" if result.losses else "n/a"
    print(
        f"trained {args.variant} for {result.steps} steps "
        f"(stop: {result.stop_reason}, final loss {last})"
    )
    print(f"checkpoint: {args.out}")
    return 0


def cmd_eval(args) -> int:
    if len(args.ckpt) > 2:
        raise ValueError("eval compares at most two checkpoints")
    _, batches = read_dataset(args.data)
    frames = _uniform_frame_count(batches)
    schedule = ShowBlankSchedule(total_frames=frames, show=args.show, blank=args.blank)
    models = [load_checkpoint(path) for path in args.ckpt]
    labels = args.label or [
        os.path.splitext(os.path.basename(p))[0] for p in args.ckpt
    ]
    if len(labels) != len(models):
        raise ValueError(f"{len(models)} checkpoints but {len(labels)} labels")
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be distinct, got {labels}")
    curves = [
        f1_horizon(m, batches, schedule, threshold=args.threshold) for m in models
    ]
    os.makedirs(args.out, exist_ok=True)
    written = []
    for label, curve in zip(labels, curves):
        path = os.path.join(args.out, f"horizon_{label}.txt")
        with open(path, "w") as fh:
            fh.write(curve.table() + "\n")
        written.append(path)
        print(f"[{label}]")
        print(curve.table())
    if len(curves) == 2:
        table = compare_models(curves[0], curves[1], label_a=labels[0], label_b=labels[1])
        path = os.path.join(args.out, "comparison.txt")
        with open(path, "w") as fh:
            fh.write(table + "\n")
        written.append(path)
        print(table)
    plot_path = os.path.join(args.out, "curves.ppm")
    plot_curves(
        plot_path,
        {label: (curve.offsets, curve.f1) for label, curve in zip(labels, curves)},
        title="f1 by prediction offset",
    )
    written.append(plot_path)
    print("wrote " + ", ".join(written))
    return 0


def cmd_render(args) -> int:
    _, batches = read_dataset(args.data)
    if not (0 <= args.sequence < len(batches)):
        raise ValueError(
            f"--sequence {args.sequence} out of range; dataset has {len(batches)}"
        )
    batch = batches[args.sequence]
    model = load_checkpoint(args.ckpt)
    show = args.show if args.show is not None else batch.frames
    blank = args.blank if args.blank is not None else 0
    schedule = ShowBlankSchedule(total_frames=batch.frames, show=show, blank=blank)
    if args.overlay and batch.truth_occ is None:
        raise ValueError("truth overlay requested but the sequence carries no ground truth")
    with_truth = batch.truth_occ is not None
    written = 0
    with no_grad():
        for f, (h, pred) in enumerate(unroll(model, batch, schedule)):
            panel = frame_panel(
                batch.observations[f],
                pred.data[0, 0],
                truth=batch.truth_occ[f] if with_truth else None,
                threshold=args.threshold,
                scale=args.scale,
            )
            # after unroll's and frame_panel's checks have passed, so a
            # rejected input writes nothing
            os.makedirs(args.out, exist_ok=True)
            write_ppm(os.path.join(args.out, f"frame_{f:03d}.ppm"), panel)
            written += 1
            if args.hidden:
                tiles = hidden_tiles([layer.data[0] for layer in h])
                write_ppm(os.path.join(args.out, f"hidden_{f:03d}.ppm"), tiles)
                written += 1
    print(f"wrote {written} images to {args.out}")
    return 0


# -------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridtrack",
        description="occupancy-grid tracking: data generation, training, "
        "evaluation, rendering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument(
        "--scenario",
        required=True,
        choices=tuple(scenario_builders()),
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sequences", type=int, default=8)
    gen.add_argument("--out", required=True)
    gen.add_argument("--grid", type=int, default=51, help="grid side length in cells")
    gen.add_argument("--cell-size", type=float, default=0.2, help="cell size in meters")
    gen.add_argument("--frames", type=int, default=None,
                     help="frames per sequence (builder default 20; "
                     "not accepted by the occlusion scenario)")
    gen.add_argument("--frame-rate", type=float, default=8.0)
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a model on a dataset directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--variant", default="GRU3DilConv_16", choices=variant_names())
    tr.add_argument("--stm", choices=("on", "off"), default="off",
                    help="egomotion compensation of the recurrent state")
    tr.add_argument("--show", type=int, default=10)
    tr.add_argument("--blank", type=int, default=10)
    tr.add_argument("--steps", type=int, default=100)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="checkpoint path to write")
    tr.add_argument("--lr", type=float, default=1e-3)
    tr.add_argument("--optimizer", choices=OPTIMIZERS, default="adam")
    tr.add_argument("--batch-size", type=int, default=1)
    tr.add_argument("--baseline-override", action="store_true",
                    help="allow --stm off on moving-sensor data")
    tr.add_argument("--plateau-patience", type=int, default=500)
    tr.add_argument("--checkpoint-every", type=int, default=0)
    tr.add_argument("--checkpoint-dir", default=None)
    tr.add_argument("--log", default=None, help="per-step loss log path")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score checkpoints over the blanked horizon")
    ev.add_argument("--ckpt", action="append", required=True,
                    help="checkpoint to score; give twice to compare two")
    ev.add_argument("--data", required=True)
    ev.add_argument("--threshold", type=float, default=0.5)
    ev.add_argument("--show", type=int, default=10)
    ev.add_argument("--blank", type=int, default=10)
    ev.add_argument("--label", action="append", default=None,
                    help="label per checkpoint (defaults to file stems)")
    ev.add_argument("--out", default="eval_out")
    ev.set_defaults(func=cmd_eval)

    rd = sub.add_parser("render", help="render per-frame panels as pixmaps")
    rd.add_argument("--ckpt", required=True)
    rd.add_argument("--data", required=True)
    rd.add_argument("--sequence", type=int, default=0)
    rd.add_argument("--out", default="render_out")
    rd.add_argument("--threshold", type=float, default=0.5)
    rd.add_argument("--scale", type=int, default=4)
    rd.add_argument("--show", type=int, default=None,
                    help="shown frames per cycle (default: all frames shown)")
    rd.add_argument("--blank", type=int, default=None)
    rd.add_argument("--hidden", action="store_true",
                    help="also write hidden-layer activation tiles")
    rd.add_argument("--overlay", action="store_true",
                    help="require the truth overlay (error if truth is absent)")
    rd.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
