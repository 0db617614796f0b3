"""One unit of a benchmark workload, run in a fresh process by run.py.

A unit sets up (imports gridtrack, simulates its sequences, writes them with
``write_dataset`` and builds its model), runs the workload's timed phase
once, checks the outputs, and prints one JSON object on its last stdout line.
The timed phase is a series of samples (training steps or eval passes), each
timed between two runs of the reference kernel in calibrate.py.

The parent caps the BLAS thread pools through the environment before this
process starts numpy. The unit caps its own address space, so a run that
outgrows the cap fails with MemoryError instead of exhausting the machine.
It never calls the garbage collector or changes its thresholds: peak memory
is measured as a user running the same code would see it.

Exit status: 0 when a result was printed (checks may still have failed),
3 when gridtrack cannot be imported from the checkout's ``src``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, FRAME_RATE, WORKLOADS, sequence_seeds  # noqa: E402

REFERENCE = HERE / "reference.json"
# Reordering the float32 sums of the conv forward moves the step losses by
# about 1e-7 relative; transposing the conv kernel gradient moves them by
# 2e-4 on static-train and 3e-5 on turning-train. The tolerance sits between.
LOSS_RTOL = 1e-5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def planes_digest(batches) -> str:
    h = hashlib.sha256()
    for b in batches:
        for obs in b.observations:
            h.update(obs.vis.tobytes())
            h.update(obs.occ.tobytes())
    return h.hexdigest()


def numpy_env(np) -> dict:
    """numpy version and the BLAS library it was built against."""
    env = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def same_tree(a: Path, b: Path) -> bool:
    """Both directories hold the same file names with identical bytes."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


class Unit:
    def __init__(self, workload: str, size: str, seed: int, work: Path):
        self.workload = workload
        self.kind = WORKLOADS[workload]["kind"]
        self.cfg = WORKLOADS[workload][size]
        self.size = size
        self.seed = seed
        self.work = work
        self.checks = []
        self.values = {}
        refs = json.loads(REFERENCE.read_text())
        self.reference = refs.get(workload, {}).get(size) if seed == DEFAULT_SEED else None

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # ------------------------------------------------------------ set-up

    def setup(self, gt) -> dict:
        """Simulate, encode and write the workload's sequences as the CLI's
        gen does; returns the gen timing."""
        c = self.cfg
        spec = gt.geometry.GridSpec(size_cells=c["grid"], cell_size=c["cell_size"])
        builder = getattr(gt.simulator, c["scenario"])
        self.seeds = sequence_seeds(self.workload, self.seed, c["sequences"])
        # train workloads write one dataset; heldout-eval writes its set as
        # equal shards, each evaluated by one timed pass
        shards = c.get("shards", 1)
        per = c["sequences"] // shards
        self.shard_dirs = [self.work / f"data{i}" for i in range(shards)]
        t0 = time.perf_counter()
        self.generated = [builder(seed=s, spec=spec, frames=c["frames"]) for s in self.seeds]
        for i, path in enumerate(self.shard_dirs):
            gt.dataset.write_dataset(path, self.generated[i * per:(i + 1) * per],
                                     frame_rate=FRAME_RATE, seed=self.seeds[i * per])
        gen_s = time.perf_counter() - t0
        self.schedule = gt.training.ShowBlankSchedule(
            total_frames=c["frames"], show=c["show"], blank=c["blank"])
        config = gt.model.ModelConfig.for_variant(c["variant"], spec, use_stm=c["stm"])
        if self.kind == "train":
            _, self.dataset = gt.dataset.read_dataset(self.shard_dirs[0])
            self.model = gt.model.build(config, seed=self.seed)
        else:
            self.ckpt = self.work / "model.ckpt"
            gt.model.save_checkpoint(gt.model.build(config, seed=c["model_seed"]), self.ckpt)
        return {"gen_s": gen_s, "gen_frames": c["sequences"] * c["frames"]}

    # ------------------------------------------------------------ timed phase

    def timed(self, gt) -> dict:
        """Run the timed phase. Besides its total, it returns ``samples``:
        (frames, seconds, reference seconds) of each training step after
        the first, or of each held-out shard's eval pass, where the reference
        seconds are the mean of the reference kernel timed right before and
        right after."""
        import calibrate  # loads numpy, which main() defers until after the address-space cap

        c = self.cfg
        calibrate.reference_s()  # warm-up
        ref = calibrate.reference_s()
        if self.kind == "train":
            # one train() call per step, each continuing from the weights the
            # last one left, so every step is a sample between two references;
            # the first step fills the allocator and caches and is not a sample
            self.results, samples = [], []
            for step in range(c["steps"]):
                cfg = gt.training.TrainConfig(
                    schedule=self.schedule, learning_rate=c["lr"], batch_size=c["batch"],
                    max_steps=1, seed=self.seed + step, moving_sensor=c["moving_sensor"],
                )
                t0 = time.perf_counter()
                self.results.append(gt.training.train(self.model, self.dataset, cfg))
                dt = time.perf_counter() - t0
                after = calibrate.reference_s()
                samples.append([c["batch"] * c["frames"], dt, (ref + after) / 2])
                ref = after
            return {"timed_s": sum(s for _, s, _ in samples),
                    "timed_frames": sum(f for f, _, _ in samples),
                    "warmup_s": samples[0][1], "samples": samples[1:]}
        # the CLI's eval on each shard in turn: read, load the checkpoint, score
        self.dataset, self.curves, samples = [], [], []
        for path in self.shard_dirs:
            t0 = time.perf_counter()
            _, shard = gt.dataset.read_dataset(path)
            self.model = gt.model.load_checkpoint(self.ckpt)
            curve = gt.evaluation.f1_horizon(self.model, shard, self.schedule,
                                             threshold=c["threshold"])
            dt = time.perf_counter() - t0
            after = calibrate.reference_s()
            samples.append([len(shard) * c["frames"], dt, (ref + after) / 2])
            ref = after
            self.dataset.append(shard)
            self.curves.append(curve)
        return {"timed_s": sum(s for _, s, _ in samples),
                "timed_frames": sum(f for f, _, _ in samples), "samples": samples}

    # ------------------------------------------------------------ checks

    def verify(self, gt) -> None:
        if self.kind == "train":
            self.verify_train()
        else:
            self.verify_eval(gt)

    def verify_train(self) -> None:
        c = self.cfg
        losses = [float(v) for r in self.results for v in r.losses]
        self.values["losses"] = losses
        ran = [(r.steps, r.stop_reason) for r in self.results]
        self.check("steps", ran == [(1, "max_steps")] * c["steps"], f"steps, stop: {ran}")
        self.check("loss_finite", bool(losses) and all(math.isfinite(v) for v in losses),
                   f"losses {losses}")
        self.check("loss_decreased", len(losses) >= 2 and losses[-1] < losses[0],
                   f"step 1 {losses[0]:.6f}, last {losses[-1]:.6f}")
        if self.reference is not None:
            ref = self.reference["losses"]
            ok = len(ref) == len(losses) and all(
                abs(a - b) <= LOSS_RTOL * abs(b) for a, b in zip(losses, ref))
            self.check("loss_reference", ok, f"got {losses}, reference {ref}")

    def verify_eval(self, gt) -> None:
        c = self.cfg
        # dataset round trip: rewriting each shard read gives the same bytes
        per = c["sequences"] // len(self.shard_dirs)
        same = []
        for i, (path, shard) in enumerate(zip(self.shard_dirs, self.dataset)):
            again = self.work / f"again{i}"
            gt.dataset.write_dataset(again, shard, frame_rate=FRAME_RATE,
                                     seed=self.seeds[i * per])
            same.append(same_tree(path, again))
        self.check("dataset_roundtrip", all(same), f"shards identical: {same}")
        ckpt2 = self.work / "again.ckpt"
        gt.model.save_checkpoint(self.model, ckpt2)
        self.check("checkpoint_roundtrip", ckpt2.read_bytes() == self.ckpt.read_bytes())

        read = [b for shard in self.dataset for b in shard]
        digest = planes_digest(self.generated)
        self.values["planes_digest"] = digest
        self.check("planes_readback", planes_digest(read) == digest)

        # pooled counts of the first sequence, recomputed outside the timed
        # phase from the same rollout f1_horizon runs
        with gt.tensor.no_grad():
            preds = gt.model.rollout(self.model, read[0], self.schedule)
        counts = gt.evaluation.pooled_counts(
            [p.data[0, 0] for p in preds], read[0], self.schedule, c["threshold"])
        counts = {str(k): [int(v) for v in counts[k]] for k in sorted(counts)}
        self.values["seq0_counts"] = counts
        curves = [{"f1": list(cv.f1), "scored": list(cv.scored)} for cv in self.curves]
        self.values["curve"] = curves
        first = self.curves[0]
        bounded = all(tp + fp + fn <= n for tp, fp, fn, n in counts.values()) and all(
            counts[str(k)][3] <= n for k, n in zip(first.offsets, first.scored))
        self.check("counts_bounded", bounded, f"seq0 {counts}, shard 0 scored {first.scored}")
        if self.reference is not None:
            ref = self.reference
            self.check("planes_digest_reference", digest == ref["planes_digest"], digest)
            self.check("counts_reference", counts == ref["seq0_counts"], f"{counts}")
            self.check("curve_reference", curves == ref["curve"], f"{curves}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mem-cap-mb", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for scratch data and spans")
    args = ap.parse_args()

    cap = args.mem_cap_mb * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy

        import gridtrack
        from gridtrack import dataset, evaluation, geometry, model, simulator, tensor, training
    except ImportError as exc:
        print(f"cannot import gridtrack from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if Path(gridtrack.__file__).resolve().parent != ROOT / "src" / "gridtrack":
        print(f"gridtrack resolved to {gridtrack.__file__}, not this checkout", file=sys.stderr)
        return 3
    gt = SimpleNamespace(dataset=dataset, evaluation=evaluation, geometry=geometry,
                            model=model, simulator=simulator, tensor=tensor, training=training)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True

    out = Path(args.out)
    work = out / f"work-{os.getpid()}"
    unit = Unit(args.workload, args.size, args.seed, work)
    result = {"pid": os.getpid(), "traced": bool(args.trace)}
    try:
        work.mkdir(parents=True)
        result.update(unit.setup(gt))
        result["setup_s"] = time.perf_counter() - T_START
        before = resource.getrusage(resource.RUSAGE_SELF)
        result.update(unit.timed(gt))
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["timed_rusage"] = {"user_s": after.ru_utime - before.ru_utime,
                                  "sys_s": after.ru_stime - before.ru_stime,
                                  "minor_faults": after.ru_minflt - before.ru_minflt}
        if tracer is not None:
            tracer.active = False
        result["peak_rss_mb"] = peak_rss_mb()
        unit.verify(gt)
        unit.check("unit_completed", True)
    except Exception as exc:  # MemoryError under the cap lands here too
        traceback.print_exc()
        unit.check("unit_completed", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = result.get("peak_rss_mb", peak_rss_mb())
    result["env"] = numpy_env(numpy)
    result["checks"] = unit.checks
    result["values"] = unit.values
    if tracer is not None:
        result["per_layer"] = tracer.metrics(result["peak_rss_mb"])
        spans = out / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
