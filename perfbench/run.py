"""gridtrack benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload static-train --seed 0 --seconds 40 --trace 0

Run from the root of a checkout. The runner starts a fresh worker process
per unit (see worker.py), one after another, until ``--seconds`` of units
have run (at least two units). Each unit sets up, runs the workload's timed
phase once and checks its outputs. The timed phase is a series of samples,
training steps or eval passes, each timed between two runs of a fixed
reference kernel (calibrate.py). ``frames_per_ref`` is the median over all
samples of frames per reference-kernel time, which keeps the program's speed
and drops most of the shared host's drift. ``setup_s`` and ``peak_rss_mb``
are medians over units. Wall-clock frames/s is printed beside them.

``--trace 0`` runs plain units and prints the end-to-end metrics.
``--trace 1`` alternates plain and traced units. It prints the per-layer
metrics of the traced units, and the tracing overhead: the traced units'
timed-phase seconds minus the plain units'. Traced units write their spans
to ``perfbench/out``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
count output checks. A fuller record, with the environment and every unit,
goes to ``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``.

``--smoke`` runs each workload at a tiny size, for the smoke test.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_ref": "frames/ref",
    "peak_rss_mb": "MB",
}

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Address-space cap per worker: at most this, and at most half the machine.
MEM_CAP_MB = 3072
MIN_UNITS = 2
# A run must end within 180 s; no unit may start or keep running past this.
RUN_DEADLINE_S = 170.0


def mem_total_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no MemTotal in /proc/meminfo")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_unit(args, traced: bool, mem_cap_mb: int, timeout: float) -> dict:
    """Run one worker to completion; a worker that crashes, times out or
    prints no result becomes a failed unit."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--size", "smoke" if args.smoke else "full", "--seed", str(args.seed),
           "--trace", str(int(traced)), "--mem-cap-mb", str(mem_cap_mb), "--out", str(OUT)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        stdout = ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode == 3:
        raise SystemExit("gridtrack could not be loaded from this checkout's src")
    try:
        unit = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        why = f"worker exited {proc.returncode} after {wall:.0f} s without a result"
        print(f"unit failed: {why}", file=sys.stderr)
        unit = {"traced": traced,
                "checks": [{"name": "unit_completed", "ok": False, "detail": why}]}
    unit["wall_s"] = wall
    return unit


def run_units(args, mem_cap_mb: int) -> list:
    """Start units until --seconds have run, alternating plain and traced
    units under --trace 1."""
    units = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(units) >= MIN_UNITS:
            typical = statistics.mean(u["wall_s"] for u in units)
            if elapsed + typical > min(args.seconds, RUN_DEADLINE_S):
                break
        traced = bool(args.trace) and len(units) % 2 == 1
        timeout = max(RUN_DEADLINE_S - elapsed, 5.0)
        units.append(run_unit(args, traced, mem_cap_mb, timeout))
    return units


def completed(unit: dict) -> bool:
    return "timed_s" in unit and all(c["ok"] for c in unit["checks"]
                                      if c["name"] == "unit_completed")


def frame_rates(units: list) -> tuple:
    """Per timed sample (training call or eval pass) of the completed units:
    frames per second, and frames per reference kernel (see calibrate.py)."""
    samples = [s for u in units if completed(u) for s in u["samples"]]
    return [f / s for f, s, _ in samples], [f * ref / s for f, s, ref in samples]


def end_to_end(units: list) -> dict:
    done = [u for u in units if completed(u)]
    if not done:
        return {}
    med = statistics.median
    return {
        "setup_s": med(u["setup_s"] for u in done),
        "frames_per_ref": med(frame_rates(done)[1]),
        "peak_rss_mb": med(u["peak_rss_mb"] for u in done),
    }


def consistency_check(kind: str, units: list) -> dict:
    """Every unit of a run saw the same inputs, so its outputs must agree."""
    done = [u for u in units if completed(u)]
    keys = ("losses",) if kind == "train" else ("planes_digest", "curve", "seq0_counts")
    seen = {json.dumps([u["values"].get(k) for k in keys]) for u in done}
    return {"name": "units_agree", "ok": len(seen) <= 1,
            "detail": f"{len(seen)} distinct outputs over {len(done)} units"}


def main() -> int:
    ap = argparse.ArgumentParser(description="gridtrack benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args()

    if not (ROOT / "src" / "gridtrack" / "__init__.py").is_file():
        print(f"no gridtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running worker is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    mem_cap_mb = int(min(MEM_CAP_MB, mem_total_mb() / 2))
    units = run_units(args, mem_cap_mb)

    plain = [u for u in units if not u["traced"]]
    traced = [u for u in units if u["traced"]]
    e2e = end_to_end(plain)
    if not e2e:
        print("no unit completed; nothing was measured", file=sys.stderr)
        return 1

    kind = WORKLOADS[args.workload]["kind"]
    # printed, not result metrics: gen runs inside set-up, which setup_s
    # bounds, and wall-clock rates move with the host as much as the program
    gen_fps = statistics.median(u["gen_frames"] / u["gen_s"] for u in plain if completed(u))
    wall_fps = statistics.median(frame_rates(plain)[0])
    ref_s = statistics.median(s[2] for u in plain if completed(u) for s in u["samples"])
    checks = [c for u in units for c in u["checks"]] + [consistency_check(kind, units)]
    failed = [c for c in checks if not c["ok"]]

    per_layer = {}
    if args.trace:
        done = [u for u in traced if completed(u)]
        if not done:
            print("no traced unit completed", file=sys.stderr)
            return 1
        per_layer = {k: statistics.median(u["per_layer"][k] for u in done)
                     for k in PER_LAYER_UNITS}
        plain_s = statistics.median(u["timed_s"] for u in plain if completed(u))
        traced_s = statistics.median(u["timed_s"] for u in done)
        per_layer["trace.overhead_s"] = traced_s - plain_s
        per_layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s

    cfg = WORKLOADS[args.workload]["smoke" if args.smoke else "full"]
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "mem_total_mb": round(mem_total_mb()),
        "blas_threads": BLAS_THREADS,
        "worker_mem_cap_mb": mem_cap_mb,
        **next((u["env"] for u in units if "env" in u), {}),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "smoke" if args.smoke else "full",
        "config": cfg, "environment": env, "end_to_end": e2e,
        "gen_frames_per_s": gen_fps, "frames_per_s": wall_fps, "reference_s": ref_s,
        "per_layer": per_layer,
        "attempted": len(checks), "failed": len(failed), "failed_checks": failed,
        "units": units,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / (name + ("-smoke" if args.smoke else "") + ".json")).write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} ({record['size']}), seed {args.seed}, "
          f"{len(plain)} plain and {len(traced)} traced units")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("config: " + ", ".join(f"{k} {v}" for k, v in cfg.items()))
    for k, v in e2e.items():
        print(f"  {k:<36} {v:14.4f} {END_TO_END_UNITS[k]}")
    print(f"  {'gen_frames_per_s':<36} {gen_fps:14.4f} frames/s (during set-up)")
    print(f"  {'reference_s':<36} {ref_s:14.4f} s (reference kernel, host speed)")
    if kind == "train":
        print(f"  {'train_seq_per_s':<36} {wall_fps / cfg['frames']:14.4f} "
              f"sequences/s (wall clock; peak RSS after {cfg['steps']} steps)")
    else:
        print(f"  {'eval_frames_per_s':<36} {wall_fps:14.4f} frames/s (wall clock)")
    print(f"  {'failed_frac':<36} {len(failed) / len(checks):14.4f} "
          f"({len(failed)} of {len(checks)} checks failed)")
    for c in failed:
        print(f"  FAILED {c['name']}: {c['detail']}")
    for k, v in per_layer.items():
        print(f"  {k:<36} {v:14.6g} {PER_LAYER_UNITS[k]}")

    metrics = per_layer if args.trace else e2e
    units_of = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
