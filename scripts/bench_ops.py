"""Time the tracker's ops one call at a time, at the shapes it runs, and print
the result as one JSON object.

    python3 scripts/bench_ops.py [--calls 60]

Run from the root of a checkout; the script loads gridtrack from ``src/``.
It caps the BLAS thread pools at one thread before numpy loads, as the
benchmark workers do. Each row of ``SHAPES`` names an op, a label and the
op's parameters. Each op runs in a fresh process and draws its rows' fixed
inputs from one ``np.random.default_rng(0)`` in table order, all float32, on
0.2 m cells. After a few warm-up calls, ``--calls`` calls are timed phase by
phase and each phase's median and quartiles reported in milliseconds.

- ``conv_bwd``: ``tensor._conv_bwd`` with both the input and the kernel
  gradient asked for (phase ``backward``). The rows are the convs of
  GRU3DilConv_16 (a layer's stacked update/reset gates or its candidate, or
  the decoder) at the benchmark workloads' shapes: batch 1 on a 51x51 grid
  and batch 4 on 33x33.
- ``warp``: ``tensor.bilinear_sample`` under a fixed turn of 0.05 rad with a
  sub-cell shift. Phase ``forward`` is the call given the pose, so it
  includes working out where each cell reads; phase ``backward`` is the
  returned node's backward closure on a fixed output gradient. The rows are
  a batch of four maps under one pose and one 51x51 map.
- ``encode``: ``geometry.encode_observation`` (phase ``call``), cycling
  through every scan the simulator hands the encoder while one builder
  builds one sequence at seed 0, so each of three builders gives one row.
"""

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gridtrack import geometry, simulator  # noqa: E402
from gridtrack.tensor import Tensor, _conv_bwd, bilinear_sample  # noqa: E402

WARMUP_CALLS = 5
CELL_SIZE = 0.2
FRAMES = 20
# (op, label, parameters)
SHAPES = [
    ("conv_bwd", "B1 51x51, 18->32, d1", dict(batch=1, grid=51, parts=[2, 16], out=32, dilation=1)),
    ("conv_bwd", "B1 51x51, 18->16, d1", dict(batch=1, grid=51, parts=[2, 16], out=16, dilation=1)),
    ("conv_bwd", "B1 51x51, 32->32, d2", dict(batch=1, grid=51, parts=[16, 16], out=32, dilation=2)),
    ("conv_bwd", "B1 51x51, 32->32, d4", dict(batch=1, grid=51, parts=[16, 16], out=32, dilation=4)),
    ("conv_bwd", "B1 51x51, 32->16, d4", dict(batch=1, grid=51, parts=[16, 16], out=16, dilation=4)),
    ("conv_bwd", "decoder B1 51x51, 16->1, d1", dict(batch=1, grid=51, parts=[16], out=1, dilation=1)),
    ("conv_bwd", "B4 33x33, 18->32, d1", dict(batch=4, grid=33, parts=[2, 16], out=32, dilation=1)),
    ("conv_bwd", "B4 33x33, 32->16, d2", dict(batch=4, grid=33, parts=[16, 16], out=16, dilation=2)),
    ("conv_bwd", "B4 33x33, 32->32, d4", dict(batch=4, grid=33, parts=[16, 16], out=32, dilation=4)),
    ("warp", "(4, 16, 33, 33), one shared pose", dict(batch=4, channels=16, grid=33)),
    ("warp", "(1, 16, 51, 51)", dict(batch=1, channels=16, grid=51)),
    ("encode", "static_crossing, 51x51, 240 beams", dict(builder="static_crossing", grid=51, beams=240)),
    ("encode", "moving_turning, 33x33, 240 beams", dict(builder="moving_turning", grid=33, beams=240)),
    ("encode", "occlusion_scenario, 51x51, 720 beams", dict(builder="occlusion_scenario", grid=51, beams=720)),
]


def conv_bwd(rng, batch, grid, parts, out, dilation):
    xs = [rng.normal(size=(batch, c, grid, grid)).astype(np.float32) for c in parts]
    kern = (rng.normal(size=(out, sum(parts), 3, 3)) * 0.2).astype(np.float32)
    g = rng.normal(size=(batch, out, grid, grid)).astype(np.float32)
    return lambda i: None, [("backward", lambda _: _conv_bwd(xs, dilation, kern, dilation, g, True, True))]


def warp(rng, batch, channels, grid):
    spec = geometry.GridSpec(size_cells=grid, cell_size=CELL_SIZE)
    x = rng.normal(size=(batch, channels, grid, grid)).astype(np.float32)
    g = rng.normal(size=(batch, channels, grid, grid)).astype(np.float32)
    pose = geometry.Pose2(0.031, -0.047, 0.05)

    def backward(out):
        out.grad = g
        out._backward()

    return (lambda i: Tensor(x, requires_grad=True),
            [("forward", lambda xt: bilinear_sample(xt, pose, spec)), ("backward", backward)])


def encode(rng, builder, grid, beams):
    spec = geometry.GridSpec(size_cells=grid, cell_size=CELL_SIZE)
    scans = []
    original = simulator.encode_observation

    def record(ranges, spec):
        scans.append(ranges)
        return original(ranges, spec)

    simulator.encode_observation = record
    try:
        extra = {} if builder == "occlusion_scenario" else {"frames": FRAMES}
        getattr(simulator, builder)(seed=0, spec=spec, n_beams=beams, **extra)
    finally:
        simulator.encode_observation = original
    return (lambda i: scans[i % len(scans)],
            [("call", lambda scan: geometry.encode_observation(scan, spec))])


# op -> builder(rng, **row parameters) returning (prepare, [(phase, call), ...])
OPS = {"conv_bwd": conv_bwd, "warp": warp, "encode": encode}


def time_phases(prepare, phases, calls) -> dict:
    """Run ``prepare(i)`` untimed, then each phase on the previous result,
    timing each phase; the first WARMUP_CALLS rounds are not kept."""
    seconds = {name: [] for name, _ in phases}
    for i in range(WARMUP_CALLS + calls):
        value = prepare(i)
        for name, phase in phases:
            t0 = time.perf_counter()
            value = phase(value)
            t1 = time.perf_counter()
            if i >= WARMUP_CALLS:
                seconds[name].append(t1 - t0)
    return seconds


def time_op(op: str, calls: int) -> list:
    rng = np.random.default_rng(0)
    shapes = []
    for row_op, label, params in SHAPES:
        if row_op == op:
            seconds = time_phases(*OPS[op](rng, **params), calls)
            shapes.append({"op": op, "shape": label, **params,
                           "timings": {name: summary(s) for name, s in seconds.items()}})
    return shapes


def summary(seconds: list) -> dict:
    q1, med, q3 = statistics.quantiles([1e3 * s for s in seconds], n=4)
    return {"median_ms": round(med, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def machine() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=60, help="timed calls per shape")
    args = ap.parse_args()
    if args.calls < 4:
        ap.error("--calls must be at least 4, to give quartiles")
    shapes = []
    for op in OPS:
        # The heap one op leaves behind changes how often the next one page
        # faults (glibc's mmap threshold and trimming), so no op follows another.
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            shapes += pool.apply(time_op, (op, args.calls))
    print(json.dumps({
        "schema": 1, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name(), "blas_threads": 1, "machine": machine(), "calls": args.calls,
        "shapes": shapes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
