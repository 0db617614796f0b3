"""Time the egomotion warp, ``gridtrack.tensor.bilinear_sample``, forward
and backward per call, and print the result as one JSON object.

    python3 scripts/bench_warp.py [--calls 60]

Run from the root of a checkout; the script loads gridtrack from ``src/``.
It caps the BLAS thread pools at one thread before numpy loads, as the
benchmark workers do. Each shape warps fixed random float32 maps under a
fixed rotation and sub-cell shift: (4, 16, 33, 33) with one pose shared by
the batch, the same shape with four distinct poses, and (1, 16, 51, 51).
A call's forward is ``bilinear_sample`` given the pose or poses, so it
includes working out where each cell reads; its backward is the returned
node's backward closure run on a fixed output gradient. After a few warm-up
calls, ``--calls`` calls are timed one by one and their median and
quartiles reported in milliseconds.
"""

import argparse
import json
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
from gridtrack.geometry import GridSpec, Pose2  # noqa: E402
from gridtrack.tensor import Tensor, bilinear_sample  # noqa: E402

WARMUP_CALLS = 5
CELL_SIZE = 0.2
# (label, batch, channels, grid, distinct poses)
SHAPES = [
    ("(4, 16, 33, 33), one shared pose", 4, 16, 33, 1),
    ("(4, 16, 33, 33), 4 distinct poses", 4, 16, 33, 4),
    ("(1, 16, 51, 51)", 1, 16, 51, 1),
]


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def poses_for(batch: int, distinct: int) -> list:
    """``batch`` poses cycling through ``distinct`` turns of 0.05-0.2 rad
    with shifts of a fraction of a cell."""
    turns = [Pose2(0.031 + 0.02 * i, -0.047 + 0.015 * i, 0.05 + 0.05 * i) for i in range(distinct)]
    return [turns[i % distinct] for i in range(batch)]


def time_shape(batch, chans, grid, distinct, calls, rng) -> tuple:
    spec = GridSpec(size_cells=grid, cell_size=CELL_SIZE)
    x = rng.normal(size=(batch, chans, grid, grid)).astype(np.float32)
    g = rng.normal(size=(batch, chans, grid, grid)).astype(np.float32)
    poses = poses_for(batch, distinct)
    fwd, bwd = [], []
    for i in range(WARMUP_CALLS + calls):
        xt = Tensor(x, requires_grad=True)
        t0 = time.perf_counter()
        out = bilinear_sample(xt, poses, spec)
        t1 = time.perf_counter()
        out.grad = g
        out._backward()
        t2 = time.perf_counter()
        if i >= WARMUP_CALLS:
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
    return fwd, bwd


def summary(seconds: list) -> dict:
    q1, med, q3 = statistics.quantiles([1e3 * s for s in seconds], n=4)
    return {"median_ms": round(med, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=60, help="timed calls per shape")
    args = ap.parse_args()
    if args.calls < 4:
        ap.error("--calls must be at least 4, to give quartiles")
    rng = np.random.default_rng(0)
    shapes = []
    for label, batch, chans, grid, distinct in SHAPES:
        fwd, bwd = time_shape(batch, chans, grid, distinct, args.calls, rng)
        shapes.append({"shape": label, "batch": batch, "channels": chans, "grid": grid,
                       "distinct_poses": distinct,
                       "forward": summary(fwd), "backward": summary(bwd)})
    print(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name(),
        "blas_threads": 1, "dtype": "float32", "cell_size": CELL_SIZE, "calls": args.calls,
        "shapes": shapes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
