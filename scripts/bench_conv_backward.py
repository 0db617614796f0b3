"""Time the convolution backward, ``gridtrack.tensor._conv_bwd``, per call at
the shapes the tracker runs, and print the result as one JSON object.

    python3 scripts/bench_conv_backward.py [--calls 60]

Run from the root of a checkout; the script loads gridtrack from ``src/``.
It caps the BLAS thread pools at one thread before numpy loads, as the
benchmark workers do. Each shape is a conv of GRU3DilConv_16 (a layer's
stacked update/reset gates or its candidate, or the decoder) at batch 1 on
a 51x51 grid or batch 4 on 33x33, in float32 with both the input and the
kernel gradient asked for. The script makes fixed random inputs, calls
``_conv_bwd`` a few times to warm the allocator and the scratch memory,
then times ``--calls`` calls one by one and reports their median and
quartiles in milliseconds.
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
from gridtrack.tensor import _conv_bwd  # noqa: E402

WARMUP_CALLS = 5
# (label, batch, grid, channels of each input part, output channels, dilation)
SHAPES = [
    ("B1 51x51, 18->32, d1", 1, 51, (2, 16), 32, 1),
    ("B1 51x51, 18->16, d1", 1, 51, (2, 16), 16, 1),
    ("B1 51x51, 32->32, d2", 1, 51, (16, 16), 32, 2),
    ("B1 51x51, 32->32, d4", 1, 51, (16, 16), 32, 4),
    ("B1 51x51, 32->16, d4", 1, 51, (16, 16), 16, 4),
    ("decoder B1 51x51, 16->1, d1", 1, 51, (16,), 1, 1),
    ("B4 33x33, 18->32, d1", 4, 33, (2, 16), 32, 1),
    ("B4 33x33, 32->16, d2", 4, 33, (16, 16), 16, 2),
    ("B4 33x33, 32->32, d4", 4, 33, (16, 16), 32, 4),
]


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def time_shape(batch, grid, chans, cout, d, calls, rng) -> list:
    parts = [rng.normal(size=(batch, c, grid, grid)).astype(np.float32) for c in chans]
    kern = (rng.normal(size=(cout, sum(chans), 3, 3)) * 0.2).astype(np.float32)
    g = rng.normal(size=(batch, cout, grid, grid)).astype(np.float32)
    times = []
    for i in range(WARMUP_CALLS + calls):
        t0 = time.perf_counter()
        _conv_bwd(parts, d, kern, d, g, True, True)
        if i >= WARMUP_CALLS:
            times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=60, help="timed calls per shape")
    args = ap.parse_args()
    if args.calls < 4:
        ap.error("--calls must be at least 4, to give quartiles")
    rng = np.random.default_rng(0)
    shapes = []
    for label, batch, grid, chans, cout, d in SHAPES:
        ms = [1e3 * t for t in time_shape(batch, grid, chans, cout, d, args.calls, rng)]
        q1, med, q3 = statistics.quantiles(ms, n=4)
        shapes.append({"shape": label, "batch": batch, "grid": grid, "parts": list(chans),
                       "out": cout, "dilation": d,
                       "median_ms": round(med, 3), "q1_ms": round(q1, 3), "q3_ms": round(q3, 3)})
    print(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name(),
        "blas_threads": 1, "dtype": "float32", "calls": args.calls, "shapes": shapes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
