"""Time the scan encoder, ``gridtrack.geometry.encode_observation``, per
frame on scans recorded from the scenario builders, and print the result
as one JSON object.

    python3 scripts/bench_encoder.py [--calls 60]

Run from the root of a checkout; the script loads gridtrack from ``src/``.
It caps the BLAS thread pools at one thread before numpy loads, as the
benchmark workers do. For each shape it runs one builder, seed 0, at a
0.2 m cell size and records every scan the simulator hands the encoder, in
the form the simulator passes it: ``static_crossing`` at 51x51 with 240
beams, ``moving_turning`` at 33x33 with 240 beams and
``occlusion_scenario`` at 51x51 with 720 beams. After a few warm-up calls,
``--calls`` calls, cycling through the recorded frames, are timed one by
one and their median and quartiles reported in milliseconds.
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
from gridtrack import geometry, simulator  # noqa: E402

WARMUP_CALLS = 5
CELL_SIZE = 0.2
FRAMES = 20
# (label, builder, grid, beams)
SHAPES = [
    ("static_crossing, 51x51, 240 beams", "static_crossing", 51, 240),
    ("moving_turning, 33x33, 240 beams", "moving_turning", 33, 240),
    ("occlusion_scenario, 51x51, 720 beams", "occlusion_scenario", 51, 720),
]


def recorded_scans(builder: str, spec, beams: int) -> list:
    """Every scan argument the simulator passes the encoder while ``builder``
    builds one sequence."""
    scans = []
    encode = simulator.encode_observation

    def record(ranges, spec):
        scans.append(ranges)
        return encode(ranges, spec)

    simulator.encode_observation = record
    try:
        build = getattr(simulator, builder)
        if builder == "occlusion_scenario":
            build(seed=0, spec=spec, n_beams=beams)
        else:
            build(seed=0, spec=spec, frames=FRAMES, n_beams=beams)
    finally:
        simulator.encode_observation = encode
    return scans


def time_shape(builder, grid, beams, calls) -> tuple:
    spec = geometry.GridSpec(size_cells=grid, cell_size=CELL_SIZE)
    scans = recorded_scans(builder, spec, beams)
    seconds = []
    for i in range(WARMUP_CALLS + calls):
        scan = scans[i % len(scans)]
        t0 = time.perf_counter()
        geometry.encode_observation(scan, spec)
        t1 = time.perf_counter()
        if i >= WARMUP_CALLS:
            seconds.append(t1 - t0)
    return len(scans), seconds


def summary(seconds: list) -> dict:
    q1, med, q3 = statistics.quantiles([1e3 * s for s in seconds], n=4)
    return {"median_ms": round(med, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--calls", type=int, default=60, help="timed calls per shape")
    args = ap.parse_args()
    if args.calls < 4:
        ap.error("--calls must be at least 4, to give quartiles")
    shapes = []
    for label, builder, grid, beams in SHAPES:
        frames, seconds = time_shape(builder, grid, beams, args.calls)
        shapes.append({"shape": label, "builder": builder, "grid": grid, "beams": beams,
                       "recorded_frames": frames, "per_frame": summary(seconds)})
    print(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__, "blas_threads": 1,
        "cell_size": CELL_SIZE, "calls": args.calls, "shapes": shapes,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
