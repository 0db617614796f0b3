"""Reference kernel that measures how fast the host runs right now.

On a shared host the speed of a single core drifts by tens of percent over
seconds to minutes as other tenants load it. A fixed kernel with the same mix
of work as gridtrack's model (im2col copies, a small float32 GEMM and a
sigmoid, driven from a Python loop) slows down with it. Timing the kernel
right before and right after a timed sample and dividing by the mean gives
the sample's cost in units of the kernel, which keeps the program's speed and drops the
host's. The kernel uses numpy only, so no change to gridtrack can move it.
"""

import statistics
import time

import numpy as np

CHANNELS = 16
SIZE = 51
REPS = 30
ROUNDS = 5

_rng = np.random.default_rng(0)
_x = _rng.standard_normal((CHANNELS, SIZE + 2, SIZE + 2)).astype(np.float32)
_w = _rng.standard_normal((CHANNELS * 9, CHANNELS)).astype(np.float32)
# preallocated, so the kernel's time does not depend on the allocator's state
_cols = np.empty((SIZE * SIZE, CHANNELS, 9), dtype=np.float32)
_y = np.empty((SIZE * SIZE, CHANNELS), dtype=np.float32)


def reference_s() -> float:
    """Seconds the host takes for one reference kernel: the median of
    ``ROUNDS`` timings, so a single preempted round does not count (about
    0.05 s on an idle 2.1 GHz Xeon core)."""
    # (row, col, channel, 3, 3) windows of the padded input: im2col as a copy
    windows = np.lib.stride_tricks.sliding_window_view(_x, (3, 3), axis=(1, 2))
    windows = windows.transpose(1, 2, 0, 3, 4)
    cols5 = _cols.reshape(SIZE, SIZE, CHANNELS, 3, 3)
    cols = _cols.reshape(SIZE * SIZE, CHANNELS * 9)
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(REPS):
            np.copyto(cols5, windows)
            np.matmul(cols, _w, out=_y)
            np.negative(_y, out=_y)
            np.exp(_y, out=_y)
            np.add(_y, 1.0, out=_y)
            np.reciprocal(_y, out=_y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
