"""How many threads a call may use, and running one task per item on them.

Eval scores held-out sequences, and training backpropagates minibatch
samples, each as an independent unit whose results are combined in item
order, so the bits do not depend on how many units run at once. The units
run on threads only when the environment pins the BLAS thread pools: then
each BLAS call uses at most that many cores, and the rest of the usable
CPUs would sit idle. With the pools unpinned, BLAS may already use every
core, and threads on top of it measured slower than one after another.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

# The variables README lists for pinning the BLAS thread pools.
# NUMEXPR_NUM_THREADS is not one: numpy's BLAS never reads it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def workers(units: int) -> int:
    """How many threads run ``units`` independent units at once: the usable
    CPUs divided by the threads each BLAS call may use (the largest pinned
    count), and at most one thread per unit. With no BLAS variable set, or
    one that is not a positive integer, BLAS may already use every core, so
    this gives 1."""
    try:
        blas = max((int(os.environ[v]) for v in BLAS_THREAD_VARS if v in os.environ),
                   default=0)
    except ValueError:
        blas = 0
    if blas < 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(units, cpus // blas))


@contextmanager
def ordered_map(units: int):
    """Yield a ``map`` for ``units`` independent units: like the builtin,
    it gives ``fn(item)`` in item order, but runs up to ``workers(units)``
    calls at once. With one worker it is the builtin, which runs every call
    in the caller's thread."""
    count = workers(units)
    if count == 1:
        yield map
        return
    # Imported on first use: importing it (and logging) with the package
    # shifted training's heap and cost static-train 4%. One pool per call: a
    # module-level pool would leave a forked child holding threads that do
    # not exist in it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(count) as pool:
        yield pool.map
