"""Workload definitions shared by the runner and its workers.

Plain data only: the runner imports this module without loading numpy, so
the BLAS thread caps it sets still reach each worker before numpy starts.

Each workload has a ``full`` size, which the benchmark measures, and a
``smoke`` size, which the smoke test runs in a few seconds.
"""

DEFAULT_SEED = 0

# Sequences are simulated at this rate, the simulator's and the CLI's default.
FRAME_RATE = 8.0

WORKLOADS = {
    # Criterion-5 training: a static sensor, so egomotion warps and
    # predictable masks never run; conv2d at d=1/2/4 (forward and backward),
    # the GRU arithmetic and the autodiff graph do nearly all the work.
    "static-train": {
        "kind": "train",
        "full": {
            "scenario": "static_crossing",
            "grid": 51,
            "cell_size": 0.2,
            "frames": 20,
            "sequences": 8,
            "show": 10,
            "blank": 10,
            "variant": "GRU3DilConv_16",
            "stm": False,
            "moving_sensor": False,
            "batch": 1,
            "steps": 6,
            "lr": 3e-3,
        },
        "smoke": {
            "scenario": "static_crossing",
            "grid": 11,
            "cell_size": 0.2,
            "frames": 4,
            "sequences": 1,
            "show": 2,
            "blank": 2,
            "variant": "GRU3DilConv_16",
            "stm": False,
            "moving_sensor": False,
            "batch": 1,
            "steps": 2,
            "lr": 3e-3,
        },
    },
    # Criterion-7 training with egomotion compensation at batch 4: the only
    # workload where bilinear_sample (forward and backward) and
    # predictable_mask run, with batched GEMM shapes and the largest graph
    # per step. All turning sequences share one transform chain.
    "turning-train": {
        "kind": "train",
        "full": {
            "scenario": "moving_turning",
            "grid": 33,
            "cell_size": 0.2,
            "frames": 20,
            "sequences": 12,
            "show": 5,
            "blank": 5,
            "variant": "GRU3DilConv_16",
            "stm": True,
            "moving_sensor": True,
            "batch": 4,
            "steps": 3,
            "lr": 3e-3,
        },
        "smoke": {
            "scenario": "moving_turning",
            "grid": 11,
            "cell_size": 0.2,
            "frames": 4,
            "sequences": 4,
            "show": 2,
            "blank": 2,
            "variant": "GRU3DilConv_16",
            "stm": True,
            "moving_sensor": True,
            "batch": 2,
            "steps": 2,
            "lr": 3e-3,
        },
    },
    # The CLI's gen-then-eval path on the criterion-5 held-out set, written
    # as equal shards and evaluated one shard per pass: the tensor layer runs
    # forward only under no_grad, and the simulator, the encoder and both
    # codecs do their work here.
    "heldout-eval": {
        "kind": "eval",
        "full": {
            "scenario": "static_crossing",
            "grid": 51,
            "cell_size": 0.2,
            "frames": 40,
            "sequences": 12,
            "shards": 6,
            "show": 10,
            "blank": 10,
            "variant": "GRU3DilConv_16",
            "stm": False,
            "model_seed": 0,
            "threshold": 0.5,
        },
        "smoke": {
            "scenario": "static_crossing",
            "grid": 11,
            "cell_size": 0.2,
            "frames": 8,
            "sequences": 2,
            "shards": 2,
            "show": 2,
            "blank": 2,
            "variant": "GRU3DilConv_16",
            "stm": False,
            "model_seed": 0,
            "threshold": 0.5,
        },
    },
}


def sequence_seeds(workload: str, seed: int, count: int) -> list:
    """Simulator seeds for a workload's sequences. Held-out sets draw from
    a range disjoint from training sets, as the acceptance tests do."""
    base = seed * 1000 + (100 if WORKLOADS[workload]["kind"] == "eval" else 0)
    return [base + i for i in range(count)]
