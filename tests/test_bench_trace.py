"""The benchmark's tracer still reaches every op it wraps.

The tracer (perfbench/tracing.py) replaces module attributes such as
``model.conv2d`` or ``training.adam_step``. Code that calls around one of
them, for example through a table of functions captured at import, leaves
its per-layer metric at zero without any error. This runs each workload at
its smoke size with tracing on and requires every per-layer metric to be
non-zero, except the ones a workload never exercises.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# Zero or negative by chance: the tracer's cost and the RSS growth after step 1.
NOISY = {"trace.overhead_s", "trace.overhead_frac", "training.rss_growth_mb"}

_NO_EVAL = {
    "evaluation.f1_horizon.s",
    "evaluation.pooled_counts.s",
    "model.load_checkpoint.s",
    "model.save_checkpoint.s",
}
# The tracer times convolutions through tensor.conv2d, which the fused GRU
# cell does not call, so only the dilation-1 decoder is counted.
_NO_DILATED = {
    f"tensor.conv2d.{d}.{k}" for d in ("d2", "d4") for k in ("fwd_s", "bwd_s", "calls")
}
_NO_WARP = {"tensor.bilinear_sample.fwd_s", "tensor.bilinear_sample.bwd_s",
            "tensor.bilinear_sample.calls"}
_NO_TRAINING = {
    "tensor.backward.s",
    "tensor.backward.self_s",
    "tensor.conv2d.d1.bwd_s",
    "tensor.graph_nodes",
    "tensor.masked_bce.fwd_s",
    "tensor.masked_bce.bwd_s",
    "training.adam_step.s",
    "training.sequence_loss.s",
    "training.rss_after_step1_mb",
}
EXPECTED_ZERO = {
    "static-train": _NO_EVAL | _NO_DILATED | _NO_WARP,
    "turning-train": _NO_EVAL | _NO_DILATED,
    "heldout-eval": _NO_TRAINING | _NO_DILATED | _NO_WARP,
}


@pytest.mark.parametrize("workload", sorted(EXPECTED_ZERO))
def test_traced_workload_reaches_every_wrapped_op(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert set(metrics) == set(PER_LAYER)
    zero = {name for name, m in metrics.items() if m["value"] == 0 and name not in NOISY}
    assert zero == EXPECTED_ZERO[workload]
