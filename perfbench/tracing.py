"""Span tracing of gridtrack's layers from outside the package.

``install`` wraps gridtrack's public functions at the module attributes their
callers look up (``model.conv2d`` for the decoder, ``tensor.conv2d`` for the
GRU gates, ``training.rollout`` and ``evaluation.rollout``, ...), and wraps
the ``_backward`` closure of every Tensor a wrapped op returns, so backward
time lands on the op that recorded it. Nothing under ``src/`` changes. The
wrappers are installed only in traced units; timed units run the plain code.

Spans stay in memory and are written once, at the end of a unit. Each span
records its name, start, end, parent span and group: one group per training
step, per evaluated sequence or per simulated sequence.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {}
for _d in ("d1", "d2", "d4"):
    PER_LAYER_UNITS[f"tensor.conv2d.{_d}.fwd_s"] = "s"
    PER_LAYER_UNITS[f"tensor.conv2d.{_d}.bwd_s"] = "s"
    PER_LAYER_UNITS[f"tensor.conv2d.{_d}.calls"] = "count"
PER_LAYER_UNITS.update({
    "tensor.conv2d.gflop": "GFLOP",
    "tensor.conv2d.fwd_gflop_per_s": "GFLOP/s",
    "tensor.conv_gru_step.s": "s",
    "tensor.conv_gru_step.calls": "count",
    "tensor.masked_bce.fwd_s": "s",
    "tensor.masked_bce.bwd_s": "s",
    "tensor.backward.s": "s",
    "tensor.backward.self_s": "s",
    "tensor.bilinear_sample.fwd_s": "s",
    "tensor.bilinear_sample.bwd_s": "s",
    "tensor.bilinear_sample.calls": "count",
    "tensor.graph_nodes": "count",
    "model.rollout.s": "s",
    "model.rollout.frames": "count",
    "model.decode.s": "s",
    "model.save_checkpoint.s": "s",
    "model.load_checkpoint.s": "s",
    "training.sequence_loss.s": "s",
    "training.adam_step.s": "s",
    "training.rss_after_step1_mb": "MB",
    "training.rss_growth_mb": "MB",
    "geometry.predictable_mask.s": "s",
    "geometry.predictable_mask.calls": "count",
    "geometry.predictable_mask.unique_frac": "fraction",
    "geometry.planes.calls": "count",
    "geometry.planes.unique_frac": "fraction",
    "geometry.encode_observation.s": "s",
    "geometry.encode_observation.calls": "count",
    "geometry.encode_observation.beams_per_s": "beams/s",
    "simulator.simulate_sequence.s": "s",
    "simulator.simulate_sequence.self_s": "s",
    "dataset.write_dataset.s": "s",
    "dataset.read_dataset.s": "s",
    "dataset.bytes": "B",
    "evaluation.f1_horizon.s": "s",
    "evaluation.pooled_counts.s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
})


def current_rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries. Inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.t0 = time.perf_counter()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[str] = []
        self.stack: list[int] = []
        self.group = "setup"
        self.group_seq = defaultdict(int)
        self.counts = defaultdict(float)
        self.distinct = defaultdict(dict)
        self.graph_nodes: list[int] = []
        self.rss_after_step1_mb = None

    def new_group(self, kind: str) -> None:
        self.group = f"{kind}:{self.group_seq[kind]}"
        self.group_seq[kind] += 1

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.groups.append(self.group)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def note_input(self, name: str, key, keep) -> None:
        """Count a call of ``name`` and remember its input; ``keep`` holds
        the input alive so an id-based key cannot be reused."""
        self.counts[name + ".calls"] += 1
        self.distinct[name].setdefault(key, keep)

    # ---------------------------------------------------------- summaries

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and call count."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            total[name] += dur
            calls[name] += 1
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur
        self_s = defaultdict(float)
        for i, name in enumerate(self.names):
            self_s[name] += (self.ends[i] - self.starts[i]) - child.get(i, 0.0)
        return total, self_s, calls

    def metrics(self, peak_rss_mb: float) -> dict:
        """Per-layer metrics of this unit. Layers the workload never runs
        read 0; ``trace.overhead_*`` is filled in by the runner."""
        total, self_s, calls = self.totals()
        out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        fwd_s = 0.0
        for d in ("d1", "d2", "d4"):
            name = f"tensor.conv2d.{d}"
            out[f"{name}.fwd_s"] = total[name]
            out[f"{name}.bwd_s"] = total[name + ".bwd"]
            out[f"{name}.calls"] = calls[name]
            fwd_s += total[name]
        gflop = self.counts["tensor.conv2d.flop"] / 1e9
        out["tensor.conv2d.gflop"] = gflop
        out["tensor.conv2d.fwd_gflop_per_s"] = gflop / fwd_s if fwd_s > 0 else 0.0
        for name in ("tensor.masked_bce", "tensor.bilinear_sample"):
            out[f"{name}.fwd_s"] = total[name]
            out[f"{name}.bwd_s"] = total[name + ".bwd"]
        out["tensor.bilinear_sample.calls"] = calls["tensor.bilinear_sample"]
        out["tensor.conv_gru_step.s"] = total["tensor.conv_gru_step"]
        out["tensor.conv_gru_step.calls"] = calls["tensor.conv_gru_step"]
        out["tensor.backward.s"] = total["tensor.backward"]
        out["tensor.backward.self_s"] = self_s["tensor.backward"]
        out["tensor.graph_nodes"] = max(self.graph_nodes, default=0)
        for name in ("model.rollout", "model.decode", "model.save_checkpoint",
                     "model.load_checkpoint", "training.sequence_loss",
                     "training.adam_step", "geometry.predictable_mask",
                     "geometry.encode_observation", "simulator.simulate_sequence",
                     "dataset.write_dataset", "dataset.read_dataset",
                     "evaluation.f1_horizon", "evaluation.pooled_counts"):
            out[f"{name}.s"] = total[name]
        out["model.rollout.frames"] = self.counts["model.rollout.frames"]
        if self.rss_after_step1_mb is not None:
            out["training.rss_after_step1_mb"] = self.rss_after_step1_mb
            out["training.rss_growth_mb"] = peak_rss_mb - self.rss_after_step1_mb
        for name in ("geometry.predictable_mask", "geometry.planes"):
            n = self.counts[name + ".calls"]
            out[f"{name}.calls"] = n
            out[f"{name}.unique_frac"] = len(self.distinct[name]) / n if n else 0.0
        out["geometry.encode_observation.calls"] = calls["geometry.encode_observation"]
        enc_s = total["geometry.encode_observation"]
        out["geometry.encode_observation.beams_per_s"] = (
            self.counts["geometry.beams"] / enc_s if enc_s > 0 else 0.0
        )
        out["simulator.simulate_sequence.self_s"] = self_s["simulator.simulate_sequence"]
        out["dataset.bytes"] = self.counts["dataset.bytes"]
        out["trace.spans"] = len(self.names)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start": self.starts[i] - self.t0,
                    "end": self.ends[i] - self.t0,
                    "parent": self.parents[i] if self.parents[i] >= 0 else None,
                    "group": self.groups[i],
                }) + "\n")


# ------------------------------------------------------------- wrappers


def _time_backward(tracer: Tracer, out, name: str) -> None:
    """Time the backward closure of a Tensor a wrapped op returned."""
    bw = getattr(out, "_backward", None)
    if bw is None:
        return

    def timed_backward():
        idx = tracer.begin(name)
        try:
            bw()
        finally:
            tracer.end(idx)

    out._backward = timed_backward


def _wrap(targets, make):
    """Replace ``module.attr`` for each (module, attr) in ``targets`` with
    ``make(original)``, skipping attributes the package no longer has."""
    for owner, attr in targets:
        orig = getattr(owner, attr, None)
        if orig is None:
            continue
        wrapped = make(orig)
        functools.update_wrapper(wrapped, orig)
        setattr(owner, attr, wrapped)


def _spanned(tracer: Tracer, name: str, group: str | None = None, after=None,
             backward: str | None = None):
    """Factory for a wrapper that records one span per call."""

    def make(orig):
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if group is not None:
                tracer.new_group(group)
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, kwargs, out)
            if backward is not None:
                _time_backward(tracer, out, backward)
            return out

        return wrapper

    return make


def _graph_size(root) -> int:
    """Distinct tensors reachable from ``root`` through ``_prev`` links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for p in node._prev:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def install(tracer: Tracer) -> None:
    """Wrap every measured gridtrack entry point. Call once per process,
    after importing gridtrack and before any measured work."""
    from gridtrack import dataset, evaluation, geometry, model, simulator, tensor, training

    # conv2d: one span name per dilation, flops counted from shapes
    def make_conv(orig):
        def conv_wrapper(x, params):
            if not tracer.active:
                return orig(x, params)
            name = f"tensor.conv2d.d{params.dilation}"
            idx = tracer.begin(name)
            try:
                out = orig(x, params)
            finally:
                tracer.end(idx)
            b, cout, h, w = out.data.shape
            k = params.kernel_size
            tracer.counts["tensor.conv2d.flop"] += 2.0 * b * cout * params.in_channels * k * k * h * w
            _time_backward(tracer, out, name + ".bwd")
            return out

        return conv_wrapper

    _wrap([(tensor, "conv2d"), (model, "conv2d")], make_conv)
    _wrap([(tensor, "conv_gru_step"), (model, "conv_gru_step")],
          _spanned(tracer, "tensor.conv_gru_step"))
    _wrap([(tensor, "bilinear_sample"), (model, "bilinear_sample")],
          _spanned(tracer, "tensor.bilinear_sample", backward="tensor.bilinear_sample.bwd"))
    _wrap([(tensor, "masked_bce"), (training, "masked_bce")],
          _spanned(tracer, "tensor.masked_bce", backward="tensor.masked_bce.bwd"))

    # Tensor.backward: count the graph before the span opens, so the walk is
    # not billed to backward
    orig_backward = tensor.Tensor.backward

    @functools.wraps(orig_backward)
    def backward_wrapper(self):
        if not tracer.active:
            return orig_backward(self)
        tracer.graph_nodes.append(_graph_size(self))
        idx = tracer.begin("tensor.backward")
        try:
            return orig_backward(self)
        finally:
            tracer.end(idx)

    tensor.Tensor.backward = backward_wrapper

    def count_frames(args, kwargs, out):
        tracer.counts["model.rollout.frames"] += len(out)

    rollout_targets = [(training, "rollout"), (evaluation, "rollout")]
    _wrap(rollout_targets[:1],
          _spanned(tracer, "model.rollout", after=count_frames))
    _wrap(rollout_targets[1:],
          _spanned(tracer, "model.rollout", group="eval-seq", after=count_frames))
    _wrap([(model, "decode")], _spanned(tracer, "model.decode"))
    _wrap([(model, "save_checkpoint"), (training, "save_checkpoint")],
          _spanned(tracer, "model.save_checkpoint", group="io"))
    _wrap([(model, "load_checkpoint")],
          _spanned(tracer, "model.load_checkpoint", group="io"))

    _wrap([(training, "sequence_loss")],
          _spanned(tracer, "training.sequence_loss", group="step"))

    def after_adam(args, kwargs, out):
        if tracer.rss_after_step1_mb is None:
            tracer.rss_after_step1_mb = current_rss_mb()

    _wrap([(training, "adam_step")],
          _spanned(tracer, "training.adam_step", after=after_adam))

    # predictable_mask: distinct inputs are distinct (chain, grid) pairs
    def make_mask(orig):
        def mask_wrapper(chain, spec):
            if not tracer.active:
                return orig(chain, spec)
            key = (tuple(chain), spec)
            tracer.note_input("geometry.predictable_mask", key, None)
            idx = tracer.begin("geometry.predictable_mask")
            try:
                return orig(chain, spec)
            finally:
                tracer.end(idx)

        return mask_wrapper

    _wrap([(training, "predictable_mask"), (evaluation, "predictable_mask")], make_mask)

    # ObservationGrid.planes: a count only; distinct inputs are distinct
    # (observation, dtype) pairs, so unique_frac < 1 measures rebuilt planes
    orig_planes = geometry.ObservationGrid.planes

    @functools.wraps(orig_planes)
    def planes_wrapper(self, dtype=None):
        if tracer.active:
            tracer.note_input("geometry.planes", (id(self), str(dtype)), self)
        return orig_planes(self) if dtype is None else orig_planes(self, dtype)

    geometry.ObservationGrid.planes = planes_wrapper

    def count_beams(args, kwargs, out):
        ranges = args[0] if args else kwargs["ranges"]
        tracer.counts["geometry.beams"] += len(ranges)

    _wrap([(simulator, "encode_observation"), (dataset, "encode_observation")],
          _spanned(tracer, "geometry.encode_observation", after=count_beams))
    _wrap([(simulator, "simulate_sequence")],
          _spanned(tracer, "simulator.simulate_sequence", group="gen-seq"))

    def count_bytes(args, kwargs, out):
        dirpath = args[0] if args else kwargs["dirpath"]
        for entry in os.scandir(dirpath):
            tracer.counts["dataset.bytes"] += entry.stat().st_size

    _wrap([(dataset, "write_dataset")],
          _spanned(tracer, "dataset.write_dataset", group="io", after=count_bytes))
    _wrap([(dataset, "read_dataset")],
          _spanned(tracer, "dataset.read_dataset", group="io"))
    _wrap([(evaluation, "f1_horizon")],
          _spanned(tracer, "evaluation.f1_horizon", group="eval"))
    _wrap([(evaluation, "pooled_counts")], _spanned(tracer, "evaluation.pooled_counts"))
