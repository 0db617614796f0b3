"""Self-supervised training: show/blank schedules, visibility-masked loss,
the Adam update, one training step, and the seeded minibatch loop.

The target at every frame is the observation itself: the network sees the
input during shown frames, nothing during blanked frames, and the loss only
scores cells the sensor actually measured (visibility mask). At blanked
frames the mask is further restricted to the region each sequence's own
egomotion keeps predictable from space seen before the blank started.
Scoring is per sequence, not per frame: one (F, M, M) target mask and one
``masked_bce`` over every frame of the sequence.

A training step (``step``) backpropagates each sample of its minibatch on
its own ``replica`` of the model, so a minibatch may mix still and moving
sensors, weighs it by its share of the minibatch's scored cells (the loss is
the pooled mean over them), and adds the gradients in sample order into one
list for ``adam_step``: the model's own Tensors never hold a ``grad``.
Samples run one after another or, when the BLAS thread pools are pinned, on
the CPUs they leave idle; how many run at once changes no bit. ``train`` is
only the loop around ``step``: minibatches, log, checkpoints, plateau rule.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from .geometry import predictable_mask
from .model import Model, replica, rollout, save_checkpoint
from .tensor import Tensor, concat_channels, masked_bce
from .threads import ordered_map

__all__ = [
    "ShowBlankSchedule",
    "target_mask",
    "TrainConfig",
    "TrainResult",
    "sequence_loss",
    "adam_step",
    "step",
    "train",
]


@dataclass(frozen=True)
class ShowBlankSchedule:
    """Repeating blocks of ``show`` visible frames followed by ``blank``
    withheld frames. A block must divide the sequence length evenly."""

    total_frames: int
    show: int
    blank: int

    def __post_init__(self):
        if self.show < 1 or self.blank < 0 or self.total_frames < 1:
            raise ValueError("need show >= 1, blank >= 0, total_frames >= 1")
        if self.total_frames % (self.show + self.blank) != 0:
            raise ValueError(
                f"show+blank ({self.show + self.blank}) must divide "
                f"total_frames ({self.total_frames})"
            )

    def is_shown(self, frame: int) -> bool:
        return frame % (self.show + self.blank) < self.show

    def blank_offset(self, frame: int):
        """1-based position of a frame inside its blank run, None if shown."""
        r = frame % (self.show + self.blank)
        return None if r < self.show else r - self.show + 1

    def offsets(self) -> range:
        return range(1, self.blank + 1)


def target_mask(batch, schedule: ShowBlankSchedule) -> np.ndarray:
    """Boolean (F, M, M) mask of the cells scored in one sequence: its
    visibility at every frame, intersected at each blanked frame with the
    region predictable from the last shown frame along the sequence's own
    transform chain (all cells for a still sensor)."""
    mask = np.stack([o.vis for o in batch.observations]).astype(bool)
    if schedule.blank:
        for start in range(schedule.show, batch.frames, schedule.show + schedule.blank):
            run = slice(start, start + schedule.blank)
            mask[run] &= predictable_mask(batch.rel_transforms[run], batch.spec)
    return mask


@dataclass(frozen=True)
class TrainConfig:
    schedule: ShowBlankSchedule
    learning_rate: float = 1e-3
    batch_size: int = 1
    max_steps: int = 100
    seed: int = 0
    moving_sensor: bool = False  # only guards no-warp training on moving data
    baseline_override: bool = False
    plateau_patience: int = 500
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.max_steps < 0:
            raise ValueError("batch_size >= 1 and max_steps >= 0 required")
        if self.checkpoint_every < 0 or self.plateau_patience < 0:
            raise ValueError("checkpoint_every >= 0 and plateau_patience >= 0 required")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("periodic checkpoints need a checkpoint_dir")


@dataclass
class TrainResult:
    losses: list
    stop_reason: str

    @property
    def steps(self) -> int:
        return len(self.losses)


def sequence_loss(model: Model, batch, schedule: ShowBlankSchedule, mask: np.ndarray) -> Tensor:
    """Roll the model over one sequence and score every frame against its
    own observation on the cells of ``mask``, the sequence's
    ``target_mask``: one masked_bce over (1, F, M, M) predictions, occupancy
    and mask, a mean over the scored cells of all frames."""
    pred = concat_channels(rollout(model, batch, schedule))
    occ = np.stack([o.occ for o in batch.observations])[None]
    return masked_bce(pred, occ, mask[None])


def adam_step(params, grads, state: dict, lr: float) -> dict:
    """In-place Adam update with bias correction, at beta1 = 0.9,
    beta2 = 0.999 and eps = 1e-8. ``state`` holds first and second moments
    plus the step counter ``t``; pass {} to start and the same dict at every
    later step: it is filled and updated in place, and returned."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not state:
        state.update(t=0, m=[np.zeros_like(p.data) for p in params],
                     v=[np.zeros_like(p.data) for p in params])
    state["t"] += 1
    t = state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)
    return state


def step(model: Model, group, schedule: ShowBlankSchedule, state: dict, lr: float) -> float:
    """One ``adam_step`` on ``state`` down a minibatch's pooled loss, which
    it returns.

    Each sample's ``target_mask`` is built once: with n_s the cells it
    scores for sample s and N the minibatch's total, sample s's
    ``sequence_loss`` on that mask is weighted by n_s / N, so the weighted
    losses add up to the minibatch's pooled mean, and the gradient is the
    sum, in sample order, of each sample's weighted gradient. Each sample
    runs on a ``replica`` with gradients of its own, so the samples run on a
    pool (``threads.ordered_map``) without changing a bit. Each graph is
    freed by its backward: as many are alive as the pool runs samples. A
    sample whose loss is not finite is not backpropagated. A lone sample has
    weight exactly 1: the bits of its plain ``sequence_loss(...).backward()``.

    A non-finite loss or gradient raises FloatingPointError before the
    update, naming the step as ``state["t"] + 1``, Adam's next count."""
    group = list(group)
    masks = [target_mask(b, schedule) for b in group]
    cells = [int(mask.sum()) for mask in masks]
    total = sum(cells)

    def backprop(s: int) -> tuple:
        sink = replica(model)
        loss = sequence_loss(sink, group[s], schedule, masks[s])
        loss = loss * (cells[s] / total if total else 1.0)
        value = loss.item()
        if np.isfinite(value):
            loss.backward()
        return value, [p.grad for p in sink.parameters()]

    results = ordered_map(backprop, range(len(group)))
    value = sum(v for v, _ in results)
    at = state.get("t", 0) + 1
    if not np.isfinite(value):
        raise FloatingPointError(f"training diverged at step {at}")
    named = model.named_parameters()
    grads = []
    for i, (name, p) in enumerate(named):
        parts = [sample[i] for _, sample in results if sample[i] is not None]
        g = parts[0] if parts else np.zeros_like(p.data)
        for part in parts[1:]:
            g += part
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name} at step {at}")
        grads.append(g)
    adam_step([p for _, p in named], grads, state, lr)
    return value


def _minibatches(dataset: list, size: int, rng: np.random.Generator):
    """Endless minibatches: consecutive groups of ``size`` sequences (the
    last of an epoch may be smaller) from a fresh permutation of ``dataset``
    per epoch. An epoch's permutation is drawn when its first group is
    asked for, not before."""
    while True:
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), size):
            yield [dataset[i] for i in order[lo : lo + size]]


def train(model: Model, dataset, cfg: TrainConfig) -> TrainResult:
    """Seeded minibatch training of ``model``, in place, with Adam: one
    ``step`` per minibatch. Each epoch draws a fresh permutation of the
    dataset from the seed and groups consecutive sequences into minibatches.
    Steps count from 1. Stops at max_steps or on a loss plateau (no new best
    for plateau_patience steps); ``step`` aborts on a non-finite loss or
    gradient. ``log_path`` gets one line per step, and a run starts it
    afresh at the end of its first step.

    When the environment pins the BLAS thread pools, a step's samples run on
    as many threads as the usable CPUs hold at that pool size (see
    ``threads.workers``), one pool per step; otherwise one after another in
    the caller's thread. The trained bits are the same either way.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if cfg.moving_sensor and not model.config.use_stm and not cfg.baseline_override:
        raise ValueError(
            "moving-sensor training without egomotion compensation needs "
            "baseline_override (ablation runs only)"
        )
    groups = _minibatches(dataset, cfg.batch_size, np.random.default_rng(cfg.seed))
    state: dict = {}
    losses: list[float] = []
    best = np.inf
    best_step = 0
    # the log and the checkpoint directory appear at their first write, so a
    # call that fails before its first step leaves nothing behind
    for n, group in zip(range(1, cfg.max_steps + 1), groups):
        t0 = time.monotonic()
        value = step(model, group, cfg.schedule, state, cfg.learning_rate)
        losses.append(value)
        if cfg.log_path:
            ms = (time.monotonic() - t0) * 1000.0
            os.makedirs(os.path.dirname(cfg.log_path) or ".", exist_ok=True)
            with open(cfg.log_path, "w" if n == 1 else "a") as fh:
                fh.write(f"{n} {value:.6f} {ms:.1f}\n")
        if value < best - 1e-6:
            best = value
            best_step = n
        if cfg.checkpoint_every and n % cfg.checkpoint_every == 0:
            os.makedirs(cfg.checkpoint_dir, exist_ok=True)
            save_checkpoint(model, f"{cfg.checkpoint_dir}/step{n:06d}.ckpt")
        if cfg.plateau_patience and n - best_step >= cfg.plateau_patience:
            return TrainResult(losses=losses, stop_reason="plateau")
    return TrainResult(losses=losses, stop_reason="max_steps")
