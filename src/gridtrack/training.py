"""Self-supervised training: show/blank schedules, visibility-masked loss,
the Adam update, and the seeded minibatch loop.

The target at every frame is the observation itself: the network sees the
input during shown frames, nothing during blanked frames, and the loss only
scores cells the sensor actually measured (visibility mask). At blanked
frames the mask is further restricted to the region each sequence's own
egomotion keeps predictable from space seen before the blank started.
Scoring is per sequence, not per frame: one (F, M, M) target mask and one
``masked_bce`` over every frame of the sequence.

A training step rolls out and backpropagates each sample of its minibatch
on its own graph and gradient sink, so a minibatch may mix still and moving
sensors. Each sample is weighted by its share of the minibatch's scored
cells, so the loss is the pooled mean over those cells, and the gradients
are added in sample order (``minibatch_backward``). Each sample's target
mask is built once per step, both to weigh the sample and to score it. Only
as many graphs are alive at once as samples run at once: one after another,
or, when the BLAS thread pools are pinned, on the CPUs they leave idle, in a
pool opened for the step. How many run at once changes no bit; a batch of
one gives the plain backward's bits.
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
    "minibatch_backward",
    "adam_step",
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
    model: Model
    losses: list
    stop_reason: str
    steps: int


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
    plus the step counter; pass {} to start."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if not state:
        state = {
            "t": 0,
            "m": [np.zeros_like(p.data) for p in params],
            "v": [np.zeros_like(p.data) for p in params],
        }
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


def minibatch_backward(model: Model, batches, schedule: ShowBlankSchedule) -> float:
    """Backpropagate a minibatch's pooled loss one sample at a time, leave
    its gradient in ``model``'s ``grad``s and return the loss.

    Each sample's ``target_mask`` is built once: with n_s the cells it
    scores for sample s and N the minibatch's total, sample s's
    ``sequence_loss`` on that mask is weighted by n_s / N, so the weighted
    losses add up to the minibatch's pooled mean, and the gradient is the
    sum, in sample order, of each sample's weighted gradient. Sample 0 runs
    on ``model`` itself and every later one on a ``replica``, whose backward
    writes gradients of its own, so the samples run on a pool of their own
    (``threads.ordered_map``) without changing a bit. Each sample's graph is
    freed by its backward: as many graphs are alive at once as the pool runs
    samples. A sample whose loss is not finite is not backpropagated. A lone
    sample has weight exactly 1, so it gives the bits its plain
    ``sequence_loss(...).backward()`` would."""
    batches = list(batches)
    masks = [target_mask(b, schedule) for b in batches]
    cells = [int(mask.sum()) for mask in masks]
    total = sum(cells)

    def backprop(s: int) -> tuple:
        sink = model if s == 0 else replica(model)
        loss = sequence_loss(sink, batches[s], schedule, masks[s])
        loss = loss * (cells[s] / total if total else 1.0)
        value = loss.item()
        if np.isfinite(value):
            loss.backward()
        return value, sink

    with ordered_map(len(batches)) as run:
        results = list(run(backprop, range(len(batches))))
    for _, sink in results[1:]:
        for p, q in zip(model.parameters(), sink.parameters()):
            if q.grad is not None:
                p._accum(q.grad)
    return sum(value for value, _ in results)


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
    """Seeded minibatch training with Adam. Each epoch draws a fresh
    permutation of the dataset from the seed and groups consecutive
    sequences into minibatches. Steps count from 1. Stops at max_steps or
    on a loss plateau (no new best for plateau_patience steps), and aborts
    on a non-finite loss or, before the update, on a non-finite parameter
    gradient.

    Each minibatch is backpropagated one sample at a time
    (``minibatch_backward``). When the environment pins the BLAS thread
    pools, samples run on as many threads as the usable CPUs hold at that
    pool size (see ``threads.workers``), one pool per step; otherwise one
    after another in the caller's thread. The trained bits are the same
    either way.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if cfg.moving_sensor and not model.config.use_stm and not cfg.baseline_override:
        raise ValueError(
            "moving-sensor training without egomotion compensation needs "
            "baseline_override (ablation runs only)"
        )
    named = model.named_parameters()
    params = [p for _, p in named]
    groups = _minibatches(dataset, cfg.batch_size, np.random.default_rng(cfg.seed))
    state: dict = {}
    losses: list[float] = []
    best = np.inf
    best_step = 0
    # the log and the checkpoint directory appear at their first write, so a
    # call that fails before its first step leaves nothing behind
    for step, group in zip(range(1, cfg.max_steps + 1), groups):
        t0 = time.monotonic()
        model.zero_grad()
        value = minibatch_backward(model, group, cfg.schedule)
        if not np.isfinite(value):
            raise FloatingPointError(f"training diverged at step {step}")
        grads = []
        for name, p in named:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient in {name} at step {step}")
            grads.append(p.grad if p.grad is not None else np.zeros_like(p.data))
        state = adam_step(params, grads, state, cfg.learning_rate)
        losses.append(value)
        if cfg.log_path:
            ms = (time.monotonic() - t0) * 1000.0
            os.makedirs(os.path.dirname(cfg.log_path) or ".", exist_ok=True)
            with open(cfg.log_path, "a") as fh:
                fh.write(f"{step} {value:.6f} {ms:.1f}\n")
        if value < best - 1e-6:
            best = value
            best_step = step
        if cfg.checkpoint_every and step % cfg.checkpoint_every == 0:
            os.makedirs(cfg.checkpoint_dir, exist_ok=True)
            save_checkpoint(model, f"{cfg.checkpoint_dir}/step{step:06d}.ckpt")
        if cfg.plateau_patience and step - best_step >= cfg.plateau_patience:
            return TrainResult(model=model, losses=losses, stop_reason="plateau", steps=len(losses))
    return TrainResult(model=model, losses=losses, stop_reason="max_steps", steps=len(losses))
