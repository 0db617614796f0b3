"""Self-supervised training: show/blank schedules, visibility-masked loss,
optimizers, and the seeded minibatch loop.

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
are added in sample order (``minibatch_backward``). Only as many graphs are
alive at once as samples run at once: one after another, or, when the BLAS
thread pools are pinned, on the CPUs they leave idle. How many run at once
changes no bit; a batch of one gives the plain backward's bits.
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
    "OPTIMIZERS",
    "ShowBlankSchedule",
    "target_mask",
    "TrainConfig",
    "TrainResult",
    "sequence_loss",
    "minibatch_backward",
    "adam_step",
    "sgd_momentum_step",
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


OPTIMIZERS = ("adam", "sgd_momentum")


@dataclass(frozen=True)
class TrainConfig:
    schedule: ShowBlankSchedule
    learning_rate: float = 1e-3
    optimizer: str = "adam"
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
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


def sequence_loss(model: Model, batch, schedule: ShowBlankSchedule) -> Tensor:
    """Roll the model over one sequence and score every frame against its
    own observation: one masked_bce over (1, F, M, M) predictions, occupancy
    and target mask, a mean over the scored cells of all frames."""
    pred = concat_channels(rollout(model, batch, schedule))
    occ = np.stack([o.occ for o in batch.observations])[None]
    return masked_bce(pred, occ, target_mask(batch, schedule)[None])


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


def sgd_momentum_step(params, grads, state: dict, lr: float) -> dict:
    """In-place SGD update with momentum 0.9. ``state`` holds the velocities;
    pass {} to start."""
    momentum = 0.9
    if not state:
        state = {"v": [np.zeros_like(p.data) for p in params]}
    for p, g, v in zip(params, grads, state["v"]):
        v *= momentum
        v += g
        p.data = p.data - (lr * v).astype(p.data.dtype)
    return state


def minibatch_backward(model: Model, batches, schedule: ShowBlankSchedule, run=map) -> float:
    """Backpropagate a minibatch's pooled loss one sample at a time, leave
    its gradient in ``model``'s ``grad``s and return the loss.

    With n_s the cells sample s scores and N the minibatch's total, sample
    s's ``sequence_loss`` is weighted by n_s / N, so the weighted losses add
    up to the minibatch's pooled mean, and the gradient is the sum, in
    sample order, of each sample's weighted gradient. Sample 0 runs on
    ``model`` itself and every later one on a ``replica``, whose backward
    writes gradients of its own, so ``run`` (a ``map``, such as a thread
    pool's) may run samples at once without changing a bit. Each sample's
    graph is freed by its backward: as many graphs are alive at once as
    ``run`` runs samples. A sample whose loss is not finite is not
    backpropagated. A lone sample has weight exactly 1, so it gives the bits
    ``sequence_loss(model, batches[0], schedule).backward()`` would."""
    batches = list(batches)
    cells = [int(target_mask(b, schedule).sum()) for b in batches]
    total = sum(cells)

    def backprop(item) -> tuple:
        s, batch = item
        sink = model if s == 0 else replica(model)
        loss = sequence_loss(sink, batch, schedule) * (cells[s] / total if total else 1.0)
        value = loss.item()
        if np.isfinite(value):
            loss.backward()
        return value, sink

    results = list(run(backprop, enumerate(batches)))
    for _, sink in results[1:]:
        for p, q in zip(model.parameters(), sink.parameters()):
            if q.grad is not None:
                p._accum(q.grad)
    return sum(value for value, _ in results)


def train(model: Model, dataset, cfg: TrainConfig) -> TrainResult:
    """Seeded minibatch training. Each epoch draws a fresh permutation of the
    dataset from the seed, groups consecutive sequences into minibatches, and
    applies the configured optimizer. Stops at max_steps, on a loss plateau
    (no new best for plateau_patience steps), and aborts on a non-finite loss
    or, before the optimizer step, on a non-finite parameter gradient.

    Each minibatch is backpropagated one sample at a time
    (``minibatch_backward``). When the environment pins the BLAS thread
    pools, samples run on as many threads as the usable CPUs hold at that
    pool size (see ``threads.workers``), one pool per call; otherwise one
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
    rng = np.random.default_rng(cfg.seed)
    state: dict = {}
    losses: list[float] = []
    best = np.inf
    best_step = 0
    stop_reason = "max_steps"
    step_idx = 0
    # the log and the checkpoint directory appear at their first write, so a
    # call that fails before its first step leaves nothing behind
    with ordered_map(min(cfg.batch_size, len(dataset))) as run:
        while step_idx < cfg.max_steps:
            order = rng.permutation(len(dataset))
            for lo in range(0, len(dataset), cfg.batch_size):
                if step_idx >= cfg.max_steps:
                    break
                group = [dataset[i] for i in order[lo : lo + cfg.batch_size]]
                t0 = time.monotonic()
                model.zero_grad()
                value = minibatch_backward(model, group, cfg.schedule, run)
                if not np.isfinite(value):
                    raise FloatingPointError(f"training diverged at step {step_idx}")
                grads = []
                for name, p in named:
                    if p.grad is not None and not np.isfinite(p.grad).all():
                        raise FloatingPointError(
                            f"non-finite gradient in {name} at step {step_idx}"
                        )
                    grads.append(p.grad if p.grad is not None else np.zeros_like(p.data))
                if cfg.optimizer == "adam":
                    state = adam_step(params, grads, state, cfg.learning_rate)
                else:
                    state = sgd_momentum_step(params, grads, state, cfg.learning_rate)
                losses.append(value)
                step_idx += 1
                if cfg.log_path:
                    ms = (time.monotonic() - t0) * 1000.0
                    os.makedirs(os.path.dirname(cfg.log_path) or ".", exist_ok=True)
                    with open(cfg.log_path, "a") as fh:
                        fh.write(f"{step_idx} {value:.6f} {ms:.1f}\n")
                if value < best - 1e-6:
                    best = value
                    best_step = step_idx
                if cfg.checkpoint_every and step_idx % cfg.checkpoint_every == 0:
                    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
                    save_checkpoint(model, f"{cfg.checkpoint_dir}/step{step_idx:06d}.ckpt")
                if cfg.plateau_patience and step_idx - best_step >= cfg.plateau_patience:
                    stop_reason = "plateau"
                    break
            if stop_reason == "plateau":
                break
    return TrainResult(model=model, losses=losses, stop_reason=stop_reason, steps=step_idx)
