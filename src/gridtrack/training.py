"""Self-supervised training: show/blank schedules, visibility-masked loss,
optimizers, and the seeded minibatch loop.

The target at every frame is the observation itself: the network sees the
input during shown frames, nothing during blanked frames, and the loss only
scores cells the sensor actually measured (visibility mask). With a moving
sensor the mask is further restricted to the predictable region reachable
from space seen before the blank started.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .geometry import predictable_mask
from .model import Model, rollout, save_checkpoint
from .tensor import Tensor, default_dtype, masked_bce

__all__ = [
    "ShowBlankSchedule",
    "target_mask",
    "TrainConfig",
    "TrainResult",
    "sequence_loss",
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


def target_mask(batches, schedule: ShowBlankSchedule, frame: int, moving: bool) -> np.ndarray:
    """Boolean (B, M, M) mask of the cells scored at ``frame``: each
    sequence's visibility, intersected with the region predictable from the
    last shown frame when ``moving`` and the frame is blanked. ``batches``
    share one transform chain."""
    vis = np.stack([b.observations[frame].vis for b in batches]).astype(bool)
    off = schedule.blank_offset(frame)
    if moving and off is not None:
        chain = batches[0].rel_transforms[frame - off + 1 : frame + 1]
        vis &= predictable_mask(list(chain), batches[0].spec).mask.astype(bool)
    return vis


@dataclass(frozen=True)
class TrainConfig:
    schedule: ShowBlankSchedule
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    batch_size: int = 1
    max_steps: int = 100
    seed: int = 0
    moving_sensor: bool = False
    baseline_override: bool = False
    plateau_patience: int = 500
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    log_path: str | None = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("adam", "sgd_momentum"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1 or self.max_steps < 0:
            raise ValueError("batch_size >= 1 and max_steps >= 0 required")
        if self.checkpoint_every > 0 and not self.checkpoint_dir:
            raise ValueError("periodic checkpoints need a checkpoint_dir")


@dataclass
class TrainResult:
    model: Model
    losses: list
    stop_reason: str
    steps: int


def sequence_loss(model: Model, batches, schedule: ShowBlankSchedule, moving: bool) -> Tensor:
    """Roll the model over the sequence(s) and score every frame against its
    own observation: masked_bce(pred, x_occ, mask), pooled as a mean over all
    contributing cells across frames. ``batches`` is one SequenceBatch or a
    list sharing a transform chain."""
    if hasattr(batches, "observations"):
        batches = [batches]
    batches = list(batches)
    preds = rollout(model, batches, schedule)
    dtype = default_dtype()
    total = None
    total_cells = 0.0
    for f, pred in enumerate(preds):
        occ = np.stack([b.observations[f].occ for b in batches]).astype(dtype)[:, None]
        mask = target_mask(batches, schedule, f, moving).astype(dtype)[:, None]
        n = float(mask.sum())
        term = masked_bce(pred, Tensor(occ), Tensor(mask))
        if n > 0.0:
            term = term * n
            total_cells += n
        total = term if total is None else total + term
    if total_cells > 0.0:
        total = total * (1.0 / total_cells)
    return total


def adam_step(params, grads, state: dict, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> dict:
    """In-place Adam update with bias correction. ``state`` holds first and
    second moments plus the step counter; pass {} to start."""
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


def sgd_momentum_step(params, grads, state: dict, lr: float, momentum: float = 0.9) -> dict:
    if not state:
        state = {"v": [np.zeros_like(p.data) for p in params]}
    for p, g, v in zip(params, grads, state["v"]):
        v *= momentum
        v += g
        p.data = p.data - (lr * v).astype(p.data.dtype)
    return state


def train(model: Model, dataset, cfg: TrainConfig) -> TrainResult:
    """Seeded minibatch training. Each epoch draws a fresh permutation of the
    dataset from the seed, groups consecutive sequences into minibatches, and
    applies the configured optimizer. Stops at max_steps, on a loss plateau
    (no new best for plateau_patience steps), and aborts on a non-finite loss
    or, before the optimizer step, on a non-finite parameter gradient.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    for b in dataset:
        if b.spec.size_cells != model.config.grid.size_cells:
            raise ValueError("dataset grid does not match the model")
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
    log_fh = open(cfg.log_path, "a") if cfg.log_path else None
    step_idx = 0
    try:
        while step_idx < cfg.max_steps:
            order = rng.permutation(len(dataset))
            for lo in range(0, len(dataset), cfg.batch_size):
                if step_idx >= cfg.max_steps:
                    break
                group = [dataset[i] for i in order[lo : lo + cfg.batch_size]]
                t0 = time.monotonic()
                model.zero_grad()
                loss = sequence_loss(model, group, cfg.schedule, cfg.moving_sensor)
                value = float(loss.item())
                if not np.isfinite(value):
                    raise FloatingPointError(f"training diverged at step {step_idx}")
                loss.backward()
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
                if log_fh:
                    ms = (time.monotonic() - t0) * 1000.0
                    log_fh.write(f"{step_idx} {value:.6f} {ms:.1f}\n")
                    log_fh.flush()
                if value < best - 1e-6:
                    best = value
                    best_step = step_idx
                if cfg.checkpoint_every and step_idx % cfg.checkpoint_every == 0:
                    save_checkpoint(model, f"{cfg.checkpoint_dir}/step{step_idx:06d}.ckpt")
                if cfg.plateau_patience and step_idx - best_step >= cfg.plateau_patience:
                    stop_reason = "plateau"
                    break
            if stop_reason == "plateau":
                break
    finally:
        if log_fh:
            log_fh.close()
    return TrainResult(model=model, losses=losses, stop_reason=stop_reason, steps=step_idx)
