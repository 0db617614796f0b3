"""Quantitative evaluation: F1 over blanked prediction horizons, centroid
tracking error through occlusions, and model-vs-model comparison reports.

All horizon scores are micro-averaged: raw true/false positive/negative
counts are pooled across frames and sequences per horizon offset before any
ratio is formed, so dataset order cannot change a curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, rollout
from .tensor import no_grad
from .training import ShowBlankSchedule, target_mask

__all__ = [
    "HorizonCurve",
    "f1_horizon",
    "pooled_counts",
    "occlusion_track_error",
    "ModelComparison",
    "compare_models",
]


@dataclass(frozen=True)
class HorizonCurve:
    """Precision/recall/F1 per blanked-frame offset, with the pooled number
    of scored cells behind each point. Offsets with no scored cells carry
    F1=0 and a raised zero_count flag."""

    offsets: tuple
    precision: tuple
    recall: tuple
    f1: tuple
    scored: tuple
    zero_count: tuple

    def __post_init__(self):
        n = len(self.offsets)
        for name in ("precision", "recall", "f1", "scored", "zero_count"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length does not match offsets")
        for seq in (self.precision, self.recall, self.f1):
            if any(not (0.0 <= v <= 1.0) for v in seq):
                raise ValueError("scores must lie in [0, 1]")

    @classmethod
    def from_counts(cls, counts: dict) -> "HorizonCurve":
        """counts: offset -> (tp, fp, fn, scored)."""
        offsets = tuple(sorted(counts))
        precision, recall, f1, scored, zero = [], [], [], [], []
        for k in offsets:
            tp, fp, fn, n = counts[k]
            p = tp / (tp + fp) if tp + fp > 0 else 0.0
            r = tp / (tp + fn) if tp + fn > 0 else 0.0
            f = 2 * p * r / (p + r) if p + r > 0 else 0.0
            precision.append(p)
            recall.append(r)
            f1.append(f)
            scored.append(int(n))
            zero.append(n == 0)
        return cls(
            offsets=offsets,
            precision=tuple(precision),
            recall=tuple(recall),
            f1=tuple(f1),
            scored=tuple(scored),
            zero_count=tuple(zero),
        )

    def table(self) -> str:
        lines = ["offset\tprecision\trecall\tf1\tn_cells"]
        for i, k in enumerate(self.offsets):
            lines.append(
                f"{k}\t{self.precision[i]:.4f}\t{self.recall[i]:.4f}"
                f"\t{self.f1[i]:.4f}\t{self.scored[i]}"
            )
        return "\n".join(lines)


def pooled_counts(preds, batch, schedule, threshold: float, counts: dict | None = None) -> dict:
    """Accumulate per-offset (tp, fp, fn, scored) from one sequence's
    per-frame prediction grids (arrays of probabilities, shape M×M)."""
    if counts is None:
        counts = {k: [0, 0, 0, 0] for k in schedule.offsets()}
    masks = target_mask(batch, schedule)
    for f, mask in enumerate(masks):
        off = schedule.blank_offset(f)
        if off is None:
            continue
        occ = batch.observations[f].occ.astype(bool)
        hot = np.asarray(preds[f]) >= threshold
        c = counts[off]
        c[0] += int((hot & occ & mask).sum())
        c[1] += int((hot & ~occ & mask).sum())
        c[2] += int((~hot & occ & mask).sum())
        c[3] += int(mask.sum())
    return counts


def f1_horizon(model: Model, dataset, schedule, threshold: float = 0.5) -> HorizonCurve:
    """Micro-averaged precision/recall/F1 at each blanked offset, scoring
    predictions against the withheld observations on visible and
    predictable cells only."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be inside (0,1), got {threshold}")
    dataset = [dataset] if hasattr(dataset, "observations") else list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if schedule.blank == 0:
        raise ValueError("schedule blanks no frames; there is no horizon to score")
    counts = None
    with no_grad():
        for batch in dataset:
            preds = rollout(model, batch, schedule)
            grids = [p.data[0, 0] for p in preds]
            counts = pooled_counts(grids, batch, schedule, threshold, counts)
    return HorizonCurve.from_counts(counts)


def occlusion_track_error(
    model: Model,
    scenario,
    threshold: float = 0.3,
    window_radius: float = 5.0,
) -> list:
    """Centroid tracking error, in cells, of thresholded predicted occupancy
    against the scripted disc position, measured inside a window around the
    true position. Frames with nothing above threshold in the window report
    the saturation value (the window radius).

    Evaluated at the scenario's occluded frames; a never-occluded scenario is
    scored at every frame (plain visible-tracking error). Returns
    (frame, error) pairs.
    """
    batch = scenario.batch
    spec = batch.spec
    sched = ShowBlankSchedule(total_frames=batch.frames, show=batch.frames, blank=0)
    with no_grad():
        preds = rollout(model, batch, sched)
    frames = scenario.occluded_frames or tuple(range(batch.frames))
    c, cs = spec.center, spec.cell_size
    ii, jj = np.meshgrid(np.arange(spec.size_cells), np.arange(spec.size_cells), indexing="ij")
    out = []
    for f in frames:
        x, y = scenario.disc_centers[f]
        ci = x / cs + c
        cj = y / cs + c
        window = (ii - ci) ** 2 + (jj - cj) ** 2 <= window_radius**2
        hot = (preds[f].data[0, 0] >= threshold) & window
        if not hot.any():
            out.append((f, float(window_radius)))
            continue
        mi = ii[hot].mean()
        mj = jj[hot].mean()
        out.append((f, float(math.hypot(mi - ci, mj - cj))))
    return out


@dataclass(frozen=True)
class ModelComparison:
    label_a: str
    label_b: str
    offsets: tuple
    f1_a: tuple
    f1_b: tuple

    @property
    def diffs(self) -> tuple:
        return tuple(a - b for a, b in zip(self.f1_a, self.f1_b))

    @property
    def sign_summary(self) -> dict:
        d = self.diffs
        return {
            "better": sum(1 for v in d if v > 0),
            "equal": sum(1 for v in d if v == 0),
            "worse": sum(1 for v in d if v < 0),
        }

    def table(self) -> str:
        lines = [f"offset\tf1[{self.label_a}]\tf1[{self.label_b}]\tdiff"]
        for i, k in enumerate(self.offsets):
            lines.append(
                f"{k}\t{self.f1_a[i]:.4f}\t{self.f1_b[i]:.4f}\t{self.diffs[i]:+.4f}"
            )
        s = self.sign_summary
        lines.append(
            f"# {self.label_a} better at {s['better']}, equal at {s['equal']}, "
            f"worse at {s['worse']} of {len(self.offsets)} offsets"
        )
        return "\n".join(lines)


def compare_models(
    curve_a: HorizonCurve,
    curve_b: HorizonCurve,
    label_a: str = "model_a",
    label_b: str = "model_b",
) -> ModelComparison:
    """Per-offset F1 differences between two curves computed on the same
    dataset and schedule. Mismatched offset axes are rejected."""
    if curve_a.offsets != curve_b.offsets:
        raise ValueError(
            f"offset axes differ: {curve_a.offsets} vs {curve_b.offsets}"
        )
    return ModelComparison(
        label_a=label_a,
        label_b=label_b,
        offsets=curve_a.offsets,
        f1_a=curve_a.f1,
        f1_b=curve_b.f1,
    )
