"""Quantitative evaluation: F1 over blanked prediction horizons, centroid
tracking error through occlusions, and model-vs-model comparison tables.

All horizon scores are micro-averaged: raw true/false positive/negative
counts are pooled across frames and sequences per horizon offset before any
ratio is formed, so dataset order cannot change a curve. A HorizonCurve keeps
only those counts; its precision, recall and F1 are derived from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, rollout
from .tensor import no_grad
from .threads import ordered_map
from .training import ShowBlankSchedule, target_mask

__all__ = [
    "HorizonCurve",
    "f1_horizon",
    "pooled_counts",
    "occlusion_track_error",
    "compare_models",
]


@dataclass(frozen=True)
class HorizonCurve:
    """The pooled (tp, fp, fn, scored) counts at each blanked-frame offset,
    with precision, recall and F1 derived from them. Offsets with no scored
    cells carry F1=0 and a scored count of 0."""

    offsets: tuple
    counts: tuple  # per offset: (tp, fp, fn, scored)

    @classmethod
    def from_counts(cls, counts: dict) -> "HorizonCurve":
        """counts: offset -> (tp, fp, fn, scored)."""
        offsets = tuple(sorted(counts))
        return cls(offsets=offsets, counts=tuple(tuple(counts[k]) for k in offsets))

    @property
    def precision(self) -> tuple:
        return tuple(tp / (tp + fp) if tp + fp > 0 else 0.0 for tp, fp, _, _ in self.counts)

    @property
    def recall(self) -> tuple:
        return tuple(tp / (tp + fn) if tp + fn > 0 else 0.0 for tp, _, fn, _ in self.counts)

    @property
    def f1(self) -> tuple:
        return tuple(
            2 * p * r / (p + r) if p + r > 0 else 0.0 for p, r in zip(self.precision, self.recall)
        )

    @property
    def scored(self) -> tuple:
        return tuple(int(n) for _, _, _, n in self.counts)

    def table(self) -> str:
        lines = ["offset\tprecision\trecall\tf1\tn_cells"]
        rows = zip(self.offsets, self.precision, self.recall, self.f1, self.scored)
        for k, p, r, f, n in rows:
            lines.append(f"{k}\t{p:.4f}\t{r:.4f}\t{f:.4f}\t{n}")
        return "\n".join(lines)


def pooled_counts(preds, batch, schedule, threshold: float) -> dict:
    """Per-offset (tp, fp, fn, scored) of one sequence's per-frame
    prediction grids (arrays of probabilities, shape M×M), one grid per
    frame of the sequence."""
    if len(preds) != batch.frames:
        raise ValueError(f"got {len(preds)} prediction grids for a {batch.frames}-frame sequence")
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
    """Micro-averaged precision/recall/F1 at each blanked offset over
    ``dataset``, a list of sequences, scoring predictions against the
    withheld observations on visible and predictable cells only.

    Each sequence is rolled out and counted on its own, and the integer
    counts are summed in sequence order, so the curve does not depend on
    how many sequences run at once. When the environment pins the BLAS
    thread pools, sequences run on as many threads as the usable CPUs
    hold at that pool size (see ``threads.workers``); otherwise they run one
    after another in the caller's thread. Either way they run under
    ``no_grad`` and the caller's ``precision``."""
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be inside (0,1), got {threshold}")
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    if schedule.blank == 0:
        raise ValueError("schedule blanks no frames; there is no horizon to score")

    def score(batch) -> dict:
        preds = rollout(model, batch, schedule)
        return pooled_counts([p.data[0, 0] for p in preds], batch, schedule, threshold)

    with no_grad():
        scored = ordered_map(score, dataset)
    counts = {k: [0, 0, 0, 0] for k in schedule.offsets()}
    for seq in scored:
        for k, c in seq.items():
            counts[k] = [a + b for a, b in zip(counts[k], c)]
    return HorizonCurve.from_counts(counts)


def occlusion_track_error(model: Model, scenario, threshold: float = 0.3) -> list:
    """Centroid tracking error, in cells, of thresholded predicted occupancy
    against the scripted disc position, measured inside a window of radius
    5 cells around the true position. Frames with nothing above threshold in
    the window report the saturation value (the window radius).

    Evaluated at the scenario's occluded frames; a never-occluded scenario is
    scored at every frame (plain visible-tracking error). Returns
    (frame, error) pairs.
    """
    window_radius = 5.0
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


def compare_models(
    curve_a: HorizonCurve,
    curve_b: HorizonCurve,
    label_a: str = "model_a",
    label_b: str = "model_b",
) -> str:
    """Table of per-offset F1 for two curves computed on the same dataset
    and schedule, their difference, and a closing line counting the offsets
    where ``label_a`` is better, equal and worse. Mismatched offset axes are
    rejected."""
    if curve_a.offsets != curve_b.offsets:
        raise ValueError(
            f"offset axes differ: {curve_a.offsets} vs {curve_b.offsets}"
        )
    f1_a, f1_b = curve_a.f1, curve_b.f1
    diffs = [a - b for a, b in zip(f1_a, f1_b)]
    lines = [f"offset\tf1[{label_a}]\tf1[{label_b}]\tdiff"]
    for k, a, b, d in zip(curve_a.offsets, f1_a, f1_b, diffs):
        lines.append(f"{k}\t{a:.4f}\t{b:.4f}\t{d:+.4f}")
    better = sum(1 for v in diffs if v > 0)
    equal = sum(1 for v in diffs if v == 0)
    worse = sum(1 for v in diffs if v < 0)
    lines.append(
        f"# {label_a} better at {better}, equal at {equal}, "
        f"worse at {worse} of {len(diffs)} offsets"
    )
    return "\n".join(lines)
