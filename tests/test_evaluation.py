"""Horizon F1 scoring, occlusion tracking error, and model comparison."""

import os
import re
import sys
import threading

import numpy as np
import pytest

from gridtrack import evaluation, threads
from gridtrack.evaluation import (
    HorizonCurve,
    compare_models,
    f1_horizon,
    occlusion_track_error,
    pooled_counts,
)
from gridtrack.geometry import GridSpec, predictable_mask
from gridtrack.model import ModelConfig, build, rollout
from gridtrack.simulator import (
    moving_straight,
    moving_turning,
    occlusion_scenario,
    static_crossing,
)
from gridtrack.tensor import no_grad, precision
from gridtrack.training import ShowBlankSchedule

SPEC = GridSpec(size_cells=21, cell_size=0.3)


def small_model(variant="GRU3DilConv_16", stm=False, seed=0):
    return build(ModelConfig.for_variant(variant, SPEC, use_stm=stm), seed=seed)


# ---------------------------------------------------------------- HorizonCurve


def test_from_counts_half_overlap():
    # predicted {A,B}, true {B,C}: one hit, one false alarm, one miss
    curve = HorizonCurve.from_counts({1: (1, 1, 1, 3)})
    assert curve.counts == ((1, 1, 1, 3),)
    assert curve.precision == (0.5,)
    assert curve.recall == (0.5,)
    assert curve.f1 == (0.5,)
    assert curve.scored == (3,)


def test_from_counts_perfect_and_empty():
    curve = HorizonCurve.from_counts({1: (7, 0, 0, 20), 2: (0, 0, 0, 0)})
    assert curve.f1[0] == 1.0
    assert curve.precision[0] == 1.0 and curve.recall[0] == 1.0
    assert curve.f1[1] == 0.0


def test_from_counts_orders_offsets():
    curve = HorizonCurve.from_counts({3: (1, 0, 0, 1), 1: (0, 1, 0, 1)})
    assert curve.offsets == (1, 3)
    assert curve.f1 == (0.0, 1.0)


def test_curve_table_shape():
    curve = HorizonCurve.from_counts({1: (1, 1, 1, 3), 2: (2, 0, 0, 2)})
    lines = curve.table().splitlines()
    assert lines[0].split("\t") == ["offset", "precision", "recall", "f1", "n_cells"]
    assert len(lines) == 3
    assert lines[1].startswith("1\t0.5000\t0.5000\t0.5000\t3")


# --------------------------------------------------------------- pooled_counts


def test_pooled_counts_perfect_predictor_static():
    batch = static_crossing(seed=3, spec=SPEC, frames=12)
    sched = ShowBlankSchedule(total_frames=12, show=3, blank=3)
    preds = [batch.observations[f].occ.astype(np.float64) for f in range(batch.frames)]
    counts = pooled_counts(preds, batch, sched, threshold=0.5)
    curve = HorizonCurve.from_counts(counts)
    assert curve.offsets == (1, 2, 3)
    # room walls guarantee occupied visible cells in every frame
    assert all(n > 0 for n in curve.scored)
    assert curve.f1 == (1.0, 1.0, 1.0)


def test_pooled_counts_all_free_predictor():
    batch = static_crossing(seed=3, spec=SPEC, frames=12)
    sched = ShowBlankSchedule(total_frames=12, show=3, blank=3)
    preds = [np.zeros((21, 21)) for _ in range(batch.frames)]
    curve = HorizonCurve.from_counts(pooled_counts(preds, batch, sched, threshold=0.5))
    assert curve.recall == (0.0, 0.0, 0.0)
    assert curve.f1 == (0.0, 0.0, 0.0)


def test_pooled_counts_scores_only_blanked_frames():
    batch = static_crossing(seed=5, spec=SPEC, frames=10)
    sched = ShowBlankSchedule(total_frames=10, show=4, blank=1)
    preds = [np.ones((21, 21)) for _ in range(batch.frames)]
    counts = pooled_counts(preds, batch, sched, threshold=0.5)
    # offsets once per cycle: frames 4 and 9 are the only blanked ones
    expected = int(
        batch.observations[4].vis.sum() + batch.observations[9].vis.sum()
    )
    assert list(counts) == [1]
    assert counts[1][3] == expected
    # the all-occupied predictor misses nothing
    assert counts[1][2] == 0
    assert counts[1][0] + counts[1][1] == expected


def test_pooled_counts_moving_uses_predictable_mask():
    batch = moving_straight(seed=2, spec=SPEC, frames=10)
    sched = ShowBlankSchedule(total_frames=10, show=5, blank=5)
    preds = [np.ones((21, 21)) for _ in range(batch.frames)]
    counts = pooled_counts(preds, batch, sched, threshold=0.5)
    for f in range(5, 10):
        off = f - 4
        pm = predictable_mask(batch.rel_transforms[5 : f + 1], SPEC)[-1]
        expected = int((batch.observations[f].vis.astype(bool) & pm).sum())
        assert counts[off][3] == expected
        # at one cell per frame the mask has lost a band of off columns
        assert not pm.all()


def test_f1_horizon_sums_each_sequences_pooled_counts():
    model = small_model()
    data = [static_crossing(seed=s, spec=SPEC, frames=10) for s in (7, 8)]
    sched = ShowBlankSchedule(total_frames=10, show=5, blank=5)
    solo = []
    with no_grad():
        for batch in data:
            preds = [p.data[0, 0] for p in rollout(model, batch, sched)]
            solo.append(pooled_counts(preds, batch, sched, 0.5))
    summed = tuple(tuple(a + b for a, b in zip(solo[0][k], solo[1][k])) for k in sched.offsets())
    assert f1_horizon(model, data, sched).counts == summed


@pytest.mark.parametrize("grids", [9, 11], ids=["short", "long"])
def test_pooled_counts_needs_one_grid_per_frame(grids):
    batch = static_crossing(seed=3, spec=SPEC, frames=10)
    sched = ShowBlankSchedule(total_frames=10, show=3, blank=2)
    preds = [np.ones((21, 21)) for _ in range(grids)]
    with pytest.raises(ValueError, match=f"got {grids} prediction grids for a 10-frame sequence"):
        pooled_counts(preds, batch, sched, threshold=0.5)


# ------------------------------------------------------------------ f1_horizon


def test_f1_horizon_structure_and_range():
    model = small_model()
    data = [static_crossing(seed=s, spec=SPEC, frames=12) for s in (0, 1)]
    sched = ShowBlankSchedule(total_frames=12, show=4, blank=2)
    curve = f1_horizon(model, data, sched)
    assert curve.offsets == (1, 2)
    assert all(0.0 <= v <= 1.0 for v in curve.f1)
    assert all(n > 0 for n in curve.scored)


def test_f1_horizon_order_invariant():
    model = small_model()
    data = [static_crossing(seed=s, spec=SPEC, frames=12) for s in (0, 1, 2)]
    sched = ShowBlankSchedule(total_frames=12, show=4, blank=2)
    a = f1_horizon(model, data, sched)
    b = f1_horizon(model, list(reversed(data)), sched)
    assert a == b


def test_f1_horizon_accepts_single_batch():
    model = small_model()
    batch = static_crossing(seed=0, spec=SPEC, frames=12)
    sched = ShowBlankSchedule(total_frames=12, show=4, blank=2)
    assert f1_horizon(model, batch, sched) == f1_horizon(model, [batch], sched)


def test_f1_horizon_validation():
    model = small_model()
    batch = static_crossing(seed=0, spec=SPEC, frames=12)
    sched = ShowBlankSchedule(total_frames=12, show=4, blank=2)
    with pytest.raises(ValueError, match="threshold"):
        f1_horizon(model, batch, sched, threshold=1.5)
    with pytest.raises(ValueError, match="threshold"):
        f1_horizon(model, batch, sched, threshold=0.0)
    with pytest.raises(ValueError, match="empty"):
        f1_horizon(model, [], sched)
    allshown = ShowBlankSchedule(total_frames=12, show=12, blank=0)
    with pytest.raises(ValueError, match="blank"):
        f1_horizon(model, batch, allshown)


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def horizon_case(moving):
    """A 4-sequence held-out set and its schedule: static 21x21 data for a
    plain model, or turning-sensor data for an STM model, which warps."""
    builder, stm = (moving_turning, True) if moving else (static_crossing, False)
    data = [builder(seed=s, spec=SPEC, frames=12) for s in (3, 4, 5, 6)]
    return small_model(stm=stm), data, ShowBlankSchedule(total_frames=12, show=4, blank=2)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving_stm"])
def test_f1_horizon_counts_do_not_depend_on_the_worker_count(moving, dtype, monkeypatch):
    with precision(dtype):
        model, data, sched = horizon_case(moving)
        curves = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(threads, "workers", lambda n, k=workers: k)
            curves[workers] = f1_horizon(model, data, sched)
    assert curves[2].counts == curves[1].counts
    assert curves[3].counts == curves[1].counts
    assert all(n > 0 for n in curves[1].scored)


def test_f1_horizon_threads_share_no_scratch(monkeypatch):
    """More threads than cores, switching often: a buffer shared between
    two rollouts would change some count."""
    model, data, sched = horizon_case(moving=True)
    data = data + data
    serial = f1_horizon(model, data, sched)
    monkeypatch.setattr(threads, "workers", lambda n: len(data))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = [f1_horizon(model, data, sched) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert all(c.counts == serial.counts for c in threaded)


def record_threads(monkeypatch):
    """Wrap the module-level rollout and pooled_counts, as a tracer would,
    and return the list of (name, thread id) of their calls."""
    calls = []
    for name in ("rollout", "pooled_counts"):
        orig = getattr(evaluation, name)

        def wrapper(*args, name=name, orig=orig, **kwargs):
            calls.append((name, threading.get_ident()))
            return orig(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, wrapper)
    return calls


def test_f1_horizon_runs_in_the_callers_thread_when_blas_is_not_pinned(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    model, data, sched = horizon_case(moving=False)
    calls = record_threads(monkeypatch)
    f1_horizon(model, data, sched)
    assert calls == [(name, threading.get_ident())
                     for _ in data for name in ("rollout", "pooled_counts")]


def test_f1_horizon_scores_through_the_module_functions_on_workers(monkeypatch):
    model, data, sched = horizon_case(moving=False)
    monkeypatch.setattr(threads, "workers", lambda n: 2)
    calls = record_threads(monkeypatch)
    f1_horizon(model, data, sched)
    assert sorted(name for name, _ in calls) == ["pooled_counts"] * 4 + ["rollout"] * 4
    assert threading.get_ident() not in {ident for _, ident in calls}


@pytest.mark.parametrize(
    "env, cpus, sequences, want",
    [
        ({}, 8, 12, 1),  # BLAS unpinned: it may use every core already
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 12, 2),
        ({"OMP_NUM_THREADS": "1"}, 8, 3, 3),  # one thread per sequence at most
        ({"OMP_NUM_THREADS": "2"}, 8, 12, 4),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 8, 12, 2),  # the largest pool
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 12, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 8, 12, 1),
        ({"OPENBLAS_NUM_THREADS": "2,1"}, 8, 12, 1),  # not an integer: unknown
        ({"OPENBLAS_NUM_THREADS": ""}, 8, 12, 1),
        ({"NUMEXPR_NUM_THREADS": "1"}, 8, 12, 1),  # numexpr's pool, not BLAS's
    ],
)
def test_workers_divide_the_usable_cpus_by_the_blas_threads(env, cpus, sequences, want,
                                                            monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert threads.workers(sequences) == want
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert threads.workers(sequences) == want


def test_scoring_rejects_a_grid_with_another_cell_size():
    """f1_horizon and occlusion_track_error score through the one rollout,
    which refuses data on another grid even when the side length agrees."""
    grid, data_grid = GridSpec(size_cells=11, cell_size=0.2), GridSpec(size_cells=11, cell_size=0.25)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", grid, use_stm=True), seed=0)
    want = re.escape(f"model grid {grid} does not match the dataset grid {data_grid}")
    sched = ShowBlankSchedule(total_frames=6, show=2, blank=1)
    with pytest.raises(ValueError, match=want):
        f1_horizon(model, [moving_turning(seed=0, spec=data_grid, frames=6)], sched)
    with pytest.raises(ValueError, match=want):
        occlusion_track_error(model, occlusion_scenario(seed=1, spec=data_grid, occluded_frames=2))


# ------------------------------------------------------- occlusion_track_error


def test_track_error_reports_occluded_frames():
    scen = occlusion_scenario(seed=1, spec=SPEC, occluded_frames=4)
    model = small_model()
    errors = occlusion_track_error(model, scen)
    assert [f for f, _ in errors] == list(scen.occluded_frames)
    assert all(0.0 <= e <= 5.0 for _, e in errors)


def test_track_error_all_frames_when_never_occluded():
    scen = occlusion_scenario(seed=1, spec=SPEC, occluded_frames=0, with_wall=False)
    assert scen.occluded_frames == ()
    model = small_model()
    errors = occlusion_track_error(model, scen)
    assert [f for f, _ in errors] == list(range(scen.batch.frames))


def test_track_error_saturates_without_hot_cells():
    scen = occlusion_scenario(seed=1, spec=SPEC, occluded_frames=3)
    model = small_model()
    errors = occlusion_track_error(model, scen, threshold=1.1)
    assert all(e == 5.0 for _, e in errors)


# -------------------------------------------------------------- compare_models


def test_compare_models_diffs_and_signs():
    a = HorizonCurve.from_counts({1: (1, 0, 0, 1), 2: (1, 1, 1, 3), 3: (0, 1, 1, 2)})
    b = HorizonCurve.from_counts({1: (1, 1, 1, 3), 2: (1, 1, 1, 3), 3: (1, 0, 0, 1)})
    text = compare_models(a, b, label_a="stm", label_b="baseline")
    lines = text.splitlines()
    assert lines[0] == "offset\tf1[stm]\tf1[baseline]\tdiff"
    assert [line.split("\t")[3] for line in lines[1:4]] == ["+0.5000", "+0.0000", "-1.0000"]
    assert lines[4] == "# stm better at 1, equal at 1, worse at 1 of 3 offsets"


def test_compare_models_rejects_mismatched_offsets():
    a = HorizonCurve.from_counts({1: (1, 0, 0, 1)})
    b = HorizonCurve.from_counts({1: (1, 0, 0, 1), 2: (1, 0, 0, 1)})
    with pytest.raises(ValueError, match="offset axes"):
        compare_models(a, b)
