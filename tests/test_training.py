"""Training loop checks: masked loss semantics, optimizer closed forms,
gradient flow through blanked frames, determinism, and small learnable
problems."""

import re
import sys

import numpy as np
import pytest

from gridtrack import threads, training
from gridtrack.geometry import GridSpec, ObservationGrid, Pose2, se2_compose, source_points
from gridtrack.model import ModelConfig, build, initial_state
from gridtrack.simulator import (
    Bounds,
    Disc,
    Rect,
    SequenceBatch,
    WorldScene,
    moving_straight,
    moving_turning,
    occlusion_scenario,
    sensor_poses,
    simulate_sequence,
    static_crossing,
)
from gridtrack.tensor import Tensor, grad_check, precision
from gridtrack.training import (
    ShowBlankSchedule,
    TrainConfig,
    TrainResult,
    adam_step,
    minibatch_backward,
    sequence_loss,
    sgd_momentum_step,
    target_mask,
    train,
)

GRID9 = GridSpec(size_cells=9, cell_size=0.5)


def tiny_model(grid=GRID9, variant="RNN16", seed=0, use_stm=False):
    return build(ModelConfig.for_variant(variant, grid, use_stm=use_stm), seed=seed)


def blank_batch(spec, frames, vis_value=0):
    """Sequence whose observations have constant visibility planes."""
    m = spec.size_cells
    vis = np.full((m, m), vis_value, dtype=np.uint8)
    occ = np.zeros((m, m), dtype=np.uint8)
    obs = [ObservationGrid(vis=vis.copy(), occ=occ.copy()) for _ in range(frames)]
    return SequenceBatch(
        spec=spec,
        observations=obs,
        rel_transforms=[Pose2.identity()] * frames,
    )


# ----------------------------------------------------------------- schedule


def test_schedule_divides_and_classifies():
    s = ShowBlankSchedule(total_frames=20, show=3, blank=2)
    shown = [f for f in range(10) if s.is_shown(f)]
    assert shown == [0, 1, 2, 5, 6, 7]
    assert s.blank_offset(3) == 1
    assert s.blank_offset(4) == 2
    assert s.blank_offset(7) is None
    assert list(s.offsets()) == [1, 2]


def test_schedule_validation():
    with pytest.raises(ValueError):
        ShowBlankSchedule(total_frames=10, show=3, blank=3)
    with pytest.raises(ValueError):
        ShowBlankSchedule(total_frames=10, show=0, blank=5)
    # blank=0 (always shown) is legal
    s = ShowBlankSchedule(total_frames=6, show=3, blank=0)
    assert all(s.is_shown(f) for f in range(6))


# --------------------------------------------------------------------- loss


def test_loss_zero_when_nothing_visible():
    model = tiny_model()
    batch = blank_batch(GRID9, frames=4, vis_value=0)
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    loss = sequence_loss(model, batch, sched)
    assert loss.item() == 0.0


def test_loss_zero_mask_gradient_exactly_zero():
    model = tiny_model()
    batch = blank_batch(GRID9, frames=4, vis_value=0)
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    model.zero_grad()
    loss = sequence_loss(model, batch, sched)
    loss.backward()
    for p in model.parameters():
        assert p.grad is not None
        assert not p.grad.any()


def frame_mask(batch, sched, f):
    """One frame's scored cells, rebuilt from that frame alone: visibility,
    and at a blanked frame the cells whose centers the chain composed since
    the last shown frame maps back inside the grid footprint."""
    vis = batch.observations[f].vis.astype(bool)
    off = sched.blank_offset(f)
    if off is None:
        return vis
    total = Pose2.identity()
    for t in batch.rel_transforms[f - off + 1 : f + 1]:
        total = se2_compose(t, total)
    bx, by = source_points([total], batch.spec)
    hx = batch.spec.half_extent
    return vis & (np.abs(bx[0]) <= hx) & (np.abs(by[0]) <= hx)


def test_loss_pools_cells_across_frames():
    """Pooled mean equals sum(bce_f * n_f) / sum(n_f) computed per frame, for
    a still sensor alone and for a still and a turning sensor batched with
    egomotion compensation."""
    from gridtrack.model import rollout
    from gridtrack.tensor import masked_bce

    spec = GridSpec(size_cells=11, cell_size=0.5)
    still = [static_crossing(seed=3, spec=spec, frames=4)]
    mixed = [
        static_crossing(seed=3, spec=spec, frames=8),
        moving_turning(seed=4, spec=spec, frames=8),
    ]
    for batches, use_stm in ((still, False), (mixed, True)):
        frames = batches[0].frames
        sched = ShowBlankSchedule(total_frames=frames, show=2, blank=2)
        model = tiny_model(spec, use_stm=use_stm)
        loss = sequence_loss(model, batches, sched)

        preds = rollout(model, batches, sched)
        num = 0.0
        den = 0.0
        for f in range(frames):
            occ = np.stack([b.observations[f].occ for b in batches]).astype(np.float32)[:, None]
            mask = np.stack([frame_mask(b, sched, f) for b in batches]).astype(np.float32)[:, None]
            n = float(mask.sum())
            if n:
                term = masked_bce(preds[f], Tensor(occ), Tensor(mask))
                num += term.item() * n
                den += n
        assert loss.item() == pytest.approx(num / den, rel=1e-6)
    # the turning sensor's blanked frames do lose visible cells
    turning = mixed[1]
    assert any(
        (frame_mask(turning, sched, f) != turning.observations[f].vis.astype(bool)).any()
        for f in range(frames)
    )


def test_moving_loss_masks_leading_band():
    """Two cells per frame of forward motion over five blanked frames must
    remove a ten-cell band from the last blanked frame's mask."""
    from gridtrack.training import target_mask

    spec = GridSpec(size_cells=21, cell_size=0.5)
    frames = 10
    step_pose = Pose2(-2 * spec.cell_size, 0.0, 0.0)
    m = spec.size_cells
    vis = np.ones((m, m), dtype=np.uint8)
    occ = np.zeros((m, m), dtype=np.uint8)
    obs = [ObservationGrid(vis=vis.copy(), occ=occ.copy()) for _ in range(frames)]
    chain = [Pose2.identity()] + [step_pose] * (frames - 1)
    batch = SequenceBatch(spec=spec, observations=obs, rel_transforms=chain)
    sched = ShowBlankSchedule(total_frames=10, show=5, blank=5)
    mask = target_mask(batch, sched)
    assert mask.shape == (frames, m, m)
    final = mask[9]
    assert not final[m - 10 :, :].any()
    assert final[: m - 10, :].all()
    # shown frames keep plain visibility
    assert mask[4].all()


def test_static_target_mask_equals_visibility():
    """A still sensor's identity chain makes every predictable mask all ones,
    so each frame's target mask is exactly its visibility."""
    from gridtrack.training import target_mask

    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = static_crossing(seed=5, spec=spec, frames=8)
    sched = ShowBlankSchedule(total_frames=8, show=2, blank=2)
    mask = target_mask(batch, sched)
    for f in range(batch.frames):
        assert np.array_equal(mask[f], batch.observations[f].vis.astype(bool))


def test_target_mask_rows_follow_each_sequences_chain():
    """For still, straight and turning sensors, each frame of a sequence's
    mask equals that frame's mask rebuilt from its own chain alone."""
    from gridtrack.training import target_mask

    spec = GridSpec(size_cells=21, cell_size=0.4)
    batches = [
        static_crossing(seed=1, spec=spec, frames=8),
        moving_turning(seed=2, spec=spec, frames=8),
        moving_straight(seed=3, spec=spec, frames=8),
    ]
    sched = ShowBlankSchedule(total_frames=8, show=2, blank=2)
    masks = [target_mask(b, sched) for b in batches]
    for f in range(8):
        for mask, b in zip(masks, batches):
            assert np.array_equal(mask[f], frame_mask(b, sched, f))
    # the straight-driving sequence does lose visible cells to its predictable mask
    assert any(
        not np.array_equal(masks[2][f], batches[2].observations[f].vis)
        for f in range(8)
    )


def test_blanked_frame_gradient_matches_finite_differences():
    """Backprop must flow through the blanked frame: a 2-frame show/blank toy
    instance against central differences."""
    with precision("float64"):
        spec = GridSpec(size_cells=5, cell_size=0.5)
        model = tiny_model(spec, variant="RNN16", seed=2)
        rng = np.random.default_rng(0)
        vis = (rng.random((5, 5)) < 0.8).astype(np.uint8)
        occ = (vis & (rng.random((5, 5)) < 0.4)).astype(np.uint8)
        obs = [ObservationGrid(vis=vis, occ=occ) for _ in range(2)]
        batch = SequenceBatch(
            spec=spec, observations=obs, rel_transforms=[Pose2.identity()] * 2
        )
        sched = ShowBlankSchedule(total_frames=2, show=1, blank=1)

        def loss(*_):
            return sequence_loss(model, batch, sched)

        err = grad_check(loss, [model.cells[0].kernel, model.cells[0].bias], h=1e-4)
        assert err < 1e-4


def test_loss_backward_carries_blank_frame_term():
    """Zeroing the blanked frame's visibility changes the gradient, so the
    blank frame demonstrably contributes."""
    spec = GridSpec(size_cells=5, cell_size=0.5)
    rng = np.random.default_rng(1)
    vis = np.ones((5, 5), dtype=np.uint8)
    occ = (rng.random((5, 5)) < 0.4).astype(np.uint8)
    sched = ShowBlankSchedule(total_frames=2, show=1, blank=1)

    def grad_with_final_vis(v2):
        model = tiny_model(spec, seed=4)
        obs = [
            ObservationGrid(vis=vis, occ=occ),
            ObservationGrid(vis=v2, occ=(occ & v2)),
        ]
        batch = SequenceBatch(
            spec=spec, observations=obs, rel_transforms=[Pose2.identity()] * 2
        )
        model.zero_grad()
        sequence_loss(model, batch, sched).backward()
        return model.cells[0].kernel.grad.copy()

    g_full = grad_with_final_vis(vis)
    g_none = grad_with_final_vis(np.zeros((5, 5), dtype=np.uint8))
    assert not np.allclose(g_full, g_none)


# --------------------------------------------------------------- optimizers


def test_adam_first_step_closed_form():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    g = np.array([0.5, -0.1, 0.0])
    lr = 1e-2
    state = adam_step([p], [g], {}, lr)
    eps = 1e-8
    want = np.array([1.0, -2.0, 3.0]) - lr * g / (np.abs(g) + eps)
    assert np.allclose(p.data, want, atol=1e-10)
    assert state["t"] == 1


def test_adam_zero_gradient_keeps_params():
    p = Tensor(np.array([1.5, -0.5]), requires_grad=True)
    adam_step([p], [np.zeros(2)], {}, lr := 1e-2)
    assert np.array_equal(p.data, np.array([1.5, -0.5]))
    assert lr == 1e-2


def test_adam_constant_gradient_approaches_lr_sign():
    p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    lr = 1e-3
    state: dict = {}
    prev = p.data.copy()
    for _ in range(500):
        prev = p.data.copy()
        state = adam_step([p], [g], state, lr)
    update = p.data - prev
    assert np.allclose(update, -lr * np.sign(g), rtol=1e-3)


def test_sgd_momentum_accumulates():
    p = Tensor(np.array([0.0]), requires_grad=True)
    g = np.array([1.0])
    state: dict = {}
    state = sgd_momentum_step([p], [g], state, lr=0.1)
    assert p.data[0] == pytest.approx(-0.1)
    state = sgd_momentum_step([p], [g], state, lr=0.1)
    # velocity = 0.9*1 + 1 = 1.9
    assert p.data[0] == pytest.approx(-0.1 - 0.19)


# --------------------------------------------------------------------- train


def test_train_config_validation():
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(schedule=sched, learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(schedule=sched, optimizer="adagrad")
    with pytest.raises(ValueError):
        TrainConfig(schedule=sched, checkpoint_every=5)
    with pytest.raises(ValueError, match="checkpoint_every"):
        TrainConfig(schedule=sched, checkpoint_every=-1)
    with pytest.raises(ValueError, match="plateau_patience"):
        TrainConfig(schedule=sched, plateau_patience=-3)


def test_train_zero_steps_returns_initial_model():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    model = tiny_model(spec)
    before = [p.data.copy() for p in model.parameters()]
    batch = static_crossing(seed=1, spec=spec, frames=4)
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2), max_steps=0
    )
    result = train(model, [batch], cfg)
    assert result.steps == 0
    assert result.losses == []
    assert result.stop_reason == "max_steps"
    for p, b in zip(result.model.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_rejects_empty_or_mismatched_dataset():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    model = tiny_model(spec)
    cfg = TrainConfig(schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2))
    with pytest.raises(ValueError):
        train(model, [], cfg)
    other = static_crossing(seed=1, spec=GridSpec(size_cells=9, cell_size=0.5), frames=4)
    with pytest.raises(ValueError):
        train(model, [other], cfg)


def test_train_rejects_a_grid_with_another_cell_size():
    grid, data_grid = GridSpec(size_cells=11, cell_size=0.2), GridSpec(size_cells=11, cell_size=0.25)
    model = tiny_model(grid, variant="GRU3DilConv_16", use_stm=True)
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=2,
        moving_sensor=True,
    )
    before = [p.data.copy() for p in model.parameters()]
    want = re.escape(f"model grid {grid} does not match the dataset grid {data_grid}")
    with pytest.raises(ValueError, match=want):
        train(model, [moving_turning(seed=0, spec=data_grid, frames=4)], cfg)
    assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))


def test_train_moving_requires_stm_or_override():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = moving_straight(seed=1, spec=spec, frames=4)
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    plain = tiny_model(spec, variant="GRU3DilConv_16")
    with pytest.raises(ValueError):
        train(plain, [batch], TrainConfig(schedule=sched, moving_sensor=True, max_steps=1))
    # override allows the ablation baseline
    result = train(
        plain,
        [batch],
        TrainConfig(schedule=sched, moving_sensor=True, baseline_override=True, max_steps=1),
    )
    assert result.steps == 1


def test_train_deterministic_in_float64():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    data = [static_crossing(seed=s, spec=spec, frames=4) for s in range(3)]
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    cfg = TrainConfig(schedule=sched, max_steps=6, batch_size=2, seed=9)
    with precision("float64"):
        a = train(tiny_model(spec, seed=1), data, cfg)
        b = train(tiny_model(spec, seed=1), data, cfg)
    assert a.losses == b.losses
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_train_logs_steps(tmp_path):
    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = static_crossing(seed=1, spec=spec, frames=4)
    log = tmp_path / "train.log"
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=3,
        log_path=str(log),
    )
    train(tiny_model(spec), [batch], cfg)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 3
    step, loss, ms = lines[0].split()
    assert int(step) == 1
    assert float(loss) > 0
    assert float(ms) >= 0


def test_train_periodic_checkpoints(tmp_path):
    from gridtrack.model import load_checkpoint

    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = static_crossing(seed=1, spec=spec, frames=4)
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=4,
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
    )
    train(tiny_model(spec), [batch], cfg)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["step000002.ckpt", "step000004.ckpt"]
    load_checkpoint(tmp_path / "step000004.ckpt")


def test_train_periodic_checkpoints_create_missing_directory(tmp_path):
    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = static_crossing(seed=1, spec=spec, frames=4)
    out = tmp_path / "runs" / "a" / "ckpt"
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=2,
        checkpoint_every=1,
        checkpoint_dir=str(out),
    )
    train(tiny_model(spec), [batch], cfg)
    assert sorted(p.name for p in out.iterdir()) == ["step000001.ckpt", "step000002.ckpt"]


def test_train_log_creates_missing_directory(tmp_path):
    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = static_crossing(seed=1, spec=spec, frames=4)
    log = tmp_path / "logs" / "a" / "train.log"
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=2,
        log_path=str(log),
    )
    train(tiny_model(spec), [batch], cfg)
    assert len(log.read_text().splitlines()) == 2


def test_train_rejected_grid_leaves_no_log_or_checkpoint_dir(tmp_path):
    batch = static_crossing(seed=1, spec=GRID9, frames=4)
    log, out = tmp_path / "logs" / "train.log", tmp_path / "ckpt"
    cfg = TrainConfig(
        schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2),
        max_steps=2,
        checkpoint_every=1,
        checkpoint_dir=str(out),
        log_path=str(log),
    )
    with pytest.raises(ValueError, match="does not match the dataset grid"):
        train(tiny_model(GridSpec(size_cells=11, cell_size=0.2)), [batch], cfg)
    assert not log.parent.exists()
    assert not out.exists()


def test_train_divergence_guard():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    model = tiny_model(spec)
    model.cells[0].kernel.data[:] = np.nan
    batch = static_crossing(seed=1, spec=spec, frames=4)
    cfg = TrainConfig(schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2), max_steps=2)
    with pytest.raises(FloatingPointError):
        train(model, [batch], cfg)


def test_train_non_finite_gradient_guard(monkeypatch):
    """A NaN in one parameter's gradient stops training before the optimizer
    step, names that parameter, and leaves every parameter unchanged."""
    spec = GridSpec(size_cells=11, cell_size=0.5)
    model = tiny_model(spec, variant="GRU3DilConv_16")
    before = [p.data.copy() for p in model.parameters()]
    target = model.cells[1][2].bias

    def nan_grad_loss(model, batches, schedule):
        loss = Tensor(np.asarray(0.5), requires_grad=True)
        loss._prev = (target,)

        def backward():
            g = np.zeros_like(target.data)
            g[0] = np.nan
            target._accum(g)

        loss._backward = backward
        return loss

    monkeypatch.setattr("gridtrack.training.sequence_loss", nan_grad_loss)
    batch = static_crossing(seed=1, spec=spec, frames=4)
    cfg = TrainConfig(schedule=ShowBlankSchedule(total_frames=4, show=2, blank=2), max_steps=2)
    with pytest.raises(FloatingPointError, match=r"layer1\.wh\.bias"):
        train(model, [batch], cfg)
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.data, b)


# ------------------------------------------------------- per-sample backward


def turning_minibatch(seeds=(2, 3, 4, 5)):
    """Turning-sensor sequences whose target masks differ in size, and an
    STM model, which warps each sample's state by its own transforms."""
    spec = GridSpec(size_cells=11, cell_size=0.4)
    data = [moving_turning(seed=s, spec=spec, frames=6) for s in seeds]
    sched = ShowBlankSchedule(total_frames=6, show=2, blank=1)
    return tiny_model(spec, variant="GRU3DilConv_16", use_stm=True), data, sched


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_train_bits_do_not_depend_on_the_worker_count(dtype, monkeypatch):
    """Batch-4 training on 1, 2 and 4 threads (more threads than cores,
    switching often) gives the same losses and parameter bytes."""
    runs = {}
    interval = sys.getswitchinterval()
    try:
        with precision(dtype):
            for workers in (1, 2, 4):
                monkeypatch.setattr(threads, "workers", lambda n, k=workers: k)
                sys.setswitchinterval(1e-6 if workers == 4 else interval)
                model, data, sched = turning_minibatch()
                cfg = TrainConfig(schedule=sched, learning_rate=1e-2, batch_size=4,
                                  max_steps=3, moving_sensor=True)
                runs[workers] = train(model, data, cfg)
    finally:
        sys.setswitchinterval(interval)
    one = runs[1]
    assert all(np.isfinite(one.losses)) and len(one.losses) == 3
    for workers in (2, 4):
        assert runs[workers].losses == one.losses
        for pa, pb in zip(runs[workers].model.parameters(), one.model.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


@pytest.mark.parametrize("dtype, rtol", [("float32", 1e-6), ("float64", 1e-12)])
def test_minibatch_backward_matches_the_pooled_loss(dtype, rtol):
    """Per-sample losses weighted by their share of the scored cells add up
    to the pooled loss of the whole minibatch, and their gradients to its
    gradient (relative to each parameter's largest entry)."""
    with precision(dtype):
        model, data, sched = turning_minibatch()
        cells = [target_mask(b, sched).sum() for b in data]
        assert len(set(cells)) > 1
        pooled = sequence_loss(model, data, sched)
        pooled.backward()
        want = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        got = minibatch_backward(model, data, sched)
    assert abs(got - pooled.item()) <= rtol * pooled.item()
    for p, w in zip(model.parameters(), want):
        assert np.abs(p.grad - w).max() <= rtol * np.abs(w).max()


def test_minibatch_backward_of_one_sample_is_the_plain_backward():
    model, data, sched = turning_minibatch(seeds=(3,))
    loss = sequence_loss(model, data, sched)
    loss.backward()
    want = [p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    assert minibatch_backward(model, data, sched) == loss.item()
    for p, w in zip(model.parameters(), want):
        assert np.array_equal(p.grad, w)


def test_train_names_a_nan_gradient_only_a_later_sample_produces(monkeypatch):
    """A NaN in one parameter's gradient of the third sample of a batch of
    four, backpropagated on a replica, stops training before the optimizer
    step, names that parameter, and leaves every parameter unchanged."""
    model, data, sched = turning_minibatch()
    before = [p.data.copy() for p in model.parameters()]
    cfg = TrainConfig(schedule=sched, batch_size=4, max_steps=1, moving_sensor=True)
    poisoned = data[np.random.default_rng(cfg.seed).permutation(len(data))[2]]
    real = training.sequence_loss

    def nan_grad_in_one_sample(sink, batches, schedule):
        loss = real(sink, batches, schedule)
        if batches[0] is not poisoned:
            return loss
        assert sink is not model
        target = sink.cells[1][2].bias
        spike = Tensor(np.asarray(0.0), requires_grad=True)
        spike._prev = (target,)

        def backward():
            g = np.zeros_like(target.data)
            g[0] = np.nan
            target._accum(g)

        spike._backward = backward
        return loss + spike

    monkeypatch.setattr(training, "sequence_loss", nan_grad_in_one_sample)
    monkeypatch.setattr(threads, "workers", lambda n: 2)
    with pytest.raises(FloatingPointError, match=r"layer1\.wh\.bias"):
        train(model, data, cfg)
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.data, b)


def all_free_batch(spec, frames):
    """World whose only shape sits far outside the grid: full visibility to
    the grid edge, nothing occupied."""
    far = Rect(half_w=0.5, half_h=0.5, cx=100.0, cy=0.0)
    scene = WorldScene(
        static_shapes=(far,), dynamic_objects=(), bounds=Bounds(-200, 200, -200, 200)
    )
    return simulate_sequence(scene, sensor_poses(frames, 8.0), 8.0, spec, n_beams=180, seed=0)


def test_train_learns_all_free_world():
    spec = GridSpec(size_cells=11, cell_size=0.5)
    batch = all_free_batch(spec, frames=4)
    assert not any(o.occ.any() for o in batch.observations)
    assert any(o.vis.any() for o in batch.observations)
    model = tiny_model(spec, variant="RNN16", seed=3)
    sched = ShowBlankSchedule(total_frames=4, show=2, blank=2)
    cfg = TrainConfig(schedule=sched, learning_rate=3e-2, max_steps=200, plateau_patience=0)
    result = train(model, [batch], cfg)
    assert result.losses[-1] < 0.05
    assert result.losses[-1] < result.losses[0] / 5


def test_train_loss_decreases_on_occlusion_corpus():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    scenarios = [
        occlusion_scenario(seed=s, spec=spec, occluded_frames=2, pad=3, n_beams=180)
        for s in range(2)
    ]
    data = [s.batch for s in scenarios]
    frames = data[0].frames
    sched = ShowBlankSchedule(total_frames=frames, show=frames, blank=0)
    model = tiny_model(spec, variant="GRU3DilConv_16", seed=0)
    cfg = TrainConfig(schedule=sched, learning_rate=5e-3, max_steps=50, plateau_patience=0)
    result = train(model, data, cfg)
    first = np.mean(result.losses[:10])
    last = np.mean(result.losses[-10:])
    assert last < first
