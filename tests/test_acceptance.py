"""Release gate: one test per acceptance criterion, each printing a single
pass/fail line.

Criteria 1-4 and 9 are exact property checks. Criteria 5-8 are scaled-down
learning experiments on the synthetic simulator; their thresholds are
regression baselines fixed at the first successful run. The experiments share
trained models through module-scoped fixtures, so this file is expensive but
self-contained: a fresh checkout that passes it end-to-end demonstrates
gradients, the spatial memory, the encoder, parameter accounting, learning,
horizon degradation, egomotion compensation, occlusion tracking, and
determinism.
"""

import time

import numpy as np
import pytest

from test_geometry import encode_oracle, random_rays

from gridtrack.dataset import read_sequence, write_sequence
from gridtrack.evaluation import f1_horizon, occlusion_track_error
from gridtrack.geometry import (
    GridSpec,
    ObservationGrid,
    Pose2,
    encode_observation,
    se2_inverse,
)
from gridtrack.model import (
    ModelConfig,
    _input_planes,
    _step_planes,
    build,
    decode,
    initial_state,
    load_checkpoint,
    save_checkpoint,
)
from gridtrack.simulator import (
    moving_turning,
    occlusion_scenario,
    static_crossing,
)
from gridtrack.tensor import (
    ConvParams,
    Tensor,
    bilinear_sample,
    concat_channels,
    conv2d,
    conv_gru_step,
    grad_check,
    masked_bce,
    precision,
)
from gridtrack.training import ShowBlankSchedule, TrainConfig, train


def report(capsys, n: int, ok: bool, detail: str) -> None:
    # one line per criterion on the real stdout, visible even under capture
    with capsys.disabled():
        print(f"\nACCEPTANCE CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)
    assert ok, f"criterion {n}: {detail}"


# ----------------------------------------------------- 1: gradient correctness


def _composed_loss_error(seed: int) -> float:
    grid = GridSpec(size_cells=7, cell_size=0.3)
    model = build(ModelConfig.for_variant("RNN16", grid), seed=seed)
    rng = np.random.default_rng(seed)

    def obs():
        vis = rng.integers(0, 2, size=(7, 7), dtype=np.uint8)
        occ = vis & rng.integers(0, 2, size=(7, 7), dtype=np.uint8)
        return ObservationGrid(vis=vis, occ=occ)

    frames = [obs(), None, obs()]
    target = (rng.random((1, 1, 7, 7)) < 0.4).astype(np.float64)
    mask = (rng.random((1, 1, 7, 7)) < 0.8).astype(np.float64)
    ego = Pose2.identity()

    def loss(*_):
        h = initial_state(model)
        for x in frames:
            h = _step_planes(model, h, _input_planes(model, x), ego)
        return masked_bce(decode(model, h), target, mask)

    # RNN16's full parameter set: recurrence kernel+bias, decoder kernel+bias
    return grad_check(loss, model.parameters(), h=1e-4)


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.monotonic()
    worst = {}

    def track(name, err):
        worst[name] = max(worst.get(name, 0.0), err)

    for seed in range(20):
        rng = np.random.default_rng(seed)
        with precision("float64"):
            a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            track("elementwise", grad_check(
                lambda a, b: (
                    (a * b + a - b.tanh()).sigmoid() * (-b) + (1.0 - a)
                ).sum(),
                [a, b]))

            x = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
            y = Tensor(rng.normal(size=(1, 3, 7, 7)), requires_grad=True)
            track("concat", grad_check(
                lambda x, y: (concat_channels([x, y]) * 0.7).tanh().sum(), [x, y]))

            for dil in (1, 2):
                p = ConvParams.initialize(3, 2, 3, rng, dilation=dil)
                xc = Tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
                track(f"conv_d{dil}", grad_check(
                    lambda xc, k, bb, _p=p: conv2d(
                        [xc],
                        ConvParams(kernel=k, bias=bb, dilation=_p.dilation),
                    ).tanh().sum(),
                    [xc, p.kernel, p.bias]))

            gates = tuple(ConvParams.initialize(3, 5, 3, rng) for _ in range(3))
            hp = Tensor(rng.uniform(-0.5, 0.5, size=(1, 3, 7, 7)), requires_grad=True)
            xg = Tensor(rng.uniform(0, 1, size=(1, 2, 7, 7)), requires_grad=True)
            track("gru", grad_check(
                lambda hp, xg, k, bb: conv_gru_step(
                    hp, xg,
                    (ConvParams(kernel=k, bias=bb),
                     gates[1], gates[2]),
                ).sum(),
                [hp, xg, gates[0].kernel, gates[0].bias]))

            spec = GridSpec(size_cells=9, cell_size=0.4)
            xs = Tensor(rng.normal(size=(1, 2, 9, 9)), requires_grad=True)
            t = Pose2(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)),
                      float(rng.uniform(-0.6, 0.6)))
            track("stm", grad_check(
                lambda xs: (bilinear_sample(xs, t, spec) * 0.9).tanh().sum(), [xs]))

            pred = Tensor(rng.uniform(-2, 2, size=(1, 1, 7, 7)), requires_grad=True)
            tgt = (rng.random((1, 1, 7, 7)) < 0.5).astype(np.float64)
            msk = (rng.random((1, 1, 7, 7)) < 0.7).astype(np.float64)
            track("bce", grad_check(
                lambda pred: masked_bce(pred.sigmoid(), tgt, msk), [pred]))

            track("composed", _composed_loss_error(seed))

    elapsed = time.monotonic() - t0
    worst_err = max(worst.values())
    ok = worst_err < 1e-4 and elapsed < 120.0
    report(capsys, 1, ok,
           f"max rel err {worst_err:.2e} across {len(worst)} op checks x 20 "
           f"seeds, {elapsed:.0f}s")


# --------------------------------------------------------- 2: warp exactness


def test_criterion_2_spatial_memory_exactness(capsys):
    rng = np.random.default_rng(0)
    # power-of-two cell size keeps integer-shift index arithmetic exact
    spec = GridSpec(size_cells=21, cell_size=0.25)
    m, cs = spec.size_cells, spec.cell_size
    shift_ok = True
    with precision("float64"):
        for k, l in ((1, 0), (0, -2), (3, 2), (-2, 4)):
            x = Tensor(rng.normal(size=(2, 3, m, m)))
            out = bilinear_sample(x, Pose2(k * cs, l * cs, 0.0), spec).data
            # content moves opposite the sensor: out[i, j] = x[i - k, j - l]
            src_i = slice(max(-k, 0), m - max(k, 0))
            src_j = slice(max(-l, 0), m - max(l, 0))
            dst_i = slice(max(k, 0), m + min(k, 0))
            dst_j = slice(max(l, 0), m + min(l, 0))
            shift_ok &= bool(
                np.array_equal(out[:, :, dst_i, dst_j], x.data[:, :, src_i, src_j])
            )

        # round trips are checked on the fields bilinear interpolation
        # reproduces exactly: translations preserve a + bx + cy + dxy,
        # rotations need d = 0 (the affine family is rotation-closed)
        ax = spec.axis_centers()
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        worst = 0.0
        for trial in range(10):
            a, b, c, d = rng.normal(size=4)
            if trial % 2 == 0:
                t = Pose2(float(rng.uniform(-0.3, 0.3)),
                          float(rng.uniform(-0.3, 0.3)), 0.0)
                field = a + b * gx + c * gy + d * gx * gy
            else:
                t = Pose2(float(rng.uniform(-0.3, 0.3)),
                          float(rng.uniform(-0.3, 0.3)),
                          float(rng.uniform(-0.12, 0.12)))
                field = a + b * gx + c * gy
            x = Tensor(field[None, None])
            back = bilinear_sample(bilinear_sample(x, t, spec), se2_inverse(t), spec)
            margin = (int(np.ceil((abs(t.x) + abs(t.y)) / cs))
                      + int(np.ceil(abs(t.theta) * m * 0.75)) + 2)
            inner = slice(margin, m - margin)
            err = float(np.abs((back.data - x.data)[:, :, inner, inner]).max())
            worst = max(worst, err)
    ok = shift_ok and worst < 1e-4
    report(capsys, 2, ok, f"integer shifts bitwise: {shift_ok}, round-trip Linf {worst:.2e}")


# ------------------------------------------------- 3: encoder oracle agreement


def test_criterion_3_encoder_matches_oracle(capsys):
    rng = np.random.default_rng(2024)
    scenes = 0
    agree = True
    t0 = time.monotonic()
    for _ in range(1000):
        m = int(rng.choice([3, 5, 7, 9, 11]))
        cs = float(rng.uniform(0.05, 0.6))
        max_r = float(rng.uniform(0.4, 1.5)) * m * cs
        spec = GridSpec(size_cells=m, cell_size=cs, max_range=max_r)
        rays = random_rays(rng, spec)
        got = encode_observation(rays, spec)
        want_vis, want_occ = encode_oracle(rays, spec)
        if not (np.array_equal(got.vis, want_vis) and np.array_equal(got.occ, want_occ)):
            agree = False
            break
        scenes += 1
    report(capsys, 3, agree and scenes == 1000,
           f"{scenes}/1000 randomized scenes identical, {time.monotonic() - t0:.0f}s")


# ------------------------------------------------- 4: parameter accounting


def test_criterion_4_static_bias_accounting(capsys):
    big = GridSpec(size_cells=101, cell_size=0.2)
    bias_model = build(ModelConfig.for_variant("GRU3DilConvBias_48", big), seed=0)
    bias_count = bias_model.static_bias_count
    dilated = build(ModelConfig.for_variant("GRU3DilConv_16", big), seed=0)
    dense = build(ModelConfig.for_variant("GRU3_16", big), seed=0)

    def spans(model):
        return [d * (k - 1) + 1 for _, k, d in model.config.layers]

    same_rf = spans(dilated) == spans(dense) == [3, 5, 9]
    fewer = dilated.param_count < dense.param_count
    ok = bias_count == 489648 and same_rf and fewer
    report(capsys, 4, ok,
           f"static bias {bias_count} (want 489648); dilated {dilated.param_count}"
           f" < dense {dense.param_count} params at equal spans: {fewer and same_rf}")


# ---------------------------------------- 5+6: static-sensor learning fixtures


STATIC_GRID = GridSpec(size_cells=51, cell_size=0.2)


@pytest.fixture(scope="module")
def static_experiment():
    """Three-layer dilated model trained on crossing-disc scenes at 51x51,
    shown 10 / blanked 10. Held-out sequences run two show/blank
    cycles so each offset pools two scene phases."""
    sched = ShowBlankSchedule(total_frames=20, show=10, blank=10)
    train_set = [
        static_crossing(seed=s, spec=STATIC_GRID, frames=20) for s in range(24)
    ]
    held = [
        static_crossing(seed=s, spec=STATIC_GRID, frames=40)
        for s in range(100, 112)
    ]
    cfg = TrainConfig(schedule=sched, learning_rate=3e-3, max_steps=250,
                      seed=0, plateau_patience=100000)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", STATIC_GRID), seed=0)
    t0 = time.monotonic()
    train(model, train_set, cfg)
    minutes = (time.monotonic() - t0) / 60.0
    eval_sched = ShowBlankSchedule(total_frames=40, show=10, blank=10)
    curve = f1_horizon(model, held, eval_sched, threshold=0.5)
    return model, curve, minutes


def test_criterion_5_static_sensor_learning(static_experiment, capsys):
    _, curve, minutes = static_experiment
    f1 = dict(zip(curve.offsets, curve.f1))
    ok = f1[1] >= 0.85 and f1[10] >= 0.6 and minutes < 30.0
    report(capsys, 5, ok,
           f"held-out F1@1 {f1[1]:.3f} (>=0.85), F1@10 {f1[10]:.3f} (>=0.6), "
           f"trained in {minutes:.1f} min (<30)")


def test_criterion_6_horizon_degradation(static_experiment, capsys):
    _, curve, _ = static_experiment
    rises = [curve.f1[i + 1] - curve.f1[i] for i in range(len(curve.f1) - 1)]
    worst_rise = max(rises) if rises else 0.0
    ok = curve.offsets == tuple(range(1, 11)) and worst_rise <= 0.02
    report(capsys, 6, ok,
           f"F1 nonincreasing over offsets 1..10 within 0.02 "
           f"(worst rise {worst_rise:+.3f})")


# -------------------------------------------- 7: egomotion compensation payoff


TURN_GRID = GridSpec(size_cells=33, cell_size=0.2)


@pytest.fixture(scope="module")
def turning_experiment():
    """Spatial memory vs uncompensated baseline, equal budgets, on turning
    trajectories where forward warping should matter."""
    sched = ShowBlankSchedule(total_frames=20, show=5, blank=5)
    train_set = [moving_turning(seed=s, spec=TURN_GRID, frames=20) for s in range(16)]
    held = [moving_turning(seed=s, spec=TURN_GRID, frames=20) for s in range(100, 106)]

    def fit(use_stm):
        cfg = TrainConfig(schedule=sched, learning_rate=3e-3, max_steps=200,
                          seed=0, moving_sensor=True, baseline_override=not use_stm,
                          plateau_patience=100000)
        model = build(
            ModelConfig.for_variant("GRU3DilConv_16", TURN_GRID, use_stm=use_stm),
            seed=0,
        )
        train(model, train_set, cfg)
        return model

    stm, base = fit(True), fit(False)
    return (
        f1_horizon(stm, held, sched, threshold=0.5),
        f1_horizon(base, held, sched, threshold=0.5),
    )


def test_criterion_7_stm_beats_baseline_on_turns(turning_experiment, capsys):
    stm_curve, base_curve = turning_experiment
    assert stm_curve.offsets == base_curve.offsets == (1, 2, 3, 4, 5)
    gaps = [a - b for a, b in zip(stm_curve.f1, base_curve.f1)]
    mean_gap = sum(gaps) / len(gaps)
    ok = all(g >= 0.0 for g in gaps) and mean_gap > 0.0
    report(capsys, 7, ok,
           "compensated minus baseline F1 at offsets 1..5: "
           + ", ".join(f"{g:+.3f}" for g in gaps)
           + f"; mean {mean_gap:+.3f}")


# --------------------------------------------------- 8: tracking through walls


def test_criterion_8_occlusion_tracking(static_experiment, capsys):
    model, _, _ = static_experiment
    scen = occlusion_scenario(seed=500, spec=STATIC_GRID, occluded_frames=5, pad=5)
    assert len(scen.occluded_frames) == 5
    errors = occlusion_track_error(model, scen, threshold=0.3)
    worst = max(e for _, e in errors)
    ok = worst <= 2.0
    report(capsys, 8, ok,
           "centroid error during 5-frame occlusion: "
           + ", ".join(f"{e:.2f}" for _, e in errors)
           + " cells (max <= 2)")


# ------------------------------------------- 9: determinism and persistence


def test_criterion_9_determinism_and_codecs(tmp_path, capsys):
    grid = GridSpec(size_cells=11, cell_size=0.3)
    data = [static_crossing(seed=s, spec=grid, frames=6) for s in range(3)]
    sched = ShowBlankSchedule(total_frames=6, show=3, blank=3)
    cfg = TrainConfig(schedule=sched, learning_rate=1e-3, max_steps=5, seed=7,
                      plateau_patience=100000)

    def run(tag):
        with precision("float64"):
            model = build(ModelConfig.for_variant("GRU3DilConv_16", grid), seed=7)
            train(model, data, cfg)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(model, path)
        return path.read_bytes()

    identical_training = run("a") == run("b")

    ckpt = tmp_path / "c.ckpt"
    model = build(
        ModelConfig.for_variant("GRU3DilConvBias_16", grid, use_stm=True), seed=3
    )
    save_checkpoint(model, ckpt)
    blob = ckpt.read_bytes()
    save_checkpoint(load_checkpoint(ckpt), ckpt)
    ckpt_round = ckpt.read_bytes() == blob

    seq = tmp_path / "d.dtseq"
    write_sequence(data[0], seq)
    raw = seq.read_bytes()
    write_sequence(read_sequence(seq), seq)
    data_round = seq.read_bytes() == raw

    ok = identical_training and ckpt_round and data_round
    report(capsys, 9, ok,
           f"seeded training bit-identical: {identical_training}, checkpoint "
           f"round trip: {ckpt_round}, sequence round trip: {data_round}")
