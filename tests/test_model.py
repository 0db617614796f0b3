"""Model assembly checks: parameter accounting against closed-form counts,
deterministic builds, state warping, decoding, rollouts, and checkpoints."""

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from gridtrack.geometry import GridSpec, ObservationGrid, Pose2
from gridtrack.model import (
    BLANK,
    HiddenState,
    ModelConfig,
    _config_json,
    build,
    decode,
    initial_state,
    load_checkpoint,
    rollout,
    save_checkpoint,
    step,
)
from gridtrack.simulator import static_crossing
from gridtrack.tensor import Tensor, grad_check, masked_bce, precision

GRID9 = GridSpec(size_cells=9, cell_size=0.5)
GRID21 = GridSpec(size_cells=21, cell_size=0.5)


def conv_param_count(out_ch, in_ch, k):
    return out_ch * in_ch * k * k + out_ch


def expected_count(variant, m):
    """Independent parameter tally from the layer table."""
    tables = {
        "RNN16": [(16, 3)],
        "RNN48": [(48, 3)],
        "GRU3_16": [(16, 3), (16, 5), (16, 9)],
        "GRU3DilConv_16": [(16, 3), (16, 3), (16, 3)],
        "GRU3DilConv_48": [(16, 3), (16, 3), (16, 3)],
        "GRU3DilConvBias_16": [(16, 3), (16, 3), (16, 3)],
        "GRU3DilConvBias_48": [(16, 3), (16, 3), (16, 3)],
    }
    gated = variant.startswith("GRU")
    total = 0
    in_ch = 2
    hidden = 0
    for maps, k in tables[variant]:
        per_conv = conv_param_count(maps, in_ch + maps, k)
        total += 3 * per_conv if gated else per_conv
        hidden += maps
        in_ch = maps
    if "Bias" in variant:
        total += hidden * m * m
    dec_in = hidden if variant.endswith("48") else tables[variant][-1][0]
    total += conv_param_count(1, dec_in, 3)
    return total


def random_obs(rng, m):
    vis = (rng.random((m, m)) < 0.6).astype(np.uint8)
    occ = (vis & (rng.random((m, m)) < 0.3)).astype(np.uint8)
    return ObservationGrid(vis=vis, occ=occ)


# ----------------------------------------------------------------- config


def test_config_for_variant_fills_table():
    cfg = ModelConfig.for_variant("GRU3DilConv_48", GRID21)
    assert [f.name for f in dataclasses.fields(cfg)] == ["variant", "use_stm", "grid"]
    assert cfg.layers == ((16, 3, 1), (16, 3, 2), (16, 3, 4))
    assert cfg.decode_full_state
    assert not cfg.static_bias
    assert cfg.decoder_in == 48


def test_config_rejects_inconsistencies(tmp_path):
    with pytest.raises(ValueError):
        ModelConfig.for_variant("GRU9_THICC", GRID21)
    with pytest.raises(ValueError):
        ModelConfig(variant="GRU9_THICC", use_stm=False, grid=GRID21)
    # a config can only disagree with its variant table inside a checkpoint
    path = tmp_path / "model.ckpt"
    save_checkpoint(build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0), path)
    bad = tmp_path / "bad.ckpt"
    for key, value in [
        ("layers", [[16, 3, 1]]),
        ("decode_full_state", True),
        ("static_bias", True),
    ]:
        rewrite_config(path, bad, lambda doc: {**doc, key: value})
        with pytest.raises(ValueError, match=f"bad.ckpt: config {key} .* does not match"):
            load_checkpoint(bad)


def test_dense_variant_matches_dilated_spans():
    dense = ModelConfig.for_variant("GRU3_16", GRID21)
    dilated = ModelConfig.for_variant("GRU3DilConv_16", GRID21)
    spans_dense = [d * (k - 1) + 1 for _, k, d in dense.layers]
    spans_dilated = [d * (k - 1) + 1 for _, k, d in dilated.layers]
    assert spans_dense == spans_dilated == [3, 5, 9]


# ------------------------------------------------------------------ build


@pytest.mark.parametrize("variant", [
    "RNN16",
    "RNN48",
    "GRU3_16",
    "GRU3DilConv_16",
    "GRU3DilConv_48",
    "GRU3DilConvBias_16",
    "GRU3DilConvBias_48",
])
def test_param_count_matches_closed_form(variant):
    m = 21
    model = build(ModelConfig.for_variant(variant, GRID21), seed=0)
    assert model.param_count == expected_count(variant, m)


def test_static_bias_count_at_full_scale():
    grid = GridSpec(size_cells=101, cell_size=0.2)
    model = build(ModelConfig.for_variant("GRU3DilConvBias_48", grid), seed=0)
    assert model.static_bias_count == 101 * 101 * 48 == 489648
    assert "489648" in model.describe().replace(",", "")


def test_dilated_has_fewer_params_than_dense():
    dense = build(ModelConfig.for_variant("GRU3_16", GRID21), seed=0)
    dilated = build(ModelConfig.for_variant("GRU3DilConv_16", GRID21), seed=0)
    assert dilated.param_count < dense.param_count


def test_build_deterministic_per_seed():
    cfg = ModelConfig.for_variant("GRU3DilConv_16", GRID9)
    a = build(cfg, seed=42)
    b = build(cfg, seed=42)
    c = build(cfg, seed=43)
    for ta, tb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data) for ta, tc in zip(a.parameters(), c.parameters())
    )


def test_named_parameters_follow_checkpoint_order():
    gru = build(ModelConfig.for_variant("GRU3DilConvBias_16", GRID9), seed=0)
    named = gru.named_parameters()
    assert [t for _, t in named] == gru.parameters()
    names = [n for n, _ in named]
    assert names[:6] == [
        "layer0.wz.kernel", "layer0.wz.bias", "layer0.wr.kernel",
        "layer0.wr.bias", "layer0.wh.kernel", "layer0.wh.bias",
    ]
    assert names[18:] == ["bias_grid0", "bias_grid1", "bias_grid2", "decoder.kernel", "decoder.bias"]
    rnn = build(ModelConfig.for_variant("RNN16", GRID9), seed=0)
    assert [n for n, _ in rnn.named_parameters()] == [
        "layer0.kernel", "layer0.bias", "decoder.kernel", "decoder.bias",
    ]


def test_bias_grids_start_at_zero():
    model = build(ModelConfig.for_variant("GRU3DilConvBias_16", GRID9), seed=0)
    assert len(model.bias_grids) == 3
    for b in model.bias_grids:
        assert not b.data.any()
        assert b.requires_grad


# ------------------------------------------------------------------- step


@pytest.mark.parametrize("variant", ["RNN16", "GRU3DilConv_16", "GRU3DilConvBias_16"])
def test_zero_biases_give_zero_fixed_point(variant):
    model = build(ModelConfig.for_variant(variant, GRID9), seed=1)
    for cell in model.cells:
        for conv in cell if isinstance(cell, tuple) else (cell,):
            conv.bias.data[:] = 0.0
    h = initial_state(model)
    for _ in range(3):
        h = step(model, h, BLANK, Pose2.identity())
    for layer in h.layers:
        assert not layer.data.any()


def test_step_rejects_motion_without_stm():
    model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    h = initial_state(model)
    with pytest.raises(ValueError):
        step(model, h, BLANK, Pose2(0.5, 0.0, 0.0))
    # identity passes
    step(model, h, BLANK, Pose2.identity())


def test_step_rejects_wrong_observation_size():
    model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    h = initial_state(model)
    obs = random_obs(np.random.default_rng(0), 21)
    with pytest.raises(ValueError):
        step(model, h, obs, Pose2.identity())
    with pytest.raises(TypeError):
        step(model, h, "scan", Pose2.identity())


def test_stm_translation_round_trip_restores_interior():
    """With a saturated update gate the recurrent update preserves state, so
    stepping under +2 cells then -2 cells of egomotion must restore interior
    values."""
    cfg = ModelConfig.for_variant("GRU3DilConv_16", GRID21, use_stm=True)
    model = build(cfg, seed=3)
    for gates in model.cells:
        gates[0].bias.data[:] = 50.0
    rng = np.random.default_rng(7)
    h0 = HiddenState(
        layers=tuple(
            Tensor(rng.uniform(-0.9, 0.9, size=(1, 16, 21, 21)).astype(np.float32))
            for _ in range(3)
        )
    )
    d = 2 * GRID21.cell_size
    fwd = Pose2(d, 0.0, 0.0)
    back = Pose2(-d, 0.0, 0.0)
    h1 = step(model, h0, BLANK, fwd)
    h2 = step(model, h1, BLANK, back)
    for a, b in zip(h0.layers, h2.layers):
        inner = (slice(None), slice(None), slice(2, -2), slice(2, -2))
        assert np.max(np.abs(a.data[inner] - b.data[inner])) < 1e-4


def test_stm_identity_matches_non_stm():
    plain = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=5)
    stm = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9, use_stm=True), seed=5)
    obs = random_obs(np.random.default_rng(2), 9)
    ha = initial_state(plain)
    hb = initial_state(stm)
    for _ in range(2):
        ha = step(plain, ha, obs, Pose2.identity())
        hb = step(stm, hb, obs, Pose2.identity())
    for a, b in zip(ha.layers, hb.layers):
        assert np.array_equal(a.data, b.data)


def test_translating_sensor_matches_shifted_static_run():
    """A static world seen from a sensor advancing one cell per frame is the
    static-sensor observation shifted one more cell each frame. With state
    warping, hidden maps must agree with the static run up to that shift on
    cells far enough from the boundary."""
    m = 41
    grid = GridSpec(size_cells=m, cell_size=0.5)
    cfg = ModelConfig.for_variant("GRU3DilConv_16", grid, use_stm=True)
    model = build(cfg, seed=9)
    rng = np.random.default_rng(4)
    obs = random_obs(rng, m)

    def shifted(o, t):
        vis = np.zeros_like(o.vis)
        occ = np.zeros_like(o.occ)
        if t < m:
            vis[: m - t] = o.vis[t:]
            occ[: m - t] = o.occ[t:]
        return ObservationGrid(vis=vis, occ=occ)

    steps = 2
    h_static = initial_state(model)
    h_moving = initial_state(model)
    ego = Pose2(-grid.cell_size, 0.0, 0.0)
    for t in range(steps + 1):
        h_static = step(model, h_static, obs, Pose2.identity())
        h_moving = step(model, h_moving, shifted(obs, t), ego if t else Pose2.identity())
    margin = 7 * steps + steps
    for hs, hm in zip(h_static.layers, h_moving.layers):
        want = hs.data[:, :, steps:, :]
        got = hm.data[:, :, : m - steps, :]
        core = (slice(None), slice(None), slice(margin, -margin), slice(margin, -margin))
        assert np.max(np.abs(want[core] - got[core])) < 1e-3


@pytest.mark.parametrize("variant", ["RNN16", "RNN48", "GRU3DilConv_16"])
def test_hidden_stays_bounded_over_100_blank_steps(variant):
    model = build(ModelConfig.for_variant(variant, GRID9), seed=11)
    h = initial_state(model)
    for _ in range(100):
        h = step(model, h, BLANK, Pose2.identity())
    for layer in h.layers:
        assert np.isfinite(layer.data).all()
        assert np.max(np.abs(layer.data)) <= 1.0 + 1e-6


def test_hidden_state_rejects_non_finite():
    bad = Tensor(np.full((1, 16, 9, 9), np.nan))
    with pytest.raises(FloatingPointError):
        HiddenState(layers=(bad,))


# ----------------------------------------------------------------- decode


def test_decode_strictly_inside_unit_interval():
    model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    h = initial_state(model)
    obs = random_obs(np.random.default_rng(1), 9)
    h = step(model, h, obs, Pose2.identity())
    p = decode(model, h)
    assert p.shape == (1, 1, 9, 9)
    assert np.all(p.data > 0.0) and np.all(p.data < 1.0)


def test_decode_zero_weights_gives_half():
    model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    model.decoder.kernel.data[:] = 0.0
    model.decoder.bias.data[:] = 0.0
    p = decode(model, initial_state(model))
    assert np.all(p.data == 0.5)


def test_decoder_input_channels_follow_variant():
    top = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    full = build(ModelConfig.for_variant("GRU3DilConv_48", GRID9), seed=0)
    assert top.decoder.in_channels == 16
    assert full.decoder.in_channels == 48
    h = initial_state(full)
    assert decode(full, h).shape == (1, 1, 9, 9)


# ---------------------------------------------------------------- rollout


class Schedule:
    def __init__(self, total, shown):
        self.total_frames = total
        self._shown = shown

    def is_shown(self, f):
        return self._shown(f)


def test_rollout_blank_frames_change_predictions():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    batch = static_crossing(seed=6, spec=spec, frames=6)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", spec), seed=2)
    full = rollout(model, batch, Schedule(6, lambda f: True))
    half = rollout(model, batch, Schedule(6, lambda f: f < 3))
    assert len(full) == len(half) == 6
    for f in range(3):
        assert np.array_equal(full[f].data, half[f].data)
    assert not np.array_equal(full[3].data, half[3].data)


def test_rollout_stacks_shared_chain_sequences():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    a = static_crossing(seed=1, spec=spec, frames=4)
    b = static_crossing(seed=2, spec=spec, frames=4)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", spec), seed=0)
    preds = rollout(model, [a, b], Schedule(4, lambda f: True))
    assert preds[0].shape == (2, 1, 21, 21)
    solo = rollout(model, a, Schedule(4, lambda f: True))
    assert np.allclose(preds[-1].data[0], solo[-1].data[0], atol=1e-6)


def test_rollout_validates_lengths_and_chains():
    spec = GridSpec(size_cells=21, cell_size=0.4)
    a = static_crossing(seed=1, spec=spec, frames=4)
    model = build(ModelConfig.for_variant("GRU3DilConv_16", spec), seed=0)
    with pytest.raises(ValueError):
        rollout(model, a, Schedule(6, lambda f: True))
    from gridtrack.simulator import moving_straight

    mv = moving_straight(seed=1, spec=spec, frames=4)
    with pytest.raises(ValueError):
        rollout(model, [a, mv], Schedule(4, lambda f: True))
    with pytest.raises(ValueError):
        rollout(model, [], Schedule(4, lambda f: True))


# ------------------------------------------------------------ gradients


def test_composed_step_decode_loss_gradient():
    with precision("float64"):
        model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=8)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0, 1, size=(1, 2, 9, 9)), requires_grad=True)
        h0 = initial_state(model)
        target = Tensor((rng.random((1, 1, 9, 9)) < 0.4).astype(np.float64))
        mask = Tensor((rng.random((1, 1, 9, 9)) < 0.7).astype(np.float64))

        from gridtrack.model import _step_planes

        def loss(*_):
            h = _step_planes(model, h0, x, Pose2.identity())
            return masked_bce(decode(model, h), target, mask)

        checked = [x, model.cells[0][2].bias, model.decoder.kernel, model.decoder.bias]
        err = grad_check(loss, checked)
        assert err < 1e-4


def test_composed_gradient_with_static_bias_and_stm():
    with precision("float64"):
        grid = GridSpec(size_cells=9, cell_size=0.5)
        cfg = ModelConfig.for_variant("GRU3DilConvBias_16", grid, use_stm=True)
        model = build(cfg, seed=8)
        rng = np.random.default_rng(5)
        for b in model.bias_grids:
            b.data = rng.normal(0, 0.1, size=b.shape)
        x = Tensor(rng.uniform(0, 1, size=(1, 2, 9, 9)), requires_grad=True)
        h0 = HiddenState(
            layers=tuple(
                Tensor(rng.uniform(-0.5, 0.5, size=(1, 16, 9, 9)), requires_grad=True)
                for _ in range(3)
            )
        )
        target = Tensor((rng.random((1, 1, 9, 9)) < 0.4).astype(np.float64))
        mask = Tensor(np.ones((1, 1, 9, 9)))
        ego = Pose2(0.3, -0.2, 0.1)

        from gridtrack.model import _step_planes

        def loss(*_):
            h = _step_planes(model, h0, x, ego)
            return masked_bce(decode(model, h), target, mask)

        checked = [x, h0.layers[0], model.bias_grids[1]]
        # h=1e-5 is roundoff-dominated for this composition's smallest
        # gradient entries; a wider step stays inside the 1e-4 contract
        err = grad_check(loss, checked, h=1e-4)
        assert err < 1e-4


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    grid = GridSpec(size_cells=11, cell_size=0.5)
    model = build(ModelConfig.for_variant("GRU3DilConvBias_16", grid, use_stm=True), seed=21)
    rng = np.random.default_rng(0)
    for b in model.bias_grids:
        b.data = rng.normal(0, 0.2, size=b.shape).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
    obs = random_obs(np.random.default_rng(9), 11)
    ha = step(model, initial_state(model), obs, Pose2.identity())
    hb = step(loaded, initial_state(loaded), obs, Pose2.identity())
    assert np.array_equal(decode(model, ha).data, decode(loaded, hb).data)


def test_checkpoint_rejects_corruption(tmp_path):
    grid = GridSpec(size_cells=9, cell_size=0.5)
    model = build(ModelConfig.for_variant("RNN16", grid), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[30] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(ValueError):
        load_checkpoint(trunc)
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ValueError):
        load_checkpoint(junk)
    # config intact but the parameter count cut short, checksum rebuilt
    good = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", good, 8)
    short = good[: 12 + cfg_len + 4]
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(short + hashlib.sha256(short).digest()[:8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(cut)


# The config JSON of every variant, recorded when ModelConfig still stored
# the layer table, decoder input and static bias itself: deriving them from
# the variant name must leave checkpoint format version 1 byte for byte.
@pytest.mark.parametrize(
    "variant, use_stm, expected",
    [
        ("GRU3DilConvBias_16", False, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": true, "use_stm": false, "variant": "GRU3DilConvBias_16"}'),
        ("GRU3DilConvBias_16", True, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": true, "use_stm": true, "variant": "GRU3DilConvBias_16"}'),
        ("GRU3DilConvBias_48", False, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": true, "use_stm": false, "variant": "GRU3DilConvBias_48"}'),
        ("GRU3DilConvBias_48", True, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": true, "use_stm": true, "variant": "GRU3DilConvBias_48"}'),
        ("GRU3DilConv_16", False, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": false, "use_stm": false, "variant": "GRU3DilConv_16"}'),
        ("GRU3DilConv_16", True, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": false, "use_stm": true, "variant": "GRU3DilConv_16"}'),
        ("GRU3DilConv_48", False, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": false, "use_stm": false, "variant": "GRU3DilConv_48"}'),
        ("GRU3DilConv_48", True, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 3, 2], [16, 3, 4]], "static_bias": false, "use_stm": true, "variant": "GRU3DilConv_48"}'),
        ("GRU3_16", False, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 5, 1], [16, 9, 1]], "static_bias": false, "use_stm": false, "variant": "GRU3_16"}'),
        ("GRU3_16", True, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1], [16, 5, 1], [16, 9, 1]], "static_bias": false, "use_stm": true, "variant": "GRU3_16"}'),
        ("RNN16", False, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1]], "static_bias": false, "use_stm": false, "variant": "RNN16"}'),
        ("RNN16", True, b'{"decode_full_state": false, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[16, 3, 1]], "static_bias": false, "use_stm": true, "variant": "RNN16"}'),
        ("RNN48", False, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[48, 3, 1]], "static_bias": false, "use_stm": false, "variant": "RNN48"}'),
        ("RNN48", True, b'{"decode_full_state": true, "grid": {"cell_size": 0.5, "max_range": 10.5, "size_cells": 21}'
         b', "layers": [[48, 3, 1]], "static_bias": false, "use_stm": true, "variant": "RNN48"}'),
    ],
)
def test_config_json_format_pinned(variant, use_stm, expected):
    config = ModelConfig.for_variant(variant, GRID21, use_stm=use_stm)
    assert _config_json(config) == expected


def rewrite_config(src, dst, edit):
    """Copy a checkpoint with its config JSON replaced by ``edit(doc)``,
    with the length field and checksum rebuilt so only the config is bad."""
    payload = src.read_bytes()[:-8]
    version, cfg_len = struct.unpack_from("<II", payload, 4)
    doc = json.loads(payload[12 : 12 + cfg_len])
    cfg = json.dumps(edit(doc), sort_keys=True).encode("utf-8")
    payload = payload[:4] + struct.pack("<II", version, len(cfg)) + cfg + payload[12 + cfg_len :]
    dst.write_bytes(payload + hashlib.sha256(payload).digest()[:8])


def _without(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def _with(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _without("use_stm"),
        _without("variant"),
        _with("grid", 5),
        _with("grid", {"size_cells": "21", "cell_size": 0.5, "max_range": 10.5}),
        _with("variant", ["GRU3DilConv_16"]),
        _with("variant", "GRU9_THICC"),
        lambda doc: [doc],
        _without("static_bias"),
    ],
    ids=[
        "missing-use_stm",
        "missing-variant",
        "grid-not-object",
        "size_cells-string",
        "variant-list",
        "variant-unknown",
        "top-level-list",
        "static_bias-missing",
    ],
)
def test_checkpoint_rejects_malformed_config(tmp_path, edit):
    """A well-checksummed checkpoint whose config JSON is malformed is
    rejected with a ValueError naming the file."""
    model = build(ModelConfig.for_variant("GRU3DilConv_16", GRID9), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    same = tmp_path / "same.ckpt"
    rewrite_config(path, same, lambda doc: doc)
    assert same.read_bytes() == path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    rewrite_config(path, bad, edit)
    with pytest.raises(ValueError, match="bad.ckpt"):
        load_checkpoint(bad)
