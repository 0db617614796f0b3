"""Recurrent grid-tracking network family.

A model is a stack of convolutional recurrent layers over the two observation
planes (visibility, occupancy), an optional learnable per-cell bias added to
every hidden convolution output, an optional rigid warp of the recurrent
state before each update (egomotion compensation), and a single-convolution
decoder mapping hidden maps to per-cell occupancy probabilities.

Variants:

    RNN16 / RNN48          one tanh recurrent conv layer, 16 or 48 maps
    GRU3_16                three GRU layers of 16 maps, kernels 3/5/9
    GRU3DilConv_16 / _48   three GRU layers of 16 maps, kernel 3,
                           dilations 1/2/4 (same spans as 3/5/9, fewer
                           parameters); _48 decodes all 48 maps
    GRU3DilConvBias_16/_48 as above plus a static per-cell bias grid over
                           all 48 hidden maps

A ModelConfig stores only the variant name, the egomotion switch and the
grid; the layer stack, decoder input and static bias are read from the
variant table above. The recurrent state is a plain tuple of per-layer
(batch, maps, M, M) Tensors, registered to the current sensor frame. Every
multi-frame run (training loss, evaluation, rendering) goes through one
unroll, which checks each minibatch against the model once, its grid
included: ``unroll`` yields the state and the prediction per frame,
``rollout`` collects the predictions, and models without egomotion
compensation never warp their state.

Checkpoints are where weights enter from outside the program, so their
decoder rejects non-finite values.

Parameter declaration order (checkpoints depend on it): for each layer
bottom-up, its convolutions in update/reset/candidate order (kernel then
bias; a plain recurrent layer has one convolution), then the static bias
grids bottom-up, then the decoder kernel and bias.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import GridSpec, ObservationGrid, Pose2, json_field
from .tensor import (
    ConvParams,
    Tensor,
    bilinear_sample,
    conv2d,
    conv_gru_step,
    default_dtype,
    sample_plan,
)

__all__ = [
    "BLANK",
    "ModelConfig",
    "Model",
    "variant_names",
    "build",
    "replica",
    "initial_state",
    "step",
    "decode",
    "unroll",
    "rollout",
    "save_checkpoint",
    "load_checkpoint",
]


class _BlankType:
    """Sentinel for a withheld observation (all-zero input planes)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BLANK"


BLANK = _BlankType()

# variant -> (layers as (maps, kernel, dilation), decode_full_state, static_bias)
_VARIANTS = {
    "RNN16": (((16, 3, 1),), False, False),
    "RNN48": (((48, 3, 1),), True, False),
    "GRU3_16": (((16, 3, 1), (16, 5, 1), (16, 9, 1)), False, False),
    "GRU3DilConv_16": (((16, 3, 1), (16, 3, 2), (16, 3, 4)), False, False),
    "GRU3DilConv_48": (((16, 3, 1), (16, 3, 2), (16, 3, 4)), True, False),
    "GRU3DilConvBias_16": (((16, 3, 1), (16, 3, 2), (16, 3, 4)), False, True),
    "GRU3DilConvBias_48": (((16, 3, 1), (16, 3, 2), (16, 3, 4)), True, True),
}
_DECODER_KERNEL = 3


def variant_names() -> tuple:
    return tuple(sorted(_VARIANTS))


@dataclass(frozen=True)
class ModelConfig:
    """A variant name, whether egomotion compensation warps the recurrent
    state, and the grid. The layer stack, the decoder input and the static
    bias follow from the variant name."""

    variant: str
    use_stm: bool
    grid: GridSpec

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @classmethod
    def for_variant(cls, variant: str, grid: GridSpec, use_stm: bool = False) -> "ModelConfig":
        return cls(variant=variant, use_stm=use_stm, grid=grid)

    @property
    def layers(self) -> tuple:
        return _VARIANTS[self.variant][0]

    @property
    def decode_full_state(self) -> bool:
        return _VARIANTS[self.variant][1]

    @property
    def static_bias(self) -> bool:
        return _VARIANTS[self.variant][2]

    @property
    def is_gated(self) -> bool:
        return self.variant.startswith("GRU")

    @property
    def hidden_maps(self) -> int:
        return sum(m for m, _, _ in self.layers)

    @property
    def decoder_in(self) -> int:
        return self.hidden_maps if self.decode_full_state else self.layers[-1][0]

    @property
    def param_count(self) -> int:
        """The parameters ``build`` gives this config, counted without
        allocating them."""
        convs, n, in_ch = (3 if self.is_gated else 1), 0, 2
        for maps, k, _ in self.layers:
            n += convs * maps * ((in_ch + maps) * k * k + 1)
            in_ch = maps
        if self.static_bias:
            n += self.hidden_maps * self.grid.size_cells**2
        return n + self.decoder_in * _DECODER_KERNEL**2 + 1


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    cells: tuple  # per layer: (wz, wr, wh) ConvParams for GRU, one ConvParams for RNN
    bias_grids: tuple  # per layer (maps, M, M) Tensor, empty when static_bias is off
    decoder: ConvParams

    def named_parameters(self) -> list:
        """(name, Tensor) pairs in checkpoint order, e.g. ``layer0.wz.kernel``,
        ``bias_grid0``, ``decoder.bias``."""
        out = []
        for i, cell in enumerate(self.cells):
            convs = zip((".wz", ".wr", ".wh"), cell) if isinstance(cell, tuple) else [("", cell)]
            for gate, c in convs:
                out += [(f"layer{i}{gate}.kernel", c.kernel), (f"layer{i}{gate}.bias", c.bias)]
        out += [(f"bias_grid{i}", t) for i, t in enumerate(self.bias_grids)]
        out += [("decoder.kernel", self.decoder.kernel), ("decoder.bias", self.decoder.bias)]
        return out

    def parameters(self) -> list:
        return [t for _, t in self.named_parameters()]

    @property
    def param_count(self) -> int:
        return sum(int(np.prod(t.shape)) for t in self.parameters())

    @property
    def static_bias_count(self) -> int:
        return sum(int(np.prod(t.shape)) for t in self.bias_grids)

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()


def build(config: ModelConfig, seed: int) -> Model:
    """Deterministically initialize a model. Convolution weights and biases
    draw uniform +-1/sqrt(fan_in); static bias grids start at zero."""
    rng = np.random.default_rng(seed)
    m = config.grid.size_cells
    cells = []
    in_ch = 2
    for maps, kernel, dilation in config.layers:
        if config.is_gated:
            gates = tuple(
                ConvParams.initialize(maps, in_ch + maps, kernel, rng, dilation=dilation)
                for _ in range(3)
            )
            cells.append(gates)
        else:
            cells.append(
                ConvParams.initialize(maps, in_ch + maps, kernel, rng, dilation=dilation)
            )
        in_ch = maps
    bias_grids = []
    if config.static_bias:
        for maps, _, _ in config.layers:
            z = np.zeros((maps, m, m))
            bias_grids.append(Tensor(z, requires_grad=True))
    decoder = ConvParams.initialize(1, config.decoder_in, _DECODER_KERNEL, rng, dilation=1)
    return Model(config=config, cells=tuple(cells), bias_grids=tuple(bias_grids), decoder=decoder)


def replica(model: Model) -> Model:
    """The same model on fresh leaf Tensors over the same parameter arrays
    (shared, not copied). A rollout on it computes what one on ``model``
    does, and its backward writes only the replica's own ``grad``s, so
    several threads can backpropagate through one model's weights at once.
    """

    def leaf(t: Tensor) -> Tensor:
        return Tensor(t.data, requires_grad=t.requires_grad, dtype=t.data.dtype)

    def conv(c: ConvParams) -> ConvParams:
        return ConvParams(kernel=leaf(c.kernel), bias=leaf(c.bias), dilation=c.dilation)

    cells = tuple(tuple(map(conv, c)) if isinstance(c, tuple) else conv(c) for c in model.cells)
    return Model(config=model.config, cells=cells,
                 bias_grids=tuple(map(leaf, model.bias_grids)), decoder=conv(model.decoder))


def initial_state(model: Model, batch_size: int = 1) -> tuple:
    """The all-zero recurrent state: one (batch_size, maps, M, M) Tensor per
    layer."""
    m = model.config.grid.size_cells
    return tuple(
        Tensor(np.zeros((batch_size, maps, m, m), dtype=default_dtype()))
        for maps, _, _ in model.config.layers
    )


def _step_planes(model: Model, h_prev: tuple, x: Tensor, poses: list) -> tuple:
    """One frame; ``step`` or ``unroll`` has checked ``x`` and ``poses``.
    Every layer's state is warped with the frame's one sampling plan."""
    cfg = model.config
    prev = h_prev
    if cfg.use_stm and not all(p.is_identity(1e-12) for p in poses):
        plan = sample_plan(poses, cfg.grid, prev[0].dtype)
        prev = tuple(bilinear_sample(h, plan, cfg.grid) for h in prev)
    new_layers = []
    inp = x
    for i, _ in enumerate(cfg.layers):
        if cfg.is_gated:
            bias = model.bias_grids[i] if model.bias_grids else None
            h = conv_gru_step(prev[i], inp, model.cells[i], bias)
        else:
            h = conv2d([inp, prev[i]], model.cells[i]).tanh()
        new_layers.append(h)
        inp = h
    return tuple(new_layers)


def _input_planes(model: Model, obs, batch_size: int) -> Tensor:
    """(B, 2, M, M) input planes for one frame: all zero for BLANK, else the
    planes of ``obs``, a list of one ObservationGrid per sample."""
    if obs is BLANK:
        m = model.config.grid.size_cells
        return Tensor(np.zeros((batch_size, 2, m, m), dtype=default_dtype()))
    return Tensor(np.stack([g.planes(default_dtype()) for g in obs]))


def step(model: Model, h_prev: tuple, obs, egomotion) -> tuple:
    """Advance the recurrent state, a tuple of per-layer Tensors, one frame.
    ``obs`` is an ObservationGrid or BLANK (withheld input, encoded as
    all-zero planes). With egomotion compensation enabled, h_prev is first
    resampled under ``egomotion``, one relative transform for all samples or
    one per sample; otherwise it must be identity."""
    cfg = model.config
    if len(h_prev) != len(cfg.layers):
        raise ValueError("hidden state layer count does not match model")
    batch, m = h_prev[0].data.shape[0], cfg.grid.size_cells
    if obs is not BLANK:
        if not isinstance(obs, ObservationGrid):
            raise TypeError(f"expected ObservationGrid or BLANK, got {type(obs).__name__}")
        if obs.size_cells != m:
            raise ValueError(f"observation is {obs.size_cells} cells, model expects {m}")
        if batch != 1:
            raise ValueError(f"1 observation cannot drive a batch of {batch}")
        obs = [obs]
    poses = [egomotion] * batch if isinstance(egomotion, Pose2) else list(egomotion)
    if len(poses) != batch:
        raise ValueError(f"got {len(poses)} transforms for a batch of {batch}")
    if not cfg.use_stm and not all(p.is_identity(1e-12) for p in poses):
        raise ValueError("egomotion compensation is disabled; pass identity egomotion")
    return _step_planes(model, h_prev, _input_planes(model, obs, batch), poses)


def decode(model: Model, h: tuple) -> Tensor:
    """Per-cell occupancy probability, shape (batch, 1, M, M), strictly in
    (0,1). Decodes the top layer, or the full concatenated state when the
    model was configured for it."""
    parts = list(h) if model.config.decode_full_state else [h[-1]]
    return conv2d(parts, model.decoder).sigmoid()


def unroll(model: Model, batches, schedule):
    """Run step/decode over full sequences, feeding BLANK at frames the
    schedule hides, and yield (state, prediction) per frame: the state
    tuple and a (B,1,M,M) Tensor.

    ``batches`` is one SequenceBatch or a list of equal-length ones, stacked
    into a minibatch, whose sequences must all be on the model's grid: the
    warp and the targets then share one metric scale. With egomotion
    compensation each sequence's state is warped by its own transform at
    every frame, shown or blank; a model without it runs as the no-warp
    baseline, never warping its state even though the sensor moves
    (``train`` allows that only as an ablation).
    """
    if hasattr(batches, "observations"):
        batches = [batches]
    batches = list(batches)
    if not batches:
        raise ValueError("rollout needs at least one sequence")
    frames = batches[0].frames
    if any(b.frames != frames for b in batches):
        raise ValueError("sequences in a minibatch must have equal length")
    if schedule.total_frames != frames:
        raise ValueError(
            f"schedule covers {schedule.total_frames} frames, batch has {frames}"
        )
    for b in batches:
        if b.spec != model.config.grid:
            raise ValueError(
                f"model grid {model.config.grid} does not match the dataset grid {b.spec}"
            )
    h = initial_state(model, batch_size=len(batches))
    for f in range(frames):
        obs = [b.observations[f] for b in batches] if schedule.is_shown(f) else BLANK
        x = _input_planes(model, obs, len(batches))
        h = _step_planes(model, h, x, [b.rel_transforms[f] for b in batches])
        yield h, decode(model, h)


def rollout(model: Model, batches, schedule) -> list:
    """The per-frame predictions of :func:`unroll`, as a list."""
    return [pred for _, pred in unroll(model, batches, schedule)]


# ------------------------------------------------------------ checkpoints

_MAGIC = b"DTCK"
_VERSION = 1


def _config_json(config: ModelConfig) -> bytes:
    g = config.grid
    doc = {
        "variant": config.variant,
        "use_stm": config.use_stm,
        "grid": {"size_cells": g.size_cells, "cell_size": g.cell_size, "max_range": g.max_range},
    }
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _config_from_json(raw: bytes) -> ModelConfig:
    """Inverse of _config_json. Older checkpoints also store the variant's
    layers, decode_full_state and static_bias; like any other unknown key
    they are ignored, since the variant name fixes them."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config is not a JSON object")
    g = json_field(doc, "grid", dict)
    return ModelConfig(
        variant=json_field(doc, "variant", str),
        use_stm=json_field(doc, "use_stm", bool),
        grid=GridSpec(
            size_cells=json_field(g, "size_cells", int),
            cell_size=json_field(g, "cell_size", (int, float)),
            max_range=json_field(g, "max_range", (int, float)),
        ),
    )


def save_checkpoint(model: Model, path) -> None:
    """Versioned binary checkpoint: magic, version, config JSON, parameter
    count, parameters as little-endian float32 in declaration order, then
    the first 8 bytes of the SHA-256 of everything before them."""
    cfg = _config_json(model.config)
    parts = [
        _MAGIC,
        struct.pack("<II", _VERSION, len(cfg)),
        cfg,
        struct.pack("<Q", model.param_count),
    ]
    for t in model.parameters():
        parts.append(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    payload = b"".join(parts)
    digest = hashlib.sha256(payload).digest()[:8]
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(digest)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_checkpoint(blob)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc


def _decode_checkpoint(blob: bytes) -> Model:
    if len(blob) < 24 or blob[:4] != _MAGIC:
        raise ValueError("not a model checkpoint")
    payload, digest = blob[:-8], blob[-8:]
    if hashlib.sha256(payload).digest()[:8] != digest:
        raise ValueError("checkpoint checksum mismatch")
    version, cfg_len = struct.unpack_from("<II", payload, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = 12
    if off + cfg_len + 8 > len(payload):
        raise ValueError("checkpoint is truncated")
    config = _config_from_json(payload[off : off + cfg_len])
    off += cfg_len
    (count,) = struct.unpack_from("<Q", payload, off)
    off += 8
    # both checks before build(), whose static bias grids scale with the grid
    if count != config.param_count:
        raise ValueError("checkpoint parameter count does not match config")
    if off + 4 * count != len(payload):
        raise ValueError("checkpoint is truncated or has trailing data")
    model = build(config, seed=0)
    raw = np.frombuffer(payload, dtype="<f4", offset=off, count=count)
    pos = 0
    for name, t in model.named_parameters():
        n = int(np.prod(t.shape))
        values = raw[pos : pos + n]
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite values in {name}")
        t.data = values.reshape(t.shape).astype(t.data.dtype)
        pos += n
    return model
