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
variant table above. Every multi-frame run (training loss, evaluation,
rendering) goes through one unroll: ``unroll`` yields the state and the
prediction per frame, ``rollout`` collects the predictions, and models
without egomotion compensation never warp their state.

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
    concat_channels,
    conv2d,
    conv_gru_step,
    default_dtype,
)

__all__ = [
    "BLANK",
    "ModelConfig",
    "HiddenState",
    "Model",
    "variant_names",
    "build",
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


@dataclass(frozen=True)
class HiddenState:
    """Per-layer recurrent activations, each (batch, maps, M, M), registered
    to the current sensor frame."""

    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("hidden state needs at least one layer")
        b = self.layers[0].data.shape[0]
        for t in self.layers:
            if t.data.ndim != 4 or t.data.shape[0] != b:
                raise ValueError("hidden layers must share a 4D batched shape")
            if not np.isfinite(t.data).all():
                raise FloatingPointError("hidden state contains non-finite values")

    @property
    def batch(self) -> int:
        return self.layers[0].data.shape[0]


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

    def describe(self) -> str:
        lines = [f"{self.config.variant} on {self.config.grid.size_cells}x"
                 f"{self.config.grid.size_cells} grid"]
        for i, cell in enumerate(self.cells):
            convs = cell if isinstance(cell, tuple) else (cell,)
            n = sum(c.param_count for c in convs)
            maps, k, d = self.config.layers[i]
            lines.append(f"  layer {i}: {maps} maps, kernel {k}, dilation {d}: {n} params")
        if self.bias_grids:
            lines.append(f"  static bias: {self.static_bias_count} params")
        lines.append(f"  decoder: {self.decoder.param_count} params")
        lines.append(f"  total: {self.param_count} params")
        return "\n".join(lines)


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
    decoder = ConvParams.initialize(1, config.decoder_in, 3, rng, dilation=1)
    return Model(config=config, cells=tuple(cells), bias_grids=tuple(bias_grids), decoder=decoder)


def initial_state(model: Model, batch_size: int = 1) -> HiddenState:
    m = model.config.grid.size_cells
    layers = [
        Tensor(np.zeros((batch_size, maps, m, m)))
        for maps, _, _ in model.config.layers
    ]
    return HiddenState(layers=tuple(layers))


def _step_planes(model: Model, h_prev: HiddenState, x: Tensor, egomotion: Pose2) -> HiddenState:
    cfg = model.config
    identity = egomotion.is_identity(1e-12)
    if not cfg.use_stm and not identity:
        raise ValueError("egomotion compensation is disabled; pass identity egomotion")
    prev = h_prev.layers
    if cfg.use_stm and not identity:
        prev = tuple(bilinear_sample(h, egomotion, cfg.grid) for h in prev)
    new_layers = []
    inp = x
    for i, _ in enumerate(cfg.layers):
        bias = model.bias_grids[i] if model.bias_grids else None
        if cfg.is_gated:
            h = conv_gru_step(prev[i], inp, model.cells[i], bias)
        else:
            pre = conv2d(concat_channels([inp, prev[i]]), model.cells[i])
            if bias is not None:
                pre = pre + bias
            h = pre.tanh()
        new_layers.append(h)
        inp = h
    return HiddenState(layers=tuple(new_layers))


def _planes_for(model: Model, obs, batch_size: int) -> Tensor:
    m = model.config.grid.size_cells
    if obs is BLANK:
        return Tensor(np.zeros((batch_size, 2, m, m)))
    if isinstance(obs, ObservationGrid):
        if batch_size != 1:
            raise ValueError("a single observation cannot drive a batched state")
        if obs.size_cells != m:
            raise ValueError(f"observation is {obs.size_cells} cells, model expects {m}")
        return Tensor(obs.planes(default_dtype())[None])
    raise TypeError(f"expected ObservationGrid or BLANK, got {type(obs).__name__}")


def step(model: Model, h_prev: HiddenState, obs, egomotion: Pose2) -> HiddenState:
    """Advance the recurrent state one frame. ``obs`` is an ObservationGrid
    or BLANK (withheld input, encoded as all-zero planes). With egomotion
    compensation enabled, every feature map of h_prev is first resampled
    under the relative transform; otherwise egomotion must be identity."""
    if len(h_prev.layers) != len(model.config.layers):
        raise ValueError("hidden state layer count does not match model")
    x = _planes_for(model, obs, h_prev.batch)
    return _step_planes(model, h_prev, x, egomotion)


def decode(model: Model, h: HiddenState) -> Tensor:
    """Per-cell occupancy probability, shape (batch, 1, M, M), strictly in
    (0,1). Decodes the top layer, or the full concatenated state when the
    model was configured for it."""
    if model.config.decode_full_state:
        inp = concat_channels(list(h.layers)) if len(h.layers) > 1 else h.layers[0]
    else:
        inp = h.layers[-1]
    return conv2d(inp, model.decoder).sigmoid()


def unroll(model: Model, batches, schedule):
    """Run step/decode over full sequences, feeding BLANK at frames the
    schedule hides, and yield (HiddenState, prediction) per frame, the
    prediction a (B,1,M,M) Tensor.

    ``batches`` is one SequenceBatch or a list sharing one transform chain
    (they are stacked into a minibatch). With egomotion compensation the
    state is warped by each frame's transform, shown or blank; a model
    without it runs as the no-warp baseline, never warping its state even
    though the sensor moves (``train`` allows that only as an ablation).
    """
    if hasattr(batches, "observations"):
        batches = [batches]
    batches = list(batches)
    if not batches:
        raise ValueError("rollout needs at least one sequence")
    frames = batches[0].frames
    chain = batches[0].rel_transforms
    for b in batches[1:]:
        if b.frames != frames:
            raise ValueError("sequences in a minibatch must have equal length")
        if b.rel_transforms != chain:
            raise ValueError("sequences in a minibatch must share the transform chain")
    if schedule.total_frames != frames:
        raise ValueError(
            f"schedule covers {schedule.total_frames} frames, batch has {frames}"
        )
    m = model.config.grid.size_cells
    dt = default_dtype()
    h = initial_state(model, batch_size=len(batches))
    for f in range(frames):
        if schedule.is_shown(f):
            x = Tensor(np.stack([b.observations[f].planes(dt) for b in batches]))
        else:
            x = Tensor(np.zeros((len(batches), 2, m, m)))
        ego = chain[f] if model.config.use_stm else Pose2.identity()
        h = _step_planes(model, h, x, ego)
        yield h, decode(model, h)


def rollout(model: Model, batches, schedule) -> list:
    """The per-frame predictions of :func:`unroll`, as a list."""
    return [pred for _, pred in unroll(model, batches, schedule)]


# ------------------------------------------------------------ checkpoints

_MAGIC = b"DTCK"
_VERSION = 1


def _config_doc(config: ModelConfig) -> dict:
    g = config.grid
    return {
        "variant": config.variant,
        "use_stm": config.use_stm,
        "grid": {"size_cells": g.size_cells, "cell_size": g.cell_size, "max_range": g.max_range},
        "layers": [list(l) for l in config.layers],
        "decode_full_state": config.decode_full_state,
        "static_bias": config.static_bias,
    }


def _config_json(config: ModelConfig) -> bytes:
    return json.dumps(_config_doc(config), sort_keys=True).encode("utf-8")


def _config_from_json(raw: bytes) -> ModelConfig:
    """Inverse of _config_json. The keys the variant determines must agree
    with it, since the file comes from outside the program."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config is not a JSON object")
    g = json_field(doc, "grid", dict)
    config = ModelConfig(
        variant=json_field(doc, "variant", str),
        use_stm=json_field(doc, "use_stm", bool),
        grid=GridSpec(
            size_cells=json_field(g, "size_cells", int),
            cell_size=json_field(g, "cell_size", (int, float)),
            max_range=json_field(g, "max_range", (int, float)),
        ),
    )
    expected = _config_doc(config)
    for key in ("layers", "decode_full_state", "static_bias"):
        if doc.get(key) != expected[key]:
            raise ValueError(
                f"config {key} {doc.get(key)!r} does not match variant {config.variant}"
            )
    return config


def save_checkpoint(model: Model, path) -> None:
    """Versioned binary checkpoint: magic, version, config JSON, parameter
    count, parameters as little-endian float32 in declaration order, then
    the first 8 bytes of the SHA-256 of everything before them."""
    cfg = _config_json(model.config)
    params = model.parameters()
    count = sum(int(np.prod(t.shape)) for t in params)
    parts = [
        _MAGIC,
        struct.pack("<II", _VERSION, len(cfg)),
        cfg,
        struct.pack("<Q", count),
    ]
    for t in params:
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
    model = build(config, seed=0)
    params = model.parameters()
    if count != sum(int(np.prod(t.shape)) for t in params):
        raise ValueError("checkpoint parameter count does not match config")
    raw = np.frombuffer(payload, dtype="<f4", offset=off, count=count)
    if off + 4 * count != len(payload):
        raise ValueError("checkpoint is truncated or has trailing data")
    pos = 0
    for t in params:
        n = int(np.prod(t.shape))
        t.data = raw[pos : pos + n].reshape(t.shape).astype(t.data.dtype)
        pos += n
    return model
