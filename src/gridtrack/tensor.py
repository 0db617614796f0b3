"""Dense tensors with reverse-mode automatic differentiation, plus the four
differentiable kernels the tracker needs: dilated 2D convolution, gated
recurrent gating arithmetic, bilinear grid sampling under an SE(2) transform,
and masked binary cross-entropy.

Tensors hold numpy arrays, build a computation graph as operations run, and
backpropagate by walking the graph in reverse topological order; the walk
releases the graph, so a step's activations are freed by reference counting
as soon as its loss is dropped. Values are float32 by default; wrap code in
``precision("float64")`` for verification runs (gradient checking needs the
extra headroom).

Every convolution keeps the grid: an odd k x k kernel at dilation d is
zero-padded by d*(k-1)/2 (derived in ``ConvParams``, never stored), so hidden
maps stay registered to the grid the warp resamples. ``conv2d`` and the GRU
step share one path: a list of input parts, read as their channel
concatenation, is padded into one buffer, and the output, bias included, is
k*k accumulated GEMMs, one per kernel tap, over contiguous slices of it (no
im2col buffer). Backward pads the output gradient the same way, so both
buffers share one flat layout: per tap, the kernel gradient is one GEMM of
the gradient's interior against the input slice, and the input gradient one
GEMM of the flipped tap's slice, added contiguously into an accumulator at
the output size. It pads the parts again rather than keep every frame's
buffer until backward runs, and returns each part's gradient at its own
size, so no concatenation enters the graph. The GRU step is one graph node
with a hand-written backward: its update and reset gates come from one
per-tap pass with both kernels stacked, and for backward it stores only the
gates z and r and the candidate h~.

The elementwise work around the GEMMs runs in place: the first tap's GEMM
writes the accumulator, the biases are added into it, the sigmoid and
tanh write straight into the gate and candidate arrays, and the GRU blend
and its backward algebra reuse their own temporaries. Each keeps the
operations, and their order, of the plain expressions it replaces, so every
value is bitwise what those expressions give (a reordered float32 sum can
flip a thresholded prediction). Memory reused across calls is scratch only
(``_scratch``): the conv accumulator, the per-tap product (the sigmoid's
and the blend's temporaries reuse it, as nothing holds it then) and the
warp's gathered corner, one buffer per role and dtype in each thread, each
consumed before the next call in that thread that asks for it. The padded
inputs and output gradients are fresh zeros on every call, which measured
faster than clearing the border of a reused buffer. What an op returns, and
what a backward closure keeps (z, r, h~), is always a fresh array, never a
view of reused memory: ``conv2d`` copies its output out of the accumulator.

The warp reads its geometry from a ``SamplePlan``: per corner of the
bilinear stencil, the source cell and weight of every output cell, for one
pose shared by the batch. The model builds one plan per frame and warps
every layer with it. Forward, each corner is one gather with a cell vector
all channels share; backward gathers the output gradient through the plan's
inverse map, built on the first backward only, so no-grad rollouts never
pay for it. A rigid warp gives a target at most two live sources per
corner, added in the input dtype: for finite gradients, the bits of a
float64 scatter-add (``np.bincount``) of the weighted gradient.

Several threads may run rollouts of one model's weights at once: scratch
is per thread, so no two share a buffer, and the ops only read parameter
arrays. A no-grad rollout writes nothing another reads. Rollouts in grad
mode, and their backward passes, may run at once when their graphs share
no leaf Tensor, since backward adds into each leaf's ``grad``: training
gives each thread its own leaves over the same arrays (``model.replica``).
Grad mode (``no_grad``) and ``precision`` are process-wide, not per thread:
threads started inside either run under it, and neither may be entered or
left while other threads run ops.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import GridSpec, Pose2, source_points

__all__ = [
    "Tensor",
    "ConvParams",
    "conv2d",
    "conv_gru_step",
    "SamplePlan",
    "sample_plan",
    "bilinear_sample",
    "masked_bce",
    "grad_check",
    "no_grad",
    "precision",
    "default_dtype",
]

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def precision(dtype):
    """Temporarily switch the default dtype ("float32" or "float64")."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype).type
    if dt not in (np.float32, np.float64):
        raise ValueError(f"unsupported dtype {dtype}")
    prev = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dt
    try:
        yield
    finally:
        _DEFAULT_DTYPE = prev


@contextmanager
def no_grad():
    """Disable graph recording (evaluation rollouts, finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus an optional gradient accumulator and a backward
    closure linking it to the operations that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data).astype(dtype or _DEFAULT_DTYPE, copy=False)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # ---------------------------------------------------------- plumbing

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def _accum(self, g: np.ndarray):
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self):
        """Backpropagate from this (scalar) tensor to every reachable leaf.

        The graph is released as it is walked: each node's closure is
        dropped once it has run and its parent links are cut, so the
        closures' references to their own outputs leave no reference cycle
        and the step's activations are freed as soon as the caller drops
        the loss. Gradients stay on every node. Calling backward() again
        through a released graph raises ValueError."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward is _released:
                raise ValueError("backward() through a graph an earlier backward() released")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward()
                node._backward = _released
            node._prev = ()

    # ---------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.dtype)
        out = _result(np.add(self.data, other.data), (self, other))
        if out._prev:

            def backward():
                if self.requires_grad:
                    self._accum(out.grad)
                if other.requires_grad:
                    other._accum(out.grad)

            out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.dtype)
        out = _result(np.multiply(self.data, other.data), (self, other))
        if out._prev:

            def backward():
                if self.requires_grad:
                    self._accum(out.grad * other.data)
                if other.requires_grad:
                    other._accum(out.grad * self.data)

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-(other if isinstance(other, Tensor) else Tensor(other, dtype=self.dtype)))

    def __rsub__(self, other):
        return Tensor(other, dtype=self.dtype) + (-self)

    def sum(self) -> "Tensor":
        out = _result(np.asarray(self.data.sum(), dtype=self.dtype), (self,))
        if out._prev:

            def backward():
                self._accum(np.broadcast_to(out.grad, self.data.shape))

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        s = _sigmoid(self.data, np.empty(self.data.shape, self.data.dtype))
        out = _result(s, (self,))
        if out._prev:

            def backward():
                self._accum(out.grad * s * (1.0 - s))

            out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)
        out = _result(t, (self,))
        if out._prev:

            def backward():
                self._accum(out.grad * (1.0 - t * t))

            out._backward = backward
        return out


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function of x written into ``out``, numerically stable on
    both tails: with e = exp(-|x|), 1/(1+e) where x >= 0 and e/(1+e)
    elsewhere. The numerator is max(e, x >= 0), which is 1 or e (NaN stays
    NaN), so one division serves both tails."""
    e = np.abs(x, out=_scratch("tap", x.shape, x.dtype))
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, np.greater_equal(x, 0, out=_scratch("sign", x.shape, np.bool_)), out=out)
    e += 1.0
    return np.divide(num, e, out=num)


def _released():
    """Stands in for the closure of a node whose graph backward() released."""
    raise ValueError("backward() through a graph an earlier backward() released")


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, dtype=data.dtype)
    if requires:
        out._prev = parents
    return out


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate (B, C, H, W) tensors along the channel axis."""
    data = np.concatenate([t.data for t in tensors], axis=1)
    out = _result(data, tuple(tensors))
    if out._prev:
        splits = np.cumsum([t.data.shape[1] for t in tensors])[:-1]

        def backward():
            for t, g in zip(tensors, np.split(out.grad, splits, axis=1)):
                if t.requires_grad:
                    t._accum(g)

        out._backward = backward
    return out


# -------------------------------------------------------------- convolution


@dataclass
class ConvParams:
    """Weights for one dilated 2D convolution that keeps the grid: stride 1
    and zero padding of dilation*(k-1)/2 on each side, so every output map
    stays registered to its input's cells (the warp of the recurrent state
    depends on that). kernel has shape (out_ch, in_ch, k, k) with k odd.
    """

    kernel: Tensor
    bias: Tensor
    dilation: int = 1

    def __post_init__(self):
        shape = self.kernel.data.shape
        if len(shape) != 4 or shape[2] != shape[3] or shape[2] % 2 == 0:
            raise ValueError(f"kernel must be (out, in, k, k) with k odd, got shape {shape}")
        if self.bias.data.shape != (shape[0],):
            raise ValueError("bias must have one entry per output channel")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def out_channels(self) -> int:
        return self.kernel.data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.data.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.kernel.data.shape[2]

    @property
    def padding(self) -> int:
        return self.dilation * (self.kernel_size - 1) // 2

    @classmethod
    def initialize(
        cls,
        out_ch: int,
        in_ch: int,
        kernel_size: int,
        rng: np.random.Generator,
        dilation: int = 1,
        dtype=None,
    ) -> "ConvParams":
        """Weights and bias uniform in +-1/sqrt(fan_in)."""
        dt = dtype or _DEFAULT_DTYPE
        bound = 1.0 / math.sqrt(in_ch * kernel_size * kernel_size)
        k = rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel_size, kernel_size))
        b = rng.uniform(-bound, bound, size=(out_ch,))
        return cls(
            kernel=Tensor(k, requires_grad=True, dtype=dt),
            bias=Tensor(b, requires_grad=True, dtype=dt),
            dilation=dilation,
        )

    def parameters(self) -> list[Tensor]:
        return [self.kernel, self.bias]


class _Scratch(threading.local):
    def __init__(self):
        self.buffers = {}  # {(role, dtype): flat buffer}, this thread's own


_SCRATCH = _Scratch()


def _scratch(role: str, shape: tuple, dt) -> np.ndarray:
    """An uninitialised array of ``shape`` over memory the calling thread
    keeps for (role, dtype), grown to the largest shape asked for and handed
    out again on every call with that key in that thread. It is scratch
    space only: the caller consumes it before any other call with the same
    key, and it never becomes, or is viewed by, a Tensor's data or a
    backward closure."""
    n = math.prod(shape)
    bufs = _SCRATCH.buffers
    buf = bufs.get((role, dt))
    if buf is None or buf.size < n:
        buf = bufs[(role, dt)] = np.empty(n, dtype=dt)
    return buf[:n].reshape(shape)


def _pad(parts: list, p: int, dt) -> np.ndarray:
    """Zero-pad (B, C_i, H, W) arrays by p on each side, stacked along
    channels, into one (B, sum C_i, H+2p+1, W+2p) buffer. The extra bottom
    row keeps the last tap's flat slice in bounds."""
    b, _, h, w = parts[0].shape
    if any(a.shape[0] != b or a.shape[2:] != (h, w) for a in parts):
        raise ValueError(f"inputs must share batch and grid size, got {[a.shape for a in parts]}")
    xp = np.zeros((b, sum(a.shape[1] for a in parts), h + 2 * p + 1, w + 2 * p), dtype=dt)
    lo = 0
    for a in parts:
        xp[:, lo : lo + a.shape[1], p : p + h, p : p + w] = a
        lo += a.shape[1]
    return xp


def _taps(xp: np.ndarray, kern: np.ndarray, d: int) -> tuple:
    """Flat-row layout of a padded buffer under a dilated kernel: the output
    size, the flat slice length n = Hout*Wp and, per tap (u, v), the offset
    u*d*Wp + v*d of the contiguous slice it reads."""
    k, wp = kern.shape[2], xp.shape[3]
    span = d * (k - 1) + 1
    h_out, w_out = xp.shape[2] - span, wp - span + 1
    offsets = [(u, v, u * d * wp + v * d) for u in range(k) for v in range(k)]
    return h_out, w_out, h_out * wp, offsets


def _conv_fwd(xp: np.ndarray, kern: np.ndarray, d: int, bias: np.ndarray) -> np.ndarray:
    """Cross-correlation of a ``_pad`` buffer: the sum over taps of one GEMM
    per tap, in tap order, computed at full padded width, plus ``bias`` per
    output channel, then the Wp - Wout columns that run past a row end are
    dropped. Returns a (B, out, Hout, Wout) view of a scratch accumulator,
    which the caller must consume before the next call."""
    b, cin, _, wp = xp.shape
    h_out, w_out, n, offsets = _taps(xp, kern, d)
    xf = xp.reshape(b, cin, -1)
    acc = _scratch("acc", (b, kern.shape[0], n), xp.dtype)
    tmp = _scratch("tap", acc.shape, xp.dtype)
    (u, v, off), *rest = offsets
    np.matmul(kern[:, :, u, v], xf[:, :, off : off + n], out=acc)
    for u, v, off in rest:
        np.matmul(kern[:, :, u, v], xf[:, :, off : off + n], out=tmp)
        acc += tmp
    acc += bias[:, None]
    return acc.reshape(b, -1, h_out, wp)[..., :w_out]


def _conv_bwd(parts: list, p: int, kern: np.ndarray, d: int, g: np.ndarray,
              need_x: bool, need_k: bool) -> tuple:
    """Per-tap backward of ``_conv_fwd`` over ``parts`` padded by p, for the
    output gradient g: the list of each part's gradient, at the part's own
    size, and the kernel gradient, each None unless asked for.

    g is zero-padded by p like the input, so both buffers share one flat
    layout. Tap (u, v)'s kernel gradient is one GEMM of g's slice at
    p*Wp + p, whose right padding supplies the zero wrap columns, against
    the input slice at u*d*Wp + v*d (the parts are padded here again). The
    input gradient is the correlation of padded g with the flipped kernel:
    tap (u, v) reads g at (k-1-u)*d*Wp + (k-1-v)*d, the first tap's GEMM
    writes the accumulator and each later one is added to it, in tap order,
    so each element is the sum, in the same order, that scattering each
    tap's product into a zeroed padded gradient gives."""
    gp = _pad([g], p, g.dtype)
    b, cout, _, wp = gp.shape
    h_out, w_out, n, offsets = _taps(gp, kern, d)
    gf = gp.reshape(b, cout, -1)
    gk = None
    if need_k:
        xf = _pad(parts, p, g.dtype).reshape(b, -1, gf.shape[2])
        gout = gf[:, :, p * wp + p : p * wp + p + n]
        gk = np.empty_like(kern)
        for u, v, off in offsets:
            sl = xf[:, :, off : off + n]
            gk[:, :, u, v] = np.matmul(gout, sl.transpose(0, 2, 1)).sum(axis=0)
    if not need_x:
        return None, gk
    last = offsets[-1][2]
    (u, v, off), *rest = [(u, v, last - off) for u, v, off in offsets]
    gx = np.matmul(kern[:, :, u, v].T, gf[:, :, off : off + n])
    tmp = _scratch("tap", gx.shape, gx.dtype)
    for u, v, off in rest:
        gx += np.matmul(kern[:, :, u, v].T, gf[:, :, off : off + n], out=tmp)
    gx = gx.reshape(b, -1, h_out, wp)[..., :w_out]
    grads, lo = [], 0
    for a in parts:
        grads.append(gx[:, lo : lo + a.shape[1]])
        lo += a.shape[1]
    return grads, gk


def conv2d(parts: list, params: ConvParams) -> Tensor:
    """Cross-correlate (B, C_i, H, W) tensors, read as one input stacked
    along channels, with a dilated kernel that keeps the grid (see
    ConvParams). Differentiable w.r.t. every part, the kernel and the bias.

    The parts are padded into one (B, sum C_i, H+2p+1, W+2p) buffer whose
    rows are flattened, so tap (u, v) reads the contiguous slice starting at
    u*d*Wp + v*d of length H*Wp; the output, bias included, is one GEMM per
    tap (see ``_conv_fwd``), copied out of the scratch accumulator. Backward
    pads the parts again rather than keep the buffer, and hands each part
    its own gradient, so no concatenation enters the graph.
    """
    arrays = [t.data for t in parts]
    cin = sum(a.shape[1] for a in arrays)
    if cin != params.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects {params.in_channels}")
    kern, bias, d, p = params.kernel.data, params.bias.data, params.dilation, params.padding
    dt = np.result_type(*arrays, kern, bias)
    out_data = _conv_fwd(_pad(arrays, p, dt), kern, d, bias).copy()

    out = _result(out_data, (*parts, params.kernel, params.bias))
    if out._prev:

        def backward():
            g = out.grad
            if params.bias.requires_grad:
                params.bias._accum(g.sum(axis=(0, 2, 3)))
            gx, gk = _conv_bwd(arrays, p, kern, d, g, any(t.requires_grad for t in parts),
                               params.kernel.requires_grad)
            if gk is not None:
                params.kernel._accum(gk)
            for t, gt in zip(parts, gx or ()):
                if t.requires_grad:
                    t._accum(gt)

        out._backward = backward
    return out


def conv_gru_step(
    h_prev: Tensor,
    x: Tensor,
    gates: tuple[ConvParams, ConvParams, ConvParams],
    bias: Tensor | None = None,
) -> Tensor:
    """One convolutional gated recurrent update, as a single graph node.

    With (wz, wr, wh) = gates, [a, b] channel concatenation and b the
    optional static bias (zero when None), broadcast over the batch:
        z = sigmoid(conv([x, h], wz) + b)
        r = sigmoid(conv([x, h], wr) + b)
        h~ = tanh(conv([x, r*h], wh) + b)
        h  = z*h + (1-z)*h~
    so a saturated update gate (z=1) preserves the previous state exactly.

    z and r come from one per-tap pass with wz and wr stacked along output
    channels. The node's parents are h_prev, x, the six gate tensors and the
    bias; its backward is written out by hand, keeps only z, r and h~, and
    pads [x, h] and [x, r*h] again from the parents' arrays.
    """
    wz, wr, wh = gates
    hc, xc = h_prev.data.shape[1], x.data.shape[1]
    for g in (wz, wr, wh):
        if g.out_channels != hc:
            raise ValueError(f"gate produces {g.out_channels} channels, state has {hc}")
        if g.in_channels != xc + hc:
            raise ValueError(f"gate expects {g.in_channels} input channels, got {xc + hc}")
    if (wz.kernel_size, wz.dilation) != (wr.kernel_size, wr.dilation):
        raise ValueError("update and reset gates need the same kernel size and dilation")

    hd = h_prev.data
    dt = np.result_type(x.data, hd, *(t.data for g in gates for t in g.parameters()))

    def stacked_zr_kernel() -> np.ndarray:
        # rebuilt in backward rather than kept: a copy per frame adds up
        return np.concatenate([wz.kernel.data, wr.kernel.data])

    pre = _conv_fwd(_pad([x.data, hd], wz.padding, dt), stacked_zr_kernel(), wz.dilation,
                    np.concatenate([wz.bias.data, wr.bias.data]))
    if bias is not None:
        pre[:, :hc] += bias.data
        pre[:, hc:] += bias.data
    zr = _sigmoid(pre, np.empty(pre.shape, pre.dtype))
    z, r = zr[:, :hc], zr[:, hc:]
    pre = _conv_fwd(_pad([x.data, r * hd], wh.padding, dt), wh.kernel.data, wh.dilation,
                    wh.bias.data)
    if bias is not None:
        pre += bias.data
    cand = np.tanh(pre)

    # z*h + (1-z)*h~, summed as (1-z)*h~ + z*h
    new = np.subtract(1.0, z)
    new *= cand
    new += np.multiply(z, hd, out=_scratch("tap", new.shape, new.dtype))
    parents = (h_prev, x, *(t for g in gates for t in g.parameters()))
    out = _result(new, parents + (() if bias is None else (bias,)))
    if out._prev:

        def backward():
            g = out.grad
            need_in = x.requires_grad or h_prev.requires_grad
            omz = 1.0 - z
            tmp = np.empty_like(omz)
            gh = g * z
            # dz = (g*h - g*h~) * z * (1-z) and dr, written side by side
            dzr = np.empty_like(zr)
            dz, dr = dzr[:, :hc], dzr[:, hc:]
            np.multiply(g, hd, out=dz)
            dz -= np.multiply(g, cand, out=tmp)
            dz *= z
            dz *= omz
            # dc = g * (1-z) * (1 - h~*h~)
            dc = np.multiply(g, omz)
            np.multiply(cand, cand, out=tmp)
            dc *= np.subtract(1.0, tmp, out=tmp)
            (gx_c, grh), gk = _conv_bwd([x.data, r * hd], wh.padding, wh.kernel.data,
                                        wh.dilation, dc, True, wh.kernel.requires_grad)
            gh += np.multiply(grh, r, out=tmp)
            # dr = g_(r*h) * h * r * (1-r)
            np.multiply(grh, hd, out=dr)
            dr *= r
            dr *= np.subtract(1.0, r, out=tmp)
            if gk is not None:
                wh.kernel._accum(gk)
            if wh.bias.requires_grad:
                wh.bias._accum(dc.sum(axis=(0, 2, 3)))

            gxh, gk = _conv_bwd([x.data, hd], wz.padding, stacked_zr_kernel(), wz.dilation, dzr,
                                need_in, wz.kernel.requires_grad or wr.kernel.requires_grad)
            for gate, lo, dpre in ((wz, 0, dz), (wr, hc, dr)):
                if gk is not None and gate.kernel.requires_grad:
                    gate.kernel._accum(gk[lo : lo + hc])
                if gate.bias.requires_grad:
                    gate.bias._accum(dpre.sum(axis=(0, 2, 3)))
            if bias is not None and bias.requires_grad:
                bias._accum(dz + dr + dc)
            if need_in:
                gx_zr, gh_zr = gxh
                if x.requires_grad:
                    x._accum(gx_zr + gx_c)
                if h_prev.requires_grad:
                    gh += gh_zr
                    h_prev._accum(gh)

        out._backward = backward
    return out


# -------------------------------------------------------------- sampling


def _sample_coords(pose: Pose2, spec: GridSpec, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(M, M) fractional source pixel coordinates of each output cell center
    under the inverse of ``pose``. Coordinates within 1e-9 of an integer snap
    to it so whole-cell translations reproduce inputs bitwise."""
    c, cs = spec.center, spec.cell_size
    u, v = (p[0] / cs + c for p in source_points([pose], spec))
    for arr in (u, v):
        snapped = np.rint(arr)
        near = np.abs(arr - snapped) < 1e-9
        arr[near] = snapped[near]
    return u.astype(dtype), v.astype(dtype)


class SamplePlan:
    """Where each output cell of a bilinear warp reads its source.

    ``cells`` is (4, M*M): per corner, the flat source cell each output
    cell reads, clipped into the grid; ``weights`` is (4, 1, M*M) in the
    coordinates' dtype: the corner's bilinear weight, zero where the corner
    lies off the grid. A warp gathers each corner with one cell vector that
    all maps of the batch share and adds the four weighted corners in corner
    order.

    Backward needs the inverse map, built on the first backward only and
    then kept: per corner, each target cell's first live source (a nonzero
    weight) in source order, or source 0 at weight 0 when it has none, and
    the second live source of each target that has one. A rigid warp of the
    square grid gives a target at most two live sources in a corner: any
    three points of a rotated unit lattice include two at least sqrt(2)
    apart, and no two points of one half-open unit cell are that far apart;
    ``inverse`` rejects a plan with a third. Two float32 summands are exact
    in float64 unless their exponents differ by more than about 29 bits, and
    then both sums round to the larger, so adding the second source in the
    input dtype gives a float64 ``np.bincount`` scatter of the weighted
    gradient from +0.0, but for the sign of a zero, which is lost when the
    corner is added into the input gradient (it starts at +0.0).
    """

    def __init__(self, u: np.ndarray, v: np.ndarray):
        """Plan the warp that reads (M, M) fractional source coordinates
        (u, v)."""
        m = u.shape[-1]
        i0, j0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
        fu, fv = u - i0, v - j0
        cells, weights = [], []
        for di, dj, wgt in (
            (0, 0, (1 - fu) * (1 - fv)),
            (0, 1, (1 - fu) * fv),
            (1, 0, fu * (1 - fv)),
            (1, 1, fu * fv),
        ):
            ii, jj = i0 + di, j0 + dj
            valid = (ii >= 0) & (ii < m) & (jj >= 0) & (jj < m)
            cells.append(np.clip(ii, 0, m - 1) * m + np.clip(jj, 0, m - 1))
            weights.append((wgt * valid).astype(u.dtype))
        self.cells = np.stack(cells).reshape(4, m * m)
        self.weights = np.stack(weights).reshape(4, 1, m * m)
        self.size = m
        self._inverse = None

    @property
    def dtype(self):
        return self.weights.dtype

    def inverse(self) -> tuple:
        """(first, first_weight, second), built once: the (4, M*M) first live
        source of each target and its weight, and the second sources'
        corner, target, cell and weight, in source order (so by corner)."""
        if self._inverse is None:
            w = self.weights.ravel()
            n = self.size * self.size
            src = np.flatnonzero(w)  # flat (corner, source), in source order
            key = src - src % n + self.cells.ravel()[src]  # flat (corner, target)
            first = np.full(w.size, w.size)
            np.minimum.at(first, key, src)
            later = src != first[key]
            sk, ss = key[later], src[later]
            if np.bincount(sk).max(initial=0) > 1:
                raise ValueError("a target has three or more live sources: the warp must be rigid")
            self._inverse = (
                (first % w.size % n).reshape(self.cells.shape),  # no source: cell 0
                np.append(w, w.dtype.type(0))[first].reshape(self.weights.shape),
                (*np.divmod(sk, n), ss % n, w[ss]),
            )
        return self._inverse


def sample_plan(pose: Pose2, spec: GridSpec, dtype) -> SamplePlan:
    """The SamplePlan of a warp into the frame reached by ``pose``, on the
    grid of ``spec`` in ``dtype``."""
    return SamplePlan(*_sample_coords(pose, spec, dtype))


def bilinear_sample(x: Tensor, transform, spec: GridSpec) -> Tensor:
    """Resample (B, C, M, M) feature maps into the frame reached by an SE(2)
    transform: each output cell center is mapped through the inverse transform
    into the source frame and bilinearly interpolated there. ``transform`` is
    a Pose2 or its SamplePlan (``sample_plan``), which several maps of one
    frame can share; every sample is warped by it. Samples outside the
    source grid read as zero. Differentiable w.r.t. x only.

    Each corner is one gather with the cell vector all maps share, scaled by
    the corner's weights and added in corner order, so the output is the
    per-element sum of the plain fancy-indexed formula. The backward gathers
    the output gradient through the plan's inverse map (see SamplePlan),
    bitwise what a float64 scatter-add gives for finite gradients."""
    _, _, h, w = x.data.shape
    m = spec.size_cells
    if h != m or w != m:
        raise ValueError(f"input is {h}x{w}, grid expects {m}x{m}")
    plan = transform if isinstance(transform, SamplePlan) else sample_plan(transform, spec, x.dtype)
    if plan.size != m or plan.dtype != x.dtype:
        raise ValueError(f"plan is for {plan.size}x{plan.size} {plan.dtype}, "
                         f"input is {m}x{m} {x.dtype}")

    xs = x.data.reshape(-1, m * m)  # one row per map
    out_data = np.zeros(xs.shape, dtype=x.dtype)
    tmp = _scratch("warp", xs.shape, x.dtype)
    for cells, wv in zip(plan.cells, plan.weights):
        np.take(xs, cells, axis=1, out=tmp, mode="wrap")
        tmp *= wv
        out_data += tmp
    out = _result(out_data.reshape(x.data.shape), (x,))
    if out._prev:

        def backward():
            g = out.grad.reshape(xs.shape)
            first, first_w, (corner, target, source, sw) = plan.inverse()
            bounds = np.searchsorted(corner, range(5))
            gx = np.zeros(g.shape, dtype=x.dtype)
            tmp = _scratch("warp", g.shape, x.dtype)
            for k in range(4):
                np.take(g, first[k], axis=1, out=tmp, mode="wrap")
                tmp *= first_w[k]
                sl = slice(bounds[k], bounds[k + 1])
                tmp[:, target[sl]] += g[:, source[sl]] * sw[sl]
                gx += tmp
            x._accum(gx.reshape(x.data.shape))

        out._backward = backward
    return out


# -------------------------------------------------------------- loss


def masked_bce(pred: Tensor, target, mask) -> Tensor:
    """Binary cross-entropy averaged over mask=1 cells.

    Predictions are clamped to [eps, 1-eps] (1e-7 in float32, 1e-12 in
    float64) and the clamp is honest: the gradient is zero where the clamp is
    active, and exactly zero (a signed zero) wherever mask=0. The divisor is
    the count of scored cells, or 1 when there are none, so an all-zero mask
    goes through the same formula and gives loss 0 and zero gradients.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    mk = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    if pred.data.shape != t.shape or pred.data.shape != mk.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.data.shape}, target {t.shape}, mask {mk.shape}"
        )
    t = t.astype(pred.dtype)
    mk = mk.astype(pred.dtype)
    eps = 1e-7 if pred.dtype == np.float32 else 1e-12
    n = float(mk.sum()) or 1.0
    p = np.clip(pred.data, eps, 1.0 - eps)
    cell = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    val = np.asarray((mk * cell).sum() / n, dtype=pred.dtype)

    out = _result(val, (pred,))
    if out._prev:

        def backward():
            inside = (pred.data >= eps) & (pred.data <= 1.0 - eps)
            dp = mk * (p - t) / (p * (1.0 - p)) / n
            dp = np.where(inside, dp, 0.0).astype(pred.dtype)
            pred._accum(out.grad * dp)

        out._backward = backward
    return out


# -------------------------------------------------------------- verification


def grad_check(f, inputs: list[Tensor], h: float = 1e-5) -> float:
    """Max relative error between reverse-mode gradients of the scalar
    ``f(*inputs)`` and central finite differences, with denominator
    max(|a|, |n|, 1e-8). Requires float64 inputs."""
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("grad_check requires float64 tensors")
        t.zero_grad()
    out = f(*inputs)
    out.backward()
    analytic = [
        t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs
    ]

    worst = 0.0
    with no_grad():
        for t, a in zip(inputs, analytic):
            flat = t.data.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                hi = float(f(*inputs).data)
                flat[idx] = orig - h
                lo = float(f(*inputs).data)
                flat[idx] = orig
                num = (hi - lo) / (2.0 * h)
                ana = float(a.ravel()[idx])
                denom = max(abs(ana), abs(num), 1e-8)
                worst = max(worst, abs(ana - num) / denom)
    return worst
