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

The convolution is k*k accumulated GEMMs, one per kernel tap, over
contiguous slices of a once-padded input (no im2col buffer), and the GRU
step computes its update and reset gates with one convolution.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import GridSpec, Pose2, se2_inverse

__all__ = [
    "Tensor",
    "ConvParams",
    "conv2d",
    "conv_gru_step",
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

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

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
        # numerically stable on both tails
        x = self.data
        s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        s = s.astype(self.dtype)
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


def _released():
    """Stands in for the closure of a node whose graph backward() released."""
    raise ValueError("backward() through a graph an earlier backward() released")


def _result(data: np.ndarray, parents: tuple) -> Tensor:
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires, dtype=data.dtype)
    if requires:
        out._prev = parents
    return out


def concat_channels(tensors: list[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along a channel axis: axis 1 of (B, C, H, W) maps,
    axis 0 of (out, in, k, k) kernels and (out,) biases."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _result(data, tuple(tensors))
    if out._prev:
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

        def backward():
            for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
                if t.requires_grad:
                    t._accum(g)

        out._backward = backward
    return out


def split_channels(x: Tensor, parts: int) -> tuple[Tensor, ...]:
    """Split (B, C, H, W) maps into ``parts`` equal channel groups."""
    c = x.data.shape[1] // parts
    outs = []
    for lo in range(0, parts * c, c):
        out = _result(x.data[:, lo : lo + c], (x,))
        if out._prev:

            def backward(out=out, lo=lo):
                g = np.zeros_like(x.data)
                g[:, lo : lo + c] = out.grad
                x._accum(g)

            out._backward = backward
        outs.append(out)
    return tuple(outs)


# -------------------------------------------------------------- convolution


@dataclass
class ConvParams:
    """Weights for one dilated 2D convolution, stride fixed to 1.

    kernel has shape (out_ch, in_ch, k, k); padding is symmetric zero padding.
    With odd k and padding = dilation*(k-1)/2 the output keeps the input's
    spatial size.
    """

    kernel: Tensor
    bias: Tensor
    dilation: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.kernel.data.ndim != 4:
            raise ValueError(f"kernel must be 4D, got shape {self.kernel.shape}")
        if self.bias.data.shape != (self.kernel.data.shape[0],):
            raise ValueError("bias must have one entry per output channel")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

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
    def param_count(self) -> int:
        return self.kernel.data.size + self.bias.data.size

    @staticmethod
    def same_padding(kernel_size: int, dilation: int = 1) -> int:
        if kernel_size % 2 == 0:
            raise ValueError("same padding needs an odd kernel")
        return dilation * (kernel_size - 1) // 2

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
        """Same-padded conv with weights and bias uniform in +-1/sqrt(fan_in)."""
        dt = dtype or _DEFAULT_DTYPE
        bound = 1.0 / math.sqrt(in_ch * kernel_size * kernel_size)
        k = rng.uniform(-bound, bound, size=(out_ch, in_ch, kernel_size, kernel_size))
        b = rng.uniform(-bound, bound, size=(out_ch,))
        return cls(
            kernel=Tensor(k, requires_grad=True, dtype=dt),
            bias=Tensor(b, requires_grad=True, dtype=dt),
            dilation=dilation,
            padding=cls.same_padding(kernel_size, dilation),
        )

    def parameters(self) -> list[Tensor]:
        return [self.kernel, self.bias]


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Cross-correlate a (B, Cin, H, W) tensor with a dilated kernel, stride 1,
    zero padding. Differentiable w.r.t. input, kernel, and bias.

    The input is padded once into a (B, Cin, Hp+1, Wp) buffer whose rows are
    flattened, so tap (u, v) reads the contiguous slice starting at
    u*d*Wp + v*d of length Hout*Wp. The output is the sum over taps of one
    GEMM per tap, computed at full padded width; the Wp - Wout columns that
    run past a row end are dropped at the end. The extra padded row keeps the
    last tap's slice in bounds.
    """
    b, cin, h, w = x.data.shape
    if cin != params.in_channels:
        raise ValueError(f"input has {cin} channels, kernel expects {params.in_channels}")
    k, d, p = params.kernel_size, params.dilation, params.padding
    span = d * (k - 1) + 1
    hp, wp = h + 2 * p, w + 2 * p
    h_out = hp - span + 1
    w_out = wp - span + 1
    if h_out < 1 or w_out < 1:
        raise ValueError("kernel span exceeds padded input")

    kern = params.kernel.data
    dt = np.result_type(x.data, kern)
    xp = np.zeros((b, cin, hp + 1, wp), dtype=dt)
    xp[:, :, p : p + h, p : p + w] = x.data
    xf = xp.reshape(b, cin, (hp + 1) * wp)
    n = h_out * wp
    offsets = [(u, v, u * d * wp + v * d) for u in range(k) for v in range(k)]

    acc = np.zeros((b, params.out_channels, n), dtype=dt)
    tmp = np.empty_like(acc)
    for u, v, off in offsets:
        np.matmul(kern[:, :, u, v], xf[:, :, off : off + n], out=tmp)
        acc += tmp
    out_data = acc.reshape(b, -1, h_out, wp)[..., :w_out] + params.bias.data[None, :, None, None]

    out = _result(out_data, (x, params.kernel, params.bias))
    if out._prev:
        # the closure keeps only the padded input; slices are re-read per tap
        def backward():
            g = out.grad
            if params.bias.requires_grad:
                params.bias._accum(g.sum(axis=(0, 2, 3)))
            need_x = x.requires_grad
            need_k = params.kernel.requires_grad
            gp = np.zeros((b, g.shape[1], h_out, wp), dtype=dt)
            gp[..., :w_out] = g
            gf = gp.reshape(b, g.shape[1], n)
            gx = np.zeros_like(xf) if need_x else None
            gk = np.zeros_like(kern) if need_k else None
            for u, v, off in offsets:
                sl = xf[:, :, off : off + n]
                if need_k:
                    gk[:, :, u, v] = np.matmul(gf, sl.transpose(0, 2, 1)).sum(axis=0)
                if need_x:
                    gx[:, :, off : off + n] += np.matmul(kern[:, :, u, v].T, gf)
            if need_k:
                params.kernel._accum(gk)
            if need_x:
                x._accum(gx.reshape(b, cin, hp + 1, wp)[:, :, p : p + h, p : p + w])

        out._backward = backward
    return out


def conv_gru_step(
    h_prev: Tensor,
    x: Tensor,
    gates: tuple[ConvParams, ConvParams, ConvParams],
    bias: Tensor | None = None,
) -> Tensor:
    """One convolutional gated recurrent update.

    With (wz, wr, wh) = gates, [a, b] channel concatenation and b the
    optional static bias (zero when None), broadcast over the batch:
        z = sigmoid(conv([x, h], wz) + b)
        r = sigmoid(conv([x, h], wr) + b)
        h~ = tanh(conv([x, r*h], wh) + b)
        h  = z*h + (1-z)*h~
    so a saturated update gate (z=1) preserves the previous state exactly.
    """
    wz, wr, wh = gates
    hc = h_prev.data.shape[1]
    for w in (wz, wr, wh):
        if w.out_channels != hc:
            raise ValueError(f"gate produces {w.out_channels} channels, state has {hc}")
        if w.in_channels != x.data.shape[1] + hc:
            raise ValueError(
                f"gate expects {w.in_channels} input channels, got {x.data.shape[1] + hc}"
            )
    if (wz.kernel_size, wz.dilation, wz.padding) != (wr.kernel_size, wr.dilation, wr.padding):
        raise ValueError("update and reset gates need the same kernel size, dilation and padding")

    def biased(pre: Tensor) -> Tensor:
        return pre if bias is None else pre + bias

    # z and r read the same input, so one conv with both kernels stacked
    # along output channels computes them; gradients flow back through the
    # stacking to wz and wr
    zr = ConvParams(
        kernel=concat_channels([wz.kernel, wr.kernel], axis=0),
        bias=concat_channels([wz.bias, wr.bias], axis=0),
        dilation=wz.dilation,
        padding=wz.padding,
    )
    z_pre, r_pre = split_channels(conv2d(concat_channels([x, h_prev]), zr), 2)
    z = biased(z_pre).sigmoid()
    r = biased(r_pre).sigmoid()
    cand = biased(conv2d(concat_channels([x, r * h_prev]), wh)).tanh()
    return z * h_prev + (1.0 - z) * cand


# -------------------------------------------------------------- sampling


def _sample_coords(transform: Pose2, spec: GridSpec, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Fractional source pixel coordinates for each output cell center under
    the inverse transform. Coordinates within 1e-9 of an integer snap to it so
    whole-cell translations reproduce input values bitwise."""
    inv = se2_inverse(transform)
    c = spec.center
    cs = spec.cell_size
    ax = (np.arange(spec.size_cells, dtype=np.float64) - c) * cs
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    co, si = math.cos(inv.theta), math.sin(inv.theta)
    sx = co * gx - si * gy + inv.x
    sy = si * gx + co * gy + inv.y
    u = sx / cs + c
    v = sy / cs + c
    for arr in (u, v):
        snapped = np.rint(arr)
        near = np.abs(arr - snapped) < 1e-9
        arr[near] = snapped[near]
    return u.astype(dtype), v.astype(dtype)


def bilinear_sample(x: Tensor, transform: Pose2, spec: GridSpec) -> Tensor:
    """Resample (B, C, M, M) feature maps into the frame reached by an SE(2)
    transform: each output cell center is mapped through the inverse transform
    into the source frame and bilinearly interpolated there. Samples falling
    outside the source grid read as zero. Differentiable w.r.t. the input
    values only; the transform is a constant."""
    b, ch, h, w = x.data.shape
    m = spec.size_cells
    if h != m or w != m:
        raise ValueError(f"input is {h}x{w}, grid expects {m}x{m}")

    u, v = _sample_coords(transform, spec, x.dtype)
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0

    corners = []
    for di, dj, wgt in (
        (0, 0, (1 - fu) * (1 - fv)),
        (0, 1, (1 - fu) * fv),
        (1, 0, fu * (1 - fv)),
        (1, 1, fu * fv),
    ):
        ii, jj = i0 + di, j0 + dj
        valid = (ii >= 0) & (ii < m) & (jj >= 0) & (jj < m)
        iic = np.clip(ii, 0, m - 1)
        jjc = np.clip(jj, 0, m - 1)
        wv = (wgt * valid).astype(x.dtype)
        corners.append((iic, jjc, wv))

    out_data = np.zeros_like(x.data)
    for iic, jjc, wv in corners:
        out_data += x.data[:, :, iic, jjc] * wv

    out = _result(out_data, (x,))
    if out._prev:

        def backward():
            g = out.grad
            gx_flat = np.zeros(b * ch * m * m, dtype=x.dtype)
            base = (np.arange(b * ch) * (m * m))[:, None, None]
            for iic, jjc, wv in corners:
                cell = (iic * m + jjc)[None, :, :]
                idx = (base + cell).ravel()
                wgrad = (g * wv).reshape(b * ch, m, m).ravel()
                gx_flat += np.bincount(idx, weights=wgrad, minlength=gx_flat.size).astype(x.dtype)
            x._accum(gx_flat.reshape(b, ch, m, m))

        out._backward = backward
    return out


# -------------------------------------------------------------- loss


def masked_bce(pred: Tensor, target, mask) -> Tensor:
    """Binary cross-entropy averaged over mask=1 cells.

    Predictions are clamped to [eps, 1-eps] (1e-7 in float32, 1e-12 in
    float64) and the clamp is honest: the gradient is zero where the clamp is
    active, and exactly zero (bitwise) wherever mask=0. An all-zero mask
    yields loss 0 with zero gradients.
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
    n = float(mk.sum())
    if n == 0.0:
        out = _result(np.asarray(0.0, dtype=pred.dtype), (pred,))
        if out._prev:

            def backward_zero():
                pred._accum(np.zeros_like(pred.data))

            out._backward = backward_zero
        return out

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
