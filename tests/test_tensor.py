"""Autodiff engine tests.

Frozen oracles: a naive loop convolution (direct summation), an elementwise
gated-recurrence reference, integer index-shift and closed-form linear
interpolation for the sampler, the textbook cross-entropy formula, and
central finite differences for every gradient.
"""

import gc
import math
import threading
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gridtrack.geometry import GridSpec, Pose2, se2_inverse
from gridtrack.tensor import (
    ConvParams,
    SamplePlan,
    Tensor,
    bilinear_sample,
    concat_channels,
    conv2d,
    conv_gru_step,
    default_dtype,
    grad_check,
    masked_bce,
    no_grad,
    precision,
    sample_plan,
)
from gridtrack.tensor import _conv_bwd, _result, _scratch

# ---------------------------------------------------------------- oracles


def conv_oracle(x, kernel, bias, dilation, padding):
    b, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    span = dilation * (k - 1) + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = h + 2 * padding - span + 1
    wo = w + 2 * padding - span + 1
    out = np.zeros((b, cout, ho, wo), dtype=x.dtype)
    for bb in range(b):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    s = bias[o]
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                s += xp[bb, c, i + u * dilation, j + v * dilation] * kernel[o, c, u, v]
                    out[bb, o, i, j] = s
    return out


def tensordot_conv(x, kernel, bias, d, p):
    """Sliding-window tensordot convolution (the formula conv2d used before
    its per-tap GEMM form), kept as a float32 reference."""
    span = d * (kernel.shape[2] - 1) + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    taps = sliding_window_view(xp, (span, span), axis=(2, 3))[..., ::d, ::d]
    out = np.moveaxis(np.tensordot(taps, kernel, axes=([1, 4, 5], [1, 2, 3])), 3, 1)
    return out + bias[None, :, None, None]


def tensordot_conv_grads(x, kernel, g, d, p):
    """Input, kernel and bias gradients of tensordot_conv for upstream g."""
    b, cin, h, w = x.shape
    k = kernel.shape[2]
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gx = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for u in range(k):
        for v in range(k):
            rows, cols = slice(u * d, u * d + ho), slice(v * d, v * d + wo)
            gk[:, :, u, v] = np.tensordot(g, xp[:, :, rows, cols], axes=([0, 2, 3], [0, 2, 3]))
            contrib = np.tensordot(g, kernel[:, :, u, v], axes=([1], [0]))
            gx[:, :, rows, cols] += np.moveaxis(contrib, 3, 1)
    return gx[:, :, p : p + h, p : p + w], gk, g.sum(axis=(0, 2, 3))


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def gru_oracle(h_prev, x, gates):
    xh = np.concatenate([x, h_prev], axis=1)
    wz, wr, wh = gates
    z = sigmoid(conv_oracle(xh, wz.kernel.data, wz.bias.data, wz.dilation, wz.padding))
    r = sigmoid(conv_oracle(xh, wr.kernel.data, wr.bias.data, wr.dilation, wr.padding))
    xrh = np.concatenate([x, r * h_prev], axis=1)
    cand = np.tanh(conv_oracle(xrh, wh.kernel.data, wh.bias.data, wh.dilation, wh.padding))
    return z * h_prev + (1.0 - z) * cand


def bce_oracle(p, t, mask, eps):
    p = np.clip(p, eps, 1.0 - eps)
    cell = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))
    n = mask.sum()
    return float((mask * cell).sum() / n) if n > 0 else 0.0


def random_gates(rng, x_ch, h_ch, k=3, dilation=1, dtype=np.float64):
    return tuple(
        ConvParams.initialize(h_ch, x_ch + h_ch, k, rng, dilation=dilation, dtype=dtype)
        for _ in range(3)
    )


# ---------------------------------------------------------------- tensor core


def test_tensor_defaults_float32():
    t = Tensor(np.zeros((2, 2)))
    assert t.dtype == np.float32
    assert default_dtype() == np.float32


def test_precision_context_switches_default():
    with precision("float64"):
        assert Tensor([1.0]).dtype == np.float64
    assert Tensor([1.0]).dtype == np.float32


def test_add_mul_backward_populates_leaves():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    ((a * b + a).sum()).backward()
    np.testing.assert_allclose(a.grad, [[4.0, 5.0]])
    np.testing.assert_allclose(b.grad, [[1.0, 2.0]])


def test_sigmoid_matches_written_out_stable_formula():
    """The sigmoid evaluates exp(-|x|) once, with one division for both
    tails; it must equal the formula that evaluated it three times, bit for
    bit, on both tails, at +-0, +-inf, NaN and subnormals, on a vector and
    on a 0-d array."""
    edges = [0.0, -0.0, 1e4, -1e4, 709.0, -709.0, 710.0, -710.0, 1e-30, -1e-30, 88.0, -88.0,
             88.7, -88.7, 745.0, -745.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40, 5e-324, -5e-324]
    for dt in (np.float32, np.float64):
        rng = np.random.default_rng(7)
        x = np.concatenate([np.array(edges), rng.normal(scale=8.0, size=500)]).astype(dt)
        old = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        ).astype(dt)
        for x, old in ((x, old), (x[-1:].reshape(()), old[-1:].reshape(()))):
            t = Tensor(x, requires_grad=True, dtype=dt)
            out = t.sigmoid()
            assert out.data.shape == x.shape
            assert np.array_equal(out.data, old, equal_nan=True)
            out.sum().backward()
            assert np.array_equal(t.grad, (old * (1.0 - old)).astype(dt), equal_nan=True)


def test_broadcast_gradient_reduces():
    a = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
    bias = Tensor(np.zeros((3, 1, 1)), requires_grad=True)
    (a + bias).sum().backward()
    assert bias.grad.shape == (3, 1, 1)
    np.testing.assert_allclose(bias.grad, np.full((3, 1, 1), 8.0))


def test_reused_node_accumulates_grad():
    a = Tensor(np.array([2.0]), requires_grad=True)
    (a * a).sum().backward()
    np.testing.assert_allclose(a.grad, [4.0])


def test_no_grad_builds_no_graph():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with no_grad():
        out = (a * 3.0).sum()
    assert not out.requires_grad
    with pytest.raises(Exception):
        out.backward()
        assert a.grad is not None  # unreachable; backward on non-graph scalar is a no-op path


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (a * 2.0).backward()


def test_deep_chain_backward_no_recursion_limit():
    a = Tensor(np.array([1.0]), requires_grad=True)
    x = a
    for _ in range(3000):
        x = x * 1.0
    x.sum().backward()
    np.testing.assert_allclose(a.grad, [1.0])


def test_backward_releases_graph_without_gc():
    """backward() cuts the graph's reference cycles: with the cyclic collector
    off, an intermediate conv output dies once the loss is dropped, while an
    unreleased graph keeps it alive."""
    rng = np.random.default_rng(0)
    params = ConvParams.initialize(2, 2, 3, rng)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    gc.disable()
    try:
        mid = conv2d([x], params)
        kept = weakref.ref(mid)
        loss = mid.tanh().sum()
        del mid, loss
        assert kept() is not None  # no backward: the closures form a cycle

        mid = conv2d([x], params)
        freed = weakref.ref(mid)
        loss = mid.tanh().sum()
        del mid
        loss.backward()
        del loss
        assert freed() is None
        assert x.grad is not None and params.kernel.grad is not None
    finally:
        gc.enable()
        gc.collect()


def test_second_backward_through_released_graph_raises():
    a = Tensor(np.ones(3), requires_grad=True)
    h = a * 2.0
    loss = h.sum()
    loss.backward()
    with pytest.raises(ValueError):
        loss.backward()
    with pytest.raises(ValueError):
        (h * 3.0).sum().backward()
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])


# ---------------------------------------------------------------- conv2d


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 1, 4, 5)))
    params = ConvParams(
        kernel=Tensor(np.ones((1, 1, 1, 1), dtype=np.float32)),
        bias=Tensor(np.zeros(1, dtype=np.float32)),
    )
    np.testing.assert_array_equal(conv2d([x], params).data, x.data)


def test_conv_ones_kernel_constant_input():
    c = 0.7
    x = Tensor(np.full((1, 1, 6, 6), c, dtype=np.float32))
    params = ConvParams(
        kernel=Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)),
        bias=Tensor(np.zeros(1, dtype=np.float32)),
    )
    out = conv2d([x], params).data
    assert out.shape == (1, 1, 6, 6)
    np.testing.assert_allclose(out[0, 0, 1:-1, 1:-1], 9 * c, rtol=1e-6)
    np.testing.assert_allclose(out[0, 0, 0, 0], 4 * c, rtol=1e-6)


def test_conv_dilated_impulse_response():
    x = np.zeros((1, 1, 9, 9), dtype=np.float32)
    x[0, 0, 4, 4] = 1.0
    params = ConvParams(
        kernel=Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)),
        bias=Tensor(np.zeros(1, dtype=np.float32)),
        dilation=2,
    )
    out = conv2d([Tensor(x)], params).data[0, 0]
    nz = np.argwhere(out != 0)
    assert len(nz) == 9
    offs = nz - 4
    assert set(map(tuple, offs)) == {(di, dj) for di in (-2, 0, 2) for dj in (-2, 0, 2)}


@pytest.mark.parametrize("seed", range(6))
def test_conv_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 3))
    cin = int(rng.integers(1, 3))
    cout = int(rng.integers(1, 3))
    k = int(rng.choice([1, 3]))
    d = int(rng.choice([1, 2]))
    p = d * (k - 1) // 2
    h = int(rng.integers(d * (k - 1) + 1, 7))
    w = int(rng.integers(d * (k - 1) + 1, 7))
    x = rng.normal(size=(b, cin, h, w))
    params = ConvParams(
        kernel=Tensor(rng.normal(size=(cout, cin, k, k)), dtype=np.float64),
        bias=Tensor(rng.normal(size=cout), dtype=np.float64),
        dilation=d,
    )
    got = conv2d([Tensor(x, dtype=np.float64)], params).data
    want = conv_oracle(x, params.kernel.data, params.bias.data, d, p)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("pad", ["zero", "same", "same+2"])
def test_conv_loop_oracle_sweep(k, d, pad):
    """The loop oracle at padding 0, same and same+2 against the one conv,
    which keeps the grid: padding 0 is its output with the outer `same`
    rows and columns cropped, same+2 its output on an input zero-padded by
    2."""
    rng = np.random.default_rng(100 * k + 10 * d + len(pad))
    same = d * (k - 1) // 2
    p = {"zero": 0, "same": same, "same+2": same + 2}[pad]
    span = d * (k - 1) + 1
    h = max(4, span - 2 * p + 1)
    w = h + 2
    for b in (1, 3):
        x = rng.normal(size=(b, 2, h, w))
        params = ConvParams(
            kernel=Tensor(rng.normal(size=(3, 2, k, k)), dtype=np.float64),
            bias=Tensor(rng.normal(size=3), dtype=np.float64),
            dilation=d,
        )
        extra = max(p - same, 0)
        xe = np.pad(x, ((0, 0), (0, 0), (extra, extra), (extra, extra)))
        got = conv2d([Tensor(xe, dtype=np.float64)], params).data
        crop = max(same - p, 0)
        got = got[:, :, crop : got.shape[2] - crop, crop : got.shape[3] - crop]
        want = conv_oracle(x, params.kernel.data, params.bias.data, d, p)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("cin", [18, 32])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("b", [1, 4])
def test_conv_float32_matches_tensordot_formula(cin, d, b):
    """At the tracker's 51x51 shapes the per-tap GEMMs agree with the
    tensordot formula in float32, forward and backward."""
    rng = np.random.default_rng(cin + d + b)
    params = ConvParams.initialize(16, cin, 3, rng, dilation=d, dtype=np.float32)
    x = Tensor(rng.normal(size=(b, cin, 51, 51)), requires_grad=True, dtype=np.float32)
    g = rng.normal(size=(b, 16, 51, 51)).astype(np.float32)
    out = conv2d([x], params)
    (out * Tensor(g)).sum().backward()
    want = tensordot_conv(x.data, params.kernel.data, params.bias.data, d, params.padding)
    grads = tensordot_conv_grads(x.data, params.kernel.data, g, d, params.padding)
    assert out.data.dtype == np.float32
    for got, ref in zip((out.data, x.grad, params.kernel.grad, params.bias.grad), (want, *grads)):
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def per_tap_conv(x, kernel, bias, d, p):
    """The conv forward written out as its sum: a zero accumulator, then
    ``acc += W_uv @ slice`` for each tap (u, v) in row-major order, then the
    bias."""
    b, cin, h, w = x.shape
    cout, _, k, _ = kernel.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    ho, wo = xp.shape[2] - d * (k - 1), xp.shape[3] - d * (k - 1)
    acc = np.zeros((b, cout, ho * wo), dtype=x.dtype)
    for u in range(k):
        for v in range(k):
            sl = xp[:, :, u * d : u * d + ho, v * d : v * d + wo].reshape(b, cin, -1)
            acc += kernel[:, :, u, v] @ sl
    return acc.reshape(b, cout, ho, wo) + bias[None, :, None, None]


@pytest.mark.parametrize("cin", [18, 32])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("b", [1, 4])
def test_conv_float32_forward_is_the_per_tap_sum_bitwise(cin, d, b):
    """At the tracker's 51x51 shapes the float32 forward equals the per-tap
    sum bit for bit: the taps are added in the same order, so no output
    moves by an ulp (a reordered sum would, and can flip a thresholded
    prediction)."""
    rng = np.random.default_rng(cin * d + b)
    params = ConvParams.initialize(16, cin, 3, rng, dilation=d, dtype=np.float32)
    x = rng.normal(size=(b, cin, 51, 51)).astype(np.float32)
    got = conv2d([Tensor(x)], params).data
    want = per_tap_conv(x, params.kernel.data, params.bias.data, d, params.padding)
    assert got.dtype == want.dtype == np.float32
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_parts", [2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_conv_parts_match_concatenated_input_bitwise(n_parts, dtype, b, d):
    """conv2d over a list of parts is conv2d over their channel
    concatenation, bit for bit: the output and the gradients of every part,
    the kernel and the bias."""
    rng = np.random.default_rng(10 * n_parts + d + b)
    chans = (2, 3, 1)[:n_parts]
    arrays = [rng.normal(size=(b, c, 9, 11)) for c in chans]
    kern = rng.normal(size=(4, sum(chans), 3, 3))
    bias = rng.normal(size=4)
    g = rng.normal(size=(b, 4, 9, 11))

    def run(concat: bool) -> list:
        parts = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
        params = ConvParams(Tensor(kern, requires_grad=True, dtype=dtype),
                            Tensor(bias, requires_grad=True, dtype=dtype), dilation=d)
        out = conv2d([concat_channels(parts)] if concat else parts, params)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        return [out.data] + [t.grad for t in parts] + [params.kernel.grad, params.bias.grad]

    for got, want in zip(run(False), run(True)):
        assert got.dtype == dtype and np.array_equal(got, want)


def scatter_conv_bwd(parts, p, kern, d, g, need_x, need_k):
    """The per-tap conv backward written with a padded input gradient: the
    parts zero-padded into one (B, sum C_i, H+2p+1, W+2p) buffer read as
    flat rows, the output gradient laid out at the padded width Wp with
    zero wrap columns, and per tap (u, v) in row-major order the kernel
    gradient from one GEMM against the input slice at u*d*Wp + v*d and
    ``K_uv^T @ g`` added into a zero input gradient at that offset. Each
    part's gradient is its channels of the padded interior."""
    b, _, h, w = parts[0].shape
    xp = np.zeros((b, sum(a.shape[1] for a in parts), h + 2 * p + 1, w + 2 * p), dtype=g.dtype)
    lo = 0
    for a in parts:
        xp[:, lo : lo + a.shape[1], p : p + h, p : p + w] = a
        lo += a.shape[1]
    cin, wp, k = xp.shape[1], xp.shape[3], kern.shape[2]
    n = h * wp
    xf = xp.reshape(b, cin, -1)
    gf = np.zeros((b, g.shape[1], h, wp), dtype=g.dtype)
    gf[..., :w] = g
    gf = gf.reshape(b, g.shape[1], n)
    gx = np.zeros_like(xf) if need_x else None
    gk = np.empty_like(kern) if need_k else None
    for u in range(k):
        for v in range(k):
            off = u * d * wp + v * d
            sl = xf[:, :, off : off + n]
            if need_k:
                gk[:, :, u, v] = np.matmul(gf, sl.transpose(0, 2, 1)).sum(axis=0)
            if need_x:
                gx[:, :, off : off + n] += np.matmul(kern[:, :, u, v].T, gf)
    if not need_x:
        return None, gk
    gx = gx.reshape(xp.shape)[:, :, p : p + h, p : p + w]
    bounds = np.cumsum([0] + [a.shape[1] for a in parts])
    return [gx[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], gk


# (channels of each input part, output channels, dilation): the convs of
# GRU3DilConv_16 (each layer's stacked update/reset gates and candidate,
# then the decoder), plus a three-part input
MODEL_CONV_SHAPES = [
    ((2, 16), 32, 1), ((2, 16), 16, 1), ((16, 16), 32, 2), ((16, 16), 16, 2),
    ((16, 16), 32, 4), ((16, 16), 16, 4), ((16,), 1, 1), ((2, 8, 6), 16, 2),
]


@pytest.mark.parametrize("chans,cout,d", MODEL_CONV_SHAPES)
@pytest.mark.parametrize("b,m", [(1, 51), (4, 33)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_backward_matches_scatter_reference_bitwise(chans, cout, d, b, m, dtype):
    """Every gradient the conv backward returns equals the padded-gradient
    reference bit for bit, at the tracker's shapes and with either gradient
    left out: each element sums the same per-tap GEMM values in the same
    order."""
    rng = np.random.default_rng(100 * sum(chans) + 10 * cout + d + b)
    parts = [rng.normal(size=(b, c, m, m)).astype(dtype) for c in chans]
    kern = (rng.normal(size=(cout, sum(chans), 3, 3)) * 0.2).astype(dtype)
    g = rng.normal(size=(b, cout, m, m)).astype(dtype)
    for need_x, need_k in ((True, True), (False, True), (True, False)):
        (gx, gk), (want_x, want_k) = (
            f(parts, d, kern, d, g, need_x, need_k) for f in (_conv_bwd, scatter_conv_bwd))
        if need_k:
            assert gk.dtype == dtype and np.array_equal(gk, want_k)
        else:
            assert gk is None
        if need_x:
            assert len(gx) == len(parts)
            for got, want, a in zip(gx, want_x, parts):
                assert got.shape == a.shape and got.dtype == dtype
                assert np.array_equal(got, want)
        else:
            assert gx is None


def test_conv_rejects_parts_of_different_batch_or_grid():
    rng = np.random.default_rng(0)
    params = ConvParams.initialize(2, 3, 3, rng)
    x = Tensor(np.zeros((2, 1, 5, 5)))
    for other in ((1, 2, 5, 5), (2, 2, 5, 6)):
        with pytest.raises(ValueError, match="share batch and grid"):
            conv2d([x, Tensor(np.zeros(other))], params)


def test_conv_same_padding_preserves_size():
    rng = np.random.default_rng(3)
    for k, d in ((3, 1), (3, 2), (3, 4), (5, 1), (9, 1)):
        params = ConvParams.initialize(2, 2, k, rng, dilation=d)
        x = Tensor(rng.normal(size=(1, 2, 15, 15)).astype(np.float32))
        assert conv2d([x], params).shape == (1, 2, 15, 15)
        assert params.padding == d * (k - 1) // 2


def test_conv_linearity_in_input():
    rng = np.random.default_rng(7)
    params = ConvParams.initialize(2, 2, 3, rng, dtype=np.float64)
    zero_bias = ConvParams(
        kernel=params.kernel, bias=Tensor(np.zeros(2, dtype=np.float64)), dilation=1
    )
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    a, b = 1.3, -0.4
    combined = conv2d([Tensor(a * x + b * y, dtype=np.float64)], params).data
    parts = (
        a * conv2d([Tensor(x, dtype=np.float64)], zero_bias).data
        + b * conv2d([Tensor(y, dtype=np.float64)], zero_bias).data
        + params.bias.data[None, :, None, None]
    )
    np.testing.assert_allclose(combined, parts, atol=1e-5)


def test_conv_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    params = ConvParams.initialize(2, 3, 3, rng)
    with pytest.raises(ValueError):
        conv2d([Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32))], params)


def test_conv_params_validation():
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3))), bias=Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3, 3))), bias=Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3, 3))), bias=Tensor(np.zeros(2)), dilation=0)


@pytest.mark.parametrize("shape", [(2, 2, 4, 4), (2, 2, 2, 2), (2, 2, 3, 5), (2, 2, 5, 3)])
def test_conv_params_rejects_even_and_non_square_kernels(shape):
    """Only an odd square kernel has a padding that keeps the grid."""
    with pytest.raises(ValueError, match="k odd"):
        ConvParams(kernel=Tensor(np.zeros(shape)), bias=Tensor(np.zeros(2)))


# ---------------------------------------------------------------- conv GRU


def zero_gates(x_ch, h_ch, k=1, dtype=np.float32):
    return tuple(
        ConvParams(
            kernel=Tensor(np.zeros((h_ch, x_ch + h_ch, k, k), dtype=dtype)),
            bias=Tensor(np.zeros(h_ch, dtype=dtype)),
        )
        for _ in range(3)
    )


def test_gru_zero_weights_zero_state_fixed_point():
    h = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    out = conv_gru_step(h, x, zero_gates(1, 2))
    np.testing.assert_array_equal(out.data, np.zeros((1, 2, 4, 4)))


def test_gru_saturated_update_gate_preserves_state():
    rng = np.random.default_rng(1)
    gates = list(zero_gates(1, 2))
    gates[0] = ConvParams(
        kernel=gates[0].kernel, bias=Tensor(np.full(2, 50.0, dtype=np.float32))
    )
    h = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
    x = Tensor(rng.normal(size=(1, 1, 4, 4)).astype(np.float32))
    out = conv_gru_step(h, x, tuple(gates))
    np.testing.assert_allclose(out.data, h.data, atol=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_gru_matches_elementwise_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    gates = random_gates(rng, 1, 1)
    h = rng.normal(size=(1, 1, 2, 2))
    x = rng.normal(size=(1, 1, 2, 2))
    got = conv_gru_step(Tensor(h, dtype=np.float64), Tensor(x, dtype=np.float64), gates).data
    want = gru_oracle(h, x, gates)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_gru_rejects_shape_mismatch():
    rng = np.random.default_rng(0)
    gates = random_gates(rng, 1, 2, dtype=np.float32)
    h = Tensor(np.zeros((1, 3, 4, 4), dtype=np.float32))
    x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        conv_gru_step(h, x, gates)


def test_gru_rejects_mismatched_update_reset_gates():
    rng = np.random.default_rng(0)
    wz, wr, wh = random_gates(rng, 1, 2, dtype=np.float32)
    wr = ConvParams.initialize(2, 3, 3, rng, dilation=2, dtype=np.float32)
    h = Tensor(np.zeros((1, 2, 6, 6), dtype=np.float32))
    x = Tensor(np.zeros((1, 1, 6, 6), dtype=np.float32))
    with pytest.raises(ValueError):
        conv_gru_step(h, x, (wz, wr, wh))


def gru_step_unbiased(h_prev, x, gates):
    wz, wr, wh = gates
    xh = concat_channels([x, h_prev])
    z = conv2d([xh], wz).sigmoid()
    r = conv2d([xh], wr).sigmoid()
    cand = conv2d([concat_channels([x, r * h_prev])], wh).tanh()
    return z * h_prev + (1.0 - z) * cand


def gru_step_with_bias(h_prev, x, gates, bias):
    wz, wr, wh = gates
    xh = concat_channels([x, h_prev])
    z = (conv2d([xh], wz) + bias).sigmoid()
    r = (conv2d([xh], wr) + bias).sigmoid()
    cand = (conv2d([concat_channels([x, r * h_prev])], wh) + bias).tanh()
    return z * h_prev + (1.0 - z) * cand


@pytest.mark.parametrize("with_bias", [False, True])
def test_gru_bias_argument_matches_written_out_formula(with_bias):
    """conv_gru_step with and without a static bias reproduces, bit for bit
    in float32, the two GRU formulas written out with the autodiff ops, and
    its hand-written backward gives every gradient within rtol 1e-5 of
    theirs, relative to the gradient's largest entry (single entries that
    cancel to near zero differ by a few float32 ulps of their terms)."""
    rng = np.random.default_rng(7)
    gates = random_gates(rng, 2, 3, dilation=2, dtype=np.float32)
    h = Tensor(rng.normal(size=(2, 3, 9, 9)).astype(np.float32), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 2, 9, 9)).astype(np.float32), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 3, 9, 9)).astype(np.float32))
    leaves = [h, x] + [t for g in gates for t in g.parameters()]
    if with_bias:
        bias = Tensor(rng.normal(size=(3, 9, 9)).astype(np.float32), requires_grad=True)
        leaves.append(bias)
        want = gru_step_with_bias(h, x, gates, bias)
    else:
        bias = None
        want = gru_step_unbiased(h, x, gates)
    (want * weights).sum().backward()
    want_grads = [t.grad for t in leaves]
    for t in leaves:
        t.zero_grad()
    got = conv_gru_step(h, x, gates, bias)
    assert got.data.dtype == np.float32
    assert np.array_equal(got.data, want.data)
    (got * weights).sum().backward()
    for t, g in zip(leaves, want_grads):
        assert np.abs(t.grad - g).max() <= 1e-5 * np.abs(g).max()


@pytest.mark.parametrize("with_bias", [False, True])
def test_grad_check_gru_every_input(with_bias):
    """float64 finite differences w.r.t. h_prev, x, all six gate tensors and
    the static bias, at batch 2, dilation 2 on a non-square grid."""
    rng = np.random.default_rng(11)
    gates = random_gates(rng, 1, 2, dilation=2)
    h = Tensor(rng.normal(size=(2, 2, 5, 7)) * 0.5, requires_grad=True, dtype=np.float64)
    x = Tensor(rng.normal(size=(2, 1, 5, 7)), requires_grad=True, dtype=np.float64)
    weights = Tensor(rng.normal(size=(2, 2, 5, 7)), dtype=np.float64)
    inputs = [h, x] + [t for g in gates for t in g.parameters()]
    bias = None
    if with_bias:
        bias = Tensor(rng.normal(size=(2, 5, 7)) * 0.5, requires_grad=True, dtype=np.float64)
        inputs.append(bias)
    err = grad_check(lambda *_: (conv_gru_step(h, x, gates, bias) * weights).sum(), inputs)
    assert err < 1e-6


@pytest.mark.parametrize("with_bias", [False, True])
def test_gru_step_is_one_graph_node(with_bias):
    """The cell's output links straight to h_prev, x, the gate tensors and
    the bias: no elementwise intermediates in the graph."""
    rng = np.random.default_rng(3)
    gates = random_gates(rng, 2, 3, dtype=np.float32)
    h = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
    x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
    bias = Tensor(np.zeros((3, 6, 6)), requires_grad=True) if with_bias else None
    out = conv_gru_step(h, x, gates, bias)
    want = [h, x] + [t for g in gates for t in g.parameters()] + ([bias] if with_bias else [])
    assert len(out._prev) == len(want)
    assert all(a is b for a, b in zip(out._prev, want))


# ---------------------------------------------------------------- scratch reuse
# The conv and GRU kernels accumulate in, and keep temporaries in, memory
# they reuse across calls. None of it may show: outputs and the arrays a
# backward closure keeps are the caller's own.


def test_conv_and_gru_outputs_survive_a_later_call_of_the_same_shape():
    rng = np.random.default_rng(21)
    params = ConvParams.initialize(4, 3, 3, rng, dilation=2, dtype=np.float32)
    gates = random_gates(rng, 3, 4, dilation=2, dtype=np.float32)
    x1, x2 = (Tensor(rng.normal(size=(2, 3, 11, 11))) for _ in range(2))
    h1, h2 = (Tensor(rng.normal(size=(2, 4, 11, 11))) for _ in range(2))
    for grad in (False, True):
        for t in (x1, x2, h1, h2):
            t.requires_grad = grad
        c1 = conv2d([x1], params)
        g1 = conv_gru_step(h1, x1, gates)
        keep = c1.data.copy(), g1.data.copy()
        c2 = conv2d([x2], params)
        g2 = conv_gru_step(h2, x2, gates)
        for first, second, kept in ((c1, c2, keep[0]), (g1, g2, keep[1])):
            assert np.array_equal(first.data, kept)
            assert not np.shares_memory(first.data, second.data)


def test_scratch_is_per_thread():
    """Each thread gets its own memory for a (role, dtype), and the same
    memory again on its next call."""
    shape = (2, 3, 7)
    got = {}
    both_hold_theirs = threading.Barrier(2, timeout=30)

    def ask(name):
        got[name] = (_scratch("acc", shape, np.float32), _scratch("acc", shape, np.float32))
        both_hold_theirs.wait()

    threads = [threading.Thread(target=ask, args=(name,)) for name in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    got["main"] = (_scratch("acc", shape, np.float32), _scratch("acc", shape, np.float32))
    for name, (first, again) in got.items():
        assert np.shares_memory(first, again), name
    for one, other in (("a", "b"), ("a", "main"), ("b", "main")):
        assert not np.shares_memory(got[one][0], got[other][0])


def test_float32_and_float64_calls_of_one_shape_interleave():
    """The same shapes alternating between precisions: each result is what
    its own precision gives from scratch (the per-tap sum for conv2d, the
    written-out GRU formula)."""
    rng = np.random.default_rng(22)
    x = rng.normal(size=(1, 3, 13, 13))
    h = rng.normal(size=(1, 4, 13, 13))
    kern, bias = rng.normal(size=(4, 3, 3, 3)) * 0.3, rng.normal(size=4)
    gate_arrays = [(rng.normal(size=(4, 7, 3, 3)) * 0.3, rng.normal(size=4)) for _ in range(3)]
    for dt in (np.float32, np.float64, np.float32, np.float64):
        with precision(dt):
            params = ConvParams(Tensor(kern), Tensor(bias), dilation=2)
            gates = tuple(ConvParams(Tensor(k), Tensor(b)) for k, b in gate_arrays)
            got = conv2d([Tensor(x)], params).data
            want = per_tap_conv(x.astype(dt), kern.astype(dt), bias.astype(dt), 2, 2)
            assert got.dtype == dt and np.array_equal(got, want)
            got = conv_gru_step(Tensor(h), Tensor(x), gates).data
            want = gru_step_unbiased(Tensor(h), Tensor(x), gates).data
            assert got.dtype == dt and np.array_equal(got, want)


def test_gru_backward_after_another_forward_of_the_same_shape():
    """Backward recomputes from what the closure kept (z, r, h~ and the
    parents); a forward of the same shape between the two, which reuses
    the same scratch memory, must not change the gradients."""
    rng = np.random.default_rng(23)
    gates = random_gates(rng, 2, 3, dilation=2, dtype=np.float32)
    bias = Tensor(rng.normal(size=(3, 9, 9)), requires_grad=True)
    h, x, w = (Tensor(rng.normal(size=(2, c, 9, 9)), requires_grad=True) for c in (3, 2, 3))
    leaves = [h, x, bias] + [t for g in gates for t in g.parameters()]

    def grads(interleave: bool):
        for t in leaves:
            t.zero_grad()
        loss = (conv_gru_step(h, x, gates, bias) * w).sum()
        if interleave:
            other = conv_gru_step(Tensor(rng.normal(size=(2, 3, 9, 9))),
                                  Tensor(rng.normal(size=(2, 2, 9, 9))), gates, bias)
            (other * w).sum()
        loss.backward()
        return [t.grad.copy() for t in leaves]

    for a, b in zip(grads(False), grads(True)):
        assert np.array_equal(a, b)


def test_convs_of_one_padded_width_stay_exact_in_turn():
    """A 53x53 input padded by 1 and a 51x51 input padded by 2 have one
    padded width, 55, but 53 and 51 output columns. Convs of the two in
    turn reuse the same scratch accumulator and per-tap product at one
    flat row layout, and each must still give its own exact output and
    input gradient."""
    rng = np.random.default_rng(24)
    cases = []
    for size, k in ((53, 3), (51, 5)):
        params = ConvParams.initialize(2, 3, k, rng, dtype=np.float64)
        cases.append((Tensor(rng.normal(size=(1, 3, size, size)), requires_grad=True, dtype=np.float64),
                      params, rng.normal(size=(1, 2, size, size)), params.padding))
    for x, params, g, p in cases + cases:
        x.zero_grad()
        out = conv2d([x], params)
        (out * Tensor(g, dtype=np.float64)).sum().backward()
        want = tensordot_conv(x.data, params.kernel.data, params.bias.data, 1, p)
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-12)
        gx = tensordot_conv_grads(x.data, params.kernel.data, g, 1, p)[0]
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------- bilinear


def spec_for(m, cs=0.2):
    return GridSpec(size_cells=m, cell_size=cs)


def test_bilinear_identity_exact():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 3, 7, 7)).astype(np.float32))
    out = bilinear_sample(x, Pose2.identity(), spec_for(7))
    np.testing.assert_array_equal(out.data, x.data)


def test_bilinear_one_cell_shift_matches_index_oracle():
    rng = np.random.default_rng(3)
    spec = spec_for(7)
    x = Tensor(rng.normal(size=(1, 2, 7, 7)).astype(np.float32))
    out = bilinear_sample(x, Pose2(spec.cell_size, 0, 0), spec)
    want = np.zeros_like(x.data)
    want[:, :, 1:, :] = x.data[:, :, :-1, :]
    np.testing.assert_array_equal(out.data, want)


def test_bilinear_integer_shift_round_trip_bitwise():
    rng = np.random.default_rng(4)
    spec = spec_for(9)
    x = Tensor(rng.normal(size=(1, 1, 9, 9)).astype(np.float32))
    t = Pose2(2 * spec.cell_size, -spec.cell_size, 0)
    back = bilinear_sample(bilinear_sample(x, t, spec), Pose2(-t.x, -t.y, 0), spec)
    # cells whose content never left the grid must return bit-identically:
    # the shifted image loses rows >= M-2 and column 0 on the way out
    np.testing.assert_array_equal(back.data[:, :, :-2, 1:], x.data[:, :, :-2, 1:])


def test_bilinear_half_cell_shift_gives_neighbor_midpoints():
    spec = spec_for(7)
    ramp = np.arange(7, dtype=np.float32)[None, None, :, None] * np.ones((1, 1, 7, 7), dtype=np.float32)
    out = bilinear_sample(Tensor(ramp), Pose2(0.5 * spec.cell_size, 0, 0), spec).data
    want = 0.5 * (ramp[:, :, 1:, :] + ramp[:, :, :-1, :])
    np.testing.assert_allclose(out[:, :, 1:, :], want, atol=1e-6)


def test_bilinear_rotation_round_trip_on_linear_field():
    spec = spec_for(21)
    ax = spec.axis_centers()
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    field = (1.5 * gx - 0.8 * gy + 0.3).astype(np.float64)[None, None]
    t = Pose2(0.13, -0.07, 0.3)
    x = Tensor(field, dtype=np.float64)
    back = bilinear_sample(bilinear_sample(x, t, spec), se2_inverse(t), spec)
    c = spec.center
    ii, jj = np.meshgrid(np.arange(21), np.arange(21), indexing="ij")
    interior = (ii - c) ** 2 + (jj - c) ** 2 <= (c - 3) ** 2
    err = np.abs(back.data[0, 0] - field[0, 0])[interior]
    assert err.max() < 1e-4


def test_bilinear_out_of_bounds_reads_zero():
    spec = spec_for(5)
    x = Tensor(np.ones((1, 1, 5, 5), dtype=np.float32))
    out = bilinear_sample(x, Pose2(10 * spec.cell_size, 0, 0), spec)
    np.testing.assert_array_equal(out.data, np.zeros((1, 1, 5, 5)))


def test_bilinear_rejects_wrong_spatial_size():
    with pytest.raises(ValueError):
        bilinear_sample(Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32)), Pose2.identity(), spec_for(7))


def parent_bilinear(x, transform, spec):
    """Single-transform sampler written out as a fixed reference: (M, M)
    corner indices gathered with fancy indexing, gradient by bincount.
    Returns the output and a function from output gradient to input
    gradient."""
    inv = se2_inverse(transform)
    c, cs = spec.center, spec.cell_size
    ax = (np.arange(spec.size_cells, dtype=np.float64) - c) * cs
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    co, si = math.cos(inv.theta), math.sin(inv.theta)
    u = (co * gx - si * gy + inv.x) / cs + c
    v = (si * gx + co * gy + inv.y) / cs + c
    for arr in (u, v):
        snapped = np.rint(arr)
        near = np.abs(arr - snapped) < 1e-9
        arr[near] = snapped[near]
    return parent_sample(x, u.astype(x.dtype), v.astype(x.dtype))


def parent_sample(x, u, v):
    """``parent_bilinear`` from given (M, M) source coordinates."""
    b, ch, m, _ = x.shape
    i0, j0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    fu, fv = u - i0, v - j0
    corners = []
    for di, dj, wgt in ((0, 0, (1 - fu) * (1 - fv)), (0, 1, (1 - fu) * fv),
                        (1, 0, fu * (1 - fv)), (1, 1, fu * fv)):
        ii, jj = i0 + di, j0 + dj
        valid = (ii >= 0) & (ii < m) & (jj >= 0) & (jj < m)
        corners.append((np.clip(ii, 0, m - 1), np.clip(jj, 0, m - 1), (wgt * valid).astype(x.dtype)))
    out = np.zeros_like(x)
    for iic, jjc, wv in corners:
        out += x[:, :, iic, jjc] * wv

    def grad(g):
        gx_flat = np.zeros(b * ch * m * m, dtype=x.dtype)
        base = (np.arange(b * ch) * (m * m))[:, None, None]
        for iic, jjc, wv in corners:
            idx = (base + (iic * m + jjc)[None]).ravel()
            wgrad = (g * wv).reshape(b * ch, m, m).ravel()
            gx_flat += np.bincount(idx, weights=wgrad, minlength=gx_flat.size).astype(x.dtype)
        return gx_flat.reshape(b, ch, m, m)

    return out, grad


POSES = [Pose2(0.13, -0.07, 0.3), Pose2(-0.41, 0.2, -1.2), Pose2(0.6, 0.0, 0.0), Pose2.identity()]
SHARING_POSE = Pose2(0.05, 0.03, 0.7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [9, 33, 51])
def test_bilinear_shared_transform_matches_reference_bitwise(m, dtype):
    spec = spec_for(m)
    rng = np.random.default_rng(m)
    for t in POSES:
        x = Tensor(rng.normal(size=(3, 2, m, m)), requires_grad=True, dtype=dtype)
        g = rng.normal(size=(3, 2, m, m)).astype(dtype)
        out = bilinear_sample(x, t, spec)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        want, want_grad = parent_bilinear(x.data, t, spec)
        assert np.array_equal(out.data, want)
        assert np.array_equal(x.grad, want_grad(g))
    # byte for byte, signed zeros included: a pose under which two live
    # corners share a target, -0.0 in the maps and gradients, and one plan
    # warping maps of 1 and of 3 channels
    plan = sample_plan(SHARING_POSE, spec, dtype)
    assert plan.inverse()[2][0].size > 0
    for ch in (1, 3):
        x = Tensor(rng.normal(size=(2, ch, m, m)), requires_grad=True, dtype=dtype)
        x.data[:, :, :, ::4] = -0.0
        g = rng.normal(size=(2, ch, m, m)).astype(dtype)
        g[:, :, ::3] = -0.0
        out = bilinear_sample(x, plan, spec)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        want, want_grad = parent_bilinear(x.data, SHARING_POSE, spec)
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == want_grad(g).tobytes()
    # byte for byte under seeded random rigid poses: angles over (-pi, pi]
    # and near the axes, sub-cell shifts, each pose shared by the batch,
    # -0.0 rows in g
    sweep = np.random.default_rng(100 + m)
    angles = [*(math.pi - sweep.uniform(0, 2 * math.pi, 6)),
              *(k * math.pi / 2 + sweep.choice([-1, 1]) * 10.0 ** -sweep.integers(5, 10)
                for k in range(-1, 3))]
    for t in [Pose2(*(sweep.uniform(-2, 2, 2) * spec.cell_size), a) for a in angles]:
        x = Tensor(rng.normal(size=(2, 2, m, m)), requires_grad=True, dtype=dtype)
        g = rng.normal(size=(2, 2, m, m)).astype(dtype)
        g[:, :, ::3] = -0.0
        out = bilinear_sample(x, t, spec)
        (out * Tensor(g, dtype=dtype)).sum().backward()
        want, want_grad = parent_bilinear(x.data, t, spec)
        assert out.data.tobytes() == want.tobytes(), t
        assert x.grad.tobytes() == want_grad(g).tobytes(), t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_plan_rejects_targets_of_three_or_more_sources(dtype):
    """A warp that shrinks the grid (no rigid warp does) sends up to twelve
    live sources of one corner to a target: the forward still gives the
    reference's bytes, but the backward, which adds at most two sources per
    target, refuses the plan."""
    m = 15
    rng = np.random.default_rng(21)
    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    u, v = (0.3 * ii + 2.1).astype(dtype), (0.35 * jj - 0.4 * ii + 6.3).astype(dtype)
    plan = SamplePlan(u, v)
    x = Tensor(rng.normal(size=(2, 3, m, m)), requires_grad=True, dtype=dtype)
    g = rng.normal(size=(2, 3, m, m)).astype(dtype)
    out = bilinear_sample(x, plan, spec_for(m))
    want, _ = parent_sample(x.data, u, v)
    assert out.data.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="rigid"):
        (out * Tensor(g, dtype=dtype)).sum().backward()


@pytest.mark.parametrize("m", [9, 33])
def test_rigid_warps_give_a_target_at_most_two_live_sources(m):
    """The bound SamplePlan's docstring argues, over rotations, whole and
    sub-cell shifts and near-axis angles, in both dtypes: counted from the
    plan's cells and weights, and accepted by its inverse map."""
    spec = spec_for(m)
    rng = np.random.default_rng(m)
    near_axis = [k * math.pi / 2 + s * e for k in range(4) for s in (1, -1)
                 for e in (1e-9, 1e-7, 1e-5)]
    shifts = [(0, 0), (0.5, 0.5), (1e-7, -1e-7), (0.9999999, 0.9999999), *rng.uniform(-3, 3, (3, 2))]
    block = np.arange(4)[:, None] * (m * m)  # one key range per corner
    for theta in [*np.linspace(-math.pi, math.pi, 61), *near_axis]:
        for fx, fy in shifts:
            for dtype in (np.float32, np.float64):
                plan = sample_plan(Pose2(fx * spec.cell_size, fy * spec.cell_size, theta), spec, dtype)
                live = plan.weights[:, 0] != 0
                sources = np.bincount((block + plan.cells)[live])
                assert sources.max() <= 2, (theta, fx, fy, dtype)
                plan.inverse()


def parent_warp(x, pose, spec):
    """A warp Tensor op made of one ``parent_bilinear`` call."""
    data, grad = parent_bilinear(x.data, pose, spec)
    out = _result(data, (x,))
    if out._prev:

        def backward():
            x._accum(grad(out.grad))

        out._backward = backward
    return out


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("turning", [False, True])
def test_model_gradients_match_per_sample_parent_warp(dtype, turning, monkeypatch):
    """sequence_loss plus backward on one moving sequence, straight or
    turning, gives the same parameter gradients with each frame's plan as
    with the reference sampler warping the sample's state."""
    from gridtrack import model as model_mod
    from gridtrack.model import ModelConfig, build
    from gridtrack.simulator import moving_straight, moving_turning
    from gridtrack.training import ShowBlankSchedule, sequence_loss, target_mask

    spec = GridSpec(size_cells=15, cell_size=0.4)
    batch = (moving_turning if turning else moving_straight)(seed=1, spec=spec, frames=6)
    sched = ShowBlankSchedule(total_frames=6, show=2, blank=1)

    def grads():
        with precision(dtype):
            model = build(ModelConfig.for_variant("GRU3DilConv_16", spec, use_stm=True), seed=3)
            sequence_loss(model, batch, sched, target_mask(batch, sched)).backward()
        return [(name, t.grad) for name, t in model.named_parameters()]

    planned = grads()
    monkeypatch.setattr(model_mod, "sample_plan", lambda pose, spec, dtype: pose)
    monkeypatch.setattr(model_mod, "bilinear_sample", parent_warp)
    for (name, got), (_, want) in zip(planned, grads()):
        assert np.array_equal(got, want), name


def test_bilinear_rejects_a_plan_for_another_grid_or_dtype():
    plan = sample_plan(Pose2(0.1, 0.0, 0.2), spec_for(7), np.float32)
    for shape, dtype in (((2, 1, 9, 9), np.float32), ((2, 1, 7, 7), np.float64)):
        x = Tensor(np.zeros(shape), dtype=dtype)
        with pytest.raises(ValueError):
            bilinear_sample(x, plan, spec_for(shape[-1]))
    # one pose's plan serves any batch
    bilinear_sample(Tensor(np.zeros((3, 1, 7, 7)), dtype=np.float32), plan, spec_for(7))


# ---------------------------------------------------------------- masked BCE


def test_bce_perfect_prediction_near_zero_loss():
    # float32 path: the clamp itself rounds, so only the magnitude is pinned
    eps = 1e-7
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    pred = Tensor(np.where(t > 0, 1.0 - eps, eps).astype(np.float32))
    loss = masked_bce(pred, t, np.ones_like(t))
    assert loss.item() == pytest.approx(-math.log(1.0 - eps), rel=0.2)
    # float64 path is exact against the closed form
    eps64 = 1e-12
    pred64 = Tensor(np.where(t > 0, 1.0 - eps64, eps64), dtype=np.float64)
    loss64 = masked_bce(pred64, t.astype(np.float64), np.ones_like(t, dtype=np.float64))
    assert loss64.item() == pytest.approx(-math.log(1.0 - eps64), rel=1e-3)


def test_bce_all_zero_mask_is_zero_with_zero_grads():
    pred = Tensor(np.full((2, 2), 0.3, dtype=np.float32), requires_grad=True)
    loss = masked_bce(pred, np.zeros((2, 2)), np.zeros((2, 2)))
    assert loss.item() == 0.0
    loss.backward()
    assert pred.grad is not None
    assert (pred.grad == 0.0).all()


def test_bce_half_everywhere_is_log2():
    rng = np.random.default_rng(5)
    t = (rng.random((3, 4)) < 0.5).astype(np.float32)
    pred = Tensor(np.full((3, 4), 0.5, dtype=np.float32))
    loss = masked_bce(pred, t, np.ones_like(t))
    assert loss.item() == pytest.approx(math.log(2.0), rel=1e-6)


def test_bce_matches_formula_oracle():
    rng = np.random.default_rng(6)
    p = rng.uniform(0.05, 0.95, size=(4, 4))
    t = (rng.random((4, 4)) < 0.5).astype(float)
    mask = (rng.random((4, 4)) < 0.7).astype(float)
    loss = masked_bce(Tensor(p, dtype=np.float64), t, mask)
    assert loss.item() == pytest.approx(bce_oracle(p, t, mask, 1e-12), rel=1e-12)


def test_bce_gradient_bitwise_zero_outside_mask():
    rng = np.random.default_rng(7)
    p = Tensor(rng.uniform(0.1, 0.9, size=(5, 5)), requires_grad=True, dtype=np.float64)
    t = (rng.random((5, 5)) < 0.5).astype(float)
    mask = np.zeros((5, 5))
    mask[1:3, 2:4] = 1.0
    masked_bce(p, t, mask).backward()
    assert (p.grad[mask == 0] == 0.0).all()
    assert (p.grad[mask == 1] != 0.0).any()


def test_bce_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        masked_bce(Tensor(np.zeros((2, 2), dtype=np.float32)), np.zeros((2, 3)), np.zeros((2, 2)))


# ---------------------------------------------------------------- grad checks


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_conv(seed):
    rng = np.random.default_rng(200 + seed)
    x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True, dtype=np.float64)
    params = ConvParams.initialize(3, 2, 3, rng, dilation=1, dtype=np.float64)
    err = grad_check(lambda x_, k_, b_: conv2d([x_], params).sum(), [x, params.kernel, params.bias])
    assert err < 1e-6


@pytest.mark.parametrize("d,p,hw", [(2, 2, (6, 5)), (4, 4, (5, 7))])
def test_grad_check_conv_dilated_non_square(d, p, hw):
    rng = np.random.default_rng(10 * d + p)
    x = Tensor(rng.normal(size=(2, 2, *hw)), requires_grad=True, dtype=np.float64)
    params = ConvParams(
        kernel=Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True, dtype=np.float64),
        bias=Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64),
        dilation=d,
    )
    assert params.padding == p
    weights = Tensor(rng.normal(size=conv2d([x], params).shape), dtype=np.float64)
    err = grad_check(
        lambda x_, k_, b_: (conv2d([x_], params) * weights).sum(), [x, params.kernel, params.bias]
    )
    assert err < 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_gru_with_loss(seed):
    rng = np.random.default_rng(300 + seed)
    gates = random_gates(rng, 1, 2, dtype=np.float64)
    h = Tensor(rng.normal(size=(1, 2, 4, 4)) * 0.5, requires_grad=True, dtype=np.float64)
    x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True, dtype=np.float64)
    target = (rng.random((1, 2, 4, 4)) < 0.5).astype(float)
    mask = (rng.random((1, 2, 4, 4)) < 0.8).astype(float)

    def f(h_, x_, *params):
        out = conv_gru_step(h_, x_, gates)
        return masked_bce(out.sigmoid(), target, mask)

    inputs = [h, x]
    for g in gates:
        inputs.extend(g.parameters())
    err = grad_check(f, inputs)
    assert err < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_bilinear_rotation(seed):
    rng = np.random.default_rng(400 + seed)
    spec = spec_for(7)
    x = Tensor(rng.normal(size=(1, 1, 7, 7)), requires_grad=True, dtype=np.float64)
    t = Pose2(0.05, -0.03, 0.3)
    err = grad_check(lambda x_: bilinear_sample(x_, t, spec).sum(), [x])
    assert err < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_grad_check_masked_bce(seed):
    rng = np.random.default_rng(500 + seed)
    p = Tensor(rng.uniform(0.15, 0.85, size=(3, 3)), requires_grad=True, dtype=np.float64)
    t = (rng.random((3, 3)) < 0.5).astype(float)
    mask = (rng.random((3, 3)) < 0.7).astype(float)
    err = grad_check(lambda p_: masked_bce(p_, t, mask), [p])
    assert err < 1e-7


def test_grad_check_requires_float64():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda a: a.sum(), [x])
