"""Autodiff engine tests.

Frozen oracles: a naive loop convolution (direct summation), an elementwise
gated-recurrence reference, integer index-shift and closed-form linear
interpolation for the sampler, the textbook cross-entropy formula, and
central finite differences for every gradient.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from gridtrack.geometry import GridSpec, Pose2, se2_inverse
from gridtrack.tensor import (
    ConvParams,
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
)

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
        mid = conv2d(x, params)
        kept = weakref.ref(mid)
        loss = mid.tanh().sum()
        del mid, loss
        assert kept() is not None  # no backward: the closures form a cycle

        mid = conv2d(x, params)
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
    np.testing.assert_array_equal(conv2d(x, params).data, x.data)


def test_conv_ones_kernel_constant_input():
    c = 0.7
    x = Tensor(np.full((1, 1, 6, 6), c, dtype=np.float32))
    params = ConvParams(
        kernel=Tensor(np.ones((1, 1, 3, 3), dtype=np.float32)),
        bias=Tensor(np.zeros(1, dtype=np.float32)),
        padding=1,
    )
    out = conv2d(x, params).data
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
        padding=2,
    )
    out = conv2d(Tensor(x), params).data[0, 0]
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
    p = int(rng.integers(0, 3))
    h = int(rng.integers(d * (k - 1) + 1, 7))
    w = int(rng.integers(d * (k - 1) + 1, 7))
    x = rng.normal(size=(b, cin, h, w))
    params = ConvParams(
        kernel=Tensor(rng.normal(size=(cout, cin, k, k)), dtype=np.float64),
        bias=Tensor(rng.normal(size=cout), dtype=np.float64),
        dilation=d,
        padding=p,
    )
    got = conv2d(Tensor(x, dtype=np.float64), params).data
    want = conv_oracle(x, params.kernel.data, params.bias.data, d, p)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5, 9])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("pad", ["zero", "same", "same+2"])
def test_conv_loop_oracle_sweep(k, d, pad):
    rng = np.random.default_rng(100 * k + 10 * d + len(pad))
    same = ConvParams.same_padding(k, d)
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
            padding=p,
        )
        got = conv2d(Tensor(x, dtype=np.float64), params).data
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
    out = conv2d(x, params)
    (out * Tensor(g)).sum().backward()
    want = tensordot_conv(x.data, params.kernel.data, params.bias.data, d, params.padding)
    grads = tensordot_conv_grads(x.data, params.kernel.data, g, d, params.padding)
    assert out.data.dtype == np.float32
    for got, ref in zip((out.data, x.grad, params.kernel.grad, params.bias.grad), (want, *grads)):
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())


def test_conv_same_padding_preserves_size():
    rng = np.random.default_rng(3)
    for k, d in ((3, 1), (3, 2), (3, 4), (5, 1), (9, 1)):
        params = ConvParams.initialize(2, 2, k, rng, dilation=d)
        x = Tensor(rng.normal(size=(1, 2, 15, 15)).astype(np.float32))
        assert conv2d(x, params).shape == (1, 2, 15, 15)
        assert params.padding == d * (k - 1) // 2


def test_conv_linearity_in_input():
    rng = np.random.default_rng(7)
    params = ConvParams.initialize(2, 2, 3, rng, dtype=np.float64)
    zero_bias = ConvParams(
        kernel=params.kernel, bias=Tensor(np.zeros(2, dtype=np.float64)), dilation=1, padding=1
    )
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    a, b = 1.3, -0.4
    combined = conv2d(Tensor(a * x + b * y, dtype=np.float64), params).data
    parts = (
        a * conv2d(Tensor(x, dtype=np.float64), zero_bias).data
        + b * conv2d(Tensor(y, dtype=np.float64), zero_bias).data
        + params.bias.data[None, :, None, None]
    )
    np.testing.assert_allclose(combined, parts, atol=1e-5)


def test_conv_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    params = ConvParams.initialize(2, 3, 3, rng)
    with pytest.raises(ValueError):
        conv2d(Tensor(np.zeros((1, 2, 5, 5), dtype=np.float32)), params)


def test_conv_params_validation():
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3))), bias=Tensor(np.zeros(2)))
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3, 3))), bias=Tensor(np.zeros(3)))
    with pytest.raises(ValueError):
        ConvParams(kernel=Tensor(np.zeros((2, 2, 3, 3))), bias=Tensor(np.zeros(2)), dilation=0)
    with pytest.raises(ValueError):
        ConvParams.same_padding(4, 1)


# ---------------------------------------------------------------- conv GRU


def zero_gates(x_ch, h_ch, k=1, dtype=np.float32):
    return tuple(
        ConvParams(
            kernel=Tensor(np.zeros((h_ch, x_ch + h_ch, k, k), dtype=dtype)),
            bias=Tensor(np.zeros(h_ch, dtype=dtype)),
            padding=ConvParams.same_padding(k),
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
        kernel=gates[0].kernel, bias=Tensor(np.full(2, 50.0, dtype=np.float32)), padding=0
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
    z = conv2d(xh, wz).sigmoid()
    r = conv2d(xh, wr).sigmoid()
    cand = conv2d(concat_channels([x, r * h_prev]), wh).tanh()
    return z * h_prev + (1.0 - z) * cand


def gru_step_with_bias(h_prev, x, gates, bias):
    wz, wr, wh = gates
    xh = concat_channels([x, h_prev])
    z = (conv2d(xh, wz) + bias).sigmoid()
    r = (conv2d(xh, wr) + bias).sigmoid()
    cand = (conv2d(concat_channels([x, r * h_prev]), wh) + bias).tanh()
    return z * h_prev + (1.0 - z) * cand


@pytest.mark.parametrize("with_bias", [False, True])
def test_gru_bias_argument_matches_written_out_formula(with_bias):
    """conv_gru_step with and without a static bias reproduces, bit for bit
    in float32, the two GRU formulas written out with the autodiff ops."""
    rng = np.random.default_rng(7)
    gates = random_gates(rng, 2, 3, dilation=2, dtype=np.float32)
    h = Tensor(rng.normal(size=(2, 3, 9, 9)).astype(np.float32))
    x = Tensor(rng.normal(size=(2, 2, 9, 9)).astype(np.float32))
    if with_bias:
        bias = Tensor(rng.normal(size=(3, 9, 9)).astype(np.float32))
        want = gru_step_with_bias(h, x, gates, bias)
    else:
        bias = None
        want = gru_step_unbiased(h, x, gates)
    got = conv_gru_step(h, x, gates, bias)
    assert got.data.dtype == np.float32
    assert np.array_equal(got.data, want.data)


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
    err = grad_check(lambda x_, k_, b_: conv2d(x_, params).sum(), [x, params.kernel, params.bias])
    assert err < 1e-6


@pytest.mark.parametrize(
    "d,p,hw", [(2, 2, (6, 5)), (4, 4, (5, 7)), (2, 0, (7, 8)), (4, 0, (10, 11))]
)
def test_grad_check_conv_dilated_non_square(d, p, hw):
    rng = np.random.default_rng(10 * d + p)
    x = Tensor(rng.normal(size=(2, 2, *hw)), requires_grad=True, dtype=np.float64)
    params = ConvParams(
        kernel=Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True, dtype=np.float64),
        bias=Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64),
        dilation=d,
        padding=p,
    )
    weights = Tensor(rng.normal(size=conv2d(x, params).shape), dtype=np.float64)
    err = grad_check(
        lambda x_, k_, b_: (conv2d(x_, params) * weights).sum(), [x, params.kernel, params.bias]
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
