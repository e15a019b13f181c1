"""Tensor ops: forward values against hand oracles, gradients against
central finite differences (float64, h=1e-3, relative error < 1e-4)."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

from adhdeepnet.tensor import (GraphError, ShapeError, Tensor, avg_pool,
                               batch_norm, concat, conv2d, depthwise_conv2d,
                               dropout, elu, global_avg_pool, grad_enabled,
                               linear, load_tensors, log_softmax, no_grad,
                               relu, save_tensors, separable_conv2d, sigmoid,
                               softmax)
from adhdeepnet.tensor import _conv_geometry, _padded_spectrum

from conftest import (assert_same_bytes, avg_pool_oracle, batch_norm_oracle,
                      check_gradients, conv2d_oracle, depthwise_oracle,
                      dropout_oracle, elu_oracle, probe_weights)


# -- elementwise / linear --------------------------------------------------------


def test_linear_matches_manual():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3)).astype(np.float32)
    wt = rng.standard_normal((2, 3)).astype(np.float32)
    b = rng.standard_normal(2).astype(np.float32)
    out = linear(Tensor(x), Tensor(wt), Tensor(b))
    np.testing.assert_allclose(out.data, x @ wt.T + b, rtol=1e-6)


# Without a bias, linear(x, w) is the matrix product x @ w.T: the two checks
# below pin that product by hand.


def test_matmul_identity():
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    np.testing.assert_allclose(linear(b, Tensor(np.eye(2))).data,
                               [[5, 6], [7, 8]])
    np.testing.assert_allclose(linear(Tensor(np.eye(2)), b).data,
                               [[5, 7], [6, 8]])


def test_matmul_hand_dot():
    out = linear(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def test_linear_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_linear_without_bias_gradcheck():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    wt = rng.standard_normal((2, 4))
    w = probe_weights((3, 2))
    check_gradients(
        lambda ts: (linear(ts[0], ts[1]) * Tensor(w, dtype=np.float64)).sum(),
        [x, wt])


@pytest.mark.parametrize("bias", [False, True])
def test_linear_rows_do_not_depend_on_the_row_count(bias):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((130, 288)).astype(np.float32)
    wt = Tensor(rng.standard_normal((36, 288)).astype(np.float32))
    b = Tensor(rng.standard_normal(36).astype(np.float32)) if bias else None
    whole = linear(Tensor(x), wt, b).data
    for n in (1, 2, 3, 7, 32, 129):
        assert_same_bytes(linear(Tensor(x[:n]), wt, b).data, whole[:n])


def test_linear_gradcheck():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    wt = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    w = probe_weights((4, 2), seed=2)
    check_gradients(
        lambda ts: (linear(ts[0], ts[1], ts[2])
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, wt, b])


def test_concat_gradcheck():
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((2, c, 3, 3)) for c in (1, 2, 3)]
    w = probe_weights((2, 6, 3, 3), seed=3)
    check_gradients(
        lambda ts: (concat(ts, axis=1) * Tensor(w, dtype=np.float64)).sum(),
        parts)


# -- conv2d ------------------------------------------------------------------------


def test_conv2d_identity_kernel():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    k = Tensor(np.ones((1, 1, 1, 1)))
    np.testing.assert_allclose(
        conv2d(x, k, padding="valid").data.ravel(), [1, 2, 3, 4])


def test_conv2d_sliding_window():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    k = Tensor(np.ones((1, 1, 1, 2)))
    np.testing.assert_allclose(
        conv2d(x, k, padding="valid").data.ravel(), [3, 5, 7])


def test_conv2d_zero_kernel_annihilates():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 4, 8)).astype(np.float32))
    k = Tensor(np.zeros((5, 3, 2, 3), dtype=np.float32))
    assert not conv2d(x, k, padding="same").data.any()


def test_conv2d_same_preserves_shape():
    x = Tensor(np.zeros((2, 3, 5, 9), dtype=np.float32))
    k = Tensor(np.zeros((4, 3, 3, 4), dtype=np.float32))
    assert conv2d(x, k, padding="same").shape == (2, 4, 5, 9)


def test_conv2d_same_pads_extra_on_right():
    # even kernel width 2: one pad column, placed after the signal
    x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
    k = Tensor(np.ones((1, 1, 1, 2)))
    np.testing.assert_allclose(
        conv2d(x, k, padding="same").data.ravel(), [3, 5, 3])


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))),
               padding="valid")


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 2, 2))))


def test_conv2d_direct_oracle():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 4, 6)).astype(np.float32)
    k = rng.standard_normal((4, 3, 2, 3)).astype(np.float32)
    out = conv2d(Tensor(x), Tensor(k), padding="valid").data
    ho, wo = 4 - 2 + 1, 6 - 3 + 1
    ref = np.zeros((2, 4, ho, wo), dtype=np.float64)
    for n in range(2):
        for f in range(4):
            for i in range(ho):
                for j in range(wo):
                    ref[n, f, i, j] = np.sum(
                        x[n, :, i:i + 2, j:j + 3].astype(np.float64)
                        * k[f].astype(np.float64))
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv2d_gradcheck(padding):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 2, 4, 5))
    k = rng.standard_normal((3, 2, 2, 3))
    shape = (2, 3, 4, 5) if padding == "same" else (2, 3, 3, 3)
    w = probe_weights(shape, seed=4)
    check_gradients(
        lambda ts: (conv2d(ts[0], ts[1], padding=padding)
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, k])


def test_conv2d_pointwise_gradcheck():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 3, 2, 4))
    k = rng.standard_normal((5, 3, 1, 1))
    w = probe_weights((2, 5, 2, 4), seed=5)
    check_gradients(
        lambda ts: (conv2d(ts[0], ts[1]) * Tensor(w, dtype=np.float64)).sum(),
        [x, k])


# -- depthwise / separable -----------------------------------------------------------


def test_depthwise_identity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 3, 3)).astype(np.float32)
    k = np.ones((2, 1, 1, 1), dtype=np.float32)
    out = depthwise_conv2d(Tensor(x), Tensor(k)).data
    np.testing.assert_allclose(out, x)


def test_depthwise_channel_locality():
    # output channels 0,1 come from input channel 0 only (channel-major order)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    k = rng.standard_normal((2, 2, 2, 2)).astype(np.float32)
    full = depthwise_conv2d(Tensor(x), Tensor(k)).data
    x2 = x.copy()
    x2[:, 1] = 0.0
    masked = depthwise_conv2d(Tensor(x2), Tensor(k)).data
    np.testing.assert_allclose(full[:, :2], masked[:, :2])
    assert not masked[:, 2:].any()


def test_depthwise_equals_block_diagonal_conv():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    k = rng.standard_normal((2, 2, 2, 2)).astype(np.float32)
    out = depthwise_conv2d(Tensor(x), Tensor(k)).data
    # same arithmetic as a full conv whose kernel is zero off the diagonal
    kfull = np.zeros((4, 2, 2, 2), dtype=np.float32)
    for c in range(2):
        for d in range(2):
            kfull[c * 2 + d, c] = k[c, d]
    ref = conv2d(Tensor(x), Tensor(kfull)).data
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


def test_depthwise_channel_mismatch():
    with pytest.raises(ShapeError):
        depthwise_conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                         Tensor(np.zeros((2, 1, 2, 2))))


def test_depthwise_gradcheck():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 2, 4, 4))
    k = rng.standard_normal((2, 2, 3, 2))
    w = probe_weights((2, 4, 2, 3), seed=6)
    check_gradients(
        lambda ts: (depthwise_conv2d(ts[0], ts[1])
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, k])


def test_separable_is_composition():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((1, 4, 1, 16)).astype(np.float32))
    dk = Tensor(rng.standard_normal((4, 1, 1, 5)).astype(np.float32))
    pk = Tensor(rng.standard_normal((6, 4, 1, 1)).astype(np.float32))
    fused = separable_conv2d(x, dk, pk, padding="same").data
    two_step = conv2d(depthwise_conv2d(x, dk, padding="same"), pk).data
    assert np.array_equal(fused, two_step)


def test_separable_pointwise_identity_mixing():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((1, 3, 2, 8)).astype(np.float32))
    dk = Tensor(rng.standard_normal((3, 1, 1, 3)).astype(np.float32))
    pk = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
    np.testing.assert_allclose(
        separable_conv2d(x, dk, pk, padding="valid").data,
        depthwise_conv2d(x, dk, padding="valid").data)


def test_separable_chain_mismatch():
    with pytest.raises(ShapeError):
        separable_conv2d(Tensor(np.zeros((1, 2, 1, 8))),
                         Tensor(np.zeros((2, 2, 1, 3))),
                         Tensor(np.zeros((5, 3, 1, 1))))


def test_separable_gradcheck():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 2, 1, 8))
    dk = rng.standard_normal((2, 2, 1, 3))
    pk = rng.standard_normal((3, 4, 1, 1))
    w = probe_weights((1, 3, 1, 8), seed=7)
    check_gradients(
        lambda ts: (separable_conv2d(ts[0], ts[1], ts[2], padding="same")
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, dk, pk])


# -- convolution against float64 oracles on the model's shapes ---------------------

# float32 sums over up to ~10^4 products, reordered by the rFFT, against a
# float64 direct sum of the same float32 inputs: relative to the largest
# reference magnitude the error stays below 1e-5 (about 84 float32 eps)
ORACLE_RTOL = 1e-5

MODEL_CONVS = [
    # (op, input shape, kernel shape, padding)
    ("conv2d", (2, 1, 19, 512), (64, 1, 1, 64), "same"),      # full temporal
    ("conv2d", (2, 1, 19, 512), (8, 1, 1, 32), "same"),       # desk temporal
    ("depthwise", (2, 64, 19, 512), (64, 2, 19, 1), "valid"),  # spatial
    ("conv2d", (2, 128, 1, 256), (72, 128, 1, 1), "valid"),   # pointwise
    ("depthwise", (2, 72, 1, 256), (72, 1, 1, 128), "same"),  # full branches
    ("depthwise", (2, 72, 1, 256), (72, 1, 1, 256), "same"),
    ("depthwise", (2, 288, 1, 256), (288, 1, 1, 64), "same"),  # full post_sep
    ("depthwise", (2, 32, 1, 256), (32, 1, 1, 8), "same"),    # desk kernels
    ("depthwise", (2, 32, 1, 256), (32, 1, 1, 16), "same"),
    # the fused stem: spatial contraction, then the temporal correlation
    ("conv2d", (2, 1, 19, 512), (128, 1, 19, 1), "valid"),    # full
    ("depthwise", (2, 64, 2, 512), (64, 1, 1, 64), "same"),
    ("conv2d", (2, 1, 19, 512), (16, 1, 19, 1), "valid"),     # desk, EEGNet
    ("depthwise", (2, 8, 2, 512), (8, 1, 1, 32), "same"),     # desk
    ("depthwise", (2, 8, 2, 512), (8, 1, 1, 64), "same"),     # EEGNet
    ("conv2d", (2, 1, 19, 512), (8, 1, 1, 64), "same"),       # EEGNet temporal
    ("depthwise", (2, 8, 19, 512), (8, 2, 19, 1), "valid"),   # desk spatial
    ("conv2d", (2, 72, 1, 256), (72, 72, 1, 1), "valid"),     # full separable
    ("conv2d", (2, 288, 1, 256), (288, 288, 1, 1), "valid"),  # full post_sep
    ("conv2d", (2, 16, 1, 256), (8, 16, 1, 1), "valid"),      # desk pointwise
    ("depthwise", (2, 8, 1, 256), (8, 1, 1, 8), "same"),      # desk branches
    ("depthwise", (2, 8, 1, 256), (8, 1, 1, 16), "same"),
    ("conv2d", (2, 8, 1, 256), (8, 8, 1, 1), "valid"),
    ("conv2d", (2, 32, 1, 256), (32, 32, 1, 1), "valid"),     # desk post_sep
    ("depthwise", (2, 16, 1, 128), (16, 1, 1, 16), "same"),   # EEGNet
    ("conv2d", (2, 16, 1, 128), (16, 16, 1, 1), "valid"),
    # general: windows copied (im2col, kh > 1 and H' > 1), padded rows, and
    # spectra summed over several (channel, tap) pairs
    ("conv2d", (2, 3, 7, 40), (4, 3, 3, 1), "valid"),
    ("conv2d", (2, 3, 7, 40), (4, 3, 3, 1), "same"),
    ("conv2d", (2, 3, 7, 40), (4, 3, 3, 5), "same"),
    ("depthwise", (2, 3, 7, 40), (3, 2, 3, 1), "same"),
    ("depthwise", (2, 3, 7, 40), (3, 2, 3, 5), "valid"),
]

CONV_OPS = {"conv2d": (conv2d, conv2d_oracle),
            "depthwise": (depthwise_conv2d, depthwise_oracle)}


@pytest.mark.parametrize("op,x_shape,k_shape,padding", MODEL_CONVS)
def test_conv_matches_float64_oracle_on_model_shapes(op, x_shape, k_shape,
                                                     padding):
    fn, oracle = CONV_OPS[op]
    rng = np.random.default_rng(sum(x_shape) + sum(k_shape))
    x = Tensor(rng.standard_normal(x_shape).astype(np.float32),
               requires_grad=True)
    k = Tensor((0.1 * rng.standard_normal(k_shape)).astype(np.float32),
               requires_grad=True)
    out = fn(x, k, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    dx, dk = out._backward_fn(g)
    ref_out, ref_dx, ref_dk = oracle(x.data, k.data, padding, g)
    for got, ref in ((out.data, ref_out), (dx, ref_dx), (dk, ref_dk)):
        assert got.dtype == np.float32
        assert got.shape == ref.shape
        rel = np.abs(got - ref).max() / np.abs(ref).max()
        assert rel < ORACLE_RTOL, rel


@pytest.mark.parametrize("x_shape,kernel,padding", [
    ((2, 64, 2, 512), (1, 64), "same"), ((2, 72, 1, 256), (1, 256), "same"),
    ((2, 288, 1, 256), (1, 64), "same"), ((2, 8, 2, 512), (1, 32), "same"),
    ((2, 1, 19, 512), (1, 64), "same"), ((2, 3, 7, 40), (3, 5), "same"),
    ((2, 3, 7, 40), (3, 5), "valid"), ((2, 3, 7, 40), (3, 1), "same")])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_spectrum_matches_pad_then_transform_bitwise(x_shape, kernel,
                                                            padding, dtype):
    # one copy into a buffer the transform's length, against np.pad and a
    # transform that zero-fills to that length itself
    x = np.random.default_rng(27).standard_normal(x_shape).astype(dtype)
    ph, pw, _, _ = _conv_geometry(*x_shape[2:], *kernel, padding)
    nfft = None if kernel[1] == 1 else \
        sfft.next_fast_len(x_shape[3] + sum(pw), real=True)
    padded = np.pad(x, ((0, 0), (0, 0), ph, (pw[0], 0)))
    want = padded if nfft is None else sfft.rfft(padded, n=nfft, axis=-1)
    assert_same_bytes(_padded_spectrum(x, ph, pw, nfft), want)


def test_conv2d_multichannel_time_kernel_gradcheck():
    rng = np.random.default_rng(24)
    x = rng.standard_normal((2, 3, 1, 9))
    k = rng.standard_normal((4, 3, 1, 5))
    w = probe_weights((2, 4, 1, 9), seed=13)
    check_gradients(
        lambda ts: (conv2d(ts[0], ts[1], padding="same")
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, k])


def test_depthwise_full_height_valid_gradcheck():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 2, 4, 5))
    k = rng.standard_normal((2, 3, 4, 1))
    w = probe_weights((2, 6, 1, 5), seed=14)
    check_gradients(
        lambda ts: (depthwise_conv2d(ts[0], ts[1], padding="valid")
                    * Tensor(w, dtype=np.float64)).sum(),
        [x, k])


@pytest.mark.parametrize("op,k_shape", [("conv2d", (3, 2, 1, 4)),
                                        ("conv2d", (3, 2, 1, 1)),
                                        ("depthwise", (2, 2, 1, 4)),
                                        ("depthwise", (2, 2, 3, 1))])
def test_conv_skips_input_gradient_without_requires_grad(op, k_shape):
    fn, oracle = CONV_OPS[op]
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal((2, 2, 3, 8)))
    k = Tensor(rng.standard_normal(k_shape), requires_grad=True)
    out = fn(x, k, padding="same")
    g = rng.standard_normal(out.shape)
    dx, dk = out._backward_fn(g)
    assert dx is None
    np.testing.assert_allclose(dk, oracle(x.data, k.data, "same", g)[2],
                               rtol=1e-10, atol=1e-10)
    (out * Tensor(g)).sum().backward()
    assert x.grad is None
    np.testing.assert_allclose(k.grad, dk)


# -- batch norm ---------------------------------------------------------------------


def test_batch_norm_normalizes():
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((8, 3, 2, 5)).astype(np.float32) * 4 + 2)
    gamma = Tensor(np.ones(3, dtype=np.float32))
    beta = Tensor(np.zeros(3, dtype=np.float32))
    rm, rv = np.zeros(3, np.float32), np.ones(3, np.float32)
    out = batch_norm(x, gamma, beta, rm, rv, training=True).data
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-5)
    np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-3)


def test_batch_norm_constant_channel():
    x = Tensor(np.full((4, 2, 1, 3), 7.0, dtype=np.float32))
    gamma = Tensor(np.ones(2, np.float32))
    beta = Tensor(np.zeros(2, np.float32))
    out = batch_norm(x, gamma, beta, np.zeros(2, np.float32),
                     np.ones(2, np.float32), training=True).data
    np.testing.assert_allclose(out, 0, atol=1e-6)


def test_batch_norm_running_stats_ema():
    x = Tensor(np.full((2, 1, 1, 2), 4.0, dtype=np.float32))
    rm = np.full(1, 1.0, np.float32)
    rv = np.full(1, 1.0, np.float32)
    batch_norm(x, Tensor(np.ones(1, np.float32)),
               Tensor(np.zeros(1, np.float32)), rm, rv, training=True)
    # 0.9*init + 0.1*batch: mean 0.9*1 + 0.1*4 = 1.3, var 0.9*1 + 0.1*0 = 0.9
    np.testing.assert_allclose(rm, [1.3], rtol=1e-6)
    np.testing.assert_allclose(rv, [0.9], rtol=1e-6)


def test_batch_norm_inference_uses_running_stats():
    x = Tensor(np.array([[[[2.0]]]], dtype=np.float32))
    rm = np.array([1.0], np.float32)
    rv = np.array([4.0], np.float32)
    out = batch_norm(x, Tensor(np.ones(1, np.float32)),
                     Tensor(np.zeros(1, np.float32)), rm, rv, training=False)
    np.testing.assert_allclose(out.data, (2 - 1) / np.sqrt(4 + 1e-5),
                               rtol=1e-5)
    np.testing.assert_allclose(rm, [1.0])  # inference leaves stats alone


def test_batch_norm_zero_batch_errors():
    with pytest.raises(ValueError):
        batch_norm(Tensor(np.zeros((0, 2, 1, 4))),
                   Tensor(np.ones(2)), Tensor(np.zeros(2)),
                   np.zeros(2), np.ones(2), training=True)


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_gradcheck(training):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((3, 2, 2, 4))
    gamma = rng.standard_normal(2) + 1.0
    beta = rng.standard_normal(2)
    w = probe_weights((3, 2, 2, 4), seed=8)

    def forward(ts):
        rm = np.array([0.2, -0.1], np.float64)
        rv = np.array([1.5, 0.7], np.float64)
        out = batch_norm(ts[0], ts[1], ts[2], rm, rv, training=training)
        return (out * Tensor(w, dtype=np.float64)).sum()

    check_gradients(forward, [x, gamma, beta])


# -- activations -----------------------------------------------------------------------


def test_elu_values():
    # float64 input: e^-30 is below float32 resolution of the -1 asymptote
    out = elu(Tensor(np.array([0.0, -30.0, 2.0], dtype=np.float64))).data
    assert out[0] == 0.0
    assert -1.0 < out[1] < -0.999
    assert out[2] == 2.0


def test_sigmoid_at_zero():
    assert sigmoid(Tensor(np.array(0.0))).data == 0.5


def test_softmax_stable_at_large_inputs():
    out = softmax(np.array([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2,
                max_size=6))
def test_softmax_rows_sum_to_one(row):
    # extreme spreads underflow to exactly 0/1 in any float width, so the
    # bound check is closed; the sum tolerance is the real stability claim
    out = softmax(np.array([row], dtype=np.float32))
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0) and np.all(out <= 1)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-8, max_value=8), min_size=2, max_size=6))
def test_softmax_strictly_interior_at_moderate_spread(row):
    out = softmax(np.array([row], dtype=np.float32))
    assert np.all(out > 0) and np.all(out < 1)


@pytest.mark.parametrize("op", [relu, elu, sigmoid, log_softmax])
def test_activation_gradcheck(op):
    rng = np.random.default_rng(18)
    x = rng.standard_normal((3, 5)) * 2
    x[0, 0] = 1.5  # keep clear of the relu kink where FD is undefined
    w = probe_weights((3, 5), seed=9)
    check_gradients(
        lambda ts: (op(ts[0]) * Tensor(w, dtype=np.float64)).sum(), [x])


# -- pooling -----------------------------------------------------------------------------


def test_avg_pool_hand_values():
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 1, 4))
    np.testing.assert_allclose(avg_pool(x).data.ravel(), [2.0, 6.0])


def test_avg_pool_odd_width_truncates_with_warning():
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0, 9.0]).reshape(1, 1, 1, 5))
    with pytest.warns(RuntimeWarning):
        out = avg_pool(x)
    np.testing.assert_allclose(out.data.ravel(), [2.0, 6.0])


def test_avg_pool_same_window3_keeps_width():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(1, 1, 1, 6))
    out = avg_pool(x, window=(1, 3), stride=(1, 1), padding="same")
    assert out.shape == (1, 1, 1, 6)
    # interior column: plain mean of the three neighbours
    np.testing.assert_allclose(out.data[0, 0, 0, 2], (1 + 2 + 3) / 3)


def test_global_avg_pool_constant():
    x = Tensor(np.full((2, 3, 4, 5), 2.5, dtype=np.float32))
    out = global_avg_pool(x)
    assert out.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(out.data, 2.5)


def test_global_avg_pool_matches_mean():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    out = global_avg_pool(Tensor(x)).data
    np.testing.assert_allclose(out.reshape(2, 3), x.mean(axis=(2, 3)),
                               atol=1e-6)


def test_pool_gradcheck():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 2, 2, 6))
    w1 = probe_weights((2, 2, 2, 3), seed=10)
    check_gradients(
        lambda ts: (avg_pool(ts[0]) * Tensor(w1, dtype=np.float64)).sum(), [x])
    w2 = probe_weights((2, 2, 1, 1), seed=11)
    check_gradients(
        lambda ts: (global_avg_pool(ts[0])
                    * Tensor(w2, dtype=np.float64)).sum(), [x])
    w3 = probe_weights((2, 2, 2, 6), seed=12)
    check_gradients(
        lambda ts: (avg_pool(ts[0], window=(1, 3), stride=(1, 1),
                             padding="same")
                    * Tensor(w3, dtype=np.float64)).sum(), [x])


# -- dropout ---------------------------------------------------------------------------------


def test_dropout_rate_zero_identity():
    x = Tensor(np.arange(6, dtype=np.float32))
    out = dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_inference_identity():
    x = Tensor(np.arange(6, dtype=np.float32))
    out = dropout(x, 0.9, training=False, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_zero_fraction():
    x = Tensor(np.ones(100_000, dtype=np.float32))
    out = dropout(x, 0.5, training=True, rng=np.random.default_rng(21))
    frac = float((out.data == 0).mean())
    assert abs(frac - 0.5) < 0.01
    survivors = out.data[out.data != 0]
    np.testing.assert_allclose(survivors, 2.0)  # inverted scaling


def test_dropout_rate_one_errors():
    with pytest.raises(ValueError):
        dropout(Tensor(np.ones(3)), 1.0, training=True,
                rng=np.random.default_rng(0))


# -- elementwise ops against their out-of-place oracles, bit for bit ------------------------


DTYPES = [np.float32, np.float64]


def heavy_tailed(shape, dtype, seed):
    """Student-t (df 1.5) samples on a DC offset, a few -0.0 among them."""
    rng = np.random.default_rng(seed)
    x = (rng.standard_t(1.5, size=shape) * 3.0 + 40.0).astype(dtype)
    x.reshape(-1)[:16] = -0.0  # whole windows of -0.0
    return x


def spread_exponents(shape, dtype, seed):
    """Signed values spread over 2^-40..2^40, so that float64 sums of
    float32 terms round and the order of the adds shows."""
    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(1.0, 2.0, size=shape) * rng.choice([-1, 1], shape)
    return (mantissa * np.exp2(rng.integers(-40, 40, size=shape))).astype(dtype)


def op_and_grads(op, arrays, g, *args, **kwargs):
    """Forward ``op`` on fresh tensors of ``arrays``, then its backward
    closure on the upstream gradient ``g``."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors, *args, **kwargs)
    return out.data, out._backward_fn(g)


def assert_same_op(op, oracle, arrays, g, *args, **kwargs):
    got, got_grads = op_and_grads(op, arrays, g, *args, **kwargs)
    want, want_grads = op_and_grads(oracle, arrays, g, *args, **kwargs)
    assert_same_bytes(got, want)
    assert len(got_grads) == len(want_grads)
    for dgot, dwant in zip(got_grads, want_grads):
        assert_same_bytes(dgot, dwant)


POOLS = {"1x2": ((1, 2), None, "valid"),
         "1x3-same-stride-1": ((1, 3), (1, 1), "same"),
         "1x4": ((1, 4), None, "valid"),
         "1x8": ((1, 8), None, "valid"),
         "2x2": ((2, 2), None, "valid"),
         "1x9-stride-8": ((1, 9), (1, 8), "valid"),
         "1x17": ((1, 17), None, "valid"),
         "1x136": ((1, 136), None, "valid"),
         "3x3-same-stride-1": ((3, 3), (1, 1), "same")}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("data", [heavy_tailed, spread_exponents])
@pytest.mark.parametrize("pool", list(POOLS), ids=list(POOLS))
def test_avg_pool_matches_strided_mean_bitwise(pool, data, dtype):
    window, stride, padding = POOLS[pool]
    x = data((3, 5, 4 if window[0] > 1 else 1, 272), dtype, seed=31)
    out = avg_pool_oracle(Tensor(x), window, stride, padding)
    g = heavy_tailed(out.shape, dtype, seed=32)
    assert_same_op(avg_pool, avg_pool_oracle, [x], g, window, stride,
                   padding)


ELU_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45,
             1e-38, -1e-38, 5e-324, -5e-324, -1.0, 3.0, -3e-8, -100.0,
             -1e4]


@pytest.mark.parametrize("dtype", DTYPES)
def test_elu_matches_where_oracle_bitwise(dtype):
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        edges = np.array(ELU_EDGES, dtype=np.float64).astype(dtype)
    x = np.concatenate([edges, heavy_tailed(4096, dtype, seed=33) - 40.0])
    g = heavy_tailed(x.shape, dtype, seed=34)
    assert_same_op(elu, elu_oracle, [x], g)


def test_expm1_bounds_every_swept_negative_float32():
    # every 4096th bit pattern from -0.0 to -inf: about 522k values, each
    # binade of subnormals and normals included
    bits = np.arange(0x80000000, 0xFF800001, 4096, dtype=np.uint64)
    x = bits.astype(np.uint32).view(np.float32)
    assert x.size > 500_000 and x[-1] == -np.inf
    assert np.all(np.expm1(x) >= x)
    g = heavy_tailed(x.shape, np.float32, seed=35)
    assert_same_op(elu, elu_oracle, [x], g)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_matches_out_of_place_oracle_bitwise(training, dtype):
    rng = np.random.default_rng(36)
    x = heavy_tailed((6, 4, 3, 40), dtype, seed=37)
    gamma = (rng.standard_normal(4) + 1.0).astype(dtype)
    beta = rng.standard_normal(4).astype(dtype)
    g = heavy_tailed(x.shape, dtype, seed=38)
    stats = {}
    for name, op in (("got", batch_norm), ("want", batch_norm_oracle)):
        running = (np.array([0.5, -2.0, 40.0, 0.0], dtype),
                   np.array([1.0, 9.0, 300.0, 0.25], dtype))
        stats[name] = (*op_and_grads(op, [x, gamma, beta], g, *running,
                                     training), running)
    (got, got_grads, got_running), (want, want_grads, want_running) = \
        stats["got"], stats["want"]
    assert_same_bytes(got, want)
    for dgot, dwant in zip(got_grads, want_grads):
        assert_same_bytes(dgot, dwant)
    for rgot, rwant in zip(got_running, want_running):
        assert_same_bytes(rgot, rwant)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("training,rate", [(True, 0.45), (True, 0.0),
                                           (False, 0.45)])
def test_dropout_matches_oracle_bitwise_and_draws_alike(training, rate,
                                                        dtype):
    # at rate 0.45, 1 / keep rounds differently in float32 and float64
    x = heavy_tailed((4, 6, 1, 50), dtype, seed=39)
    g = heavy_tailed(x.shape, dtype, seed=40)
    rngs = np.random.default_rng(41), np.random.default_rng(41)
    if not training or rate == 0.0:  # the input itself, and no draw
        t = Tensor(x, requires_grad=True)
        assert dropout(t, rate, training, rngs[0]) is t
    else:
        got, got_grads = op_and_grads(dropout, [x], g, rate, training,
                                      rngs[0])
        want, want_grads = op_and_grads(dropout_oracle, [x], g, rate,
                                        training, rngs[1])
        assert_same_bytes(got, want)
        assert_same_bytes(got_grads[0], want_grads[0])
    assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("dtype", DTYPES)
def test_global_avg_pool_backward_is_the_broadcast_gradient(dtype):
    x = heavy_tailed((3, 4, 2, 5), dtype, seed=42)
    g = heavy_tailed((3, 4, 1, 1), dtype, seed=43)
    (dx,) = op_and_grads(global_avg_pool, [x], g)[1]
    assert_same_bytes(np.ascontiguousarray(dx),
                      np.broadcast_to(g * (1.0 / 10), x.shape).astype(dtype))


def read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@pytest.mark.parametrize("case", ["avg_pool", "avg_pool_same", "elu",
                                  "batch_norm_train", "batch_norm_eval",
                                  "dropout", "global_avg_pool"])
def test_elementwise_ops_never_write_into_inputs_or_gradients(case):
    # a read-only array raises on any write, so an op that wrote into an
    # array it does not own would fail here
    rng = np.random.default_rng(44)
    x = rng.standard_normal((4, 3, 1, 12)).astype(np.float32)
    gamma, beta = rng.standard_normal((2, 3)).astype(np.float32)
    running = np.zeros(3, np.float32), np.ones(3, np.float32)
    build = {
        "avg_pool": lambda ts: avg_pool(ts[0]),
        "avg_pool_same": lambda ts: avg_pool(ts[0], (1, 3), (1, 1), "same"),
        "elu": lambda ts: elu(ts[0]),
        "batch_norm_train": lambda ts: batch_norm(*ts, *running, True),
        "batch_norm_eval": lambda ts: batch_norm(*ts, *running, False),
        "dropout": lambda ts: dropout(ts[0], 0.4, True,
                                      np.random.default_rng(45)),
        "global_avg_pool": lambda ts: global_avg_pool(ts[0]),
    }[case]
    arrays = read_only(x.copy(), gamma.copy(), beta.copy())
    out = build([Tensor(a, requires_grad=True) for a in arrays])
    (g,) = read_only(rng.standard_normal(out.shape).astype(np.float32))
    grads = out._backward_fn(g)
    assert all(gr is None or np.all(np.isfinite(gr)) for gr in grads)
    for a, original in zip(arrays, (x, gamma, beta)):
        assert_same_bytes(a, original)


# -- backward mechanics ------------------------------------------------------------------------


def test_backward_weighted_sum():
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x = Tensor(np.array([4.0, 5.0, 6.0]))
    (w * x).sum().backward()
    np.testing.assert_allclose(w.grad, [4.0, 5.0, 6.0])


def test_backward_disconnected_stays_none():
    w = Tensor(np.ones(3), requires_grad=True)
    other = Tensor(np.ones(3), requires_grad=True)
    (w * Tensor(np.ones(3))).sum().backward()
    assert other.grad is None


def test_backward_requires_scalar():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        (w * w).backward()


def test_backward_twice_errors():
    w = Tensor(np.ones(3), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    with pytest.raises(GraphError, match="released"):
        loss.backward()


def test_backward_after_zero_grad_on_a_walked_graph_errors():
    # the walked graph has no closures left to re-run, so a reset loss
    # must fail rather than leave the gradients silently unchanged
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    loss.grad = None
    with pytest.raises(GraphError, match="run the forward pass again"):
        loss.backward()
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_backward_through_a_walked_node_errors_before_any_gradient_moves():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = w * w
    h.sum().backward()
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])
    # a fresh path to w beside the walked h: w must gain nothing from it
    with pytest.raises(GraphError, match="released"):
        (w * 3.0 * h).sum().backward()
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_backward_keeps_grad_on_leaves_only_and_releases_the_graph():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x = Tensor(np.array([3.0, 4.0]))
    h = w * x
    e = elu(h)
    loss = e.sum()
    loss.backward()
    np.testing.assert_array_equal(w.grad, [3.0, 4.0])
    assert x.grad is None  # a leaf that needs no gradient
    for node in (h, e, loss):
        assert node.grad is None
        assert node._parents == ()
        assert node.requires_grad
    assert w._parents == () and w._backward_fn is None


def test_backward_on_a_leaf_sets_its_gradient():
    w = Tensor(np.array(2.0), requires_grad=True)
    w.backward()
    np.testing.assert_array_equal(w.grad, 1.0)


def test_backward_accumulates_shared_operand():
    w = Tensor(np.array([3.0]), requires_grad=True)
    (w * w).sum().backward()
    np.testing.assert_allclose(w.grad, [6.0])


def test_forward_determinism():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((2, 3, 4, 8)).astype(np.float32))
        k = Tensor(rng.standard_normal((4, 3, 2, 3)).astype(np.float32))
        return elu(conv2d(x, k, padding="same")).data
    a, b = run(), run()
    assert np.array_equal(a, b)


# -- grad-off context ----------------------------------------------------------------------------


def test_no_grad_ops_return_leaves():
    w = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    x = Tensor(np.array([[3.0, 4.0]]))
    with no_grad():
        out = (elu(linear(w, x)) * 2.0).sum()
    assert not out.requires_grad
    assert out._parents == () and out._backward_fn is None
    np.testing.assert_array_equal(out.data, 22.0)
    with pytest.raises(GraphError, match="no graph"):
        out.backward()
    assert w.grad is None


def test_no_grad_nests_and_restores_after_an_exception():
    assert grad_enabled()
    with no_grad():
        with no_grad():
            assert not grad_enabled()
        assert not grad_enabled()
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inner")
        assert not grad_enabled()
    assert grad_enabled()
    with pytest.raises(ZeroDivisionError):
        with no_grad():
            1 / 0
    assert grad_enabled()
    w = Tensor(np.array([2.0]), requires_grad=True)
    (w * 3.0).sum().backward()
    np.testing.assert_array_equal(w.grad, [3.0])


def test_no_grad_holds_only_in_the_thread_that_entered_it():
    entered, leave = threading.Event(), threading.Event()
    seen = []

    def infer():
        with no_grad():
            seen.append(grad_enabled())
            entered.set()
            leave.wait(timeout=60)
        seen.append(grad_enabled())

    thread = threading.Thread(target=infer)
    thread.start()
    try:
        assert entered.wait(timeout=60)
        assert grad_enabled()
        w = Tensor(np.array([2.0]), requires_grad=True)
        out = (w * 3.0).sum()
    finally:
        leave.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [False, True]
    out.backward()
    np.testing.assert_array_equal(w.grad, [3.0])


def test_grad_state_survives_many_threads_switching_often():
    # a module-wide flag loses this race: one thread's exit from no_grad()
    # turns gradients back on inside another's block, or the reverse
    failures = []

    def toggle():
        for _ in range(300):
            with no_grad():
                time.sleep(0)  # let another thread enter or leave its block
                if grad_enabled():
                    failures.append("on inside no_grad()")
            if not grad_enabled():
                failures.append("off outside no_grad()")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=toggle) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


# -- reductions --------------------------------------------------------------------------------


def test_sum_uses_wide_accumulation():
    # 2^24 + 1 collapses in float32 accumulation; float64 keeps it
    x = Tensor(np.array([2.0 ** 24, 1.0, 1.0], dtype=np.float32))
    assert float(x.sum().data) >= 2.0 ** 24 + 2


# -- serialization ------------------------------------------------------------------------------


def test_weight_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(23)
    named = {
        "conv/kernel": rng.standard_normal((4, 3, 2, 2)).astype(np.float32),
        "dense/bias": rng.standard_normal(7).astype(np.float32),
        "bn/running_mean": rng.standard_normal(3).astype(np.float32),
        "scalar": np.float32(3.25).reshape(()),
    }
    path = tmp_path / "weights.adnw"
    save_tensors(path, named)
    loaded = load_tensors(path)
    assert list(loaded) == list(named)
    for name in named:
        assert loaded[name].shape == np.asarray(named[name]).shape
        assert np.array_equal(loaded[name], named[name])
        assert loaded[name].tobytes() == np.ascontiguousarray(
            named[name], dtype=np.float32).tobytes()


def test_weight_file_magic_rejected(tmp_path):
    path = tmp_path / "bad.adnw"
    path.write_bytes(b"XXXX\x01\x00\x00\x00")
    with pytest.raises(ValueError, match="magic"):
        load_tensors(path)


def test_weight_file_header_layout(tmp_path):
    path = tmp_path / "one.adnw"
    save_tensors(path, {"w": np.array([1.5, -2.0], dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == b"ADNW"
    assert raw[4:8] == (1).to_bytes(4, "little")          # version
    assert raw[8:12] == (1).to_bytes(4, "little")         # name length
    assert raw[12:13] == b"w"
    assert raw[13:17] == (1).to_bytes(4, "little")        # rank
    assert raw[17:21] == (2).to_bytes(4, "little")        # dim 0
    assert raw[21:] == np.array([1.5, -2.0], "<f4").tobytes()


@pytest.fixture(scope="module")
def weight_file(tmp_path_factory):
    named = {"conv/kernel": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
             "bias": np.array([0.5, -1.5], dtype=np.float32),
             "scale": np.float32(2.0).reshape(())}
    path = tmp_path_factory.mktemp("weights") / "w.adnw"
    save_tensors(path, named)
    # offsets where a record ends: a cut there leaves a shorter valid file
    ends, offset = [8], 8
    for name, arr in named.items():
        offset += 4 + len(name) + 4 + 4 * arr.ndim + 4 * arr.size
        ends.append(offset)
    return named, path.read_bytes(), ends


@settings(max_examples=60, deadline=None)
@given(cut=st.integers(min_value=0))
def test_truncated_weight_file_raises_value_error(weight_file, tmp_path_factory,
                                                  cut):
    named, raw, ends = weight_file
    cut %= len(raw)
    path = tmp_path_factory.mktemp("cut") / "w.adnw"
    path.write_bytes(raw[:cut])
    if cut in ends:
        loaded = load_tensors(path)
        assert list(loaded) == list(named)[:ends.index(cut)]
        return
    with pytest.raises(ValueError, match="w.adnw"):
        load_tensors(path)


@settings(max_examples=60, deadline=None)
@given(offset=st.integers(min_value=0), value=st.integers(0, 255),
       extra=st.binary(min_size=1, max_size=3))
def test_corrupt_weight_file_loads_or_raises_value_error(
        weight_file, tmp_path_factory, offset, value, extra):
    _, raw, _ = weight_file
    corrupt = bytearray(raw)
    corrupt[offset % len(raw)] = value
    path = tmp_path_factory.mktemp("corrupt") / "w.adnw"
    path.write_bytes(bytes(corrupt))
    try:
        load_tensors(path)
    except ValueError as err:
        assert "w.adnw" in str(err)
    # fewer than four trailing bytes can never form a record
    path.write_bytes(raw + extra)
    with pytest.raises(ValueError, match="w.adnw"):
        load_tensors(path)
