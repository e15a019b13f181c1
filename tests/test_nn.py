"""Layers, channel attention, loss, max-norm, and optimizer updates."""

import numpy as np
import pytest

from adhdeepnet import nn
from adhdeepnet.tensor import ShapeError, Tensor

from conftest import check_gradients, probe_weights


# -- squeeze ------------------------------------------------------------------


def test_se_squeeze_constant_map():
    x = Tensor(np.full((2, 3, 4, 4), 3.0, dtype=np.float32))
    np.testing.assert_allclose(nn.se_squeeze(x).data, 3.0)


def test_se_squeeze_hand_mean():
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0],
                        dtype=np.float32).reshape(1, 1, 2, 2))
    np.testing.assert_allclose(nn.se_squeeze(x).data, [[2.5]])


def test_se_squeeze_equals_gap():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 3, 4)).astype(np.float32)
    from adhdeepnet.tensor import global_avg_pool
    np.testing.assert_array_equal(
        nn.se_squeeze(Tensor(x)).data,
        global_avg_pool(Tensor(x)).data.reshape(2, 5))


# -- excite -------------------------------------------------------------------


def test_se_excite_zero_weights_give_half():
    s = Tensor(np.ones((2, 4), dtype=np.float32))
    w1 = Tensor(np.zeros((2, 4), dtype=np.float32))
    w2 = Tensor(np.zeros((4, 2), dtype=np.float32))
    np.testing.assert_allclose(nn.se_excite(s, w1, w2).data, 0.5)


def test_se_excite_scalar_case():
    s = Tensor(np.array([[0.0]], dtype=np.float32))
    w1 = Tensor(np.array([[1.0]], dtype=np.float32))
    w2 = Tensor(np.array([[1.0]], dtype=np.float32))
    np.testing.assert_allclose(nn.se_excite(s, w1, w2).data, [[0.5]])


def test_se_excite_shape_error():
    with pytest.raises(ShapeError):
        nn.se_excite(Tensor(np.zeros((1, 4))), Tensor(np.zeros((2, 3))),
                     Tensor(np.zeros((4, 2))))


def test_se_excite_matches_scalar_loop():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((3, 4)).astype(np.float32)
    w1 = rng.standard_normal((2, 4)).astype(np.float32)
    w2 = rng.standard_normal((4, 2)).astype(np.float32)
    out = nn.se_excite(Tensor(s), Tensor(w1), Tensor(w2)).data
    for n in range(3):
        hidden = [max(0.0, sum(w1[j, c] * s[n, c] for c in range(4)))
                  for j in range(2)]
        for c in range(4):
            z = sum(w2[c, j] * hidden[j] for j in range(2))
            expect = 1.0 / (1.0 + np.exp(-z))
            assert abs(out[n, c] - expect) < 1e-6


# -- reweight ------------------------------------------------------------------


def test_se_reweight_unit_gates_identity():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 2, 2)).astype(np.float32)
    out = nn.se_reweight(Tensor(x), Tensor(np.ones((2, 3), np.float32))).data
    np.testing.assert_array_equal(out, x)


def test_se_reweight_zero_gate_kills_channel():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
    gates = np.array([[1.0, 0.0, 1.0]], dtype=np.float32)
    out = nn.se_reweight(Tensor(x), Tensor(gates)).data
    assert not out[:, 1].any()
    np.testing.assert_array_equal(out[:, 0], x[:, 0])


def test_se_reweight_matches_broadcast():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 4, 3, 5)).astype(np.float32)
    g = rng.uniform(0, 1, (2, 4)).astype(np.float32)
    out = nn.se_reweight(Tensor(x), Tensor(g)).data
    np.testing.assert_allclose(out, x * g[:, :, None, None], rtol=1e-6)


@pytest.mark.parametrize("channels,ratio", [(4, 2), (8, 4), (16, 2)])
def test_se_block_matches_three_loop_oracle(channels, ratio):
    rng = np.random.default_rng(5)
    block = nn.SEBlock(channels, ratio, rng)
    x = rng.standard_normal((2, channels, 2, 3)).astype(np.float32)
    out = block(Tensor(x)).data
    w1, w2 = block.w1.data, block.w2.data
    mid = channels // ratio
    ref = np.zeros_like(x)
    for n in range(2):
        s = [x[n, c].mean() for c in range(channels)]
        h = [max(0.0, sum(w1[j, c] * s[c] for c in range(channels)))
             for j in range(mid)]
        for c in range(channels):
            z = sum(w2[c, j] * h[j] for j in range(mid))
            gate = 1.0 / (1.0 + np.exp(-z))
            ref[n, c] = gate * x[n, c]
    np.testing.assert_allclose(out, ref, atol=1e-6)


def test_se_block_rejects_indivisible_ratio():
    with pytest.raises(ValueError):
        nn.SEBlock(10, 4, np.random.default_rng(0))


def test_se_block_shapes_and_count():
    block = nn.SEBlock(16, 8, np.random.default_rng(6))
    assert block.w1.shape == (2, 16)
    assert block.w2.shape == (16, 2)
    assert block.parameter_count() == 2 * 16 + 16 * 2


def test_se_block_gradcheck():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 4, 2, 3))
    w1 = rng.standard_normal((2, 4))
    w2 = rng.standard_normal((4, 2))
    w = probe_weights((2, 4, 2, 3), seed=20)

    def forward(ts):
        gates = nn.se_excite(nn.se_squeeze(ts[0]), ts[1], ts[2])
        return (nn.se_reweight(ts[0], gates)
                * Tensor(w, dtype=np.float64)).sum()

    check_gradients(forward, [x, w1, w2])


# -- cross-entropy ---------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = nn.cross_entropy_loss(Tensor(np.array([[0.0, 0.0]])),
                                 Tensor(np.array([[1.0, 0.0]])))
    np.testing.assert_allclose(float(loss.data), np.log(2), rtol=1e-6)


def test_cross_entropy_confident_correct():
    loss = nn.cross_entropy_loss(Tensor(np.array([[10.0, -10.0]])),
                                 Tensor(np.array([[1.0, 0.0]])))
    assert float(loss.data) < 1e-6


def test_cross_entropy_sums_over_batch():
    logits = np.array([[0.3, -0.2], [1.0, 2.0], [-0.5, 0.5]])
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    total = float(nn.cross_entropy_loss(Tensor(logits),
                                        Tensor(labels)).data)
    parts = sum(
        float(nn.cross_entropy_loss(Tensor(logits[i:i + 1]),
                                    Tensor(labels[i:i + 1])).data)
        for i in range(3))
    np.testing.assert_allclose(total, parts, rtol=1e-6)


def test_cross_entropy_rejects_non_one_hot():
    with pytest.raises(ValueError):
        nn.cross_entropy_loss(Tensor(np.zeros((1, 2))),
                              Tensor(np.array([[0.5, 0.5]])))
    with pytest.raises(ValueError):
        nn.cross_entropy_loss(Tensor(np.zeros((1, 2))),
                              Tensor(np.array([[1.0, 1.0]])))


def test_cross_entropy_gradient_is_softmax_minus_labels():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.standard_normal((5, 2)).astype(np.float32),
                    requires_grad=True)
    labels = np.zeros((5, 2), np.float32)
    labels[np.arange(5), rng.integers(0, 2, 5)] = 1.0
    nn.cross_entropy_loss(logits, Tensor(labels)).backward()
    from adhdeepnet.tensor import softmax
    expect = softmax(logits.data) - labels
    np.testing.assert_allclose(logits.grad, expect, atol=1e-5)


def test_cross_entropy_gradcheck():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((4, 2))
    labels = np.zeros((4, 2))
    labels[np.arange(4), rng.integers(0, 2, 4)] = 1.0
    check_gradients(
        lambda ts: nn.cross_entropy_loss(ts[0], Tensor(labels,
                                                       dtype=np.float64)),
        [logits])


# -- max-norm ----------------------------------------------------------------------


def test_max_norm_leaves_small_rows():
    w = Tensor(np.array([[0.3, 0.4]], dtype=np.float32))  # norm 0.5
    nn.apply_max_norm(w, 1.0)
    np.testing.assert_allclose(w.data, [[0.3, 0.4]])


def test_max_norm_rescales_large_row():
    w = Tensor(np.array([[3.0, 4.0]], dtype=np.float32))  # norm 5
    nn.apply_max_norm(w, 1.0)
    np.testing.assert_allclose(w.data, [[0.6, 0.8]], rtol=1e-6)


def test_max_norm_idempotent():
    rng = np.random.default_rng(10)
    w = Tensor(rng.standard_normal((4, 6)).astype(np.float32) * 3)
    nn.apply_max_norm(w, 1.5)
    once = w.data.copy()
    nn.apply_max_norm(w, 1.5)
    np.testing.assert_array_equal(w.data, once)


def test_max_norm_bound_holds():
    rng = np.random.default_rng(11)
    w = Tensor(rng.standard_normal((8, 5)).astype(np.float32) * 4)
    nn.apply_max_norm(w, 0.7)
    norms = np.linalg.norm(w.data, axis=1)
    assert np.all(norms <= 0.7 + 1e-6)


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_max_norm_rejects_a_rate_that_is_not_finite_and_positive(rate):
    w = Tensor(np.array([[3.0, 4.0]], dtype=np.float32))
    with pytest.raises(ValueError, match="norm_rate must be a finite "
                       "positive number"):
        nn.apply_max_norm(w, rate)
    np.testing.assert_array_equal(w.data, [[3.0, 4.0]])


# -- optimizers -----------------------------------------------------------------------


def _param(values):
    t = Tensor(np.array(values, dtype=np.float32), requires_grad=True)
    return t


def test_sgd_hand_update():
    p = _param([1.0])
    p.grad = np.array([0.5], np.float32)
    nn.SGDMomentum(0.1).step([p])
    np.testing.assert_allclose(p.data, [0.95], rtol=1e-6)


def test_sgd_momentum_accumulates():
    p = _param([1.0])
    opt = nn.SGDMomentum(0.1)
    p.grad = np.array([1.0], np.float32)
    opt.step([p])      # v = -0.1, w = 0.9
    p.grad = np.array([1.0], np.float32)
    opt.step([p])      # v = -0.19, w = 0.71
    np.testing.assert_allclose(p.data, [0.71], rtol=1e-5)


def test_zero_gradient_leaves_sgd_unchanged():
    p = _param([2.0])
    p.grad = np.zeros(1, np.float32)
    nn.SGDMomentum(0.5).step([p])
    np.testing.assert_allclose(p.data, [2.0])


def test_adam_first_step_near_lr():
    p = _param([0.0])
    p.grad = np.ones(1, np.float32)
    nn.Adam(0.01).step([p])
    np.testing.assert_allclose(p.data, [-0.01], rtol=1e-5)


def test_adam_zero_grad_zero_moments_no_move():
    p = _param([1.5])
    p.grad = np.zeros(1, np.float32)
    nn.Adam(0.1).step([p])
    np.testing.assert_allclose(p.data, [1.5])


def test_rmsprop_first_step():
    p = _param([0.0])
    p.grad = np.full(1, 2.0, np.float32)
    nn.RMSProp(0.1).step([p])
    # sq = 0.1*4, step = 0.1*2/sqrt(0.4)
    np.testing.assert_allclose(p.data, [-0.1 * 2 / np.sqrt(0.4)], rtol=1e-5)


def test_missing_grad_raises():
    p = _param([1.0])
    with pytest.raises(nn.MissingGradientError):
        nn.Adam(0.01).step([p])


@pytest.mark.parametrize("kind", ["Adam", "SGDMomentum", "RMSProp"])
def test_optimizer_decreases_convex_quadratic(kind):
    # f(w) = sum(w^2): one small step must reduce it
    w = Tensor(np.array([1.0, 5.0, -2.0], dtype=np.float32),
               requires_grad=True)

    def loss_value():
        return float((w.data ** 2).sum())

    before = loss_value()
    (w * w).sum().backward()
    nn.make_optimizer(kind, 1e-3).step([w])
    assert loss_value() < before


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        nn.make_optimizer("Adagrad", 0.01)


def test_optimizer_rejects_nonpositive_lr():
    for kind in nn.OPTIMIZERS:
        for lr in (0.0, -1e-3, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="learning_rate must be a "
                               "finite positive number"):
                nn.make_optimizer(kind, lr)


# -- layers ------------------------------------------------------------------------------


def test_layer_parameter_counts():
    rng = np.random.default_rng(12)
    conv = nn.TemporalConv(1, 8, (1, 16), "same", rng)
    assert conv.parameter_count() == 8 * 1 * 1 * 16
    dw = nn.DepthwiseConv(8, 2, (19, 1), "valid", rng)
    assert dw.parameter_count() == 8 * 2 * 19
    sep = nn.SeparableConv(16, 24, (1, 8), "same", rng)
    assert sep.parameter_count() == 16 * 8 + 24 * 16
    dense = nn.Dense(24, 2, rng)
    assert dense.parameter_count() == 24 * 2 + 2
    bn = nn.BatchNorm(8)
    assert bn.parameter_count() == 16


def test_batch_norm_layer_buffers_update():
    rng = np.random.default_rng(13)
    bn = nn.BatchNorm(3)
    x = Tensor(rng.standard_normal((4, 3, 2, 5)).astype(np.float32) + 1.0)
    bn(x, training=True)
    assert not np.allclose(bn.running_mean, 0.0)
    frozen = bn.running_mean.copy()
    bn(x, training=False)
    np.testing.assert_array_equal(bn.running_mean, frozen)


def test_dropout_layer_needs_rng_when_training():
    layer = nn.Dropout(0.5)
    with pytest.raises(ValueError):
        layer(Tensor(np.ones(4)), training=True, rng=None)


def test_glorot_bounds():
    rng = np.random.default_rng(14)
    w = nn.glorot_uniform((100, 50), 50, 100, rng)
    limit = np.sqrt(6.0 / 150)
    assert np.all(np.abs(w) <= limit)
    assert w.dtype == np.float32
