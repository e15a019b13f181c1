"""Layers with named parameters, channel attention, loss, and optimizers.

Layers are thin stateful wrappers over the tensor ops: they own parameter
Tensors (and, for batch norm, running-statistic buffers) and expose a
uniform ``__call__(x, training, rng)``. Convolutions carry no bias terms;
normalization directly follows each one. The dense classifier keeps a bias.

The optimizers take only a learning rate; their other settings are class
constants: SGD momentum 0.9, Adam beta1 0.9, beta2 0.999 and eps 1e-8, and
RMSProp rho 0.9 and eps 1e-8. Batch norm's are ``tensor.BN_MOMENTUM`` and
``tensor.BN_EPS``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .tensor import ShapeError, Tensor


class MissingGradientError(RuntimeError):
    """An optimizer step found a parameter without a gradient."""


def glorot_uniform(shape, fan_in, fan_out, rng):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Layer:
    """Base: a kind tag, named parameter Tensors, named numpy buffers."""

    kind = "Layer"

    def params(self):
        return {}

    def buffers(self):
        """Non-trainable state saved alongside parameters."""
        return {}

    def parameter_count(self):
        return sum(int(np.prod(t.shape)) for t in self.params().values())

    def __call__(self, x, training=False, rng=None):
        raise NotImplementedError


class TemporalConv(Layer):
    """Full 2-D convolution, bias-free. Kernel [filters, in_channels, kh, kw]."""

    kind = "TemporalConv"

    def __init__(self, in_channels, filters, kernel, padding, rng):
        kh, kw = kernel
        fan_in = in_channels * kh * kw
        fan_out = filters * kh * kw
        self.kernel = Tensor(
            glorot_uniform((filters, in_channels, kh, kw), fan_in, fan_out,
                           rng), requires_grad=True)
        self.padding = padding

    def params(self):
        return {"kernel": self.kernel}

    def __call__(self, x, training=False, rng=None):
        return tz.conv2d(x, self.kernel, padding=self.padding)


class PointwiseConv(TemporalConv):
    """1x1 convolution: pure channel mixing."""

    kind = "PointwiseConv"

    def __init__(self, in_channels, filters, rng):
        super().__init__(in_channels, filters, (1, 1), "valid", rng)


class DepthwiseConv(Layer):
    """Per-channel convolution with depth multiplier D, bias-free."""

    kind = "DepthwiseConv"

    def __init__(self, in_channels, depth_multiplier, kernel, padding, rng):
        kh, kw = kernel
        fan_in = kh * kw
        fan_out = depth_multiplier * kh * kw
        self.kernel = Tensor(
            glorot_uniform((in_channels, depth_multiplier, kh, kw), fan_in,
                           fan_out, rng), requires_grad=True)
        self.padding = padding

    def params(self):
        return {"kernel": self.kernel}

    def __call__(self, x, training=False, rng=None):
        return tz.depthwise_conv2d(x, self.kernel, padding=self.padding)


class SeparableConv(Layer):
    """Depthwise (multiplier 1) then pointwise mixing, both bias-free."""

    kind = "SeparableConv"

    def __init__(self, in_channels, filters, kernel, padding, rng):
        kh, kw = kernel
        self.depth_kernel = Tensor(
            glorot_uniform((in_channels, 1, kh, kw), kh * kw, kh * kw, rng),
            requires_grad=True)
        self.point_kernel = Tensor(
            glorot_uniform((filters, in_channels, 1, 1), in_channels, filters,
                           rng), requires_grad=True)
        self.padding = padding

    def params(self):
        return {"depth_kernel": self.depth_kernel,
                "point_kernel": self.point_kernel}

    def __call__(self, x, training=False, rng=None):
        return tz.separable_conv2d(x, self.depth_kernel, self.point_kernel,
                                   padding=self.padding)


class BatchNorm(Layer):
    kind = "BatchNorm"

    def __init__(self, channels):
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean,
                "running_var": self.running_var}

    def __call__(self, x, training=False, rng=None):
        return tz.batch_norm(x, self.gamma, self.beta, self.running_mean,
                             self.running_var, training)


class Activation(Layer):
    """ELU, the network's one activation layer."""

    kind = "Activation"

    def __call__(self, x, training=False, rng=None):
        return tz.elu(x)


class AvgPool(Layer):
    kind = "AvgPool"

    def __init__(self, window=(1, 2), stride=None, padding="valid"):
        self.window = window
        self.stride = stride
        self.padding = padding

    def __call__(self, x, training=False, rng=None):
        return tz.avg_pool(x, window=self.window, stride=self.stride,
                           padding=self.padding)


class GlobalAvgPool(Layer):
    kind = "GlobalAvgPool"

    def __call__(self, x, training=False, rng=None):
        return tz.global_avg_pool(x)


class Dropout(Layer):
    kind = "Dropout"

    def __init__(self, rate):
        self.rate = rate

    def __call__(self, x, training=False, rng=None):
        if training and rng is None:
            raise ValueError("dropout in training mode needs an rng")
        return tz.dropout(x, self.rate, training, rng)


class Dense(Layer):
    """Fully connected layer with bias; weight shape [out, in]."""

    kind = "Dense"

    def __init__(self, in_features, out_features, rng):
        self.weight = Tensor(
            glorot_uniform((out_features, in_features), in_features,
                           out_features, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, np.float32),
                           requires_grad=True)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def __call__(self, x, training=False, rng=None):
        return tz.linear(x, self.weight, self.bias)


# -- squeeze-and-excitation ----------------------------------------------------


def se_squeeze(feature_map: Tensor) -> Tensor:
    """Channel descriptor: mean over the spatial extent, [N,C,H,W] -> [N,C]."""
    n, c = feature_map.shape[:2]
    return tz.reshape(tz.global_avg_pool(feature_map), (n, c))


def se_excite(s: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """Channel gates sigma(W2 . relu(W1 . s)), each in (0, 1)."""
    if w1.shape[1] != s.shape[1] or w2.shape[1] != w1.shape[0]:
        raise ShapeError(
            f"se_excite shape chain broken: s {s.shape}, W1 {w1.shape}, "
            f"W2 {w2.shape}")
    hidden = tz.relu(tz.linear(s, w1))
    return tz.sigmoid(tz.linear(hidden, w2))


def se_reweight(feature_map: Tensor, gates: Tensor) -> Tensor:
    """Scale each channel of the map by its gate: Y_c = gate_c * X_c."""
    n, c = gates.shape
    return feature_map * tz.reshape(gates, (n, c, 1, 1))


class SEBlock(Layer):
    """Squeeze-and-excitation channel attention with reduction ratio r."""

    kind = "SEBlock"

    def __init__(self, channels, ratio, rng):
        if channels % ratio != 0:
            raise ValueError(
                f"SE channels ({channels}) must be divisible by the "
                f"reduction ratio ({ratio})")
        mid = channels // ratio
        self.w1 = Tensor(glorot_uniform((mid, channels), channels, mid, rng),
                         requires_grad=True)
        self.w2 = Tensor(glorot_uniform((channels, mid), mid, channels, rng),
                         requires_grad=True)
        self.channels = channels
        self.ratio = ratio

    def params(self):
        return {"w1": self.w1, "w2": self.w2}

    def __call__(self, x, training=False, rng=None):
        gates = se_excite(se_squeeze(x), self.w1, self.w2)
        return se_reweight(x, gates)


# -- loss -------------------------------------------------------------------------


def cross_entropy_loss(logits: Tensor, labels: Tensor) -> Tensor:
    """Summed negative log-likelihood over the batch.

    ``labels`` must be one-hot rows. The result is the batch SUM of the
    per-sample losses (callers average if they want a mean).
    """
    if logits.shape != labels.shape:
        raise ShapeError(
            f"logits {logits.shape} and labels {labels.shape} must match")
    lab = labels.data
    if not (np.all((lab == 0) | (lab == 1))
            and np.all(lab.sum(axis=1) == 1)):
        raise ValueError("labels must be one-hot rows")
    return -(labels * tz.log_softmax(logits, axis=1)).sum()


# -- constraints ---------------------------------------------------------------------


def finite_positive(name, value):
    """``value`` as a float; ValueError naming ``name`` unless it is a
    finite positive number."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(
            f"{name} must be a finite positive number, got {value}")
    return value


def apply_max_norm(weight: Tensor, norm_rate: float) -> None:
    """Rescale rows of a dense weight whose L2 norm exceeds ``norm_rate``.

    In place; rows already within the bound are untouched, so the operation
    is idempotent.
    """
    norm_rate = finite_positive("norm_rate", norm_rate)
    w = weight.data
    norms = np.linalg.norm(w.astype(np.float64), axis=1)
    over = norms > norm_rate
    if over.any():
        w[over] *= (norm_rate / norms[over, None]).astype(w.dtype)


# -- optimizers -------------------------------------------------------------------------


class Optimizer:
    """Updates parameters in place from their accumulated gradients."""

    kind = "Optimizer"

    def __init__(self, learning_rate):
        self.learning_rate = finite_positive("learning_rate", learning_rate)
        self._state = {}

    def _slot(self, index, param, names):
        slot = self._state.get(index)
        if slot is None:
            slot = {n: np.zeros_like(param.data) for n in names}
            self._state[index] = slot
        return slot

    def step(self, params):
        for i, p in enumerate(params):
            if p.grad is None:
                raise MissingGradientError(
                    f"parameter {i} (shape {p.shape}) has no gradient; "
                    "run backward() before step()")
            self._update(i, p)

    def zero_grad(self, params):
        for p in params:
            p.grad = None

    def _update(self, index, param):
        raise NotImplementedError


class SGDMomentum(Optimizer):
    kind = "SGDMomentum"
    momentum = 0.9

    def _update(self, i, p):
        slot = self._slot(i, p, ("velocity",))
        v = slot["velocity"]
        v *= self.momentum
        v -= self.learning_rate * p.grad
        p.data += v


class Adam(Optimizer):
    kind = "Adam"
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate):
        super().__init__(learning_rate)
        self._t = {}

    def _update(self, i, p):
        slot = self._slot(i, p, ("m", "v"))
        t = self._t.get(i, 0) + 1
        self._t[i] = t
        m, v = slot["m"], slot["v"]
        g = p.grad
        m *= self.beta1
        m += (1 - self.beta1) * g
        v *= self.beta2
        v += (1 - self.beta2) * np.square(g)
        mhat = m / (1 - self.beta1 ** t)
        vhat = v / (1 - self.beta2 ** t)
        p.data -= (self.learning_rate * mhat
                   / (np.sqrt(vhat) + self.eps)).astype(p.data.dtype)


class RMSProp(Optimizer):
    kind = "RMSProp"
    rho, eps = 0.9, 1e-8

    def _update(self, i, p):
        slot = self._slot(i, p, ("sq",))
        sq = slot["sq"]
        g = p.grad
        sq *= self.rho
        sq += (1 - self.rho) * np.square(g)
        p.data -= (self.learning_rate * g
                   / (np.sqrt(sq) + self.eps)).astype(p.data.dtype)


OPTIMIZERS = {"Adam": Adam, "SGDMomentum": SGDMomentum, "RMSProp": RMSProp}


def make_optimizer(kind, learning_rate):
    try:
        cls = OPTIMIZERS[kind]
    except KeyError:
        raise ValueError(f"unknown optimizer kind {kind!r}; "
                         f"choose from {sorted(OPTIMIZERS)}") from None
    return cls(learning_rate)
