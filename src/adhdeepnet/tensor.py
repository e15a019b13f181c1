"""Minimal n-dimensional tensors with reverse-mode automatic differentiation.

Covers exactly the operations the EEG classifier runs: dense layers,
2-D/depthwise/separable convolution, batch normalization, ELU/ReLU/sigmoid,
average and global-average pooling, dropout, and the log-softmax, product
and sum of the loss. ``softmax`` is a plain array function, for the class
probabilities of an inference pass, and records nothing. Data is float32
by default (float64 supported, e.g. for finite-difference checks);
reductions accumulate in float64.

The computation graph is rebuilt on every forward pass (define-by-run)
and holds nodes, not values: each op returns a new Tensor that points to
a small graph node, which keeps the op's backward closure and its
parents' nodes (a leaf parent, such as a parameter or an input, is kept
as the Tensor itself). A backward closure keeps only the arrays, shapes
and dtypes it reads, never an input Tensor, so an op output lives only
as long as the caller or a closure that reads it: one that no backward
reads is freed as soon as the forward pass moves past it.
``backward()`` on a scalar tensor walks the nodes once in reverse
topological order and accumulates gradients on the leaves that require
them (parameters and inputs); intermediate tensors keep no ``grad``. The
walk releases the graph as it goes: each node drops its parents and its
backward closure, with the arrays the closure saved, as soon as it has
passed its gradient on, so a training step's saved arrays are freed
during its backward pass, and a walked graph cannot be walked again.
Inside ``no_grad()`` no graph is recorded at all: every op returns a
leaf with no node and ``requires_grad=False``, so an inference pass keeps
none of the intermediates that only the backward pass would read. The
grad-off state belongs to the thread that entered ``no_grad()``: another
thread may train meanwhile.

All convolutions share one primitive. A one-sample-wide kernel mixes
channels and height taps as one BLAS matrix product per channel group; a
wider one correlates along time by rFFT, as a broadcast product with the
kernel spectrum. The network's first block (temporal conv,
batch norm, spatial depthwise conv) runs as one op, ``spatial_first_stem``:
spatial contraction first, then the temporal correlation, with the batch
statistics taken from the input's lag moments. Both reorder float sums, so
results differ from a direct sum in the last float bits, while a given
version of the code still reproduces its own results bit for bit, and
replay at ``--workers 1`` stays byte-identical.

Ops may compute in place, but only into arrays they allocated themselves.
They never write into an input's ``data``, a parameter, a running
statistic other than by its documented update, the upstream gradient
``g``, or any array that another tape node or a backward closure holds:
an array an op returns or keeps may be shared, and a returned gradient
may be a read-only broadcast view.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import struct
import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import fft as sfft


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (non-scalar backward, a backward over a
    graph that an earlier backward released)."""


# per thread (and per context), so one thread's inference never stops the
# graph of another that is training
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


def grad_enabled():
    """False inside ``no_grad()``, in the thread that entered it."""
    return _grad_enabled.get()


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block, in this thread only (nestable; the
    previous state returns on exit, also when the block raises)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _as_array(data, dtype):
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class _Node:
    """An op's place in the graph: its backward closure, its parents' nodes
    (or the parent Tensor itself, for a leaf) and its output's dtype."""

    __slots__ = ("_parents", "_backward_fn", "dtype")
    requires_grad = True  # a node exists only where a gradient is needed

    def __init__(self, parents, backward_fn, dtype):
        self._parents = parents
        self._backward_fn = backward_fn
        self.dtype = dtype


class Tensor:
    """An n-d float array, an optional gradient, and a place in the graph."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _from_op(data, parents, backward_fn):
        """A Tensor over ``data`` whose node records ``backward_fn`` and the
        parents' nodes, when grad is on and some parent requires it.

        The node keeps no parent's ``data``: an array lives only as long as
        the caller holds it or a backward closure reads it, so
        ``backward_fn`` must capture the arrays, shapes and dtypes it
        needs, never an input Tensor.
        """
        out = Tensor(data)
        out.requires_grad = _grad_enabled.get() and any(
            p.requires_grad for p in parents)
        if out.requires_grad:
            out._node = _Node(
                tuple(p if p._node is None else p._node for p in parents),
                backward_fn, out.data.dtype)
        return out

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    # -- basic introspection ----------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __mul__(self, other):
        return mul(self, _ensure_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_ensure_tensor(other, self.dtype), self)

    def __neg__(self):
        return mul(self, _ensure_tensor(-1.0, self.dtype))

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self):
        return tsum(self)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Accumulate ``grad`` on every leaf reachable from here.

        The tensor must be scalar. Leaves are the tensors without a backward
        function, such as parameters; intermediate tensors and the root get
        no ``grad``. The walk releases the graph as it goes: once a node has
        passed its gradient on, it drops its parents and its backward
        closure with the arrays that closure saved. A second backward over
        any node of a walked graph raises ``GraphError``; the forward pass
        must be run again.
        """
        if self.size != 1:
            raise GraphError(
                f"backward() requires a scalar tensor, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward() on a tensor with no graph attached")

        # the walk visits nodes and leaf Tensors; a leaf has no backward
        # function, and only a leaf takes a ``grad``
        root = self if self._node is None else self._node
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._backward_fn is _released:
                _released()  # raises before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads = {id(root): np.ones_like(self.data)}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            if node._backward_fn is None:
                if g is not None:
                    node.grad = g.copy() if node.grad is None \
                        else node.grad + g
                continue
            parents = node._parents
            parent_grads = () if g is None else node._backward_fn(g)
            node._parents = ()
            node._backward_fn = _released
            for parent, pg in zip(parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                pg = pg.astype(parent.dtype, copy=False)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _released(*_):
    """The backward function of a node that a backward walk has passed."""
    raise GraphError("backward() reached a graph that an earlier backward() "
                     "released; run the forward pass again")


def _ensure_tensor(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    out = ad * bd

    def backward(g):
        return (_unbroadcast(g * bd, ad.shape),
                _unbroadcast(g * ad, bd.shape))

    return Tensor._from_op(out, (a, b), backward)


# -- linear algebra -----------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Dense layer y = x @ W^T (+ b) with W of shape [out, in].

    The forward takes one matrix product per row, so a row's output does
    not depend on how many rows share the call: a single GEMM over all
    rows lets BLAS pick its kernel, and so its rounding, by the row count.
    The backward's products stay whole GEMMs.
    """
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear needs x [n,in] and weight [out,in], got {x.shape} and "
            f"{weight.shape}")
    xd, wd = x.data, weight.data
    with_bias = bias is not None
    out = np.matmul(xd[:, None, :], wd.T)[:, 0]
    if with_bias:
        out += bias.data

    def backward(g):
        grads = g @ wd, g.T @ xd
        return grads + (g.sum(axis=0),) if with_bias else grads

    parents = (x, weight, bias) if with_bias else (x, weight)
    return Tensor._from_op(out, parents, backward)


# -- shape manipulation --------------------------------------------------------


def reshape(t: Tensor, shape) -> Tensor:
    out = t.data.reshape(shape)
    old = t.shape

    def backward(g):
        return (g.reshape(old),)

    return Tensor._from_op(out, (t,), backward)


def concat(tensors, axis=1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    return Tensor._from_op(out, tuple(tensors), backward)


# -- reductions (float64 accumulation) -----------------------------------------


def tsum(t: Tensor) -> Tensor:
    out = t.data.sum(dtype=np.float64).astype(t.dtype)
    shape = t.shape

    def backward(g):
        return (np.broadcast_to(g, shape),)

    return Tensor._from_op(np.asarray(out), (t,), backward)


# -- activations ----------------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    x = t.data
    out = np.maximum(x, 0)

    def backward(g):
        return (g * (x > 0),)

    return Tensor._from_op(out, (t,), backward)


def elu(t: Tensor) -> Tensor:
    # expm1(x) >= x for every x <= 0, so the larger of the two is x where
    # x >= 0 and expm1(x) elsewhere; NaN, +-0 and +-inf come out unchanged
    neg = np.minimum(t.data, 0)
    np.expm1(neg, out=neg)
    out = np.maximum(neg, t.data)

    def backward(g):
        return (g * (neg + 1),)  # expm1(0) + 1 is exactly 1 where x >= 0

    return Tensor._from_op(out, (t,), backward)


def sigmoid(t: Tensor) -> Tensor:
    out = np.empty_like(t.data)
    pos = t.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t.data[pos]))
    e = np.exp(t.data[~pos])
    out[~pos] = e / (1.0 + e)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (t,), backward)


def softmax(x, axis=-1):
    """Probabilities of an array of logits along ``axis``, summed in
    float64 and returned in the logits' dtype; records no graph."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted, dtype=np.float64)
    return (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype)


def log_softmax(t: Tensor, axis=-1) -> Tensor:
    shifted = t.data - t.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted, dtype=np.float64).sum(axis=axis, keepdims=True))
    out = (shifted - lse).astype(t.dtype)

    def backward(g):
        soft = np.exp(out)
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out, (t,), backward)


# -- convolution ------------------------------------------------------------------


def _same_pad(k):
    lo = (k - 1) // 2
    return lo, (k - 1) - lo  # extra row/column goes on the high side


def _conv_geometry(h, w, kh, kw, padding):
    if padding == "same":
        ph, pw = _same_pad(kh), _same_pad(kw)
    elif padding == "valid":
        ph = pw = (0, 0)
    else:
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    ho = h + ph[0] + ph[1] - kh + 1
    wo = w + pw[0] + pw[1] - kw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h}x{w} ({padding})")
    return ph, pw, ho, wo


def _padded_spectrum(a, ph, pw, nfft):
    """[N,C,H,W] ``a``, padded by ``ph`` rows and ``pw[0]`` leading samples
    into one zeroed buffer ``nfft`` long, rFFT'd without a further copy
    (``nfft`` None: not transformed, and not copied unless padded)."""
    n, c, h, w = a.shape
    if any(ph) or (nfft or w) > w:
        buf = np.zeros((n, c, h + sum(ph), nfft or w), a.dtype)
        buf[:, :, ph[0]:ph[0] + h, pw[0]:pw[0] + w] = a
        a = buf
    return a if nfft is None else sfft.rfft(a, axis=-1)


def _squeeze_sum(a, axis):
    return a.sum(axis=axis) if a.shape[axis] > 1 else np.squeeze(a, axis)


def _time_conv(x, kernel, padding, groups):
    """Cross-correlation over height taps and time, shared by every conv op.

    The C input channels form ``groups`` groups, each mixed into its own
    share of the outputs: conv2d is one group, a depthwise conv C groups of
    one channel. The kernel reads as [G, F/G, C/G*kh] and the input windows
    as [N, G, C/G*kh, H', T], a free view when kh == 1, H' == 1 or
    C/G == 1 and an im2col copy otherwise.

    A kernel one sample wide runs as one matrix product per group over
    rows of T = W samples. A wider one correlates along time by rFFT
    (Mathieu, Henaff & LeCun, arXiv:1312.5851) at a length no shorter than
    the padded span, so nothing wraps: a broadcast product with the
    conjugate kernel spectrum at each of T frequencies, summed over a
    group's (channel, tap) pairs only when it has more than one.

    The backward closure keeps both spectra; under ``no_grad()`` it is
    dropped and they with it. The kernel gradient is sum X conj(G). The
    input gradient, sum G K with each height tap's rows added in at its
    offset, is computed only when x requires a gradient.
    """
    n, c, h, w = x.shape
    kh, kw = kernel.shape[2:]
    ph, pw, ho, wo = _conv_geometry(h, w, kh, kw, padding)
    nfft = None if kw == 1 else sfft.next_fast_len(w + sum(pw), real=True)
    xs = _padded_spectrum(x.data, ph, pw, nfft)
    t, ck = xs.shape[3], c // groups * kh
    st = xs.strides
    xw = as_strided(xs, (n, c, kh, ho, t), (*st[:3], st[2], st[3]),
                    writeable=False).reshape(n, groups, ck, ho, t)
    if nfft is None:
        ks = kernel.data.reshape(groups, -1, ck)
        xw = xw.reshape(n, groups, ck, ho * t)
        grouped = np.matmul(ks, xw)
    else:
        ks = sfft.rfft(kernel.data, nfft).reshape(groups, -1, ck, 1, t)
        xw = xw[:, :, None]  # [N, G, 1, C/G*kh, H', T]
        grouped = sfft.irfft(_squeeze_sum(xw * ks.conj(), 3), nfft)[..., :wo]
    # a compact copy, so whoever holds the output holds no transform buffer
    out = np.ascontiguousarray(grouped).reshape(n, -1, ho, wo)
    needs_dx, kshape = x.requires_grad, kernel.shape

    def backward(g):
        if nfft is None:
            gs = g.reshape(n, groups, -1, ho * t)
            dk = np.matmul(gs, xw.swapaxes(2, 3)).sum(axis=0)
            rows = np.matmul(ks.swapaxes(1, 2), gs) if needs_dx else None
        else:
            gs = sfft.rfft(g, nfft).reshape(n, groups, -1, 1, ho, t)
            rows = _squeeze_sum(gs * ks, 2) if needs_dx else None
            dk = (xw * np.conjugate(gs, out=gs)).sum(axis=(0, 4))
            dk = sfft.irfft(dk, nfft)[..., :kw]
        dk = dk.reshape(kshape)
        if rows is None:
            return None, dk
        rows = rows.reshape(n, c, kh, ho, t)
        if ho == 1 or kh == 1:  # no two taps reach the same input row
            dxp = rows.reshape(n, c, -1, t)
        else:
            dxp = np.zeros((n, c, h + sum(ph), t), rows.dtype)
            for a in range(kh):
                dxp[:, :, a:a + ho] += rows[:, :, a]
        if nfft is not None:
            dxp = sfft.irfft(dxp, nfft)
        return dxp[:, :, ph[0]:ph[0] + h, pw[0]:pw[0] + w], dk

    return Tensor._from_op(out, (x, kernel), backward)


def conv2d(x: Tensor, kernel: Tensor, padding="valid") -> Tensor:
    """Cross-correlation of x [N,C,H,W] with kernel [F,C,kh,kw]."""
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d needs 4-d input and kernel, got {x.shape} and {kernel.shape}")
    c, ck = x.shape[1], kernel.shape[1]
    if ck != c:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c} channels, kernel expects {ck}")
    return _time_conv(x, kernel, padding, 1)


def depthwise_conv2d(x: Tensor, kernel: Tensor, padding="valid") -> Tensor:
    """Per-channel convolution: x [N,C,H,W], kernel [C,D,kh,kw] -> [N,C*D,H',W'].

    Input channel c convolves only with kernels of group c; output channels
    are channel-major (c*D + d).
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(
            f"depthwise_conv2d needs 4-d input and kernel, got {x.shape} and "
            f"{kernel.shape}")
    c, ck = x.shape[1], kernel.shape[0]
    if ck != c:
        raise ShapeError(
            f"depthwise_conv2d channel mismatch: input has {c} channels, "
            f"kernel has {ck} groups")
    return _time_conv(x, kernel, padding, c)


def separable_conv2d(x: Tensor, depth_kernel: Tensor, point_kernel: Tensor,
                     padding="same") -> Tensor:
    """Depthwise convolution followed by a pointwise (1x1) convolution."""
    c, d = depth_kernel.shape[0], depth_kernel.shape[1]
    if point_kernel.shape[1] != c * d:
        raise ShapeError(
            f"separable_conv2d chain mismatch: depthwise produces {c * d} "
            f"channels, pointwise expects {point_kernel.shape[1]}")
    mid = depthwise_conv2d(x, depth_kernel, padding=padding)
    return conv2d(mid, point_kernel, padding="valid")


# -- normalization -----------------------------------------------------------------


BN_MOMENTUM = 0.1  # weight of a training batch's statistics in the EMA
BN_EPS = 1e-5  # added to every variance before its square root


def _update_running(running_mean, running_var, mean, var):
    """Move the running statistics toward a batch's, in place (EMA)."""
    running_mean *= (1.0 - BN_MOMENTUM)
    running_mean += BN_MOMENTUM * mean.astype(running_mean.dtype)
    running_var *= (1.0 - BN_MOMENTUM)
    running_var += BN_MOMENTUM * var.astype(running_var.dtype)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean,
               running_var, training) -> Tensor:
    """Per-channel batch normalization over [N,C,H,W].

    Training mode normalizes by batch statistics and updates the running
    arrays in place by exponential moving average (``BN_MOMENTUM``);
    inference mode uses the running statistics.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects [N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    if n == 0:
        raise ValueError("batch_norm on an empty batch")
    if gamma.size != c or beta.size != c:
        raise ShapeError(
            f"batch_norm gamma/beta must have length {c}, got "
            f"{gamma.size}/{beta.size}")

    if training:
        mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.data.var(axis=(0, 2, 3), dtype=np.float64)
        _update_running(running_mean, running_var, mean, var)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype)[:, None, None]
    mean = mean.astype(x.dtype)
    xhat = x.data - mean[:, None, None]
    xhat *= inv_std
    scale = gamma.data[:, None, None]
    out = scale * xhat
    out += beta.data[:, None, None]
    dtype = x.dtype

    def backward(g):
        prod = g * xhat
        dgamma = prod.sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
        dx = g * scale  # dL/dxhat, turned into dL/dx
        if training:
            # d/dx of ((x - mu) / sigma): mean and variance depend on x;
            # dx = inv_std * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
            t2 = dx.mean(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
            np.multiply(dx, xhat, out=prod)
            t3 = prod.mean(axis=(0, 2, 3), dtype=np.float64).astype(dtype)
            dx -= t2[:, None, None]
            dx -= np.multiply(xhat, t3[:, None, None], out=prod)
        dx *= inv_std
        return dx, dgamma, dbeta

    return Tensor._from_op(out, (x, gamma, beta), backward)


def _lag_moments(rows, kw, pw, wo):
    """First and second moments of a kw-tap window over padded rows.

    ``rows`` is [R, W]; output t of a row reads taps xpad[t + a], a < kw,
    of the row zero-padded by ``pw``, for t < wo. Returns, in float64, the
    K-vector m[a] = mean of xpad[t + a] and the KxK matrix
    G[a, b] = mean of xpad[t + a] * xpad[t + b], both over rows and t.
    G[a, b] sums the Gram of the padded rows along its diagonal b - a for
    wo steps from (a, b); prefix sums along the diagonals give every entry.
    """
    r, w = rows.shape
    length = pw[0] + w + pw[1]
    xp = np.zeros((r, length))
    xp[:, pw[0]:pw[0] + w] = rows
    count = r * wo
    taps = np.arange(kw)
    prefix = np.concatenate(([0.0], np.cumsum(xp.sum(axis=0))))
    m = (prefix[taps + wo] - prefix[taps]) / count
    # kw zero columns give every diagonal the full length of the rows
    gram = np.empty((length, length + kw))
    gram[:, length:] = 0.0
    np.matmul(xp.T, xp, out=gram[:, :length])
    s0, s1 = gram.strides
    diagonals = as_strided(gram, (kw, length), (s1, s0 + s1))  # [b-a, t]
    prefix = np.zeros((kw, length + 1))
    np.cumsum(diagonals, axis=1, out=prefix[:, 1:])
    start = np.minimum.outer(taps, taps)
    lag = np.abs(np.subtract.outer(taps, taps))
    return m, (prefix[lag, start + wo] - prefix[lag, start]) / count


def spatial_first_stem(x: Tensor, kernel: Tensor, gamma: Tensor,
                       beta: Tensor, running_mean, running_var,
                       spatial: Tensor, training, padding="same") -> Tensor:
    """conv2d(x, kernel) -> batch_norm -> depthwise_conv2d(spatial), fused.

    x [N,1,E,W], temporal kernel [F,1,1,K], spatial kernel [F,D,E,1]
    (valid, full height) -> [N,F*D,1,W'], as the three ops give it, but
    the [N,F,E,W'] temporal-conv output is never built. Both convolutions
    are linear and act on different axes, so the spatial contraction runs
    first, v[n,f,d] = sum_e spatial[f,d,e] x[n,e], then each (f, d) row is
    correlated with k_f, u = k_f * v, and batch norm passes through the
    spatial sum S[f,d] = sum_e spatial[f,d,e] as a scale and a shift:
    out = a_f (u - mu_f S[f,d]) + beta_f S[f,d], where
    a_f = gamma_f / sqrt(var_f + BN_EPS).

    In training mode mu_f and the biased var_f of the temporal-conv output
    come from the input's lag moments (``_lag_moments``): mu_f = k_f . m
    and var_f = k_f' G k_f - mu_f^2, in float64; the running statistics
    update as in ``batch_norm``, and the kernel gradient gains
    dL/dmu_f m + dL/dvar_f (2 G k_f - 2 mu_f m). Those statistics depend
    on x, so training mode refuses an x that requires a gradient;
    inference mode passes the input gradient through the convolutions.
    """
    if x.ndim != 4 or kernel.ndim != 4 or spatial.ndim != 4:
        raise ShapeError(
            f"spatial_first_stem needs 4-d input and kernels, got {x.shape}, "
            f"{kernel.shape} and {spatial.shape}")
    n, c, e, w = x.shape
    f, d = spatial.shape[:2]
    kw = kernel.shape[3]
    if c != 1 or kernel.shape[:3] != (f, 1, 1) or spatial.shape[2:] != (e, 1):
        raise ShapeError(
            f"spatial_first_stem needs x [N,1,E,W], kernel [F,1,1,K] and "
            f"spatial [F,D,E,1], got {x.shape}, {kernel.shape} and "
            f"{spatial.shape}")
    if gamma.size != f or beta.size != f:
        raise ShapeError(
            f"batch_norm gamma/beta must have length {f}, got "
            f"{gamma.size}/{beta.size}")
    if n == 0:
        raise ValueError("batch_norm on an empty batch")
    if training and x.requires_grad:
        raise GraphError("spatial_first_stem in training mode takes its "
                         "batch statistics from the input, which must not "
                         "require a gradient")

    v = conv2d(x, reshape(spatial, (f * d, 1, e, 1)))
    u = depthwise_conv2d(reshape(v, (n, f, d, w)), kernel, padding)
    wo = u.shape[3]
    k = kernel.data.reshape(f, kw).astype(np.float64)
    if training:
        _, pw, _, _ = _conv_geometry(1, w, 1, kw, padding)
        m, gram = _lag_moments(x.data.reshape(n * e, w), kw, pw, wo)
        gk = k @ gram
        mean = k @ m
        var = np.maximum(np.einsum("fa,fa->f", gk, k) - mean * mean, 0.0)
        _update_running(running_mean, running_var, mean, var)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv_std
    offset = beta.data - scale * mean
    s = spatial.data.sum(axis=(2, 3), dtype=np.float64)
    ud, gd = u.data, gamma.data
    kshape, sshape = kernel.shape, spatial.shape
    out = ud * scale.astype(ud.dtype)[:, None, None]
    out += (offset[:, None] * s).astype(ud.dtype)[:, :, None]

    def backward(g):
        gsum = g.sum(axis=(0, 3), dtype=np.float64)  # [F, D]
        gs = (gsum * s).sum(axis=1)
        dscale = (g * ud).sum(axis=(0, 2, 3), dtype=np.float64) \
            - mean * gs
        dspatial = np.broadcast_to((offset[:, None] * gsum)[..., None, None],
                                   sshape)
        dk = None
        if training:
            dmean = -scale * gs
            dvar = dscale * gd * (-0.5 * inv_std ** 3)
            dk = ((dmean - 2.0 * dvar * mean)[:, None] * m
                  + 2.0 * dvar[:, None] * gk).reshape(kshape)
        return (g * scale.astype(g.dtype)[:, None, None], dk, dspatial,
                dscale * inv_std, gs)

    folded = Tensor._from_op(out, (u, kernel, spatial, gamma, beta), backward)
    return reshape(folded, (n, f * d, 1, wo))


# -- pooling ------------------------------------------------------------------------


def _pairwise_sum(terms):
    """Float64 sum of equally shaped arrays, added in numpy's pairwise order.

    That is the order in which ``np.add.reduce`` sums a contiguous run of
    terms: left to right below eight terms; else eight running sums, each
    over every eighth term, joined as a balanced tree and followed by the
    leftover terms; above 128 terms, the two halves are summed apart. The
    result is a new array, so in-place adds never reach a term.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(terms[:half])
        total += _pairwise_sum(terms[half:])
        return total
    if n == 1:
        return terms[0].astype(np.float64)
    if n < 8:
        total = np.add(terms[0], terms[1], dtype=np.float64)
        for term in terms[2:]:
            total += term
        return total
    body = n - n % 8
    sums = list(terms[:8])
    if body > 8:
        sums = [np.add(sums[j], terms[8 + j], dtype=np.float64)
                for j in range(8)]
        for i in range(16, body, 8):
            for j in range(8):
                sums[j] += terms[i + j]
    # ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
    pairs = [np.add(sums[j], sums[j + 1], dtype=np.float64)
             for j in range(0, 8, 2)]
    pairs[0] += pairs[1]
    pairs[2] += pairs[3]
    total = pairs[0]
    total += pairs[2]
    for term in terms[body:]:
        total += term
    return total


def avg_pool(x: Tensor, window=(1, 2), stride=None, padding="valid") -> Tensor:
    """Average pooling. Default 1x2 window halves the time axis.

    With the default valid padding an odd trailing extent is truncated and a
    warning is recorded. Same padding averages over the full window size
    (zero padding included in the divisor).

    Each window is summed in float64 from kh*kw shifted slices of the
    input: each window row in numpy's pairwise order, then the rows in
    turn, which is the order ``np.mean(..., dtype=np.float64)`` takes over
    a strided window view of a C-contiguous input.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool expects [N,C,H,W], got {x.shape}")
    kh, kw = window
    sh, sw = (kh, kw) if stride is None else stride
    n, c, h, w = x.shape

    if padding == "same":
        ph, pw = _same_pad(kh), _same_pad(kw)
    else:
        ph = pw = (0, 0)
        if h % sh or w % sw:
            warnings.warn(
                f"avg_pool truncating input {h}x{w} to a multiple of the "
                f"{sh}x{sw} stride", RuntimeWarning, stacklevel=2)
    xp = x.data
    if any(ph) or any(pw):
        xp = np.pad(xp, ((0, 0), (0, 0), ph, pw))
    hp, wp = xp.shape[2], xp.shape[3]
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"pool window {kh}x{kw} larger than input {h}x{w}")

    def tap(i, j):  # the input under window offset (i, j) of every output
        return xp[:, :, i:i + (ho - 1) * sh + 1:sh, j:j + (wo - 1) * sw + 1:sw]

    total = _pairwise_sum([tap(0, j) for j in range(kw)])
    for i in range(1, kh):
        total += _pairwise_sum([tap(i, j) for j in range(kw)])
    total /= kh * kw
    # a numpy sum starts from +0.0, so a window of -0.0 averages to +0.0
    out = np.add(total, 0.0, out=np.empty(total.shape, x.dtype))
    scale = 1.0 / (kh * kw)
    dtype = x.dtype

    def backward(g):
        dxp = np.zeros((n, c, hp, wp), dtype)
        gs = g * scale
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + ho * sh:sh, j:j + wo * sw:sw] += gs
        return (dxp[:, :, ph[0]:ph[0] + h, pw[0]:pw[0] + w],)

    return Tensor._from_op(out, (x,), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial extent per channel: [N,C,H,W] -> [N,C,1,1]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool expects [N,C,H,W], got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), dtype=np.float64).astype(x.dtype)
    out = out.reshape(n, c, 1, 1)
    scale = 1.0 / (h * w)
    shape = x.shape

    def backward(g):
        return (np.broadcast_to(g * scale, shape),)

    return Tensor._from_op(out, (x,), backward)


# -- regularization -------------------------------------------------------------------


def dropout(x: Tensor, rate, training, rng) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors.
    Outside training, or at rate 0, ``x`` itself comes back."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x

    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype)
    mask /= keep
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out, (x,), backward)


# -- weight serialization ---------------------------------------------------------------

_MAGIC = b"ADNW"
_VERSION = 1


def save_tensors(path, named_arrays):
    """Write named float32 arrays to the flat binary weight container."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        for name, arr in named_arrays.items():
            arr = np.asarray(arr, dtype=np.float32)  # 0-d rank preserved
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4").tobytes())


def load_tensors(path):
    """Read the weight container back into an ordered name->array dict.

    Every length read is checked against the bytes left, so a file that is
    cut short, corrupt or followed by trailing bytes raises ValueError
    naming the file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(count, what):
        nonlocal pos
        if count > len(raw) - pos:
            raise ValueError(
                f"{path}: weight file truncated: {what} needs {count} bytes "
                f"at offset {pos}, {len(raw) - pos} left")
        pos += count
        return raw[pos - count:pos]

    def uint(what):
        return struct.unpack("<I", take(4, what))[0]

    magic = raw[:4]
    if magic != _MAGIC:
        raise ValueError(f"{path}: not a weight file: bad magic {magic!r}")
    pos = 4
    version = uint("version")
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported weight file version {version}")
    out = {}
    while pos < len(raw):
        encoded = take(uint("name length"), "name")
        try:
            name = encoded.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(
                f"{path}: tensor name at offset {pos - len(encoded)} is not "
                f"UTF-8") from err
        if name in out:
            raise ValueError(f"{path}: tensor {name!r} stored twice")
        rank = uint(f"{name}: rank")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"{name}: shape"))
        payload = take(4 * math.prod(dims), f"{name}: data")
        try:
            data = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as err:  # e.g. a zero dim beside a huge one
            raise ValueError(
                f"{path}: tensor {name!r} has unusable shape {dims}") from err
        out[name] = data.astype(np.float32)
    return out
