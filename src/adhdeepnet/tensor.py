"""Minimal n-dimensional tensors with reverse-mode automatic differentiation.

Covers exactly the operations the EEG classifier needs: dense matmul,
2-D/depthwise/separable convolution, batch normalization, ELU/ReLU/sigmoid/
softmax, average and global-average pooling, dropout, and the reductions
used by the loss. Data is float32 by default (float64 supported, e.g. for
finite-difference checks); reductions accumulate in float64.

The computation graph is rebuilt on every forward pass (define-by-run):
each op returns a new Tensor holding a backward closure plus references to
its parents. ``backward()`` on a scalar tensor walks the graph once in
reverse topological order and accumulates gradients on every tensor that
requires them. Inside ``no_grad()`` no graph is recorded at all: every op
returns a leaf with no parents, no backward closure and
``requires_grad=False``, so an inference pass keeps none of the
intermediates that only the backward pass would read.

All convolutions share one primitive that correlates along time by rFFT
and contracts channels and height taps in one einsum; one-sample-wide
kernels skip the transform. The network's first block (temporal conv,
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
import math
import struct
import warnings

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import fft as sfft


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (non-scalar backward, repeated backward)."""


_grad_enabled = True


def grad_enabled():
    """False inside ``no_grad()``."""
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block (nestable; the previous state
    returns on exit, also when the block raises)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _as_array(data, dtype):
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An n-d float array, an optional gradient, and a place in the graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

    # -- construction of graph nodes -------------------------------------

    @staticmethod
    def _from_op(data, parents, backward_fn):
        out = Tensor(data)
        out.requires_grad = _grad_enabled and any(p.requires_grad
                                                  for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

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

    def zero_grad(self):
        self.grad = None
        self._backward_done = False

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _ensure_tensor(other, self.dtype))

    def __radd__(self, other):
        return add(_ensure_tensor(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _ensure_tensor(other, self.dtype))

    def __rsub__(self, other):
        return sub(_ensure_tensor(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _ensure_tensor(other, self.dtype))

    def __rmul__(self, other):
        return mul(_ensure_tensor(other, self.dtype), self)

    def __truediv__(self, scalar):
        return mul(self, _ensure_tensor(1.0 / float(scalar), self.dtype))

    def __neg__(self):
        return mul(self, _ensure_tensor(-1.0, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    # -- backward ------------------------------------------------------------

    def backward(self):
        """Populate ``grad`` on every requires_grad tensor reachable from here.

        The tensor must be scalar. A second call on the same graph without
        resetting (``zero_grad`` on the loss) raises.
        """
        if self.size != 1:
            raise GraphError(
                f"backward() requires a scalar tensor, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward() on a tensor with no graph attached")
        if self._backward_done:
            raise GraphError("backward() called twice on the same graph; "
                             "reset with zero_grad() and rebuild the forward pass")
        self._backward_done = True

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.grad is None:
                node.grad = g.copy() if node._backward_fn is None else g
            else:
                node.grad = node.grad + g
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(g)
            for parent, pg in zip(node._parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                pg = pg.astype(parent.data.dtype, copy=False)
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


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


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor._from_op(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.shape),
                _unbroadcast(g * a.data, b.shape))

    return Tensor._from_op(out, (a, b), backward)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul needs [m,k] x [k,n], got {a.shape} x {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor._from_op(out, (a, b), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Dense layer y = x @ W^T + b with W of shape [out, in]."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"linear needs x [n,in] and weight [out,in], got {x.shape} and "
            f"{weight.shape}")
    out = x.data @ weight.data.T + bias.data

    def backward(g):
        return g @ weight.data, g.T @ x.data, g.sum(axis=0)

    return Tensor._from_op(out, (x, weight, bias), backward)


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

    def backward(g):
        return (np.broadcast_to(g, t.shape),)

    return Tensor._from_op(np.asarray(out), (t,), backward)


def tmean(t: Tensor) -> Tensor:
    out = t.data.mean(dtype=np.float64).astype(t.dtype)
    n = t.size

    def backward(g):
        return (np.broadcast_to(g / n, t.shape).astype(t.dtype),)

    return Tensor._from_op(np.asarray(out), (t,), backward)


# -- activations ----------------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    out = np.maximum(t.data, 0)

    def backward(g):
        return (g * (t.data > 0),)

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


def _softmax_data(x, axis):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted, dtype=np.float64)
    return (e / e.sum(axis=axis, keepdims=True)).astype(x.dtype)


def softmax(t: Tensor, axis=-1) -> Tensor:
    out = _softmax_data(t.data, axis)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._from_op(out, (t,), backward)


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


def _contract(a_sub, b_sub, out_sub, a, b):
    # numpy's optimizer runs a plain matrix product on BLAS and a plain
    # broadcast product fast, but for a sum along labels batched across both
    # operands it copies both into matmul layout: the C loop is faster there
    extent = dict(zip(a_sub + b_sub, a.shape + b.shape))
    batched = set(a_sub) & set(b_sub) & set(out_sub)
    summed = any(extent[label] > 1
                 for label in set(a_sub + b_sub) - set(out_sub))
    return np.einsum(f"{a_sub},{b_sub}->{out_sub}", a, b,
                     optimize=not (batched and summed))


def _time_conv(x, kernel, padding, spec):
    """Cross-correlation over height taps and time, shared by every conv op.

    ``spec`` is the einsum for one output element. Input windows are indexed
    (..., output row h, height tap a, time w), the kernel (..., a, w) and
    the output (..., h, w); a full convolution is ``"nchaw,fcaw->nfhw"``.
    The output is returned as [N, -1, H', W'].

    Along time the correlation runs in the rFFT domain (Mathieu, Henaff &
    LeCun, arXiv:1312.5851). The padded input is transformed at a length no
    shorter than its padded span, so nothing wraps, contracted with the
    conjugate kernel spectrum and transformed back. A kernel one sample
    wide skips the transform and the same contraction runs on real data.

    Backward recomputes the spectra rather than keeping them on the tape.
    The kernel gradient is irfft(X conj(G)) cut to the kernel width. The
    input gradient is irfft(G K) over the padded span, each height tap's
    rows added in at its offset; it is computed only when x requires a
    gradient.
    """
    n, c, h, w = x.shape
    kh, kw = kernel.shape[2:]
    ph, pw, ho, wo = _conv_geometry(h, w, kh, kw, padding)
    x_sub, k_sub, o_sub = spec.replace("->", ",").split(",")
    if kw == 1:
        k_sub = k_sub.replace("w", "")
        nfft = None
    else:
        nfft = sfft.next_fast_len(w + pw[0] + pw[1], real=True)

    def spectrum(a):
        return a if nfft is None else sfft.rfft(a, n=nfft, axis=-1)

    def taps():
        return kernel.data[..., 0] if nfft is None else spectrum(kernel.data)

    def x_windows():  # read-only [N, C, H', kh, time] view of the padded x
        xp = x.data
        if any(ph) or pw[0]:
            # the right time padding is the zero tail the transform adds
            xp = np.pad(xp, ((0, 0), (0, 0), ph, (pw[0], 0)))
        xp = spectrum(xp)
        st = xp.strides
        return as_strided(xp, (n, c, ho, kh, xp.shape[-1]),
                          (*st[:3], st[2], st[3]), writeable=False)

    grouped = _contract(x_sub, k_sub, o_sub, x_windows(), taps().conj())
    if nfft is not None:
        grouped = sfft.irfft(grouped, n=nfft, axis=-1)[..., :wo]
    grouped_shape = grouped.shape
    # a compact copy, so the tape holds the output, not the transform buffer
    out = np.ascontiguousarray(grouped).reshape(n, -1, ho, wo)

    def backward(g):
        gs = spectrum(g.reshape(grouped_shape))
        # sum X conj(G) = conj(sum conj(X) G); in the model the x spectrum
        # is never the larger operand, so conjugating it copies less
        dk = _contract(x_sub, o_sub, k_sub, x_windows().conj(), gs).conj()
        if nfft is None:
            dk = dk[..., None]
        else:
            dk = sfft.irfft(dk, n=nfft, axis=-1)[..., :kw]
        if not x.requires_grad:
            return None, dk
        rows = _contract(o_sub, k_sub, x_sub, gs, taps())
        if ho == 1 or kh == 1:  # no two taps reach the same input row
            dxp = rows.reshape(n, c, -1, rows.shape[-1])
        else:
            dxp = np.zeros((n, c, h + ph[0] + ph[1], rows.shape[-1]),
                           rows.dtype)
            for a in range(kh):
                dxp[:, :, a:a + ho] += rows[:, :, :, a]
        if nfft is not None:
            dxp = sfft.irfft(dxp, n=nfft, axis=-1)
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
    return _time_conv(x, kernel, padding, "nchaw,fcaw->nfhw")


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
    return _time_conv(x, kernel, padding, "nchaw,cdaw->ncdhw")


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


def _update_running(running_mean, running_var, mean, var, momentum):
    """Move the running statistics toward a batch's, in place (EMA)."""
    running_mean *= (1.0 - momentum)
    running_mean += momentum * mean.astype(running_mean.dtype)
    running_var *= (1.0 - momentum)
    running_var += momentum * var.astype(running_var.dtype)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean,
               running_var, training, momentum=0.1, eps=1e-5) -> Tensor:
    """Per-channel batch normalization over [N,C,H,W].

    Training mode normalizes by batch statistics and updates the running
    arrays in place by exponential moving average; inference mode uses the
    running statistics.
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
        _update_running(running_mean, running_var, mean, var, momentum)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)

    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)[:, None, None]
    mean = mean.astype(x.dtype)
    xhat = x.data - mean[:, None, None]
    xhat *= inv_std
    out = gamma.data[:, None, None] * xhat
    out += beta.data[:, None, None]

    def backward(g):
        prod = g * xhat
        dgamma = prod.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        dx = g * gamma.data[:, None, None]  # dL/dxhat, turned into dL/dx
        if training:
            # d/dx of ((x - mu) / sigma): mean and variance depend on x;
            # dx = inv_std * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
            t2 = dx.mean(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
            np.multiply(dx, xhat, out=prod)
            t3 = prod.mean(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
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
    xp = np.pad(rows.astype(np.float64), ((0, 0), pw))
    length = xp.shape[1]
    count = xp.shape[0] * wo
    taps = np.arange(kw)
    prefix = np.concatenate(([0.0], np.cumsum(xp.sum(axis=0))))
    m = (prefix[taps + wo] - prefix[taps]) / count
    # kw zero columns give every diagonal the full length of the rows
    gram = np.zeros((length, length + kw))
    gram[:, :length] = xp.T @ xp
    s0, s1 = gram.strides
    diagonals = as_strided(gram, (kw, length), (s1, s0 + s1))  # [b-a, t]
    prefix = np.zeros((kw, length + 1))
    np.cumsum(diagonals, axis=1, out=prefix[:, 1:])
    start = np.minimum.outer(taps, taps)
    lag = np.abs(np.subtract.outer(taps, taps))
    return m, (prefix[lag, start + wo] - prefix[lag, start]) / count


def spatial_first_stem(x: Tensor, kernel: Tensor, gamma: Tensor,
                       beta: Tensor, running_mean, running_var,
                       spatial: Tensor, training, padding="same",
                       momentum=0.1, eps=1e-5) -> Tensor:
    """conv2d(x, kernel) -> batch_norm -> depthwise_conv2d(spatial), fused.

    x [N,1,E,W], temporal kernel [F,1,1,K], spatial kernel [F,D,E,1]
    (valid, full height) -> [N,F*D,1,W'], as the three ops give it, but
    the [N,F,E,W'] temporal-conv output is never built. Both convolutions
    are linear and act on different axes, so the spatial contraction runs
    first, v[n,f,d] = sum_e spatial[f,d,e] x[n,e], then each (f, d) row is
    correlated with k_f, u = k_f * v, and batch norm passes through the
    spatial sum S[f,d] = sum_e spatial[f,d,e] as a scale and a shift:
    out = a_f (u - mu_f S[f,d]) + beta_f S[f,d], where
    a_f = gamma_f / sqrt(var_f + eps).

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
        _update_running(running_mean, running_var, mean, var, momentum)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma.data * inv_std
    offset = beta.data - scale * mean
    s = spatial.data.sum(axis=(2, 3), dtype=np.float64)
    out = u.data * scale.astype(u.dtype)[:, None, None]
    out += (offset[:, None] * s).astype(u.dtype)[:, :, None]

    def backward(g):
        gsum = g.sum(axis=(0, 3), dtype=np.float64)  # [F, D]
        gs = (gsum * s).sum(axis=1)
        dscale = (g * u.data).sum(axis=(0, 2, 3), dtype=np.float64) \
            - mean * gs
        dspatial = np.broadcast_to((offset[:, None] * gsum)[..., None, None],
                                   spatial.shape)
        dk = None
        if training:
            dmean = -scale * gs
            dvar = dscale * gamma.data * (-0.5 * inv_std ** 3)
            dk = ((dmean - 2.0 * dvar * mean)[:, None] * m
                  + 2.0 * dvar[:, None] * gk).reshape(kernel.shape)
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

    def backward(g):
        dxp = np.zeros((n, c, hp, wp), x.dtype)
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

    def backward(g):
        return (np.broadcast_to(g * scale, x.shape),)

    return Tensor._from_op(out, (x,), backward)


# -- regularization -------------------------------------------------------------------


def dropout(x: Tensor, rate, training, rng) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        def backward_id(g):
            return (g,)
        return Tensor._from_op(x.data, (x,), backward_id)

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
