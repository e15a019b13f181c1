"""Shared numerical oracles for the test suite."""

from itertools import product

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from scipy.stats import qmc

from adhdeepnet.optimize import (GaussianProcess, expected_improvement,
                                 _matern52)
from adhdeepnet.tensor import Tensor, grad_enabled


@pytest.fixture(autouse=True)
def _gradients_enabled_around_every_test():
    """A grad-off state leaked by one test would leave every later
    training step without a graph."""
    assert grad_enabled(), "gradients were off when the test started"
    yield
    assert grad_enabled(), "the test left gradients off"


def numeric_grad(build_scalar, array, h=1e-3):
    """Central finite differences of a scalar function w.r.t. one array.

    ``build_scalar`` is re-invoked after every perturbation and must read
    ``array`` afresh. Use float64 arrays so the h=1e-3 stencil resolves.
    """
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = build_scalar()
        flat[i] = orig - h
        fm = build_scalar()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def check_gradients(forward, arrays, h=1e-3, tol=1e-4):
    """Compare autodiff gradients of ``forward`` against finite differences.

    ``forward`` maps a list of Tensors to a scalar Tensor. ``arrays`` are
    float64 numpy arrays; every one is treated as differentiable.
    """
    tensors = [Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = forward(tensors)
    loss.backward()
    for t, a in zip(tensors, arrays):
        assert t.grad is not None, "missing gradient"
        num = numeric_grad(
            lambda: float(forward(
                [Tensor(x, dtype=np.float64) for x in arrays]).data),
            a, h=h)
        denom = max(np.abs(num).max(), np.abs(t.grad).max(), 1e-8)
        rel = np.abs(t.grad - num).max() / denom
        assert rel < tol, f"gradient mismatch: rel error {rel:.3e}"


def retained_backward(root):
    """``Tensor.backward`` as it was before the walk released the graph.

    Same topological order and the same gradient arithmetic, but every
    node keeps its parents and its backward closure, so the graph outlives
    the walk. Leaves accumulate ``grad`` as in ``Tensor.backward``; graph
    nodes have no ``grad``, so each one's upstream gradient is kept in the
    returned dict, keyed by the node.
    """
    start = root if root._node is None else root._node
    order, seen, stack = [], set(), [(start, False)]
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

    node_grads = {}
    grads = {id(start): np.ones_like(root.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        node_grads[node] = g
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            pg = pg.astype(parent.dtype, copy=False)
            key = id(parent)
            grads[key] = grads[key] + pg if key in grads else pg
    return node_grads


def assert_same_bytes(got, want):
    """Assert equal dtype, shape and bytes.

    ``np.array_equal`` passes -0.0 against 0.0 and fails NaN against NaN;
    a byte comparison does neither. A failure names the first differing
    flat index and both values there.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"shape {got.shape} != {want.shape}"
    a = np.ascontiguousarray(got).reshape(-1)
    b = np.ascontiguousarray(want).reshape(-1)
    width = got.dtype.itemsize
    differ = np.flatnonzero(
        (a.view(np.uint8).reshape(a.size, width)
         != b.view(np.uint8).reshape(b.size, width)).any(axis=1))
    if differ.size:
        i = differ[0]
        raise AssertionError(
            f"{differ.size} of {a.size} elements differ; first at flat "
            f"index {i}: got {a[i]!r}, want {b[i]!r}")


def probe_weights(shape, seed=0):
    """Fixed random projection so a scalar loss exercises every output."""
    return np.random.default_rng(seed).standard_normal(shape)


def _pad(x, kh, kw, padding):
    if padding == "valid":
        return x
    lo_h, lo_w = (kh - 1) // 2, (kw - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (lo_h, kh - 1 - lo_h),
                      (lo_w, kw - 1 - lo_w)))


def _crop(xp, shape, kh, kw, padding):
    top, left = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    return xp[:, :, top:top + shape[2], left:left + shape[3]]


def conv2d_oracle(x, k, padding, g):
    """Direct-sum float64 cross-correlation of x [N,C,H,W] with k [F,C,kh,kw].

    Returns the output and the input and kernel gradients for the output
    gradient ``g``, summing tap by tap in the order of the definition.
    """
    x, k, g = (np.asarray(a, np.float64) for a in (x, k, g))
    kh, kw = k.shape[2:]
    xp = _pad(x, kh, kw, padding)
    ho, wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = np.zeros((x.shape[0], k.shape[0], ho, wo))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + ho, j:j + wo]
            out += np.einsum("nchw,fc->nfhw", window, k[:, :, i, j])
            dk[:, :, i, j] = np.einsum("nchw,nfhw->fc", window, g)
            dxp[:, :, i:i + ho, j:j + wo] += np.einsum("nfhw,fc->nchw", g,
                                                       k[:, :, i, j])
    return out, _crop(dxp, x.shape, kh, kw, padding), dk


def depthwise_oracle(x, k, padding, g):
    """Tap-loop float64 depthwise correlation, x [N,C,H,W], k [C,D,kh,kw].

    Output channels are channel-major (c*D + d). Returns the output and the
    input and kernel gradients for the output gradient ``g``.
    """
    x, k, g = (np.asarray(a, np.float64) for a in (x, k, g))
    n, c = x.shape[:2]
    d, kh, kw = k.shape[1:]
    xp = _pad(x, kh, kw, padding)
    ho, wo = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    gg = g.reshape(n, c, d, ho, wo)
    out = np.zeros((n, c, d, ho, wo))
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i:i + ho, j:j + wo]
            out += k[None, :, :, i, j, None, None] * window[:, :, None]
            dk[:, :, i, j] = np.einsum("nchw,ncdhw->cd", window, gg)
            dxp[:, :, i:i + ho, j:j + wo] += np.einsum("cd,ncdhw->nchw",
                                                       k[:, :, i, j], gg)
    return (out.reshape(n, c * d, ho, wo),
            _crop(dxp, x.shape, kh, kw, padding), dk)


# -- the elementwise ops as written before their in-place rewrite --------------
#
# Each is a tensor op whose backward closure returns the input gradients;
# the rewritten ops in ``adhdeepnet.tensor`` must match them bit for bit.


def avg_pool_oracle(x, window=(1, 2), stride=None, padding="valid"):
    """Float64 mean over a strided [N,C,H',W',kh,kw] window view."""
    kh, kw = window
    sh, sw = (kh, kw) if stride is None else stride
    n, c = x.shape[:2]
    if padding == "same":
        ph = ((kh - 1) // 2, kh - 1 - (kh - 1) // 2)
        pw = ((kw - 1) // 2, kw - 1 - (kw - 1) // 2)
    else:
        ph = pw = (0, 0)
    h, w = x.shape[2:]
    xp = np.pad(x.data, ((0, 0), (0, 0), ph, pw))
    ho = (xp.shape[2] - kh) // sh + 1
    wo = (xp.shape[3] - kw) // sw + 1
    s0, s1, s2, s3 = xp.strides
    view = as_strided(xp, (n, c, ho, wo, kh, kw),
                      (s0, s1, s2 * sh, s3 * sw, s2, s3))
    out = view.mean(axis=(4, 5), dtype=np.float64).astype(x.dtype)
    scale = 1.0 / (kh * kw)

    def backward(g):
        dxp = np.zeros_like(xp)
        gs = g * scale
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + ho * sh:sh, j:j + wo * sw:sw] += gs
        return (dxp[:, :, ph[0]:ph[0] + h, pw[0]:pw[0] + w],)

    return Tensor._from_op(out, (x,), backward)


def elu_oracle(t, alpha=1.0):
    """ELU by ``np.where`` on the sign of the input."""
    neg = np.expm1(np.minimum(t.data, 0)) * alpha
    out = np.where(t.data >= 0, t.data, neg)

    def backward(g):
        return (g * np.where(t.data >= 0, 1.0, neg + alpha).astype(t.dtype),)

    return Tensor._from_op(out, (t,), backward)


def batch_norm_oracle(x, gamma, beta, running_mean, running_var, training,
                      momentum=0.1, eps=1e-5):
    """Batch norm from out-of-place expressions, each a new array."""
    if training:
        mean = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        var = x.data.var(axis=(0, 2, 3), dtype=np.float64)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean.astype(running_mean.dtype)
        running_var *= (1.0 - momentum)
        running_var += momentum * var.astype(running_var.dtype)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    mean = mean.astype(x.dtype)
    xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
        gxhat = g * gamma.data[:, None, None]
        if training:
            t1 = gxhat
            t2 = gxhat.mean(axis=(0, 2, 3), dtype=np.float64).astype(x.dtype)
            t3 = (gxhat * xhat).mean(axis=(0, 2, 3),
                                     dtype=np.float64).astype(x.dtype)
            dx = inv_std[:, None, None] * (
                t1 - t2[:, None, None] - xhat * t3[:, None, None])
        else:
            dx = gxhat * inv_std[:, None, None]
        return dx, dgamma, dbeta

    return Tensor._from_op(out, (x, gamma, beta), backward)


def dropout_oracle(x, rate, training, rng):
    """Inverted dropout in training at a positive rate, with the scaled
    mask built out of place."""
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out, (x,), backward)


def squared_distances_oracle(x):
    """Pairwise squared distances of the rows of x, from their differences.

    Exactly symmetric with a zero diagonal: (a-b)^2 and (b-a)^2 are the
    same float, summed over the same columns in the same order.
    """
    x = np.asarray(x, dtype=np.float64)
    return ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)


def binary_search_oracle(d2, perplexity, tol=1e-4, max_iter=200):
    """Per-row perplexity search, one row at a time.

    Each row's Gaussian precision starts at 1 and doubles, halves or
    bisects until exp(entropy) of the row is within ``tol`` of the target,
    or ``max_iter`` steps are spent (the row then keeps its last value).
    The rows are shifted by their minimum first.
    """
    n = d2.shape[0]
    p = np.zeros((n, n))
    for i in range(n):
        others = np.delete(d2[i], i)
        shifted = others - others.min()
        beta, lo, hi = 1.0, -np.inf, np.inf
        for _ in range(max_iter):
            w = np.exp(-shifted * beta)
            row = w / w.sum()
            entropy = -np.sum(row * np.log(np.maximum(row, 1e-300)))
            perp = np.exp(entropy)
            if abs(perp - perplexity) <= tol:
                break
            if perp > perplexity:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else (beta + hi) / 2.0
            else:
                hi = beta
                beta = beta / 2.0 if lo == -np.inf else (beta + lo) / 2.0
        p[i, :i] = row[:i]
        p[i, i + 1:] = row[i:]
    return p


def tsne_setup_oracle(x, perplexity):
    """Float64 reference for the exact t-SNE set-up, row-width passes only.

    Distinct rows by ``np.unique(axis=0)`` (a float comparison, so -0.0
    equals 0.0) in sorted order, squared distances straight from the rows,
    and the PCA initialization from a thin SVD of the centred rows, scaled
    to std 1e-4. Returns (unique rows, inverse, joint P, init).
    """
    x = np.asarray(x, dtype=np.float64)
    unique, inverse = np.unique(x, axis=0, return_inverse=True)
    m = unique.shape[0]
    perp = min(float(perplexity), max(2.0, (m - 1) / 3.0))
    cond = binary_search_oracle(squared_distances_oracle(unique), perp)
    p = np.maximum((cond + cond.T) / (2.0 * m), 1e-12)
    centered = unique - unique.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    y = centered @ vt[:2].T
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return unique, inverse.reshape(-1), p, y / std * 1e-4


def tsne_descent_oracle(p, y):
    """Float64 double loop over point pairs for one t-SNE descent step.

    Returns the Student-t kernel num_ij = 1 / (1 + |y_i - y_j|^2) (zero on
    the diagonal), Q = num / sum(num), and the gradient of KL(P || Q),
    4 sum_j (p_ij - q_ij) num_ij (y_i - y_j).
    """
    p, y = np.asarray(p, np.float64), np.asarray(y, np.float64)
    m = y.shape[0]
    num = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                num[i, j] = 1.0 / (1.0 + np.sum((y[i] - y[j]) ** 2))
    q = num / num.sum()
    grad = np.zeros_like(y)
    for i in range(m):
        for j in range(m):
            grad[i] += 4.0 * (p[i, j] - q[i, j]) * num[i, j] * (y[i] - y[j])
    return num, q, grad


def split_encoded_oracle(space, x):
    """Encoded matrix -> (continuous block, categorical index matrix), each
    index the argmax of its one-hot block."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    nc = len(space.continuous)
    cats = np.zeros((x.shape[0], len(space.categorical)), dtype=np.int64)
    i = nc
    for j, d in enumerate(space.categorical):
        cats[:, j] = np.argmax(x[:, i:i + len(d.choices)], axis=1)
        i += len(d.choices)
    return x[:, :nc], cats


def assemble_oracle(space, cont_row, cat_indices):
    """One encoded point from unit continuous values and choice indices."""
    vec = list(np.clip(cont_row, 0.0, 1.0))
    for d, idx in zip(space.categorical, cat_indices):
        onehot = [0.0] * len(d.choices)
        onehot[int(idx)] = 1.0
        vec.extend(onehot)
    return np.asarray(vec, dtype=np.float64)


def candidate_grid_oracle(space, cont):
    """Every continuous row paired with every categorical combination,
    continuous-major, one ``assemble_oracle`` call per point."""
    combos = list(product(*(range(len(d.choices))
                            for d in space.categorical))) or [()]
    return np.stack([assemble_oracle(space, c, combo)
                     for c in cont for combo in combos])


class OracleGaussianProcess(GaussianProcess):
    """The GP with its kernel computed from categorical index matrices:
    Matern-5/2 on the continuous block times overlap ** (number of
    categoricals whose argmax indices differ)."""

    def _k(self, xa, xb):
        ca, ga = split_encoded_oracle(self.space, xa)
        cb, gb = split_encoded_oracle(self.space, xb)
        if ca.shape[1]:
            d2 = ((ca[:, None, :] - cb[None, :, :]) ** 2).sum(-1)
            k = _matern52(d2 / self.length ** 2)
        else:
            k = np.ones((ca.shape[0], cb.shape[0]))
        if ga.shape[1]:
            mismatches = (ga[:, None, :] != gb[None, :, :]).sum(-1)
            k = k * (self.overlap ** mismatches)
        return (self.signal ** 2) * k


def propose_next_oracle(history, space, kappa, seed, n_candidates=2048,
                        n_refine=8):
    """Reference proposal: ``OracleGaussianProcess``, a per-point candidate
    grid, EI + (-1) * kappa * sigma, and a refinement that re-assembles
    every trial point from its continuous part and choice indices."""
    def acq(mean, std):
        return expected_improvement(mean, std, best) \
            + -1.0 * kappa * np.asarray(std, dtype=np.float64)

    x = np.stack([h[0] for h in history])
    y = np.asarray([h[1] for h in history], dtype=np.float64)
    gp = OracleGaussianProcess(space).fit(x, y, seed=seed)
    best = float(y.min())
    rng = np.random.default_rng(seed)
    nc = len(space.continuous)
    cont = qmc.Sobol(d=nc, scramble=True, seed=seed).random(n_candidates) \
        if nc else np.zeros((1, 0))
    cand = candidate_grid_oracle(space, cont)
    score = acq(*gp.predict(cand))
    order = np.argsort(score)[::-1]
    best_vec, best_score = cand[order[0]], score[order[0]]
    if nc:
        for vec in [cand[i] for i in order[:n_refine]]:
            c0, g0 = split_encoded_oracle(space, vec.copy())
            cur_cont = c0[0]
            step = 0.08
            for _ in range(24):
                trial_cont = np.clip(
                    cur_cont + rng.normal(0.0, step, nc), 0.0, 1.0)
                trial = assemble_oracle(space, trial_cont, g0[0])
                sc = acq(*gp.predict(trial[None]))[0]
                if sc > best_score:
                    best_score, best_vec, cur_cont = sc, trial, trial_cont
                step *= 0.9
    return space.decode(best_vec)


class StubModel:
    """The model a stub trainer's ``fit`` returns: ``run_fold`` saves it
    like a real one, as a placeholder weight file."""

    def save_weights(self, path):
        with open(path, "wb") as fh:
            fh.write(b"stub")
