"""Shared numerical oracles for the test suite."""

from itertools import product

import numpy as np
import pytest
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


def tsne_setup_oracle(x, perplexity):
    """Float64 reference for the exact t-SNE set-up, row-width passes only.

    Distinct rows by ``np.unique(axis=0)`` (a float comparison, so -0.0
    equals 0.0) in sorted order, squared distances straight from the rows,
    and the PCA initialization from a thin SVD of the centred rows, scaled
    to std 1e-4. Returns (unique rows, inverse, joint P, init).
    """
    from adhdeepnet.explain import _binary_search_neighbors, \
        _squared_distances

    x = np.asarray(x, dtype=np.float64)
    unique, inverse = np.unique(x, axis=0, return_inverse=True)
    m = unique.shape[0]
    perp = min(float(perplexity), max(2.0, (m - 1) / 3.0))
    cond = _binary_search_neighbors(_squared_distances(unique), perp)
    p = np.maximum((cond + cond.T) / (2.0 * m), 1e-12)
    centered = unique - unique.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    y = centered @ vt[:2].T
    std = y.std(axis=0)
    std[std == 0] = 1.0
    return unique, inverse.reshape(-1), p, y / std * 1e-4


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
