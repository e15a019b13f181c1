"""Hyperparameter search: Gaussian-process surrogate with an EI - kappa*sigma
acquisition over a mixed continuous/categorical space, driving an inner
two-fold subject-disjoint objective.

The engine minimizes g = negative pooled accuracy. Continuous dimensions
are min-max scaled to [0,1] (log10 first where flagged); categoricals are
one-hot encoded and compared by overlap. The first iterations are
quasi-random (scrambled Sobol) seeds. After them, each proposal scores one
encoded candidate matrix: every scrambled-Sobol continuous point paired
with every categorical combination, continuous-major. The best few rows
then get a local refinement of their continuous coordinates.

The scrambled Sobol points are built here with numpy (`sobol`): Joe &
Kuo's direction numbers for up to 32 dimensions, a linear matrix scramble
(LMS) plus a digital shift, and the points in Gray-code order, 30 bits per
coordinate. They equal scipy 1.17's ``qmc.Sobol`` points bit for bit (a
test compares them), so tuning outputs no longer depend on the installed
scipy's Sobol code, and no command imports ``scipy.stats``.

Note the acquisition SUBTRACTS kappa*sigma, penalizing uncertainty: the
search leans toward exploitation.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import ndtr

from .data import (LeakageError, class_index, split_subjects,
                   subjects_by_label)

KAPPA_DEFAULT = 0.1
N_CANDIDATES = 2048  # continuous Sobol points per proposal
N_REFINE = 8         # top candidates polished by local search
GP_RESTARTS = 64     # random kernel settings tried per GP fit


class GpError(RuntimeError):
    """GP covariance could not be factorized even with maximum jitter."""


class ObjectiveError(RuntimeError):
    """The tuning objective could not be evaluated (degenerate split)."""


class TuningError(RuntimeError):
    """All objective evaluations in a tuning run failed."""


# -- search space ----------------------------------------------------------------


@dataclass(frozen=True)
class Continuous:
    name: str
    lo: float
    hi: float
    log: bool = False

    def to_unit(self, value):
        lo, hi, v = self.lo, self.hi, value
        if self.log:
            lo, hi, v = np.log10(lo), np.log10(hi), np.log10(v)
        return (v - lo) / (hi - lo)

    def from_unit(self, u):
        u = min(max(float(u), 0.0), 1.0)
        if self.log:
            lo, hi = np.log10(self.lo), np.log10(self.hi)
            return float(10.0 ** (lo + u * (hi - lo)))
        return float(self.lo + u * (self.hi - self.lo))


@dataclass(frozen=True)
class Categorical:
    name: str
    choices: tuple


class SearchSpace:
    """Cartesian product of continuous intervals and categorical sets."""

    def __init__(self, dims):
        if not dims:
            raise ValueError("search space needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names in {names}")
        self.dims = list(dims)
        self.continuous = [d for d in dims if isinstance(d, Continuous)]
        self.categorical = [d for d in dims if isinstance(d, Categorical)]

    @property
    def names(self):
        return [d.name for d in self.dims]

    def encode(self, params):
        """Parameter dict -> flat vector: unit continuous then one-hots."""
        vec = [d.to_unit(params[d.name]) for d in self.continuous]
        for d in self.categorical:
            onehot = [0.0] * len(d.choices)
            onehot[d.choices.index(params[d.name])] = 1.0
            vec.extend(onehot)
        return np.asarray(vec, dtype=np.float64)

    def decode(self, vector):
        """Flat vector -> parameter dict (categoricals by argmax)."""
        out = {}
        i = 0
        for d in self.continuous:
            out[d.name] = d.from_unit(vector[i])
            i += 1
        for d in self.categorical:
            block = np.asarray(vector[i:i + len(d.choices)])
            out[d.name] = d.choices[int(np.argmax(block))]
            i += len(d.choices)
        return out

    @property
    def encoded_length(self):
        return (len(self.continuous)
                + sum(len(d.choices) for d in self.categorical))

    def sobol_candidates(self, n, seed):
        """n quasi-random parameter dicts covering the whole space."""
        d = max(len(self.continuous) + len(self.categorical), 1)
        out = []
        for row in sobol(d, n, seed):
            params = {}
            for i, dim in enumerate(self.continuous):
                params[dim.name] = dim.from_unit(row[i])
            for j, dim in enumerate(self.categorical):
                k = min(int(row[len(self.continuous) + j] * len(dim.choices)),
                        len(dim.choices) - 1)
                params[dim.name] = dim.choices[k]
            out.append(params)
        return out


# Joe & Kuo's primitive polynomials and initial direction numbers for the
# first 32 dimensions (the rows of their new-joe-kuo-6.21201 table that
# scipy ships); dimension 0 is the van der Corput sequence and needs none
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47, 55, 59, 61, 67, 91, 97,
               103, 109, 115, 131, 137, 143, 145, 157, 167, 171, 185, 191,
               193, 203, 211, 213)
_SOBOL_VINIT = (
    (), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13),
    (1, 1, 5, 5, 17), (1, 1, 5, 5, 5), (1, 1, 7, 11, 19), (1, 1, 5, 1, 1),
    (1, 1, 1, 3, 11), (1, 3, 5, 5, 31), (1, 3, 3, 9, 7, 49),
    (1, 1, 1, 15, 21, 21), (1, 3, 1, 13, 27, 49), (1, 1, 1, 15, 7, 5),
    (1, 3, 1, 15, 13, 25), (1, 1, 5, 5, 19, 61), (1, 3, 7, 11, 23, 15, 103),
    (1, 3, 7, 13, 13, 15, 69), (1, 1, 3, 13, 7, 35, 63),
    (1, 3, 5, 9, 1, 25, 53), (1, 3, 1, 13, 9, 35, 107),
    (1, 3, 1, 5, 27, 61, 31), (1, 1, 5, 11, 19, 41, 61),
    (1, 3, 5, 3, 3, 13, 69), (1, 1, 7, 13, 1, 19, 1),
    (1, 3, 7, 5, 13, 19, 59), (1, 1, 3, 9, 25, 29, 41),
    (1, 3, 5, 13, 23, 1, 55), (1, 3, 7, 3, 13, 59, 17))
_SOBOL_BITS = 30      # binary digits per coordinate
_SOBOL_MAX_DIM = len(_SOBOL_POLY)


def _sobol_directions(d):
    """(d, _SOBOL_BITS) uint32 direction numbers, digit j of the sequence
    in column j and its first binary digit in bit _SOBOL_BITS - 1: each
    row follows its polynomial's recurrence from its initial numbers."""
    rows = [[1] * _SOBOL_BITS]
    for poly, init in zip(_SOBOL_POLY[1:d], _SOBOL_VINIT[1:d]):
        m = len(init)
        row = list(init)
        for j in range(m, _SOBOL_BITS):
            new = row[j - m]
            for i in range(1, m + 1):
                if poly >> (m - i) & 1:
                    new ^= row[j - i] << i
            row.append(new)
        rows.append(row)
    msb = np.arange(_SOBOL_BITS - 1, -1, -1)
    return (np.array(rows, dtype=np.int64) << msb).astype(np.uint32)


def sobol(d, n, seed):
    """The first n points of a scrambled Sobol sequence in [0,1)^d.

    Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 30, 2008), given
    Matousek's linear matrix scramble and a digital shift (J. Complexity
    14, 1998), both drawn from ``np.random.default_rng(seed)``: first the
    (d, 30) shift bits, then the (d, 30, 30) lower-triangular matrices,
    whose diagonals are set to 1. Point k is the shift XORed with the
    scrambled directions picked by the bits of its Gray code k ^ (k >> 1),
    as a 30-bit integer times 2**-30. The rows equal, bit for bit,
    ``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed).random(m)[:n]``
    for any power of two m >= n (scipy 1.17, tested), but the installed
    scipy plays no part. d is at most 32.
    """
    if not 1 <= d <= _SOBOL_MAX_DIM:
        raise ValueError(f"sobol supports 1 to {_SOBOL_MAX_DIM} "
                         f"dimensions, got d={d}")
    rng = np.random.default_rng(seed)
    shift_bits = rng.integers(0, 2, size=(d, _SOBOL_BITS), dtype=np.uint32)
    ltm = np.tril(rng.integers(0, 2, size=(d, _SOBOL_BITS, _SOBOL_BITS),
                               dtype=np.uint32))
    diag = np.arange(_SOBOL_BITS)
    ltm[:, diag, diag] = 1
    shift = (shift_bits << diag.astype(np.uint32)).sum(axis=1,
                                                      dtype=np.uint32)
    # LMS: each direction's binary digits, first digit first, times the
    # dimension's lower-triangular matrix over GF(2)
    msb = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)[:, None]
    digits = _sobol_directions(d)[:, None, :] >> msb & 1
    scrambled = ((ltm @ digits & 1) << msb).sum(axis=1, dtype=np.uint32)
    gray = np.arange(n, dtype=np.uint32)
    gray ^= gray >> 1
    width = max(n - 1, 0).bit_length()  # Gray-code bits any point uses
    picked = (gray[:, None] >> np.arange(width, dtype=np.uint32) & 1) == 1
    points = np.bitwise_xor.reduce(
        np.where(picked[:, :, None], scrambled.T[None, :width], 0), axis=1)
    return (points ^ shift) * 2.0 ** -_SOBOL_BITS


def default_space():
    """The five tuned training hyperparameters and their domains."""
    return SearchSpace([
        Continuous("learning_rate", 1e-4, 1e-2, log=True),
        Continuous("dropout_rate", 0.1, 0.6),
        Continuous("norm_rate", 0.25, 2.0),
        Categorical("batch_size", (16, 32, 64, 128)),
        Categorical("optimizer_kind", ("Adam", "SGDMomentum", "RMSProp")),
    ])


# -- Gaussian process -----------------------------------------------------------------


def _matern52(sq_dist):
    d = np.sqrt(np.maximum(sq_dist, 0.0))
    a = np.sqrt(5.0) * d
    return (1.0 + a + (5.0 / 3.0) * sq_dist) * np.exp(-a)


class GaussianProcess:
    """GP regression over the encoded space.

    Kernel: sigma_f^2 * Matern-5/2(||continuous delta|| / length) *
    rho^(categorical mismatches), plus sigma_n^2 observation noise.
    Targets are internally normalized; predictions are de-normalized.
    """

    def __init__(self, space, signal=1.0, length=0.5, noise=0.1, overlap=0.5):
        self.space = space
        self.signal = signal
        self.length = length
        self.noise = noise
        self.overlap = overlap
        self._fitted = False

    # kernel between encoded matrices
    def _k(self, xa, xb):
        nc = len(self.space.continuous)
        if nc:
            d2 = ((xa[:, None, :nc] - xb[None, :, :nc]) ** 2).sum(-1)
            k = _matern52(d2 / self.length ** 2)
        else:
            k = np.ones((xa.shape[0], xb.shape[0]))
        n_cat = len(self.space.categorical)
        if n_cat:
            # one-hot blocks: each matching categorical adds exactly 1
            mismatches = n_cat - xa[:, nc:] @ xb[:, nc:].T
            k = k * (self.overlap ** mismatches)
        return (self.signal ** 2) * k

    def _factorize(self, x, y):
        n = len(y)
        k = self._k(x, x) + (self.noise ** 2) * np.eye(n)
        ladder = [0.0] + [1e-6 * 2.0 ** i for i in range(14)] + [1e-2]
        for jitter in ladder:
            try:
                lower = np.linalg.cholesky(k + jitter * np.eye(n))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise GpError(
                f"covariance not positive definite at jitter 1e-2 (n={n})")
        alpha = np.linalg.solve(lower.T, np.linalg.solve(lower, y))
        return lower, alpha

    def _log_marginal(self, x, y):
        try:
            lower, alpha = self._factorize(x, y)
        except GpError:
            return -np.inf
        return float(-0.5 * y @ alpha - np.log(np.diag(lower)).sum()
                     - 0.5 * len(y) * np.log(2 * np.pi))

    def fit(self, x, y, seed=0):
        """Choose kernel hyperparameters by marginal likelihood.

        Gradient-free: a seeded random search (plus sane defaults) followed
        by coordinate sweeps around the best candidate.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if len(y) < 2:
            raise ValueError("GP fit needs at least 2 observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        yn = (y - self._y_mean) / self._y_std

        rng = np.random.default_rng(seed)
        candidates = [(1.0, 0.5, 0.1, 0.5), (1.0, 1.0, 0.01, 0.5),
                      (0.5, 0.2, 0.05, 0.8)]
        for _ in range(GP_RESTARTS):
            candidates.append((
                10 ** rng.uniform(-1, 0.5),    # signal
                10 ** rng.uniform(-1.3, 0.5),  # length
                10 ** rng.uniform(-4, -0.3),   # noise
                rng.uniform(0.1, 0.99),        # overlap
            ))

        def score(c):
            self.signal, self.length, self.noise, self.overlap = c
            return self._log_marginal(x, yn)

        best = max(candidates, key=score)
        # coordinate sweeps: cheap local polish, still gradient-free
        factors = (0.5, 0.8, 1.25, 2.0)
        for _ in range(2):
            for dim in range(4):
                trials = []
                for f in factors:
                    c = list(best)
                    c[dim] = c[dim] * f
                    if dim == 3:
                        c[dim] = min(max(c[dim], 0.05), 0.99)
                    trials.append(tuple(c))
                best = max(trials + [best], key=score)
        self.signal, self.length, self.noise, self.overlap = best
        self._x = x
        self._lower, self._alpha = self._factorize(x, yn)
        self._fitted = True
        return self

    def predict(self, xstar):
        """Posterior mean and std of the latent function at encoded points."""
        if not self._fitted:
            raise RuntimeError("predict() before fit()")
        xstar = np.atleast_2d(np.asarray(xstar, dtype=np.float64))
        ks = self._k(self._x, xstar)
        mean_n = ks.T @ self._alpha
        v = np.linalg.solve(self._lower, ks)
        var = np.maximum(self.signal ** 2 - (v ** 2).sum(axis=0), 0.0)
        mean = mean_n * self._y_std + self._y_mean
        std = np.sqrt(var) * self._y_std
        return mean, std


# -- acquisition ---------------------------------------------------------------------


def expected_improvement(mean, std, best):
    """Closed-form EI for minimization; elementwise over arrays."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improve = best - mean
    out = np.maximum(improve, 0.0)
    ok = std > 0
    z = np.where(ok, improve / np.where(ok, std, 1.0), 0.0)
    # the standard normal cdf and pdf that norm.cdf and norm.pdf compute,
    # without their per-call argument handling (refinement calls this on
    # one row at a time)
    pdf = np.exp(-z ** 2 / 2.0) / np.sqrt(2 * np.pi)
    ei = improve * ndtr(z) + std * pdf
    return np.where(ok, ei, out)


def _check_kappa(kappa):
    if not kappa >= 0:  # NaN fails too
        raise ValueError(f"kappa must be non-negative, got {kappa}")


def check_search(iterations, n_seed_points, kappa):
    """Raise ValueError for a search that ``minimize`` cannot run."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    _check_kappa(kappa)
    if iterations > n_seed_points and n_seed_points < 2:
        raise ValueError(
            f"n_seed_points must be at least 2 for the GP proposals after "
            f"the seed points, got {n_seed_points} with {iterations} "
            f"iterations")


def acquisition(mean, std, best, kappa=KAPPA_DEFAULT):
    """EI - kappa * sigma: the uncertainty is penalized, not rewarded."""
    _check_kappa(kappa)
    return expected_improvement(mean, std, best) \
        - kappa * np.asarray(std, dtype=np.float64)


def propose_next(history, space, kappa=KAPPA_DEFAULT, seed=0):
    """Acquisition argmax over one encoded candidate matrix, then a local
    refinement.

    The matrix pairs each of ``N_CANDIDATES`` scrambled-Sobol continuous
    points with every categorical combination, continuous-major. The top
    ``N_REFINE`` rows get a shrinking Gaussian polish on their continuous
    coordinates, clamped to the unit box.
    """
    if not history:
        raise ValueError("propose_next needs at least one observation")
    x = np.stack([h[0] for h in history])
    y = np.asarray([h[1] for h in history], dtype=np.float64)
    gp = GaussianProcess(space).fit(x, y, seed=seed)
    best = float(y.min())
    rng = np.random.default_rng(seed)

    nc = len(space.continuous)
    if nc:
        cont = sobol(nc, N_CANDIDATES, seed)
    else:
        cont = np.zeros((1, 0))
    # one row per categorical combination; one empty row without any
    onehots = np.array([np.concatenate([np.zeros(0), *rows]) for rows in
                        product(*(np.eye(len(d.choices))
                                  for d in space.categorical))])
    cand = np.hstack([np.repeat(cont, len(onehots), axis=0),
                      np.tile(onehots, (len(cont), 1))])
    mean, std = gp.predict(cand)
    score = acquisition(mean, std, best, kappa)
    order = np.argsort(score)[::-1]

    best_vec = cand[order[0]]
    best_score = score[order[0]]
    if nc:
        for vec in cand[order[:N_REFINE]]:
            cur_cont = vec[:nc]
            step = 0.08
            for _ in range(24):
                trial = vec.copy()
                trial[:nc] = np.clip(
                    cur_cont + rng.normal(0.0, step, nc), 0.0, 1.0)
                m, s = gp.predict(trial[None])
                sc = acquisition(m, s, best, kappa)[0]
                if sc > best_score:
                    best_score, best_vec, cur_cont = sc, trial, trial[:nc]
                step *= 0.9
    return space.decode(best_vec)


# -- inner split --------------------------------------------------------------------


def stratified_bipartition(trials, rng):
    """Split trials into two subject-disjoint halves, class-stratified.

    Each half receives about half the subjects of each class, the first
    half the larger share, so both halves hold both classes (needs >= 2
    subjects per class). Each half keeps the order of ``trials``.
    """
    by_label = subjects_by_label(trials)
    for lab, subs in by_label.items():
        if len(subs) < 2:
            raise ObjectiveError(
                f"inner split needs >= 2 {lab} subjects, got {len(subs)}")
    first = set()
    for subs in by_label.values():
        rng.shuffle(subs)
        first.update(subs[:len(subs) // 2 + len(subs) % 2])
    second_half, first_half = split_subjects(trials, first, "inner split")
    return first_half, second_half


def make_inner_objective(trainer, trials, base_seed):
    """Objective g: negative pooled accuracy of the inner two-fold run."""

    def objective(params, iteration):
        rng = np.random.default_rng([base_seed, 7919, iteration])
        split1, split2 = stratified_bipartition(trials, rng)
        correct = 0
        total = 0
        for train_half, eval_half in ((split1, split2), (split2, split1)):
            model, _ = trainer.fit(train_half, params,
                                   seed=base_seed * 1000 + iteration)
            probs = trainer.predict_proba(model, eval_half)
            pred = np.argmax(probs, axis=1)
            truth = np.asarray([class_index(t.label) for t in eval_half])
            correct += int((pred == truth).sum())
            total += len(eval_half)
        if total == 0:
            raise ObjectiveError("empty evaluation halves")
        return -correct / total

    return objective


# -- driver -----------------------------------------------------------------------------


@dataclass
class BoResult:
    best_params: dict
    best_g: float
    history: list  # (encoded vector, g, decoded params) per iteration


def minimize(objective, space, iterations=100, seed=0, n_seed_points=10,
             kappa=KAPPA_DEFAULT, history_path=None):
    """Sequential model-based minimization of ``objective(params)``.

    The first ``n_seed_points`` iterations evaluate scrambled-Sobol points;
    the rest maximize the acquisition under a GP fitted to all history.
    An exception from the objective propagates. Bad arguments raise
    ValueError before the history file is opened or anything is evaluated.
    """
    check_search(iterations, n_seed_points, kappa)
    seeds = space.sobol_candidates(min(n_seed_points, iterations), seed=seed)
    history = []
    log_fh = open(history_path, "w", encoding="utf-8") if history_path \
        else None
    try:
        for t in range(iterations):
            if t < len(seeds):
                params = seeds[t]
            else:
                params = propose_next(
                    [(h[0], h[1]) for h in history], space, kappa=kappa,
                    seed=seed * 100003 + t)
            started = time.perf_counter()
            g = float(objective(params))
            encoded = space.encode(params)
            history.append((encoded, g, params))
            print(f"[bo] iteration={t} g={g:.6g} "
                  f"best={min(h[1] for h in history):.6g}", file=sys.stderr)
            if log_fh is not None:
                log_fh.write(json.dumps(
                    {"iteration": t, "encoded": encoded.tolist(),
                     "params": params, "g": g,
                     "wall_time_s": round(time.perf_counter() - started, 6)},
                    sort_keys=True) + "\n")
                log_fh.flush()
    finally:
        if log_fh is not None:
            log_fh.close()
    finite = [h for h in history if np.isfinite(h[1])]
    if not finite:
        raise TuningError("every objective evaluation failed")
    best = min(finite, key=lambda h: h[1])
    return BoResult(best_params=best[2], best_g=best[1], history=history)


def tune(trials, trainer, space=None, iterations=100, seed=0,
         n_seed_points=10, kappa=KAPPA_DEFAULT, history_path=None):
    """Tune training hyperparameters on one outer fold's training subjects.

    Each iteration draws a fresh subject-disjoint stratified bipartition of
    the training trials and scores the candidate by negative pooled
    accuracy across both directions. An evaluation that raises scores 0,
    the worst possible g, except a ``LeakageError``, which ends the run.
    Returns the ``BoResult``, whose ``best_params`` is the plain parameter
    dict that scored best.
    """
    space = space or default_space()
    by_label = subjects_by_label(trials)
    if any(len(subs) < 2 for subs in by_label.values()):
        got = " and ".join(f"{len(subs)} {lab}"
                           for lab, subs in by_label.items())
        raise TuningError(
            f"tuning needs at least 4 subjects, 2 of each class for the "
            f"inner halves, got {got}; an evaluation can skip it per fold "
            f"(bo.tune false, --no-tune)")
    inner = make_inner_objective(trainer, trials, base_seed=seed)
    counter = {"t": -1}

    def objective(params):
        counter["t"] += 1
        try:
            return inner(params, counter["t"])
        except LeakageError:
            raise
        except Exception:
            return 0.0

    result = minimize(objective, space, iterations=iterations, seed=seed,
                      n_seed_points=n_seed_points, kappa=kappa,
                      history_path=history_path)
    if all(h[1] == 0.0 for h in result.history):
        raise TuningError("all tuning evaluations failed (g=0 throughout)")
    return result
