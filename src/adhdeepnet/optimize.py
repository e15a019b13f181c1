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
from scipy.stats import qmc

from .data import LABELS

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
        sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
        # draw a power-of-two batch to keep the sequence balanced, then trim
        u = sampler.random(1 << max(int(np.ceil(np.log2(max(n, 1)))), 0))[:n]
        out = []
        for row in u:
            params = {}
            for i, dim in enumerate(self.continuous):
                params[dim.name] = dim.from_unit(row[i])
            for j, dim in enumerate(self.categorical):
                k = min(int(row[len(self.continuous) + j] * len(dim.choices)),
                        len(dim.choices) - 1)
                params[dim.name] = dim.choices[k]
            out.append(params)
        return out


def default_space():
    """The five tuned training hyperparameters and their domains."""
    return SearchSpace([
        Continuous("learning_rate", 1e-4, 1e-2, log=True),
        Continuous("dropout_rate", 0.1, 0.6),
        Continuous("norm_rate", 0.25, 2.0),
        Categorical("batch_size", (16, 32, 64, 128)),
        Categorical("optimizer_kind", ("Adam", "SGDMomentum", "RMSProp")),
    ])


@dataclass(frozen=True)
class HyperParams:
    learning_rate: float
    dropout_rate: float
    norm_rate: float
    batch_size: int
    optimizer_kind: str

    def as_dict(self):
        return {"learning_rate": self.learning_rate,
                "dropout_rate": self.dropout_rate,
                "norm_rate": self.norm_rate,
                "batch_size": self.batch_size,
                "optimizer_kind": self.optimizer_kind}

    @classmethod
    def from_dict(cls, d):
        return cls(learning_rate=float(d["learning_rate"]),
                   dropout_rate=float(d["dropout_rate"]),
                   norm_rate=float(d["norm_rate"]),
                   batch_size=int(d["batch_size"]),
                   optimizer_kind=str(d["optimizer_kind"]))


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
    # scipy.stats.norm's own cdf and pdf, without its per-call argument
    # handling (refinement calls this on one row at a time)
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
        sampler = qmc.Sobol(d=nc, scramble=True, seed=seed)
        cont = sampler.random(N_CANDIDATES)
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

    Each half receives about half the subjects of each class; both halves
    are guaranteed both classes (needs >= 2 subjects per class).
    """
    subject_label = {}
    for t in trials:
        subject_label.setdefault(t.subject_id, t.label)
    by_label = {lab: sorted(s for s, l in subject_label.items() if l == lab)
                for lab in LABELS}
    for lab, subs in by_label.items():
        if len(subs) < 2:
            raise ObjectiveError(
                f"inner split needs >= 2 {lab} subjects, got {len(subs)}")
    first = set()
    for lab in LABELS:
        subs = list(by_label[lab])
        rng.shuffle(subs)
        first.update(subs[:len(subs) // 2 + len(subs) % 2])
    split1 = [t for t in trials if t.subject_id in first]
    split2 = [t for t in trials if t.subject_id not in first]
    got1 = {t.label for t in split1}
    got2 = {t.label for t in split2}
    assert got1 == set(LABELS) and got2 == set(LABELS), \
        "stratified split lost a class"
    assert not ({t.subject_id for t in split1}
                & {t.subject_id for t in split2}), "subject leakage"
    return split1, split2


def make_inner_objective(trainer, trials, base_seed):
    """Objective g: negative pooled accuracy of the inner two-fold run."""
    from .data import LABEL_VECTORS

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
            truth = np.asarray([np.argmax(LABEL_VECTORS[t.label])
                                for t in eval_half])
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
             kappa=KAPPA_DEFAULT, history_path=None, on_failure="raise"):
    """Sequential model-based minimization of ``objective(params)``.

    The first ``n_seed_points`` iterations evaluate scrambled-Sobol points;
    the rest maximize the acquisition under a GP fitted to all history.
    ``on_failure="worst"`` records crashed evaluations as g=0 (the worst
    possible negative accuracy) instead of propagating. Bad arguments
    raise ValueError before the history file is opened or anything is
    evaluated.
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
            try:
                g = float(objective(params))
            except Exception:
                if on_failure != "worst":
                    raise
                g = 0.0
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
    accuracy across both directions. Failed evaluations score 0 (worst).
    Returns (HyperParams, BoResult).
    """
    space = space or default_space()
    subjects = {t.subject_id for t in trials}
    if len(subjects) < 4:
        raise TuningError(
            f"tuning needs at least 4 subjects, got {len(subjects)}")
    inner = make_inner_objective(trainer, trials, base_seed=seed)
    counter = {"t": -1}

    def objective(params):
        counter["t"] += 1
        return inner(params, counter["t"])

    result = minimize(objective, space, iterations=iterations, seed=seed,
                      n_seed_points=n_seed_points, kappa=kappa,
                      history_path=history_path, on_failure="worst")
    if all(h[1] == 0.0 for h in result.history):
        raise TuningError("all tuning evaluations failed (g=0 throughout)")
    return HyperParams.from_dict(result.best_params), result
