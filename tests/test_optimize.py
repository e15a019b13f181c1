"""Hyperparameter-search machinery: encoding, GP regression, acquisition,
proposal loop, inner objective, and the end-to-end tuner."""

import json

import numpy as np
import pytest
from scipy.stats import norm, qmc

from adhdeepnet.data import generate_synthetic, segment_all
from adhdeepnet.optimize import (
    Categorical,
    Continuous,
    GaussianProcess,
    ObjectiveError,
    SearchSpace,
    TuningError,
    acquisition,
    default_space,
    expected_improvement,
    make_inner_objective,
    minimize,
    propose_next,
    sobol,
    stratified_bipartition,
    tune,
)
from conftest import (OracleGaussianProcess, candidate_grid_oracle,
                      propose_next_oracle)


def cohort(n_per_class, seconds=8, seed=0):
    return segment_all(generate_synthetic(n_per_class, seconds, 1.0,
                                          seed=seed))


# -- search space --------------------------------------------------------------------


def test_default_space_dimensions():
    space = default_space()
    assert space.names == ["learning_rate", "dropout_rate", "norm_rate",
                           "batch_size", "optimizer_kind"]
    assert space.encoded_length == 3 + 4 + 3


def test_encode_unit_interval_and_onehot():
    space = default_space()
    vec = space.encode({"learning_rate": 1e-4, "dropout_rate": 0.6,
                        "norm_rate": 0.25, "batch_size": 64,
                        "optimizer_kind": "Adam"})
    assert vec[0] == pytest.approx(0.0)   # log-domain left edge
    assert vec[1] == pytest.approx(1.0)
    assert vec[2] == pytest.approx(0.0)
    assert vec[3:7].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert vec[7:10].tolist() == [1.0, 0.0, 0.0]


def test_log_dimension_midpoint():
    space = default_space()
    vec = space.encode({"learning_rate": 1e-3, "dropout_rate": 0.35,
                        "norm_rate": 1.0, "batch_size": 16,
                        "optimizer_kind": "RMSProp"})
    assert vec[0] == pytest.approx(0.5)  # geometric midpoint of 1e-4..1e-2


def test_encode_decode_round_trip():
    space = default_space()
    params = {"learning_rate": 3.3e-4, "dropout_rate": 0.41,
              "norm_rate": 1.7, "batch_size": 32,
              "optimizer_kind": "SGDMomentum"}
    back = space.decode(space.encode(params))
    assert back["learning_rate"] == pytest.approx(params["learning_rate"],
                                                  rel=1e-12)
    assert back["dropout_rate"] == pytest.approx(params["dropout_rate"],
                                                 rel=1e-12)
    assert back["norm_rate"] == pytest.approx(params["norm_rate"], rel=1e-12)
    assert back["batch_size"] == 32
    assert back["optimizer_kind"] == "SGDMomentum"


def test_decode_clamps_out_of_range_coordinates():
    space = SearchSpace([Continuous("u", 2.0, 4.0)])
    assert space.decode(np.array([-0.5]))["u"] == 2.0
    assert space.decode(np.array([1.5]))["u"] == 4.0


def test_duplicate_dimension_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        SearchSpace([Continuous("a", 0, 1), Continuous("a", 1, 2)])
    with pytest.raises(ValueError):
        SearchSpace([])


@pytest.mark.parametrize("n,drawn", [(1, 1), (5, 8), (8, 8), (2048, 2048)])
def test_sobol_trims_a_power_of_two_draw(n, drawn):
    expected = qmc.Sobol(d=3, scramble=True, seed=9).random(drawn)[:n]
    assert np.array_equal(sobol(3, n, seed=9), expected)


# the tuner's seeds: minimize's own, and propose_next's seed * 100003 + t
SOBOL_SEEDS = (0, 9, *(seed * 100003 + t for seed in (0, 7) for t in (1, 4)))


@pytest.mark.parametrize("d", range(1, 33))
def test_sobol_matches_scipy_bitwise(d):
    for n in (1, 5, 8, 2048):
        drawn = 1 << max(n - 1, 0).bit_length()
        for seed in SOBOL_SEEDS:
            expected = qmc.Sobol(d=d, scramble=True,
                                 seed=seed).random(drawn)[:n]
            assert np.array_equal(sobol(d, n, seed), expected), (n, seed)


def test_sobol_rejects_more_than_32_dimensions():
    with pytest.raises(ValueError, match="32 dimensions"):
        sobol(33, 8, seed=0)


def test_sobol_candidates_cover_space_deterministically():
    space = default_space()
    first = space.sobol_candidates(10, seed=4)
    again = space.sobol_candidates(10, seed=4)
    other = space.sobol_candidates(10, seed=5)
    assert first == again
    assert first != other
    assert len(first) == 10
    for params in first:
        assert 1e-4 <= params["learning_rate"] <= 1e-2
        assert 0.1 <= params["dropout_rate"] <= 0.6
        assert params["batch_size"] in (16, 32, 64, 128)
        assert params["optimizer_kind"] in ("Adam", "SGDMomentum", "RMSProp")
    kinds = {p["optimizer_kind"] for p in first}
    assert len(kinds) >= 2  # quasi-random sweep touches several categories


# -- Gaussian process ----------------------------------------------------------------


def line_space():
    return SearchSpace([Continuous("u", 0.0, 1.0)])


def encoded_grid(space, us):
    return np.stack([space.encode({"u": float(u)}) for u in us])


def test_gp_interpolates_sine_curve():
    space = line_space()
    xs = np.linspace(0.0, 1.0, 8)
    ys = np.sin(2 * np.pi * xs)
    gp = GaussianProcess(space).fit(encoded_grid(space, xs), ys, seed=0)
    grid = np.linspace(0.0, 1.0, 101)
    mean, std = gp.predict(encoded_grid(space, grid))
    rmse = float(np.sqrt(np.mean((mean - np.sin(2 * np.pi * grid)) ** 2)))
    assert rmse < 0.1
    assert np.all(std >= 0)
    at_train, _ = gp.predict(encoded_grid(space, xs))
    assert np.max(np.abs(at_train - ys)) < 0.05


def test_gp_reverts_to_prior_far_from_data():
    space = line_space()
    xs = np.linspace(0.0, 1.0, 8)
    ys = 3.0 + np.sin(2 * np.pi * xs)
    gp = GaussianProcess(space).fit(encoded_grid(space, xs), ys, seed=0)
    far = np.array([[40.0]])  # way outside the encoded unit interval
    mean, std = gp.predict(far)
    spread = ys.max() - ys.min()
    assert abs(mean[0] - ys.mean()) < 0.05 * spread
    near_std = gp.predict(encoded_grid(space, xs))[1]
    assert std[0] > near_std.max()  # uncertainty grows away from data


def test_gp_uncertainty_shrinks_at_observations():
    space = line_space()
    xs = np.array([0.1, 0.5, 0.9])
    ys = np.array([1.0, -1.0, 0.5])
    gp = GaussianProcess(space).fit(encoded_grid(space, xs), ys, seed=1)
    std_at = gp.predict(encoded_grid(space, xs))[1]
    std_between = gp.predict(encoded_grid(space, [0.3, 0.7]))[1]
    assert std_at.max() < std_between.min()


def test_gp_handles_duplicate_inputs():
    space = line_space()
    xs = np.array([0.2, 0.2, 0.2, 0.8])
    ys = np.array([1.0, 1.0, 1.0, 2.0])
    gp = GaussianProcess(space).fit(encoded_grid(space, xs), ys, seed=0)
    mean, _ = gp.predict(encoded_grid(space, [0.2]))
    assert mean[0] == pytest.approx(1.0, abs=0.3)


def test_gp_categorical_kernel_groups_by_choice():
    space = SearchSpace([Categorical("kind", ("a", "b"))])
    x = np.stack([space.encode({"kind": "a"}), space.encode({"kind": "b"}),
                  space.encode({"kind": "a"}), space.encode({"kind": "b"})])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    gp = GaussianProcess(space).fit(x, y, seed=0)
    mean_a, _ = gp.predict(space.encode({"kind": "a"})[None])
    mean_b, _ = gp.predict(space.encode({"kind": "b"})[None])
    assert mean_a[0] > 0.5
    assert mean_b[0] < -0.5


def test_gp_guards():
    space = line_space()
    gp = GaussianProcess(space)
    with pytest.raises(RuntimeError, match="before fit"):
        gp.predict(np.array([[0.5]]))
    with pytest.raises(ValueError, match="at least 2"):
        gp.fit(np.array([[0.5]]), np.array([1.0]), seed=0)


# -- acquisition ---------------------------------------------------------------------


def test_expected_improvement_matches_monte_carlo():
    rng = np.random.default_rng(0)
    best = 0.2
    for mu, sigma in [(0.0, 1.0), (0.5, 0.3), (-1.0, 2.0), (1.0, 0.05)]:
        z = rng.standard_normal(500_000)
        draws = np.concatenate([mu + sigma * z, mu - sigma * z])
        mc = np.maximum(best - draws, 0.0).mean()
        ei = float(expected_improvement(mu, sigma, best))
        # MC error scales with sigma, so the tolerance does too
        assert ei == pytest.approx(mc, abs=1e-3 * max(sigma, 1.0))


def test_expected_improvement_zero_variance():
    assert float(expected_improvement(0.5, 0.0, 0.2)) == 0.0
    assert float(expected_improvement(-0.1, 0.0, 0.2)) == pytest.approx(0.3)


def test_expected_improvement_matches_scipy_norm_bitwise():
    rng = np.random.default_rng(17)
    mean = np.concatenate([rng.normal(0.0, 1.0, 4000),
                           [0.0, -0.0, -40.0, 40.0]])
    std = np.concatenate([np.abs(rng.normal(0.0, 1.0, 4000)),
                          [1.0, 1.0, 1.0, 1.0]])
    std[:4000:50] = 0.0
    for best in (0.2, -0.0):  # -0.0 makes z = -0.0 at mean = +0.0
        improve = best - mean
        ok = std > 0
        z = np.where(ok, improve / np.where(ok, std, 1.0), 0.0)
        want = np.where(ok, improve * norm.cdf(z) + std * norm.pdf(z),
                        np.maximum(improve, 0.0))
        got = expected_improvement(mean, std, best)
        assert got.tobytes() == want.tobytes()
        for i in range(0, len(mean), 97):  # refinement's one-row calls
            assert expected_improvement(mean[i:i + 1], std[i:i + 1],
                                        best).tobytes() == \
                want[i:i + 1].tobytes()
    assert abs(z).max() >= 40 and np.signbit(z[ok & (z == 0)]).any()


def test_expected_improvement_closed_form_value():
    mu, sigma, best = 0.0, 1.0, 0.5
    z = (best - mu) / sigma
    expected = (best - mu) * norm.cdf(z) + sigma * norm.pdf(z)
    assert float(expected_improvement(mu, sigma, best)) == \
        pytest.approx(expected, rel=1e-12)


def test_expected_improvement_monotone_in_mean():
    means = np.linspace(-2.0, 2.0, 21)
    ei = expected_improvement(means, np.full_like(means, 0.5), 0.0)
    assert np.all(np.diff(ei) < 0)
    assert np.all(ei >= 0)


def test_acquisition_penalizes_uncertainty_by_default():
    mu = np.array([0.0, 0.0])
    sigma = np.array([0.1, 1.0])
    ei = expected_improvement(mu, sigma, 0.5)
    acq = acquisition(mu, sigma, 0.5, kappa=0.1)
    assert np.allclose(acq, ei - 0.1 * sigma)
    assert np.allclose(acquisition(mu, sigma, 0.5, kappa=0.0), ei)
    for kappa in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            acquisition(mu, sigma, 0.5, kappa=kappa)


def test_propose_next_is_deterministic():
    space = line_space()
    history = [(space.encode({"u": u}), (u - 0.4) ** 2)
               for u in (0.1, 0.5, 0.9)]
    a = propose_next(history, space, seed=3)
    b = propose_next(history, space, seed=3)
    c = propose_next(history, space, seed=4)
    assert a == b
    assert 0.0 <= a["u"] <= 1.0
    assert isinstance(c["u"], float)
    with pytest.raises(ValueError, match="at least one"):
        propose_next([], space)


def test_propose_next_exploits_known_minimum_region():
    space = line_space()
    us = np.linspace(0.0, 1.0, 12)
    history = [(space.encode({"u": float(u)}), (u - 0.35) ** 2) for u in us]
    prop = propose_next(history, space, seed=0)
    assert abs(prop["u"] - 0.35) < 0.15


def test_propose_next_enumerates_categorical_choices():
    space = SearchSpace([Continuous("u", 0.0, 1.0),
                         Categorical("kind", ("good", "bad"))])
    history = []
    for u in np.linspace(0.05, 0.95, 8):
        history.append((space.encode({"u": float(u), "kind": "good"}),
                        -1.0 + (u - 0.5) ** 2))
        history.append((space.encode({"u": float(u), "kind": "bad"}),
                        1.0 + (u - 0.5) ** 2))
    prop = propose_next(history, space, seed=0)
    assert prop["kind"] == "good"


# -- the encoded candidate matrix against the index-matrix reference ----------------


REFERENCE_SPACES = {
    "default": default_space,
    "continuous-only": lambda: SearchSpace([
        Continuous("a", 1e-3, 1.0, log=True), Continuous("b", -2.0, 5.0)]),
    "categorical-only": lambda: SearchSpace([
        Categorical("kind", ("x", "y", "z")),
        Categorical("size", (8, 16)),
        Categorical("flag", (True, False))]),
    # categoricals declared around the continuous dimensions
    "mixed": lambda: SearchSpace([
        Categorical("kind", ("x", "y", "z")), Continuous("u", 0.0, 1.0),
        Categorical("flag", (True, False)),
        Continuous("v", 1e-2, 10.0, log=True)]),
}


def reference_history(space, seed, n=7):
    rng = np.random.default_rng([seed, 11])
    return [(space.encode(p), float(rng.normal()))
            for p in space.sobol_candidates(n, seed=seed)]


def reference_grid(space, seed, n=64):
    nc = len(space.continuous)
    cont = qmc.Sobol(d=nc, scramble=True, seed=seed).random(n) \
        if nc else np.zeros((1, 0))
    return candidate_grid_oracle(space, cont)


@pytest.mark.parametrize("shape", sorted(REFERENCE_SPACES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_and_posterior_match_index_reference_bitwise(shape, seed):
    space = REFERENCE_SPACES[shape]()
    history = reference_history(space, seed)
    x = np.stack([h[0] for h in history])
    y = np.array([h[1] for h in history])
    grid = reference_grid(space, seed)
    gp = GaussianProcess(space, signal=1.3, length=0.3, noise=0.05,
                         overlap=0.37)
    oracle = OracleGaussianProcess(space, signal=1.3, length=0.3,
                                   noise=0.05, overlap=0.37)
    assert np.array_equal(gp._k(x, grid), oracle._k(x, grid))
    assert np.array_equal(gp._k(x, x), oracle._k(x, x))

    gp.fit(x, y, seed=seed)
    oracle.fit(x, y, seed=seed)
    assert (gp.signal, gp.length, gp.noise, gp.overlap) == \
        (oracle.signal, oracle.length, oracle.noise, oracle.overlap)
    for got, want in zip(gp.predict(grid), oracle.predict(grid)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("shape", sorted(REFERENCE_SPACES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propose_next_matches_per_point_reference(shape, seed, monkeypatch):
    space = REFERENCE_SPACES[shape]()
    history = reference_history(space, seed)
    kappa = (0.1, 0.0, 0.5)[seed]
    scored = []
    predict = GaussianProcess.predict

    def recording_predict(self, xstar):
        scored.append(np.array(xstar))
        return predict(self, xstar)

    monkeypatch.setattr(GaussianProcess, "predict", recording_predict)
    got = propose_next(history, space, kappa=kappa, seed=seed)
    monkeypatch.undo()
    assert got == propose_next_oracle(history, space, kappa, seed)
    # the candidate matrix itself, row for row
    assert np.array_equal(scored[0], reference_grid(space, seed, n=2048))


# -- inner objective ----------------------------------------------------------------


def test_stratified_bipartition_is_subject_disjoint():
    trials = cohort(3, seconds=8, seed=0)
    rng = np.random.default_rng(0)
    s1, s2 = stratified_bipartition(trials, rng)
    subs1 = {t.subject_id for t in s1}
    subs2 = {t.subject_id for t in s2}
    assert not subs1 & subs2
    assert subs1 | subs2 == {t.subject_id for t in trials}
    assert {t.label for t in s1} == {"ADHD", "HC"}
    assert {t.label for t in s2} == {"ADHD", "HC"}
    assert len(s1) + len(s2) == len(trials)


def test_stratified_bipartition_needs_two_subjects_per_class():
    trials = [t for t in cohort(2, seconds=8, seed=0)
              if not (t.label == "HC" and t.subject_id.endswith("001"))]
    with pytest.raises(ObjectiveError, match="HC"):
        stratified_bipartition(trials, np.random.default_rng(0))


def test_stratified_bipartition_varies_with_rng():
    trials = cohort(6, seconds=4, seed=1)
    first = {t.subject_id for t in
             stratified_bipartition(trials, np.random.default_rng(0))[0]}
    seen_different = any(
        {t.subject_id for t in
         stratified_bipartition(trials, np.random.default_rng(k))[0]} != first
        for k in range(1, 6))
    assert seen_different


class FakeTrainer:
    """Stand-in trainer whose accuracy is a pure function of the
    hyperparameters, for exercising the search loop quickly."""

    def __init__(self, score_fn):
        self.score_fn = score_fn
        self.fit_calls = []

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        self.fit_calls.append(
            (dict(hyperparams), {t.subject_id for t in train_trials}))
        return dict(hyperparams), None

    def predict_proba(self, model, trials):
        frac = float(np.clip(self.score_fn(model), 0.0, 1.0))
        n = len(trials)
        correct = int(round(frac * n))
        probs = np.zeros((n, 2))
        for i, t in enumerate(trials):
            truth = 0 if t.label == "ADHD" else 1
            col = truth if i < correct else 1 - truth
            probs[i, col] = 1.0
        return probs


def test_inner_objective_scores_negative_pooled_accuracy():
    trials = cohort(2, seconds=8, seed=2)
    trainer = FakeTrainer(lambda hp: 1.0)
    objective = make_inner_objective(trainer, trials, base_seed=0)
    g = objective({"learning_rate": 1e-3, "dropout_rate": 0.2,
                   "batch_size": 16, "norm_rate": 1.0,
                   "optimizer_kind": "Adam"}, iteration=0)
    assert g == pytest.approx(-1.0)
    assert len(trainer.fit_calls) == 2  # both directions of the bipartition


def test_inner_objective_trains_and_scores_disjoint_halves():
    trials = cohort(3, seconds=8, seed=5)
    trainer = FakeTrainer(lambda hp: 0.5)
    objective = make_inner_objective(trainer, trials, base_seed=1)
    objective({"learning_rate": 1e-3, "dropout_rate": 0.2, "batch_size": 16,
               "norm_rate": 1.0, "optimizer_kind": "Adam"}, iteration=3)
    (_, subjects_a), (_, subjects_b) = trainer.fit_calls
    assert subjects_a & subjects_b == set()
    all_subjects = {t.subject_id for t in trials}
    assert subjects_a | subjects_b == all_subjects


def test_inner_objective_redraws_split_each_iteration():
    trials = cohort(6, seconds=4, seed=3)
    trainer = FakeTrainer(lambda hp: 1.0)
    objective = make_inner_objective(trainer, trials, base_seed=0)
    hp = {"learning_rate": 1e-3, "dropout_rate": 0.2, "batch_size": 16,
          "norm_rate": 1.0, "optimizer_kind": "Adam"}
    splits = []
    for it in range(5):
        trainer.fit_calls.clear()
        objective(hp, iteration=it)
        splits.append(frozenset(trainer.fit_calls[0][1]))
    assert len(set(splits)) > 1


# -- minimize -----------------------------------------------------------------------


def quadratic_space():
    return SearchSpace([Continuous("u", 0.0, 1.0)])


def test_minimize_converges_on_quadratic():
    target = 0.37
    result = minimize(lambda p: (p["u"] - target) ** 2, quadratic_space(),
                      iterations=30, seed=0)
    assert abs(result.best_params["u"] - target) <= 0.02
    assert result.best_g == pytest.approx(
        (result.best_params["u"] - target) ** 2)
    assert len(result.history) == 30


def test_minimize_quadratic_across_seeds():
    target = 0.61
    hits = 0
    for seed in range(3):
        result = minimize(lambda p: (p["u"] - target) ** 2,
                          quadratic_space(), iterations=30, seed=seed)
        hits += abs(result.best_params["u"] - target) <= 0.02
    assert hits >= 2


def test_minimize_improves_on_seed_phase():
    target = 0.52
    result = minimize(lambda p: abs(p["u"] - target), quadratic_space(),
                      iterations=25, seed=2, n_seed_points=10)
    seed_best = min(h[1] for h in result.history[:10])
    assert result.best_g <= seed_best


def test_minimize_is_deterministic():
    runs = [minimize(lambda p: (p["u"] - 0.2) ** 2, quadratic_space(),
                     iterations=14, seed=9) for _ in range(2)]
    g0 = [h[1] for h in runs[0].history]
    g1 = [h[1] for h in runs[1].history]
    assert g0 == g1
    assert runs[0].best_params == runs[1].best_params


def test_minimize_single_iteration():
    result = minimize(lambda p: p["u"], quadratic_space(), iterations=1,
                      seed=0)
    assert len(result.history) == 1
    assert result.best_g == result.history[0][1]
    # a seed-points-only run needs no second observation for the GP
    assert len(minimize(lambda p: p["u"], quadratic_space(), iterations=1,
                        seed=0, n_seed_points=1).history) == 1


def test_minimize_writes_jsonl_history(tmp_path):
    space = quadratic_space()
    path = tmp_path / "trace.jsonl"
    result = minimize(lambda p: (p["u"] - 0.5) ** 2, space, iterations=12,
                      seed=1, history_path=str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 12
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["iteration"] == i
        assert rec["g"] == result.history[i][1]
        assert rec["params"] == result.history[i][2]
        assert rec["encoded"] == pytest.approx(
            space.encode(rec["params"]).tolist())
        assert rec["wall_time_s"] >= 0.0


def test_minimize_propagates_failures_by_default():
    def always_raises(params):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        minimize(always_raises, quadratic_space(), iterations=4, seed=0)


# -- tune ---------------------------------------------------------------------------


def lr_peaked_score(hyperparams):
    # accuracy peaks when learning_rate is 1e-3, falling off in log space
    return float(np.exp(-((np.log10(hyperparams["learning_rate"]) + 3) ** 2)))


def test_tune_finds_high_scoring_hyperparameters(tmp_path):
    trials = cohort(3, seconds=8, seed=7)
    trainer = FakeTrainer(lr_peaked_score)
    path = tmp_path / "tune.jsonl"
    result = tune(trials, trainer, iterations=18, seed=0,
                  history_path=str(path))
    best = result.best_params
    assert sorted(best) == sorted(default_space().names)
    assert result.best_g <= -0.8
    assert abs(np.log10(best["learning_rate"]) + 3) < 0.6
    assert len(path.read_text().splitlines()) == 18
    assert best["batch_size"] in (16, 32, 64, 128)
    assert best["optimizer_kind"] in ("Adam", "SGDMomentum", "RMSProp")


def test_tune_is_deterministic():
    trials = cohort(2, seconds=8, seed=4)
    results = [tune(trials, FakeTrainer(lr_peaked_score), iterations=12,
                    seed=5) for _ in range(2)]
    assert [h[1] for h in results[0].history] == \
        [h[1] for h in results[1].history]
    assert results[0].best_params == results[1].best_params


class SometimesBroken(FakeTrainer):
    """Fails every fit that uses RMSProp."""

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        if hyperparams["optimizer_kind"] == "RMSProp":
            raise RuntimeError("diverged")
        return super().fit(train_trials, hyperparams, seed, val_trials)


def test_tune_scores_failed_evaluations_as_zero():
    trials = cohort(2, seconds=8, seed=4)
    result = tune(trials, SometimesBroken(lambda hp: 0.9), iterations=10,
                  seed=1)
    gs = [h[1] for h in result.history]
    assert 0.0 in gs            # the broken optimizer scored worst
    assert result.best_g < 0.0  # but healthy evaluations still won
    assert result.best_params["optimizer_kind"] != "RMSProp"


def test_tune_failures_reach_a_wrapped_objective(monkeypatch):
    # wrapped the way perfbench's tracer counts failed evaluations: around
    # the objective that make_inner_objective returns
    from adhdeepnet import optimize

    original = optimize.make_inner_objective
    raised = []

    def make_counted_objective(*args, **kwargs):
        objective = original(*args, **kwargs)

        def counted(*o_args, **o_kwargs):
            try:
                return objective(*o_args, **o_kwargs)
            except Exception as exc:
                raised.append(exc)
                raise

        return counted

    monkeypatch.setattr(optimize, "make_inner_objective",
                        make_counted_objective)
    result = tune(cohort(2, seconds=8, seed=4),
                  SometimesBroken(lambda hp: 0.9), iterations=10, seed=1)
    gs = [h[1] for h in result.history]
    assert 0 < len(raised) < len(gs)
    assert all(str(exc) == "diverged" for exc in raised)
    assert gs.count(0.0) == len(raised)


def test_tune_raises_when_everything_fails():
    trials = cohort(2, seconds=8, seed=4)

    class Broken(FakeTrainer):
        def fit(self, *args, **kwargs):
            raise RuntimeError("diverged")

    with pytest.raises(TuningError, match="failed"):
        tune(trials, Broken(lambda hp: 0.0), iterations=3, seed=0)


def test_tune_requires_four_subjects():
    trials = [t for t in cohort(2, seconds=8, seed=0)
              if not t.subject_id.endswith("001") or t.label == "HC"]
    with pytest.raises(TuningError, match="4 subjects"):
        tune(trials, FakeTrainer(lambda hp: 1.0), iterations=2, seed=0)


def test_tune_requires_two_subjects_of_each_class():
    """Four subjects, 3 ADHD and 1 HC, leave no HC subject for one inner
    half; tune refuses before any iteration, naming both counts."""
    trials = [t for t in cohort(3, seconds=8, seed=0)
              if t.label == "ADHD" or t.subject_id.endswith("000")]
    assert len({t.subject_id for t in trials}) == 4
    trainer = FakeTrainer(lambda hp: 1.0)
    with pytest.raises(TuningError,
                       match="4 subjects, 2 of each class .* got 3 ADHD "
                             "and 1 HC"):
        tune(trials, trainer, iterations=2, seed=0)
    assert trainer.fit_calls == []
