"""Release gate: one test per shipping criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -s -v``) and asserts the stated
tolerance. The numbered criteria:

 1. analytic gradients match central finite differences for every layer
 2. the SE block matches an independent scalar-loop oracle
 3. structural checks: shapes, describe() golden, parameter counts
 4. classification metrics match a brute-force confusion oracle
 5. the nested cross-subject protocol never leaks subjects anywhere
 6. the hyperparameter search recovers a known analytic optimum
 7. end-to-end discrimination on a synthetic 40-subject cohort
 8. augmentation noise statistics and sweep cardinality
 9. explainability oracles: spectra, biomarker ranking, embedding
10. byte-identical reports for identical run configurations
"""

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.cluster.vq import kmeans2
from scipy.signal import firwin

from conftest import StubModel, check_gradients, probe_weights
from adhdeepnet import cli, nn
from adhdeepnet.augment import augment_trial, augment_training_set, \
    enumerate_combos
from adhdeepnet.data import (FS, Trial, generate_synthetic, plan_folds,
                             segment_all)
from adhdeepnet.evaluate import (ConfusionCounts, evaluate_no_da, metrics,
                                 run_fold, variant_config)
from adhdeepnet.explain import band_summary, frequency_response, tsne
from adhdeepnet.model import ModelConfig, build_adhdeepnet, desk_config, \
    parameter_count
from adhdeepnet.optimize import Continuous, SearchSpace, minimize
from adhdeepnet.tensor import (Tensor, avg_pool, conv2d, depthwise_conv2d,
                               batch_norm, elu, global_avg_pool, linear,
                               relu, separable_conv2d, sigmoid)
from adhdeepnet.train import FitResult


@contextmanager
def criterion(number, detail):
    """Print the gate line for one criterion; re-raise on failure."""
    info = {"detail": detail}
    try:
        yield info
    except BaseException as err:
        print(f"[criterion {number}] FAIL - {err}")
        raise
    print(f"[criterion {number}] PASS - {info['detail']}")


# -- criterion 1: gradient correctness ----------------------------------------------


def _gradient_cases(seed):
    """One scalarized gradcheck per differentiable layer."""
    rng = np.random.default_rng(seed)

    def probed(shape):
        return Tensor(probe_weights(shape, seed=seed + 1000),
                      dtype=np.float64)

    away_from_kinks = lambda a: a + 0.2 * np.sign(a) + 0.01

    cases = {}
    x = rng.standard_normal((2, 2, 4, 5))
    k = rng.standard_normal((3, 2, 2, 3))
    cases["conv2d"] = (
        lambda ts: (conv2d(ts[0], ts[1], padding="same")
                    * probed((2, 3, 4, 5))).sum(), [x, k])

    x = rng.standard_normal((2, 2, 4, 4))
    k = rng.standard_normal((2, 2, 3, 2))
    cases["depthwise"] = (
        lambda ts: (depthwise_conv2d(ts[0], ts[1])
                    * probed((2, 4, 2, 3))).sum(), [x, k])

    x = rng.standard_normal((1, 2, 1, 8))
    dk = rng.standard_normal((2, 2, 1, 3))
    pk = rng.standard_normal((3, 4, 1, 1))
    cases["separable"] = (
        lambda ts: (separable_conv2d(ts[0], ts[1], ts[2], padding="same")
                    * probed((1, 3, 1, 8))).sum(), [x, dk, pk])

    x = rng.standard_normal((3, 2, 2, 4))
    gamma = rng.standard_normal(2) + 1.5
    beta = rng.standard_normal(2)
    rm = np.array([0.2, -0.1], np.float64)
    rv = np.array([1.5, 0.7], np.float64)
    for training in (True, False):
        cases[f"batch_norm_{'train' if training else 'infer'}"] = (
            lambda ts, tr=training: (
                batch_norm(ts[0], ts[1], ts[2], rm.copy(), rv.copy(),
                           training=tr) * probed((3, 2, 2, 4))).sum(),
            [x, gamma, beta])

    for name, op in (("elu", elu), ("relu", relu), ("sigmoid", sigmoid)):
        xa = away_from_kinks(rng.standard_normal((3, 5)))
        cases[name] = (
            lambda ts, f=op: (f(ts[0]) * probed((3, 5))).sum(), [xa])

    x = rng.standard_normal((2, 2, 4, 8))
    cases["avg_pool"] = (
        lambda ts: (avg_pool(ts[0], window=(1, 2))
                    * probed((2, 2, 4, 4))).sum(), [x])

    x = rng.standard_normal((2, 3, 4, 4))
    cases["global_avg_pool"] = (
        lambda ts: (global_avg_pool(ts[0]) * probed((2, 3, 1, 1))).sum(),
        [x])

    x = rng.standard_normal((4, 3))
    wt = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    cases["dense"] = (
        lambda ts: (linear(ts[0], ts[1], ts[2]) * probed((4, 2))).sum(),
        [x, wt, b])

    x = rng.standard_normal((2, 4, 2, 3))
    w1 = rng.standard_normal((2, 4))
    w2 = rng.standard_normal((4, 2))
    cases["se_block"] = (
        lambda ts: (nn.se_reweight(
            ts[0], nn.se_excite(nn.se_squeeze(ts[0]), ts[1], ts[2]))
            * probed((2, 4, 2, 3))).sum(), [x, w1, w2])

    logits = rng.standard_normal((4, 3)) * 2.0
    labels = np.eye(3)[rng.integers(0, 3, size=4)]
    cases["cross_entropy"] = (
        lambda ts: nn.cross_entropy_loss(ts[0], Tensor(labels,
                                                       dtype=np.float64)),
        [logits])
    return cases


def test_criterion_1_gradients_match_finite_differences():
    with criterion(1, "") as info:
        started = time.perf_counter()
        checked = 0
        for seed in range(5):
            for name, (forward, arrays) in _gradient_cases(seed).items():
                check_gradients(forward, arrays, tol=1e-4)
                checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"gradcheck sweep took {elapsed:.0f}s"
        info["detail"] = (f"{checked} layer gradchecks across 5 seeds, "
                          f"rel error < 1e-4, {elapsed:.1f}s")


# -- criterion 2: SE block scalar oracle --------------------------------------------


def test_criterion_2_se_block_matches_scalar_oracle():
    with criterion(2, "") as info:
        worst = 0.0
        for case in range(50):
            rng = np.random.default_rng(case)
            channels = int(rng.choice([4, 8, 12, 16]))
            ratio = int(rng.choice([2, 4]))
            n, h, w = rng.integers(1, 4), rng.integers(1, 4), \
                rng.integers(1, 5)
            block = nn.SEBlock(channels, ratio, rng)
            x = rng.standard_normal((n, channels, h, w)).astype(np.float32)
            out = block(Tensor(x)).data
            w1, w2 = block.w1.data, block.w2.data
            mid = channels // ratio
            ref = np.zeros_like(x)
            for i in range(n):
                s = [x[i, c].mean() for c in range(channels)]
                hmid = [max(0.0, sum(w1[j, c] * s[c]
                                     for c in range(channels)))
                        for j in range(mid)]
                for c in range(channels):
                    z = sum(w2[c, j] * hmid[j] for j in range(mid))
                    ref[i, c] = x[i, c] / (1.0 + np.exp(-z))
            worst = max(worst, float(np.abs(out - ref).max()))
            np.testing.assert_allclose(out, ref, atol=1e-6)
        info["detail"] = f"50 random cases, max |diff| {worst:.2e} <= 1e-6"


# -- criterion 3: architecture structure --------------------------------------------


def test_criterion_3_structure_describe_and_param_counts():
    with criterion(3, "") as info:
        model = build_adhdeepnet(ModelConfig(), seed=0)
        out = model.predict_proba(
            np.random.default_rng(0).standard_normal(
                (1, 19, 512)).astype(np.float32))
        assert out.shape == (1, 2)

        golden = Path(__file__).with_name("golden_describe.txt").read_text()
        table = model.describe()
        table = table if table.endswith("\n") else table + "\n"
        assert table == golden, "describe() drifted from the golden table"
        again = build_adhdeepnet(ModelConfig(), seed=99).describe()
        assert (again if again.endswith("\n") else again + "\n") == golden

        full = parameter_count(ModelConfig())
        assert full == 225_794
        # widely quoted figure for this topology; the README documents
        # where the 2,848 difference comes from
        readme = Path(__file__).resolve().parent.parent / "README.md"
        docs = readme.read_text()
        assert "225,794" in docs and "228,642" in docs

        counts = {}
        for variant in ("full", "inxception-only", "se-only", "eegnet"):
            config, build_fn = variant_config(variant)
            counts[variant] = build_fn(config, seed=0).parameter_count()
        ordering = ("full", "inxception-only", "se-only", "eegnet")
        values = [counts[v] for v in ordering]
        assert all(a > b for a, b in zip(values, values[1:])), counts
        info["detail"] = ("[1,1,19,512]->[1,2], describe() golden stable, "
                          + " > ".join(f"{v}={counts[v]}" for v in ordering))


# -- criterion 4: metric oracle ------------------------------------------------------


def _oracle_metrics(tp, fp, tn, fn):
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    if tp + fn:
        recall = tp / (tp + fn)
    else:
        recall = 1.0 if fp == 0 else 0.0
    f2 = 5 * precision * recall / (4 * precision + recall) \
        if precision + recall else 0.0
    return accuracy, precision, recall, f2


def test_criterion_4_metrics_match_bruteforce_oracle():
    with criterion(4, "") as info:
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            truth = rng.integers(0, 2, size=n)
            pred = rng.integers(0, 2, size=n)
            tp = int(np.sum((truth == 0) & (pred == 0)))
            fp = int(np.sum((truth == 1) & (pred == 0)))
            tn = int(np.sum((truth == 1) & (pred == 1)))
            fn = int(np.sum((truth == 0) & (pred == 1)))
            got = metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
            assert got == _oracle_metrics(tp, fp, tn, fn)
        hand = metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=4))
        assert hand[0] == 0.7 and hand[3] == 0.625
        info["detail"] = ("1000 random prediction sets exact; "
                          "TP=3,FP=1,FN=2,TN=4 -> acc 0.7, F2 0.625")


# -- criterion 5: protocol leakage suite ---------------------------------------------


class ProvenanceTrainer:
    """Truth-predicting stub that logs every training set handed to fit."""

    log = []

    def __init__(self, config, epochs=0, patience=0, build_fn=None):
        self.config = config

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        ProvenanceTrainer.log.append(
            (frozenset(t.subject_id for t in train_trials),
             len(train_trials)))
        result = FitResult()
        result.epochs_run = 1
        return StubModel(), result

    def predict_proba(self, model, trials):
        probs = np.zeros((len(trials), 2))
        for i, t in enumerate(trials):
            probs[i, 0 if t.label == "ADHD" else 1] = 1.0
        return probs


def test_criterion_5_nested_protocol_never_leaks_subjects():
    with criterion(5, "") as info:
        # 30 subjects; a 2:1 class mix keeps every fold's trial ratio
        # exactly at the global ratio
        recs = [r for r in generate_synthetic(20, 8, 1.0, seed=5)
                if not (r.label == "HC" and int(r.subject_id[-3:]) >= 10)]
        assert len(recs) == 30
        plan = plan_folds(recs, k=10, seed=1)
        by_subject = {}
        for trial in segment_all(recs):
            by_subject.setdefault(trial.subject_id, []).append(trial)
        combo = enumerate_combos()[0]  # C1, a single: doubles the set

        fits_checked = 0
        for fold in range(10):
            test_ids = set(plan.subjects_in(fold))
            train_ids = set(plan.subjects_not_in(fold))
            assert not train_ids & test_ids
            train_trials = [t for s in sorted(train_ids)
                            for t in by_subject[s]]
            ProvenanceTrainer.log.clear()
            run_fold({
                "fold": fold,
                "train_trials": train_trials,
                "test_trials": [t for s in sorted(test_ids)
                                for t in by_subject[s]],
                "seed": 5,
                "hyperparams": None,  # force the inner tuning loop
                "tune_iterations": 2, "tune_seed_points": 2,
                "tune_kappa": 0.1,
                "inner": ProvenanceTrainer(ModelConfig()),
                "final": ProvenanceTrainer(ModelConfig()),
                "out_dir": None, "combos": [combo],
            })
            log = ProvenanceTrainer.log
            assert len(log) == 5  # 2 tuning iterations x 2 halves + final
            for subjects, _ in log:
                assert subjects <= train_ids
                assert not subjects & test_ids
            # entries 0,1 are the two halves of tuning iteration 0 and
            # entries 2,3 of iteration 1; halves share no subject
            for a, b in ((log[0][0], log[1][0]), (log[2][0], log[3][0])):
                assert not a & b
            # augmentation provenance: the final fit saw doubled trials
            # drawn only from training subjects
            final_subjects, final_count = log[-1]
            assert final_count == 2 * sum(len(by_subject[s])
                                          for s in final_subjects)
            grown = augment_training_set(train_trials, combo, seed=fold)
            assert {t.subject_id for t in grown} <= train_ids
            fits_checked += len(log)
        info["detail"] = (f"10 folds x 5 fits clean: no train/test or "
                          f"inner-split subject overlap, augmented trials "
                          f"all provenance-checked ({fits_checked} fits)")


# -- criterion 6: hyperparameter search sanity ---------------------------------------


def test_criterion_6_search_recovers_analytic_optimum():
    with criterion(6, "") as info:
        space = SearchSpace([
            Continuous("learning_rate", 1e-4, 1e-2, log=True),
            Continuous("dropout_rate", 0.1, 0.6),
        ])

        def g(params):
            return (np.log10(params["learning_rate"]) + 3.0) ** 2 \
                + (params["dropout_rate"] - 0.3) ** 2

        started = time.perf_counter()
        hits = 0
        for seed in range(10):
            result = minimize(g, space, iterations=40, seed=seed)
            trace = [h[1] for h in result.history]
            running = np.minimum.accumulate(trace)
            assert np.all(np.diff(running) <= 0.0)
            assert result.best_g == min(trace)
            assert g(result.best_params) == pytest.approx(result.best_g)
            lr = result.best_params["learning_rate"]
            dr = result.best_params["dropout_rate"]
            # 2% of the domain width per dimension: 0.04 of the two
            # log10 decades, 0.01 of the 0.5 dropout span
            hits += (abs(np.log10(lr) + 3.0) <= 0.04
                     and abs(dr - 0.3) <= 0.01)
        elapsed = time.perf_counter() - started
        assert hits >= 9, f"only {hits}/10 seeds converged"
        assert elapsed < 60.0, f"search sweep took {elapsed:.0f}s"
        info["detail"] = (f"{hits}/10 seeds within 2% of the optimum, "
                          f"best-so-far non-increasing, {elapsed:.0f}s")


# -- criterion 7: end-to-end synthetic discrimination --------------------------------


@pytest.mark.slow
def test_criterion_7_synthetic_cohort_discrimination():
    with criterion(7, "") as info:
        config = desk_config(temporal_filters=4, temporal_kernel=8,
                             branch_width=4, branch_sep_kernels=(4, 8),
                             branch_pool_width=3, post_sep_kernel=8,
                             se_ratio=4)
        hyperparams = {"learning_rate": 2e-3, "dropout_rate": 0.25,
                       "batch_size": 64, "norm_rate": 2.0,
                       "optimizer_kind": "Adam"}
        started = time.perf_counter()
        subject_means, sample_means = [], []
        for seed in (0, 1, 2):
            recs = generate_synthetic(20, 120, 0.8, seed=seed)
            report = evaluate_no_da(recs, k=10, seed=seed, config=config,
                                    hyperparams=hyperparams,
                                    final_epochs=6, final_patience=6,
                                    workers=1)
            avg = report.averages()
            subject_means.append(avg["subject_accuracy"]["mean"])
            sample_means.append(avg["sample_accuracy"]["mean"])
        subject_median = statistics.median(subject_means)
        sample_median = statistics.median(sample_means)
        elapsed = time.perf_counter() - started
        assert subject_median >= 0.90, subject_means
        assert sample_median >= 0.80, sample_means
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"
        info["detail"] = (f"median over 3 seeds: subject "
                          f"{subject_median:.3f} >= 0.90, sample "
                          f"{sample_median:.3f} >= 0.80, {elapsed:.0f}s")


# -- criterion 8: augmentation statistics --------------------------------------------


def test_criterion_8_noise_statistics_and_sweep_shape():
    with criterion(8, "") as info:
        rng = np.random.default_rng(8)
        window = np.zeros((19, 512), dtype=np.float32)
        base = Trial("s-000", 0, window, "ADHD")
        worst = 0.0
        for m in (1, 2, 3):
            for sigma in (0.1, 0.01, 0.001):
                draws = []
                noise_rng = np.random.default_rng([8, m])
                while sum(d.size for d in draws) < 100_000:
                    draws.append(augment_trial(base, m, sigma,
                                               noise_rng).window)
                sample = np.concatenate([d.ravel() for d in draws])
                rel = abs(sample.std() - m * sigma) / (m * sigma)
                worst = max(worst, rel)
                assert rel <= 0.02, (m, sigma, rel)

        combos = enumerate_combos()
        assert len(combos) == 18
        assert [c.id for c in combos] == [f"C{i}" for i in range(1, 19)]
        assert sum(not c.is_double for c in combos) == 9
        assert sum(c.is_double for c in combos) == 9

        trials = [Trial(f"s-{i:03d}", j, window, "ADHD")
                  for i in range(3) for j in range(4)]
        single = augment_training_set(trials, combos[0], seed=0)
        double = augment_training_set(trials, combos[9], seed=0)
        assert len(single) == 2 * len(trials)
        assert len(double) == 5 * len(trials)
        info["detail"] = (f"noise std within {worst:.3%} (<2%) at n=1e5; "
                          f"single x2, double x5; exactly 18 combos")


# -- criterion 9: explainability oracles ---------------------------------------------


def test_criterion_9_explainability_oracles():
    with criterion(9, "") as info:
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(5):
            taps = rng.standard_normal(64)
            spectrum = frequency_response(taps)
            # 513 grid points over [0, 64] Hz step exactly the 1024-point
            # FFT bin width, so the oracle is an equality check
            oracle = np.abs(np.fft.rfft(taps, 1024))[:513]
            worst = max(worst, float(np.abs(spectrum.amplitude
                                            - oracle).max()))
            np.testing.assert_allclose(spectrum.amplitude, oracle,
                                       atol=1e-6)

        config = ModelConfig(temporal_filters=4, temporal_kernel=64,
                             branch_width=4, branch_sep_kernels=(4, 8),
                             post_sep_kernel=8, se_ratio=4)
        model = build_adhdeepnet(config, seed=0)
        kernel = model._by_name["temporal_conv"].kernel
        theta_bp = firwin(64, [4.0, 8.0], pass_zero=False, fs=FS)
        impulse = np.zeros(64)
        impulse[0] = 1.0
        for i, taps in enumerate([theta_bp, impulse, impulse, impulse]):
            kernel.data[i, 0, 0, :] = np.asarray(taps, dtype=np.float32)
        _, ranking = band_summary(model)
        assert ranking[0] == 0, "planted 4-8 Hz filter must rank first"

        n_per = 100
        a = rng.normal(0.0, 1.0, (n_per, 10))
        b = rng.normal(0.0, 1.0, (n_per, 10)) + 8.0
        labels = np.array([0] * n_per + [1] * n_per)
        embedding = tsne(np.vstack([a, b]), perplexity=30.0,
                         iterations=600)
        assert embedding.final_kl < embedding.initial_kl
        _, assigned = kmeans2(embedding.points, 2, minit="++", seed=3)
        agreement = max(np.mean(assigned == labels),
                        np.mean(assigned == 1 - labels))
        assert agreement >= 0.95
        info["detail"] = (f"DTFT matches FFT (max diff {worst:.1e}); "
                          f"theta filter ranks first; cluster agreement "
                          f"{agreement:.0%}, KL {embedding.initial_kl:.2f}"
                          f"->{embedding.final_kl:.2f}")


# -- criterion 10: run-config determinism --------------------------------------------


def test_criterion_10_identical_configs_identical_reports(tmp_path):
    with criterion(10, "") as info:
        data_dir = tmp_path / "cohort"
        assert cli.main(["synth", "--subjects", "4", "--seconds", "16",
                         "--separation", "0.8", "--seed", "7",
                         "--out", str(data_dir)]) == 0
        shared = ["--data", str(data_dir), "--k", "2", "--seed", "3",
                  "--workers", "1", "--no-tune", "--epochs", "2",
                  "--batch-size", "8", "--preset", "desk",
                  "--model", "temporal_filters=4",
                  "--model", "temporal_kernel=8",
                  "--model", "branch_width=4",
                  "--model", "branch_sep_kernels=[4,8]",
                  "--model", "branch_pool_width=3",
                  "--model", "post_sep_kernel=8",
                  "--model", "se_ratio=4"]
        first = tmp_path / "run1"
        assert cli.main(["evaluate", *shared, "--out", str(first)]) == 0
        second = tmp_path / "run2"
        assert cli.main(["evaluate", "--config",
                         str(first / "run_config.json"),
                         "--out", str(second)]) == 0
        bytes_a = (first / "report.json").read_bytes()
        bytes_b = (second / "report.json").read_bytes()
        assert bytes_a == bytes_b
        config_a = json.loads((first / "run_config.json").read_text())
        config_b = json.loads((second / "run_config.json").read_text())
        for key in ("seed", "data", "bo", "options", "model"):
            assert config_a[key] == config_b[key]
        info["detail"] = (f"two runs of one RunConfig: report.json "
                          f"byte-identical ({len(bytes_a)} bytes, "
                          f"workers=1)")
