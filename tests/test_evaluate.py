"""Metrics, confusion counting, and the cross-subject evaluation protocol."""

import json
from zlib import crc32

import numpy as np
import pytest

from adhdeepnet.augment import enumerate_combos
from adhdeepnet.data import (canonical_json, generate_synthetic,
                             validation_slice)
from adhdeepnet.evaluate import (
    ABLATION_VARIANTS,
    ConfusionCounts,
    EvalReport,
    LeakageError,
    ablation_run,
    atomic_write_text,
    auc_from_scores,
    config_hash,
    evaluate_no_da,
    evaluate_with_da,
    metrics,
    run_fold,
    variant_config,
)
from adhdeepnet.model import ModelConfig
from adhdeepnet.train import FitResult, Trainer
from conftest import StubModel

# -- metric oracles ------------------------------------------------------------------


def test_metrics_hand_case():
    acc, precision, recall, f2 = metrics(ConfusionCounts(tp=3, fp=1, tn=4,
                                                         fn=2))
    assert acc == pytest.approx(0.7)
    assert precision == pytest.approx(0.75)
    assert recall == pytest.approx(0.6)
    assert f2 == pytest.approx(0.625)


def test_metrics_symmetric_case():
    assert metrics(ConfusionCounts(1, 1, 1, 1)) == \
        pytest.approx((0.5, 0.5, 0.5, 0.5))


def test_metrics_perfect_classifier():
    assert metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0)) == \
        pytest.approx((1.0, 1.0, 1.0, 1.0))


def test_metrics_zero_denominator_conventions():
    # nothing predicted positive -> precision 0
    _, precision, _, f2 = metrics(ConfusionCounts(tp=0, fp=0, tn=3, fn=2))
    assert precision == 0.0
    assert f2 == 0.0
    # no true positives anywhere and none invented -> recall 1
    _, _, recall, _ = metrics(ConfusionCounts(tp=0, fp=0, tn=4, fn=0))
    assert recall == 1.0
    # no true positives but false alarms exist -> recall 0
    _, _, recall, f2 = metrics(ConfusionCounts(tp=0, fp=2, tn=3, fn=0))
    assert recall == 0.0
    assert f2 == 0.0


def test_metrics_empty_counts_rejected():
    with pytest.raises(ValueError, match="at least one"):
        metrics(ConfusionCounts())


def test_confusion_counts_validation():
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionCounts(tp=-1)
    with pytest.raises(ValueError, match="mismatch"):
        ConfusionCounts.from_indices([0, 1], [0])


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        predicted = rng.integers(0, 2, n)
        actual = rng.integers(0, 2, n)
        counts = ConfusionCounts.from_indices(predicted, actual)
        tp = fp = tn = fn = 0
        for p, a in zip(predicted, actual):
            if p == 0 and a == 0:
                tp += 1
            elif p == 0 and a == 1:
                fp += 1
            elif p == 1 and a == 1:
                tn += 1
            else:
                fn += 1
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == \
            (tp, fp, tn, fn)
        acc, precision, recall, f2 = metrics(counts)
        assert acc == (tp + tn) / n
        if tp + fp:
            assert precision == tp / (tp + fp)
        if tp + fn:
            assert recall == tp / (tp + fn)
        if precision + recall:
            assert f2 == pytest.approx(
                5 * precision * recall / (4 * precision + recall))


def test_auc_orderings():
    # 0 is the positive class index
    assert auc_from_scores([0.9, 0.8, 0.3, 0.1], [0, 0, 1, 1]) == 1.0
    assert auc_from_scores([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 0.0
    assert auc_from_scores([0.5, 0.5, 0.5, 0.5], [0, 0, 1, 1]) == 0.5
    assert auc_from_scores([0.9, 0.3, 0.8, 0.1], [0, 0, 1, 1]) == \
        pytest.approx(0.75)
    assert np.isnan(auc_from_scores([0.5, 0.6], [0, 0]))


def _rankdata_auc(scores, actual):
    """The AUC from scipy's average ranks, as the metric was first written."""
    from scipy.stats import rankdata
    pos = np.asarray(actual) == 0
    n_pos = int(pos.sum())
    u = rankdata(scores)[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * (len(actual) - n_pos)))


def _oracle_draws(seed, count):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 200))
        actual = rng.permutation(np.r_[0, 1, rng.integers(0, 2, n - 2)])
        kind = i % 4
        if kind == 0:  # continuous, ties unlikely
            scores = rng.random(n)
        elif kind == 1:  # heavy ties: a handful of distinct values
            scores = rng.integers(0, 4, n) / 4.0
        elif kind == 2:  # ties among infinities and signed zeros
            scores = rng.choice([-np.inf, -0.0, 0.0, 0.5, np.inf], n)
        else:  # all equal
            scores = np.full(n, rng.normal())
        yield scores, actual


def test_auc_matches_rankdata_exactly():
    for scores, actual in _oracle_draws(seed=1301, count=2000):
        assert auc_from_scores(scores, actual) \
            == _rankdata_auc(scores, actual), (scores, actual)


def test_auc_of_any_nan_score_is_nan():
    scores = [0.9, np.nan, 0.3, 0.1]
    assert np.isnan(auc_from_scores(scores, [0, 0, 1, 1]))
    assert np.isnan(_rankdata_auc(scores, [0, 0, 1, 1]))


# -- report assembly ----------------------------------------------------------------


def fold_stub(i, sample_acc):
    return {"fold": i, "sample_accuracy": sample_acc,
            "subject_accuracy": 1.0, "sample_f2": 0.5, "subject_f2": 1.0,
            "auc": None}


def test_report_average_is_arithmetic_mean():
    report = EvalReport(mode="no-da", seed=0, k=10, config_hash="x")
    values = [0.1 * i for i in range(10)]
    report.folds = [fold_stub(i, v) for i, v in enumerate(values)]
    avg = report.averages()
    assert avg["sample_accuracy"]["mean"] == \
        pytest.approx(np.mean(values), abs=1e-12)
    assert avg["sample_accuracy"]["std"] == \
        pytest.approx(np.std(values), abs=1e-12)
    assert avg["subject_accuracy"]["std"] == 0.0
    assert len(report.metric_vector("sample_accuracy")) == 10


def test_report_text_rendering():
    report = EvalReport(mode="no-da", seed=3, k=2, config_hash="abc")
    report.folds = [fold_stub(0, 0.75), fold_stub(1, 0.85)]
    text = report.render_text()
    assert "mode=no-da seed=3" in text
    assert "n/a" in text  # missing auc
    assert "0.8000" in text  # the mean row
    lines = text.splitlines()
    assert lines[-2].strip().startswith("mean")
    assert lines[-1].strip().startswith("std")


def test_config_hash_stable_and_sensitive():
    a = config_hash(ModelConfig(), {"mode": "no-da"})
    b = config_hash(ModelConfig(), {"mode": "no-da"})
    c = config_hash(ModelConfig(branch_width=16), {"mode": "no-da"})
    d = config_hash(ModelConfig(), {"mode": "da"})
    assert a == b
    assert len({a, c, d}) == 3


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "deep" / "report.json"
    atomic_write_text(str(target), "first")
    atomic_write_text(str(target), "second")
    assert target.read_text() == "second"
    assert list(target.parent.glob("*.tmp")) == []


# -- stub trainers (module level so process pools can pickle them) -------------------


class OracleTrainer:
    """Memorizes nothing, cheats fully: predicts each trial's true label."""

    def __init__(self, config, epochs=0, patience=0, build_fn=None):
        self.config = config

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        result = FitResult()
        result.epochs_run = 1
        return StubModel(), result

    def predict_proba(self, model, trials):
        probs = np.zeros((len(trials), 2))
        for i, t in enumerate(trials):
            probs[i, 0 if t.label == "ADHD" else 1] = 1.0
        return probs


class SubjectHashTrainer(OracleTrainer):
    """Label-blind stub: predicts from a hash of the subject id, which is
    uncorrelated with the class, so accuracy sits in the chance band."""

    def predict_proba(self, model, trials):
        probs = np.zeros((len(trials), 2))
        for i, t in enumerate(trials):
            probs[i, crc32(t.subject_id.encode()) % 2] = 1.0
        return probs


class MostSegmentsCorrectTrainer(OracleTrainer):
    """Wrong on segment 1 of every subject, right elsewhere: subject-level
    aggregation should fix every mistake when subjects have 3 segments."""

    def predict_proba(self, model, trials):
        probs = np.zeros((len(trials), 2))
        for i, t in enumerate(trials):
            truth = 0 if t.label == "ADHD" else 1
            col = truth if t.segment_index != 1 else 1 - truth
            probs[i, col] = 1.0
        return probs


class RecordingTrainer(OracleTrainer):
    """Logs every (train subjects, seed) pair handed to fit()."""

    log = []

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        RecordingTrainer.log.append(
            ({t.subject_id for t in train_trials}, seed))
        return super().fit(train_trials, hyperparams, seed, val_trials)


class FailAfterFirstTrainer(OracleTrainer):
    calls = []

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        FailAfterFirstTrainer.calls.append(seed)
        if len(FailAfterFirstTrainer.calls) > 1:
            raise RuntimeError("synthetic fold failure")
        return super().fit(train_trials, hyperparams, seed, val_trials)


HP = {"learning_rate": 1e-3, "dropout_rate": 0.25, "batch_size": 32,
      "norm_rate": 1.0, "optimizer_kind": "Adam"}


def small_cohort(n_per_class=4, seconds=8, seed=0):
    return generate_synthetic(n_per_class, seconds, 1.0, seed=seed)


# -- protocol ----------------------------------------------------------------------


def test_validation_slice_subject_disjoint():
    from adhdeepnet.data import segment_all
    trials = segment_all(small_cohort(10, 8))
    core, val = validation_slice(trials, np.random.default_rng(0))
    core_subjects = {t.subject_id for t in core}
    val_subjects = {t.subject_id for t in val}
    assert not core_subjects & val_subjects
    assert len(val_subjects) == 2  # one per class at 10%
    assert {t.label for t in core} == {"ADHD", "HC"}
    assert {t.label for t in val} == {"ADHD", "HC"}


def test_validation_slice_skipped_when_too_small():
    from adhdeepnet.data import segment_all
    trials = segment_all(small_cohort(1, 8))
    core, val = validation_slice(trials, np.random.default_rng(0))
    assert val == []
    assert core == trials


def test_oracle_trainer_scores_perfectly_everywhere():
    report = evaluate_no_da(small_cohort(10, 8), k=10, seed=0,
                            hyperparams=HP, trainer_factory=OracleTrainer)
    assert len(report.folds) == 10
    avg = report.averages()
    for key in ("sample_accuracy", "subject_accuracy", "sample_f2",
                "subject_f2"):
        assert avg[key]["mean"] == 1.0
        assert avg[key]["std"] == 0.0
    covered = [s for fold in report.folds for s in fold["test_subjects"]]
    assert len(covered) == 20
    assert len(set(covered)) == 20


def test_label_blind_trainer_lands_in_chance_band():
    report = evaluate_no_da(small_cohort(10, 8), k=10, seed=0,
                            hyperparams=HP,
                            trainer_factory=SubjectHashTrainer)
    subject_acc = report.averages()["subject_accuracy"]["mean"]
    assert 0.3 <= subject_acc <= 0.7


def test_subject_aggregation_outvotes_minority_errors():
    report = evaluate_no_da(small_cohort(4, 12), k=2, seed=0,
                            hyperparams=HP,
                            trainer_factory=MostSegmentsCorrectTrainer)
    avg = report.averages()
    assert avg["subject_accuracy"]["mean"] == 1.0
    assert avg["sample_accuracy"]["mean"] == pytest.approx(2.0 / 3.0)


def test_report_json_is_deterministic():
    runs = [canonical_json(
        evaluate_no_da(small_cohort(4, 8), k=2, seed=5, hyperparams=HP,
                       trainer_factory=OracleTrainer).to_json_dict())
        for _ in range(2)]
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["mode"] == "no-da"
    assert len(payload["folds"]) == 2


def test_parallel_folds_match_serial():
    recs = small_cohort(4, 8)
    serial = evaluate_no_da(recs, k=2, seed=1, hyperparams=HP,
                            trainer_factory=OracleTrainer, workers=1)
    parallel = evaluate_no_da(recs, k=2, seed=1, hyperparams=HP,
                              trainer_factory=OracleTrainer, workers=2)
    assert canonical_json(serial.to_json_dict()) \
        == canonical_json(parallel.to_json_dict())


def test_tuning_path_runs_and_reports_budget():
    report = evaluate_no_da(small_cohort(4, 8), k=2, seed=0,
                            trainer_factory=OracleTrainer,
                            tune_iterations=2, tune_seed_points=2)
    for fold in report.folds:
        assert fold["tuning_evaluations"] == 2
        assert fold["hyperparams"]["optimizer_kind"] in (
            "Adam", "SGDMomentum", "RMSProp")


def test_leakage_guard_rejects_overlapping_fold():
    from adhdeepnet.data import segment_all
    trials = segment_all(small_cohort(2, 8))
    subjects = sorted({t.subject_id for t in trials})
    poisoned = subjects[0]
    task = {
        "fold": 0,
        "train_trials": trials,  # includes the test subject
        "test_trials": [t for t in trials if t.subject_id == poisoned],
        "seed": 0,
        "hyperparams": dict(HP),
        "tune_iterations": 1, "tune_seed_points": 1, "tune_kappa": 0.1,
        "inner": OracleTrainer(ModelConfig()),
        "final": OracleTrainer(ModelConfig()),
        "out_dir": None, "combos": [None],
    }
    with pytest.raises(LeakageError, match="^fold 0: subjects on both sides"):
        run_fold(task)


@pytest.mark.parametrize("boundary", ["fold 0 validation slice",
                                      "inner split"])
def test_leakage_guard_names_each_boundary_inside_a_fold(monkeypatch,
                                                         boundary):
    """The early-stopping slice and the tuning halves split through
    ``data.split_subjects``; a boundary that let a subject through would
    raise, naming itself, and tuning would not score it as a failed
    evaluation."""
    from adhdeepnet import data
    assert LeakageError is data.LeakageError
    check = data.check_disjoint
    # each side drawn inside the fold gets one trial of the other side
    monkeypatch.setattr(data, "check_disjoint", lambda a, b, context: check(
        a, list(b) + list(a[:1]), context))
    trials = data.segment_all(small_cohort(4, 8))
    held_out = {"adhd-000", "hc-000"}
    task = {
        "fold": 0,
        "train_trials": [t for t in trials if t.subject_id not in held_out],
        "test_trials": [t for t in trials if t.subject_id in held_out],
        "seed": 0,
        "hyperparams": dict(HP) if "slice" in boundary else None,
        "tune_iterations": 2, "tune_seed_points": 2, "tune_kappa": 0.1,
        "inner": OracleTrainer(ModelConfig()),
        "final": OracleTrainer(ModelConfig()),
        "out_dir": None, "combos": [None],
    }
    with pytest.raises(LeakageError,
                       match=f"^{boundary}: subjects on both sides"):
        run_fold(task)


def test_fold_failure_persists_partial_results(tmp_path):
    FailAfterFirstTrainer.calls.clear()
    with pytest.raises(RuntimeError, match="synthetic fold failure"):
        evaluate_no_da(small_cohort(4, 8), k=2, seed=0, hyperparams=HP,
                       trainer_factory=FailAfterFirstTrainer,
                       out_dir=str(tmp_path))
    partial = json.loads((tmp_path / "report.partial.json").read_text())
    assert partial["completed_folds"] == [0]
    assert "synthetic fold failure" in partial["error"]


def test_trained_fold_weights_are_saved_and_loadable(tmp_path):
    config = ModelConfig(temporal_filters=4, temporal_kernel=8,
                         branch_width=4, branch_sep_kernels=(4, 8),
                         post_sep_kernel=8, se_ratio=4)
    report = evaluate_no_da(small_cohort(2, 8), k=2, seed=0,
                            hyperparams=HP, config=config,
                            final_epochs=1, out_dir=str(tmp_path))
    from adhdeepnet.model import build_adhdeepnet
    for fold in report.folds:
        path = tmp_path / fold["weights_file"]
        assert path.exists()
        build_adhdeepnet(config, seed=1).load_weights(str(path))


# -- augmentation sweep --------------------------------------------------------------


def test_sweep_reports_growth_and_ranking():
    combos = [enumerate_combos()[0], enumerate_combos()[9]]  # one single,
    # one double
    reports = evaluate_with_da(small_cohort(4, 8), combos=combos, k=2,
                               seed=0, hyperparams=HP,
                               trainer_factory=OracleTrainer)
    assert set(reports) == {"C1", "C10", "_sweep"}
    for fold_c1, fold_c10 in zip(reports["C1"].folds, reports["C10"].folds):
        # single combo doubles the core train set, double quintuples it
        assert fold_c10["n_train_trials"] * 2 == \
            fold_c1["n_train_trials"] * 5
    sweep = reports["_sweep"]
    assert sweep["best_combo"] in ("C1", "C10")
    assert sweep["worst_combo"] in ("C1", "C10")
    assert set(sweep["by_subject_accuracy"]) == {"C1", "C10"}


def test_sweep_defaults_to_all_18_combos():
    reports = evaluate_with_da(small_cohort(4, 8), k=2, seed=0,
                               hyperparams=HP,
                               trainer_factory=OracleTrainer)
    combo_ids = sorted(k for k in reports if k != "_sweep")
    assert len(combo_ids) == 18
    assert {r.combo_id for k, r in reports.items() if k != "_sweep"} == \
        set(combo_ids)


# -- ablation ----------------------------------------------------------------------


def test_variant_configs_toggle_topology():
    full, _ = variant_config("full")
    inx, _ = variant_config("inxception-only")
    se, _ = variant_config("se-only")
    _, eegnet_builder = variant_config("eegnet")
    assert full.use_inxception and full.use_se
    assert inx.use_inxception and not inx.use_se
    assert not se.use_inxception and se.use_se
    assert eegnet_builder.__name__ == "build_eegnet_baseline"
    with pytest.raises(ValueError, match="unknown variant"):
        variant_config("half")


def test_ablation_reports_have_distinct_hashes():
    reports = ablation_run(small_cohort(4, 8), k=2, seed=0, hyperparams=HP,
                           trainer_factory=OracleTrainer)
    assert set(reports) == set(ABLATION_VARIANTS)
    hashes = {r.config_hash for r in reports.values()}
    assert len(hashes) == 4
    for variant, report in reports.items():
        assert report.mode == "ablation"
        assert report.variant == variant


# -- full protocol leakage suite ------------------------------------------------------


def test_no_subject_crosses_any_training_boundary():
    from adhdeepnet.data import plan_folds, segment_all
    recs = small_cohort(10, 8)
    plan = plan_folds(recs, k=10, seed=0)
    by_subject = {}
    for trial in segment_all(recs):
        by_subject.setdefault(trial.subject_id, []).append(trial)
    for fold in range(10):
        test_ids = set(plan.subjects_in(fold))
        train_ids = set(plan.subjects_not_in(fold))
        RecordingTrainer.log.clear()
        run_fold({
            "fold": fold,
            "train_trials": [t for s in sorted(train_ids)
                             for t in by_subject[s]],
            "test_trials": [t for s in sorted(test_ids)
                            for t in by_subject[s]],
            "seed": 0,
            "hyperparams": None,  # force the inner tuning path
            "tune_iterations": 2, "tune_seed_points": 2, "tune_kappa": 0.1,
            "inner": RecordingTrainer(ModelConfig()),
            "final": RecordingTrainer(ModelConfig()),
            "out_dir": None, "combos": [None],
        })
        # tuning fits (2 iterations x 2 halves) plus the final fit
        assert len(RecordingTrainer.log) == 5
        for fitted, _ in RecordingTrainer.log:
            assert fitted <= train_ids
            assert not fitted & test_ids
