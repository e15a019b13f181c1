"""Cross-subject evaluation protocol: outer k-fold loop over whole subjects,
optional per-fold hyperparameter tuning on the training subjects only, final
retraining with a held-out validation slice, and sample- plus subject-level
metric reports.

One function, ``_run_protocol``, runs every protocol: the augmentation
sweep retrains each fold once per combo, the plain run is the one-combo
case ``[None]`` (combo id ""), and the ablation runs the plain case once
per topology variant.

Fold work is deterministic given (seed, fold index), so running folds in a
process pool returns byte-identical reports to a serial run. Reports carry
no timestamps for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import optimize
from .augment import augment_training_set, enumerate_combos
from .data import (CHANNELS, LABELS, WINDOW, LeakageError,
                   aggregate_subject, atomic_write_text, check_disjoint,
                   class_index, plan_folds, segment_all, validation_slice)
from .model import (ModelConfig, build_adhdeepnet, build_eegnet_baseline)
from .train import Trainer

POSITIVE_INDEX = class_index("ADHD")  # ADHD counts as positive

DEFAULT_HYPERPARAMS = {
    "learning_rate": 1e-3,
    "dropout_rate": 0.25,
    "batch_size": 32,
    "norm_rate": 1.0,
    "optimizer_kind": "Adam",
}

ABLATION_VARIANTS = ("full", "inxception-only", "se-only", "eegnet")


# -- metrics ------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for name, v in (("tp", self.tp), ("fp", self.fp),
                        ("tn", self.tn), ("fn", self.fn)):
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative int, "
                                 f"got {v}")

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_indices(cls, predicted, actual):
        """Counts from parallel arrays of class indices (0 = positive)."""
        predicted = np.asarray(predicted)
        actual = np.asarray(actual)
        if predicted.shape != actual.shape:
            raise ValueError(
                f"prediction/label shape mismatch: {predicted.shape} vs "
                f"{actual.shape}")
        pos_pred = predicted == POSITIVE_INDEX
        pos_true = actual == POSITIVE_INDEX
        return cls(tp=int(np.sum(pos_pred & pos_true)),
                   fp=int(np.sum(pos_pred & ~pos_true)),
                   tn=int(np.sum(~pos_pred & ~pos_true)),
                   fn=int(np.sum(~pos_pred & pos_true)))


def metrics(counts):
    """(accuracy, precision, recall, f2) with explicit zero conventions.

    An empty confusion table is an argument error. Precision defaults to 0
    when nothing was predicted positive; recall defaults to 1 when there
    are no positives at all (nothing to miss) and 0 when positives exist
    but none were found; F2 is 0 whenever both P and R are 0.
    """
    if counts.total == 0:
        raise ValueError("metrics need at least one evaluated unit")
    accuracy = (counts.tp + counts.tn) / counts.total
    precision = counts.tp / (counts.tp + counts.fp) \
        if counts.tp + counts.fp else 0.0
    if counts.tp + counts.fn:
        recall = counts.tp / (counts.tp + counts.fn)
    else:
        recall = 1.0 if counts.fp == 0 else 0.0
    f2 = 5.0 * precision * recall / (4.0 * precision + recall) \
        if precision + recall else 0.0
    return accuracy, precision, recall, f2


def auc_from_scores(scores, actual):
    """Rank-based AUC of positive-class scores; ties get half credit.

    Tied scores share the average of their ranks, so every rank is an exact
    half-integer; any NaN score makes the AUC NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    actual = np.asarray(actual)
    pos = actual == POSITIVE_INDEX
    n_pos = int(pos.sum())
    n_neg = len(actual) - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(scores).any():
        return float("nan")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    ranks = np.empty(len(scores))
    # a tie group at 0-based [start, end) holds ranks start+1 .. end
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# -- report -----------------------------------------------------------------------------


METRIC_KEYS = ("sample_accuracy", "subject_accuracy", "sample_f2",
               "subject_f2")


@dataclass
class EvalReport:
    mode: str
    seed: int
    k: int
    config_hash: str
    combo_id: str = ""
    variant: str = ""
    folds: list = field(default_factory=list)

    def metric_vector(self, key):
        return [fold[key] for fold in self.folds]

    def averages(self):
        out = {}
        for key in METRIC_KEYS:
            values = np.asarray(self.metric_vector(key), dtype=np.float64)
            out[key] = {"mean": float(values.mean()),
                        "std": float(values.std())}
        return out

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "seed": self.seed,
            "k": self.k,
            "config_hash": self.config_hash,
            "combo_id": self.combo_id,
            "variant": self.variant,
            "folds": self.folds,
            "averages": self.averages(),
        }

    def render_text(self):
        lines = []
        title = f"mode={self.mode} seed={self.seed} config={self.config_hash}"
        if self.combo_id:
            title += f" combo={self.combo_id}"
        if self.variant:
            title += f" variant={self.variant}"
        lines.append(title)
        header = f"{'fold':>4}" + "".join(f"{k:>18}" for k in METRIC_KEYS) \
            + f"{'auc':>10}"
        lines.append(header)
        for fold in self.folds:
            row = f"{fold['fold']:>4}"
            row += "".join(f"{fold[k]:>18.4f}" for k in METRIC_KEYS)
            auc = fold["auc"]
            row += f"{auc:>10.4f}" if auc is not None else f"{'n/a':>10}"
            lines.append(row)
        avg = self.averages()
        mean_row = f"{'mean':>4}" + "".join(
            f"{avg[k]['mean']:>18.4f}" for k in METRIC_KEYS)
        std_row = f"{'std':>4}" + "".join(
            f"{avg[k]['std']:>18.4f}" for k in METRIC_KEYS)
        lines.append(mean_row)
        lines.append(std_row)
        return "\n".join(lines) + "\n"


def config_hash(config, extra=None):
    """Stable short hash of a model config plus protocol settings."""
    # the input shape is part of what a report depends on
    payload = {"config": {"channels": len(CHANNELS), "time_steps": WINDOW,
                          "classes": len(LABELS), **asdict(config)}}
    if extra:
        payload["extra"] = extra
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# -- fold execution --------------------------------------------------------------------


def _fold_seed(seed, fold):
    ss = np.random.SeedSequence([int(seed), int(fold)])
    return int(ss.generate_state(1)[0])


def _score_model(trainer, model, test_trials):
    probs = trainer.predict_proba(model, test_trials)
    actual = np.asarray([class_index(t.label) for t in test_trials])
    predicted = np.argmax(probs, axis=1)
    sample_counts = ConfusionCounts.from_indices(predicted, actual)
    auc = auc_from_scores(probs[:, POSITIVE_INDEX], actual)

    by_subject = {}
    for t, p in zip(test_trials, probs):
        by_subject.setdefault(t.subject_id, ([], t.label))[0].append(p)
    subj_pred = []
    subj_true = []
    for subject in sorted(by_subject):
        preds, label = by_subject[subject]
        subj_pred.append(class_index(aggregate_subject(preds)))
        subj_true.append(class_index(label))
    subject_counts = ConfusionCounts.from_indices(subj_pred, subj_true)
    return sample_counts, subject_counts, auc


def _counts_dict(counts, kind):
    accuracy, precision, recall, f2 = metrics(counts)
    return {f"{kind}_tp": counts.tp, f"{kind}_fp": counts.fp,
            f"{kind}_tn": counts.tn, f"{kind}_fn": counts.fn,
            f"{kind}_accuracy": accuracy, f"{kind}_precision": precision,
            f"{kind}_recall": recall, f"{kind}_f2": f2}


def run_fold(task):
    """Evaluate one outer fold; pure function of the task dict that
    ``_fold_tasks`` builds. Returns one record per evaluation (one for the
    plain run, one per augmentation combo otherwise)."""
    fold = task["fold"]
    train_trials = task["train_trials"]
    test_trials = task["test_trials"]
    seed = task["seed"]
    print(f"[fold {fold}] start train_trials={len(train_trials)} "
          f"test_trials={len(test_trials)}", file=sys.stderr)
    check_disjoint(train_trials, test_trials, f"fold {fold}")
    fold_seed = _fold_seed(seed, fold)
    final = task["final"]
    hyperparams = task["hyperparams"]
    tuning_evaluations = None
    if hyperparams is None:
        tuned = optimize.tune(
            train_trials, task["inner"], iterations=task["tune_iterations"],
            seed=fold_seed % (2 ** 31),
            n_seed_points=task["tune_seed_points"], kappa=task["tune_kappa"])
        hyperparams = tuned.best_params
        tuning_evaluations = len(tuned.history)

    rng = np.random.default_rng([seed, fold, 17])
    core, val = validation_slice(
        train_trials, rng, context=f"fold {fold} validation slice")

    records = []
    train_subjects = {t.subject_id for t in train_trials}
    for combo in task["combos"]:
        if combo is None:
            fit_trials = core
            combo_id = ""
        else:
            fit_trials = augment_training_set(core, combo, seed=fold_seed)
            combo_id = combo.id
            grown = {t.subject_id for t in fit_trials}
            if not grown <= train_subjects:
                raise LeakageError(
                    f"fold {fold} combo {combo_id}: augmentation introduced "
                    f"foreign subjects {sorted(grown - train_subjects)[:5]}")
        model, fit = final.fit(fit_trials, hyperparams, seed=fold_seed,
                               val_trials=val or None)
        sample_counts, subject_counts, auc = _score_model(
            final, model, test_trials)
        record = {
            "fold": fold,
            "combo_id": combo_id,
            "test_subjects": sorted({t.subject_id for t in test_trials}),
            "n_train_trials": len(fit_trials),
            "n_test_trials": len(test_trials),
            "hyperparams": dict(hyperparams),
            "epochs_run": fit.epochs_run,
            "auc": auc if auc == auc else None,  # NaN is not valid JSON
        }
        record.update(_counts_dict(sample_counts, "sample"))
        record.update(_counts_dict(subject_counts, "subject"))
        if tuning_evaluations is not None:
            record["tuning_evaluations"] = tuning_evaluations
        if task["out_dir"]:
            suffix = f"_{combo_id}" if combo_id else ""
            path = os.path.join(task["out_dir"],
                                f"fold_{fold:02d}{suffix}.weights")
            model.save_weights(path)
            record["weights_file"] = os.path.basename(path)
        records.append(record)
    print(f"[fold {fold}] done", file=sys.stderr)
    return fold, records


# -- protocol drivers -------------------------------------------------------------------


def _fold_tasks(recordings, k, seed, settings):
    """Per fold: its index, trials and the seed, plus the shared settings
    (search, ``hyperparams``, ``inner``/``final`` trainers, combos, out)."""
    plan = plan_folds(recordings, k=k,
                      seed=int(np.random.default_rng([seed, 11])
                               .integers(2 ** 31)))
    by_subject = {}
    for trial in segment_all(recordings):
        by_subject.setdefault(trial.subject_id, []).append(trial)
    tasks = []
    for fold in range(k):
        test_ids = plan.subjects_in(fold)
        train_ids = plan.subjects_not_in(fold)
        task = {
            "fold": fold,
            "train_trials": [t for s in train_ids for t in by_subject[s]],
            "test_trials": [t for s in test_ids for t in by_subject[s]],
            "seed": seed,
        }
        task.update(settings)
        tasks.append(task)
    return tasks


def _run_folds(tasks, workers, out_dir=None):
    """Run fold tasks, serially or on a process pool.

    A fold failure aborts the run, but records completed so far are
    persisted to ``<out_dir>/report.partial.json`` first."""
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    results = {}
    error = None
    if workers <= 1:
        for task in tasks:
            try:
                fold, records = run_fold(task)
            except Exception as exc:
                error = exc
                break
            results[fold] = records
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_fold, task) for task in tasks]
            done, pending = wait(futures, return_when=FIRST_EXCEPTION)
            for future in pending:
                future.cancel()
            for future in done:
                if future.cancelled():
                    continue
                if future.exception() is not None:
                    error = future.exception()
                    continue
                fold, records = future.result()
                results[fold] = records
    ordered = [results[f] for f in sorted(results)]
    if error is not None:
        if out_dir:
            partial = {"completed_folds": sorted(results),
                       "records": ordered, "error": repr(error)}
            atomic_write_text(
                os.path.join(out_dir, "report.partial.json"),
                json.dumps(partial, sort_keys=True, indent=2,
                           default=str) + "\n")
        raise error
    return ordered


def _refuse_duplicates(kind, ids):
    """A repeated id would run its folds twice into one report."""
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValueError(f"duplicate {kind} ids {repeated}")


def _run_protocol(recordings, combos, mode, k=10, seed=0, config=None,
                  hyperparams=None, tune_iterations=25, tune_seed_points=10,
                  tune_kappa=optimize.KAPPA_DEFAULT, workers=1,
                  out_dir=None, trainer_factory=Trainer,
                  build_fn=build_adhdeepnet, inner_epochs=30,
                  inner_patience=6, final_epochs=100, final_patience=10,
                  variant="", hash_extra=None):
    """Every protocol's fold loop: k outer folds, each tuned once (or run
    with the fixed ``hyperparams``), then retrained once per entry of
    ``combos`` (``None`` = no augmentation, combo id ""). Returns
    {combo_id: EvalReport} in ``combos`` order. The inner (tuning) and
    final trainers are built once, so they and the tuning settings are
    checked before any fold runs, also when fixed ``hyperparams`` leave
    them unused; they must be picklable when ``workers`` > 1."""
    optimize.check_search(tune_iterations, tune_seed_points, tune_kappa)
    _refuse_duplicates("combo", [c.id for c in combos if c is not None])
    if inner_epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {inner_epochs} for the "
                         f"inner fits")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = config or ModelConfig()
    final = trainer_factory(config, epochs=final_epochs,
                            patience=final_patience, build_fn=build_fn)
    inner = trainer_factory(config, epochs=inner_epochs,
                            patience=inner_patience, build_fn=build_fn)
    settings = {
        "hyperparams": dict(hyperparams) if hyperparams else None,
        "tune_iterations": tune_iterations,
        "tune_seed_points": tune_seed_points, "tune_kappa": tune_kappa,
        "inner": inner, "final": final, "out_dir": out_dir,
        "combos": combos,
    }
    chash = config_hash(config, hash_extra or {"mode": mode, "k": k})
    tasks = _fold_tasks(recordings, k, seed, settings)
    reports = {}
    for fold_records in _run_folds(tasks, workers, out_dir=out_dir):
        for record in fold_records:
            combo_id = record["combo_id"]
            if combo_id not in reports:
                reports[combo_id] = EvalReport(
                    mode=mode, seed=seed, k=k, config_hash=chash,
                    combo_id=combo_id, variant=variant)
            reports[combo_id].folds.append(record)
    return reports


def evaluate_no_da(recordings, **kwargs):
    """k-fold cross-subject evaluation without augmentation: the protocol
    loop run on the one combo ``None``. Keyword arguments as for
    ``_run_protocol``; with ``hyperparams=None`` each fold tunes its own
    settings on its training subjects. Returns one EvalReport."""
    return _run_protocol(recordings, [None], "no-da", **kwargs)[""]


def evaluate_with_da(recordings, combos=None, **kwargs):
    """Augmentation sweep: each fold tunes once (or uses the fixed
    hyperparameters), then retrains per combo on the augmented training
    set. Returns {combo_id: EvalReport} plus a sweep summary dict under
    the key "_sweep"."""
    combos = list(combos) if combos is not None else enumerate_combos()
    reports = _run_protocol(recordings, combos, "da", **kwargs)
    ranked = sorted(
        reports.values(),
        key=lambda r: r.averages()["subject_accuracy"]["mean"])
    reports["_sweep"] = {
        "best_combo": ranked[-1].combo_id,
        "worst_combo": ranked[0].combo_id,
        "by_subject_accuracy": {
            r.combo_id: r.averages()["subject_accuracy"]["mean"]
            for r in ranked},
    }
    return reports


def variant_config(variant, config=None):
    """Model configuration and builder for one ablation variant."""
    base = config or ModelConfig()
    if variant == "full":
        return replace(base, use_inxception=True, use_se=True), \
            build_adhdeepnet
    if variant == "inxception-only":
        return replace(base, use_inxception=True, use_se=False), \
            build_adhdeepnet
    if variant == "se-only":
        return replace(base, use_inxception=False, use_se=True), \
            build_adhdeepnet
    if variant == "eegnet":
        return base, build_eegnet_baseline
    raise ValueError(
        f"unknown variant {variant!r}, expected one of {ABLATION_VARIANTS}")


def ablation_run(recordings, variants=ABLATION_VARIANTS, k=10, seed=0,
                 config=None, hyperparams=None, out_dir=None, **kwargs):
    """Run the no-augmentation protocol once per topology variant.

    Returns {variant: EvalReport}; config hashes are distinct across
    variants (the builder name is folded into the hash). With ``out_dir``
    each variant's fold weights land in their own subdirectory."""
    _refuse_duplicates("variant", list(variants))
    reports = {}
    for variant in variants:
        vconfig, build_fn = variant_config(variant, config)
        extra = {"mode": "ablation", "k": k, "variant": variant,
                 "builder": build_fn.__name__}
        reports[variant] = _run_protocol(
            recordings, [None], "ablation", k=k, seed=seed, config=vconfig,
            hyperparams=hyperparams, build_fn=build_fn,
            out_dir=os.path.join(out_dir, variant) if out_dir else None,
            variant=variant, hash_extra=extra, **kwargs)[""]
    return reports
