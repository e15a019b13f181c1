"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed during set-up (the
program only ever sees the generated cohort), then runs one pass at a time
in a closed loop: the next call starts when the previous one returned.
Every pass checks its own outputs against the run itself, never against
stored goldens, so a change that reorders float sums still passes.

Sizes are chosen so that several passes fit in one measured run on a
2-core laptop CPU; ``tiny`` sizes exist for the benchmark's self-test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

# Program settings that stay fixed; only the cohort follows the seed.
PROGRAM_SEED = 1
SEPARATION = 1.0  # strongest contrast: small desk runs still learn it

SIZES = {
    "bench": {
        "full-train-infer": {"subjects": 6, "seconds": 64.0,
                             "train_subjects": 2},
        "desk-cv": {"subjects": 12, "seconds": 32.0, "k": 3, "epochs": 4,
                    "learning_rate": 0.01},
        "desk-tune-da": {"subjects": 12, "seconds": 12.0, "k": 3,
                         "tune_iterations": 5, "seed_points": 2,
                         "inner_epochs": 1, "epochs": 3,
                         "learning_rate": 0.01},
        "explain-full": {"subjects": 4, "seconds": 128.0,
                         "iterations": 1000},
        "accuracy_floor": 0.6,
    },
    "tiny": {
        "full-train-infer": {"subjects": 4, "seconds": 8.0,
                             "train_subjects": 2},
        "desk-cv": {"subjects": 4, "seconds": 16.0, "k": 2, "epochs": 1,
                    "learning_rate": 0.01},
        "desk-tune-da": {"subjects": 8, "seconds": 8.0, "k": 2,
                         "tune_iterations": 3, "seed_points": 2,
                         "inner_epochs": 1, "epochs": 1,
                         "learning_rate": 0.01},
        "explain-full": {"subjects": 4, "seconds": 12.0, "iterations": 300},
        # models this small do not learn; the self-test checks the schema
        "accuracy_floor": 0.0,
    },
}


def _silenced(fn, *args, **kwargs):
    """Call ``fn`` with its stderr progress lines captured.

    Returns (result, captured text); the text is shown only on failure.
    """
    buffer = io.StringIO()
    with contextlib.redirect_stderr(buffer):
        result = fn(*args, **kwargs)
    return result, buffer.getvalue()


def _tail(text, lines=20):
    return "\n".join(text.strip().splitlines()[-lines:])


class Workload:
    """Set-up, one timed pass, and the output checks of one workload."""

    name = ""
    preset = "desk"
    operations_per_pass = 1

    def __init__(self, modules, seed, workdir, scale):
        self.m = modules
        self.seed = seed
        self.workdir = Path(workdir)
        self.size = SIZES[scale][self.name]
        self.accuracy_floor = SIZES[scale]["accuracy_floor"]
        self.provenance = {}
        self._undo = []

    # -- set-up ---------------------------------------------------------------

    def cohort(self):
        data = self.m["data"]
        size = self.size
        recordings = data.generate_synthetic(
            size["subjects"] // 2, size["seconds"], SEPARATION, self.seed)
        trials = data.segment_all(recordings)
        return recordings, trials

    def model_config(self):
        mdl = self.m["model"]
        return mdl.ModelConfig() if self.preset == "full" \
            else mdl.desk_config()

    def warm_up(self, trials):
        """One untimed training step and prediction on two trials."""
        train, evaluate = self.m["train"], self.m["evaluate"]
        trainer = train.Trainer(self.model_config(), epochs=1, patience=1)
        (model, _), _ = _silenced(trainer.fit, trials[:2],
                                  evaluate.DEFAULT_HYPERPARAMS, seed=0)
        trainer.predict_proba(model, trials[:2])

    def setup(self):
        raise NotImplementedError

    def run_pass(self, index):
        """Run one pass; returns a dict with ``wall_s``, ``operations``,
        ``failures`` (one message per failed check) and measurements."""
        raise NotImplementedError

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def close(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class FullTrainInfer(Workload):
    """``Trainer.fit`` for one epoch at batch 32, then ``predict_proba``
    over held-out subjects, on the full-width model."""

    name = "full-train-infer"
    preset = "full"
    operations_per_pass = 2  # the fit and the prediction

    def setup(self):
        recordings, _ = self.cohort()
        data = self.m["data"]
        per_class = self.size["train_subjects"] // 2
        train_ids = {r.subject_id for r in recordings
                     if int(r.subject_id.rsplit("-", 1)[1]) < per_class}
        self.train_trials = data.segment_all(
            [r for r in recordings if r.subject_id in train_ids])
        self.test_trials = data.segment_all(
            [r for r in recordings if r.subject_id not in train_ids])
        self.hyperparams = dict(self.m["evaluate"].DEFAULT_HYPERPARAMS)
        self.trainer = self.m["train"].Trainer(self.model_config(),
                                               epochs=1, patience=1)
        self.warm_up(self.train_trials)
        self.provenance.update(
            hyperparams=self.hyperparams, epochs=1,
            train_trials=len(self.train_trials),
            infer_trials=len(self.test_trials))

    def run_pass(self, index):
        t0 = time.perf_counter()
        (model, fit), log = _silenced(self.trainer.fit, self.train_trials,
                                      self.hyperparams, seed=PROGRAM_SEED)
        t1 = time.perf_counter()
        probs = self.trainer.predict_proba(model, self.test_trials)
        t2 = time.perf_counter()
        failures = []
        if not all(math.isfinite(v) for v in fit.train_losses):
            failures.append(f"non-finite training loss {fit.train_losses}: "
                            f"{_tail(log)}")
        if probs.shape != (len(self.test_trials), 2):
            failures.append(f"probabilities shaped {probs.shape}")
        elif not np.all(np.isfinite(probs)):
            failures.append("non-finite probabilities")
        elif not np.allclose(probs.sum(axis=1), 1.0, atol=1e-5):
            failures.append("probability rows do not sum to 1")
        return {"wall_s": t2 - t0, "operations": self.operations_per_pass,
                "failures": failures, "train_s": t1 - t0, "infer_s": t2 - t1}


class CliWorkload(Workload):
    """A workload whose pass is one or more ``cli.main`` calls on a saved
    cohort; each call is one operation."""

    def setup(self):
        recordings, trials = self.cohort()
        self.data_dir = self.workdir / "cohort"
        self.m["data"].save_dataset(recordings, str(self.data_dir))
        self.warm_up(trials)
        self.reference = None

    @property
    def operations_per_pass(self):
        return len(self.commands(self.workdir))

    def commands(self, out_dir):
        """The argument lists of one pass, run in order."""
        raise NotImplementedError

    def check(self, out_dir, failures, measured):
        """Append failures and add measurements; return a fingerprint of
        the outputs that must repeat exactly on every pass."""
        raise NotImplementedError

    def run_pass(self, index):
        out_dir = self.workdir / f"pass_{index:03d}"
        cli = self.m["cli"]
        failures = []
        measured = {}
        wall = 0.0
        for argv in self.commands(out_dir):
            t0 = time.perf_counter()
            rc, log = _silenced(cli.main, argv)
            wall += time.perf_counter() - t0
            if rc != 0:
                failures.append(f"{argv[0]} exit code {rc}: {_tail(log)}")
        if not failures:
            fingerprint = self.check(out_dir, failures, measured)
            if self.reference is None:
                self.reference = fingerprint
            elif fingerprint != self.reference:
                failures.append("outputs differ from the first pass")
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"wall_s": wall, "operations": self.operations_per_pass,
                "failures": failures, **measured}


class DeskEvaluate(CliWorkload):
    """``evaluate`` at the desk preset with fixed settings: report.json
    replays exactly and the mean sample accuracy clears a floor."""

    preset = "desk"
    mode = ["--mode", "no-da"]

    def evaluate_argv(self, out_dir):
        s = self.size
        return ["evaluate", *self.mode, "--preset", "desk",
                "--data", str(self.data_dir), "--k", str(s["k"]),
                "--no-tune", "--learning-rate", str(s["learning_rate"]),
                "--epochs", str(s["epochs"]), "--patience", str(s["epochs"]),
                "--seed", str(PROGRAM_SEED), "--workers", "1",
                "--out", str(out_dir / "evaluate")]

    def commands(self, out_dir):
        return [self.evaluate_argv(out_dir)]

    def report(self, payload):
        return payload

    def check(self, out_dir, failures, measured):
        raw = (out_dir / "evaluate" / "report.json").read_bytes()
        report = self.report(json.loads(raw))
        folds = report["folds"]
        if len(folds) != self.size["k"]:
            failures.append(f"{len(folds)} folds reported, expected "
                            f"{self.size['k']}")
        accuracy = report["averages"]["sample_accuracy"]["mean"]
        measured["sample_accuracy"] = accuracy
        if not accuracy >= self.accuracy_floor:
            failures.append(f"sample_accuracy {accuracy:.4f} below the "
                            f"floor {self.accuracy_floor}")
        self.provenance["folds"] = [
            {"fold": f["fold"], "hyperparams": f["hyperparams"],
             "epochs_run": f["epochs_run"],
             "n_train_trials": f["n_train_trials"]} for f in folds]
        return raw


class DeskCv(DeskEvaluate):
    name = "desk-cv"


class DeskTuneDa(DeskEvaluate):
    """``tune`` (Sobol seed points, then GP proposals) on the whole cohort,
    then ``evaluate --mode da`` with the C10 augmentation at fixed settings.

    The evaluation does not take the tuned settings: a tuned batch size
    changes the work done and the peak memory from cohort to cohort, so
    the cost would follow the seed instead of the code."""

    name = "desk-tune-da"
    COMBO = "C10"
    COPIES = 5  # a paired combo appends four noisy copies of each trial
    mode = ["--mode", "da", "--combos", COMBO]

    def commands(self, out_dir):
        s = self.size
        tune = ["tune", "--preset", "desk", "--data", str(self.data_dir),
                "--iterations", str(s["tune_iterations"]),
                "--seed-points", str(s["seed_points"]),
                "--inner-epochs", str(s["inner_epochs"]),
                "--inner-patience", str(s["inner_epochs"]),
                "--seed", str(PROGRAM_SEED), "--workers", "1",
                "--out", str(out_dir / "tune")]
        return [tune, self.evaluate_argv(out_dir)]

    def report(self, payload):
        return payload["combos"][self.COMBO]

    def check(self, out_dir, failures, measured):
        raw = super().check(out_dir, failures, measured)
        for fold in self.provenance["folds"]:
            if fold["n_train_trials"] % self.COPIES:
                failures.append(f"fold {fold['fold']}: "
                                f"{fold['n_train_trials']} training trials "
                                f"is not a {self.COPIES}x expansion")
        best = (out_dir / "tune" / "best_params.json").read_bytes()
        tuned = json.loads(best)
        self.provenance["tuned"] = tuned
        history = (out_dir / "tune" / "bo_history.jsonl").read_text(
            encoding="utf-8").splitlines()
        if tuned["evaluations"] != self.size["tune_iterations"] or \
                len(history) != self.size["tune_iterations"]:
            failures.append(f"tune ran {tuned['evaluations']} evaluations "
                            f"({len(history)} logged), expected "
                            f"{self.size['tune_iterations']}")
        if not -1.0 <= tuned["best_g"] <= 0.0:
            failures.append(f"best g {tuned['best_g']} outside [-1, 0]")
        return raw + best


class ExplainFull(CliWorkload):
    """``explain`` on fixed full-width weights; every file is written, each
    t-SNE lowers its KL divergence, and the files replay exactly."""

    name = "explain-full"
    preset = "full"
    TAGS = ("block1", "inxception", "attention")

    def setup(self):
        self.weights = self.workdir / "model.weights"
        mdl = self.m["model"]
        mdl.build_adhdeepnet(mdl.ModelConfig(), seed=3).save_weights(
            str(self.weights))
        self.embeddings = []
        self.wrap(self.m["explain"], "tsne", self._keep_embeddings)
        super().setup()

    def _keep_embeddings(self, original):
        @functools.wraps(original)
        def keep(*args, **kwargs):
            embedding = original(*args, **kwargs)
            self.embeddings.append(embedding)
            return embedding
        return keep

    def commands(self, out_dir):
        return [["explain", "--preset", "full", "--data", str(self.data_dir),
                 "--weights", str(self.weights),
                 "--iterations", str(self.size["iterations"]),
                 "--seed", str(PROGRAM_SEED), "--workers", "1",
                 "--out", str(out_dir)]]

    def expected_files(self):
        names = ["spectra.csv", "bands.csv", "maps.csv", "maps.svg"]
        for tag in self.TAGS:
            names += [f"tsne_{tag}.csv", f"tsne_{tag}.svg"]
        return names

    def run_pass(self, index):
        self.embeddings.clear()
        return super().run_pass(index)

    def check(self, out_dir, failures, measured):
        digest = hashlib.sha256()
        for name in self.expected_files():
            path = out_dir / name
            if not path.is_file() or path.stat().st_size == 0:
                failures.append(f"{name} missing or empty")
                continue
            digest.update(name.encode() + b"\0" + path.read_bytes())
        if len(self.embeddings) != len(self.TAGS):
            failures.append(f"{len(self.embeddings)} t-SNE runs, expected "
                            f"{len(self.TAGS)}")
        for e in self.embeddings:
            if not e.final_kl < e.initial_kl:
                failures.append(f"t-SNE {e.layer_tag}: final KL "
                                f"{e.final_kl:.4g} >= initial "
                                f"{e.initial_kl:.4g}")
        return digest.hexdigest()


WORKLOADS = {cls.name: cls for cls in (FullTrainInfer, DeskCv, DeskTuneDa,
                                       ExplainFull)}
