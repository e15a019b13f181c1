"""Span recording around the calls into each adhdeepnet layer.

The benchmark wraps module functions and class methods in place, from its
own files; nothing under ``src/`` changes. A function is wrapped in the
namespace its caller looks it up in: ``cli`` imports ``evaluate_no_da`` by
name, so the wrapper goes on ``cli.evaluate_no_da``, which is what ``cli``
calls, not on ``evaluate.evaluate_no_da``. Methods are wrapped on their
class.

Spans are kept in memory as (id, name, start, end, parent, pass, attrs)
and written out once, when the benchmark ends. A span's self time is its
duration minus the time its direct child spans cover; the program is
single-threaded at ``--workers 1``, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder; off until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.pass_index = -1  # -1 = set-up
        self.spans = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        span = {"id": len(self.spans), "name": name,
                "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "pass": self.pass_index, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, owner, attr, name, note=None):
        """Replace ``owner.attr`` with a wrapper that records a span.

        ``note(attrs, args, kwargs, result)`` may add counts to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                note(span["attrs"], args, kwargs, result)
            return result

        self.patch(owner, attr, traced)

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr``, remembering the original for ``uninstall``."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans):
    """{span id: duration minus the duration of its direct children}."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]]
            for s in spans}


# -- the layer boundaries ---------------------------------------------------


def _note_forward(attrs, args, kwargs, result):
    training = kwargs.get("training", args[2] if len(args) > 2 else False)
    attrs["training"] = bool(training)
    attrs["batch"] = int(args[1].shape[0])


def _note_predict(attrs, args, kwargs, result):
    attrs["trials"] = len(result)  # Trainer.predict_proba(self, model, trials)


def _note_fit(attrs, args, kwargs, result):
    attrs["trials"] = len(args[1])  # Trainer.fit(self, train_trials, ...)
    fit = result[1]
    attrs["epochs_run"] = fit.epochs_run
    # without a validation set every epoch's weights are kept
    attrs["useful_epochs"] = (fit.best_epoch + 1 if fit.best_epoch >= 0
                              else fit.epochs_run)


def _note_augment(attrs, args, kwargs, result):
    source = args[0]
    added = result[len(source):]
    attrs["trials_added"] = len(added)
    attrs["bytes_added"] = sum(t.window.nbytes for t in added)


def _note_tsne(attrs, args, kwargs, result):
    attrs["points"] = int(len(result.points))


def install(tracer, modules):
    """Wrap every layer boundary the per-layer metrics read."""
    cli, data, evaluate, explain = (modules["cli"], modules["data"],
                                    modules["evaluate"], modules["explain"])
    optimize, train, model, nn, tensor = (
        modules["optimize"], modules["train"], modules["model"],
        modules["nn"], modules["tensor"])

    # functions, at the namespace the caller resolves them in
    tracer.wrap(data, "generate_synthetic", "data.synth")
    tracer.wrap(data, "segment_all", "data.segment")
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "evaluate_no_da", "evaluate.evaluate_no_da")
    tracer.wrap(cli, "evaluate_with_da", "evaluate.evaluate_with_da")
    tracer.wrap(cli, "export_analysis", "explain.export_analysis")
    tracer.wrap(evaluate, "run_fold", "evaluate.fold")
    tracer.wrap(evaluate, "augment_training_set", "augment.expand",
                note=_note_augment)
    tracer.wrap(cli, "tune", "optimize.tune")
    tracer.wrap(optimize, "tune", "optimize.tune")  # as evaluate calls it
    tracer.wrap(optimize, "propose_next", "optimize.propose")
    tracer.wrap(explain, "band_summary", "explain.spectra")
    tracer.wrap(explain, "layer_activations", "explain.activations")
    tracer.wrap(explain, "tsne", "explain.tsne", note=_note_tsne)
    _count_failed_evaluations(tracer, optimize)

    # methods, on their class
    tracer.wrap(train.Trainer, "fit", "train.fit", note=_note_fit)
    tracer.wrap(train.Trainer, "predict_proba", "train.predict",
                note=_note_predict)
    tracer.wrap(train.Trainer, "evaluate_loss", "train.evaluate_loss")
    tracer.wrap(model.Model, "forward", "model.forward", note=_note_forward)
    tracer.wrap(tensor.Tensor, "backward", "tensor.backward")
    tracer.wrap(nn.Optimizer, "step", "nn.optimizer_step")


def _count_failed_evaluations(tracer, optimize):
    """Mark tuning objective calls that raise; ``minimize`` scores them 0."""
    original = optimize.make_inner_objective

    @functools.wraps(original)
    def make_inner_objective(*args, **kwargs):
        objective = original(*args, **kwargs)

        def counted(*o_args, **o_kwargs):
            if not tracer.enabled:
                return objective(*o_args, **o_kwargs)
            span = tracer.open("optimize.objective")
            try:
                return objective(*o_args, **o_kwargs)
            except Exception:
                span["attrs"]["failed"] = 1
                raise
            finally:
                tracer.close(span)

        return counted

    tracer.patch(optimize, "make_inner_objective", make_inner_objective)


# -- per-layer metrics from one pass's spans ----------------------------------


PASS_METRICS = {  # name: unit
    "train.fit_s": "s",
    "train.fit_trials_per_s": "trials/s",
    "train.predict_trials_per_s": "trials/s",
    "train.forward_s": "s",
    "train.backward_s": "s",
    "nn.optimizer_step_s": "s",
    "train.predict_s": "s",
    "train.evaluate_loss_s": "s",
    "explain.activations_s": "s",
    "augment.expand_s": "s",
    "augment.trials_added": "count",
    "augment.mib_added": "MiB",
    "optimize.tune_s": "s",
    "optimize.propose_s": "s",
    "optimize.proposals": "count",
    "optimize.failed_evals": "count",
    "evaluate.fold_s": "s",
    "evaluate.fold_self_s": "s",
    "evaluate.folds": "count",
    "cli.self_s": "s",
    "explain.tsne_s": "s",
    "explain.tsne_points": "count",
    "explain.spectra_s": "s",
    "train.steps": "count",
    "train.trials_seen": "count",
    "train.useful_epoch_share": "fraction",
}

SETUP_METRICS = {"data.synth_s": "s", "data.segment_s": "s"}


def pass_metrics(spans):
    """Per-layer values over the spans of one pass (zero where unused)."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    attr_sum = defaultdict(float)
    for s in spans:
        name = s["name"]
        if name == "model.forward" and not s["attrs"].get("training"):
            name = "model.forward.inference"
        total[name] += s["end"] - s["start"]
        own[name] += selfs[s["id"]]
        count[name] += 1
        for key, value in s["attrs"].items():
            attr_sum[f"{name}:{key}"] += float(value)
    epochs = attr_sum["train.fit:epochs_run"]

    def rate(name):
        busy = total[name]
        return attr_sum[f"{name}:trials"] / busy if busy else 0.0

    return {
        "train.fit_s": total["train.fit"],
        "train.fit_trials_per_s": rate("train.fit"),
        "train.predict_trials_per_s": rate("train.predict"),
        "train.forward_s": total["model.forward"],
        "train.backward_s": total["tensor.backward"],
        "nn.optimizer_step_s": total["nn.optimizer_step"],
        "train.predict_s": total["train.predict"],
        "train.evaluate_loss_s": total["train.evaluate_loss"],
        "explain.activations_s": total["explain.activations"],
        "augment.expand_s": total["augment.expand"],
        "augment.trials_added": attr_sum["augment.expand:trials_added"],
        "augment.mib_added": attr_sum["augment.expand:bytes_added"] / 2 ** 20,
        "optimize.tune_s": total["optimize.tune"],
        "optimize.propose_s": total["optimize.propose"],
        "optimize.proposals": count["optimize.propose"],
        "optimize.failed_evals": attr_sum["optimize.objective:failed"],
        "evaluate.fold_s": total["evaluate.fold"],
        "evaluate.fold_self_s": own["evaluate.fold"],
        "evaluate.folds": count["evaluate.fold"],
        "cli.self_s": own["cli.main"],
        "explain.tsne_s": total["explain.tsne"],
        "explain.tsne_points": attr_sum["explain.tsne:points"],
        "explain.spectra_s": total["explain.spectra"],
        "train.steps": count["model.forward"],
        "train.trials_seen": attr_sum["model.forward:batch"],
        "train.useful_epoch_share": (attr_sum["train.fit:useful_epochs"]
                                     / epochs if epochs else 0.0),
    }


def setup_metrics(spans):
    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
    return {"data.synth_s": total["data.synth"],
            "data.segment_s": total["data.segment"]}
