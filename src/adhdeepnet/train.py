"""Mini-batch training loop with early stopping and the max-norm constraint.

The trainer owns a base model configuration and builds a fresh network per
fit (the dropout rate is a tuned hyperparameter, so the topology is
rebuilt). Each step minimizes the mean per-sample cross-entropy of the
batch and then re-applies the max-norm constraint to the classifier rows.
Early stopping watches the validation loss (inference mode) and restores
the best-epoch weights. A non-finite training or validation loss stops the
fit with ``DivergenceError``.

Fits and scores take trial lists and stack one batch at a time with
``model.stack_windows``: a training step stacks the windows of its batch's
trials, and the validation loss and ``predict_proba`` hand the trials'
windows to ``Model.infer``, which stacks each inference batch. No fit or
score holds a stacked copy of its whole set.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .model import build_adhdeepnet, stack_windows
from .nn import (apply_max_norm, cross_entropy_loss, finite_positive,
                 make_optimizer)
from .tensor import Tensor


class DivergenceError(ValueError):
    """A fit produced a non-finite training or validation loss."""


def _finite_loss(value, epoch, which):
    if not np.isfinite(value):
        raise DivergenceError(
            f"training diverged at epoch {epoch}: {which} loss {value}")
    return value


def _labels(trials):
    """One-hot labels [N,2], float32."""
    return np.asarray([t.label_vector for t in trials], dtype=np.float32)


def _windows(trials):
    return [t.window for t in trials]


@dataclass
class FitResult:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0
    stopped_early: bool = False


def _snapshot(model):
    params = {k: v.data.copy() for k, v in model.named_parameters().items()}
    buffers = {k: v.copy() for k, v in model.named_buffers().items()}
    return params, buffers


def _restore(model, snapshot):
    params, buffers = snapshot
    for k, v in model.named_parameters().items():
        v.data[...] = params[k]
    for k, v in model.named_buffers().items():
        v[...] = buffers[k]


class Trainer:
    """Builds and trains models for one (config, budget) setting."""

    def __init__(self, base_config, epochs=100, patience=10,
                 build_fn=build_adhdeepnet):
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.base_config = base_config
        self.epochs = epochs
        self.patience = patience
        self.build_fn = build_fn

    def fit(self, train_trials, hyperparams, seed, val_trials=None):
        """Train a fresh model; returns (model, FitResult).

        ``hyperparams`` is a mapping with learning_rate, dropout_rate,
        batch_size, norm_rate, and optimizer_kind. With ``val_trials`` the
        loop stops after ``patience`` epochs without a validation-loss
        improvement and restores the best weights. Raises DivergenceError
        on a non-finite batch or validation loss.
        """
        if len(train_trials) == 0:
            raise ValueError("no trials to train on")
        hp = dict(hyperparams)
        batch_size = int(hp["batch_size"])
        if batch_size < 2:  # batch statistics need two trials
            raise ValueError(f"batch_size must be >= 2, got {batch_size}")
        config = replace(self.base_config,
                         dropout_rate=float(hp["dropout_rate"]))
        optimizer = make_optimizer(hp["optimizer_kind"], hp["learning_rate"])
        norm_rate = finite_positive("norm_rate", hp["norm_rate"])
        rng = np.random.default_rng([seed, 101])
        model = self.build_fn(config, seed=seed)

        params = model.parameters()
        result = FitResult()
        best_val = np.inf
        best_snap = None
        stale = 0

        for epoch in range(self.epochs):
            perm = rng.permutation(len(train_trials))
            total = 0.0
            seen = 0
            for start in range(0, len(perm), batch_size):
                idx = perm[start:start + batch_size]
                if len(idx) == 1 and len(perm) > 1:
                    continue  # a singleton batch has no batch statistics
                batch = [train_trials[i] for i in idx]
                loss = cross_entropy_loss(
                    model.forward(Tensor(stack_windows(_windows(batch))),
                                  training=True, rng=rng),
                    Tensor(_labels(batch)))
                total += _finite_loss(float(loss.data), epoch, "training")
                seen += len(idx)
                scaled = loss * (1.0 / len(idx))
                scaled.backward()
                optimizer.step(params)
                optimizer.zero_grad(params)
                apply_max_norm(model.classifier.weight, norm_rate)
            result.train_losses.append(total / max(seen, 1))
            result.epochs_run = epoch + 1

            if not val_trials:
                print(f"[epoch {epoch}] loss={result.train_losses[-1]:.6g}",
                      file=sys.stderr)
                continue
            val = _finite_loss(self.evaluate_loss(model, val_trials),
                               epoch, "validation")
            result.val_losses.append(val)
            print(f"[epoch {epoch}] loss={result.train_losses[-1]:.6g} "
                  f"val={val:.6g}", file=sys.stderr)
            if val < best_val - 1e-6:
                best_val = val
                best_snap = _snapshot(model)
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= self.patience:
                    result.stopped_early = True
                    break
        if best_snap is not None:
            _restore(model, best_snap)
        return model, result

    def evaluate_loss(self, model, trials):
        """Mean per-sample cross-entropy in inference mode, taken as one
        sum over all N trials, so its bits do not depend on the batches."""
        logits = np.concatenate(
            [batch for _, batch in model.infer(_windows(trials))])
        loss = cross_entropy_loss(Tensor(logits), Tensor(_labels(trials)))
        return float(loss.data) / len(trials)

    def predict_proba(self, model, trials):
        """Per-trial class probabilities, inference mode, [N,2]."""
        return model.predict_proba(_windows(trials))
