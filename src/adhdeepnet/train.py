"""Mini-batch training loop with early stopping and the max-norm constraint.

The trainer owns a base model configuration and builds a fresh network per
fit (the dropout rate is a tuned hyperparameter, so the topology is
rebuilt). Each step minimizes the mean per-sample cross-entropy of the
batch and then re-applies the max-norm constraint to the classifier rows.
Early stopping watches the validation loss (inference mode) and restores
the best-epoch weights. A non-finite training or validation loss stops the
fit with ``DivergenceError``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .model import build_adhdeepnet
from .nn import apply_max_norm, cross_entropy_loss, make_optimizer
from .tensor import Tensor


class DivergenceError(ValueError):
    """A fit produced a non-finite training or validation loss."""


def _finite_loss(value, epoch, which):
    if not np.isfinite(value):
        raise DivergenceError(
            f"training diverged at epoch {epoch}: {which} loss {value}")
    return value


def trials_to_arrays(trials):
    """Stack trials into network inputs [N,1,E,T] and one-hot labels [N,2]."""
    if len(trials) == 0:
        raise ValueError("no trials to stack")
    x = np.stack([t.window for t in trials])[:, None].astype(np.float32)
    y = np.asarray([t.label_vector for t in trials], dtype=np.float32)
    return x, y


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
        hp = dict(hyperparams)
        batch_size = int(hp["batch_size"])
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        config = replace(self.base_config,
                         dropout_rate=float(hp["dropout_rate"]))
        rng = np.random.default_rng([seed, 101])
        model = self.build_fn(config, seed=seed)
        optimizer = make_optimizer(hp["optimizer_kind"],
                                   float(hp["learning_rate"]))
        norm_rate = float(hp["norm_rate"])

        x, y = trials_to_arrays(train_trials)
        xv = yv = None
        if val_trials:
            xv, yv = trials_to_arrays(val_trials)

        params = model.parameters()
        result = FitResult()
        best_val = np.inf
        best_snap = None
        stale = 0

        for epoch in range(self.epochs):
            perm = rng.permutation(len(x))
            total = 0.0
            seen = 0
            for start in range(0, len(perm), batch_size):
                idx = perm[start:start + batch_size]
                if len(idx) == 1 and len(perm) > 1:
                    continue  # a singleton batch has no batch statistics
                xb = Tensor(x[idx])
                yb = Tensor(y[idx])
                loss = cross_entropy_loss(
                    model.forward(xb, training=True, rng=rng), yb)
                total += _finite_loss(float(loss.data), epoch, "training")
                seen += len(idx)
                scaled = loss * (1.0 / len(idx))
                scaled.backward()
                optimizer.step(params)
                optimizer.zero_grad(params)
                apply_max_norm(model.classifier.weight, norm_rate)
            result.train_losses.append(total / max(seen, 1))
            result.epochs_run = epoch + 1

            if xv is None:
                print(f"[epoch {epoch}] loss={result.train_losses[-1]:.6g}",
                      file=sys.stderr)
                continue
            val = _finite_loss(self.evaluate_loss(model, xv, yv, batch_size),
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

    def evaluate_loss(self, model, x, y, batch_size=128):
        """Mean per-sample cross-entropy in inference mode."""
        total = 0.0
        for start, logits, _ in model.infer(x, batch_size):
            yb = Tensor(y[start:start + batch_size])
            total += float(cross_entropy_loss(Tensor(logits), yb).data)
        return total / len(x)

    def predict_proba(self, model, trials, batch_size=128):
        """Per-trial class probabilities, inference mode, [N,2]."""
        return model.predict_proba(trials_to_arrays(trials)[0], batch_size)
