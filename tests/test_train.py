"""Training-loop behavior: determinism, early stopping, weight constraints."""

import numpy as np
import pytest

from adhdeepnet.data import generate_synthetic, segment_all
from adhdeepnet.model import ModelConfig, build_adhdeepnet
from adhdeepnet.train import (DivergenceError, FitResult, Trainer,
                              trials_to_arrays)


def tiny_config(**overrides):
    base = dict(temporal_filters=4, temporal_kernel=8, branch_width=4,
                branch_sep_kernels=(4, 8), branch_pool_width=3,
                post_sep_kernel=8, se_ratio=4, dropout_rate=0.25)
    base.update(overrides)
    return ModelConfig(**base)


def cohort_trials(n_per_class, seconds, seed=0, separation=1.0):
    recs = generate_synthetic(n_per_class, seconds, separation, seed=seed)
    return segment_all(recs)


HP = {"learning_rate": 1e-3, "dropout_rate": 0.2, "batch_size": 8,
      "norm_rate": 1.0, "optimizer_kind": "Adam"}


def test_trials_to_arrays_shapes_and_labels():
    trials = cohort_trials(1, 8)  # 2 subjects x 2 windows
    x, y = trials_to_arrays(trials)
    assert x.shape == (4, 1, 19, 512)
    assert x.dtype == np.float32
    assert y.shape == (4, 2)
    for trial, row in zip(trials, y):
        expected = (1.0, 0.0) if trial.label == "ADHD" else (0.0, 1.0)
        assert tuple(row) == expected


def test_fixed_seed_reproduces_loss_trajectory_bit_identically():
    trials = cohort_trials(2, 8, seed=3)
    trainer = Trainer(tiny_config(), epochs=5)
    _, first = trainer.fit(trials, HP, seed=11)
    model, second = trainer.fit(trials, HP, seed=11)
    assert len(first.train_losses) == 5
    assert first.train_losses == second.train_losses
    _, third = trainer.fit(trials, HP, seed=12)
    assert first.train_losses != third.train_losses
    assert np.all(np.isfinite(first.train_losses))
    assert isinstance(model.predict_proba(trials_to_arrays(trials)[0]),
                      np.ndarray)


def test_fixed_seed_reproduces_final_weights():
    trials = cohort_trials(2, 8, seed=3)
    trainer = Trainer(tiny_config(), epochs=3)
    m1, _ = trainer.fit(trials, HP, seed=5)
    m2, _ = trainer.fit(trials, HP, seed=5)
    second = m2.named_parameters()
    for name, p1 in m1.named_parameters().items():
        assert np.array_equal(p1.data, second[name].data), name


def test_early_stopping_fires_after_patience_stale_epochs():
    trials = cohort_trials(2, 8, seed=1)
    val = cohort_trials(1, 8, seed=9)
    # a vanishing learning rate freezes the weights; only normalization
    # statistics drift, so validation loss stalls quickly
    hp = dict(HP, learning_rate=1e-12)
    patience = 1
    trainer = Trainer(tiny_config(), epochs=50, patience=patience)
    _, result = trainer.fit(trials, hp, seed=0, val_trials=val)
    assert result.stopped_early
    assert result.epochs_run < 50
    assert len(result.val_losses) == result.epochs_run
    # the last improvement happened at best_epoch, then exactly
    # `patience` epochs failed to improve before the stop
    assert result.epochs_run == result.best_epoch + 1 + patience
    best_seen = result.val_losses[result.best_epoch]
    assert best_seen <= min(result.val_losses) + 1e-6


def test_no_early_stop_without_validation_set():
    trials = cohort_trials(1, 8, seed=2)
    trainer = Trainer(tiny_config(), epochs=4, patience=1)
    _, result = trainer.fit(trials, dict(HP, learning_rate=1e-12), seed=0)
    assert result.epochs_run == 4
    assert not result.stopped_early
    assert result.val_losses == []
    assert result.best_epoch == -1


def test_best_weights_restored_after_stopping():
    trials = cohort_trials(2, 16, seed=4)
    val = cohort_trials(2, 8, seed=21)
    hp = dict(HP, learning_rate=5e-3)
    trainer = Trainer(tiny_config(), epochs=12, patience=3)
    model, result = trainer.fit(trials, hp, seed=7, val_trials=val)
    xv, yv = trials_to_arrays(val)
    resumed = trainer.evaluate_loss(model, xv, yv, int(hp["batch_size"]))
    assert resumed == pytest.approx(min(result.val_losses), abs=1e-9)
    assert result.best_epoch == int(np.argmin(result.val_losses))


def test_max_norm_bounds_classifier_rows_after_training():
    trials = cohort_trials(2, 8, seed=6)
    hp = dict(HP, norm_rate=0.05, learning_rate=5e-3)
    trainer = Trainer(tiny_config(), epochs=3)
    model, _ = trainer.fit(trials, hp, seed=0)
    norms = np.linalg.norm(
        model.classifier.weight.data.astype(np.float64), axis=1)
    assert np.all(norms <= 0.05 + 1e-6)


def test_dropout_hyperparameter_rebuilds_model_config():
    trials = cohort_trials(1, 8, seed=0)
    trainer = Trainer(tiny_config(dropout_rate=0.25), epochs=1)
    model, _ = trainer.fit(trials, dict(HP, dropout_rate=0.55), seed=0)
    assert model._by_name["dropout1"].rate == pytest.approx(0.55)
    assert model._by_name["dropout2"].rate == pytest.approx(0.55)


def test_singleton_batches_are_skipped():
    trials = cohort_trials(2, 12, seed=8)  # 4 subjects x 3 windows = 12
    assert len(trials) % 5 != 0
    seen_sizes = []

    def spying_build(config, seed=0):
        model = build_adhdeepnet(config, seed=seed)
        original = model.forward

        def spy(x, training=False, rng=None, capture=()):
            if training:
                seen_sizes.append(x.data.shape[0])
            return original(x, training=training, rng=rng, capture=capture)

        model.forward = spy
        return model

    trainer = Trainer(tiny_config(), epochs=2, build_fn=spying_build)
    trainer.fit(trials, dict(HP, batch_size=5), seed=0)
    assert seen_sizes.count(1) == 0
    assert seen_sizes.count(5) == 4  # two full batches per epoch
    assert seen_sizes.count(2) == 2  # trailing batch of 2 kept


def test_single_trial_dataset_still_trains():
    trials = cohort_trials(1, 4, seed=0)[:1]
    trainer = Trainer(tiny_config(), epochs=2)
    _, result = trainer.fit(trials, HP, seed=0)
    assert result.epochs_run == 2
    assert np.all(np.isfinite(result.train_losses))


def test_training_learns_separable_cohort():
    train = cohort_trials(3, 24, seed=13)   # 6 subjects x 6 windows
    heldout = cohort_trials(2, 24, seed=99)  # disjoint generation seed
    hp = dict(HP, learning_rate=2e-3, batch_size=12, dropout_rate=0.1)
    trainer = Trainer(tiny_config(), epochs=15)
    model, result = trainer.fit(train, hp, seed=1)
    assert result.train_losses[-1] < result.train_losses[0]
    probs = trainer.predict_proba(model, heldout)
    assert probs.shape == (len(heldout), 2)
    truth = np.asarray([0 if t.label == "ADHD" else 1 for t in heldout])
    accuracy = float((np.argmax(probs, axis=1) == truth).mean())
    assert accuracy >= 0.7


def test_evaluate_loss_matches_mean_cross_entropy_of_probabilities():
    trials = cohort_trials(1, 24, seed=6)[:11]  # batch 4 leaves 3 over
    trainer = Trainer(tiny_config())
    model = build_adhdeepnet(tiny_config(), seed=3)
    x, y = trials_to_arrays(trials)
    probs = trainer.predict_proba(model, trials).astype(np.float64)
    expected = -np.mean(np.log(np.sum(probs * y, axis=1)))
    # float32 probabilities carry ~1e-7 relative error into each log
    assert trainer.evaluate_loss(model, x, y, batch_size=4) \
        == pytest.approx(expected, abs=1e-6)


def test_divergent_fit_raises_naming_epoch_and_loss():
    trials = cohort_trials(2, 8, seed=1)
    # a step size of 1e10 sends the weights past float32 within one epoch
    trainer = Trainer(tiny_config(), epochs=5)
    with np.errstate(all="ignore"), \
            pytest.raises(DivergenceError,
                          match=r"epoch \d+: training loss (nan|inf)"):
        trainer.fit(trials, dict(HP, learning_rate=1e10), seed=0)


def test_non_finite_validation_loss_raises(monkeypatch):
    trials = cohort_trials(1, 8, seed=2)
    val = cohort_trials(1, 8, seed=9)
    monkeypatch.setattr(Trainer, "evaluate_loss",
                        lambda self, *args: float("nan"))
    trainer = Trainer(tiny_config(), epochs=5, patience=2)
    with pytest.raises(DivergenceError, match="epoch 0: validation loss nan"):
        trainer.fit(trials, HP, seed=0, val_trials=val)
    assert issubclass(DivergenceError, ValueError)  # the CLI exits 1


def test_fit_result_defaults():
    result = FitResult()
    assert result.train_losses == []
    assert result.val_losses == []
    assert result.best_epoch == -1
    assert result.epochs_run == 0
    assert not result.stopped_early
