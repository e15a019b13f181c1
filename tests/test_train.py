"""Training-loop behavior: determinism, early stopping, weight constraints,
and the memory a training step leaves behind."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from adhdeepnet import explain, train
from adhdeepnet.data import Trial, generate_synthetic, segment_all
from adhdeepnet import model as model_module
from adhdeepnet.model import (ModelConfig, build_adhdeepnet, desk_config,
                              stack_windows)
from adhdeepnet.nn import cross_entropy_loss
from adhdeepnet.tensor import Tensor
from adhdeepnet.train import DivergenceError, FitResult, Trainer

from conftest import assert_same_bytes, retained_backward


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


def _counting_stack_windows(monkeypatch):
    """Route every ``model.stack_windows`` call, as ``model`` and ``train``
    resolve it, through a wrapper; returns the list of stacked inputs."""
    stacked = []

    def counted(windows):
        stacked.append(stack_windows(windows))
        return stacked[-1]

    monkeypatch.setattr(model_module, "stack_windows", counted)
    monkeypatch.setattr(train, "stack_windows", counted)
    return stacked


def test_fit_steps_stack_each_window_with_its_label(monkeypatch):
    trials = cohort_trials(1, 8)  # 2 subjects x 2 windows
    stacked = _counting_stack_windows(monkeypatch)
    labels = []

    def loss(logits, y):
        labels.append(y.data)
        return cross_entropy_loss(logits, y)

    monkeypatch.setattr(train, "cross_entropy_loss", loss)
    Trainer(tiny_config(), epochs=1).fit(trials, dict(HP, batch_size=4),
                                         seed=0)
    [x], [y] = stacked, labels
    assert x.shape == (4, 1, 19, 512) and x.dtype == np.float32
    assert y.shape == (4, 2) and y.dtype == np.float32
    for window, row in zip(x[:, 0], y):
        [trial] = [t for t in trials if np.array_equal(t.window, window)]
        expected = (1.0, 0.0) if trial.label == "ADHD" else (0.0, 1.0)
        assert tuple(row) == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stack_windows_casts_while_stacking(dtype):
    rng = np.random.default_rng(7)
    windows = [rng.standard_normal((19, 512)).astype(dtype)
               for _ in range(5)]
    x = stack_windows(windows)
    want = np.stack(windows)[:, None].astype(np.float32)
    assert_same_bytes(x, want)
    assert x.flags.c_contiguous
    assert_same_bytes(stack_windows(np.stack(windows)), want)


def test_every_fit_and_score_batch_is_built_by_stack_windows(monkeypatch):
    """One desk fit step, ``predict_proba``, ``evaluate_loss`` and
    ``layer_activations`` each stack every batch with
    ``model.stack_windows``, once per batch."""
    trials = cohort_trials(1, 80)  # 2 subjects x 20 windows
    stacked = _counting_stack_windows(monkeypatch)
    trainer = Trainer(desk_config(), epochs=1)

    def sizes(run):
        stacked.clear()
        run()
        return [len(x) for x in stacked]

    fitted = []
    assert sizes(lambda: fitted.extend(trainer.fit(
        trials, dict(HP, batch_size=len(trials)), seed=0))) == [40]
    model = fitted[0]
    assert model_module.INFERENCE_BATCH == 32
    assert sizes(lambda: trainer.predict_proba(model, trials)) == [32, 8]
    assert sizes(lambda: trainer.evaluate_loss(model, trials)) == [32, 8]
    # a one-trial probe sizes the matrices before the batches run
    assert sizes(lambda: explain.layer_activations(model, trials)) \
        == [1, 32, 8]


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
    assert isinstance(model.predict_proba([t.window for t in trials]),
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
    assert trainer.evaluate_loss(model, val) == min(result.val_losses)
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


def test_evaluate_loss_matches_mean_cross_entropy_of_probabilities(
        monkeypatch):
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 4)
    trials = cohort_trials(1, 24, seed=6)[:11]  # batch 4 leaves 3 over
    trainer = Trainer(tiny_config())
    model = build_adhdeepnet(tiny_config(), seed=3)
    y = np.asarray([t.label_vector for t in trials])
    probs = trainer.predict_proba(model, trials).astype(np.float64)
    expected = -np.mean(np.log(np.sum(probs * y, axis=1)))
    # float32 probabilities carry ~1e-7 relative error into each log
    assert trainer.evaluate_loss(model, trials) \
        == pytest.approx(expected, abs=1e-6)


def test_validation_loss_does_not_depend_on_the_fit_batch_size(monkeypatch):
    train = cohort_trials(2, 16, seed=7)
    val = cohort_trials(1, 24, seed=8)[:11]
    for batch_size in (3, 5, len(train)):
        trainer = Trainer(tiny_config(), epochs=1)
        model, result = trainer.fit(train, dict(HP, batch_size=batch_size),
                                    seed=0, val_trials=val)
        # one epoch, so the fit kept the weights it validated
        assert result.val_losses == [trainer.evaluate_loss(model, val)]
    losses = set()
    for batch in (1, 3, 4, 32):
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", batch)
        losses.add(trainer.evaluate_loss(model, val))
    assert len(losses) == 1, losses


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


# -- the graph a training step leaves behind ---------------------------------


def _batch(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 19, 512)).astype(np.float32)
    y = np.eye(2, dtype=np.float32)[np.arange(n) % 2]
    return Tensor(x), Tensor(y)


def _step_loss(model, x, y, seed):
    """The scaled loss of one ``Trainer.fit`` step, graph attached."""
    logits = model.forward(x, training=True, rng=np.random.default_rng(seed))
    return cross_entropy_loss(logits, y) * (1.0 / len(x.data))


@pytest.mark.parametrize("config, n", [(desk_config(), 8),
                                       (ModelConfig(), 2)],
                         ids=["desk", "full"])
def test_released_walk_gives_the_retained_walks_gradients(config, n):
    x, y = _batch(n, seed=4)
    released = build_adhdeepnet(config, seed=2)
    retained = build_adhdeepnet(config, seed=2)
    _step_loss(released, x, y, seed=5).backward()
    retained_backward(_step_loss(retained, x, y, seed=5))
    want = retained.named_parameters()
    for name, p in released.named_parameters().items():
        assert p.grad is not None, name
        assert np.array_equal(p.grad, want[name].grad), name


def test_backward_frees_every_activation_while_the_loss_is_held():
    model = build_adhdeepnet(desk_config(), seed=1)
    x, y = _batch(4)
    rng = np.random.default_rng(0)
    gc.disable()  # reference counting alone must free them
    try:
        h = x
        kept, dead = [], []
        for i, (_, layer) in enumerate(model._steps):
            h = layer(h, training=True, rng=rng)
            if i % 2:
                kept.append(h)
            else:
                dead.append(weakref.ref(h.data))
        loss = cross_entropy_loss(h, y)
        del h
        loss.backward()
        assert [ref() for ref in dead] == [None] * len(dead)
    finally:
        gc.enable()
    assert all(t.grad is None for t in kept + [loss])
    assert all(p.grad is not None for p in model.parameters())


def _traced(action):
    """(bytes still traced after ``action``, peak traced bytes)."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_after_backward_only_the_gradients_stay_traced():
    model = build_adhdeepnet(desk_config(), seed=1)
    params = model.parameters()
    x, y = _batch(8)
    _step_loss(model, x, y, seed=0).backward()  # warm caches and free lists
    for p in params:
        p.grad = None
    held = []  # keeps the loss alive past the measurement

    def step():
        held.append(_step_loss(model, x, y, seed=1))
        held[0].backward()

    after, _ = _traced(step)
    assert after < 2 * sum(p.data.nbytes for p in params)


def test_a_fit_carries_no_graph_from_one_step_into_the_next():
    trials = cohort_trials(2, 8, seed=3)  # 8 trials: one batch per epoch
    hp = dict(HP, batch_size=len(trials))
    Trainer(desk_config(), epochs=1).fit(trials, hp, seed=0)  # warm up
    _, one = _traced(
        lambda: Trainer(desk_config(), epochs=1).fit(trials, hp, seed=0))
    _, two = _traced(
        lambda: Trainer(desk_config(), epochs=2).fit(trials, hp, seed=0))
    assert two < 1.1 * one


def test_a_forward_frees_each_activation_that_no_backward_reads():
    model = build_adhdeepnet(desk_config(), seed=1)
    x, y = _batch(4)
    rng = np.random.default_rng(0)
    # the stem's output and bn2's, elu1's and pool1's are read by no
    # backward closure; the pointwise convs' kernel gradients read
    # dropout1's output
    watched = ("spatial_depthwise", "bn2", "elu1", "pool1", "dropout1")
    gc.disable()  # reference counting alone must free them
    try:
        h, refs = x, {}
        for name, layer in model._steps:
            h = layer(h, training=True, rng=rng)
            if name in watched:
                refs[name] = weakref.ref(h.data)
        loss = cross_entropy_loss(h, y)
        del h
        alive = [name for name, ref in refs.items() if ref() is not None]
    finally:
        gc.enable()
    assert alive == ["dropout1"]
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def _graph_nodes(root):
    nodes, seen, stack = [], set(), [root._node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward_fn is None:
            continue  # a leaf Tensor
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("config, n", [(desk_config(), 4),
                                       (ModelConfig(), 2)],
                         ids=["desk", "full"])
def test_no_backward_closure_holds_a_graph_node_or_its_tensor(config, n):
    x, y = _batch(n, seed=4)
    loss = _step_loss(build_adhdeepnet(config, seed=2), x, y, seed=5)
    nodes = _graph_nodes(loss)
    node_type = type(loss._node)
    assert len(nodes) > 45  # a graph was collected: 49 nodes at both presets
    for node in nodes:
        for cell in node._backward_fn.__closure__ or ():
            value = cell.cell_contents
            assert not isinstance(value, node_type), node._backward_fn
            assert not isinstance(value, Tensor) or value._node is None, \
                node._backward_fn


def test_a_desk_forward_holds_little_while_its_loss_is_held():
    model = build_adhdeepnet(desk_config(), seed=1)
    x, y = _batch(32)
    _step_loss(model, x, y, seed=0).backward()  # warm caches and free lists
    held = []
    after, _ = _traced(lambda: held.append(_step_loss(model, x, y, seed=1)))
    assert after < 18 * 2**20


# -- batches -----------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 0])
def test_fit_refuses_a_batch_size_below_two(batch_size):
    """A one-trial batch has no batch statistics, so a fit at batch size 1
    would skip every batch and return its untrained weights."""
    built = []

    def counting_build(config, seed=0):
        built.append(seed)
        return build_adhdeepnet(config, seed=seed)

    trainer = Trainer(tiny_config(), epochs=2, build_fn=counting_build)
    with pytest.raises(ValueError,
                       match=f"batch_size must be >= 2, got {batch_size}"):
        trainer.fit(cohort_trials(1, 8), dict(HP, batch_size=batch_size),
                    seed=0)
    assert built == []


def test_fit_refuses_an_empty_training_set():
    with pytest.raises(ValueError, match="no trials to train on"):
        Trainer(tiny_config()).fit([], HP, seed=0)


def test_predict_proba_casts_each_window_to_float32():
    trials = cohort_trials(1, 12, seed=4)
    wide = [Trial(t.subject_id, t.segment_index,
                  t.window.astype(np.float64), t.label) for t in trials]
    model = build_adhdeepnet(tiny_config(), seed=2)
    trainer = Trainer(tiny_config())
    assert_same_bytes(trainer.predict_proba(model, wide),
                      trainer.predict_proba(model, trials))
    assert trainer.evaluate_loss(model, wide) \
        == trainer.evaluate_loss(model, trials)


def _traced_peak(run):
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fit_and_predict_memory_does_not_grow_with_the_trial_count():
    """A fit stacks one batch of windows at a time and a score hands window
    views to ``Model.infer``: neither holds a stacked copy of its set."""
    trials = cohort_trials(4, 80, seed=5)  # 8 subjects x 20 windows
    assert len(trials) == 160
    trainer = Trainer(desk_config(), epochs=1)
    hp = dict(HP, batch_size=32)
    model, _ = trainer.fit(trials[:32], hp, seed=0)  # warm caches
    trainer.predict_proba(model, trials[:32])
    extra = sum(t.window.nbytes for t in trials[32:])
    runs = {"fit": lambda n: trainer.fit(trials[:n], hp, seed=0),
            "predict_proba": lambda n: trainer.predict_proba(model,
                                                             trials[:n])}
    for name, run in runs.items():
        peaks = [_traced_peak(lambda: run(n)) for n in (32, 160)]
        # 128 more windows stacked would add ``extra`` bytes
        assert peaks[1] - peaks[0] < extra / 2, (name, peaks)
