"""Model assembly: shapes, parameter counts, ablation ordering, serialization."""

import sys
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from adhdeepnet import model as model_module
from adhdeepnet.model import (ConfigError, ModelConfig, build_adhdeepnet,
                              build_eegnet_baseline, desk_config,
                              parameter_count, predict_segment,
                              stack_windows)
from adhdeepnet.data import generate_synthetic, segment_all
from adhdeepnet.evaluate import variant_config
from adhdeepnet.nn import cross_entropy_loss
from adhdeepnet import tensor as tz
from adhdeepnet.tensor import ShapeError, Tensor, grad_enabled
from adhdeepnet.train import Trainer

from conftest import assert_same_bytes


FULL_PARAM_COUNT = 225_794  # golden: 6914 + 1168*72 + 26*72^2


def small_config(**overrides):
    base = dict(temporal_filters=4, temporal_kernel=8, branch_width=4,
                branch_sep_kernels=(4, 8), post_sep_kernel=8, se_ratio=4,
                dropout_rate=0.2)
    base.update(overrides)
    return ModelConfig(**base)


def test_forward_shape_and_softmax():
    model = build_adhdeepnet(small_config(), seed=0)
    x = Tensor(np.zeros((1, 1, 19, 512), np.float32))
    logits = model.forward(x, training=False)
    assert logits.shape == (1, 2)
    probs = model.predict_proba(np.zeros((3, 19, 512), np.float32))
    assert probs.shape == (3, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_infer_batches_cover_a_ragged_input_in_order(monkeypatch):
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 4)
    model = build_adhdeepnet(small_config(), seed=0)
    x = np.random.default_rng(1).standard_normal(
        (11, 19, 512)).astype(np.float32)
    seen = []
    capture = {"block1": lambda start, data: seen.append((start, len(data)))}
    batches = list(model.infer(x, capture=capture))
    assert [start for start, _ in batches] == [0, 4, 8]
    assert [len(logits) for _, logits in batches] == [4, 4, 3]
    assert seen == [(0, 4), (4, 4), (8, 3)]
    for start, logits in batches:
        assert isinstance(logits, np.ndarray)
        single = model.forward(Tensor(x[start:start + len(logits), None]),
                               training=False).data
        np.testing.assert_array_equal(logits, single)
    # a list of [E,T] windows is stacked one batch at a time, as the array
    windows = [w for w in x]
    for (_, want), (_, got) in zip(batches, model.infer(windows)):
        assert_same_bytes(got, want)


def test_infer_holds_no_batch_while_the_next_one_runs(monkeypatch):
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 2)
    model = build_adhdeepnet(small_config(), seed=0)
    x = np.random.default_rng(2).standard_normal(
        (4, 19, 512)).astype(np.float32)
    held = []
    batches = model.infer(list(x), capture={
        "block1": lambda _, data: held.append(weakref.ref(data))})
    _, logits = next(batches)
    held.append(weakref.ref(logits))
    del logits
    alive = []
    forward = model.forward

    def watched(x, *args, **kwargs):
        alive.append([ref() is not None for ref in held])
        held.append(weakref.ref(x.data))  # the stacked batch
        return forward(x, *args, **kwargs)

    model.forward = watched
    next(batches)
    next(batches, None)
    assert alive == [[False, False]]
    assert held[-1]() is None


def test_forward_holds_no_capture_past_the_next_stage():
    model = build_adhdeepnet(small_config(), seed=0)
    x = Tensor(np.random.default_rng(3).standard_normal(
        (2, 1, 19, 512)).astype(np.float32))
    held = {}
    names = [name for name, _ in model._steps]
    post = names.index("post_sep")
    name, layer = model._steps[post]
    alive = []

    def watched(*args, **kwargs):
        alive.append({tag: ref() is not None for tag, ref in held.items()})
        return layer(*args, **kwargs)

    model._steps[post] = (name, watched)
    capture = {tag: lambda data, tag=tag: held.__setitem__(
        tag, weakref.ref(data)) for tag in ("block1", "inxception")}
    with tz.no_grad():
        model.forward(x, capture=capture)
    assert alive == [{"block1": False, "inxception": False}]


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_infer_matches_a_taped_forward_bitwise(preset):
    model = build_adhdeepnet(
        desk_config() if preset == "desk" else ModelConfig(), seed=5)
    x = np.random.default_rng(5).standard_normal(
        (3, 19, 512)).astype(np.float32)
    captured, want = {}, {}
    [(_, logits)] = list(model.infer(x, capture={
        tag: lambda _, data, tag=tag: captured.__setitem__(tag, data.copy())
        for tag in model.capture_tags}))
    taped = model.forward(Tensor(x[:, None]), training=False, capture={
        tag: lambda data, tag=tag: want.__setitem__(tag, data.copy())
        for tag in model.capture_tags})
    assert taped.requires_grad
    assert logits.tobytes() == taped.data.tobytes()
    assert set(captured) == set(want) == set(model.capture_tags)
    for tag in want:
        assert captured[tag].tobytes() == want[tag].tobytes()


@pytest.mark.parametrize("variant", ["desk", "full", "inxception-only",
                                     "se-only", "eegnet"])
def test_probabilities_do_not_depend_on_the_inference_batch(monkeypatch,
                                                            variant):
    if variant in ("desk", "full"):
        config = desk_config() if variant == "desk" else ModelConfig()
        model = build_adhdeepnet(config, seed=3)
    else:
        config, build = variant_config(variant, desk_config())
        model = build(config, seed=3)
    n = 40
    x = np.random.default_rng(1).standard_normal(
        (n, 19, 512)).astype(np.float32)
    probs = {}
    for batch in (1, 2, 3, 7, 32, n):
        monkeypatch.setattr(model_module, "INFERENCE_BATCH", batch)
        probs[batch] = model.predict_proba(x)
    for batch, got in probs.items():
        assert_same_bytes(got, probs[n])


def test_training_between_or_after_infer_batches_records_graphs(
        monkeypatch):
    monkeypatch.setattr(model_module, "INFERENCE_BATCH", 2)
    model = build_adhdeepnet(small_config(), seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 19, 512)).astype(np.float32)
    y = Tensor(np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    batches = model.infer(x)
    for _ in range(2):
        next(batches)  # suspended at a yield: gradients stay on
        assert grad_enabled()
        for p in model.parameters():
            p.grad = None
        cross_entropy_loss(model.forward(Tensor(x[:4, None]), training=True,
                                         rng=rng), y).backward()
        assert all(p.grad is not None for p in model.parameters())
    batches.close()  # abandoned with a batch left
    assert grad_enabled()


def _step_gradients(model, x, y, seed):
    """Parameter gradients of one training step on windows x and labels y."""
    for p in model.parameters():
        p.grad = None
    cross_entropy_loss(model.forward(Tensor(x[:, None]), training=True,
                                     rng=np.random.default_rng(seed)),
                       y).backward()
    return {name: p.grad for name, p in model.named_parameters().items()}


def test_inference_in_another_thread_leaves_training_graphs_intact():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 19, 512)).astype(np.float32)
    y = Tensor(np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    want = _step_gradients(build_adhdeepnet(desk_config(), seed=4), x, y, 4)
    inferring, trained = threading.Event(), threading.Event()
    other = build_adhdeepnet(desk_config(), seed=5)
    forward = other.forward

    def paused_forward(*args, **kwargs):  # inside Model.infer's no_grad
        inferring.set()
        trained.wait(timeout=60)
        return forward(*args, **kwargs)

    other.forward = paused_forward
    logits = []
    thread = threading.Thread(target=lambda: logits.extend(
        batch for _, batch in other.infer(x)))
    thread.start()
    try:
        assert inferring.wait(timeout=60)
        got = _step_gradients(build_adhdeepnet(desk_config(), seed=4), x, y,
                              4)
    finally:
        trained.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert set(got) == set(want)
    for name in want:
        assert_same_bytes(got[name], want[name])
    other.forward = forward
    assert_same_bytes(logits[0], next(other.infer(x))[1])


def _nested_code(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _nested_code(const)


def test_conv_kernels_call_no_einsum(monkeypatch):
    conv_code = set(_nested_code(tz._time_conv.__code__))
    einsum = np.einsum
    calls = []

    def guarded(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            assert frame.f_code not in conv_code, "np.einsum in _time_conv"
            frame = frame.f_back
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", guarded)
    model = build_adhdeepnet(desk_config(), seed=6)
    x = np.random.default_rng(6).standard_normal(
        (4, 19, 512)).astype(np.float32)
    y = Tensor(np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    _step_gradients(model, x, y, 6)
    next(model.infer(x))
    assert calls, "the guard saw no einsum call at all"  # the stem's variance


def test_full_model_inference_keeps_no_graph():
    # 128 trials peak near 43 MiB in batches of 32; in one batch of 128
    # they peaked near 172 MiB, and with the training graph kept 64 trials
    # at batch 64 peaked near 351 MiB
    assert model_module.INFERENCE_BATCH == 32
    model = build_adhdeepnet(ModelConfig(), seed=0)
    x = np.random.default_rng(0).standard_normal(
        (128, 19, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        model.predict_proba(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < 64


def test_param_count_deterministic_across_builds():
    cfg = small_config()
    a = build_adhdeepnet(cfg, seed=1).parameter_count()
    b = build_adhdeepnet(cfg, seed=2).parameter_count()
    assert a == b


def test_default_param_count_pinned():
    assert parameter_count(ModelConfig()) == FULL_PARAM_COUNT


def test_param_count_closed_form():
    # block1 6914 + 1168*w + 26*w^2 for branch width w, ratio 8, kernels
    # (128, 256), post-separable 1x64
    for w in (8, 16, 72):
        cfg = ModelConfig(branch_width=w)
        assert parameter_count(cfg) == 6914 + 1168 * w + 26 * w * w


def test_ablation_counts_strictly_ordered():
    full = parameter_count(ModelConfig())
    no_se = parameter_count(ModelConfig(use_se=False))
    no_inx = parameter_count(ModelConfig(use_inxception=False))
    neither = parameter_count(ModelConfig(use_inxception=False,
                                          use_se=False))
    assert full > no_se > no_inx > neither
    assert (full, no_se, no_inx, neither) == (225_794, 184_322, 40_194,
                                              32_002)


def test_eegnet_baseline_smaller():
    eegnet = build_eegnet_baseline(ModelConfig())
    assert eegnet.parameter_count() == 1922
    assert eegnet.parameter_count() < FULL_PARAM_COUNT
    probs = eegnet.predict_proba(np.zeros((2, 19, 512), np.float32))
    assert probs.shape == (2, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_invalid_config_raises_at_build():
    with pytest.raises(ConfigError, match="divisible"):
        build_adhdeepnet(ModelConfig(branch_width=3, se_ratio=8))
    with pytest.raises(ConfigError, match="dropout"):
        build_adhdeepnet(ModelConfig(dropout_rate=1.0))
    with pytest.raises(ConfigError, match="branch_sep_kernels"):
        build_adhdeepnet(ModelConfig(branch_sep_kernels=(128,)))


def test_zero_input_gives_half_half():
    # bias-free convolutions and a zero-initialized dense bias keep the
    # untrained network exactly symmetric on zero input
    model = build_adhdeepnet(small_config(), seed=3)
    p = predict_segment(model, np.zeros((19, 512), np.float32))
    assert p == (0.5, 0.5)


def test_predict_segment_matches_softmax_oracle():
    rng = np.random.default_rng(4)
    model = build_adhdeepnet(small_config(), seed=4)
    trial = rng.standard_normal((19, 512)).astype(np.float32)
    p = predict_segment(model, trial)
    logits = model.forward(Tensor(trial.reshape(1, 1, 19, 512)),
                           training=False).data[0].astype(np.float64)
    e = np.exp(logits - logits.max())
    expect = e / e.sum()
    np.testing.assert_allclose(p, expect, atol=1e-6)
    assert abs(p[0] + p[1] - 1.0) < 1e-6


def test_predict_segment_dropout_invariant():
    model = build_adhdeepnet(small_config(dropout_rate=0.6), seed=5)
    trial = np.random.default_rng(5).standard_normal((19, 512)).astype(
        np.float32)
    assert predict_segment(model, trial) == predict_segment(model, trial)


def test_predict_segment_rejects_bad_shape():
    model = build_adhdeepnet(small_config(), seed=6)
    with pytest.raises(ShapeError):
        predict_segment(model, np.zeros((18, 512), np.float32))
    with pytest.raises(ShapeError):  # one [E,T] window, not a batch of one
        predict_segment(model, np.zeros((1, 1, 19, 512), np.float32))


def test_stack_windows_refuses_another_shape_naming_both():
    windows = [np.zeros((19, 512), np.float32),
               np.zeros((18, 512), np.float32)]
    with pytest.raises(ShapeError, match=r"\(19, 512\), got \(18, 512\)"):
        stack_windows(windows)


def test_describe_rows_match_forward_shapes():
    model = build_adhdeepnet(small_config(), seed=7)
    table = model.describe()
    lines = table.splitlines()
    assert lines[0].split() == ["layer", "kind", "output", "shape", "params"]
    assert any(line.startswith("temporal_conv") for line in lines)
    assert lines[-1].split() == ["total", str(model.parameter_count())]
    # shape column of the classifier row equals the logits shape
    classifier_row = next(l for l in lines if l.startswith("classifier"))
    assert "1x2" in classifier_row


def test_describe_golden_full_model():
    table = build_adhdeepnet(ModelConfig(), seed=0).describe()
    assert "temporal_conv         TemporalConv    1x64x19x512" in table
    assert "spatial_depthwise     DepthwiseConv   1x128x1x512" in table
    assert "pool1                 AvgPool         1x128x1x256" in table
    assert "inxception            InXception      1x288x1x256" in table
    assert "classifier            Dense           1x2" in table
    assert table.strip().endswith("225794")


def test_capture_tags():
    model = build_adhdeepnet(small_config(), seed=8)
    x = Tensor(np.random.default_rng(8).standard_normal(
        (1, 1, 19, 512)).astype(np.float32))
    captured = {}
    model.forward(x, training=False, capture={
        tag: lambda data, tag=tag: captured.__setitem__(tag, data.copy())
        for tag in ("block1", "inxception", "attention")})
    assert set(captured) == {"block1", "inxception", "attention"}
    assert captured["block1"].shape == (1, 8, 1, 256)
    assert captured["inxception"].shape[1] == 16  # 4 branches x width 4
    assert captured["attention"].shape == captured["inxception"].shape


def test_weight_roundtrip_restores_predictions(tmp_path):
    rng = np.random.default_rng(9)
    model = build_adhdeepnet(small_config(), seed=9)
    trial = rng.standard_normal((19, 512)).astype(np.float32)
    # perturb running stats so buffers are exercised too
    model._by_name["bn1"].running_mean += 0.25
    before = predict_segment(model, trial)
    path = tmp_path / "model.adnw"
    model.save_weights(path)

    fresh = build_adhdeepnet(small_config(), seed=1234)
    assert predict_segment(fresh, trial) != before
    fresh.load_weights(path)
    assert predict_segment(fresh, trial) == before


def test_load_weights_rejects_mismatched_topology(tmp_path):
    model = build_adhdeepnet(small_config(), seed=10)
    path = tmp_path / "model.adnw"
    model.save_weights(path)
    other = build_adhdeepnet(small_config(branch_width=8), seed=10)
    with pytest.raises(ValueError, match="model.adnw"):
        other.load_weights(path)


def test_load_weights_errors_name_the_file(tmp_path):
    path = tmp_path / "desk.adnw"
    build_adhdeepnet(desk_config(), seed=0).save_weights(path)
    with pytest.raises(ValueError, match=r"desk\.adnw: temporal_conv"):
        build_adhdeepnet(ModelConfig(), seed=0).load_weights(path)
    with pytest.raises(ValueError, match=r"desk\.adnw: weight file does not "
                                         r"match topology"):
        build_adhdeepnet(desk_config(use_se=False), seed=0).load_weights(path)


def test_desk_config_valid_and_small():
    cfg = desk_config()
    cfg.validate()
    model = build_adhdeepnet(cfg, seed=11)
    assert model.parameter_count() < 30_000
    probs = model.predict_proba(np.zeros((1, 19, 512), np.float32))
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-6)


def test_ablation_variants_forward():
    for flags in [(True, False), (False, True), (False, False)]:
        cfg = small_config(use_inxception=flags[0], use_se=flags[1])
        model = build_adhdeepnet(cfg, seed=12)
        probs = model.predict_proba(np.zeros((1, 19, 512), np.float32))
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-6)


def test_every_tape_op_is_run_by_a_network(monkeypatch):
    """Each ``tensor`` function that returns a Tensor runs in a desk
    training step or a ``predict_proba`` of the network or one of its
    ablation variants: the tape carries no op that no network reaches."""
    ops = {name for name, fn in vars(tz).items()
           if getattr(fn, "__module__", None) == tz.__name__
           and getattr(fn, "__annotations__", {}).get("return") == "Tensor"}
    assert {"mul", "linear", "spatial_first_stem", "dropout"} <= ops
    called = set()
    for name in ops:
        def counted(*args, _name=name, _op=getattr(tz, name), **kwargs):
            called.add(_name)
            return _op(*args, **kwargs)
        monkeypatch.setattr(tz, name, counted)
    trials = segment_all(generate_synthetic(1, 8.0, 1.0, seed=0))
    hyperparams = {"learning_rate": 1e-3, "dropout_rate": 0.25,
                   "batch_size": len(trials), "norm_rate": 1.0,
                   "optimizer_kind": "Adam"}
    x = [t.window for t in trials]
    for variant in ("full", "inxception-only", "se-only", "eegnet"):
        config, build_fn = variant_config(variant, desk_config())
        trainer = Trainer(config, epochs=1, build_fn=build_fn)
        model, result = trainer.fit(trials, hyperparams, seed=0)
        assert result.epochs_run == 1
        model.predict_proba(x)
    assert called == ops, f"never run: {sorted(ops - called)}"
