"""Model assembly: shapes, parameter counts, ablation ordering, serialization."""

import tracemalloc
import weakref

import numpy as np
import pytest

from adhdeepnet.model import (ConfigError, ModelConfig, build_adhdeepnet,
                              build_eegnet_baseline, desk_config,
                              parameter_count, predict_segment)
from adhdeepnet.nn import cross_entropy_loss
from adhdeepnet.tensor import ShapeError, Tensor, grad_enabled


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
    probs = model.predict_proba(np.zeros((3, 1, 19, 512), np.float32))
    assert probs.shape == (3, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_infer_batches_cover_a_ragged_input_in_order():
    model = build_adhdeepnet(small_config(), seed=0)
    x = np.random.default_rng(1).standard_normal(
        (11, 1, 19, 512)).astype(np.float32)
    batches = list(model.infer(x, 4, capture=("block1",)))
    assert [start for start, _, _ in batches] == [0, 4, 8]
    assert [len(logits) for _, logits, _ in batches] == [4, 4, 3]
    for start, logits, captured in batches:
        assert isinstance(logits, np.ndarray)
        assert set(captured) == {"block1"}
        assert captured["block1"].shape[0] == len(logits)
        single = model.forward(Tensor(x[start:start + len(logits)]),
                               training=False).data
        np.testing.assert_array_equal(logits, single)
    assert all(captured == {} for _, _, captured in model.infer(x, 4))


def test_infer_holds_no_batch_while_the_next_one_runs():
    model = build_adhdeepnet(small_config(), seed=0)
    x = np.random.default_rng(2).standard_normal(
        (4, 1, 19, 512)).astype(np.float32)
    batches = model.infer(x, 2, capture=("block1",))
    _, logits, captured = next(batches)
    held = [weakref.ref(logits), weakref.ref(captured["block1"])]
    del logits, captured
    alive = []
    forward = model.forward

    def watched(*args, **kwargs):
        alive.append([ref() is not None for ref in held])
        return forward(*args, **kwargs)

    model.forward = watched
    next(batches)
    assert alive == [[False, False]]


@pytest.mark.parametrize("preset", ["desk", "full"])
def test_infer_matches_a_taped_forward_bitwise(preset):
    model = build_adhdeepnet(
        desk_config() if preset == "desk" else ModelConfig(), seed=5)
    x = np.random.default_rng(5).standard_normal(
        (3, 1, 19, 512)).astype(np.float32)
    tags = tuple(model.capture_tags)
    [(_, logits, captured)] = list(model.infer(x, 3, capture=tags))
    taped, want = model.forward(Tensor(x), training=False, capture=tags)
    assert taped.requires_grad
    assert logits.tobytes() == taped.data.tobytes()
    assert set(captured) == set(want)
    for tag in tags:
        assert captured[tag].tobytes() == want[tag].tobytes()


def test_training_between_or_after_infer_batches_records_graphs():
    model = build_adhdeepnet(small_config(), seed=3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 1, 19, 512)).astype(np.float32)
    y = Tensor(np.eye(2, dtype=np.float32)[[0, 1, 0, 1]])
    batches = model.infer(x, 2)
    for _ in range(2):
        next(batches)  # suspended at a yield: gradients stay on
        assert grad_enabled()
        for p in model.parameters():
            p.zero_grad()
        cross_entropy_loss(model.forward(Tensor(x[:4]), training=True,
                                         rng=rng), y).backward()
        assert all(p.grad is not None for p in model.parameters())
    batches.close()  # abandoned with a batch left
    assert grad_enabled()


def test_full_model_inference_keeps_no_graph():
    # with the training graph kept, 64 trials at batch 64 peak near 351 MiB
    model = build_adhdeepnet(ModelConfig(), seed=0)
    x = np.random.default_rng(0).standard_normal(
        (64, 1, 19, 512)).astype(np.float32)
    tracemalloc.start()
    try:
        model.predict_proba(x, batch_size=64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < 150


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
    probs = eegnet.predict_proba(np.zeros((2, 1, 19, 512), np.float32))
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
    logits, captured = model.forward(x, training=False,
                                     capture=("block1", "inxception",
                                              "attention"))
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
    probs = model.predict_proba(np.zeros((1, 1, 19, 512), np.float32))
    np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-6)


def test_ablation_variants_forward():
    for flags in [(True, False), (False, True), (False, False)]:
        cfg = small_config(use_inxception=flags[0], use_se=flags[1])
        model = build_adhdeepnet(cfg, seed=12)
        probs = model.predict_proba(np.zeros((1, 1, 19, 512), np.float32))
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-6)
