"""The fused first block: ``spatial_first_stem`` against the unfused
conv2d -> batch_norm -> depthwise_conv2d, and ``Model.forward`` against
calling every stage in turn.

The oracle is the three unfused ops run in float64. The stem reorders the
float sums (spatial contraction first, batch statistics from the input's
lag moments), so float32 results agree with it to a stated tolerance, not
bit for bit.
"""

import numpy as np
import pytest

from adhdeepnet.model import (ConfigError, Model, ModelConfig,
                              build_adhdeepnet, build_eegnet_baseline,
                              desk_config)
from adhdeepnet.tensor import (GraphError, Tensor, batch_norm, conv2d,
                               depthwise_conv2d, spatial_first_stem)
from adhdeepnet.tensor import _conv_geometry, _lag_moments

from conftest import check_gradients, probe_weights

# (filters F, temporal kernel K, depth multiplier D) of the shipped models
STEM_SHAPES = {"full": (64, 64, 2), "desk": (8, 32, 2), "eegnet": (8, 64, 2)}
FLOAT64_RTOL = 1e-11  # same sums, other order, float64 throughout
FLOAT32_RTOL = 1e-5   # float32 stem against the float64 oracle
OFFSET_RTOL = 5e-5    # float32 with a +50 sigma DC offset on the input


def stem_case(shape, seed, offset=0.0, n=2, e=19, w=512):
    f, k, d = STEM_SHAPES[shape]
    rng = np.random.default_rng(seed)
    return {
        "x": rng.standard_normal((n, 1, e, w)) + offset,
        "kernel": 0.2 * rng.standard_normal((f, 1, 1, k)),
        "spatial": 0.3 * rng.standard_normal((f, d, e, 1)),
        "gamma": 1.0 + 0.1 * rng.standard_normal(f),
        "beta": 0.1 * rng.standard_normal(f),
        "running_mean": 0.1 * rng.standard_normal(f),
        "running_var": 1.0 + 0.1 * rng.random(f),
        "upstream": rng.standard_normal((n, f * d, 1, w)),
    }


PARAMS = ("kernel", "spatial", "gamma", "beta")


def run_stem(case, training, dtype, fused):
    """Output, running statistics and parameter gradients of one pass."""
    p = {name: Tensor(case[name], requires_grad=True, dtype=dtype)
         for name in PARAMS}
    rm = case["running_mean"].astype(dtype)
    rv = case["running_var"].astype(dtype)
    x = Tensor(case["x"], dtype=dtype)
    if fused:
        out = spatial_first_stem(x, p["kernel"], p["gamma"], p["beta"], rm,
                                 rv, p["spatial"], training)
    else:
        y = conv2d(x, p["kernel"], padding="same")
        y = batch_norm(y, p["gamma"], p["beta"], rm, rv, training)
        out = depthwise_conv2d(y, p["spatial"], padding="valid")
    (out * Tensor(case["upstream"], dtype=dtype)).sum().backward()
    result = {"out": out.data, "running_mean": rm, "running_var": rv}
    result.update({name: p[name].grad for name in PARAMS})
    return result


def assert_close(got, ref, rtol):
    for key, value in ref.items():
        assert got[key].shape == value.shape, key
        rel = np.abs(got[key] - value).max() / np.abs(value).max()
        assert rel < rtol, (key, rel)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", sorted(STEM_SHAPES))
def test_stem_matches_unfused_float64_oracle(shape, training):
    case = stem_case(shape, seed=len(shape))
    ref = run_stem(case, training, np.float64, fused=False)
    assert_close(run_stem(case, training, np.float64, fused=True), ref,
                 FLOAT64_RTOL)
    got32 = run_stem(case, training, np.float32, fused=True)
    assert all(v.dtype == np.float32 for v in got32.values())
    assert_close(got32, ref, FLOAT32_RTOL)


@pytest.mark.parametrize("training", [True, False])
def test_stem_with_large_dc_offset(training):
    # the variance is k'Gk - mu^2 with mu^2 about 2500 times the variance
    case = stem_case("desk", seed=5, offset=50.0)
    case["running_mean"] += 50.0 * case["kernel"].sum(axis=(1, 2, 3))
    ref = run_stem(case, training, np.float64, fused=False)
    assert_close(run_stem(case, training, np.float64, fused=True), ref,
                 FLOAT64_RTOL)
    assert_close(run_stem(case, training, np.float32, fused=True), ref,
                 OFFSET_RTOL)


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("training", [True, False])
def test_stem_gradcheck(training, padding):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 1, 3, 7))
    arrays = [0.5 * rng.standard_normal((2, 1, 1, 4)),   # kernel
              rng.standard_normal((2, 2, 3, 1)),         # spatial
              1.0 + 0.2 * rng.standard_normal(2),        # gamma
              0.2 * rng.standard_normal(2)]              # beta
    wo = 7 if padding == "same" else 4
    w = probe_weights((2, 4, 1, wo), seed=15)

    def forward(ts):
        kernel, spatial, gamma, beta = ts[-4:]
        xt = ts[0] if len(ts) == 5 else Tensor(x)
        rm, rv = np.array([0.1, -0.2]), np.array([1.3, 0.8])
        out = spatial_first_stem(xt, kernel, gamma, beta, rm, rv, spatial,
                                 training, padding=padding)
        return (out * Tensor(w, dtype=np.float64)).sum()

    # the batch statistics depend on x, so only inference mode checks dx
    check_gradients(forward, arrays if training else [x] + arrays)


@pytest.mark.parametrize("rows, width, kw, padding", [
    (38, 512, 32, "same"), (19, 512, 64, "same"), (6, 40, 7, "valid"),
    (3, 9, 9, "same"), (5, 16, 1, "same")])
def test_lag_moments_match_a_direct_sum_over_windows(rows, width, kw,
                                                     padding):
    rng = np.random.default_rng(kw)
    x = (rng.standard_normal((rows, width)) + 0.5).astype(np.float32)
    _, pw, _, wo = _conv_geometry(1, width, 1, kw, padding)
    m, gram = _lag_moments(x, kw, pw, wo)
    xpad = np.pad(x.astype(np.float64), ((0, 0), pw))
    windows = np.lib.stride_tricks.sliding_window_view(
        xpad, kw, axis=1)[:, :wo].reshape(-1, kw)  # [rows * wo, kw]
    assert m.dtype == gram.dtype == np.float64
    np.testing.assert_allclose(m, windows.mean(axis=0), rtol=FLOAT64_RTOL)
    np.testing.assert_allclose(gram, windows.T @ windows / len(windows),
                               rtol=FLOAT64_RTOL)


def test_stem_training_refuses_input_that_requires_grad():
    case = stem_case("desk", seed=3, w=64)
    args = [Tensor(case[name], requires_grad=True)
            for name in ("kernel", "gamma", "beta")]
    x = Tensor(case["x"], requires_grad=True)
    with pytest.raises(GraphError, match="gradient"):
        spatial_first_stem(x, *args, case["running_mean"],
                           case["running_var"], Tensor(case["spatial"]),
                           training=True)


def test_stem_leaves_running_stats_alone_in_inference():
    case = stem_case("desk", seed=4, w=64)
    before = case["running_mean"].copy(), case["running_var"].copy()
    result = run_stem(case, False, np.float64, fused=True)
    np.testing.assert_array_equal(result["running_mean"], before[0])
    np.testing.assert_array_equal(result["running_var"], before[1])


# -- Model.forward against the stages one by one ----------------------------


def model_forward(model, x, training, rng):
    return model.forward(x, training=training, rng=rng)


def stage_by_stage(model, x, training, rng):
    for _, layer in model.stages:
        x = layer(x, training=training, rng=rng)
    return x


MODELS = {
    "full": lambda: build_adhdeepnet(ModelConfig(), seed=3),
    "no_inxception": lambda: build_adhdeepnet(
        desk_config(use_inxception=False), seed=3),
    "eegnet": lambda: build_eegnet_baseline(ModelConfig(), seed=3),
}


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_forward_equals_stage_composition(name, training):
    fused, unfused = MODELS[name](), MODELS[name]()
    x = np.random.default_rng(8).standard_normal((3, 1, 19, 512))
    x = x.astype(np.float32)
    upstream = Tensor(np.random.default_rng(9).standard_normal((3, 2)),
                      dtype=np.float32)
    outputs = []
    for model, run in ((fused, model_forward), (unfused, stage_by_stage)):
        logits = run(model, Tensor(x), training, np.random.default_rng(1))
        (logits * upstream).sum().backward()
        outputs.append(logits.data)
    rel = np.abs(outputs[0] - outputs[1]).max() / np.abs(outputs[1]).max()
    assert rel < FLOAT32_RTOL, rel
    got, ref = fused.named_parameters(), unfused.named_parameters()
    largest = max(np.abs(p.grad).max() for p in ref.values())
    for key in ref:
        # in training mode bn2 normalises right after the stem and undoes
        # any per-channel scale or shift, so the gradients of bn1's gamma
        # and beta are zero but for eps and rounding: bound those by the
        # largest gradient in the model
        scale = largest if training and key.startswith("bn1.") \
            else np.abs(ref[key].grad).max()
        err = np.abs(got[key].grad - ref[key].grad).max()
        assert err <= FLOAT32_RTOL * scale, key
    got, ref = fused.named_buffers(), unfused.named_buffers()
    for key in ref:
        np.testing.assert_allclose(got[key], ref[key], rtol=FLOAT32_RTOL,
                                   atol=1e-7, err_msg=key)


def test_stem_stages_cannot_be_captured():
    model = build_adhdeepnet(desk_config(), seed=0)
    with pytest.raises(ConfigError, match="bn1"):
        Model(model.config, model.stages, {"early": "bn1"}, "classifier")
    with pytest.raises(ConfigError, match="opens with"):
        Model(model.config, model.stages[1:], {}, "classifier")
