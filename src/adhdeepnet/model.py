"""Network assembly: the attention CNN for 19-channel EEG trials, a compact
EEGNet-style baseline, and ablation variants of the former.

The main network runs a temporal/spatial feature block, a four-branch
multi-scale block fused by concatenation, two squeeze-excitation gates
around a long separable convolution, and a softmax classifier over global
average features. Branch widths are configurable; the shipped default is
calibrated so the full model lands at 225,794 parameters (golden-pinned).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import nn
from . import tensor as tz
from .data import CHANNELS, LABELS, WINDOW
from .tensor import ShapeError, Tensor, load_tensors, save_tensors


# the [electrodes, samples] shape of a trial window, as the data fixes it
INPUT_SHAPE = (len(CHANNELS), WINDOW)

# Trials per inference forward. Every op of the forward treats each row on
# its own, so a trial's logits do not depend on this size or on the trials
# that share its batch (tests/test_model.py checks this bit for bit); the
# size only bounds the memory of one forward.
INFERENCE_BATCH = 32


class ConfigError(ValueError):
    """A model configuration violates a structural invariant."""


def stack_windows(windows):
    """The float32 [N,1,E,T] network input for a batch of N [E,T] trial
    windows (a sequence, or an [N,E,T] array), cast while stacking: one
    copy. Raises ShapeError naming the shape of a window that is not
    ``INPUT_SHAPE``."""
    for window in windows:
        if np.shape(window) != INPUT_SHAPE:
            raise ShapeError(f"a trial window must be shaped {INPUT_SHAPE}, "
                             f"got {np.shape(window)}")
    return np.stack(windows, dtype=np.float32)[:, None]


@dataclass
class ModelConfig:
    """Widths, kernels and flags that determine the built topology; the
    input shape and the class count are the data's (``INPUT_SHAPE``,
    ``data.LABELS``)."""

    temporal_filters: int = 64
    temporal_kernel: int = 64
    depth_multiplier: int = 2
    branch_width: int = 72
    branch_sep_kernels: tuple = (128, 256)
    branch_pool_width: int = 3
    post_sep_kernel: int = 64
    se_ratio: int = 8
    dropout_rate: float = 0.25
    use_inxception: bool = True
    use_se: bool = True

    def stage_width(self):
        """Channel count entering the attention/separable stage."""
        if self.use_inxception:
            return 4 * self.branch_width
        return self.temporal_filters * self.depth_multiplier

    def validate(self):
        for name in ("temporal_filters", "temporal_kernel",
                     "depth_multiplier", "branch_width", "branch_pool_width",
                     "post_sep_kernel", "se_ratio"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got "
                                  f"{getattr(self, name)}")
        checks = [
            (0.0 <= self.dropout_rate < 1.0, "dropout_rate must be in [0,1)"),
            (len(self.branch_sep_kernels) == 2,
             "branch_sep_kernels needs exactly two widths"),
            (min(self.branch_sep_kernels, default=1) >= 1,
             "branch_sep_kernels must be positive"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # after the checks above, so that se_ratio is at least 1
        width = self.stage_width()
        if self.use_se and width % self.se_ratio:
            raise ConfigError(f"stage width {width} must be divisible by "
                              f"se_ratio {self.se_ratio}")


def desk_config(**overrides):
    """A small fast variant with the same topology, for quick end-to-end runs."""
    cfg = ModelConfig(temporal_filters=8, temporal_kernel=32,
                      branch_width=8, branch_sep_kernels=(8, 16),
                      post_sep_kernel=8, se_ratio=4, dropout_rate=0.25)
    return replace(cfg, **overrides)


class Flatten(nn.Layer):
    kind = "Flatten"

    def __call__(self, x, training=False, rng=None):
        return tz.reshape(x, (x.shape[0], -1))


class InXceptionBlock(nn.Layer):
    """Four parallel streams over the same input, concatenated on channels.

    Streams: pointwise then a long separable conv (two kernel widths),
    an average-pool smoother feeding a pointwise conv, and a plain
    pointwise shortcut. All streams emit ``branch_width`` channels.
    """

    kind = "InXception"

    def __init__(self, in_channels, branch_width, sep_kernels, pool_width,
                 rng):
        w = branch_width
        k1, k2 = sep_kernels
        self.branches = [
            ("sep_a", [nn.PointwiseConv(in_channels, w, rng),
                       nn.SeparableConv(w, w, (1, k1), "same", rng)]),
            ("sep_b", [nn.PointwiseConv(in_channels, w, rng),
                       nn.SeparableConv(w, w, (1, k2), "same", rng)]),
            ("pool", [nn.AvgPool((1, pool_width), stride=(1, 1),
                                 padding="same"),
                      nn.PointwiseConv(in_channels, w, rng)]),
            ("point", [nn.PointwiseConv(in_channels, w, rng)]),
        ]

    def params(self):
        out = {}
        for branch_name, layers in self.branches:
            for j, layer in enumerate(layers):
                for pname, p in layer.params().items():
                    out[f"{branch_name}.{j}.{pname}"] = p
        return out

    def __call__(self, x, training=False, rng=None):
        outputs = []
        for _, layers in self.branches:
            y = x
            for layer in layers:
                y = layer(y, training=training, rng=rng)
            outputs.append(y)
        return tz.concat(outputs, axis=1)


# Every model opens with these three stages. Model.forward runs them as one
# spatial-first step (tensor.spatial_first_stem) named after the last, so
# the first two have no activations of their own to capture.
STEM = ("temporal_conv", "bn1", "spatial_depthwise")


class SpatialFirstStem:
    """The STEM stages' layers, called as one ``tz.spatial_first_stem``."""

    def __init__(self, temporal, norm, spatial):
        if spatial.padding != "valid":
            raise ConfigError("the spatial stem conv must use valid padding")
        self.temporal, self.norm, self.spatial = temporal, norm, spatial

    def __call__(self, x, training=False, rng=None):
        bn = self.norm
        return tz.spatial_first_stem(
            x, self.temporal.kernel, bn.gamma, bn.beta, bn.running_mean,
            bn.running_var, self.spatial.kernel, training,
            padding=self.temporal.padding)


class Model:
    """An ordered stack of named layers with capture points for analysis.

    ``stages`` lists every layer by name, as ``describe`` and the weight
    files see them; ``forward`` runs the STEM stages fused.
    """

    def __init__(self, config, stages, capture_tags, classifier_name):
        self.config = config
        self.stages = stages  # list of (name, layer)
        self.capture_tags = dict(capture_tags)  # tag -> stage name
        self._by_name = dict(stages)
        self.classifier = self._by_name[classifier_name]
        names = tuple(name for name, _ in stages[:len(STEM)])
        if names != STEM:
            raise ConfigError(f"a model opens with the stages {STEM}, "
                              f"not {names}")
        hidden = set(STEM[:-1]) & set(self.capture_tags.values())
        if hidden:
            raise ConfigError(f"stages {sorted(hidden)} run inside the "
                              f"fused stem and cannot be captured")
        stem = SpatialFirstStem(*(layer for _, layer in stages[:len(STEM)]))
        self._steps = [(STEM[-1], stem)] + stages[len(STEM):]

    # -- forward -----------------------------------------------------------

    def forward(self, x, training=False, rng=None, capture=None):
        """Run to logits. ``capture`` maps tags to callables: each is called
        with its stage's output array as that stage returns, so the caller
        can copy it out before the next stage runs."""
        taps = {}
        for tag, keep in (capture or {}).items():
            taps.setdefault(self.capture_tags[tag], []).append(keep)
        for name, layer in self._steps:
            x = layer(x, training=training, rng=rng)
            for keep in taps.get(name, ()):
                keep(x.data)
        return x

    def infer(self, windows, capture=None):
        """Run N trials through ``forward(training=False)``,
        ``INFERENCE_BATCH`` at a time; yields (start, logits) per batch,
        with the logits as an array. ``windows`` holds the N [E,T] trial
        windows, as a sequence or an [N,E,T] array; ``stack_windows``
        builds each batch's input from them. ``capture`` maps tags to
        callables, each called as keep(start, data) with the batch's
        output of its stage as that stage returns. Each forward records no
        graph; the grad-off state never spans a ``yield``, so a caller may
        train between batches."""
        capture = capture or {}
        for start in range(0, len(windows), INFERENCE_BATCH):
            batch = Tensor(stack_windows(
                windows[start:start + INFERENCE_BATCH]))
            taps = {tag: functools.partial(keep, start)
                    for tag, keep in capture.items()}
            with tz.no_grad():
                logits = self.forward(batch, training=False,
                                      capture=taps).data
            del batch, taps
            yield start, logits
            del logits  # hold no batch while the next one runs

    def predict_proba(self, windows):
        """Class probabilities [N,2] for N [E,T] trial windows (as
        ``infer`` takes them), inference mode."""
        return np.concatenate([tz.softmax(logits, axis=1)
                               for _, logits in self.infer(windows)])

    # -- parameters -----------------------------------------------------------

    def named_parameters(self):
        out = {}
        for name, layer in self.stages:
            for pname, p in layer.params().items():
                out[f"{name}.{pname}"] = p
        return out

    def named_buffers(self):
        out = {}
        for name, layer in self.stages:
            for bname, b in layer.buffers().items():
                out[f"{name}.{bname}"] = b
        return out

    def parameters(self):
        return list(self.named_parameters().values())

    def parameter_count(self):
        return sum(int(np.prod(p.shape)) for p in
                   self.named_parameters().values())

    # -- serialization ----------------------------------------------------------

    def save_weights(self, path):
        record = {f"param:{k}": v.data for k, v in
                  self.named_parameters().items()}
        record.update({f"buffer:{k}": v for k, v in
                       self.named_buffers().items()})
        save_tensors(path, record)

    def load_weights(self, path):
        stored = load_tensors(path)
        params = self.named_parameters()
        buffers = self.named_buffers()
        expected = ({f"param:{k}" for k in params}
                    | {f"buffer:{k}" for k in buffers})
        if set(stored) != expected:
            missing = sorted(expected - set(stored))[:3]
            extra = sorted(set(stored) - expected)[:3]
            raise ValueError(
                f"{path}: weight file does not match topology (missing "
                f"{missing}, unexpected {extra})")
        for key, value in stored.items():
            kind, name = key.split(":", 1)
            target = params[name].data if kind == "param" else buffers[name]
            if target.shape != value.shape:
                raise ValueError(
                    f"{path}: {name}: stored shape {value.shape} != model "
                    f"shape {target.shape}")
            target[...] = value

    # -- reporting ------------------------------------------------------------------

    def describe(self):
        """Topology table: one row per stage with output shape and params."""
        x = Tensor(np.zeros((1, 1, *INPUT_SHAPE), np.float32))
        rows = []
        with tz.no_grad():
            for name, layer in self.stages:
                x = layer(x, training=False)
                count = layer.parameter_count()
                rows.append((name, layer.kind, list(x.shape), count))
        rows.append(("softmax", "Softmax", list(x.shape), 0))
        lines = [f"{'layer':<22}{'kind':<16}{'output shape':<22}{'params':>8}"]
        for name, kind, shape, count in rows:
            shape_s = "x".join(str(d) for d in shape)
            lines.append(f"{name:<22}{kind:<16}{shape_s:<22}{count:>8}")
        lines.append(f"{'total':<22}{'':<16}{'':<22}"
                     f"{self.parameter_count():>8}")
        return "\n".join(lines)


def build_adhdeepnet(config=None, seed=0):
    """Assemble the full attention network (or an ablation of it)."""
    config = config or ModelConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    c = config
    block1_out = c.temporal_filters * c.depth_multiplier

    stages = [
        ("temporal_conv", nn.TemporalConv(1, c.temporal_filters,
                                          (1, c.temporal_kernel), "same",
                                          rng)),
        ("bn1", nn.BatchNorm(c.temporal_filters)),
        ("spatial_depthwise", nn.DepthwiseConv(c.temporal_filters,
                                               c.depth_multiplier,
                                               (len(CHANNELS), 1), "valid",
                                               rng)),
        ("bn2", nn.BatchNorm(block1_out)),
        ("elu1", nn.Activation()),
        ("pool1", nn.AvgPool((1, 2))),
        ("dropout1", nn.Dropout(c.dropout_rate)),
    ]
    width = block1_out
    if c.use_inxception:
        stages.append(
            ("inxception", InXceptionBlock(width, c.branch_width,
                                           c.branch_sep_kernels,
                                           c.branch_pool_width, rng)))
        width = c.stage_width()
    if c.use_se:
        stages.append(("se1", nn.SEBlock(width, c.se_ratio, rng)))
    stages += [
        ("post_sep", nn.SeparableConv(width, width, (1, c.post_sep_kernel),
                                      "same", rng)),
        ("bn3", nn.BatchNorm(width)),
        ("elu2", nn.Activation()),
    ]
    if c.use_se:
        stages.append(("se2", nn.SEBlock(width, c.se_ratio, rng)))
    stages += [
        ("dropout2", nn.Dropout(c.dropout_rate)),
        ("gap", nn.GlobalAvgPool()),
        ("flatten", Flatten()),
        ("classifier", nn.Dense(width, len(LABELS), rng)),
    ]
    capture_tags = {
        "block1": "dropout1",
        "inxception": "inxception" if c.use_inxception else "dropout1",
        "attention": ("se2" if c.use_se else "elu2"),
    }
    return Model(config, stages, capture_tags, "classifier")


def build_eegnet_baseline(config=None, seed=0):
    """Compact reference CNN (temporal, depthwise, separable, dense)."""
    config = config or ModelConfig()
    rng = np.random.default_rng(seed)
    c = config
    f1, d, f2 = 8, 2, 16
    pooled = WINDOW // 4 // 8
    stages = [
        ("temporal_conv", nn.TemporalConv(1, f1, (1, 64), "same", rng)),
        ("bn1", nn.BatchNorm(f1)),
        ("spatial_depthwise", nn.DepthwiseConv(f1, d, (len(CHANNELS), 1),
                                               "valid", rng)),
        ("bn2", nn.BatchNorm(f1 * d)),
        ("elu1", nn.Activation()),
        ("pool1", nn.AvgPool((1, 4))),
        ("dropout1", nn.Dropout(c.dropout_rate)),
        ("separable", nn.SeparableConv(f1 * d, f2, (1, 16), "same", rng)),
        ("bn3", nn.BatchNorm(f2)),
        ("elu2", nn.Activation()),
        ("pool2", nn.AvgPool((1, 8))),
        ("dropout2", nn.Dropout(c.dropout_rate)),
        ("flatten", Flatten()),
        ("classifier", nn.Dense(f2 * pooled, len(LABELS), rng)),
    ]
    capture_tags = {"block1": "dropout1", "inxception": "dropout1",
                    "attention": "elu2"}
    return Model(config, stages, capture_tags, "classifier")


def predict_segment(model, window):
    """Probability pair (p_positive, p_control) for one [E,T] trial
    window."""
    probs = model.predict_proba([window])
    return float(probs[0, 0]), float(probs[0, 1])


def parameter_count(config):
    """Parameter total implied by a config (seed-independent)."""
    return build_adhdeepnet(config).parameter_count()
