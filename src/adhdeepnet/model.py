"""Network assembly: the attention CNN for 19-channel EEG trials, a compact
EEGNet-style baseline, and ablation variants of the former.

The main network runs a temporal/spatial feature block, a four-branch
multi-scale block fused by concatenation, two squeeze-excitation gates
around a long separable convolution, and a softmax classifier over global
average features. Branch widths are configurable; the shipped default is
calibrated so the full model lands at 225,794 parameters (golden-pinned).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import nn
from . import tensor as tz
from .tensor import ShapeError, Tensor, load_tensors, save_tensors


class ConfigError(ValueError):
    """A model configuration violates a structural invariant."""


@dataclass
class ModelConfig:
    """Widths, kernels and flags that determine the built topology."""

    channels: int = 19
    time_steps: int = 512
    classes: int = 2
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
        checks = [
            (self.channels >= 1, "channels must be positive"),
            (self.time_steps >= 2, "time_steps must be at least 2"),
            (self.classes >= 2, "classes must be at least 2"),
            (self.temporal_filters >= 1, "temporal_filters must be positive"),
            (self.temporal_kernel >= 1, "temporal_kernel must be positive"),
            (self.depth_multiplier >= 1, "depth_multiplier must be positive"),
            (self.branch_width >= 1, "branch_width must be positive"),
            (self.se_ratio >= 1, "se_ratio must be positive"),
            (0.0 <= self.dropout_rate < 1.0, "dropout_rate must be in [0,1)"),
            (len(self.branch_sep_kernels) == 2,
             "branch_sep_kernels needs exactly two widths"),
        ]
        if self.use_se:
            width = self.stage_width()
            checks.append(
                (width % self.se_ratio == 0,
                 f"stage width {width} must be divisible by se_ratio "
                 f"{self.se_ratio}"))
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


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
            padding=self.temporal.padding, momentum=bn.momentum, eps=bn.eps)


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

    def forward(self, x, training=False, rng=None, capture=()):
        """Run to logits. ``capture`` names tags whose activations to keep."""
        wanted = {self.capture_tags[tag]: tag for tag in capture}
        captured = {}
        for name, layer in self._steps:
            x = layer(x, training=training, rng=rng)
            if name in wanted:
                captured[wanted[name]] = x.data
        if capture:
            return x, captured
        return x

    def infer(self, x, batch_size, capture=()):
        """Run an [N,1,E,T] array through ``forward(training=False)``,
        ``batch_size`` trials at a time; yields (start, logits, captured)
        per batch, with the logits as an array. Each forward records no
        graph; the grad-off state never spans a ``yield``, so a caller may
        train between batches."""
        for start in range(0, len(x), batch_size):
            with tz.no_grad():
                out = self.forward(Tensor(x[start:start + batch_size]),
                                   training=False, capture=capture)
            if capture:
                yield start, out[0].data, out[1]
            else:
                yield start, out.data, {}
            del out  # hold no batch while the next one runs

    def predict_proba(self, x, batch_size=128):
        """Class probabilities for a [N,1,E,T] array, inference mode."""
        return np.concatenate([tz.softmax(Tensor(logits), axis=1).data
                               for _, logits, _ in self.infer(x, batch_size)])

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
        x = Tensor(np.zeros(
            (1, 1, self.config.channels, self.config.time_steps), np.float32))
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
                                               (c.channels, 1), "valid",
                                               rng)),
        ("bn2", nn.BatchNorm(block1_out)),
        ("elu1", nn.Activation("elu")),
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
        ("elu2", nn.Activation("elu")),
    ]
    if c.use_se:
        stages.append(("se2", nn.SEBlock(width, c.se_ratio, rng)))
    stages += [
        ("dropout2", nn.Dropout(c.dropout_rate)),
        ("gap", nn.GlobalAvgPool()),
        ("flatten", Flatten()),
        ("classifier", nn.Dense(width, c.classes, rng)),
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
    pooled = c.time_steps // 4 // 8
    if pooled < 1:
        raise ConfigError(
            f"time_steps {c.time_steps} too short for the 4x and 8x pools")
    stages = [
        ("temporal_conv", nn.TemporalConv(1, f1, (1, 64), "same", rng)),
        ("bn1", nn.BatchNorm(f1)),
        ("spatial_depthwise", nn.DepthwiseConv(f1, d, (c.channels, 1),
                                               "valid", rng)),
        ("bn2", nn.BatchNorm(f1 * d)),
        ("elu1", nn.Activation("elu")),
        ("pool1", nn.AvgPool((1, 4))),
        ("dropout1", nn.Dropout(c.dropout_rate)),
        ("separable", nn.SeparableConv(f1 * d, f2, (1, 16), "same", rng)),
        ("bn3", nn.BatchNorm(f2)),
        ("elu2", nn.Activation("elu")),
        ("pool2", nn.AvgPool((1, 8))),
        ("dropout2", nn.Dropout(c.dropout_rate)),
        ("flatten", Flatten()),
        ("classifier", nn.Dense(f2 * pooled, c.classes, rng)),
    ]
    capture_tags = {"block1": "dropout1", "inxception": "dropout1",
                    "attention": "elu2"}
    return Model(config, stages, capture_tags, "classifier")


def predict_segment(model, trial):
    """Probability pair (p_positive, p_control) for one 19x512 trial."""
    data = trial.data if isinstance(trial, Tensor) else np.asarray(trial)
    e, t = model.config.channels, model.config.time_steps
    if data.shape == (e, t):
        data = data.reshape(1, 1, e, t)
    if data.shape != (1, 1, e, t):
        raise ShapeError(
            f"predict_segment expects one trial shaped ({e},{t}) or "
            f"(1,1,{e},{t}), got {data.shape}")
    probs = model.predict_proba(data.astype(np.float32, copy=False))
    return float(probs[0, 0]), float(probs[0, 1])


def parameter_count(config):
    """Parameter total implied by a config (seed-independent)."""
    return build_adhdeepnet(config).parameter_count()
