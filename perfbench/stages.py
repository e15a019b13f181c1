"""Per-stage forward/backward profile of the composed network.

Each entry of ``model.stages`` is called in turn at batch 32, in training
mode with a seeded rng, exactly as ``Model.forward`` would call it. The
first stage's input is a ``Tensor`` with ``requires_grad=False``, as in
``Trainer.fit``; every later stage gets its predecessor's output as a fresh
leaf with ``requires_grad=True``, as the composed graph would. Backward
runs ``Tensor.backward`` on a stage-local loss whose gradient with respect
to the stage output is a fixed random array, so the seed costs nothing.

A full training step (forward, loss, backward, optimizer step, max-norm)
is then timed as ``Trainer.fit`` runs it. ``unattributed_ms`` is the step
minus every stage, the optimizer step, and the stages not named below
(``other_ms``), so the parts add up to ``step_ms`` by construction.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NAMED_STAGES = ("temporal_conv", "bn1", "spatial_depthwise", "bn2",
                "inxception", "se1", "post_sep", "bn3", "se2")
PRESETS = ("full", "desk")


def metric_names(preset):
    names = []
    for stage in NAMED_STAGES:
        names += [f"model.{preset}.{stage}.fwd_ms",
                  f"model.{preset}.{stage}.bwd_ms"]
    names += [f"model.{preset}.other_ms", f"model.{preset}.step_ms",
              f"nn.{preset}.optimizer_step_ms",
              f"model.{preset}.unattributed_ms"]
    return names


def _stage_local_loss(Tensor, output, upstream):
    """A scalar whose gradient with respect to ``output`` is ``upstream``."""
    return Tensor._from_op(np.zeros((), np.float32), (output,),
                           lambda g: (upstream,))


def _one_round(modules, model, x, y, seed):
    Tensor = modules["tensor"].Tensor
    nn = modules["nn"]
    rng = np.random.default_rng([seed, 1])
    grad_rng = np.random.default_rng([seed, 2])
    optimizer = nn.make_optimizer("Adam", 1e-3)
    params = model.parameters()
    out = {}

    inp = Tensor(x)  # requires_grad=False, like the batch in Trainer.fit
    other = 0.0
    for name, layer in model.stages:
        t0 = time.perf_counter()
        output = layer(inp, training=True, rng=rng)
        fwd = time.perf_counter() - t0
        loss = _stage_local_loss(
            Tensor, output,
            grad_rng.standard_normal(output.shape).astype(output.dtype))
        t0 = time.perf_counter()
        loss.backward()
        bwd = time.perf_counter() - t0
        if name in NAMED_STAGES:
            out[f"{name}.fwd_ms"] = fwd * 1e3
            out[f"{name}.bwd_ms"] = bwd * 1e3
        else:
            other += (fwd + bwd) * 1e3
        inp = Tensor(output.data, requires_grad=True)
    out["other_ms"] = other

    t0 = time.perf_counter()
    optimizer.step(params)
    out["optimizer_step_ms"] = (time.perf_counter() - t0) * 1e3
    optimizer.zero_grad(params)

    # one composed training step, the loop body of Trainer.fit
    t0 = time.perf_counter()
    loss = nn.cross_entropy_loss(
        model.forward(Tensor(x), training=True, rng=rng), Tensor(y))
    (loss * (1.0 / len(x))).backward()
    optimizer.step(params)
    optimizer.zero_grad(params)
    nn.apply_max_norm(model.classifier.weight, 1.0)
    out["step_ms"] = (time.perf_counter() - t0) * 1e3
    if not np.isfinite(float(loss.data)):
        raise FloatingPointError(f"non-finite profile loss {loss.data}")
    return out


def profile(modules, preset, x, y, rounds, seed=0):
    """Median per-stage times over ``rounds`` for one preset, by metric name."""
    mdl = modules["model"]
    config = mdl.ModelConfig() if preset == "full" else mdl.desk_config()
    model = mdl.build_adhdeepnet(config, seed=seed)
    samples = [_one_round(modules, model, x, y, seed + r)
               for r in range(rounds)]
    med = {key: statistics.median(s[key] for s in samples)
           for key in samples[0]}
    parts = sum(v for k, v in med.items()
                if k.endswith(("fwd_ms", "bwd_ms"))) \
        + med["other_ms"] + med["optimizer_step_ms"]
    result = {}
    for stage in NAMED_STAGES:
        for kind in ("fwd_ms", "bwd_ms"):
            result[f"model.{preset}.{stage}.{kind}"] = \
                med.get(f"{stage}.{kind}", 0.0)
    result[f"model.{preset}.other_ms"] = med["other_ms"]
    result[f"model.{preset}.step_ms"] = med["step_ms"]
    result[f"nn.{preset}.optimizer_step_ms"] = med["optimizer_step_ms"]
    result[f"model.{preset}.unattributed_ms"] = med["step_ms"] - parts
    return result
