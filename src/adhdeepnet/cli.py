"""Command-line entry point.

Six subcommands cover the full workbench lifecycle: ``synth`` writes a
labelled synthetic EEG dataset, ``train`` fits one model, ``tune`` runs
the hyperparameter search, ``evaluate`` and ``ablate`` run the
cross-subject protocols, and ``explain`` exports the post-hoc analysis
files. Every run persists its fully-resolved settings as
``run_config.json`` in the output directory, and re-running from that
file reproduces the results byte for byte (same platform, workers=1).

Each subcommand is declared once, in ``_COMMANDS``: its handler, its
option defaults and its flags, each flag naming the config field it
sets. A setting is added there and nowhere else: the parser, the flag
types, the merge of flags over a ``--config`` file and the set of keys
that file may hold are all read from that declaration.

Conventions shared by all subcommands:

* ``--data`` accepts a manifest path (or a directory containing
  ``manifest.json``) or an inline generator spec such as
  ``synth:subjects=40,seconds=120,separation=0.8``.
* ``--config FILE`` loads a previously persisted run configuration;
  any flags given on the command line override the file's values.
* ``--seed`` falls back to the ``ADHDNET_SEED`` environment variable,
  then to 0.
* Progress is reported to standard error as line-delimited events;
  all files are written atomically (temp file + rename).

Exit codes: 0 success, 1 user error (bad flags, paths, or values),
2 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .augment import enumerate_combos
from .data import (PlanningError, atomic_write_text, canonical_json,
                   check_synthetic, generate_synthetic, load_dataset,
                   save_dataset, segment_all, validation_slice)
from .evaluate import (ABLATION_VARIANTS, DEFAULT_HYPERPARAMS, ablation_run,
                       evaluate_no_da, evaluate_with_da)
from .explain import DEFAULT_GRID_SIZE, DEFAULT_LAYER_TAGS, export_analysis
from .model import ModelConfig, build_adhdeepnet, desk_config
from .nn import OPTIMIZERS
from .optimize import KAPPA_DEFAULT, TuningError, tune
from .train import Trainer

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

_PRESETS = {"full": ModelConfig, "desk": desk_config}
_MODES = ("no-da", "da", "ablation")
# config key -> the values its flag accepts
_CHOICES = {"preset": tuple(_PRESETS), "mode": _MODES,
            "optimizer_kind": tuple(OPTIMIZERS)}

_DEFAULT_BO = {"tune": True, "iterations": 25, "seed_points": 10,
               "inner_epochs": 30, "inner_patience": 6,
               "kappa": KAPPA_DEFAULT}

_USER_ERRORS = (ValueError, OSError, PlanningError, TuningError)


class UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _CliParser(argparse.ArgumentParser):
    """Parser that reports bad flags as exit-code-1 usage errors."""

    def error(self, message):
        raise UsageError(self, message)


def _progress(message):
    print(f"[run] {message}", file=sys.stderr)


# -- run configuration ------------------------------------------------------------------


@dataclass
class RunConfig:
    """Fully-resolved settings for one invocation.

    ``model`` holds the preset name plus field overrides, ``bo`` the
    tuning settings, ``combos`` the augmentation sweep selection (empty =
    all), and ``options`` the remaining per-command parameters. The whole
    object is JSON-serializable and sufficient to replay the run.
    """

    command: str
    data: str
    seed: int
    workers: int
    out: str
    model: dict
    bo: dict
    combos: list
    options: dict

    def to_json_text(self):
        return canonical_json(dataclasses.asdict(self))


def _parse_override(item):
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ValueError(f"--model expects KEY=VALUE, got {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _split_list(text):
    return [part for part in (p.strip() for p in text.split(",")) if part]


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of strings",
               dict: "an object"}


def _checked(where, value, default):
    """``value`` if it has the JSON kind of ``default``, with an integer
    given for a number made a float; raise ValueError naming the field
    ``where`` otherwise. Objects are checked key by key against the keys
    ``default`` holds, except the ``ModelConfig`` fields of
    ``model.overrides``, which ``_checked_override`` checks."""
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) \
            or (isinstance(value, bool) and kind is not bool) \
            or (kind is list and not all(isinstance(v, str) for v in value)):
        raise ValueError(f"config field {where} must be {_KIND_NAMES[kind]}, "
                         f"got {json.dumps(value)}")
    if kind is float:
        return float(value)
    if kind is not dict or where == "model.overrides":
        return value
    checked = {}
    for key, inner in value.items():
        path = f"{where}.{key}" if where else key
        if key not in default:
            raise ValueError(f"unknown config field {path}")
        checked[key] = _checked(path, inner, default[key])
    return checked


def _merge(base, update):
    for key, value in update.items():
        if isinstance(value, dict) and key in base:
            _merge(base[key], value)
        else:
            base[key] = value


def _section(config, section):
    """The object that holds a flag's key: ``section`` is a dotted path
    into ``config``, "" for a top-level field."""
    for name in filter(None, section.split(".")):
        config = config[name]
    return config


def _dest(flag):
    return flag[2:].replace("-", "_")  # as argparse derives it


def _defaults(command):
    """Every field of a ``command`` run at its default."""
    spec = _COMMANDS[command]
    return {
        "command": command, "data": "", "seed": 0, "workers": 1, "out": "",
        "model": {"preset": "full", "overrides": {}},
        "bo": dict(_DEFAULT_BO),
        "combos": [],
        "options": json.loads(json.dumps({**spec.fixed, **spec.options})),
    }


def _merge_config(args):
    """Resolve defaults, then the --config file, then the flags."""
    spec = _COMMANDS[args.command]
    base = _defaults(args.command)
    known = dict(base, options={**spec.reads, **base["options"]})
    base["seed"] = None  # unless given: $ADHDNET_SEED, then 0
    if args.config:
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("config file must hold one JSON object")
        payload.pop("command", None)  # the subcommand actually invoked wins
        _merge(base, _checked("", payload, known))
        base["options"].update(spec.fixed)  # so do the options it fixes

    for flag, target in {**_COMMON_FLAGS, **spec.flags}.items():
        value = getattr(args, _dest(flag))
        if value is None:
            continue
        _section(base, target.section)[target.key] = value
        if target.skips_tuning:
            base["bo"]["tune"] = False
    for item in args.model or []:
        key, value = _parse_override(item)
        base["model"]["overrides"][key] = value

    seed_source = "--seed" if args.seed is not None else "config field seed"
    if base["seed"] is None:
        seed_source = "ADHDNET_SEED"
        env = os.environ.get("ADHDNET_SEED", "").strip()
        if env:
            try:
                base["seed"] = int(env)
            except ValueError:
                raise ValueError(
                    f"ADHDNET_SEED must be an integer, got {env!r}") from None
        else:
            base["seed"] = 0
    if base["seed"] < 0:
        raise ValueError(f"{seed_source} must be a non-negative integer, "
                         f"got {base['seed']}")
    if base["data"].startswith("synth:"):
        _parse_synth_spec(base["data"], base["seed"])  # refused before --out
    return RunConfig(**base)


# -- shared resolution helpers ------------------------------------------------------------


def _prepare_out(config):
    if not config.out:
        raise ValueError("--out is required")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "run_config.json", config.to_json_text())
    _progress(f"run_config.json written to {out}")
    return out


def _check_cohort(subjects, seconds, separation):
    """Refuse a synthetic cohort of ``subjects`` in all (half per class)
    that ``generate_synthetic`` cannot build."""
    if subjects < 2 or subjects % 2:
        raise ValueError(f"subjects must be an even count >= 2, got "
                         f"{subjects}")
    check_synthetic(subjects // 2, seconds, separation)


def _parse_synth_spec(source, default_seed):
    params = {**_COMMANDS["synth"].options, "seed": default_seed}
    body = source[len("synth:"):]
    for item in filter(None, body.split(",")):
        key, sep, raw = item.partition("=")
        if not sep or key not in params:
            raise ValueError(
                f"bad synth spec entry {item!r}; expected "
                + "/".join(f"{name}=" for name in params))
        kind = type(params[key])
        try:
            params[key] = kind(raw)
        except ValueError:
            raise ValueError(
                f"bad synth spec value {key}={raw!r}: {key} must be "
                f"{'an integer' if kind is int else 'a number'}") from None
    if params["seed"] < 0:
        raise ValueError(f"bad synth spec value seed={params['seed']}: seed "
                         f"must be a non-negative integer")
    _check_cohort(params["subjects"], params["seconds"], params["separation"])
    return params


def _resolve_data(config):
    source = config.data
    if not source:
        raise ValueError("--data is required (manifest path or synth:spec)")
    if source.startswith("synth:"):
        params = _parse_synth_spec(source, config.seed)
        _progress(f"generating synthetic cohort {params}")
        return generate_synthetic(params["subjects"] // 2, params["seconds"],
                                  params["separation"], params["seed"])
    path = Path(source)
    if path.is_dir():
        path = path / "manifest.json"
    recordings = load_dataset(path)
    labels = [r.label for r in recordings]
    _progress(f"loaded {len(recordings)} recordings "
              f"({labels.count('ADHD')} ADHD / {labels.count('HC')} HC) "
              f"from {path}")
    return recordings


def _checked_override(key, value, default):
    """A ``--model`` value of the kind of its field's ``default``; raise
    ValueError naming ``model.overrides.<key>`` if no run can honour it."""
    where = f"model.overrides.{key}"
    if key == "dropout_rate":
        raise ValueError(
            f"config field {where} has no effect: every fit takes its "
            f"dropout rate from the dropout_rate hyperparameter (--dropout)")
    if isinstance(default, tuple):
        if not (isinstance(value, list) and len(value) == len(default)
                and all(type(v) is int for v in value)):
            raise ValueError(f"config field {where} must be a list of "
                             f"{len(default)} integers, got "
                             f"{json.dumps(value)}")
        return tuple(value)
    return _checked(where, value, default)


def _build_model_config(config):
    """The run's ModelConfig, checked before any data loads."""
    preset = config.model["preset"]
    if preset not in _PRESETS:
        raise ValueError(f"unknown model preset {preset!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(ModelConfig)}
    clean = {}
    for key, value in config.model["overrides"].items():
        if key not in defaults:
            raise ValueError(f"unknown model config field {key!r}")
        clean[key] = _checked_override(key, value, defaults[key])
    built = _PRESETS[preset](**clean)
    built.validate()
    return built


# -- subcommands ------------------------------------------------------------------------


def cmd_synth(config):
    opts = config.options
    if config.model["overrides"]:
        raise ValueError("config field model.overrides has no effect: synth "
                         "builds no model")
    _check_cohort(opts["subjects"], opts["seconds"], opts["separation"])
    out = _prepare_out(config)
    _progress(f"synthesizing {opts['subjects']} subjects, {opts['seconds']} "
              f"s each, separation {opts['separation']}")
    recordings = generate_synthetic(opts["subjects"] // 2, opts["seconds"],
                                    opts["separation"], config.seed)
    manifest = save_dataset(recordings, out)
    _progress(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(config):
    opts = config.options
    val_fraction = opts["val_fraction"]
    if not 0 <= val_fraction < 1:  # NaN fails too
        raise ValueError(f"--val-fraction must be in [0, 1), got "
                         f"{val_fraction}")
    model_config = _build_model_config(config)
    out = _prepare_out(config)
    trials = segment_all(_resolve_data(config))
    hyperparams = opts["hyperparams"]

    train_trials, val = trials, None
    if val_fraction > 0:
        rng = np.random.default_rng([config.seed, 311])
        train_trials, val = validation_slice(trials, rng, val_fraction)
    trainer = Trainer(model_config, epochs=opts["epochs"],
                      patience=opts["patience"])
    _progress(f"training on {len(train_trials)} trials "
              f"(validation {len(val) if val else 0})")
    model, result = trainer.fit(train_trials, hyperparams, seed=config.seed,
                                val_trials=val or None)
    model.save_weights(str(out / "model.weights"))
    history = {"train_losses": result.train_losses,
               "val_losses": result.val_losses,
               "best_epoch": result.best_epoch,
               "epochs_run": result.epochs_run,
               "stopped_early": result.stopped_early,
               "hyperparams": hyperparams}
    atomic_write_text(out / "history.json", canonical_json(history))
    _progress(f"wrote {out / 'model.weights'} and history.json")
    return EXIT_OK


def cmd_tune(config):
    model_config = _build_model_config(config)
    out = _prepare_out(config)
    trials = segment_all(_resolve_data(config))
    bo = config.bo
    trainer = Trainer(model_config, epochs=bo["inner_epochs"],
                      patience=bo["inner_patience"])
    _progress(f"tuning for {bo['iterations']} iterations on "
              f"{len(trials)} trials")
    result = tune(trials, trainer, iterations=bo["iterations"],
                  seed=config.seed, n_seed_points=bo["seed_points"],
                  kappa=bo["kappa"],
                  history_path=str(out / "bo_history.jsonl"))
    payload = {"best_params": result.best_params, "best_g": result.best_g,
               "evaluations": len(result.history)}
    atomic_write_text(out / "best_params.json", canonical_json(payload))
    _progress(f"best g={result.best_g:.6g}; wrote best_params.json and "
              f"bo_history.jsonl")
    return EXIT_OK


def _select_combos(ids):
    if not ids:
        return None  # the full 18-combo sweep
    by_id = {c.id: c for c in enumerate_combos()}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise ValueError(f"unknown combo ids {unknown}; valid: "
                         f"{sorted(by_id)}")
    return [by_id[i] for i in ids]


def _da_text(reports, sweep):
    blocks = [reports[cid].render_text() for cid in sorted(reports)]
    lines = ["sweep ranking by mean subject accuracy:"]
    ranked = sorted(sweep["by_subject_accuracy"].items(),
                    key=lambda kv: (-kv[1], kv[0]))
    for combo_id, accuracy in ranked:
        lines.append(f"  {combo_id:>4}  {accuracy:.4f}")
    lines.append(f"best: {sweep['best_combo']}  "
                 f"worst: {sweep['worst_combo']}")
    return "".join(blocks) + "\n".join(lines) + "\n"


def cmd_evaluate(config):
    model_config = _build_model_config(config)
    opts, bo = config.options, config.bo
    mode = opts["mode"]
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of "
                         f"{', '.join(_MODES)}")
    if config.combos and mode != "da":
        raise ValueError(f"config field combos has no effect: only mode da "
                         f"runs augmentation combos, and mode is {mode!r}")
    combos = _select_combos(config.combos)
    out = _prepare_out(config)
    recordings = _resolve_data(config)
    hyperparams = None if bo["tune"] else opts["hyperparams"]
    common = dict(k=opts["k"], seed=config.seed, config=model_config,
                  hyperparams=hyperparams,
                  tune_iterations=bo["iterations"],
                  tune_seed_points=bo["seed_points"],
                  tune_kappa=bo["kappa"],
                  workers=config.workers, out_dir=str(out),
                  inner_epochs=bo["inner_epochs"],
                  inner_patience=bo["inner_patience"],
                  final_epochs=opts["final_epochs"],
                  final_patience=opts["final_patience"])
    _progress(f"evaluate mode={mode} k={common['k']} "
              f"tune={'on' if hyperparams is None else 'off'} "
              f"workers={config.workers}")
    if mode == "no-da":
        report = evaluate_no_da(recordings, **common)
        json_text = canonical_json(report.to_json_dict())
        text = report.render_text()
    elif mode == "da":
        reports = evaluate_with_da(recordings, combos=combos, **common)
        sweep = reports.pop("_sweep")
        json_text = canonical_json(
            {"mode": "da", "sweep": sweep,
             "combos": {cid: r.to_json_dict()
                        for cid, r in reports.items()}})
        text = _da_text(reports, sweep)
    else:  # ablation
        variants = tuple(opts.get("variants", ABLATION_VARIANTS))
        reports = ablation_run(recordings, variants=variants, **common)
        json_text = canonical_json(
            {"mode": "ablation",
             "variants": {v: r.to_json_dict() for v, r in reports.items()}})
        text = "".join(reports[v].render_text() for v in variants)
    atomic_write_text(out / "report.json", json_text)
    atomic_write_text(out / "report.txt", text)
    _progress(f"wrote {out / 'report.json'} and report.txt")
    return EXIT_OK


def cmd_explain(config):
    model_config = _build_model_config(config)
    out = _prepare_out(config)
    opts = config.options
    if not opts["weights"]:
        raise ValueError("--weights is required")
    trials = segment_all(_resolve_data(config))
    model = build_adhdeepnet(model_config, seed=config.seed)
    model.load_weights(opts["weights"])
    _progress(f"analyzing {len(trials)} trials at tags {opts['tags']}")
    written = export_analysis(model, trials, str(out),
                              layer_tags=tuple(opts["tags"]),
                              perplexity=opts["perplexity"],
                              iterations=opts["iterations"],
                              grid_size=opts["grid_size"])
    for name in sorted(written):
        _progress(f"wrote {written[name]}")
    return EXIT_OK


# -- the subcommands and their flags --------------------------------------------------------


class _Flag(NamedTuple):
    """A flag sets ``key`` of the object at the dotted ``section`` ("" for
    the top level) and takes the kind of that key's default. A value given
    for a ``skips_tuning`` flag replaces the protocol's per-fold search."""

    section: str
    key: str
    help: str | None = None
    metavar: str | None = None
    skips_tuning: bool = False


@dataclass(frozen=True)
class _Command:
    """One subcommand. ``flags`` maps each flag to the ``_Flag`` it sets.
    ``reads`` holds the option keys, with defaults, that this command
    reads from another command's ``run_config.json``. ``fixed`` holds the
    options the subcommand itself stands for: they are recorded with the
    other options, and no config file or flag changes them."""

    run: object
    help: str
    options: dict
    flags: dict
    reads: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)


_COMMON_FLAGS = {
    "--seed": _Flag("", "seed",
                    "master seed (default: $ADHDNET_SEED, then 0)"),
    "--out": _Flag("", "out", "output directory", "DIR"),
    "--workers": _Flag("", "workers", "parallel fold workers (default 1)"),
    "--preset": _Flag("model", "preset", "base model configuration"),
}
_DATA_FLAG = {"--data": _Flag("", "data", "manifest path or synth:spec",
                              "SOURCE")}
_HYPERPARAM_FLAGS = {
    "--learning-rate": _Flag("options.hyperparams", "learning_rate"),
    "--dropout": _Flag("options.hyperparams", "dropout_rate"),
    "--batch-size": _Flag("options.hyperparams", "batch_size"),
    "--norm-rate": _Flag("options.hyperparams", "norm_rate"),
    "--optimizer": _Flag("options.hyperparams", "optimizer_kind"),
}
_INNER_FIT_FLAGS = {
    "--seed-points": _Flag("bo", "seed_points"),
    "--inner-epochs": _Flag("bo", "inner_epochs"),
    "--inner-patience": _Flag("bo", "inner_patience",
                              "accepted but has no effect: the inner fits "
                              "have no validation set to stop on"),
}
_PROTOCOL_FLAGS = {
    "--k": _Flag("options", "k", "outer fold count"),
    "--no-tune": _Flag("bo", "tune",
                       "skip per-fold tuning, use fixed defaults"),
    "--tune-iterations": _Flag("bo", "iterations"),
    **_INNER_FIT_FLAGS,
    "--epochs": _Flag("options", "final_epochs",
                      "final retraining epochs per fold"),
    "--patience": _Flag("options", "final_patience"),
    # a hyperparameter fixed on the command line is not searched per fold
    **{flag: target._replace(skips_tuning=True)
       for flag, target in _HYPERPARAM_FLAGS.items()},
}
_PROTOCOL_OPTIONS = {"k": 10, "final_epochs": 100, "final_patience": 10,
                     "hyperparams": DEFAULT_HYPERPARAMS}

_COMMANDS = {
    "synth": _Command(
        cmd_synth, "write a synthetic labelled dataset",
        {"subjects": 20, "seconds": 120.0, "separation": 0.8},
        {"--subjects": _Flag("options", "subjects", "total subject count, "
                             "split evenly between classes"),
         "--seconds": _Flag("options", "seconds", "recording length each"),
         "--separation": _Flag("options", "separation",
                               "class contrast in [0,1]")}),
    "train": _Command(
        cmd_train, "fit one model on all the data",
        {"epochs": 100, "patience": 10, "val_fraction": 0.0,
         "hyperparams": DEFAULT_HYPERPARAMS},
        {**_DATA_FLAG,
         "--epochs": _Flag("options", "epochs"),
         "--patience": _Flag("options", "patience"),
         "--val-fraction": _Flag("options", "val_fraction", "held-out "
                                 "subject fraction for early stopping"),
         **_HYPERPARAM_FLAGS}),
    "tune": _Command(
        cmd_tune, "hyperparameter search on all the data", {},
        {**_DATA_FLAG, "--iterations": _Flag("bo", "iterations"),
         **_INNER_FIT_FLAGS, "--kappa": _Flag("bo", "kappa")}),
    "evaluate": _Command(
        cmd_evaluate, "cross-subject k-fold evaluation",
        {"mode": "no-da", **_PROTOCOL_OPTIONS},
        {**_DATA_FLAG, "--mode": _Flag("options", "mode"),
         "--combos": _Flag("", "combos",
                           "comma-separated combo ids for --mode da", "IDS"),
         **_PROTOCOL_FLAGS},
        reads={"variants": list(ABLATION_VARIANTS)}),  # from ablate
    "ablate": _Command(
        cmd_evaluate, "evaluate every topology variant",
        {"variants": list(ABLATION_VARIANTS), **_PROTOCOL_OPTIONS},
        {**_DATA_FLAG,
         "--variants": _Flag("options", "variants", "comma-separated "
                             f"subset of {ABLATION_VARIANTS}", "NAMES"),
         **_PROTOCOL_FLAGS},
        fixed={"mode": "ablation"}),
    "explain": _Command(
        cmd_explain, "export model analysis files",
        {"weights": "", "tags": list(DEFAULT_LAYER_TAGS),
         "perplexity": 30.0, "iterations": 1000,
         "grid_size": DEFAULT_GRID_SIZE},
        {**_DATA_FLAG,
         "--weights": _Flag("options", "weights", "trained weights", "FILE"),
         "--tags": _Flag("options", "tags",
                         "comma-separated capture tags to embed", "NAMES"),
         "--perplexity": _Flag("options", "perplexity"),
         "--iterations": _Flag("options", "iterations"),
         "--grid-size": _Flag("options", "grid_size")}),
}

def build_parser():
    parser = _CliParser(
        prog="adhdeepnet",
        description="EEG classification workbench: synthesize data, train, "
                    "tune, evaluate, and analyze models.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, spec in _COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        defaults = _defaults(name)
        p.add_argument("--config", metavar="FILE",
                       help="JSON run configuration; flags override it")
        _add_flags(p, _COMMON_FLAGS, defaults)
        p.add_argument("--model", action="append", metavar="KEY=VALUE",
                       help="model config override, repeatable")
        _add_flags(p, spec.flags, defaults)
    return parser


def _add_flags(parser, flags, defaults):
    for flag, target in flags.items():
        default = _section(defaults, target.section)[target.key]
        kind = type(default)
        if kind is bool:
            parser.add_argument(flag, action="store_const",
                                const=not default, help=target.help)
        else:
            choices = _CHOICES.get(target.key)
            parser.add_argument(
                flag, type=_split_list if kind is list else kind,
                choices=choices, help=target.help,
                metavar=target.metavar or (None if choices
                                           else target.key.upper()))


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        err.parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except SystemExit as exit_:  # --help
        code = exit_.code if exit_.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_USER
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required", file=sys.stderr)
        return EXIT_USER
    try:
        config = _merge_config(args)
        return _COMMANDS[config.command].run(config)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
