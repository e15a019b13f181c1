"""Command-line entry point.

Six subcommands cover the full workbench lifecycle: ``synth`` writes a
labelled synthetic EEG dataset, ``train`` fits one model, ``tune`` runs
the hyperparameter search, ``evaluate`` and ``ablate`` run the
cross-subject protocols, and ``explain`` exports the post-hoc analysis
files. Every run persists its fully-resolved settings as
``run_config.json`` in the output directory, and re-running from that
file reproduces the results byte for byte (same platform, workers=1).

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

import numpy as np

from .augment import enumerate_combos
from .data import (PlanningError, atomic_write_text, canonical_json,
                   generate_synthetic, load_dataset, save_dataset,
                   segment_all)
from .evaluate import (ABLATION_VARIANTS, DEFAULT_HYPERPARAMS,
                       _validation_slice, ablation_run, evaluate_no_da,
                       evaluate_with_da)
from .explain import DEFAULT_LAYER_TAGS, export_analysis
from .model import ModelConfig, build_adhdeepnet, desk_config
from .optimize import TuningError, tune
from .train import Trainer

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2

_HP_KEYS = ("learning_rate", "dropout_rate", "batch_size", "norm_rate",
            "optimizer_kind")

_DEFAULT_BO = {"tune": True, "iterations": 25, "seed_points": 10,
               "inner_epochs": 30, "inner_patience": 6, "kappa": 0.1}

_DEFAULT_OPTIONS = {
    "synth": {"subjects": 20, "seconds": 120.0, "separation": 0.8},
    "train": {"epochs": 100, "patience": 10, "val_fraction": 0.0,
              "hyperparams": dict(DEFAULT_HYPERPARAMS)},
    "tune": {},
    "evaluate": {"mode": "no-da", "k": 10, "final_epochs": 100,
                 "final_patience": 10,
                 "hyperparams": dict(DEFAULT_HYPERPARAMS)},
    "ablate": {"mode": "ablation", "k": 10,
               "variants": list(ABLATION_VARIANTS), "final_epochs": 100,
               "final_patience": 10,
               "hyperparams": dict(DEFAULT_HYPERPARAMS)},
    "explain": {"weights": "", "tags": list(DEFAULT_LAYER_TAGS),
                "perplexity": 30.0, "iterations": 1000, "grid_size": 513},
}

# flag destination -> (config section, key); lists are comma-separated
_FLAG_TARGETS = {
    "synth": {"subjects": ("options", "subjects"),
              "seconds": ("options", "seconds"),
              "separation": ("options", "separation")},
    "train": {"epochs": ("options", "epochs"),
              "patience": ("options", "patience"),
              "val_fraction": ("options", "val_fraction"),
              **{hp: ("hyperparams", hp) for hp in _HP_KEYS}},
    "tune": {"iterations": ("bo", "iterations"),
             "seed_points": ("bo", "seed_points"),
             "inner_epochs": ("bo", "inner_epochs"),
             "inner_patience": ("bo", "inner_patience"),
             "kappa": ("bo", "kappa")},
    "evaluate": {"mode": ("options", "mode"), "k": ("options", "k"),
                 "tune": ("bo", "tune"),
                 "tune_iterations": ("bo", "iterations"),
                 "seed_points": ("bo", "seed_points"),
                 "inner_epochs": ("bo", "inner_epochs"),
                 "inner_patience": ("bo", "inner_patience"),
                 "final_epochs": ("options", "final_epochs"),
                 "final_patience": ("options", "final_patience"),
                 **{hp: ("hyperparams", hp) for hp in _HP_KEYS}},
    "explain": {"weights": ("options", "weights"),
                "tags": ("options", "tags"),
                "perplexity": ("options", "perplexity"),
                "iterations": ("options", "iterations"),
                "grid_size": ("options", "grid_size")},
}
_FLAG_TARGETS["ablate"] = {
    k: v for k, v in _FLAG_TARGETS["evaluate"].items() if k != "mode"}
_FLAG_TARGETS["ablate"]["variants"] = ("options", "variants")

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
    data: str = ""
    seed: int = 0
    workers: int = 1
    out: str = ""
    model: dict = field(default_factory=lambda: {"preset": "full",
                                                 "overrides": {}})
    bo: dict = field(default_factory=lambda: dict(_DEFAULT_BO))
    combos: list = field(default_factory=list)
    options: dict = field(default_factory=dict)

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
    if isinstance(text, (list, tuple)):
        return [str(v) for v in text]
    return [part for part in (p.strip() for p in text.split(",")) if part]


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list", dict: "an object"}


def _check_kind(where, value, default):
    """Raise ValueError unless the config value ``value`` has the JSON kind
    of ``default`` (an integer counts as a number). Object values are
    checked entry by entry against the keys ``default`` holds."""
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) \
            or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"config field {where} must be {_KIND_NAMES[kind]}, "
                         f"got {json.dumps(value)}")
    if kind is dict:
        for key, inner in value.items():
            if key in default:
                _check_kind(f"{where}.{key}", inner, default[key])


def _merge_config(args):
    """Resolve defaults, then the --config file, then the flags."""
    command = args.command
    base = {
        "command": command, "data": "", "seed": None, "workers": 1,
        "out": "",
        "model": {"preset": "full", "overrides": {}},
        "bo": dict(_DEFAULT_BO),
        "combos": [],
        "options": json.loads(json.dumps(_DEFAULT_OPTIONS[command])),
    }
    if getattr(args, "config", None):
        payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("config file must hold one JSON object")
        for key, value in payload.items():
            if key == "command":
                continue  # the subcommand actually invoked wins
            if key not in base:
                raise ValueError(f"unknown config field {key!r}")
            _check_kind(key, value, 0 if key == "seed" else base[key])
            if not isinstance(value, dict):
                base[key] = value
                continue
            for inner_key, inner in value.items():
                if key == "model" and inner_key == "overrides":
                    base["model"]["overrides"].update(inner)
                else:
                    base[key][inner_key] = inner

    for name in ("data", "out", "workers", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    if getattr(args, "preset", None):
        base["model"]["preset"] = args.preset
    for item in getattr(args, "model", None) or []:
        key, value = _parse_override(item)
        base["model"]["overrides"][key] = value
    if getattr(args, "combos", None):
        base["combos"] = _split_list(args.combos)

    for dest, (section, key) in _FLAG_TARGETS.get(command, {}).items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest in ("tags", "variants"):
            value = _split_list(value)
        if section == "hyperparams":
            base["options"]["hyperparams"][key] = value
            if command in ("evaluate", "ablate"):
                base["bo"]["tune"] = False  # explicit values switch BO off
        else:
            base[section][key] = value

    if base["seed"] is None:
        env = os.environ.get("ADHDNET_SEED", "").strip()
        if env:
            try:
                base["seed"] = int(env)
            except ValueError:
                raise ValueError(
                    f"ADHDNET_SEED must be an integer, got {env!r}") from None
        else:
            base["seed"] = 0
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


def _parse_synth_spec(source, default_seed):
    params = {"subjects": 20, "seconds": 120.0, "separation": 0.8,
              "seed": default_seed}
    casts = {"subjects": int, "seconds": float, "separation": float,
             "seed": int}
    body = source[len("synth:"):]
    for item in filter(None, body.split(",")):
        key, sep, raw = item.partition("=")
        if not sep or key not in casts:
            raise ValueError(
                f"bad synth spec entry {item!r}; expected "
                f"subjects=/seconds=/separation=/seed=")
        params[key] = casts[key](raw)
    if params["subjects"] < 2 or params["subjects"] % 2:
        raise ValueError("synth spec needs an even subject count >= 2")
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


def _build_model_config(config):
    preset = config.model.get("preset", "full")
    if preset == "full":
        base = ModelConfig()
    elif preset == "desk":
        base = desk_config()
    else:
        raise ValueError(f"unknown model preset {preset!r}")
    fields = {f.name for f in dataclasses.fields(ModelConfig)}
    clean = {}
    for key, value in (config.model.get("overrides") or {}).items():
        if key not in fields:
            raise ValueError(f"unknown model config field {key!r}")
        clean[key] = tuple(value) if isinstance(value, list) else value
    built = dataclasses.replace(base, **clean)
    built.validate()
    return built


def _full_hyperparams(overrides):
    hp = dict(DEFAULT_HYPERPARAMS)
    hp.update(overrides or {})
    return hp


# -- subcommands ------------------------------------------------------------------------


def cmd_synth(config):
    opts = config.options
    total = int(opts["subjects"])
    if total < 2 or total % 2:
        raise ValueError(f"--subjects must be an even count >= 2, "
                         f"got {total}")
    out = _prepare_out(config)
    _progress(f"synthesizing {total} subjects, {opts['seconds']} s each, "
              f"separation {opts['separation']}")
    recordings = generate_synthetic(total // 2, float(opts["seconds"]),
                                    float(opts["separation"]), config.seed)
    manifest = save_dataset(recordings, out)
    _progress(f"wrote {manifest}")
    return EXIT_OK


def cmd_train(config):
    opts = config.options
    val_fraction = float(opts["val_fraction"])
    if not 0 <= val_fraction < 1:  # NaN fails too
        raise ValueError(f"--val-fraction must be in [0, 1), got "
                         f"{val_fraction}")
    out = _prepare_out(config)
    trials = segment_all(_resolve_data(config))
    model_config = _build_model_config(config)
    hyperparams = _full_hyperparams(opts["hyperparams"])

    train_trials, val = trials, None
    if val_fraction > 0:
        rng = np.random.default_rng([config.seed, 311])
        train_trials, val = _validation_slice(trials, rng, val_fraction)
    trainer = Trainer(model_config, epochs=int(opts["epochs"]),
                      patience=int(opts["patience"]))
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
    out = _prepare_out(config)
    trials = segment_all(_resolve_data(config))
    model_config = _build_model_config(config)
    bo = config.bo
    trainer = Trainer(model_config, epochs=int(bo["inner_epochs"]),
                      patience=int(bo["inner_patience"]))
    _progress(f"tuning for {bo['iterations']} iterations on "
              f"{len(trials)} trials")
    result = tune(trials, trainer, iterations=int(bo["iterations"]),
                  seed=config.seed, n_seed_points=int(bo["seed_points"]),
                  kappa=float(bo["kappa"]),
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
    out = _prepare_out(config)
    recordings = _resolve_data(config)
    model_config = _build_model_config(config)
    opts, bo = config.options, config.bo
    hyperparams = None if bo.get("tune", True) \
        else _full_hyperparams(opts["hyperparams"])
    common = dict(k=int(opts["k"]), seed=config.seed, config=model_config,
                  hyperparams=hyperparams,
                  tune_iterations=int(bo["iterations"]),
                  tune_seed_points=int(bo["seed_points"]),
                  tune_kappa=float(bo["kappa"]),
                  workers=config.workers, out_dir=str(out),
                  inner_epochs=int(bo["inner_epochs"]),
                  inner_patience=int(bo["inner_patience"]),
                  final_epochs=int(opts["final_epochs"]),
                  final_patience=int(opts["final_patience"]))
    mode = opts["mode"]
    _progress(f"evaluate mode={mode} k={common['k']} "
              f"tune={'on' if hyperparams is None else 'off'} "
              f"workers={config.workers}")
    if mode == "no-da":
        report = evaluate_no_da(recordings, **common)
        json_text = canonical_json(report.to_json_dict())
        text = report.render_text()
    elif mode == "da":
        combos = _select_combos(config.combos)
        reports = evaluate_with_da(recordings, combos=combos, **common)
        sweep = reports.pop("_sweep")
        json_text = canonical_json(
            {"mode": "da", "sweep": sweep,
             "combos": {cid: r.to_json_dict()
                        for cid, r in reports.items()}})
        text = _da_text(reports, sweep)
    elif mode == "ablation":
        variants = tuple(opts.get("variants", ABLATION_VARIANTS))
        reports = ablation_run(recordings, variants=variants, **common)
        json_text = canonical_json(
            {"mode": "ablation",
             "variants": {v: r.to_json_dict() for v, r in reports.items()}})
        text = "".join(reports[v].render_text() for v in variants)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected no-da, da, "
                         f"or ablation")
    atomic_write_text(out / "report.json", json_text)
    atomic_write_text(out / "report.txt", text)
    _progress(f"wrote {out / 'report.json'} and report.txt")
    return EXIT_OK


def cmd_explain(config):
    out = _prepare_out(config)
    opts = config.options
    if not opts.get("weights"):
        raise ValueError("--weights is required")
    trials = segment_all(_resolve_data(config))
    model_config = _build_model_config(config)
    model = build_adhdeepnet(model_config, seed=config.seed)
    model.load_weights(opts["weights"])
    _progress(f"analyzing {len(trials)} trials at tags {opts['tags']}")
    written = export_analysis(model, trials, str(out),
                              layer_tags=tuple(opts["tags"]),
                              perplexity=float(opts["perplexity"]),
                              iterations=int(opts["iterations"]),
                              grid_size=int(opts["grid_size"]))
    for name in sorted(written):
        _progress(f"wrote {written[name]}")
    return EXIT_OK


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "tune": cmd_tune,
             "evaluate": cmd_evaluate, "ablate": cmd_evaluate,
             "explain": cmd_explain}


# -- argument parsing --------------------------------------------------------------------


def _add_common(parser, with_data=True):
    parser.add_argument("--config", metavar="FILE",
                        help="JSON run configuration; flags override it")
    parser.add_argument("--seed", type=int,
                        help="master seed (default: $ADHDNET_SEED, then 0)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--workers", type=int,
                        help="parallel fold workers (default 1)")
    parser.add_argument("--preset", choices=("full", "desk"),
                        help="base model configuration")
    parser.add_argument("--model", action="append", metavar="KEY=VALUE",
                        help="model config override, repeatable")
    if with_data:
        parser.add_argument("--data", metavar="SOURCE",
                            help="manifest path or synth:spec")


def _add_hyperparams(parser):
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--dropout", type=float, dest="dropout_rate")
    parser.add_argument("--batch-size", type=int, dest="batch_size")
    parser.add_argument("--norm-rate", type=float, dest="norm_rate")
    parser.add_argument("--optimizer", dest="optimizer_kind",
                        choices=("Adam", "SGDMomentum", "RMSProp"))


def _add_eval_flags(parser):
    parser.add_argument("--k", type=int, help="outer fold count")
    parser.add_argument("--no-tune", action="store_const", const=False,
                        dest="tune",
                        help="skip per-fold tuning, use fixed defaults")
    parser.add_argument("--tune-iterations", type=int, dest="tune_iterations")
    parser.add_argument("--seed-points", type=int, dest="seed_points")
    parser.add_argument("--inner-epochs", type=int, dest="inner_epochs")
    parser.add_argument("--inner-patience", type=int, dest="inner_patience")
    parser.add_argument("--epochs", type=int, dest="final_epochs",
                        help="final retraining epochs per fold")
    parser.add_argument("--patience", type=int, dest="final_patience")
    _add_hyperparams(parser)


def build_parser():
    parser = _CliParser(
        prog="adhdeepnet",
        description="EEG classification workbench: synthesize data, train, "
                    "tune, evaluate, and analyze models.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="write a synthetic labelled dataset")
    _add_common(p, with_data=False)
    p.add_argument("--subjects", type=int,
                   help="total subject count, split evenly between classes")
    p.add_argument("--seconds", type=float, help="recording length each")
    p.add_argument("--separation", type=float,
                   help="class contrast in [0,1]")

    p = sub.add_parser("train", help="fit one model on all the data")
    _add_common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--val-fraction", type=float, dest="val_fraction",
                   help="held-out subject fraction for early stopping")
    _add_hyperparams(p)

    p = sub.add_parser("tune", help="hyperparameter search on all the data")
    _add_common(p)
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed-points", type=int, dest="seed_points")
    p.add_argument("--inner-epochs", type=int, dest="inner_epochs")
    p.add_argument("--inner-patience", type=int, dest="inner_patience")
    p.add_argument("--kappa", type=float)

    p = sub.add_parser("evaluate", help="cross-subject k-fold evaluation")
    _add_common(p)
    p.add_argument("--mode", choices=("no-da", "da", "ablation"))
    p.add_argument("--combos", metavar="IDS",
                   help="comma-separated combo ids for --mode da")
    _add_eval_flags(p)

    p = sub.add_parser("ablate", help="evaluate every topology variant")
    _add_common(p)
    p.add_argument("--variants", metavar="NAMES",
                   help=f"comma-separated subset of {ABLATION_VARIANTS}")
    _add_eval_flags(p)

    p = sub.add_parser("explain", help="export model analysis files")
    _add_common(p)
    p.add_argument("--weights", metavar="FILE", help="trained weights")
    p.add_argument("--tags", metavar="NAMES",
                   help="comma-separated capture tags to embed")
    p.add_argument("--perplexity", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--grid-size", type=int, dest="grid_size")
    return parser


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
        return _COMMANDS[config.command](config)
    except _USER_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USER
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
