"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main so exit codes and stderr are
observable without subprocesses. Model sizes are shrunk to keep each
command under a few seconds.
"""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from adhdeepnet import cli
from adhdeepnet.data import load_dataset, segment_all
from adhdeepnet.model import Model, build_adhdeepnet, desk_config
from adhdeepnet.tensor import save_tensors

TINY_MODEL = [
    "--preset", "desk",
    "--model", "temporal_filters=4",
    "--model", "temporal_kernel=8",
    "--model", "branch_width=4",
    "--model", "branch_sep_kernels=[4,8]",
    "--model", "branch_pool_width=3",
    "--model", "post_sep_kernel=8",
    "--model", "se_ratio=4",
]

FAST_FIT = ["--epochs", "2", "--batch-size", "8", "--no-tune"]

# what `explain` writes before it reaches the embeddings
ANALYSIS_FILES = ("spectra.csv", "bands.csv", "maps.csv", "maps.svg")


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli("synth", "--subjects", "4", "--seconds", "16",
                   "--separation", "0.8", "--seed", "7", "--out", str(out))
    assert code == 0
    return out


# -- synth -------------------------------------------------------------------


def test_synth_round_trip(dataset_dir):
    recordings = load_dataset(dataset_dir / "manifest.json")
    assert len(recordings) == 4
    assert sorted({r.label for r in recordings}) == ["ADHD", "HC"]
    assert all(r.samples.shape == (19, 16 * 128) for r in recordings)
    config = json.loads((dataset_dir / "run_config.json").read_text())
    assert config["command"] == "synth"
    assert config["seed"] == 7


def test_synth_rejects_odd_subject_count(tmp_path, capsys):
    code = run_cli("synth", "--subjects", "5", "--out", str(tmp_path / "d"))
    assert code == 1
    assert "even" in capsys.readouterr().err


SHORT_WINDOW = "seconds must cover one 4 s trial window, got 2.0"
BAD_SEPARATION = "separation must be in [0,1], got 1.5"


# non-finite seconds: test_non_finite_synth_seconds_is_user_error
@pytest.mark.parametrize("argv,message", [
    (("synth", "--subjects", "2", "--seconds", "2"), SHORT_WINDOW),
    (("synth", "--subjects", "2", "--separation", "1.5"), BAD_SEPARATION),
    (("train", "--preset", "desk", "--data", "synth:subjects=2,seconds=2"),
     SHORT_WINDOW),
    (("train", "--preset", "desk", "--data",
      "synth:subjects=2,separation=1.5"), BAD_SEPARATION),
], ids=["synth-short", "synth-separation", "train-spec-short",
        "train-spec-separation"])
def test_bad_synthetic_cohort_is_refused_before_any_output(tmp_path, capsys,
                                                           argv, message):
    out = tmp_path / "run"
    code = run_cli(*argv, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (out / "run_config.json").exists()


def test_synth_refuses_model_overrides_before_any_output(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("synth", "--subjects", "2", "--seconds", "8",
                   "--out", str(out), "--model", "channels=18",
                   "--model", "dropout_rate=0.9")
    assert code == 1
    assert ("error: config field model.overrides has no effect: synth "
            "builds no model") in capsys.readouterr().err
    assert not (out / "run_config.json").exists()


# -- evaluate ----------------------------------------------------------------


def evaluate_args(data, out, *extra):
    return ["evaluate", "--data", str(data), "--out", str(out),
            "--k", "2", "--seed", "3", *TINY_MODEL, *FAST_FIT, *extra]


def test_evaluate_writes_report_and_weights(dataset_dir, tmp_path):
    out = tmp_path / "eval"
    assert run_cli(*evaluate_args(dataset_dir, out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "no-da"
    assert len(report["folds"]) == 2
    assert {f["fold"] for f in report["folds"]} == {0, 1}
    for key in ("sample_accuracy", "subject_accuracy", "sample_f2",
                "subject_f2"):
        assert key in report["folds"][0]
    assert (out / "fold_00.weights").exists()
    assert (out / "fold_01.weights").exists()
    text = (out / "report.txt").read_text()
    assert "mean" in text and "mode=no-da" in text


def test_evaluate_rejects_cohort_with_nan_sample(dataset_dir, tmp_path,
                                                 capsys):
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    entry = manifest["subjects"][1]
    path = dataset_dir / entry["path"]
    samples = np.fromfile(path, dtype="<f4").reshape(19, -1)
    samples[3, 100] = np.nan
    path.write_bytes(samples.tobytes())
    code = run_cli(*evaluate_args(dataset_dir, tmp_path / "eval"))
    assert code == 1
    err = capsys.readouterr().err
    assert entry["subject_id"] in err and "C3" in err and "100" in err


@pytest.mark.parametrize("command,replay,extra", [
    ("evaluate", "evaluate", ()),
    ("evaluate", "evaluate",
     ("--mode", "da", "--combos", "C1,C10", "--epochs", "1")),
    ("ablate", "ablate", ("--epochs", "1")),
    # evaluate reads the `variants` an ablate config holds
    ("ablate", "evaluate", ("--variants", "full,eegnet", "--epochs", "1")),
], ids=["no-da", "da", "ablate", "ablate-through-evaluate"])
def test_rerun_from_persisted_config_is_byte_identical(dataset_dir,
                                                       tmp_path, command,
                                                       replay, extra):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert run_cli(command, *evaluate_args(dataset_dir, first, *extra)[1:]) \
        == 0
    assert run_cli(replay, "--config", str(first / "run_config.json"),
                   "--out", str(second)) == 0
    assert (first / "report.json").read_bytes() \
        == (second / "report.json").read_bytes()


def test_ablate_replaying_an_evaluate_config_runs_ablation(dataset_dir,
                                                          tmp_path):
    first = tmp_path / "eval"
    second = tmp_path / "ablate"
    assert run_cli(*evaluate_args(dataset_dir, first, "--epochs", "1")) == 0
    assert json.loads((first / "run_config.json").read_text()
                      )["options"]["mode"] == "no-da"
    assert run_cli("ablate", "--config", str(first / "run_config.json"),
                   "--variants", "eegnet", "--out", str(second)) == 0
    config = json.loads((second / "run_config.json").read_text())
    assert config["command"] == "ablate"
    assert config["options"]["mode"] == "ablation"
    report = json.loads((second / "report.json").read_text())
    assert report["mode"] == "ablation"
    assert list(report["variants"]) == ["eegnet"]


@pytest.mark.parametrize("k", ["0", "1", "-2"])
def test_fold_count_below_two_is_user_error(dataset_dir, tmp_path, capsys,
                                            k):
    code = run_cli(*evaluate_args(dataset_dir, tmp_path / "o", "--k", k))
    assert code == 1
    assert f"error: k-fold planning needs k >= 2, got k={k}" \
        in capsys.readouterr().err


def test_inline_synth_spec_as_data_source(tmp_path):
    out = tmp_path / "eval"
    code = run_cli(*evaluate_args(
        "synth:subjects=4,seconds=16,separation=0.8,seed=7", out))
    assert code == 0
    assert len(json.loads((out / "report.json").read_text())["folds"]) == 2


def test_da_mode_selected_combos(dataset_dir, tmp_path):
    out = tmp_path / "da"
    code = run_cli(*evaluate_args(dataset_dir, out, "--mode", "da",
                                  "--combos", "C1,C10", "--epochs", "1"))
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert sorted(payload["combos"]) == ["C1", "C10"]
    assert payload["sweep"]["best_combo"] in ("C1", "C10")
    assert (out / "fold_00_C1.weights").exists()
    assert (out / "fold_01_C10.weights").exists()


def test_unknown_combo_id_is_user_error(dataset_dir, tmp_path, capsys):
    code = run_cli(*evaluate_args(dataset_dir, tmp_path / "da",
                                  "--mode", "da", "--combos", "C99"))
    assert code == 1
    assert "C99" in capsys.readouterr().err
    assert not (tmp_path / "da" / "run_config.json").exists()


@pytest.mark.parametrize("argv,mode", [
    (("evaluate", "--combos", "C1"), "no-da"),
    (("evaluate", "--mode", "ablation", "--combos", "C1,C10"), "ablation"),
    (("ablate", "--config", "CONFIG"), "ablation"),
], ids=["evaluate-no-da", "evaluate-ablation", "ablate-config"])
def test_combos_outside_da_mode_are_refused_before_any_output(
        tmp_path, capsys, argv, mode):
    config = tmp_path / "config.json"
    config.write_text('{"combos": ["C1"]}')
    argv = [str(config) if arg == "CONFIG" else arg for arg in argv]
    out = tmp_path / "run"
    code = run_cli(*argv, "--preset", "desk", "--data",
                   "synth:subjects=4,seconds=8,seed=1", "--k", "2",
                   "--no-tune", "--epochs", "1", "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert (f"error: config field combos has no effect: only mode da runs "
            f"augmentation combos, and mode is '{mode}'") in err
    assert not (out / "run_config.json").exists()


def test_ablate_variant_subdirectories(dataset_dir, tmp_path):
    out = tmp_path / "ablation"
    code = run_cli("ablate", "--data", str(dataset_dir), "--out", str(out),
                   "--k", "2", "--seed", "3", "--variants",
                   "se-only,eegnet", *TINY_MODEL, *FAST_FIT,
                   "--epochs", "1")
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert sorted(payload["variants"]) == ["eegnet", "se-only"]
    hashes = {v["config_hash"] for v in payload["variants"].values()}
    assert len(hashes) == 2
    assert (out / "se-only" / "fold_00.weights").exists()
    assert (out / "eegnet" / "fold_00.weights").exists()


# -- train + explain ---------------------------------------------------------


def test_train_then_explain_round_trip(dataset_dir, tmp_path):
    train_out = tmp_path / "fit"
    code = run_cli("train", "--data", str(dataset_dir), "--out",
                   str(train_out), "--seed", "3", *TINY_MODEL,
                   "--epochs", "2", "--batch-size", "8")
    assert code == 0
    history = json.loads((train_out / "history.json").read_text())
    assert len(history["train_losses"]) == 2
    assert (train_out / "model.weights").exists()

    analysis_out = tmp_path / "analysis"
    code = run_cli("explain", "--weights",
                   str(train_out / "model.weights"), "--data",
                   str(dataset_dir), "--out", str(analysis_out),
                   "--seed", "3", *TINY_MODEL, "--tags", "block1",
                   "--perplexity", "3", "--iterations", "120")
    assert code == 0
    for name in ("spectra.csv", "bands.csv", "maps.csv", "maps.svg",
                 "tsne_block1.csv", "tsne_block1.svg"):
        assert (analysis_out / name).exists(), name
    n_trials = len(segment_all(load_dataset(dataset_dir / "manifest.json")))
    rows = (analysis_out / "tsne_block1.csv").read_text().strip().split("\n")
    assert len(rows) == n_trials + 1  # header plus one point per trial


def test_explain_requires_weights(dataset_dir, tmp_path, capsys):
    code = run_cli("explain", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "x"), *TINY_MODEL)
    assert code == 1
    assert "--weights" in capsys.readouterr().err


def test_explain_perplexity_below_one_is_user_error(dataset_dir, tmp_path,
                                                   capsys):
    weights = tmp_path / "desk.weights"
    build_adhdeepnet(desk_config(), seed=0).save_weights(weights)
    code = run_cli("explain", "--preset", "desk", "--weights", str(weights),
                   "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                   "--perplexity", "0", "--iterations", "50")
    assert code == 1
    assert "perplexity must be >= 1" in capsys.readouterr().err
    for name in ANALYSIS_FILES:
        assert not (tmp_path / "x" / name).exists(), name


@pytest.mark.parametrize("flags, message", [
    (["--iterations", "0"], "iterations must be >= 1"),
    (["--iterations", "-3"], "iterations must be >= 1"),
    (["--tags", "block1,nope"], "unknown capture tags"),
], ids=["iterations-0", "iterations-neg", "unknown-tag"])
def test_explain_bad_arguments_write_no_analysis(dataset_dir, tmp_path,
                                                capsys, flags, message):
    weights = tmp_path / "desk.weights"
    build_adhdeepnet(desk_config(), seed=0).save_weights(weights)
    out = tmp_path / "x"
    code = run_cli("explain", "--preset", "desk", "--weights", str(weights),
                   "--data", str(dataset_dir), "--out", str(out), *flags)
    assert code == 1
    assert message in capsys.readouterr().err
    for name in ANALYSIS_FILES:
        assert not (out / name).exists(), name


def test_explain_truncated_weights_is_user_error(dataset_dir, tmp_path,
                                                capsys):
    weights = tmp_path / "model.weights"
    save_tensors(weights, {"param:w": np.ones(4, np.float32)})
    weights.write_bytes(weights.read_bytes()[:-3])
    code = run_cli("explain", "--weights", str(weights), "--data",
                   str(dataset_dir), "--out", str(tmp_path / "x"),
                   *TINY_MODEL)
    assert code == 1
    assert "model.weights" in capsys.readouterr().err


def test_explain_weights_of_another_preset_is_user_error(dataset_dir,
                                                        tmp_path, capsys):
    weights = tmp_path / "desk.weights"
    build_adhdeepnet(desk_config(), seed=0).save_weights(weights)
    code = run_cli("explain", "--preset", "full", "--weights", str(weights),
                   "--data", str(dataset_dir), "--out", str(tmp_path / "x"))
    assert code == 1
    err = capsys.readouterr().err
    assert str(weights) in err and "stored shape" in err


# -- tune --------------------------------------------------------------------


def test_tune_writes_history_and_best_params(tmp_path, monkeypatch):
    # the real inner loop is exercised elsewhere; here a stub keeps the
    # command wiring test fast
    from adhdeepnet.optimize import BoResult

    captured = {}

    def fake_tune(trials, trainer, iterations, seed, n_seed_points, kappa,
                  history_path):
        captured["iterations"] = iterations
        captured["history_path"] = history_path
        hp = {"learning_rate": 1e-3, "dropout_rate": 0.3, "batch_size": 32,
              "norm_rate": 1.0, "optimizer_kind": "Adam"}
        return BoResult(best_params=hp, best_g=-0.9,
                        history=[(None, -0.9, hp)])

    monkeypatch.setattr(cli, "tune", fake_tune)
    out = tmp_path / "tuned"
    code = run_cli("tune", "--data",
                   "synth:subjects=4,seconds=16,separation=0.8,seed=7",
                   "--out", str(out), "--iterations", "6", "--seed", "3",
                   *TINY_MODEL)
    assert code == 0
    assert captured["iterations"] == 6
    payload = json.loads((out / "best_params.json").read_text())
    assert payload["best_g"] == -0.9
    assert payload["best_params"]["optimizer_kind"] == "Adam"


@pytest.mark.parametrize("flags,message", [
    (("--seed-points", "1", "--iterations", "3"),
     "n_seed_points must be at least 2"),
    (("--seed-points", "0"), "n_seed_points must be at least 2"),
    (("--iterations", "0"), "iterations must be at least 1, got 0"),
    (("--iterations", "-2"), "iterations must be at least 1, got -2"),
    (("--kappa", "-1"), "kappa must be non-negative, got -1.0"),
    (("--kappa", "nan"), "kappa must be non-negative, got nan"),
], ids=["seed-points-1", "seed-points-0", "iterations-0", "iterations-neg",
        "kappa-neg", "kappa-nan"])
def test_tune_bad_arguments_fail_before_any_fit(dataset_dir, tmp_path,
                                                capsys, monkeypatch, flags,
                                                message):
    def no_fit(*args, **kwargs):
        raise AssertionError("an inner fit ran")

    monkeypatch.setattr(cli.Trainer, "fit", no_fit)
    out = tmp_path / "tuned"
    code = run_cli("tune", "--data", str(dataset_dir), "--out", str(out),
                   *TINY_MODEL, *flags)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "bo_history.jsonl").exists()


@pytest.mark.parametrize("command,extra", [
    ("evaluate", ()), ("ablate", ("--variants", "full")),
])
def test_protocol_tunes_at_configured_kappa(dataset_dir, tmp_path,
                                            monkeypatch, command, extra):
    from adhdeepnet import optimize

    seen = []

    def fake_tune(trials, trainer, **kwargs):
        seen.append(kwargs["kappa"])
        hp = {"learning_rate": 1e-3, "dropout_rate": 0.3, "batch_size": 8,
              "norm_rate": 1.0, "optimizer_kind": "Adam"}
        return optimize.BoResult(best_params=hp, best_g=-0.5,
                                 history=[(None, -0.5, hp)])

    monkeypatch.setattr(optimize, "tune", fake_tune)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bo": {"kappa": 0.7}}))
    out = tmp_path / "run"
    assert run_cli(command, "--config", str(config), "--data",
                   str(dataset_dir), "--out", str(out), "--k", "2",
                   *TINY_MODEL, "--epochs", "1", *extra) == 0
    assert seen == [0.7, 0.7]
    assert json.loads((out / "run_config.json").read_text())["bo"]["kappa"] \
        == 0.7


FOLDS = ("--k", "2")


@pytest.mark.parametrize("argv,message", [
    (("train", "--epochs", "0"), "epochs must be >= 1, got 0"),
    (("train", "--epochs", "2", "--batch-size", "-4"),
     "batch_size must be >= 2, got -4"),
    (("evaluate", *FOLDS, *FAST_FIT, "--batch-size", "-4"),
     "batch_size must be >= 2, got -4"),
    (("evaluate", *FOLDS, *FAST_FIT, "--batch-size", "0"),
     "batch_size must be >= 2, got 0"),
    (("evaluate", *FOLDS, *FAST_FIT, "--epochs", "0"),
     "epochs must be >= 1, got 0"),
    (("evaluate", *FOLDS, "--inner-epochs", "0"),
     "epochs must be >= 1, got 0"),
    (("ablate", *FOLDS, "--variants", "full", *FAST_FIT, "--epochs", "-1"),
     "epochs must be >= 1, got -1"),
    (("tune", "--inner-epochs", "0"), "epochs must be >= 1, got 0"),
], ids=["train-epochs-0", "train-batch-neg", "evaluate-batch-neg",
        "evaluate-batch-0", "evaluate-epochs-0", "evaluate-inner-epochs-0",
        "ablate-epochs-neg", "tune-inner-epochs-0"])
def test_bad_epochs_and_batch_sizes_fail_before_any_forward(
        dataset_dir, tmp_path, capsys, monkeypatch, argv, message):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran")  # would exit 2

    monkeypatch.setattr(Model, "forward", no_forward)
    out = tmp_path / "run"
    code = run_cli(*argv, "--data", str(dataset_dir), "--out", str(out),
                   "--seed", "3", *TINY_MODEL)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    written = {p.name for p in out.rglob("*") if p.is_file()}
    assert written <= {"run_config.json", "report.partial.json"}


@pytest.mark.parametrize("argv,config,message", [
    (("train", "--epochs", "2", "--patience", "0"), None,
     "patience must be >= 1, got 0"),
    (("tune", "--inner-patience", "-1"), None,
     "patience must be >= 1, got -1"),
    (("evaluate", *FOLDS, *FAST_FIT, "--patience", "-2"), None,
     "patience must be >= 1, got -2"),
    (("evaluate", *FOLDS, "--inner-patience", "0"), None,
     "patience must be >= 1, got 0"),
    (("evaluate", *FOLDS, *FAST_FIT, "--tune-iterations", "-3"), None,
     "iterations must be at least 1, got -3"),
    (("evaluate", *FOLDS, *FAST_FIT, "--tune-iterations", "4",
      "--seed-points", "1"), None,
     "n_seed_points must be at least 2 for the GP proposals after the seed "
     "points, got 1 with 4 iterations"),
    (("evaluate", *FOLDS, *FAST_FIT, "--inner-epochs", "0"), None,
     "epochs must be >= 1, got 0 for the inner fits"),
    (("evaluate", *FOLDS, *FAST_FIT), {"bo": {"kappa": -0.5}},
     "kappa must be non-negative, got -0.5"),
    (("ablate", *FOLDS, "--variants", "full", *FAST_FIT, "--patience", "0"),
     None, "patience must be >= 1, got 0"),
    (("ablate", *FOLDS, "--variants", "full", *FAST_FIT, "--seed-points",
      "0"), None, "n_seed_points must be at least 2"),
], ids=["train-patience-0", "tune-inner-patience-neg",
        "evaluate-patience-neg", "evaluate-inner-patience-0",
        "evaluate-no-tune-iterations-neg", "evaluate-no-tune-seed-points-1",
        "evaluate-no-tune-inner-epochs-0", "evaluate-no-tune-kappa-neg",
        "ablate-patience-0", "ablate-no-tune-seed-points-0"])
def test_bad_patience_and_tuning_settings_fail_before_any_forward(
        dataset_dir, tmp_path, capsys, monkeypatch, argv, config, message):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran")  # would exit 2

    monkeypatch.setattr(Model, "forward", no_forward)
    extra = ()
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra = ("--config", str(path))
    out = tmp_path / "run"
    code = run_cli(*argv, *extra, "--data", str(dataset_dir), "--out",
                   str(out), "--seed", "3", *TINY_MODEL)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    written = {p.name for p in out.rglob("*") if p.is_file()}
    assert written <= {"run_config.json", "report.partial.json"}


@pytest.mark.parametrize("argv,message", [
    (("train", "--epochs", "2", "--val-fraction", "2.5"),
     "--val-fraction must be in [0, 1), got 2.5"),
    (("train", "--epochs", "2", "--val-fraction", "1"),
     "--val-fraction must be in [0, 1), got 1.0"),
    (("train", "--epochs", "2", "--val-fraction", "-0.1"),
     "--val-fraction must be in [0, 1), got -0.1"),
    (("evaluate", *FOLDS, *FAST_FIT, "--workers", "-3"),
     "workers must be >= 1, got -3"),
    (("evaluate", *FOLDS, "--workers", "0"), "workers must be >= 1, got 0"),
    (("ablate", *FOLDS, "--variants", "full", *FAST_FIT, "--workers", "0"),
     "workers must be >= 1, got 0"),
], ids=["train-val-fraction-2.5", "train-val-fraction-1",
        "train-val-fraction-neg", "evaluate-workers-neg", "evaluate-workers-0",
        "ablate-workers-0"])
def test_out_of_range_fraction_and_workers_fail_before_any_forward(
        dataset_dir, tmp_path, capsys, monkeypatch, argv, message):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran")  # would exit 2

    monkeypatch.setattr(Model, "forward", no_forward)
    out = tmp_path / "run"
    code = run_cli(*argv, "--data", str(dataset_dir), "--out", str(out),
                   "--seed", "3", *TINY_MODEL)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    written = {p.name for p in out.rglob("*") if p.is_file()}
    assert written <= {"run_config.json"}


@pytest.mark.parametrize("argv,message", [
    (("train", "--epochs", "2", "--learning-rate", "nan"),
     "learning_rate must be a finite positive number, got nan"),
    (("train", "--epochs", "2", "--learning-rate", "inf"),
     "learning_rate must be a finite positive number, got inf"),
    (("train", "--epochs", "2", "--norm-rate", "nan"),
     "norm_rate must be a finite positive number, got nan"),
    (("evaluate", *FOLDS, *FAST_FIT, "--norm-rate", "inf"),
     "norm_rate must be a finite positive number, got inf"),
    (("evaluate", *FOLDS, *FAST_FIT, "--mode", "da", "--combos",
      "C1,C10,C1"), "duplicate combo ids ['C1']"),
    (("ablate", *FOLDS, *FAST_FIT, "--variants", "eegnet,full,eegnet"),
     "duplicate variant ids ['eegnet']"),
], ids=["train-lr-nan", "train-lr-inf", "train-norm-nan", "evaluate-norm-inf",
        "evaluate-duplicate-combo", "ablate-duplicate-variant"])
def test_non_finite_rates_and_duplicate_ids_fail_before_any_forward(
        dataset_dir, tmp_path, capsys, monkeypatch, argv, message):
    def no_forward(*args, **kwargs):
        raise AssertionError("a forward pass ran")  # would exit 2

    monkeypatch.setattr(Model, "forward", no_forward)
    out = tmp_path / "run"
    code = run_cli(*argv, "--data", str(dataset_dir), "--out", str(out),
                   "--seed", "3", *TINY_MODEL)
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    written = {p.name for p in out.rglob("*") if p.is_file()}
    assert written <= {"run_config.json", "report.partial.json"}


@pytest.mark.parametrize("argv", [
    ("synth", "--seconds", "inf"),
    ("synth", "--seconds", "nan"),
    ("train", "--data", "synth:subjects=4,seconds=inf"),
    ("evaluate", "--data", "synth:subjects=4,seconds=nan"),
], ids=["synth-inf", "synth-nan", "train-spec-inf", "evaluate-spec-nan"])
def test_non_finite_synth_seconds_is_user_error(tmp_path, capsys, argv):
    code = run_cli(*argv, "--out", str(tmp_path / "run"))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: seconds must be finite, got " in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "run_config.json").exists()


@pytest.mark.parametrize("spec,message", [
    ("subjects=4.5", "subjects='4.5': subjects must be an integer"),
    ("seconds=abc", "seconds='abc': seconds must be a number"),
], ids=["int-key", "float-key"])
def test_bad_synth_spec_value_names_its_key(tmp_path, capsys, spec,
                                            message):
    code = run_cli("train", "--data", f"synth:{spec}",
                   "--out", str(tmp_path / "run"))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: bad synth spec value {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,extra", [
    ("train", ()),
    ("evaluate", ("--k", "2", "--no-tune")),
])
def test_batch_size_one_is_a_user_error(tmp_path, capsys, command, extra):
    """Batch statistics need two trials: a batch size of 1 would train
    nothing and save the untrained weights."""
    out = tmp_path / "run"
    code = run_cli(command, "--data",
                   "synth:subjects=4,seconds=16,separation=1.0,seed=3",
                   "--epochs", "2", "--batch-size", "1", "--out", str(out),
                   *TINY_MODEL, *extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: batch_size must be >= 2, got 1" in err
    assert not list(out.rglob("*.weights"))


@pytest.mark.parametrize("command,payload,message", [
    ("evaluate", {"model": 5}, "config field model must be an object, got 5"),
    ("evaluate", {"bo": []}, "config field bo must be an object, got []"),
    ("train", {"options": "x"},
     'config field options must be an object, got "x"'),
    ("evaluate", {"seed": [1]},
     "config field seed must be an integer, got [1]"),
    ("evaluate", {"bo": {"iterations": None}},
     "config field bo.iterations must be an integer, got null"),
    ("tune", {"bo": {"iterations": None}},
     "config field bo.iterations must be an integer, got null"),
    ("train", {"options": {"hyperparams": {"batch_size": "8"}}},
     'config field options.hyperparams.batch_size must be an integer, '
     'got "8"'),
    ("synth", {"bo": {"iteratons": 1}, "options": {"subjects": 4}},
     "unknown config field bo.iteratons"),
    ("synth", {"options": {"subjets": 8}},
     "unknown config field options.subjets"),
    ("tune", {"options": {"iterations": 3}},
     "unknown config field options.iterations"),
    ("train", {"options": {"hyperparams": {"batchsize": 8}}},
     "unknown config field options.hyperparams.batchsize"),
    ("evaluate", {"model": {"presett": "desk"}},
     "unknown config field model.presett"),
    ("evaluate", {"combos": [["C1"]]},
     'config field combos must be a list of strings, got [["C1"]]'),
    # only evaluate reads the `variants` of an ablate config
    ("train", {"options": {"variants": ["full"]}},
     "unknown config field options.variants"),
], ids=["model-number", "bo-list", "options-string", "seed-list",
        "evaluate-iterations-null", "tune-iterations-null",
        "batch-size-string", "synth-bo-typo", "synth-options-typo",
        "tune-options-key", "hyperparams-typo", "model-typo",
        "combos-nested-list", "train-variants"])
def test_malformed_config_file_is_user_error(dataset_dir, tmp_path, capsys,
                                             command, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    data = () if command == "synth" else ("--data", str(dataset_dir))
    code = run_cli(command, "--config", str(config), *data, "--out",
                   str(tmp_path / "run"), *TINY_MODEL)
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


def _first_entry(**fields):
    def mutate(manifest):
        manifest["subjects"][0].update(fields)
        return manifest
    return mutate


def _drop_field(name, entries=1):
    def mutate(manifest):
        for entry in manifest["subjects"][:entries]:
            del entry[name]
        return manifest
    return mutate


NOT_A_SUBJECT_LIST = ("{path}: the manifest must be a list of subject objects,"
                      ' or an object whose "subjects" holds that list')
# one bad entry: the count line, then the entry's problem indented under it
ONE_FAILED = "1 of {count} subjects failed to load:\n  "


@pytest.mark.parametrize("mutate,message", [
    (lambda m: {"recordings": []}, NOT_A_SUBJECT_LIST),
    (lambda m: {"subjects": "s1.f32"}, NOT_A_SUBJECT_LIST),
    (lambda m: ["s1.f32", "s2.f32"], NOT_A_SUBJECT_LIST),
    (lambda m: {**m, "channels": 5}, "{path}: channels must be a list, got 5"),
    (_first_entry(path=5), ONE_FAILED + "{sid}: path must be a string, got 5"),
    (_first_entry(channels=5),
     ONE_FAILED + "{sid}: channels must be a list, got 5"),
    (_first_entry(fs=[1]),
     ONE_FAILED + "{sid}: fs must be a whole number, got [1]"),
    (_first_entry(fs=1e400),
     ONE_FAILED + "{sid}: fs must be a whole number, got Infinity"),
    (_first_entry(fs=128.7),
     ONE_FAILED + "{sid}: fs must be a whole number, got 128.7"),
    (_first_entry(subject_id=5, path="missing.f32"),
     ONE_FAILED + "5: subject_id must be a string, got 5"),
    (_first_entry(subject_id=5),
     ONE_FAILED + "5: subject_id must be a string, got 5"),
    (_first_entry(subject_id=[1]),
     ONE_FAILED + "[1]: subject_id must be a string, got [1]"),
    (_drop_field("path"), ONE_FAILED + '{sid}: missing field "path"'),
    (_drop_field("label"), ONE_FAILED + '{sid}: missing field "label"'),
    # an entry without an id is named by its position, counted from 1
    (_drop_field("subject_id", entries=2),
     '2 of {count} subjects failed to load:\n'
     '  entry 1: missing field "subject_id"\n'
     '  entry 2: missing field "subject_id"'),
], ids=["object-without-subjects", "subjects-string", "list-of-strings",
        "channels-number", "path-number", "entry-channels-number", "fs-list",
        "fs-infinite", "fs-fraction", "subject-id-number-missing-file",
        "subject-id-number", "subject-id-list", "path-missing",
        "label-missing", "two-subject-ids-missing"])
def test_malformed_manifest_is_user_error(dataset_dir, tmp_path, capsys,
                                          mutate, message):
    path = dataset_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    count = len(manifest["subjects"])
    sid = manifest["subjects"][0]["subject_id"]
    path.write_text(json.dumps(mutate(manifest)))
    code = run_cli(*evaluate_args(dataset_dir, tmp_path / "o"))
    assert code == 1
    err = capsys.readouterr().err
    line = message.format(path=path, count=count, sid=sid)
    assert f"error: {line}\n" in err
    assert "Traceback" not in err


# -- flag handling, seeds, exit codes ---------------------------------------


COMMON_FLAGS = {
    "-h/--help": (), "--config": (), "--seed": ("seed:int",),
    "--out": ("out:str",), "--workers": ("workers:int",),
    "--preset": ("model.preset:str",),
    "--model": ("model.overrides.temporal_filters:int",),
}
DATA_FLAG = {"--data": ("data:str",)}
HYPERPARAM_FLAGS = {
    "--learning-rate": ("options.hyperparams.learning_rate:float",),
    "--dropout": ("options.hyperparams.dropout_rate:float",),
    "--batch-size": ("options.hyperparams.batch_size:int",),
    "--norm-rate": ("options.hyperparams.norm_rate:float",),
    "--optimizer": ("options.hyperparams.optimizer_kind:str",),
}
PROTOCOL_FLAGS = {
    "--k": ("options.k:int",), "--no-tune": ("bo.tune:bool",),
    "--tune-iterations": ("bo.iterations:int",),
    "--seed-points": ("bo.seed_points:int",),
    "--inner-epochs": ("bo.inner_epochs:int",),
    "--inner-patience": ("bo.inner_patience:int",),
    "--epochs": ("options.final_epochs:int",),
    "--patience": ("options.final_patience:int",),
    # a fixed hyperparameter switches the per-fold search off
    **{flag: ("bo.tune:bool", *targets)
       for flag, targets in HYPERPARAM_FLAGS.items()},
}
# option -> the config fields (path:kind) it sets, per subcommand
FLAG_CONTRACT = {
    "synth": {**COMMON_FLAGS, "--subjects": ("options.subjects:int",),
              "--seconds": ("options.seconds:float",),
              "--separation": ("options.separation:float",)},
    "train": {**COMMON_FLAGS, **DATA_FLAG,
              "--epochs": ("options.epochs:int",),
              "--patience": ("options.patience:int",),
              "--val-fraction": ("options.val_fraction:float",),
              **HYPERPARAM_FLAGS},
    "tune": {**COMMON_FLAGS, **DATA_FLAG,
             "--iterations": ("bo.iterations:int",),
             "--seed-points": ("bo.seed_points:int",),
             "--inner-epochs": ("bo.inner_epochs:int",),
             "--inner-patience": ("bo.inner_patience:int",),
             "--kappa": ("bo.kappa:float",)},
    "evaluate": {**COMMON_FLAGS, **DATA_FLAG, **PROTOCOL_FLAGS,
                 "--mode": ("options.mode:str",),
                 "--combos": ("combos:list",)},
    "ablate": {**COMMON_FLAGS, **DATA_FLAG, **PROTOCOL_FLAGS,
               "--variants": ("options.variants:list",)},
    "explain": {**COMMON_FLAGS, **DATA_FLAG,
                "--weights": ("options.weights:str",),
                "--tags": ("options.tags:list",),
                "--perplexity": ("options.perplexity:float",),
                "--iterations": ("options.iterations:int",),
                "--grid-size": ("options.grid_size:int",)},
}
FLAG_CHOICES = {"--preset": ("full", "desk"),
                "--mode": ("no-da", "da", "ablation"),
                "--optimizer": ("Adam", "SGDMomentum", "RMSProp")}


def _flat(payload, prefix=""):
    out = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _merged(parser, argv):
    config = cli._merge_config(parser.parse_args(argv))
    return _flat(dataclasses.asdict(config))


@pytest.mark.parametrize("command", sorted(FLAG_CONTRACT))
def test_every_subcommand_keeps_its_flags(monkeypatch, command):
    """Each flag sets the same config fields, with the same kinds and
    choices: read by parsing it and diffing the merged configuration
    against the subcommand's defaults."""
    monkeypatch.delenv("ADHDNET_SEED", raising=False)
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    base = _merged(parser, [command])
    found, choices = {}, {}
    for action in sub.choices[command]._actions:
        name = "/".join(action.option_strings)
        if action.choices:
            choices[name] = tuple(action.choices)
        if action.dest in ("help", "config"):
            found[name] = ()
            continue
        if action.nargs == 0:
            argv = [name]
        elif action.choices:
            argv = [name, list(action.choices)[-1]]
        elif action.dest == "model":
            argv = [name, "temporal_filters=7"]
        else:
            argv = [name, "7"]
        got = _merged(parser, [command, *argv])
        found[name] = tuple(sorted(
            f"{path}:{type(got[path]).__name__}" for path in got
            if path not in base or got[path] != base[path]))
    assert found == {k: tuple(sorted(v))
                     for k, v in FLAG_CONTRACT[command].items()}
    assert choices == {k: v for k, v in FLAG_CHOICES.items()
                       if k in FLAG_CONTRACT[command]}


def test_unknown_flag_prints_usage_and_exits_1(capsys):
    code = run_cli("evaluate", "--data", "x", "--bogus")
    assert code == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_missing_subcommand_exits_1(capsys):
    assert run_cli() == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert run_cli("--help") == 0
    assert "COMMAND" in capsys.readouterr().out


def test_missing_data_file_is_user_error(tmp_path, capsys):
    code = run_cli(*evaluate_args(tmp_path / "nope.json", tmp_path / "o"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_model_field_is_user_error(dataset_dir, tmp_path, capsys):
    code = run_cli("evaluate", "--data", str(dataset_dir), "--out",
                   str(tmp_path / "o"), "--model", "nonsense=1")
    assert code == 1
    assert "nonsense" in capsys.readouterr().err


BAD_OVERRIDES = [
    ("temporal_filters=1.5",
     "config field model.overrides.temporal_filters must be an integer"),
    ('branch_width="x"',
     "config field model.overrides.branch_width must be an integer"),
    ("depth_multiplier=true",
     "config field model.overrides.depth_multiplier must be an integer"),
    ('branch_sep_kernels=["a",4]', "config field "
     "model.overrides.branch_sep_kernels must be a list of 2 integers"),
    ("branch_sep_kernels=[4]", "config field "
     "model.overrides.branch_sep_kernels must be a list of 2 integers"),
    ("use_se=0", "config field model.overrides.use_se must be true or false"),
    ("se_ratio=0", "se_ratio must be positive, got 0"),
    ("post_sep_kernel=0", "post_sep_kernel must be positive, got 0"),
    ("branch_sep_kernels=[0,4]", "branch_sep_kernels must be positive"),
    ("branch_pool_width=0", "branch_pool_width must be positive, got 0"),
    ("dropout_rate=0.55", "config field model.overrides.dropout_rate has no "
     "effect: every fit takes its dropout rate from the dropout_rate "
     "hyperparameter (--dropout)"),
    # the data fixes the input shape and the class count: no config field
    ("channels=18", "unknown model config field 'channels'"),
    ("classes=3", "unknown model config field 'classes'"),
    ("time_steps=100", "unknown model config field 'time_steps'"),
]


@pytest.mark.parametrize("override,message", BAD_OVERRIDES,
                         ids=[override for override, _ in BAD_OVERRIDES])
def test_bad_model_override_is_refused_before_the_data(tmp_path, capsys,
                                                       override, message):
    """Each override is checked for its field, its field's kind and its
    range before the data loads: the manifest here does not exist, and no
    output directory is made."""
    out = tmp_path / "run"
    code = run_cli("train", "--preset", "desk", "--data",
                   str(tmp_path / "missing.json"), "--out", str(out),
                   "--model", override)
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("tune",), ("evaluate",), ("ablate",), ("explain", "--weights", "w"),
], ids=["tune", "evaluate", "ablate", "explain"])
def test_every_model_command_checks_overrides_first(tmp_path, capsys, argv):
    out = tmp_path / "run"
    code = run_cli(*argv, "--preset", "desk", "--data",
                   str(tmp_path / "missing.json"), "--out", str(out),
                   "--model", "use_se=1")
    assert code == 1
    assert "model.overrides.use_se" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra,env,message", [
    (("--seed", "-1"), None, "--seed must be a non-negative integer, got -1"),
    ((), "-4", "ADHDNET_SEED must be a non-negative integer, got -4"),
    (("--data", "synth:subjects=2,seconds=8,seed=-3"), None,
     "bad synth spec value seed=-3: seed must be a non-negative integer"),
    (("--config", "CONFIG"), None,
     "config field seed must be a non-negative integer, got -2"),
], ids=["flag", "env", "synth-spec", "config-file"])
def test_negative_seed_is_refused_before_any_output(tmp_path, capsys,
                                                    monkeypatch, extra, env,
                                                    message):
    monkeypatch.delenv("ADHDNET_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("ADHDNET_SEED", env)
    config = tmp_path / "config.json"
    config.write_text('{"seed": -2}')
    extra = [str(config) if arg == "CONFIG" else arg for arg in extra]
    out = tmp_path / "run"
    data = () if "--data" in extra else (
        "--data", "synth:subjects=2,seconds=8")
    code = run_cli("train", *data, *extra, "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (out / "run_config.json").exists()


def test_internal_error_exits_2(dataset_dir, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli, "evaluate_no_da", boom)
    code = run_cli(*evaluate_args(dataset_dir, tmp_path / "o"))
    assert code == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ADHDNET_SEED", "99")
    out = tmp_path / "d"
    assert run_cli("synth", "--subjects", "2", "--seconds", "8",
                   "--out", str(out)) == 0
    assert json.loads((out / "run_config.json").read_text())["seed"] == 99


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ADHDNET_SEED", "99")
    out = tmp_path / "d"
    assert run_cli("synth", "--subjects", "2", "--seconds", "8",
                   "--seed", "5", "--out", str(out)) == 0
    assert json.loads((out / "run_config.json").read_text())["seed"] == 5


def test_bad_env_seed_is_user_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ADHDNET_SEED", "not-a-number")
    code = run_cli("synth", "--subjects", "2", "--seconds", "8",
                   "--out", str(tmp_path / "d"))
    assert code == 1
    assert "ADHDNET_SEED" in capsys.readouterr().err


def test_flags_override_config_file(dataset_dir, tmp_path):
    first = tmp_path / "a"
    assert run_cli(*evaluate_args(dataset_dir, first, "--seed", "3")) == 0
    second = tmp_path / "b"
    assert run_cli("evaluate", "--config", str(first / "run_config.json"),
                   "--out", str(second), "--seed", "4") == 0
    config = json.loads((second / "run_config.json").read_text())
    assert config["seed"] == 4
    assert config["out"] == str(second)
    # the overridden seed must actually reach the protocol
    a = json.loads((first / "report.json").read_text())
    b = json.loads((second / "report.json").read_text())
    assert a["seed"] == 3 and b["seed"] == 4


def test_unknown_config_field_is_user_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "synth", "surprise": 1}')
    code = run_cli("synth", "--config", str(bad), "--out",
                   str(tmp_path / "d"))
    assert code == 1
    assert "surprise" in capsys.readouterr().err


def test_progress_events_on_stderr(dataset_dir, tmp_path, capsys):
    assert run_cli(*evaluate_args(dataset_dir, tmp_path / "o")) == 0
    err = capsys.readouterr().err
    assert "[run]" in err
    assert "[fold 0] start" in err and "[fold 1] done" in err
    assert "[epoch 0]" in err
