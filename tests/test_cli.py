"""End-to-end checks of the command-line interface.

Everything runs in-process through cli.main so exit codes and stderr are
observable without subprocesses. Model sizes are shrunk to keep each
command under a few seconds.
"""

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


@pytest.mark.parametrize("command,extra", [
    ("evaluate", ()),
    ("evaluate", ("--mode", "da", "--combos", "C1,C10", "--epochs", "1")),
    ("ablate", ("--epochs", "1")),
], ids=["no-da", "da", "ablate"])
def test_rerun_from_persisted_config_is_byte_identical(dataset_dir,
                                                       tmp_path, command,
                                                       extra):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert run_cli(command, *evaluate_args(dataset_dir, first, *extra)[1:]) \
        == 0
    assert run_cli(command, "--config", str(first / "run_config.json"),
                   "--out", str(second)) == 0
    assert (first / "report.json").read_bytes() \
        == (second / "report.json").read_bytes()


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
    from adhdeepnet.optimize import HyperParams, BoResult

    captured = {}

    def fake_tune(trials, trainer, iterations, seed, n_seed_points, kappa,
                  history_path):
        captured["iterations"] = iterations
        captured["history_path"] = history_path
        hp = HyperParams(learning_rate=1e-3, dropout_rate=0.3, batch_size=32,
                         norm_rate=1.0, optimizer_kind="Adam")
        return hp, BoResult(best_params=hp.as_dict(), best_g=-0.9,
                            history=[(None, -0.9, hp.as_dict())])

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
        hp = optimize.HyperParams(learning_rate=1e-3, dropout_rate=0.3,
                                  batch_size=8, norm_rate=1.0,
                                  optimizer_kind="Adam")
        return hp, optimize.BoResult(best_params=hp.as_dict(), best_g=-0.5,
                                     history=[(None, -0.5, hp.as_dict())])

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
     "batch_size must be >= 1, got -4"),
    (("evaluate", *FOLDS, *FAST_FIT, "--batch-size", "-4"),
     "batch_size must be >= 1, got -4"),
    (("evaluate", *FOLDS, *FAST_FIT, "--batch-size", "0"),
     "batch_size must be >= 1, got 0"),
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


# -- flag handling, seeds, exit codes ---------------------------------------


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
