"""Property checks of the two readers of user JSON, ``--config`` files and
dataset manifests, alone and through ``cli.main``.

Each example mutates a file the program itself writes: a key of one of
its objects is given another JSON kind, dropped, or joined by an unknown
key. No list changes length and no size grows, so no example trains a
model or synthesizes more than the 4-subject cohort below. The searches
are derandomized with a fixed example count, so every run checks the
same examples.
"""

import copy
import io
import json
import re
from contextlib import redirect_stderr

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adhdeepnet import cli, evaluate
from adhdeepnet.data import (EegRecording, IngestionError, generate_synthetic,
                             load_dataset, save_dataset)
from adhdeepnet.model import Model

VALUES = st.sampled_from([None, True, False, 0, -3, 7, 2.5, 1e400, "", "x",
                          "full", [], ["x"], [5], [["x"]], {}, {"zz": 1}]) \
    .map(copy.deepcopy)  # a later mutation may edit the value in place
KEYS = st.sampled_from(["zz", "iteratons", "subjets", "k", "path", "fs"])
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _objects(payload):
    if isinstance(payload, dict):
        yield payload
        for value in payload.values():
            yield from _objects(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _objects(value)


@st.composite
def mutations(draw, payload):
    """``payload`` after one to three key mutations of its objects, and the
    keys mutated: each key changed, added or dropped, and every key inside
    the value it held."""
    payload = copy.deepcopy(payload)
    keys = set()
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(list(_objects(payload))))
        action = draw(st.sampled_from(("kind", "drop", "add")))
        if action == "add" or not target:
            key = draw(KEYS)
        else:
            key = draw(st.sampled_from(sorted(target)))
        keys.add(key)
        keys.update(name for obj in _objects(target.get(key)) for name in obj)
        if action == "drop" and target:
            del target[key]
        else:
            target[key] = draw(VALUES)
    return payload, keys


def mutated(payload):
    """``payload`` after one to three key mutations of its objects."""
    return mutations(payload).map(lambda pair: pair[0])


# -- --config files ----------------------------------------------------------

DATA = "synth:subjects=4,seconds=8,separation=0.8,seed=1"
WRITTEN = {
    "synth": ("synth", "--subjects", "4"),
    "train": ("train", "--data", DATA, "--epochs", "2", "--dropout", "0.5"),
    "tune": ("tune", "--data", DATA, "--iterations", "3"),
    "evaluate": ("evaluate", "--data", DATA, "--mode", "da", "--combos",
                 "C1,C10", "--no-tune"),
    "ablate": ("ablate", "--data", DATA, "--variants", "full,eegnet"),
    "explain": ("explain", "--data", DATA, "--weights", "w", "--tags",
                "block1"),
}
# (command that wrote the file, command that replays it)
REPLAYS = [(command, command) for command in WRITTEN] \
    + [("ablate", "evaluate"), ("evaluate", "ablate")]


def _written_config(command):
    """The ``run_config.json`` a run of ``command`` writes."""
    parser = cli.build_parser()
    args = parser.parse_args([*WRITTEN[command], "--out", "o", "--seed", "3",
                              "--preset", "desk"])
    return json.loads(cli._merge_config(args).to_json_text())


def _assert_known_kinds(where, value, default):
    if where == "model.overrides":
        return  # ModelConfig fields, checked when the model is built
    assert type(value) is type(default), where
    if isinstance(default, list):
        assert all(isinstance(item, str) for item in value), where
    if isinstance(default, dict):
        for key, inner in value.items():
            path = f"{where}.{key}" if where else key
            assert key in default, path
            _assert_known_kinds(path, inner, default[key])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@pytest.mark.parametrize("written,replay", REPLAYS,
                         ids=[f"{w}-{r}" for w, r in REPLAYS])
def test_config_merge_keeps_known_keys_and_kinds(workdir, written, replay):
    source = _written_config(written)
    defaults = cli._defaults(replay)
    defaults["options"].update(cli._COMMANDS[replay].reads)
    del defaults["command"]  # the invoked subcommand, whatever the file says
    parser = cli.build_parser()
    path = workdir / f"{written}-{replay}.json"

    @settings(SETTINGS, max_examples=200)
    @given(mutated(source))
    def check(payload):
        path.write_text(json.dumps(payload))
        try:
            config = cli._merge_config(
                parser.parse_args([replay, "--config", str(path)]))
        except ValueError:
            return
        merged = json.loads(config.to_json_text())
        assert merged.pop("command") == replay
        fixed = cli._COMMANDS[replay].fixed
        assert {key: merged["options"][key] for key in fixed} == fixed
        _assert_known_kinds("", merged, defaults)

    check()


# -- manifests ---------------------------------------------------------------


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A written 4-subject manifest and its JSON."""
    path = save_dataset(generate_synthetic(2, 4.0, 0.8, seed=1),
                        tmp_path_factory.mktemp("cohort"))
    return path, json.loads(path.read_text())


@settings(SETTINGS, max_examples=150)
@given(data=st.data())
def test_manifest_loads_or_raises_ingestion_error(cohort, data):
    path, original = cohort
    path.write_text(json.dumps(data.draw(mutated(original))))
    try:
        recordings = load_dataset(path)
    except IngestionError:
        return
    assert all(isinstance(r, EegRecording) for r in recordings)


# -- cli.main on both --------------------------------------------------------


class _ReachedTheWork(BaseException):
    """Raised in place of a run's first forward pass or fold worker pool:
    the run accepted its inputs. Not an Exception, so ``cli.main`` does not
    turn it into an exit code."""


def _names_a_key(message, keys):
    """Whether ``message`` names one of ``keys``, or a word of one
    (``final_epochs`` -> ``epochs``)."""
    return any(re.search(rf"\b{re.escape(word)}\b", message)
               for key in keys for word in {key, *key.split("_")})


def _stop(*args, **kwargs):
    raise _ReachedTheWork


@pytest.mark.parametrize("command,flags", [
    ("train", ("--epochs", "2")),
    ("evaluate", ("--k", "2", "--no-tune", "--epochs", "1")),
])
def test_cli_exits_zero_or_one_naming_the_field(tmp_path, monkeypatch,
                                                command, flags):
    monkeypatch.chdir(tmp_path)  # a mutated "out" lands here
    monkeypatch.setattr(Model, "forward", _stop)
    monkeypatch.setattr(evaluate, "ProcessPoolExecutor", _stop)
    manifest = save_dataset(generate_synthetic(2, 4.0, 0.8, seed=1),
                            tmp_path / "cohort")
    cohort = json.loads(manifest.read_text())
    with pytest.raises(_ReachedTheWork), redirect_stderr(io.StringIO()):
        cli.main([command, "--data", str(manifest), "--out", "written",
                  *flags])
    written = json.loads((tmp_path / "written" / "run_config.json")
                         .read_text())

    @settings(SETTINGS, max_examples=100)
    @given(st.data())
    def check(data):
        config, entries, keys = written, cohort, set()
        which = data.draw(st.sampled_from(("config", "manifest", "both")))
        if which != "manifest":
            config, changed = data.draw(mutations(written))
            keys |= changed
        if which != "config":
            entries, changed = data.draw(mutations(cohort))
            keys |= changed
        manifest.write_text(json.dumps(entries))
        (tmp_path / "config.json").write_text(json.dumps(config))
        stderr = io.StringIO()
        try:
            with redirect_stderr(stderr):
                code = cli.main([command, "--config", "config.json"])
        except _ReachedTheWork:
            return
        text = stderr.getvalue()
        assert code in (0, 1), text
        if code == 1:
            errors = [line for line in text.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1, text
            message = text[text.index("error:"):]
            assert _names_a_key(message, keys), (sorted(keys), message)

    check()
