"""Hash every output of a fixed set of adhdeepnet commands.

    python tools/fingerprint_outputs.py OUT

Runs seven commands in-process through ``cli.main``, each writing under
its own directory of OUT. ``synth`` writes a 4-subject cohort; the others
run on the synthetic cohort
``synth:subjects=8,seconds=24,separation=1.0,seed=3``:

* ``synth``: ``synth --subjects 4 --seconds 8 --separation 0.9``
* ``tune``: desk ``tune``
* ``evaluate``: tuned desk ``evaluate``
* ``evaluate-da``: tuned desk ``evaluate --mode da --combos C1,C10``
* ``ablate``: desk ``ablate --variants full,eegnet --no-tune``
* ``train``: desk ``train --val-fraction 0.25``
* ``explain``: full-preset ``explain`` on the seed-3 weights of
  ``build_adhdeepnet``, saved as ``full_seed3.weights``

It prints ``sha256  path`` for every file under OUT and for each command's
standard error (``<command>/<stderr>``). OUT itself is masked as ``<OUT>``
in every file and in standard error, and the ``wall_time_s`` timings of
``bo_history.jsonl`` read 0, so two checkouts that write the same outputs
print the same lines, into any OUT. The package is imported from the
``src/`` next to this script: to compare two checkouts, run each one's
copy of the script and diff what they print. OUT must be empty or new;
exits 1 if a command fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from adhdeepnet import cli  # noqa: E402
from adhdeepnet.model import ModelConfig, build_adhdeepnet  # noqa: E402

DATA = "synth:subjects=8,seconds=24,separation=1.0,seed=3"
DESK = ("--preset", "desk", "--data", DATA, "--seed", "3")
TUNED = ("--k", "2", "--tune-iterations", "3", "--seed-points", "2",
         "--inner-epochs", "1", "--epochs", "2")
WALL_TIME = re.compile(rb'"wall_time_s": [-+.0-9eE]+')


def commands(weights):
    return {
        "synth": ("synth", "--subjects", "4", "--seconds", "8",
                  "--separation", "0.9", "--seed", "3"),
        "tune": ("tune", *DESK, "--iterations", "4", "--seed-points", "2",
                 "--inner-epochs", "1"),
        "evaluate": ("evaluate", *DESK, *TUNED),
        "evaluate-da": ("evaluate", *DESK, *TUNED, "--mode", "da",
                        "--combos", "C1,C10"),
        "ablate": ("ablate", *DESK, "--k", "2", "--variants", "full,eegnet",
                   "--no-tune", "--epochs", "2"),
        "train": ("train", *DESK, "--epochs", "2", "--val-fraction", "0.25"),
        "explain": ("explain", "--preset", "full", "--data", DATA, "--seed",
                    "3", "--weights", str(weights), "--iterations", "250"),
    }


def digest(payload, out):
    return hashlib.sha256(payload.replace(str(out).encode(), b"<OUT>")) \
        .hexdigest()


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/fingerprint_outputs.py OUT",
              file=sys.stderr)
        return 1
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    weights = out / "full_seed3.weights"
    build_adhdeepnet(ModelConfig(), seed=3).save_weights(str(weights))
    lines = []
    for name, argv_ in commands(weights).items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv_, "--out", str(out / name)])
        if code != 0:
            sys.stderr.write(err.getvalue())
            print(f"{name} exited {code}", file=sys.stderr)
            return 1
        lines.append(f"{digest(err.getvalue().encode(), out)}  "
                     f"{name}/<stderr>")
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        payload = path.read_bytes()
        if path.name == "bo_history.jsonl":
            payload = WALL_TIME.sub(b'"wall_time_s": 0', payload)
        lines.append(f"{digest(payload, out)}  {path.relative_to(out)}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
