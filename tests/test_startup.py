"""What a command pays for before it does any work: no command, ``tune``
included, loads a scipy subpackage beyond those ``import adhdeepnet.cli``
loads (``scipy.fft``, ``scipy.special`` and what they import), so none
imports ``scipy.stats``.

The commands run in a fresh interpreter, since the test session itself has
long since imported ``scipy.stats``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
seen = []

def loaded(step):
    seen.append([step, sorted({".".join(name.split(".")[:2])
                               for name in sys.modules
                               if name.startswith("scipy.")})])

loaded("import")
from adhdeepnet import cli
loaded("import adhdeepnet.cli")

tiny = ["--seed", "3", "--preset", "desk",
        "--model", "temporal_filters=4", "--model", "temporal_kernel=8",
        "--model", "branch_width=4", "--model", "branch_sep_kernels=[4,8]",
        "--model", "branch_pool_width=3", "--model", "post_sep_kernel=8",
        "--model", "se_ratio=4"]
data = ["--data", str(out / "data")]
runs = {
    "synth": ["--subjects", "4", "--seconds", "8", "--seed", "3"],
    "train": [*data, *tiny, "--epochs", "1", "--batch-size", "8"],
    "evaluate": [*data, *tiny, "--k", "2", "--no-tune", "--epochs", "1",
                 "--batch-size", "8"],
    "explain": [*data, *tiny, "--weights", str(out / "train" / "model.weights"),
                "--tags", "block1", "--perplexity", "3",
                "--iterations", "20"],
    "tune": [*data, *tiny, "--iterations", "2", "--seed-points", "2",
             "--inner-epochs", "1"],
    "ablate": [*data, *tiny, "--k", "2", "--variants", "full", "--no-tune",
               "--epochs", "1", "--batch-size", "8"],
}
for command, argv in runs.items():
    target = out / ("data" if command == "synth" else command)
    code = cli.main([command, *argv, "--out", str(target)])
    assert code == 0, (command, code)
    loaded(command)
print(json.dumps(seen))
"""


def test_no_command_loads_scipy_beyond_the_cli_import(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = dict(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert list(seen) == ["import", "import adhdeepnet.cli", "synth",
                          "train", "evaluate", "explain", "tune", "ablate"]
    assert seen["import"] == []
    cli_import = set(seen["import adhdeepnet.cli"])
    assert {"scipy.fft", "scipy.special"} <= cli_import
    for step, subpackages in seen.items():
        assert "scipy.stats" not in subpackages, step
        assert set(subpackages) <= cli_import, (step, subpackages)
