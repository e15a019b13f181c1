"""The benchmark's own self-test, run as part of the suite.

``perfbench`` wraps ``optimize.propose_next``,
``optimize.make_inner_objective`` and other module-level functions by
name, and drives the CLI with fixed flags. Its self-test runs every
workload at tiny scale, untraced and traced, with no timing gate, so a
rename or a dropped flag fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
