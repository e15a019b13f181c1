"""Self-test of the benchmark: every workload at tiny sizes, untraced and
traced, checked against the schema in BENCHMARK.json. No timing gate.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(declared)
    for name, entry in metrics.items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == declared[name]
        assert isinstance(entry["value"], float)
        assert math.isfinite(entry["value"])
    return {name: entry["value"] for name, entry in metrics.items()}


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = check_result(last_json(run_bench(workload, 0)), declared)
    assert all(v != 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = check_result(last_json(run_bench(workload, 1)), declared)
    for preset in ("full", "desk"):
        parts = sum(v for k, v in values.items()
                    if k.startswith(f"model.{preset}.")
                    and k.endswith(("fwd_ms", "bwd_ms")))
        parts += values[f"model.{preset}.other_ms"]
        parts += values[f"nn.{preset}.optimizer_step_ms"]
        parts += values[f"model.{preset}.unattributed_ms"]
        assert parts == pytest.approx(values[f"model.{preset}.step_ms"])
    touched = {"full-train-infer": "train.fit_s", "desk-cv": "evaluate.folds",
               "desk-tune-da": "optimize.proposals",
               "explain-full": "explain.tsne_points"}
    assert values[touched[workload]] > 0
    if workload == "desk-cv":
        assert values["augment.trials_added"] == 0  # bypasses augment
    if workload == "desk-tune-da":
        assert values["augment.trials_added"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
