"""Benchmark of the adhdeepnet workbench: four workloads, each run as one
process in a closed loop, with end-to-end metrics and a traced per-layer
run.

Run it from the root of a checkout (it imports the package from ``src/``):

    python3 perfbench/run.py --workload desk-cv --seed 7 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``full-train-infer``,
``desk-cv``, ``desk-tune-da`` and ``explain-full``. The seed picks the
synthetic cohort; the program's own seed stays fixed.

With ``--trace 0`` the last line of standard output is one JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of the traced run, whose passes alternate between tracing on and
off so that the tracing overhead is measured in the same process. Either
way ``perfbench-results/`` receives a ``BENCH_*.json`` file with the
metrics, every pass, and the run's provenance (numpy and BLAS versions,
thread counts, seed, the settings each fold chose); a traced run also
writes its spans there. Scratch files go to ``.perfbench-work/`` and are
removed before the process exits.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("full-train-infer", "desk-cv", "desk-tune-da",
                  "explain-full")
LAYERS = ("tensor", "nn", "model", "data", "augment", "train", "optimize",
          "evaluate", "explain", "cli")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB",
              "ok_share": "fraction"}
SETUP_PROBES = 2      # set-ups in fresh processes; the run's own is a third
MIN_PASSES = 2        # the replay checks need two passes
PROBE_TIMEOUT_S = 150
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESULTS_DIR = "perfbench-results"
WORK_DIR = ".perfbench-work"
# (preset, batch, rounds) of the traced run's stage profile, per scale
STAGE_PROFILE = {"bench": (("full", 32, 1), ("desk", 32, 3)),
                 "tiny": (("full", 2, 1), ("desk", 4, 1))}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one adhdeepnet benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the synthetic cohort")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "tiny"),
                        default="bench",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def limit_blas_threads():
    """Pin BLAS threads before numpy is imported, here and in children."""
    for name in THREAD_ENV:
        os.environ[name] = str(BLAS_THREADS)


def set_up(args, workdir, tracer=None):
    """Import the package, build the workload's inputs and warm it up.

    Returns (modules, workload, seconds taken). The time covers the
    package import (numpy and scipy included), cohort synthesis and
    segmentation, model build and the warm-up call.
    """
    t0 = time.perf_counter()
    modules = {name: importlib.import_module(f"adhdeepnet.{name}")
               for name in LAYERS}
    import_s = time.perf_counter() - t0

    import tracing
    from workloads import WORKLOADS

    if tracer is not None:
        tracing.install(tracer, modules)
        tracer.enabled = True
    t1 = time.perf_counter()
    workload = WORKLOADS[args.workload](modules, args.seed, workdir,
                                        args.scale)
    try:
        workload.setup()
    except BaseException:
        workload.close()
        raise
    finally:
        if tracer is not None:
            tracer.enabled = False
    return modules, workload, import_s + time.perf_counter() - t1


def probe_setup(args, root):
    """Time one set-up in a fresh process, the way a user pays for it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--scale", args.scale, "--setup-probe"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds, tracer):
    """Closed loop: one pass at a time until about ``seconds`` have passed.

    With a tracer, odd passes run traced and even passes untraced.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.pass_index = index
            tracer.enabled = traced
        started = time.perf_counter()
        try:
            record = workload.run_pass(index)
        except Exception:
            record = {"wall_s": time.perf_counter() - started,
                      "operations": workload.operations_per_pass,
                      "failures": [traceback.format_exc()]}
        finally:
            if tracer is not None:
                tracer.enabled = False
        elapsed = time.perf_counter() - started
        record["traced"] = traced
        passes.append(record)
        for message in record["failures"]:
            print(f"perfbench: pass {index} failed: {message}",
                  file=sys.stderr)
        # stop when another pass would end further past the deadline
        # than we are short of it now
        if len(passes) >= MIN_PASSES and \
                time.perf_counter() + elapsed / 2 >= deadline:
            return passes


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args, modules):
    import numpy as np

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def per_layer_units():
    import stages
    import tracing

    units = {**tracing.PASS_METRICS, **tracing.SETUP_METRICS,
             "evaluate.sample_accuracy": "fraction"}
    for preset in stages.PRESETS:
        units.update(dict.fromkeys(stages.metric_names(preset), "ms"))
    return units


def traced_metrics(args, modules, tracer, passes):
    """Per-layer medians over the traced passes, the set-up spans and the
    stage profile; also the tracing overhead in seconds per pass."""
    import numpy as np

    import stages
    import tracing
    from workloads import SEPARATION

    per_pass = []
    for index, record in enumerate(passes):
        if record["traced"]:
            values = tracing.pass_metrics(
                [s for s in tracer.spans if s["pass"] == index])
            values["evaluate.sample_accuracy"] = record.get(
                "sample_accuracy", 0.0)
            per_pass.append(values)
    metrics = {key: statistics.median(v[key] for v in per_pass)
               for key in per_pass[0]}
    metrics.update(tracing.setup_metrics(
        [s for s in tracer.spans if s["pass"] == -1]))

    data = modules["data"]
    trials = data.segment_all(
        data.generate_synthetic(2, 32.0, SEPARATION, args.seed))
    for preset, batch, rounds in STAGE_PROFILE[args.scale]:
        x = np.stack([t.window for t in trials[:batch]])[:, None]
        y = np.stack([t.label_vector for t in trials[:batch]])
        metrics.update(stages.profile(modules, preset, x.astype(np.float32),
                                      y.astype(np.float32), rounds))

    def median_wall(traced):
        return statistics.median(p["wall_s"] for p in passes
                                 if p["traced"] == traced)

    return metrics, median_wall(True) - median_wall(False)


def run(args, root, workdir):
    setup_samples = [probe_setup(args, root) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    modules, workload, own_setup = set_up(args, workdir, tracer)
    setup_samples.append(own_setup)
    try:
        passes = measure(workload, args.seconds, tracer)
    finally:
        workload.close()
        if tracer is not None:
            tracer.uninstall()

    attempted = sum(p["operations"] for p in passes)
    failed = sum(min(p["operations"], len(p["failures"])) for p in passes)
    record = {"provenance": provenance(args, modules),
              "workload_settings": workload.provenance,
              "setup_samples_s": setup_samples,
              "passes": [{k: v for k, v in p.items() if k != "failures"}
                         | {"failures": len(p["failures"])} for p in passes]}

    if args.trace:
        values, overhead = traced_metrics(args, modules, tracer, passes)
        units = per_layer_units()
        record["trace_overhead_s"] = overhead
    else:
        walls = [p["wall_s"] for p in passes]
        values = {"setup_s": statistics.median(setup_samples),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mib": peak_rss_mib(),
                  "ok_share": (attempted - failed) / attempted}
        units = END_TO_END

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(values[name]),
                                 "unit": units[name]}
                          for name in sorted(values)}}
    record.update(result)
    out = root / RESULTS_DIR
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (out / f"BENCH_{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_jsonl(out / f"spans_{stem}.jsonl")
    print(f"perfbench: {len(passes)} passes; details in "
          f"{RESULTS_DIR}/BENCH_{stem}.json")
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "adhdeepnet" / "__init__.py").is_file():
        print(f"perfbench: {src / 'adhdeepnet'} not found; run from the "
              f"root of an adhdeepnet checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(src))
    workdir = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            _, workload, seconds = set_up(args, workdir)
            workload.close()
            print(json.dumps({"setup_s": seconds}))
            return 0
        return run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
