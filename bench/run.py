"""calibrex benchmark: one command, three workloads, a traced per-layer run.

    python3 bench/run.py --workload eval_k10 --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``eval_k10`` and ``eval_k120`` time
``calibrex eval`` at N=10,000 with K=10 and K=120; ``population`` times
``enumerate --dedupe``, ``correlate`` and ``search`` over the 15,625-cell
topology space.  Each is a closed loop of in-process CLI calls, one caller
and ``--jobs 1``.  Inputs are generated from ``--seed`` by ``inputs.py`` in
a child process and cached under ``.bench_work/``; generation and output
checks are never timed.  BLAS and OpenMP pools are pinned to one thread,
so a pass's wall time does not depend on the load on another CPU; the
parallelism calibrex offers itself is ``--jobs``, kept at one here.

With ``--trace 0`` the run repeats the workload's pass for ``--seconds``
and reports the end-to-end metrics:

* ``setup_s``: median wall time of a fresh interpreter that imports
  ``calibrex.cli`` and builds its parser (every CLI call pays it);
* ``pass_s``: median wall time of one pass;
* ``peak_rss_mb``: peak resident memory of this process after the timed
  loop (input generation runs in a child, so it is not included).

With ``--trace 1`` the run replays every workload once under tracing (see
``tracing.py``) and reports every per-layer metric; ``--seconds`` is not
used.  Either way, every output is checked (``checks.py``), the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and the full
result with its provenance is written under ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# bounds the outputs kept for checking if calls start failing fast
MAX_PASSES = 500
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = ("import sys, calibrex.cli\n"
              "calibrex.cli.build_parser()\n"
              "sys.stdout.write(calibrex.__file__)\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_calibrex():
    """Import calibrex from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import calibrex
        import calibrex.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import calibrex from {SRC}: {exc}")
    if not Path(calibrex.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: calibrex resolved to {calibrex.__file__}, "
                         f"not to {SRC}")
    return calibrex


def setup_seconds(env: dict, repeats: int):
    """Wall times of fresh interpreters importing calibrex.cli."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not Path(proc.stdout).resolve() \
                .is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: set-up child failed: "
                             f"{proc.stderr.strip()[-300:]}")
    return times


def generate_inputs(workload: str, seed: int, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(WORK / "inputs" / workload)],
        env=env, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: input generation failed: "
                         f"{proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def input_shapes(workload: str) -> dict:
    import inputs
    import workloads
    if workload in inputs.EVAL_SHAPES:
        n, k = inputs.EVAL_SHAPES[workload]
        return {"n": n, "k": k, "models_per_run": inputs.MODELS_PER_RUN,
                "ood_size": inputs.OOD_SIZE}
    return {"cells": inputs.TSS_CELLS,
            "table_columns": len(inputs.table_names()),
            "search_budget": workloads.SEARCH_BUDGET,
            "search_records": 2 * inputs.TSS_CELLS}


def provenance(args, calibrex, manifests: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "calibrex": calibrex.__version__,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_commit": git_commit(),
        "inputs": {w: {"shape": input_shapes(w), "sha256": m["files"]}
                   for w, m in manifests.items()}}


def measure(args, ledger, wl, env) -> tuple:
    """Set-up samples, then timed passes for ``args.seconds``."""
    setup = setup_seconds(env, SETUP_REPEATS)
    wl.warm_up(ledger)
    pass_s, elapsed, i = [], 0.0, 0
    while elapsed < args.seconds and i < MAX_PASSES:
        t0 = time.perf_counter()
        wl.run_pass(ledger, i)
        pass_s.append(time.perf_counter() - t0)
        elapsed += pass_s[-1]
        i += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check(ledger)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    details = {"setup_samples_s": setup, "pass_samples_s": pass_s,
               **wl.details(pass_s)}
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("eval_k10", "eval_k120", "population"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    # before numpy loads: calibrex is measured as one single-threaded caller
    for var in THREAD_VARS:
        os.environ[var] = "1"
    calibrex = import_calibrex()
    sys.path.insert(0, str(BENCH))
    import workloads

    env = child_env()
    names = [args.workload] if not args.trace else \
        ["eval_k10", "eval_k120", "population"]
    manifests = {w: generate_inputs(w, args.seed, env) for w in names}
    ledger = workloads.Ledger()
    wls = {}
    for w in names:
        outdir = WORK / "out" / w
        outdir.mkdir(parents=True, exist_ok=True)
        for old in outdir.iterdir():
            old.unlink()
        wls[w] = workloads.make_workload(w, args.seed,
                                         WORK / "inputs" / w, outdir)
    if args.trace:
        import tracing
        span_path = WORK / "trace" / f"spans-seed{args.seed}.json"
        span_path.parent.mkdir(parents=True, exist_ok=True)
        layer = tracing.traced_run(ledger, wls, env, span_path)
        units = tracing.per_layer_names()
        metrics = {n: {"value": layer.get(n, 0.0), "unit": u}
                   for n, u in units.items()}
        details = {"span_file": str(span_path.relative_to(ROOT))}
    else:
        metrics, details = measure(args, ledger, wls[args.workload], env)
    details["error_rate"] = {"value": ledger.failed / ledger.attempted,
                             "unit": "ratio"}
    details["errors"] = ledger.errors

    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    full = {"provenance": provenance(args, calibrex, manifests),
            "details": details, **result}
    out = WORK / "results" / (f"{args.workload}-seed{args.seed}"
                              f"-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(full, indent=1, sort_keys=True))
    for err in ledger.errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"provenance": full["provenance"], "details": details},
                     sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
