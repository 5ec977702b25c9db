"""The benchmark's workloads: closed-loop `calibrex` CLI calls in-process.

One caller, one process (``eval --jobs 1``; ``enumerate`` at its default
of one process): each call starts when the previous one has returned.  A
*pass* is the unit a workload repeats:

* eval_k10 / eval_k120: one ``calibrex eval`` call on one CLBX file
  (N=10,000, K=10 or 120) with both OoD files, the default 9 bin counts
  and temperature scaling -- 102 records.  The run's two models take
  turns, so a pass is one model and more passes fit in a run.
* population: ``enumerate --space tss --dedupe``, ``correlate`` on the
  15,625 x 53 table, then ``search`` with rs, re and ls at budget 5,000
  and ``--objective hcs`` for two seeds -- eight calls.

Outputs of every pass are kept and checked after the timed loop.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np
from calibrex import archspace, cli

import checks
import inputs

BENCH = Path(__file__).resolve().parent
SEARCH_ALGOS = ("rs", "re", "ls")
SEARCH_BUDGET = 5_000


class Ledger:
    """Counts operations (CLI calls and output checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def cli(self, argv) -> None:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:  # a crash is a failed call
            code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            self.errors.append(f"calibrex {argv[0]} failed ({code}): "
                               f"{err.getvalue().strip()[:300]}")

    def check(self, name: str, errors) -> None:
        self.attempted += 1
        if errors:
            self.errors.append(f"{name}: " + "; ".join(errors))

    @property
    def failed(self) -> int:
        return len(self.errors)


def read_lines(path: Path):
    return path.read_text().splitlines() if path.exists() else []


def read_confidences(path: Path) -> np.ndarray:
    return np.array([float(x) for x in path.read_text().split()])


class EvalWorkload:
    def __init__(self, name: str, seed: int, indir: Path, outdir: Path):
        self.name = name
        self.k = inputs.EVAL_SHAPES[name][1]
        self.models, self.pair = inputs.eval_selection(seed)
        self.indir, self.outdir = indir, outdir
        self.files = [indir / f"m{m:02d}.clbx" for m in self.models]
        self.ood = [indir / f"ood{self.pair}_{t}.txt" for t in "ab"]
        self.outputs = []

    def argv(self, files, out: Path):
        argv = ["eval"]
        for f in files:
            argv += ["--logits", f]
        return argv + ["--ood-in", self.ood[0], "--ood-out", self.ood[1],
                       "--jobs", 1, "--seed", inputs.SPLIT_SEED, "--out", out]

    def warm_up(self, ledger: Ledger) -> None:
        """One small untimed call, so lazy set-up is not timed."""
        small = self.outdir / "warm.clbx"
        small.write_bytes(inputs.clbx_bytes(
            *inputs.model_logits(self.k, 0, n=1_000)))
        ledger.cli(self.argv([small], self.outdir / "warm.jsonl"))

    def run_pass(self, ledger: Ledger, i: int) -> None:
        """One timed pass: the run's models take turns, one per call."""
        model = self.models[i % len(self.models)]
        out = self.outdir / f"eval-{i}.jsonl"
        ledger.cli(self.argv([self.indir / f"m{model:02d}.clbx"], out))
        self.outputs.append((model, out))

    def reference(self) -> dict:
        return json.loads((BENCH / "reference" / f"{self.name}.json")
                          .read_text())

    def check_inputs(self, ledger: Ledger, ref: dict) -> None:
        """The generated inputs are the ones the reference was made from."""
        errors = []
        for m, f in zip(self.models, self.files):
            if inputs.sha256(f.read_bytes()) != \
                    ref["models"][f"m{m:02d}"]["clbx_sha256"]:
                errors.append(f"{f.name} differs from the reference input")
        if [inputs.sha256(p.read_bytes()) for p in self.ood] != \
                ref["ood_sha256"][str(self.pair)]:
            errors.append("OoD files differ from the reference inputs")
        ledger.check(f"{self.name} inputs", errors)

    def check(self, ledger: Ledger) -> None:
        ref = self.reference()
        self.check_inputs(ledger, ref)
        for model, out in self.outputs:
            expected = checks.expected_records(ref, (model,), self.pair)
            ledger.check(f"{self.name} {out.name}",
                         checks.check_eval_records(read_lines(out),
                                                   expected))

    def details(self, pass_s) -> dict:
        return {"models_per_s": {"value": 1.0 / float(np.median(pass_s)),
                                 "unit": "1/s"}}


class PopulationWorkload:
    name = "population"

    def __init__(self, seed: int, indir: Path, outdir: Path):
        self.seed = seed
        self.indir, self.outdir = indir, outdir
        self.search_seeds = (2 * seed, 2 * seed + 1)
        self.outputs = []     # one dict of output paths per pass
        self.command_s = []   # one dict of command wall times per pass

    def search_argv(self, algo: str, seed: int, out: Path,
                    budget: int = SEARCH_BUDGET):
        return ["search", "--benchmark", self.indir / "bench.jsonl",
                "--space", "tss", "--algo", algo, "--objective", "hcs",
                "--budget", budget, "--seed", seed, "--out", out]

    def warm_up(self, ledger: Ledger) -> None:
        """One small untimed search, so lazy set-up is not timed."""
        ledger.cli(self.search_argv("rs", 0, self.outdir / "warm.json",
                                    budget=100))

    def run_pass(self, ledger: Ledger, i: int) -> None:
        outs = {"dedupe": self.outdir / f"dedupe-{i}.txt",
                "correlate": self.outdir / f"corr-{i}.csv"}
        t0 = time.perf_counter()
        ledger.cli(["enumerate", "--space", "tss", "--dedupe",
                    "--out", outs["dedupe"]])
        t1 = time.perf_counter()
        ledger.cli(["correlate", "--table", self.indir / "table.csv",
                    "--out", outs["correlate"]])
        t2 = time.perf_counter()
        for s in self.search_seeds:
            for algo in SEARCH_ALGOS:
                out = self.outdir / f"search-{i}-{algo}-{s}.json"
                ledger.cli(self.search_argv(algo, s, out))
                outs[(algo, s)] = out
        t3 = time.perf_counter()
        self.outputs.append(outs)
        self.command_s.append({"dedupe_s": t1 - t0, "correlate_s": t2 - t1,
                               "search_s": t3 - t2})

    def check(self, ledger: Ledger) -> None:
        fingerprints = {a.to_string(): archspace.canonical_fingerprint(a)
                        for a in archspace.enumerate_tss()}
        cols = inputs.table_columns(self.seed)
        archs, acc, ece = inputs.search_truth(self.seed)
        truth = {a: (float(x), float(y)) for a, x, y in zip(archs, acc, ece)}
        for i, outs in enumerate(self.outputs):
            # later passes must reproduce the first byte for byte; the first
            # is checked in full
            for kind in ("dedupe", "correlate"):
                if i and _same_bytes(outs[kind], self.outputs[0][kind]):
                    ledger.check(f"{kind} pass {i} equals pass 0", [])
                elif kind == "dedupe":
                    ledger.check(f"dedupe pass {i}", checks.check_dedupe(
                        read_lines(outs[kind]), fingerprints))
                else:
                    ledger.check(f"correlate pass {i}",
                                 self._check_matrix(outs[kind], cols))
            for key, out in outs.items():
                if isinstance(key, tuple):
                    ledger.check(f"search {key} pass {i}", _check_search(
                        out, key[0], truth))

    def _check_matrix(self, path: Path, cols: dict):
        if not path.exists():
            return ["no correlation matrix written"]
        try:
            names, mat = checks.parse_matrix_csv(path.read_text())
        except (ValueError, IndexError) as exc:
            return [f"matrix does not parse: {exc}"]
        return checks.check_matrix(
            names, mat, cols, checks.reference_pairs(sorted(cols), self.seed))

    def search_evaluations(self, i: int) -> int:
        total = 0
        for key, out in self.outputs[i].items():
            if isinstance(key, tuple):
                try:  # a broken result is already counted by the checks
                    total += int(json.loads(out.read_text())["evaluations"])
                except (OSError, ValueError, KeyError, TypeError):
                    pass
        return total

    def details(self, pass_s) -> dict:
        def med(key):
            return float(np.median([t[key] for t in self.command_s]))
        evals = [self.search_evaluations(i) for i in range(len(pass_s))]
        rates = [e / t["search_s"] for e, t in zip(evals, self.command_s)]
        return {"dedupe_s": {"value": med("dedupe_s"), "unit": "s"},
                "correlate_s": {"value": med("correlate_s"), "unit": "s"},
                "search_evals_per_s": {"value": float(np.median(rates)),
                                       "unit": "1/s"}}


def _same_bytes(a: Path, b: Path) -> bool:
    return a.exists() and b.exists() and a.read_bytes() == b.read_bytes()


def _check_search(path: Path, algo: str, truth: dict):
    if not path.exists():
        return ["no result written"]
    try:
        result = json.loads(path.read_text())
    except ValueError as exc:
        return [f"result does not parse: {exc}"]
    return checks.check_search(result, algo, SEARCH_BUDGET, truth)


def make_workload(name: str, seed: int, indir: Path, outdir: Path):
    if name in inputs.EVAL_SHAPES:
        return EvalWorkload(name, seed, indir, outdir)
    return PopulationWorkload(seed, indir, outdir)
