"""The traced run: spans around every calibrex layer, and per-layer metrics.

Spans are recorded from this file only, nothing under ``src/`` changes.
The CLI calls run with the public functions they look up (``cli.
read_logits_file``, ``suite.run_suite``, ``analysis.correlation_matrix``,
``search.load_benchmark``, ...) temporarily wrapped in spans.  Inside
``run_suite`` the metric functions are reached through private tables, so
the traced run replays one model by calling the same public functions in
the order ``run_suite`` does; ``suite.replay_coverage`` is the sum of the
replayed spans over the ``run_suite`` span of the same model.

A span is ``[name, start, end, parent, workload, model]``.  Spans stay in
memory and are written as JSON at the end; a layer's self time is its
duration minus its children's.
"""
from __future__ import annotations

import contextlib
import functools
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from calibrex import (SplitSpec, analysis, apply_temperature, archspace,
                      as_probabilities, binning, cli, continuous,
                      fit_temperature, read_logits_file, search, split, suite)

import checks
import inputs
from workloads import (SEARCH_ALGOS, EvalWorkload, Ledger,
                       PopulationWorkload, read_confidences, read_lines)

EVAL_LAYERS = (
    "predictions.read", "predictions.split", "predictions.softmax",
    "temperature.fit", "temperature.apply",
    *(f"binning.{m}" for m in inputs.BIN_METRICS),
    *(f"continuous.{m}" for m in (*inputs.CONTINUOUS_METRICS, "auroc")),
    "suite.run_suite", "suite.write_records")
EVAL_METRICS = (*(f"{layer}_s" for layer in EVAL_LAYERS), "binning.calls",
                "suite.records", "suite.replay_coverage",
                "cli.eval_overhead_s")
POPULATION_METRICS = (
    "archspace.enumerate_tss_s", "archspace.fingerprint_s",
    "archspace.classes", "analysis.correlation_matrix_s", "analysis.pairs",
    "cli.correlate_io_s", "search.load_benchmark_s", "suite.read_records_s",
    "search.rs_s", "search.re_s", "search.ls_s", "search.evaluations",
    "search.unique_ratio")
GLOBAL_METRICS = ("cli.import_s", "cli.import_scipy_stats_s",
                  "trace.overhead_ratio", "trace.spans")
UNITS = {"binning.calls": "count", "suite.records": "count",
         "suite.replay_coverage": "ratio", "archspace.classes": "count",
         "analysis.pairs": "count", "search.evaluations": "count",
         "search.unique_ratio": "ratio", "trace.overhead_ratio": "ratio",
         "trace.spans": "count"}


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    names = [f"{w}.{m}" for w in inputs.EVAL_SHAPES for m in EVAL_METRICS]
    names += [*POPULATION_METRICS, *GLOBAL_METRICS]
    return {n: UNITS.get(n.split(".", 1)[1] if n.startswith("eval_") else n,
                         "s") for n in names}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.workload = None
        self.model = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.workload,
               self.model]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield len(self.spans) - 1
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patch(self, module, attr: str, name: str, replacement=None):
        """Wrap ``module.attr`` in a span for the duration of the block.

        A name the module no longer has is left alone, so its layer reports
        no spans instead of failing the run."""
        if not hasattr(module, attr):
            yield
            return
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, replacement or original))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def duration(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def self_times(self):
        out = [self.duration(i) for i in range(len(self.spans))]
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                out[s[3]] -= self.duration(i)
        return out

    def dump(self, path: Path) -> None:
        own = self.self_times()
        keys = ("name", "start", "end", "parent", "workload", "model")
        path.write_text(json.dumps(
            [{**dict(zip(keys, s)), "self": own[i]}
             for i, s in enumerate(self.spans)]))


def _sum_self(tr: Tracer, own, workload: str, name: str) -> float:
    return sum(own[i] for i, s in enumerate(tr.spans)
               if s[0] == name and s[4] == workload)


def replay_run_suite(tr: Tracer, path: Path, ood):
    """The calls run_suite makes, in its order, each in its own span.

    Returns the metric values and the summed duration of those spans."""
    preds = read_logits_file(path)
    values = {}
    with tr.span("replay") as replay:
        fit_part, test = tr.call("predictions.split", split, preds,
                                 SplitSpec(0.2, seed=inputs.SPLIT_SEED))
        pre = tr.call("predictions.softmax", as_probabilities, test)
        temp = tr.call("temperature.fit", fit_temperature, fit_part)
        post = tr.call("temperature.apply", apply_temperature, test, temp)
        for stage, probs in (("pre", pre), ("post", post)):
            for metric in inputs.BIN_METRICS:
                fn = getattr(binning, metric)
                for b in inputs.DEFAULT_BINS:
                    values[f"{metric}_{b}_{stage}"] = tr.call(
                        f"binning.{metric}", fn, probs, b)
            for metric in inputs.CONTINUOUS_METRICS:
                values[f"{metric}_{stage}"] = tr.call(
                    f"continuous.{metric}", getattr(continuous, metric),
                    probs)
        with tr.span("predictions.softmax"):
            pos = as_probabilities(test).top_confidence()
        for tag, neg in zip("ab", ood):
            values[f"auroc_ood_{tag}_pre"] = tr.call(
                "continuous.auroc", continuous.auroc, pos, neg)
    return values, sum(tr.duration(i) for i, s in enumerate(tr.spans)
                       if s[3] == replay)


def _traced_eval_call(tr: Tracer, ledger: Ledger, argv) -> None:
    with contextlib.ExitStack() as stack:
        stack.enter_context(tr.patch(cli, "read_logits_file",
                                     "predictions.read"))
        stack.enter_context(tr.patch(suite, "run_suite", "suite.run_suite"))
        stack.enter_context(tr.patch(suite, "write_records",
                                     "suite.write_records"))
        with tr.span("cli.eval"):
            ledger.cli(argv)


def tracing_overhead(tr: Tracer, ledger: Ledger, wl: EvalWorkload,
                     repeats: int = 2) -> float:
    """Median traced over median untraced wall time of one eval call, minus
    one.  Its spans are tagged ``<workload>/overhead`` and kept out of the
    layer metrics."""
    path = wl.files[0]
    argv = wl.argv([path], wl.outdir / "overhead.jsonl")
    tr.workload, tr.model = f"{wl.name}/overhead", path.stem
    walls = {"plain": [], "traced": []}
    for _ in range(repeats):
        t0 = time.perf_counter()
        ledger.cli(argv)
        walls["plain"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _traced_eval_call(tr, ledger, argv)
        walls["traced"].append(time.perf_counter() - t0)
    return (statistics.median(walls["traced"])
            / statistics.median(walls["plain"]) - 1.0)


def trace_eval(tr: Tracer, ledger: Ledger, wl: EvalWorkload) -> dict:
    """Trace one model of an eval workload; returns its layer metrics."""
    path, stem = wl.files[0], wl.files[0].stem
    out = wl.outdir / f"traced-{stem}.jsonl"
    argv = wl.argv([path], out)
    tr.workload, tr.model = wl.name, stem
    _traced_eval_call(tr, ledger, argv)
    lines = read_lines(out)
    ref = wl.reference()
    wl.check_inputs(ledger, ref)
    expected = checks.expected_records(ref, wl.models[:1], wl.pair)
    ledger.check(f"{wl.name} traced eval",
                 checks.check_eval_records(lines, expected))

    ood = [read_confidences(p) for p in wl.ood]
    values, replayed = replay_run_suite(tr, path, ood)
    ledger.check(f"{wl.name} replay equals eval", [
        f"{k}: {v!r} != {expected[stem]['values'].get(k)!r}"
        for k, v in values.items()
        if not checks.close(v, expected[stem]["values"].get(k, np.nan))])

    own = tr.self_times()
    metrics = {f"{layer}_s": _sum_self(tr, own, wl.name, layer)
               for layer in EVAL_LAYERS}
    metrics["binning.calls"] = sum(
        1 for s in tr.spans if s[4] == wl.name and s[0].startswith("binning."))
    metrics["suite.records"] = len(lines)
    run_suite_s = metrics["suite.run_suite_s"]
    metrics["suite.replay_coverage"] = replayed / run_suite_s \
        if run_suite_s else 0.0
    metrics["cli.eval_overhead_s"] = _sum_self(tr, own, wl.name, "cli.eval")
    return metrics


class CountingBenchmark(search.TabularBenchmark):
    """A loaded benchmark that records the distinct architectures queried."""

    def __post_init__(self):
        super().__post_init__()
        self.distinct = set()

    def query(self, arch):
        self.distinct.add(arch if isinstance(arch, str) else arch.to_string())
        return super().query(arch)


def trace_population(tr: Tracer, ledger: Ledger,
                     wl: PopulationWorkload) -> dict:
    """Trace dedupe, correlate and one rs/re/ls search each."""
    tr.workload, tr.model = wl.name, None
    outs = {"dedupe": wl.outdir / "traced-dedupe.txt",
            "correlate": wl.outdir / "traced-corr.csv"}
    with tr.patch(archspace, "enumerate_tss", "archspace.enumerate_tss"), \
            tr.patch(archspace, "canonical_fingerprint",
                     "archspace.fingerprint"), tr.span("cli.enumerate"):
        ledger.cli(["enumerate", "--space", "tss", "--dedupe",
                    "--out", outs["dedupe"]])
    with tr.patch(analysis, "correlation_matrix",
                  "analysis.correlation_matrix"), tr.span("cli.correlate"):
        ledger.cli(["correlate", "--table", wl.indir / "table.csv",
                    "--out", outs["correlate"]])
    loaded = []
    load = search.load_benchmark

    def load_counting(*args, **kwargs):
        bench = load(*args, **kwargs)
        loaded.append(CountingBenchmark(bench.space, bench.metrics,
                                        bench.archs))
        return loaded[-1]

    seed = wl.search_seeds[0]
    with contextlib.ExitStack() as stack:
        stack.enter_context(tr.patch(search, "load_benchmark",
                                     "search.load_benchmark", load_counting))
        stack.enter_context(tr.patch(search, "read_records",
                                     "suite.read_records"))
        for algo, fn in zip(SEARCH_ALGOS, ("random_search",
                                           "regularized_evolution",
                                           "local_search")):
            stack.enter_context(tr.patch(search, fn, f"search.{algo}"))
        for algo in SEARCH_ALGOS:
            out = wl.outdir / f"traced-search-{algo}.json"
            with tr.span("cli.search"):
                ledger.cli(wl.search_argv(algo, seed, out))
            outs[(algo, seed)] = out
    wl.outputs.append(outs)
    wl.check(ledger)

    own = tr.self_times()
    metrics = {name: _sum_self(tr, own, wl.name, name[:-2])
               for name in POPULATION_METRICS if name.endswith("_s")}
    metrics["cli.correlate_io_s"] = _sum_self(tr, own, wl.name,
                                              "cli.correlate")
    metrics["archspace.classes"] = len(read_lines(outs["dedupe"]))
    try:
        names, _ = checks.parse_matrix_csv(outs["correlate"].read_text())
    except (OSError, ValueError, IndexError):
        names = []
    metrics["analysis.pairs"] = len(names) * (len(names) - 1) // 2
    evaluations = wl.search_evaluations(0)
    metrics["search.evaluations"] = evaluations
    metrics["search.unique_ratio"] = (
        sum(len(b.distinct) for b in loaded) / max(evaluations, 1))
    return metrics


def import_times(env: dict) -> dict:
    """Cumulative import time of calibrex and of scipy.stats, in seconds,
    from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import calibrex.cli"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)", line)
        if m:
            name = m.group(2)
            cumulative[name] = max(cumulative.get(name, 0), int(m.group(1)))
    top = max(cumulative.get("calibrex", 0), cumulative.get("calibrex.cli", 0))
    return {"cli.import_s": top / 1e6,
            "cli.import_scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6}


def traced_run(ledger: Ledger, workloads: dict, env: dict,
               span_path: Path) -> dict:
    """Replay every workload under tracing; returns every per-layer metric."""
    tr = Tracer()
    metrics = {}
    for name, wl in workloads.items():
        if isinstance(wl, EvalWorkload):
            layer = trace_eval(tr, ledger, wl)
            metrics.update({f"{name}.{k}": v for k, v in layer.items()})
        else:
            metrics.update(trace_population(tr, ledger, wl))
    # the cheapest eval call gives the traced/untraced difference
    metrics["trace.overhead_ratio"] = tracing_overhead(
        tr, ledger, workloads["eval_k10"])
    metrics.update(import_times(env))
    metrics["trace.spans"] = len(tr.spans)
    tr.dump(span_path)
    return metrics
