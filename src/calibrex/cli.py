"""Command-line interface: eval, correlate, search, enumerate, report.

Every command is deterministic given its flags (CALIBREX_SEED supplies the
seed when --seed is absent), checks its flags before it opens an input,
writes outputs atomically via a temp file and rename, and exits 2 with a
one-line "error: ..." message on failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, archspace, search, suite
from .predictions import (MAGIC, SplitSpec, _check_count, atomic_output,
                          read_csv_predictions, read_logits_file, read_rows)
from .temperature import T_MAX, T_MIN

DEFAULT_BINS = ",".join(str(b) for b in suite.DEFAULT_BIN_SIZES)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    text = os.environ.get("CALIBREX_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError("CALIBREX_SEED must be an integer >= 0, got "
                         f"{text!r}") from None


def _numbers(flag: str, text: str, kind) -> list:
    """A comma-separated flag value as a list of ``kind`` (int or float)."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated {kind.__name__}s, "
                         f"got {text!r}") from None


def _read_confidences(path: str) -> np.ndarray:
    with open(path) as fh:
        values = read_rows(path, fh, [("v", np.float64)], check=_finite)["v"]
    if values.size == 0:
        raise ValueError(f"{path}: no confidence values")
    return values


def _finite(data) -> None:
    bad = ~np.isfinite(data["v"])
    if bad.any():
        raise ValueError(f"{data['v'][bad][0]} is not a finite number")


def _eval_one(task):
    path, config = task
    with open(path, "rb") as fh:  # a CSV header starts with "label"
        clbx = fh.read(len(MAGIC)) == MAGIC
    read = read_logits_file if clbx else read_csv_predictions
    return suite._suite_values(read(path), config)  # floats, no records


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    if (args.ood_in is None) != (args.ood_out is None):
        raise ValueError("--ood-in and --ood-out must be given together")
    if args.ood_in is not None and len(args.logits) > 1:
        raise ValueError("OoD files belong to one model: --ood-in and "
                         "--ood-out need exactly one --logits, got "
                         f"{len(args.logits)}")
    config = suite.SuiteConfig(
        bin_sizes=_numbers("--bins", args.bins, int),
        temperature_scale=args.temperature_scale,
        split=SplitSpec(args.val_fraction, seed=_resolve_seed(args.seed)),
        include_accuracy=args.include_accuracy, search_space=args.space)
    ood = None
    if args.ood_in is not None:
        ood = (_read_confidences(args.ood_in),
               _read_confidences(args.ood_out))
    tasks = [(path, dataclasses.replace(
        config, benchmark_dataset=Path(path).stem, arch_index=idx,
        ood_inputs=ood)) for idx, path in enumerate(args.logits)]
    # one model's values at a time, in input order, into one atomic write
    written = 0
    with contextlib.ExitStack() as stack:
        results = map(_eval_one, tasks)
        if args.jobs > 1:
            import multiprocessing  # only a pool needs it
            pool = stack.enter_context(multiprocessing.Pool(args.jobs))
            chunks, extra = divmod(len(tasks), args.jobs * 4)  # as map
            results = pool.imap(_eval_one, tasks, chunks + bool(extra))
        fh = stack.enter_context(atomic_output(args.out))
        for (path, config), (values, temp) in zip(tasks, results):
            if temp is not None and temp.at_bound:  # the fit's own flag
                print(f"warning: {path}: fitted temperature {temp.value:.6g} "
                      f"is at the bound of [{T_MIN:g}, {T_MAX:g}]",
                      file=sys.stderr)
            for rec in suite._records_of(config, values, temp):
                if not math.isfinite(rec["value"]):  # the one value check
                    raise ValueError(f"{path}: {suite.metric_key(rec)} must "
                                     f"be finite, got {rec['value']!r}")
                fh.write(suite._record_line(rec))
            written += len(values)
    print(f"{written} records written")
    return 0


def cmd_correlate(args) -> int:
    if (args.top_k is None) != (args.by is None):
        raise ValueError("--top-k and --by must be given together")
    if args.top_k is not None:
        _check_count("k", args.top_k)  # top_k_by's rule, before the read
    table = analysis.read_table_csv(args.table)
    if args.top_k is not None:
        table = analysis.top_k_by(table, args.by, args.top_k)
    columns = args.columns.split(",") if args.columns else None
    names, mat = analysis.correlation_matrix(table, columns)
    if len(names) > 1:
        for name in names:
            values = table.column(name)
            if (values == values[0]).all():
                print(f"warning: {args.table}: column {name!r} is constant, "
                      "so its tau-b row and column are nan", file=sys.stderr)
    analysis.write_matrix_csv(names, mat, args.out)
    print(f"{len(names)}x{len(names)} correlation matrix written")
    return 0


def cmd_search(args) -> int:
    config = search.SearchConfig(budget=args.budget,
                                 seed=_resolve_seed(args.seed))
    objective = search.make_objective(args.objective, args.beta)
    if args.benchmark == "synthetic":
        bench = search.synth_benchmark(args.space, seed=config.seed)
    else:
        bench = search.load_benchmark(args.benchmark)
        if bench.space != args.space:
            raise ValueError(f"benchmark is {bench.space}, "
                             f"--space says {args.space}")
    algo = {"rs": search.random_search, "re": search.regularized_evolution,
            "ls": search.local_search}[args.algo]
    result = algo(bench, objective, config)
    with atomic_output(args.out) as fh:
        json.dump(result.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    shown = result.best_value * 100.0 if args.percent else result.best_value
    print(f"best {result.best_arch} objective {shown!r} "
          f"({result.evaluations} evaluations)")
    return 0


def cmd_enumerate(args) -> int:
    if args.dedupe and args.space != "tss":
        raise ValueError("--dedupe needs --space tss: fingerprint classes "
                         "exist for topology cells only")
    archs = archspace.SPACES[args.space]()
    if args.dedupe:  # the first arch of each fingerprint class, in order
        firsts = {}
        for a in archs:
            firsts.setdefault(archspace.canonical_fingerprint(a), a)
        archs = firsts.values()
    lines = [a.to_string() for a in archs]
    with atomic_output(args.out) as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"{len(lines)} architectures written")
    return 0


def _bracket_labels(edges) -> list:
    # the shortest text that reads back as the edge: 120.0 reads "120"
    text = [repr(e).removesuffix(".0") for e in edges]
    labels = [f"<{text[0]}"]
    for lo, hi in zip(text, text[1:]):
        labels.append(f"[{lo},{hi})")
    labels.append(f">={text[-1]}")
    return labels


def cmd_report(args) -> int:
    if args.brackets is not None:
        edges = _numbers("--brackets", args.brackets, float)
        analysis.size_brackets([], edges)  # the edge rule, before the read
    space, table = suite.read_records(args.records)
    if args.brackets is None:
        labels, group = ["all"], np.zeros(table.n_rows, dtype=np.int64)
    else:
        if space != "sss":
            raise ValueError("size brackets need sss records (model size is "
                             "the channel sum)")
        archs = archspace.enumerate_sss()
        outside = table.arch_index[table.arch_index >= len(archs)]
        if outside.size:
            raise ValueError(f"arch_index {outside[0]} outside the sss space")
        sizes = [archspace.model_size(archs[a])
                 for a in table.arch_index.tolist()]
        group = analysis.size_brackets(sizes, edges)
        labels = _bracket_labels(edges)
    groups = [(label, group == g) for g, label in enumerate(labels)
              if (group == g).any()]
    scale = 100.0 if args.percent else 1.0
    with atomic_output(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "group", "n", "median", "q1", "q3",
                    "whisker_lo", "whisker_hi", "n_outliers"])
        for metric, values in table.columns.items():
            for label, members in groups:
                s = analysis.boxplot_stats(values[members])
                w.writerow([metric, label, s.n] +
                           [repr(v * scale) for v in
                            (s.median, s.q1, s.q3, s.whisker_lo,
                             s.whisker_hi)] + [s.n_outliers])
    print(f"{len(table.columns) * len(groups)} boxes written")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibrex",
        description="Calibration measurement and architecture search over "
                    "tabular NAS benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="run the measurement suite on "
                                    "prediction files")
    p.add_argument("--logits", action="append", required=True,
                   metavar="PATH", help="prediction file, CLBX or CSV by "
                   "its first bytes; repeat for several architectures")
    p.add_argument("--bins", default=DEFAULT_BINS,
                   help="comma-separated bin counts")
    p.add_argument("--temperature-scale", default=True,
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ood-in", metavar="PATH",
                   help="first OoD confidence file (one value per line)")
    p.add_argument("--ood-out", metavar="PATH",
                   help="second OoD confidence file")
    p.add_argument("--space", choices=archspace.SPACES, default="tss")
    p.add_argument("--include-accuracy", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("correlate", help="Kendall correlation matrix over "
                                         "a metric table CSV")
    p.add_argument("--table", required=True, metavar="PATH")
    p.add_argument("--columns", help="comma-separated column subset")
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--by", help="column for the top-k filter")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("search", help="architecture search on a tabular "
                                      "benchmark")
    p.add_argument("--benchmark", required=True,
                   help="records JSONL path, or 'synthetic'")
    p.add_argument("--space", choices=archspace.SPACES, default="tss")
    p.add_argument("--algo", choices=("re", "ls", "rs"), default="rs")
    p.add_argument("--objective", choices=search.OBJECTIVES, default="acc")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--percent", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("enumerate", help="list a search space, optionally "
                                         "deduplicated")
    p.add_argument("--space", choices=archspace.SPACES, default="tss")
    p.add_argument("--dedupe", action="store_true",
                   help="one representative per fingerprint class")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("report", help="boxplot statistics of each metric "
                                      "column of records")
    p.add_argument("--records", required=True, metavar="PATH")
    p.add_argument("--brackets",
                   help="comma-separated model-size edges: one box per "
                        "size bracket of sss records")
    p.add_argument("--percent", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        if isinstance(exc, OSError) and exc.strerror:
            # args[0] of a system error is its errno: name the file instead
            msg = f"{exc.filename}: {exc.strerror}" \
                if exc.filename is not None else exc.strerror
        else:
            msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
