"""Command-line interface: eval, correlate, search, enumerate, report.

Every command is deterministic given its flags (CALIBREX_SEED supplies the
seed when --seed is absent), writes outputs atomically via a temp file and
rename, and exits 2 with a one-line "error: ..." message on failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, archspace, search, suite
from .predictions import SplitSpec, read_csv_predictions, read_logits_file

DEFAULT_BINS = ",".join(str(b) for b in suite.DEFAULT_BIN_SIZES)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    return int(os.environ.get("CALIBREX_SEED", "0"))


def _read_predictions(path: str, fmt: str):
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    if fmt == "bin":
        return read_logits_file(path)
    return read_csv_predictions(path)


def _read_confidences(path: str) -> np.ndarray:
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: "
                                 f"{line!r}") from None
    if not values:
        raise ValueError(f"{path}: no confidence values")
    return np.asarray(values)


def _eval_one(task):
    path, fmt, config = task
    preds = _read_predictions(path, fmt)
    return suite.run_suite(preds, config)


def cmd_eval(args) -> int:
    seed = _resolve_seed(args.seed)
    bins = tuple(int(b) for b in args.bins.split(","))
    if (args.ood_in is None) != (args.ood_out is None):
        raise ValueError("--ood-in and --ood-out must be given together")
    ood = None
    if args.ood_in is not None:
        ood = (_read_confidences(args.ood_in),
               _read_confidences(args.ood_out))
    tasks = []
    for idx, path in enumerate(args.logits):
        config = suite.SuiteConfig(
            bin_sizes=bins, ood_inputs=ood,
            temperature_scale=args.temperature_scale,
            split=SplitSpec(args.val_fraction, seed=seed),
            include_accuracy=args.include_accuracy,
            benchmark_dataset=Path(path).stem,
            search_space=args.space, arch_index=idx)
        tasks.append((path, args.format, config))
    if args.jobs > 1:
        with multiprocessing.Pool(args.jobs) as pool:
            per_file = pool.map(_eval_one, tasks)
    else:
        per_file = [_eval_one(t) for t in tasks]
    records = [r for batch in per_file for r in batch]
    suite.write_records(records, args.out)
    print(f"{len(records)} records written")
    return 0


def _read_table_csv(path: str) -> analysis.MetricTable:
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if not header or header[0] != "arch_index":
            raise ValueError(f"{path}: first column must be arch_index")
        names = header[1:]
        # one field per header cell: a short or long row, a non-integer
        # arch_index or a non-numeric cell raises ValueError
        dtype = [("arch_index", np.int64)] + [(f"c{i}", np.float64)
                                             for i in range(len(names))]
        try:
            data = _load_table_rows(fh, dtype)
        except ValueError as exc:
            # numpy's row number skips blank lines and counts from 0 or 1
            # by error kind: drop it (and the `usecols` hint), name the line
            msg = re.sub(r" at row \d+", "", str(exc).partition("; use")[0])
            try:
                where = f"line {_bad_table_line(path, dtype)}: "
            except ValueError:  # the body does not decode: no line to name
                where = ""
            raise ValueError(f"{path}: {where}{msg}") from None
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return analysis.MetricTable(data["arch_index"],
                                {name: data[f"c{i}"]
                                 for i, name in enumerate(names)})


def _load_table_rows(rows, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty body is the caller's "no data rows" error
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None,
                          ndmin=1)


def _bad_table_line(path: str, dtype) -> int:
    """File line of the first table row that ``_load_table_rows`` rejects.

    Runs only after a load failed.  A prefix of the body fails exactly when
    it holds a bad row, so bisecting on prefix length finds that row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        header_lines = reader.line_num
        body = fh.readlines()
    good, bad = 0, len(body)  # body[:good] loads, body[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load_table_rows(body[:mid], dtype)
            good = mid
        except ValueError:
            bad = mid
    return header_lines + bad


def cmd_correlate(args) -> int:
    table = _read_table_csv(args.table)
    if args.top_k is not None:
        if args.by is None:
            raise ValueError("--top-k requires --by COLUMN")
        if args.top_k > table.n_rows:
            raise ValueError(f"--top-k {args.top_k} exceeds table size "
                             f"{table.n_rows}")
        table = analysis.top_k_by(table, args.by, args.top_k)
    columns = args.columns.split(",") if args.columns else None
    names, mat = analysis.correlation_matrix(table, columns)
    with suite.atomic_output(args.out) as tmp:
        analysis.write_matrix_csv(names, mat, tmp)
    print(f"{len(names)}x{len(names)} correlation matrix written")
    return 0


def cmd_search(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.benchmark == "synthetic":
        bench = search.synth_benchmark(args.space, seed=seed)
    else:
        if not os.path.exists(args.benchmark):
            raise OSError(f"no such file: {args.benchmark}")
        bench = search.load_benchmark(args.benchmark)
        if bench.space != args.space:
            raise ValueError(f"benchmark is {bench.space}, "
                             f"--space says {args.space}")
    objective = search.make_objective(args.objective, args.beta)
    config = search.SearchConfig(budget=args.budget, seed=seed)
    algo = {"rs": search.random_search, "re": search.regularized_evolution,
            "ls": search.local_search}[args.algo]
    result = algo(bench, objective, config)
    with suite.atomic_output(args.out) as tmp:
        with open(tmp, "w") as fh:
            json.dump(result.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    shown = result.best_value * 100.0 if args.percent else result.best_value
    print(f"best {result.best_arch} objective {shown!r} "
          f"({result.evaluations} evaluations)")
    return 0


def cmd_enumerate(args) -> int:
    if args.space == "tss":
        archs = archspace.enumerate_tss()
    else:
        archs = archspace.enumerate_sss()
    lines = []
    if args.dedupe and args.space == "tss":
        seen = set()
        for a in archs:
            fp = archspace.canonical_fingerprint(a)
            if fp not in seen:
                seen.add(fp)
                lines.append(a.to_string())
    else:
        lines = [a.to_string() for a in archs]
    with suite.atomic_output(args.out) as tmp:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    print(f"{len(lines)} architectures written")
    return 0


def _bracket_labels(edges) -> list:
    labels = [f"<{edges[0]:g}"]
    for lo, hi in zip(edges, edges[1:]):
        labels.append(f"[{lo:g},{hi:g})")
    labels.append(f">={edges[-1]:g}")
    return labels


def cmd_report(args) -> int:
    if args.group_by == "bin_count":
        def group_of(rec):
            bins = rec["bin_count"]
            return "unbinned" if bins is None else str(bins)
    else:
        if args.brackets is None:
            raise ValueError("--group-by size_bracket requires --brackets")
        edges = [float(x) for x in args.brackets.split(",")]
        space = archspace.enumerate_sss()
        labels = _bracket_labels(edges)

        def group_of(rec):
            if rec["search_space"] != "sss":
                raise ValueError("size brackets need sss records (model "
                                 "size is the channel sum)")
            if rec["arch_index"] >= len(space):
                raise ValueError(f"arch_index {rec['arch_index']} outside "
                                 "the sss space")
            size = archspace.model_size(space[rec["arch_index"]])
            return labels[int(analysis.size_brackets([size], edges)[0])]
    groups = {}
    for rec in suite.iter_records(args.records):
        groups.setdefault(group_of(rec), []).append(rec["value"])
    if not groups:
        raise ValueError("no records")
    if args.group_by == "bin_count":
        order = sorted((k for k in groups if k != "unbinned"), key=int)
        if "unbinned" in groups:
            order.append("unbinned")
    else:
        order = [lab for lab in labels if lab in groups]
    scale = 100.0 if args.percent else 1.0
    with suite.atomic_output(args.out) as tmp:
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["group", "n", "median", "q1", "q3", "whisker_lo",
                        "whisker_hi", "n_outliers"])
            for key in order:
                s = analysis.boxplot_stats(groups[key])
                w.writerow([key, s.n] +
                           [repr(v * scale) for v in
                            (s.median, s.q1, s.q3, s.whisker_lo,
                             s.whisker_hi)] + [s.n_outliers])
    print(f"{len(order)} groups written")
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
                   metavar="PATH", help="prediction file; repeat for "
                   "several architectures")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
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
    p.add_argument("--space", choices=("tss", "sss"), default="tss")
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
    p.add_argument("--space", choices=("tss", "sss"), default="tss")
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
    p.add_argument("--space", choices=("tss", "sss"), default="tss")
    p.add_argument("--dedupe", action="store_true",
                   help="one representative per fingerprint class")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("report", help="grouped boxplot statistics from "
                                      "records")
    p.add_argument("--records", required=True, metavar="PATH")
    p.add_argument("--group-by", choices=("bin_count", "size_bracket"),
                   default="bin_count")
    p.add_argument("--brackets",
                   help="comma-separated size edges for size_bracket")
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
