"""The public surface of the package: adding or deleting an exported name
shows up here as a named test change."""
import dataclasses
import importlib
import types

import pytest

import calibrex

PUBLIC = [
    "BoxplotStats", "DEFAULT_BIN_SIZES", "LogitsFileError",
    "MeasurementRecord", "MetricTable", "PredictionSet", "SearchConfig",
    "SearchResult", "SplitSpec", "SssArch", "SuiteConfig",
    "TabularBenchmark", "Temperature", "TssArch", "apply_temperature",
    "as_probabilities", "auroc", "boxplot_stats", "brier",
    "canonical_fingerprint", "correlation_matrix", "cwce", "cwce_em", "ece",
    "ece_em", "enumerate_sss", "enumerate_tss", "fit_temperature", "hcs",
    "iter_records", "kdece", "kendall_tau", "ksce", "load_benchmark",
    "local_search", "lp_ce", "make_objective", "mce", "metric_key", "mmce",
    "model_size", "mutate", "neighbors", "nll", "parse_arch", "parse_sss",
    "parse_tss", "random_search", "read_csv_predictions", "read_logits_file",
    "read_records", "read_table_csv", "regularized_evolution", "run_suite",
    "silverman_bandwidth", "size_brackets", "softmax", "split",
    "synth_benchmark", "top_k_by", "write_benchmark", "write_csv_predictions",
    "write_logits_file", "write_matrix_csv", "write_records",
    "write_table_csv",
]


def test_public_names_are_pinned():
    got = sorted(name for name, value in vars(calibrex).items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
    assert got == PUBLIC


# what bench/ calls or wraps, by module: the traced run (bench/tracing.py,
# `python3 bench/run.py --trace 1`) patches these by name, and
# `python3 -m pytest bench` does not reach it
BENCH_ENTRY_POINTS = {
    "calibrex": ["SplitSpec", "apply_temperature", "as_probabilities",
                 "auroc", "fit_temperature", "read_logits_file", "split"],
    "calibrex.cli": ["build_parser", "main", "read_logits_file"],
    "calibrex.suite": ["run_suite", "write_records"],
    "calibrex.search": ["TabularBenchmark", "load_benchmark", "local_search",
                        "random_search", "read_records",
                        "regularized_evolution"],
    "calibrex.analysis": ["correlation_matrix"],
    "calibrex.archspace": ["canonical_fingerprint", "enumerate_tss"],
    "calibrex.binning": ["cwce", "cwce_em", "ece", "ece_em", "mce"],
    "calibrex.continuous": ["auroc", "brier", "kdece", "ksce", "mmce", "nll"],
}


@pytest.mark.parametrize("module", sorted(BENCH_ENTRY_POINTS))
def test_bench_entry_points_exist(module):
    found = vars(importlib.import_module(module))
    missing = [name for name in BENCH_ENTRY_POINTS[module]
               if not callable(found.get(name))]
    assert missing == []


def test_classes_keep_what_bench_calls():
    # bench's CountingBenchmark calls TabularBenchmark(space, metrics,
    # archs) and overrides __post_init__ and query; the replay calls
    # PredictionSet.top_confidence
    bench_cls = calibrex.TabularBenchmark
    assert [f.name for f in dataclasses.fields(bench_cls)] == [
        "space", "metrics", "archs"]
    for cls, name in ((bench_cls, "__post_init__"), (bench_cls, "query"),
                      (calibrex.PredictionSet, "top_confidence")):
        assert callable(getattr(cls, name, None)), name
