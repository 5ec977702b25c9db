"""The public surface of the package: adding or deleting an exported name
shows up here as a named test change."""
import types

import calibrex

PUBLIC = [
    "BoxplotStats", "DEFAULT_BIN_SIZES", "LogitsFileError",
    "MeasurementRecord", "MetricTable", "Objective", "PredictionSet",
    "SearchConfig", "SearchResult", "SplitSpec", "SssArch", "SuiteConfig",
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
