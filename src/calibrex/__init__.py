"""calibrex: calibration measurement and architecture search toolkit."""

from .analysis import (BoxplotStats, MetricTable, boxplot_stats,
                       correlation_matrix, hcs, kendall_tau, read_table_csv,
                       size_brackets, top_k_by, write_matrix_csv,
                       write_table_csv)
from .archspace import (SssArch, TssArch, canonical_fingerprint,
                        enumerate_sss, enumerate_tss, model_size, parse_arch,
                        parse_sss, parse_tss)
from .binning import cwce, cwce_em, ece, ece_em, mce
from .continuous import (auroc, brier, kdece, ksce, lp_ce, mmce, nll,
                         silverman_bandwidth)
from .predictions import (LogitsFileError, PredictionSet, SplitSpec,
                          as_probabilities, read_csv_predictions,
                          read_logits_file, softmax, split,
                          write_csv_predictions, write_logits_file)
from .search import (Objective, SearchConfig, SearchResult, TabularBenchmark,
                     load_benchmark, local_search, make_objective, mutate,
                     neighbors, random_search, regularized_evolution,
                     synth_benchmark, write_benchmark)
from .suite import (DEFAULT_BIN_SIZES, MeasurementRecord, SuiteConfig,
                    iter_records, metric_key, read_records, run_suite,
                    write_records)
from .temperature import Temperature, apply_temperature, fit_temperature

__version__ = "0.1.0"
