"""Do calibration metrics agree on how to rank models?

Simulates a small population of models with independently varying
accuracy and overconfidence, measures each one, and compares rankings:
rank correlation between every pair of columns, then top-5 lists under
plain accuracy versus the harmonic accuracy/calibration score.
"""
import tempfile
from pathlib import Path

import numpy as np

from calibrex import (
    MetricTable,
    PredictionSet,
    SuiteConfig,
    correlation_matrix,
    hcs,
    read_records,
    run_suite,
    softmax,
    top_k_by,
    write_records,
)


def simulate_model(rng, n, k, spread, sharpen):
    logits = rng.normal(scale=spread, size=(n, k))
    cum = softmax(logits).cumsum(axis=1)
    labels = (cum < rng.random((n, 1))).sum(axis=1)
    return PredictionSet(sharpen * logits, labels)


def main():
    rng = np.random.default_rng(11)
    n_models, n, k = 24, 1500, 10
    spreads = np.linspace(0.8, 2.2, n_models)
    sharpens = np.tile([1.0, 1.8, 3.0], n_models // 3 + 1)[:n_models]

    records = []
    for i in range(n_models):
        preds = simulate_model(rng, n, k, spreads[i], sharpens[i])
        config = SuiteConfig(bin_sizes=(15,), temperature_scale=False,
                             include_accuracy=True, arch_index=i)
        records.extend(run_suite(preds, config))

    # one row per arch_index, one column per chosen metric key
    keys = ("accuracy_pre", "ece_15_pre", "mce_15_pre", "nll_pre",
            "brier_pre")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        write_records(records, path)
        _, table = read_records(path, keys)
    quality = hcs(table.column("accuracy_pre"), table.column("ece_15_pre"))
    table = MetricTable(table.arch_index,
                        {**table.columns, "hcs_pre": quality})

    names, corr = correlation_matrix(table)
    print("kendall tau-b between metric columns:")
    print(" " * 14 + "".join(f"{n[:8]:>9s}" for n in names))
    for name, row in zip(names, corr):
        cells = "".join(f"{v:9.2f}" for v in row)
        print(f"  {name[:12]:12s}{cells}")
    print("\nerror-style columns correlate with each other and against")
    print("accuracy; the sign flips are the ranking disagreements.")

    by_acc = top_k_by(table, "accuracy_pre", 5)
    by_hcs = top_k_by(table, "hcs_pre", 5)
    print("\ntop-5 by accuracy:      ", by_acc.arch_index.tolist())
    print("top-5 by hcs (beta=1):  ", by_hcs.arch_index.tolist())
    print("\nmodels that rank high on accuracy but were simulated with a")
    print("large sharpening factor fall out of the top-5 once calibration")
    print("enters the score.")
    print("\n  idx  acc    ece@15  hcs")
    for i in by_acc.arch_index.tolist():
        sel = table.arch_index.tolist().index(i)
        print(f"  {i:3d}  {table.column('accuracy_pre')[sel]:.3f}  "
              f"{table.column('ece_15_pre')[sel]:.4f}  "
              f"{quality[sel]:.3f}   sharpen={sharpens[i]:.1f}")


if __name__ == "__main__":
    main()
