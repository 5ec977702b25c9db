"""One model in, a full grid of measurements out.

Runs the default measurement suite on synthetic logits: every binned
metric at every default bin count, the continuous metrics, both before
and after temperature scaling, plus max-softmax AUROC against two
out-of-distribution confidence streams.  Records are written to JSONL,
streamed back, and pivoted into one table row of metric columns.
"""
import collections
import tempfile
from pathlib import Path

import numpy as np

from calibrex import (
    MeasurementRecord,
    PredictionSet,
    SuiteConfig,
    iter_records,
    metric_key,
    read_records,
    run_suite,
    write_records,
)


def main():
    rng = np.random.default_rng(7)
    n, k = 8000, 10
    preds = PredictionSet(rng.normal(scale=2.0, size=(n, k)),
                          rng.integers(0, k, size=n))
    # ood detectors see lower max-softmax confidence on the far stream
    near_ood = rng.uniform(0.3, 0.9, size=800)
    far_ood = rng.uniform(0.1, 0.5, size=800)

    config = SuiteConfig(ood_inputs=(near_ood, far_ood),
                         benchmark_dataset="synthetic-demo")
    records = run_suite(preds, config)

    by_stage = collections.Counter(r.stage for r in records)
    binned = sum(r.bin_count is not None for r in records)
    print(f"{len(records)} records total: {binned} binned, "
          f"{len(records) - binned} unbinned; per stage {dict(by_stage)}")

    print("\na few records by key:")
    wanted = ("ece_15_pre", "ece_15_post", "nll_pre", "nll_post",
              "auroc_ood_a_pre", "auroc_ood_b_pre")
    lookup = {metric_key(r): r for r in records}
    for key in wanted:
        r = lookup[key]
        print(f"  {key:18s} = {r.value:.4f}")

    print("\nece across bin counts (post temperature scaling):")
    for r in records:
        if r.metric == "ece" and r.stage == "post":
            print(f"  m={r.bin_count:3d}  {r.value:.4f}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.jsonl"
        write_records(records, out)
        back = [MeasurementRecord(**rec) for rec in iter_records(out)]
        print(f"\nwrote {out} ({out.stat().st_size} bytes), "
              f"read back {len(back)} records, equal={back == records}")
        print("first line:")
        print(" ", out.read_text().splitlines()[0][:100], "...")

        # one cell per (arch_index, metric key): a second eval's records
        # for the same arch_index would fail here instead of overwriting
        # a cell
        space, table = read_records(out)
    print(f"\npivoted: {space} space, {table.n_rows} row(s) x "
          f"{len(table.columns)} metric columns; "
          f"ece_15_post = {table.column('ece_15_post')[0]:.4f}")


if __name__ == "__main__":
    main()
