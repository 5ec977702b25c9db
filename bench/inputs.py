"""Seeded input generator for the calibrex benchmark.

Every file is written by this module's own code in the formats the README
specifies (CLBX logits, OoD confidence text, metric-table CSV, records JSONL
plus index), so a later change to calibrex cannot change the inputs.  The
same seed gives byte-identical files.

Eval inputs come from a fixed pool per shape: ``POOL_MODELS`` models and
``POOL_OOD`` OoD pairs, each generated from its own pool id.  The workload
seed picks two models and one OoD pair, so ``bench/reference/`` can hold the
seed-commit records for every input a seed can select.  Population inputs
(table, search benchmark) are generated from the seed directly and checked
against values the benchmark computes itself.

Run as a script to write one workload's inputs and print their manifest:

    python3 bench/inputs.py --workload eval_k10 --seed 3 --dir .bench_work/in
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import struct
import sys
from pathlib import Path

import numpy as np

EVAL_SHAPES = {"eval_k10": (10_000, 10), "eval_k120": (10_000, 120)}
WORKLOADS = (*EVAL_SHAPES, "population")
POOL_MODELS = 16
POOL_OOD = 4
MODELS_PER_RUN = 2
OOD_SIZE = 2_000
# eval always splits with this seed, so the stored references apply
SPLIT_SEED = 0

TSS_OPS = ("none", "skip_connect", "nor_conv_1x1", "nor_conv_3x3",
           "avg_pool_3x3")
TSS_CELLS = 5 ** 6
DEFAULT_BINS = (5, 10, 15, 20, 25, 50, 100, 200, 500)
BIN_METRICS = ("ece", "ece_em", "cwce", "cwce_em", "mce")
CONTINUOUS_METRICS = ("nll", "brier", "ksce", "mmce", "kdece")
ECE_BINS = 15

_CLBX_HEADER = struct.Struct("<4sHBII")


# --------------------------------------------------------------------------
# eval workloads
# --------------------------------------------------------------------------

def eval_selection(seed: int):
    """(model ids, OoD pair id) that a workload seed selects from the pool."""
    rng = np.random.default_rng([seed, 1])
    models = tuple(int(m) for m in rng.choice(POOL_MODELS, MODELS_PER_RUN,
                                              replace=False))
    return models, int(rng.integers(POOL_OOD))


def model_logits(k: int, model: int, n: int = 10_000):
    """Logits of an overconfident classifier: calibrated scale times t > 1.

    Class scores are unit Gaussians with the true class shifted by ``mu``;
    ``mu * z`` would be calibrated, and the file stores ``mu * t * z``, so
    the fitted temperature lands near ``t``.  ``mu`` sets the accuracy.
    """
    rng = np.random.default_rng([k, model, 2])
    lo, hi = (1.6, 3.2) if k <= 10 else (2.4, 4.4)
    mu = rng.uniform(lo, hi)
    t = rng.uniform(1.4, 2.4)
    labels = rng.integers(0, k, size=n)
    z = rng.standard_normal((n, k))
    z[np.arange(n), labels] += mu
    return (z * (mu * t)).astype(np.float32), labels.astype(np.int32)


def clbx_bytes(scores: np.ndarray, labels: np.ndarray) -> bytes:
    n, k = scores.shape
    rec = np.empty(n, dtype=np.dtype([("s", "<f4", (k,)), ("y", "<i4")]))
    rec["s"] = scores
    rec["y"] = labels
    return _CLBX_HEADER.pack(b"CLBX", 1, 0, n, k) + rec.tobytes()


def ood_confidences(k: int, pair: int):
    """Max-softmax confidences of a near (a) and a far (b) OoD stream."""
    rng = np.random.default_rng([k, pair, 3])
    floor = 1.0 / k
    near = floor + (1.0 - floor) * rng.beta(4.0, 2.0, OOD_SIZE)
    far = floor + (1.0 - floor) * rng.beta(2.0, 4.0, OOD_SIZE)
    return near, far


def lines_bytes(values) -> bytes:
    return "".join(f"{float(v)!r}\n" for v in values).encode()


def eval_files(workload: str, seed: int) -> dict:
    """name -> bytes for the inputs of one eval workload run."""
    n, k = EVAL_SHAPES[workload]
    models, pair = eval_selection(seed)
    files = {f"m{m:02d}.clbx": clbx_bytes(*model_logits(k, m, n))
             for m in models}
    near, far = ood_confidences(k, pair)
    files[f"ood{pair}_a.txt"] = lines_bytes(near)
    files[f"ood{pair}_b.txt"] = lines_bytes(far)
    return files


# --------------------------------------------------------------------------
# population workload
# --------------------------------------------------------------------------

def tss_strings():
    """All 15,625 topology cells in NATS string form, ops varying last-edge
    fastest."""
    return [f"|{a}~0|+|{b}~0|{c}~1|+|{d}~0|{e}~1|{f}~2|"
            for a, b, c, d, e, f in itertools.product(TSS_OPS, repeat=6)]


def table_names():
    """The 53 pre-stage suite columns, sorted as calibrex writes tables."""
    names = [f"{m}_{b}_pre" for m in BIN_METRICS for b in DEFAULT_BINS]
    names += [f"{m}_pre" for m in CONTINUOUS_METRICS]
    names += ["auroc_ood_a_pre", "auroc_ood_b_pre", "accuracy_pre"]
    return sorted(names)


def table_columns(seed: int) -> dict:
    """name -> column over the TSS cells, driven by three shared factors.

    Accuracy sits on a 1/10,000 grid so that ties exercise tau-b.
    """
    rng = np.random.default_rng([seed, 4])
    acc, cal, ood = rng.standard_normal((3, TSS_CELLS))
    cols = {"accuracy_pre":
            np.round(np.clip(0.72 + 0.07 * acc, 0.10, 0.99) * 1e4) / 1e4}
    for name in table_names():
        if name == "accuracy_pre":
            continue
        noise = rng.standard_normal(TSS_CELLS)
        if name.startswith("auroc"):
            x = 0.8 * ood + 0.3 * acc + 0.5 * noise
            cols[name] = 1.0 / (1.0 + np.exp(-(1.0 + 0.6 * x)))
        else:
            w = rng.uniform(0.2, 0.9)
            x = w * cal - 0.3 * acc + (1.0 - w) * noise
            cols[name] = np.exp(-3.0 + 0.5 * x)
    return cols


def table_bytes(cols: dict) -> bytes:
    names = table_names()
    rows = [",".join(["arch_index"] + names)]
    data = np.column_stack([cols[c] for c in names]).tolist()
    for i, row in enumerate(data):
        rows.append(",".join([str(i)] + [repr(v) for v in row]))
    return ("\n".join(rows) + "\n").encode()


def search_truth(seed: int):
    """(arch strings, accuracy, ece) of the generated search benchmark.

    Accuracy is additive in per-edge op effects plus small noise, so local
    search climbs several steps; ECE is independent noise.
    """
    rng = np.random.default_rng([seed, 5])
    effect = rng.normal(0.0, 0.03, size=(6, len(TSS_OPS)))
    codes = np.array(list(itertools.product(range(len(TSS_OPS)), repeat=6)))
    acc = 0.75 + effect[np.arange(6), codes].sum(axis=1)
    acc = np.clip(acc + rng.normal(0.0, 0.004, TSS_CELLS), 0.05, 0.99)
    ece = rng.uniform(0.01, 0.15, TSS_CELLS)
    return tss_strings(), acc, ece


def _record_line(index: int, metric: str, bins, value: float) -> str:
    return json.dumps({"arch_index": index, "benchmark_dataset": "benchmark",
                       "bin_count": bins, "metric": metric,
                       "search_space": "tss", "split": "test",
                       "stage": "pre", "temperature": None,
                       "value": float(value)},
                      sort_keys=True, separators=(",", ":")) + "\n"


def population_files(seed: int) -> dict:
    archs, acc, ece = search_truth(seed)
    records = "".join(_record_line(i, "accuracy", None, acc[i])
                      + _record_line(i, "ece", ECE_BINS, ece[i])
                      for i in range(len(archs)))
    index = json.dumps({a: i for i, a in enumerate(archs)}, sort_keys=True)
    return {"table.csv": table_bytes(table_columns(seed)),
            "bench.jsonl": records.encode(),
            "bench.index.json": index.encode()}


# --------------------------------------------------------------------------
# writing and caching
# --------------------------------------------------------------------------

def workload_files(workload: str, seed: int) -> dict:
    if workload in EVAL_SHAPES:
        return eval_files(workload, seed)
    if workload == "population":
        return population_files(seed)
    raise ValueError(f"unknown workload {workload!r}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the inputs unless ``directory`` already holds them for this
    seed; return the manifest (seed, workload, file -> sha256)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        manifest = json.loads(manifest_path.read_text())
        if (manifest["seed"] == seed and manifest["workload"] == workload
                and all((directory / f).is_file()
                        and sha256((directory / f).read_bytes()) == h
                        for f, h in manifest["files"].items())):
            return manifest
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.iterdir():
        old.unlink()
    files = workload_files(workload, seed)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    manifest = {"workload": workload, "seed": seed,
                "files": {name: sha256(data) for name, data in files.items()}}
    manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args(argv)
    print(json.dumps(write_inputs(args.workload, args.seed, Path(args.dir)),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
