"""Output checks for the calibrex benchmark.

Each check returns a list of error strings; an empty list means the output
is correct.  Numbers are compared at criterion 4's tolerance: 1e-10
relative with a 1e-12 absolute floor.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.stats import kendalltau

REL_TOL = 1e-10
ABS_FLOOR = 1e-12
SEARCH_KEYS = {"best_arch", "best_value", "evaluations", "trajectory"}
MAX_ERRORS = 10


def close(value: float, expected: float) -> bool:
    return abs(value - expected) <= max(REL_TOL * abs(expected), ABS_FLOOR)


def record_key(record: dict) -> str:
    """metric[_bins]_stage, as calibrex names table columns."""
    mid = "" if record["bin_count"] is None else f"_{record['bin_count']}"
    return f"{record['metric']}{mid}_{record['stage']}"


def expected_records(reference: dict, models, pair: int) -> dict:
    """stem -> expected arch index, temperature and values for one call
    over ``models`` (in argument order) with OoD pair ``pair``."""
    out = {}
    for index, m in enumerate(models):
        ref = reference["models"][f"m{m:02d}"]
        a, b = ref["auroc"][str(pair)]
        out[f"m{m:02d}"] = {"arch_index": index,
                            "temperature": ref["temperature"],
                            "values": {**ref["values"],
                                       "auroc_ood_a_pre": a,
                                       "auroc_ood_b_pre": b}}
    return out


def check_eval_records(lines, expected: dict) -> list:
    """Every record of every model matches the seed-commit reference."""
    errors = []
    by_stem = {}
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
            rec["key"] = record_key(rec)
            by_stem.setdefault(rec["benchmark_dataset"], []).append(rec)
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"record line {lineno} does not parse: {exc!r}")
    if set(by_stem) != set(expected):
        errors.append(f"models {sorted(by_stem)} != {sorted(expected)}")
    for stem, exp in expected.items():
        recs = by_stem.get(stem, [])
        if len(recs) != len(exp["values"]):
            errors.append(f"{stem}: {len(recs)} records, expected "
                          f"{len(exp['values'])}")
        seen = set()
        for rec in recs:
            key = rec["key"]
            if key in seen or key not in exp["values"]:
                errors.append(f"{stem}: unexpected or repeated {key}")
                continue
            seen.add(key)
            if (rec.get("arch_index"), rec.get("split"),
                    rec.get("search_space")) != \
                    (exp["arch_index"], "test", "tss"):
                errors.append(f"{stem} {key}: wrong tags {rec}")
            if not close(rec.get("value", float("nan")),
                         exp["values"][key]):
                errors.append(f"{stem} {key}: {rec.get('value')!r} != "
                              f"{exp['values'][key]!r}")
            t = rec.get("temperature")
            if rec["stage"] == "post":
                if t is None or not close(t, exp["temperature"]):
                    errors.append(f"{stem} {key}: temperature {t!r} != "
                                  f"{exp['temperature']!r}")
            elif t is not None:
                errors.append(f"{stem} {key}: pre record has temperature")
    return errors[:MAX_ERRORS]


def parse_matrix_csv(text: str):
    """(names, matrix) from calibrex's correlation-matrix CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    names = rows[0][1:]
    if [r[0] for r in rows[1:]] != names:
        raise ValueError("row names differ from the header")
    return names, np.array([[float(x) for x in r[1:]] for r in rows[1:]])


def reference_pairs(names, seed: int, extra: int = 48):
    """Every pair with accuracy_pre (the tied column) plus ``extra``
    seeded pairs among the others."""
    k = len(names)
    acc = names.index("accuracy_pre")
    pairs = {tuple(sorted((acc, j))) for j in range(k) if j != acc}
    others = [(i, j) for i in range(k) for j in range(i + 1, k)
              if acc not in (i, j)]
    rng = np.random.default_rng([seed, 6])
    pairs.update(others[int(i)] for i in
                 rng.choice(len(others), min(extra, len(others)),
                            replace=False))
    return sorted(pairs)


def check_matrix(names, matrix: np.ndarray, columns: dict, pairs) -> list:
    """Symmetric, unit diagonal, and tau-b equal to scipy's on ``pairs``."""
    errors = []
    if list(names) != sorted(columns):
        return [f"matrix names {names[:3]}... differ from the table columns"]
    k = len(names)
    if matrix.shape != (k, k):
        return [f"matrix shape {matrix.shape}, expected {(k, k)}"]
    if not np.all(np.isfinite(matrix)):
        errors.append("matrix has non-finite entries")
    if not np.array_equal(matrix, matrix.T):
        errors.append("matrix is not symmetric")
    if not np.all(np.diag(matrix) == 1.0):
        errors.append("matrix diagonal is not 1")
    for i, j in pairs:
        ref = kendalltau(columns[names[i]], columns[names[j]],
                         variant="b").statistic
        if not close(matrix[i, j], ref):
            errors.append(f"tau({names[i]}, {names[j]}) = {matrix[i, j]!r}, "
                          f"reference {ref!r}")
    return errors[:MAX_ERRORS]


def check_dedupe(lines, fingerprints: dict) -> list:
    """Distinct cells, in enumeration order, one per fingerprint class.

    ``fingerprints`` maps every cell string, in enumeration order, to its
    class label.
    """
    position = {cell: i for i, cell in enumerate(fingerprints)}
    errors = []
    unknown = [ln for ln in lines if ln not in position]
    if unknown:
        return [f"{len(unknown)} lines are not cells, e.g. {unknown[0]!r}"]
    if len(set(lines)) != len(lines):
        errors.append("dedupe output repeats a cell")
    order = [position[ln] for ln in lines]
    if any(b <= a for a, b in zip(order, order[1:])):
        errors.append("dedupe output is not in enumeration order")
    classes = [fingerprints[ln] for ln in lines]
    if len(set(classes)) != len(classes):
        errors.append("two output cells share a fingerprint class")
    if set(classes) != set(fingerprints.values()):
        errors.append(f"{len(set(fingerprints.values()) - set(classes))} "
                      "fingerprint classes have no representative")
    return errors


def hcs(accuracy: float, ece: float, beta: float = 1.0) -> float:
    q = 1.0 - ece
    return (1.0 + beta) * accuracy * q / (beta * accuracy + q)


def check_search(result: dict, algo: str, budget: int, truth: dict,
                 beta: float = 1.0) -> list:
    """Result JSON shape, budget, trajectory, and best value recomputed
    from the generated data (``truth``: arch -> (accuracy, ece))."""
    if set(result) != SEARCH_KEYS:
        return [f"result keys {sorted(result)}"]
    errors = []
    ev, traj = result["evaluations"], result["trajectory"]
    if not 1 <= ev <= budget or (algo == "rs" and ev != budget):
        errors.append(f"{algo}: {ev} evaluations at budget {budget}")
    if len(traj) != ev:
        errors.append(f"{algo}: trajectory length {len(traj)} != {ev}")
    if any(b < a for a, b in zip(traj, traj[1:])):
        errors.append(f"{algo}: trajectory decreases")
    if not traj or traj[-1] != result["best_value"]:
        errors.append(f"{algo}: trajectory does not end at best_value")
    best = result["best_arch"]
    if best not in truth:
        errors.append(f"{algo}: best_arch {best!r} not in the benchmark")
    elif not close(result["best_value"], hcs(*truth[best], beta)):
        errors.append(f"{algo}: best_value {result['best_value']!r} != "
                      f"hcs {hcs(*truth[best], beta)!r}")
    return errors
