"""Self-tests of the benchmark's input generator and output checks.

    python3 -m pytest bench
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload, tmp_path):
    a = inputs.write_inputs(workload, 3, tmp_path / "a")
    b = inputs.write_inputs(workload, 3, tmp_path / "b")
    c = inputs.write_inputs(workload, 4, tmp_path / "c")
    assert a["files"] == b["files"]
    for name in a["files"]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    assert a["files"] != c["files"]


@pytest.mark.parametrize("workload", inputs.EVAL_SHAPES)
def test_pool_inputs_match_the_reference(workload):
    ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    n, k = inputs.EVAL_SHAPES[workload]
    for m in range(inputs.POOL_MODELS):
        data = inputs.clbx_bytes(*inputs.model_logits(k, m, n))
        assert inputs.sha256(data) == ref["models"][f"m{m:02d}"]["clbx_sha256"]
    for q in range(inputs.POOL_OOD):
        assert [inputs.sha256(inputs.lines_bytes(v)) for v in
                inputs.ood_confidences(k, q)] == ref["ood_sha256"][str(q)]


def _records_from(expected: dict):
    """JSONL lines as calibrex eval writes them for ``expected``."""
    lines = []
    for stem, exp in expected.items():
        for key, value in exp["values"].items():
            head, stage = key.rsplit("_", 1)
            parts = head.rsplit("_", 1)
            if parts[-1].isdigit():
                metric, bins = parts[0], int(parts[1])
            else:
                metric, bins = head, None
            lines.append(json.dumps({
                "arch_index": exp["arch_index"], "benchmark_dataset": stem,
                "bin_count": bins, "metric": metric, "search_space": "tss",
                "split": "test", "stage": stage, "value": value,
                "temperature": exp["temperature"] if stage == "post"
                else None}))
    return lines


def test_eval_check_rejects_a_value_off_by_1e8_relative():
    ref = json.loads((BENCH / "reference" / "eval_k10.json").read_text())
    expected = checks.expected_records(ref, (3, 11), 2)
    lines = _records_from(expected)
    assert len(lines) == 204
    assert checks.check_eval_records(lines, expected) == []
    rec = json.loads(lines[7])
    rec["value"] *= 1.0 + 1e-8
    assert checks.check_eval_records(
        lines[:7] + [json.dumps(rec)] + lines[8:], expected)
    assert checks.check_eval_records(lines[:-1], expected)


def test_matrix_check_rejects_an_asymmetric_matrix():
    rng = np.random.default_rng(0)
    acc = np.round(rng.random(200) * 20) / 20
    cols = {"accuracy_pre": acc, "ece_5_pre": rng.random(200) - acc,
            "nll_pre": rng.random(200)}
    names = sorted(cols)
    mat = np.eye(3)
    for i in range(3):
        for j in range(i + 1, 3):
            mat[i, j] = mat[j, i] = kendalltau(
                cols[names[i]], cols[names[j]], variant="b").statistic
    pairs = checks.reference_pairs(names, 0)
    assert checks.check_matrix(names, mat, cols, pairs) == []
    bad = mat.copy()
    bad[0, 1] += 1e-9
    assert checks.check_matrix(names, bad, cols, pairs)


def test_dedupe_check_rejects_a_duplicated_line():
    fingerprints = {"a": 0, "b": 0, "c": 1, "d": 2}
    assert checks.check_dedupe(["a", "c", "d"], fingerprints) == []
    assert checks.check_dedupe(["a", "c", "c", "d"], fingerprints)
    assert checks.check_dedupe(["c", "a", "d"], fingerprints)
    assert checks.check_dedupe(["a", "b", "c", "d"], fingerprints)
    assert checks.check_dedupe(["a", "c"], fingerprints)


def test_search_check_rejects_a_decreasing_trajectory():
    truth = {"x": (0.9, 0.1), "y": (0.8, 0.05)}
    best = checks.hcs(0.9, 0.1)
    result = {"best_arch": "x", "best_value": best, "evaluations": 3,
              "trajectory": [checks.hcs(0.8, 0.05), best, best]}
    assert checks.check_search(result, "re", 5, truth) == []
    assert checks.check_search(result, "rs", 5, truth)
    bad = dict(result, trajectory=[best, checks.hcs(0.8, 0.05), best])
    assert checks.check_search(bad, "re", 5, truth)
    assert checks.check_search(dict(result, best_value=best * (1 + 1e-8)),
                               "re", 5, truth)
