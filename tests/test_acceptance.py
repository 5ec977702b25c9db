"""Acceptance gate: nine end-to-end criteria, one printed line each.

Each test prints "[PASS]" or "[FAIL] criterion N: ..." before asserting, so
a plain ``pytest -s tests/test_acceptance.py`` shows the full scorecard.
Every numeric check runs against an independent reference implementation
computed inside this file.
"""
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from calibrex import (
    MeasurementRecord,
    PredictionSet,
    SearchConfig,
    SplitSpec,
    SuiteConfig,
    apply_temperature,
    as_probabilities,
    auroc,
    brier,
    canonical_fingerprint,
    cwce,
    cwce_em,
    ece,
    ece_em,
    enumerate_sss,
    enumerate_tss,
    fit_temperature,
    hcs,
    kdece,
    kendall_tau,
    ksce,
    lp_ce,
    make_objective,
    mce,
    mmce,
    neighbors,
    nll,
    parse_arch,
    random_search,
    iter_records,
    read_logits_file,
    regularized_evolution,
    local_search,
    run_suite,
    split,
    synth_benchmark,
    write_logits_file,
    write_records,
)
from calibrex.cli import main as cli_main


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {desc}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _close(a: float, b: float, rel: float = 1e-10,
           floor: float = 1e-12) -> bool:
    return abs(a - b) <= max(floor, rel * max(abs(a), abs(b)))


def _rand_probs(rng, n, k):
    scores = rng.dirichlet(np.ones(k), size=n)
    return PredictionSet(scores, rng.integers(0, k, size=n),
                         is_probabilities=True)


# ---------------------------------------------------------------------------
# reference implementations (independent of the library code paths)
# ---------------------------------------------------------------------------

def _ref_edges(scheme, conf, m):
    if scheme == "width":
        return [i / m for i in range(m + 1)]
    s = sorted(float(c) for c in conf)
    n = len(s)
    return [0.0] + [s[(i * n) // m] for i in range(1, m)] + [1.0]


def _ref_bin(c, edges):
    i = 0
    for j, e in enumerate(edges):
        if e <= c:
            i = j
    return min(i, len(edges) - 2)


def _ref_gap(conf, correct, edges, kind):
    members = [[] for _ in range(len(edges) - 1)]
    for c, a in zip(conf, correct):
        members[_ref_bin(float(c), edges)].append((float(c), float(a)))
    total, worst = 0.0, 0.0
    for rows in members:
        if not rows:
            continue
        gap = abs(sum(a for _, a in rows) / len(rows)
                  - sum(c for c, _ in rows) / len(rows))
        total += len(rows) / len(conf) * gap
        worst = max(worst, gap)
    return total if kind == "mean" else worst


def _ref_top(preds, scheme, m, kind):
    conf = preds.top_confidence()
    return _ref_gap(conf, preds.correctness(),
                    _ref_edges(scheme, conf, m), kind)


def _ref_cwce(preds, scheme, m):
    total = 0.0
    for cls in range(preds.n_classes):
        conf = preds.scores[:, cls]
        hits = (preds.labels == cls).astype(float)
        total += _ref_gap(conf, hits, _ref_edges(scheme, conf, m), "mean")
    return total / preds.n_classes


def _ref_ksce(preds):
    rows = sorted(zip(preds.top_confidence().tolist(),
                      preds.correctness().tolist()))
    run = worst = 0.0
    for c, a in rows:
        run += a - c
        worst = max(worst, abs(run))
    return worst / len(rows)


def _ref_mmce(preds, bw=0.4):
    conf = preds.top_confidence()
    c = preds.correctness() - conf
    kernel = np.exp(-np.abs(conf[:, None] - conf[None, :]) / bw)
    return math.sqrt(max(float(c @ kernel @ c), 0.0)) / len(c)


def _ref_nll(preds):
    return sum(-math.log(max(float(preds.scores[i, preds.labels[i]]), 1e-12))
               for i in range(preds.n_samples)) / preds.n_samples


def _ref_brier(preds):
    total = 0.0
    for i in range(preds.n_samples):
        row = preds.scores[i].tolist()
        for j, p in enumerate(row):
            total += (p - (1.0 if j == preds.labels[i] else 0.0)) ** 2
    return total / preds.n_samples


def _ref_auroc(pos, neg):
    wins = 0.0
    for a in pos:
        for b in neg:
            wins += 1.0 if a > b else (0.5 if a == b else 0.0)
    return wins / (len(pos) * len(neg))


def _ref_tau(x, y):
    n = len(x)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (x[i] - x[j]) * (y[i] - y[j])
            conc += s > 0
            disc += s < 0
    n0 = n * (n - 1) / 2
    n1 = sum(k * (k - 1) / 2 for k in Counter(x).values())
    n2 = sum(k * (k - 1) / 2 for k in Counter(y).values())
    return (conc - disc) / math.sqrt((n0 - n1) * (n0 - n2))


def _ref_grid_temperature(logits, labels, points=4001):
    ts = np.exp(np.linspace(np.log(0.05), np.log(20.0), points))
    best_t, best_v = 1.0, np.inf
    idx = np.arange(len(labels))
    for t in ts:
        z = logits / t
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        v = float(-np.mean(np.log(p[idx, labels])))
        if v < best_v:
            best_t, best_v = float(t), v
    return best_t


# ---------------------------------------------------------------------------
# criterion 1: harmonic calibration score reference rows
# ---------------------------------------------------------------------------

def test_criterion_1_hcs_reference_rows():
    rows = [
        ((93.91, 4.20), (94.84, 95.16, 95.32)),
        ((94.01, 4.25), (94.87, 95.16, 95.31)),
        ((93.52, 4.15), (94.67, 95.06, 95.26)),
        ((93.94, 4.17), (94.88, 95.19, 95.35)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for (acc, err), expected in rows:
        for beta, want in zip((1.0, 2.0, 3.0), expected):
            got = 100.0 * hcs(acc / 100.0, err / 100.0, beta)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _report(1, "hcs reproduces the reference accuracy/ece rows",
            worst <= 0.01,
            f"{len(rows)} rows x 3 betas, worst |err| {worst:.4f} "
            f"({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# criterion 2: full measurement sweep size and speed
# ---------------------------------------------------------------------------

def test_criterion_2_suite_cardinality_and_speed():
    rng = np.random.default_rng(0)
    preds = PredictionSet(rng.normal(scale=2.0, size=(10000, 10)),
                          rng.integers(0, 10, size=10000))
    cfg = SuiteConfig(ood_inputs=(rng.uniform(0.2, 0.8, 500),
                                  rng.uniform(0.2, 0.8, 500)))
    t0 = time.perf_counter()
    records = run_suite(preds, cfg)
    elapsed = time.perf_counter() - t0
    binned = sum(r.bin_count is not None for r in records)
    ok = (len(records) == 102 and binned == 90
          and len(records) - binned == 12 and elapsed < 5.0)
    _report(2, "suite yields 102 records (90 binned + 12) under 5 s",
            ok, f"{len(records)} records, {binned} binned, {elapsed:.2f}s "
                "at N=10000")


# ---------------------------------------------------------------------------
# criterion 3: space enumeration and structural dedupe
# ---------------------------------------------------------------------------

def test_criterion_3_enumeration_and_dedupe():
    t0 = time.perf_counter()
    tss = enumerate_tss()
    sss = enumerate_sss()
    classes = {}
    for a in tss:
        classes.setdefault(canonical_fingerprint(a), []).append(
            a.to_string())
    elapsed = time.perf_counter() - t0
    n_classes = len(classes)
    ok = (len(tss) == 15625 and len(sss) == 32768
          and n_classes == 6466 and elapsed < 60.0)
    detail = (f"tss={len(tss)} sss={len(sss)} classes={n_classes} "
              f"({elapsed:.1f}s)")
    if n_classes != 6466:
        merged = [tuple(sorted(m)[:2]) for m in classes.values()
                  if len(m) > 1]
        a, b = min(merged)
        detail += (f"; expected 6466 classes; smallest merged pair under "
                   f"the rewrite rules: {a!r} == {b!r}")
    _report(3, "15625 tss / 32768 sss; dedupe to 6466 classes", ok, detail)


# ---------------------------------------------------------------------------
# criterion 4: metrics against brute-force references
# ---------------------------------------------------------------------------

def test_criterion_4_brute_force_agreement():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    failures = []

    def check(tag, got, want):
        if not _close(got, want):
            failures.append(f"{tag}: {got!r} vs {want!r}")

    for case in range(100):
        n = int(rng.integers(5, 501))
        k = int(rng.choice([2, 10, 100]))
        preds = _rand_probs(rng, n, k)
        for m in (1, 10, 15):
            check(f"ece[{case}]", ece(preds, m),
                  _ref_top(preds, "width", m, "mean"))
            check(f"ece_em[{case}]", ece_em(preds, m),
                  _ref_top(preds, "mass", m, "mean"))
            check(f"mce[{case}]", mce(preds, m),
                  _ref_top(preds, "width", m, "max"))
            check(f"cwce[{case}]", cwce(preds, m),
                  _ref_cwce(preds, "width", m))
            check(f"cwce_em[{case}]", cwce_em(preds, m),
                  _ref_cwce(preds, "mass", m))
        check(f"ksce[{case}]", ksce(preds), _ref_ksce(preds))
        check(f"mmce[{case}]", mmce(preds), _ref_mmce(preds))
        check(f"nll[{case}]", nll(preds), _ref_nll(preds))
        check(f"brier[{case}]", brier(preds), _ref_brier(preds))

        pos = rng.normal(0.3, 1.0, size=int(rng.integers(2, 50))).tolist()
        neg = rng.normal(0.0, 1.0, size=int(rng.integers(2, 50))).tolist()
        check(f"auroc[{case}]", auroc(pos, neg), _ref_auroc(pos, neg))

        nt = int(rng.integers(3, 150))
        x = rng.integers(0, 8, size=nt).astype(float)
        y = rng.integers(0, 8, size=nt).astype(float)
        if not (np.all(x == x[0]) or np.all(y == y[0])):
            check(f"tau[{case}]", kendall_tau(x, y),
                  _ref_tau(x.tolist(), y.tolist()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(4, "metrics match brute-force references at 1e-10 relative",
            ok, f"100 prediction sets, {elapsed:.1f}s"
                + (f"; first mismatch {failures[0]}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 5: metric invariants over 1000 random cases
# ---------------------------------------------------------------------------

def test_criterion_5_invariants():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    bad = []
    for case in range(1000):
        n = int(rng.integers(5, 121))
        k = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(1, 21))
        preds = _rand_probs(rng, n, k)

        for scheme in ("width", "mass"):
            if ece(preds, m, scheme) > mce(preds, m, scheme) + 1e-12:
                bad.append(f"{case}: ece>mce ({scheme})")
        if abs(ece(preds, 1, "width") - ece(preds, 1, "mass")) > 1e-12:
            bad.append(f"{case}: single bin depends on scheme")

        labels = preds.labels
        perfect = PredictionSet(np.eye(k)[labels], labels,
                                is_probabilities=True)
        zeros = (ece(perfect, m), ece_em(perfect, m), mce(perfect, m),
                 cwce(perfect, m), cwce_em(perfect, m), ksce(perfect),
                 mmce(perfect), nll(perfect), brier(perfect),
                 lp_ce(perfect, 2.0, m))
        if any(z != 0.0 for z in zeros):
            bad.append(f"{case}: perfect predictor not at zero {zeros}")
        if kdece(perfect) > 1e-6:
            bad.append(f"{case}: kdece on perfect predictor")

        distinct = rng.permutation(np.linspace(0.02, 0.98, n))
        edges = _ref_edges("mass", distinct, m)
        counts = np.bincount([_ref_bin(c, edges) for c in distinct],
                             minlength=m)
        if counts.max() - counts.min() > 1:
            bad.append(f"{case}: equal-mass occupancy spread")
        # the same distinct values as top-label confidences in (0.5, 1)
        halves = PredictionSet(np.stack([(1 + distinct) / 2,
                                         (1 - distinct) / 2], axis=1),
                               labels % 2, is_probabilities=True)
        conf = halves.top_confidence()
        if not _close(ece_em(halves, m),
                      _ref_gap(conf, halves.correctness(),
                               _ref_edges("mass", conf, m), "mean")):
            bad.append(f"{case}: ece_em off the equal-mass partition")

        tripled = PredictionSet(np.tile(preds.scores, (3, 1)),
                                np.tile(labels, 3), is_probabilities=True)
        for scheme in ("width", "mass"):
            if not _close(ece(preds, m, scheme), ece(tripled, m, scheme),
                          rel=1e-10):
                bad.append(f"{case}: duplication changes ece ({scheme})")

        ps = (1.0, 1.5, 2.0)
        vals = [lp_ce(preds, p, m) for p in ps]
        if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
            bad.append(f"{case}: lp_ce not monotone in p")

        u = rng.normal(size=6)
        v = rng.normal(size=5)
        if not _close(auroc(u, v), 1.0 - auroc(v, u), rel=1e-12):
            bad.append(f"{case}: auroc antisymmetry")
    elapsed = time.perf_counter() - t0
    _report(5, "invariants hold on 1000 random cases", not bad,
            f"{1000 - len(bad)}/1000 clean, {elapsed:.1f}s"
            + (f"; first violation {bad[0]}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 6: temperature recovery and guarantees
# ---------------------------------------------------------------------------

def _planted_temp_preds(c):
    blocks = [(np.array([0.8, 0.15, 0.05]), 20),
              (np.array([0.6, 0.3, 0.1]), 10),
              (np.array([0.45, 0.35, 0.2]), 20)]
    rows, labels = [], []
    for p, copies in blocks:
        counts = np.rint(p * copies).astype(int)
        z = c * np.log(p)
        for cls, cnt in enumerate(counts):
            rows.extend([z] * cnt)
            labels.extend([cls] * cnt)
    return PredictionSet(np.array(rows), np.array(labels))


def test_criterion_6_temperature_scaling():
    t0 = time.perf_counter()
    problems = []
    for c in (0.5, 2.0, 4.0):
        preds = _planted_temp_preds(c)
        fit = fit_temperature(preds)
        if abs(fit.value - c) > 1e-2:
            problems.append(f"planted {c}: got {fit.value}")
        t_grid = _ref_grid_temperature(preds.scores, preds.labels)
        if abs(fit.value - t_grid) > 1e-2:
            problems.append(f"grid oracle {t_grid} vs fit {fit.value}")

    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(5, 200))
        k = int(rng.choice([2, 4, 10]))
        preds = PredictionSet(rng.normal(scale=2.0, size=(n, k)),
                              rng.integers(0, k, size=n))
        fit = fit_temperature(preds)
        if fit.nll_after > fit.nll_before:
            problems.append(f"trial {trial}: nll got worse")
        scaled = apply_temperature(preds, fit)
        if scaled.accuracy() != preds.accuracy():
            problems.append(f"trial {trial}: accuracy changed")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    _report(6, "temperature recovery within 1e-2; nll never worse; "
               "accuracy preserved", ok,
            f"3 planted + 50 random fits, {elapsed:.1f}s"
            + (f"; first problem {problems[0]}" if problems else ""))


# ---------------------------------------------------------------------------
# criterion 7: kernel-density metric behavior
# ---------------------------------------------------------------------------

def test_criterion_7_kdece():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    n = 50000
    conf = rng.uniform(0.51, 0.99, size=n)
    correct = rng.uniform(size=n) < conf
    scores = np.stack([conf, 1.0 - conf], axis=1)
    labels = np.where(correct, 0, 1)
    calibrated = PredictionSet(scores, labels, is_probabilities=True)
    calibrated_value = kdece(calibrated)

    small = _rand_probs(rng, 400, 3)
    coarse = kdece(small, grid=1024)
    fine = kdece(small, grid=10240)
    refinement_gap = abs(coarse - fine)
    elapsed = time.perf_counter() - t0
    ok = calibrated_value <= 0.02 and refinement_gap < 1e-3
    _report(7, "kdece small on a calibrated stream and stable under grid "
               "refinement", ok,
            f"calibrated {calibrated_value:.4f} at N=50000, refinement gap "
            f"{refinement_gap:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: searcher guarantees on a planted landscape
# ---------------------------------------------------------------------------

def test_criterion_8_search():
    t0 = time.perf_counter()
    planted = enumerate_tss()[9241].to_string()
    bench = synth_benchmark("tss", seed=0, planted=planted)
    obj = make_objective("acc")
    problems = []

    def common(result, budget, tag):
        if result.evaluations > budget:
            problems.append(f"{tag}: over budget")
        if len(result.trajectory) != result.evaluations:
            problems.append(f"{tag}: trajectory length")
        if any(b < a for a, b in zip(result.trajectory,
                                     result.trajectory[1:])):
            problems.append(f"{tag}: trajectory not monotone")

    full = random_search(bench, obj, SearchConfig(budget=len(bench), seed=0))
    common(full, len(bench), "rs")
    if full.best_arch != planted:
        problems.append("rs with full budget missed the argmax")

    for seed in (0, 1, 2):
        ls = local_search(bench, obj, SearchConfig(budget=600, seed=seed))
        common(ls, 600, f"ls[{seed}]")
        if not ls.is_local_optimum:
            problems.append(f"ls[{seed}]: not verified")
        else:
            for nb in neighbors(parse_arch(ls.best_arch)):
                if obj(bench.query(nb.to_string())) > ls.best_value:
                    problems.append(f"ls[{seed}]: replay found better")
                    break

    hits = 0
    for seed in range(100):
        re = regularized_evolution(bench, obj,
                                   SearchConfig(budget=500, seed=seed))
        common(re, 500, f"re[{seed}]")
        hits += re.best_arch == planted
    if hits < 95:
        problems.append(f"re hit rate {hits}/100")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    _report(8, "rs exhaustive argmax; ls verified optima; re >=95/100 "
               "planted", ok,
            f"re {hits}/100, {elapsed:.1f}s"
            + (f"; first problem {problems[0]}" if problems else ""))


# ---------------------------------------------------------------------------
# criterion 9: reproducibility and lossless round trips
# ---------------------------------------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    t0 = time.perf_counter()
    problems = []
    rng = np.random.default_rng(5)

    preds = PredictionSet(
        rng.normal(size=(300, 4)).astype(np.float32).astype(np.float64),
        rng.integers(0, 4, size=300))
    bin_path = tmp_path / "p.bin"
    write_logits_file(bin_path, preds)
    back = read_logits_file(bin_path)
    if not (np.array_equal(back.scores, preds.scores)
            and np.array_equal(back.labels, preds.labels)):
        problems.append("binary round trip lost data")

    records = run_suite(preds, SuiteConfig())
    rec_path = tmp_path / "r.jsonl"
    write_records(records, rec_path)
    if [MeasurementRecord(**r) for r in iter_records(rec_path)] != records:
        problems.append("jsonl round trip changed records")

    ood = tmp_path / "ood.txt"
    ood.write_text("".join(f"{v}\n" for v in rng.uniform(0.2, 0.8, 100)))
    outs = []
    for name in ("a", "b"):
        ev_out = tmp_path / f"eval_{name}.jsonl"
        sr_out = tmp_path / f"search_{name}.json"
        en_out = tmp_path / f"enum_{name}.txt"
        assert cli_main(["eval", "--logits", str(bin_path),
                         "--ood-in", str(ood), "--ood-out", str(ood),
                         "--seed", "3", "--out", str(ev_out)]) == 0
        assert cli_main(["search", "--benchmark", "synthetic", "--algo",
                         "re", "--budget", "80", "--seed", "3",
                         "--out", str(sr_out)]) == 0
        assert cli_main(["enumerate", "--space", "sss",
                         "--out", str(en_out)]) == 0
        outs.append((ev_out.read_bytes(), sr_out.read_bytes(),
                     en_out.read_bytes()))
    if outs[0] != outs[1]:
        problems.append("cli rerun outputs differ")

    sr = json.loads(outs[0][1])
    if set(sr) != {"best_arch", "best_value", "evaluations", "trajectory"}:
        problems.append("search result json shape")
    elapsed = time.perf_counter() - t0
    _report(9, "byte-identical cli reruns and lossless round trips",
            not problems, f"{elapsed:.1f}s"
            + (f"; {problems[0]}" if problems else ""))
