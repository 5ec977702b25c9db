"""Tests for binning-free metrics: nll, brier, ksce, mmce, kdece, lp_ce, auroc.

Each metric is compared against a naive reference implementation (scalar
loops, dense O(N^2) kernels) on seeded random inputs.
"""
import math

import numpy as np
import pytest

from calibrex import (
    PredictionSet,
    auroc,
    brier,
    ece,
    kdece,
    ksce,
    lp_ce,
    mmce,
    nll,
    silverman_bandwidth,
)
from calibrex import continuous
from calibrex.binning import _top_label
from calibrex.continuous import KDE_BW_MAX, KDE_BW_MIN, MMCE_BANDWIDTH, PROB_FLOOR


def random_prob_preds(rng, n, k):
    scores = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return PredictionSet(scores, labels, is_probabilities=True)


def perfect_preds(n=8, k=3):
    labels = np.arange(n) % k
    return PredictionSet(np.eye(k)[labels], labels, is_probabilities=True)


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def nll_oracle(preds):
    total = 0.0
    for i in range(preds.n_samples):
        p = float(preds.scores[i, preds.labels[i]])
        total += -np.log(max(p, PROB_FLOOR))
    return total / preds.n_samples


def brier_oracle(preds):
    total = 0.0
    for i in range(preds.n_samples):
        for j in range(preds.n_classes):
            hot = 1.0 if j == preds.labels[i] else 0.0
            total += (float(preds.scores[i, j]) - hot) ** 2
    return total / preds.n_samples


def ksce_oracle(preds):
    rows = sorted(zip(preds.top_confidence().tolist(),
                      preds.correctness().tolist()))
    run = 0.0
    worst = 0.0
    for c, a in rows:
        run += a - c
        worst = max(worst, abs(run))
    return worst / len(rows)


def mmce_oracle(preds, bw=MMCE_BANDWIDTH):
    conf = preds.top_confidence()
    c = preds.correctness() - conf
    n = len(c)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += c[i] * c[j] * np.exp(-abs(conf[i] - conf[j]) / bw)
    return np.sqrt(max(total, 0.0)) / n


def triweight(u):
    t = 1.0 - u * u
    return (35.0 / 32.0) * t ** 3 if t > 0.0 else 0.0


def kdece_oracle(preds, bandwidth, grid):
    return kdece_oracle_arrays(preds.top_confidence(), preds.correctness(),
                               bandwidth, grid)


def kdece_oracle_arrays(conf, correct, bandwidth, grid):
    conf = np.asarray(conf, dtype=np.float64).tolist()
    correct = np.asarray(correct, dtype=np.float64).tolist()
    n = len(conf)
    step = 1.0 / (grid - 1)
    vals = []
    for i in range(grid):
        z = i * step
        dens = sum(triweight((z - c) / bandwidth) for c in conf) / (bandwidth * n)
        num = sum(triweight((z - c) / bandwidth) * a
                  for c, a in zip(conf, correct)) / (bandwidth * n)
        acc = num / dens if dens > 0.0 else 0.0
        vals.append(abs(z - acc) * dens)
    return sum((vals[i] + vals[i + 1]) * 0.5 * step for i in range(grid - 1))


def lp_ce_oracle(preds, p, m):
    conf = preds.top_confidence()
    correct = preds.correctness()
    total = 0.0
    for b in range(m):
        lo, hi = b / m, (b + 1) / m
        if b == m - 1:
            mask = (conf >= lo) & (conf <= hi)
        else:
            mask = (conf >= lo) & (conf < hi)
        if not mask.any():
            continue
        gap = abs(correct[mask].mean() - conf[mask].mean())
        total += mask.sum() / preds.n_samples * gap ** p
    return total ** (1.0 / p)


def auroc_oracle(pos, neg):
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# nll / brier
# ---------------------------------------------------------------------------

def test_nll_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(15):
        preds = random_prob_preds(rng, int(rng.integers(5, 200)), 4)
        assert nll(preds) == pytest.approx(nll_oracle(preds), rel=1e-12)


def test_nll_floors_zero_probabilities():
    # true-class probability exactly 0 hits the 1e-12 floor, not -inf
    preds = PredictionSet([[1.0, 0.0]], [1], is_probabilities=True)
    assert nll(preds) == pytest.approx(-np.log(1e-12), rel=1e-12)


def test_nll_perfect_predictor_is_zero():
    assert nll(perfect_preds()) == 0.0


def test_brier_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        preds = random_prob_preds(rng, int(rng.integers(5, 200)), 5)
        got = brier(preds)
        assert got == pytest.approx(brier_oracle(preds), rel=1e-12)
        assert 0.0 <= got <= 2.0


def test_brier_extremes():
    assert brier(perfect_preds()) == 0.0
    worst = PredictionSet([[1.0, 0.0]], [1], is_probabilities=True)
    assert brier(worst) == pytest.approx(2.0, abs=1e-15)


def test_requires_probability_inputs():
    logits = PredictionSet([[1.0, -1.0], [0.5, 0.5], [2.0, 0.0],
                            [0.0, 1.0], [1.0, 3.0]], [0, 1, 0, 1, 1])
    for fn in (nll, brier, ksce, mmce, kdece, lambda p: lp_ce(p, 1.5, 10)):
        with pytest.raises(ValueError, match="as_probabilities"):
            fn(logits)


# ---------------------------------------------------------------------------
# ksce
# ---------------------------------------------------------------------------

def test_ksce_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(15):
        preds = random_prob_preds(rng, int(rng.integers(5, 300)), 3)
        assert ksce(preds) == pytest.approx(ksce_oracle(preds), rel=1e-10,
                                            abs=1e-12)


def test_ksce_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    preds = random_prob_preds(rng, 60, 3)
    perm = rng.permutation(60)
    shuffled = PredictionSet(preds.scores[perm], preds.labels[perm],
                             is_probabilities=True)
    assert ksce(preds) == ksce(shuffled)


def test_ksce_perfect_predictor_is_zero():
    assert ksce(perfect_preds()) == 0.0


def test_ksce_hand_example():
    # confidences .8/.6, both wrong: drift -0.6, -1.4 -> 1.4 / 2
    preds = PredictionSet([[0.8, 0.2], [0.6, 0.4]], [1, 1],
                          is_probabilities=True)
    assert ksce(preds) == pytest.approx(0.7, abs=1e-15)


# ---------------------------------------------------------------------------
# mmce
# ---------------------------------------------------------------------------

def test_mmce_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(12):
        preds = random_prob_preds(rng, int(rng.integers(5, 150)), 3)
        assert mmce(preds) == pytest.approx(mmce_oracle(preds), rel=1e-10,
                                            abs=1e-12)


def test_mmce_custom_bandwidth():
    rng = np.random.default_rng(5)
    preds = random_prob_preds(rng, 40, 3)
    for bw in (0.1, 0.4, 1.0):
        got = mmce(preds, bw)
        assert got == pytest.approx(mmce_oracle(preds, bw), rel=1e-10)


def test_mmce_small_bandwidths_match_gram_matrix():
    # exp(conf / bw) overflows for bw <= 1e-3; the recurrence never does
    rng = np.random.default_rng(11)
    preds = random_prob_preds(rng, 300, 3)
    conf = preds.top_confidence()
    c = preds.correctness() - conf
    for bw in (1e-4, 1e-3, 0.4):
        gram = np.exp(-np.abs(conf[:, None] - conf[None, :]) / bw)
        want = np.sqrt(max(c @ gram @ c, 0.0)) / len(c)
        got = mmce(preds, bw)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def mmce_loop(conf, correct, bw):
    """The S_i = d_i (S_{i-1} + c_{i-1}) recurrence, one sample at a time."""
    c = correct - conf
    decay = np.exp(-np.diff(conf) / bw).tolist()
    s = cross = 0.0
    for d, prev, cur in zip(decay, c[:-1].tolist(), c[1:].tolist()):
        s = d * (s + prev)
        cross += cur * s
    return np.sqrt(max(2.0 * cross + float(np.dot(c, c)), 0.0)) / c.size


def mmce_dense(conf, correct, bw, rows=500):
    """sqrt(c^T K c) / N with the Gram matrix built a block of rows at a
    time."""
    c = correct - conf
    total = 0.0
    for lo in range(0, c.size, rows):
        gram = np.exp(-np.abs(conf[lo:lo + rows, None] - conf[None, :]) / bw)
        total += float(c[lo:lo + rows] @ gram @ c)
    return np.sqrt(max(total, 0.0)) / c.size


@pytest.mark.parametrize("bw", [0.4, 0.05, 1e-3, 1e-5])
def test_mmce_scan_matches_loop_and_dense_oracle(bw):
    # N=50,000 against the loop; the dense O(N^2) form on the first 3,000
    rng = np.random.default_rng(23)
    conf, correct = _top_label(random_prob_preds(rng, 50_000, 10))
    got = continuous._mmce(conf, correct, bw)
    assert np.isfinite(got)
    assert got == pytest.approx(mmce_loop(conf, correct, bw), rel=1e-12)
    sub = _top_label(random_prob_preds(rng, 3_000, 10))
    assert continuous._mmce(*sub, bw) == pytest.approx(
        mmce_dense(*sub, bw), rel=1e-10)


def test_mmce_permutation_invariant_exactly():
    rng = np.random.default_rng(6)
    preds = random_prob_preds(rng, 80, 4)
    perm = rng.permutation(80)
    shuffled = PredictionSet(preds.scores[perm], preds.labels[perm],
                             is_probabilities=True)
    assert mmce(preds) == mmce(shuffled)


def test_mmce_perfect_predictor_is_zero():
    assert mmce(perfect_preds()) == 0.0


# ---------------------------------------------------------------------------
# bandwidths
# ---------------------------------------------------------------------------

def test_bandwidth_must_be_positive():
    preds = perfect_preds()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="bandwidth"):
            mmce(preds, bad)
        with pytest.raises(ValueError, match="bandwidth"):
            kdece(preds, bad)


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_bandwidth_must_be_finite(bad):
    # an infinite bandwidth once read as perfect calibration in kdece
    preds = perfect_preds()
    for metric in (mmce, kdece):
        with pytest.raises(ValueError, match="^bandwidth must be a finite "
                           "number > 0, got "):
            metric(preds, bad)


def test_silverman_formula_and_clipping():
    x = [0.1, 0.2, 0.3, 0.4, 0.5]
    # IQR/1.34 = 0.2/1.34 < sample std, so the IQR branch wins
    want = 0.9 * (0.2 / 1.34) * 5 ** -0.2
    assert silverman_bandwidth(x) == pytest.approx(want, rel=1e-12)
    assert silverman_bandwidth([0.5] * 100) == KDE_BW_MIN  # degenerate spread
    assert silverman_bandwidth([0.5]) == KDE_BW_MIN        # single sample
    wide = np.concatenate([np.zeros(3), np.ones(3)])
    assert silverman_bandwidth(wide) == KDE_BW_MAX         # clipped above


# ---------------------------------------------------------------------------
# kdece
# ---------------------------------------------------------------------------

def test_kdece_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    for _ in range(6):
        preds = random_prob_preds(rng, int(rng.integers(10, 60)), 3)
        want = kdece_oracle(preds, 0.1, 101)
        got = kdece(preds, 0.1, grid=101)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_kdece_grid_refinement_converges():
    rng = np.random.default_rng(9)
    preds = random_prob_preds(rng, 400, 3)
    coarse = kdece(preds, grid=1024)
    fine = kdece(preds, grid=10240)
    assert abs(coarse - fine) < 1e-3


def test_kdece_well_calibrated_bernoulli_is_small():
    rng = np.random.default_rng(10)
    n = 20000
    conf = rng.uniform(0.55, 0.95, size=n)
    correct = (rng.uniform(size=n) < conf).astype(float)
    # encode as binary predictions whose top confidence equals conf
    scores = np.stack([conf, 1.0 - conf], axis=1)
    labels = np.where(correct > 0, 0, 1)
    preds = PredictionSet(scores, labels, is_probabilities=True)
    assert kdece(preds) < 0.02


def test_kdece_argument_validation():
    preds = perfect_preds()
    # 2.5 once failed inside np.linspace with a TypeError
    for grid in (1, 2.5, 64.0, True, None, "64"):
        with pytest.raises(ValueError, match="^grid must be an integer "
                           f">= 2, got {grid!r}$"):
            kdece(preds, grid=grid)


@pytest.mark.parametrize("bad", [None, "0.1", True])
def test_mmce_bandwidth_must_be_a_number(bad):
    # None once raised TypeError: '>' not supported
    with pytest.raises(ValueError, match="^bandwidth must be a finite "
                       f"number > 0, got {bad!r}$"):
        mmce(perfect_preds(), bad)


def kdece_edge_cases():
    """(name, conf, correct): canonically sorted top-label states."""
    rng = np.random.default_rng(21)
    k = 4
    uniform = PredictionSet(np.full((5, k), 1.0 / k), [0, 1, 2, 3, 0],
                            is_probabilities=True)
    one_hot = perfect_preds(6, k)
    mixed = random_prob_preds(rng, 60, k)
    yield "n=1", np.array([0.7]), np.array([1.0])
    yield "at 1/K", *_top_label(uniform)
    yield "at 1.0", *_top_label(one_hot)
    yield "all equal", np.full(30, 0.62), (np.arange(30) % 3 == 0) * 1.0
    # 0 is no top-label confidence, but the kernel takes any point of [0, 1]
    conf = np.sort(np.r_[0.0, 0.0, 1.0 / k, 1.0, 1.0, rng.uniform(size=40)])
    yield "at 0, 1/K and 1", conf, (rng.uniform(size=conf.size) < conf) * 1.0
    yield "random", *_top_label(mixed)


@pytest.mark.parametrize("name,conf,correct", list(kdece_edge_cases()))
def test_kdece_matches_oracle_at_edges(name, conf, correct):
    grid = 257
    for bandwidth in (KDE_BW_MIN, silverman_bandwidth(conf), KDE_BW_MAX):
        want = kdece_oracle_arrays(conf, correct, bandwidth, grid)
        got = continuous._kdece(conf, correct, bandwidth, grid)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300), bandwidth


def kdece_dense_reference(preds, bandwidth, grid=1024, chunk=1000):
    """kdece with every sample evaluated at every grid point, in chunks."""
    conf = preds.top_confidence()
    correct = preds.correctness().astype(np.float64)
    h = bandwidth if bandwidth is not None else silverman_bandwidth(conf)
    z = np.linspace(0.0, 1.0, grid)
    dens = np.zeros(grid)
    acc_num = np.zeros(grid)
    for lo in range(0, conf.size, chunk):
        u = (z[:, None] - conf[None, lo:lo + chunk]) / h
        w = (35.0 / 32.0) * np.clip(1.0 - u * u, 0.0, None) ** 3 / h
        dens += w.sum(axis=1)
        acc_num += w @ correct[lo:lo + chunk]
    dens /= conf.size
    acc_num /= conf.size
    acc = np.where(dens > 0.0, acc_num / np.maximum(dens, 1e-300), 0.0)
    return float(np.trapezoid(np.abs(z - acc) * dens, z))


def test_kdece_matches_dense_reference_at_suite_shape():
    """8,000 CIFAR-10-shaped samples on the default grid: many samples share
    a window width and grid point, so the run sums do real work."""
    rng = np.random.default_rng(22)
    preds = random_prob_preds(rng, 8000, 10)
    for bandwidth in (None, 0.03, KDE_BW_MAX):
        assert kdece(preds, bandwidth) == pytest.approx(
            kdece_dense_reference(preds, bandwidth), rel=1e-12)


# ---------------------------------------------------------------------------
# lp_ce
# ---------------------------------------------------------------------------

def test_lp_ce_matches_oracle_and_p1_is_ece():
    rng = np.random.default_rng(11)
    for _ in range(10):
        preds = random_prob_preds(rng, int(rng.integers(5, 200)), 3)
        m = int(rng.choice([1, 5, 15]))
        for p in (1.0, 1.3, 1.7, 2.0):
            assert lp_ce(preds, p, m) == pytest.approx(
                lp_ce_oracle(preds, p, m), rel=1e-10, abs=1e-12)
        assert lp_ce(preds, 1.0, m) == pytest.approx(ece(preds, m), rel=1e-12)


def test_lp_ce_monotone_in_p():
    rng = np.random.default_rng(12)
    for _ in range(20):
        preds = random_prob_preds(rng, int(rng.integers(5, 150)), 3)
        values = [lp_ce(preds, p, 10) for p in (1.0, 1.25, 1.5, 1.75, 2.0)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12


def test_lp_ce_validates_exponent():
    preds = perfect_preds()
    for bad in (0.5, 2.5, -1.0):
        with pytest.raises(ValueError, match=r"p must lie in \[1, 2\]"):
            lp_ce(preds, bad, 10)


# ---------------------------------------------------------------------------
# auroc
# ---------------------------------------------------------------------------

def test_auroc_matches_pair_count_oracle():
    rng = np.random.default_rng(13)
    for _ in range(15):
        pos = rng.normal(0.5, 1.0, size=int(rng.integers(2, 60)))
        neg = rng.normal(0.0, 1.0, size=int(rng.integers(2, 60)))
        assert auroc(pos, neg) == pytest.approx(auroc_oracle(pos, neg),
                                                rel=1e-12, abs=1e-15)


def test_auroc_heavy_ties_match_pair_count_oracle():
    rng = np.random.default_rng(14)
    pos = rng.integers(0, 12, size=2_000).astype(float) / 11.0
    neg = rng.integers(0, 9, size=3_000).astype(float) / 11.0
    assert auroc(pos, neg) == pytest.approx(
        auroc_oracle(pos.tolist(), neg.tolist()), rel=1e-12, abs=1e-15)


def auroc_exact(pos, neg):
    """Pair counts in integers: U = #(neg < p) + #(neg == p) / 2 over p."""
    pos = np.asarray(pos)[:, None]
    neg = np.asarray(neg)[None, :]
    twice_u = int(2 * (neg < pos).sum() + (neg == pos).sum())
    return 0.5 * twice_u / (pos.size * neg.size)


def test_auroc_is_exact_on_heavy_ties_and_identical_sets():
    rng = np.random.default_rng(15)
    pos = rng.integers(0, 5, size=3_000) / 4.0
    neg = rng.integers(0, 3, size=2_000) / 4.0
    assert auroc(pos, neg) == auroc_exact(pos, neg)
    assert auroc(np.sort(pos), neg) == auroc(pos, neg)
    for same in (pos, np.full(7, 0.3), rng.uniform(size=501)):
        assert auroc(same, same[::-1]) == 0.5


def test_auroc_handles_ties():
    pos = [0.5, 0.5, 0.9]
    neg = [0.5, 0.1]
    # pairs: (.5 vs .5) x2 ties, (.5 vs .1) x2 wins, (.9 vs both) wins
    want = (0.5 + 0.5 + 1 + 1 + 1 + 1) / 6
    assert auroc(pos, neg) == pytest.approx(want, abs=1e-15)
    assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auroc_antisymmetry():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rng.normal(size=10)
        b = rng.normal(size=7)
        assert auroc(a, b) == pytest.approx(1.0 - auroc(b, a), abs=1e-12)


def test_auroc_perfect_separation():
    assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auroc([0.0, 1.0], [2.0, 3.0]) == 0.0


def test_auroc_input_validation():
    with pytest.raises(ValueError, match="non-empty"):
        auroc([], [1.0])
    with pytest.raises(ValueError, match="finite"):
        auroc([np.nan], [1.0])
