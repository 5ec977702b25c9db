"""Tests for the binning kernel and the binned calibration metrics.

Every metric is checked against a deliberately naive scalar re-implementation
(plain Python loops over per-bin member lists) on seeded random inputs.
"""
import numpy as np
import pytest

from calibrex import (
    PredictionSet,
    as_probabilities,
    cwce,
    cwce_em,
    ece,
    ece_em,
    mce,
)
from calibrex.binning import _binned_metrics, _edge_layout, _top_label
from calibrex.suite import BIN_METRICS, DEFAULT_BIN_SIZES


def random_prob_preds(rng, n, k):
    scores = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return PredictionSet(scores, labels, is_probabilities=True)


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------

def edges_oracle(scheme, conf, m):
    if scheme == "width":
        return [i / m for i in range(m + 1)]
    s = sorted(float(c) for c in conf)
    n = len(s)
    return [0.0] + [s[(i * n) // m] for i in range(1, m)] + [1.0]


def assign_oracle(c, edges):
    """Rightmost bin whose left edge is <= c, clamped into the last bin."""
    m = len(edges) - 1
    i = 0
    for j in range(len(edges)):
        if edges[j] <= c:
            i = j
    return min(i, m - 1)


def binned_gap_oracle(conf, correct, edges, kind):
    m = len(edges) - 1
    members = [[] for _ in range(m)]
    for c, a in zip(conf, correct):
        members[assign_oracle(float(c), edges)].append((float(c), float(a)))
    n = len(conf)
    acc = 0.0
    worst = 0.0
    for rows in members:
        if not rows:
            continue
        mean_c = sum(c for c, _ in rows) / len(rows)
        mean_a = sum(a for _, a in rows) / len(rows)
        gap = abs(mean_a - mean_c)
        acc += len(rows) / n * gap
        worst = max(worst, gap)
    return acc if kind == "ece" else worst


def ece_oracle(preds, m, scheme):
    conf = preds.top_confidence()
    edges = edges_oracle(scheme, conf, m)
    return binned_gap_oracle(conf, preds.correctness(), edges, "ece")


def mce_oracle(preds, m, scheme):
    conf = preds.top_confidence()
    edges = edges_oracle(scheme, conf, m)
    return binned_gap_oracle(conf, preds.correctness(), edges, "mce")


def cwce_oracle(preds, m, scheme):
    total = 0.0
    for cls in range(preds.n_classes):
        conf = preds.scores[:, cls]
        hits = (preds.labels == cls).astype(float)
        edges = edges_oracle(scheme, conf, m)
        total += binned_gap_oracle(conf, hits, edges, "ece")
    return total / preds.n_classes


# ---------------------------------------------------------------------------
# the kernel's edges and bins
# ---------------------------------------------------------------------------

def edge_blocks(bin_counts, n):
    """``{(scheme, m): edges}`` read back from ``_edge_layout``: interior
    equal-width edges as values, interior equal-mass edges as cut indices
    into the sorted column, each block between -inf and +inf."""
    widths, cuts, layout = _edge_layout(bin_counts, n)
    sources = np.concatenate(([-np.inf, np.inf], widths, cuts))
    blocks, start = {}, 0
    for m in bin_counts:
        for scheme in ("width", "mass"):
            blocks[scheme, m] = sources[layout[start:start + m + 1]]
            start += m + 1
    assert start == layout.size
    return blocks


def weighted_gap(conf, hits, idx, m):
    """The weighted gap of one column binned by the given bin indices."""
    total = 0.0
    for b in range(m):
        members = np.flatnonzero(np.asarray(idx) == b)
        if members.size:
            total += members.size / len(conf) * abs(
                np.mean(hits[members]) - np.mean(conf[members]))
    return total


def two_class(col0, labels):
    """A two-class probability set whose class 0 scores are ``col0``."""
    col0 = np.asarray(col0, dtype=np.float64)
    return PredictionSet(np.stack([col0, 1.0 - col0], axis=1), labels,
                         is_probabilities=True)


def test_equal_width_edges_are_exact():
    for bin_counts in ((1,), (2,), (5,), (15,), (100,), DEFAULT_BIN_SIZES):
        blocks = edge_blocks(bin_counts, 137)
        for m in bin_counts:
            want = np.concatenate(([-np.inf], np.arange(1, m) / m, [np.inf]))
            assert blocks["width", m].tobytes() == want.tobytes()


def test_equal_mass_edges_match_order_statistics():
    rng = np.random.default_rng(0)
    bin_counts = (1, 2, 5, 10, 50)
    blocks = edge_blocks(bin_counts, 137)
    conf = rng.uniform(size=137)
    for m in bin_counts:
        cuts = blocks["mass", m][1:-1]
        assert cuts.tolist() == [(i * 137) // m for i in range(1, m)]
        edges = np.sort(conf)[cuts.astype(int)]
        assert edges.tolist() == edges_oracle("mass", conf, m)[1:-1]


def test_equal_mass_occupancy_spread_at_most_one_on_distinct_values():
    # on distinct values no cut sits inside a run of ties, so the kernel
    # takes each cut index as the position of its edge: a bin holds the
    # samples between two consecutive cuts
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(20, 400))
        m = int(rng.integers(1, 20))
        positions = edge_blocks((m,), n)["mass", m]
        positions[[0, -1]] = 0, n
        counts = np.diff(positions)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_equal_mass_ties_share_one_bin():
    # 50 samples at one confidence: if the ties were split over bins by
    # position, the misses (sorted first) and the hits would fill
    # different bins and the error would exceed the single-bin one
    labels = np.r_[np.zeros(20, dtype=int), np.ones(30, dtype=int)]
    preds = two_class(np.full(50, 0.7), labels)
    assert ece(preds, 1) == pytest.approx(abs(0.4 - 0.7), abs=1e-15)
    for metric in (ece_em, cwce_em, lambda p, m: mce(p, m, "mass")):
        assert metric(preds, 10) == metric(preds, 1)


def test_partition_validation():
    preds = random_prob_preds(np.random.default_rng(9), 20, 3)
    for metric in (ece, mce, cwce):
        with pytest.raises(ValueError, match="unknown scheme"):
            metric(preds, 10, "quantile")
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match="positive integer"):
                metric(preds, bad)


def test_assign_bins_half_open_rule():
    # bins [e_i, e_{i+1}) with the last closed at 1; class 1's scores
    # 1 - conf fall on the edges too
    conf = np.array([0.0, 0.1, 0.25, 0.49999, 0.5, 0.75, 0.99, 1.0])
    labels = np.array([0, 1, 1, 0, 0, 1, 0, 1])
    preds = two_class(conf, labels)
    want = (weighted_gap(conf, labels == 0, [0, 0, 1, 1, 2, 3, 3, 3], 4)
            + weighted_gap(1.0 - conf, labels == 1,
                           [3, 3, 3, 2, 2, 1, 0, 0], 4)) / 2
    assert cwce(preds, 4) == pytest.approx(want, abs=1e-15)


def test_assign_bins_matches_oracle_with_duplicate_edges():
    # equal-mass edges [0, 0.5, 0.5, 1]: the middle bin stays empty and
    # every 0.5 falls in the last bin, in both class columns
    conf = np.array([0.0, 0.5, 0.5, 0.5, 1.0])
    labels = np.array([0, 1, 0, 0, 1])
    preds = two_class(conf, labels)
    assert edges_oracle("mass", conf, 3) == [0.0, 0.5, 0.5, 1.0]
    idx = [[assign_oracle(c, edges_oracle("mass", col, 3)) for c in col]
           for col in (conf, 1.0 - conf)]
    assert idx == [[0, 2, 2, 2, 2], [2, 2, 2, 2, 0]]
    want = (weighted_gap(conf, labels == 0, idx[0], 3)
            + weighted_gap(1.0 - conf, labels == 1, idx[1], 3)) / 2
    assert cwce_em(preds, 3) == pytest.approx(want, abs=1e-15)


def test_bin_stats_counts_and_means():
    # class 0: bins {0.2, 0.4} (hits 1, 0) and {0.9} (hit 1);
    # class 1: bins {0.1} (hit 0) and {0.8, 0.6} (hits 0, 1)
    preds = two_class([0.2, 0.4, 0.9], [0, 1, 0])
    class0 = 2 / 3 * abs(0.5 - 0.3) + 1 / 3 * abs(1.0 - 0.9)
    class1 = 1 / 3 * abs(0.0 - 0.1) + 2 / 3 * abs(0.5 - 0.7)
    assert cwce(preds, 2) == pytest.approx((class0 + class1) / 2, abs=1e-15)


# ---------------------------------------------------------------------------
# metrics against the scalar oracles
# ---------------------------------------------------------------------------

def test_binned_metrics_match_scalar_oracles():
    rng = np.random.default_rng(2)
    for trial in range(25):
        n = int(rng.integers(5, 300))
        k = int(rng.choice([2, 3, 10]))
        m = int(rng.choice([1, 2, 5, 15, 50]))
        preds = random_prob_preds(rng, n, k)
        for scheme in ("width", "mass"):
            assert ece(preds, m, scheme) == pytest.approx(
                ece_oracle(preds, m, scheme), rel=1e-10, abs=1e-12)
            assert mce(preds, m, scheme) == pytest.approx(
                mce_oracle(preds, m, scheme), rel=1e-10, abs=1e-12)
            assert cwce(preds, m, scheme) == pytest.approx(
                cwce_oracle(preds, m, scheme), rel=1e-10, abs=1e-12)


def test_em_variants_are_mass_scheme():
    rng = np.random.default_rng(3)
    preds = random_prob_preds(rng, 80, 4)
    assert ece_em(preds, 10) == ece(preds, 10, scheme="mass")
    assert cwce_em(preds, 10) == cwce(preds, 10, scheme="mass")


def test_ece_at_most_mce():
    rng = np.random.default_rng(4)
    for trial in range(50):
        preds = random_prob_preds(rng, int(rng.integers(5, 200)), 3)
        m = int(rng.integers(1, 25))
        for scheme in ("width", "mass"):
            assert ece(preds, m, scheme) <= mce(preds, m, scheme) + 1e-15


def test_single_bin_is_scheme_free():
    rng = np.random.default_rng(5)
    for trial in range(20):
        preds = random_prob_preds(rng, int(rng.integers(5, 100)), 3)
        e_w = ece(preds, 1, "width")
        e_m = ece(preds, 1, "mass")
        direct = abs(preds.accuracy() - preds.top_confidence().mean())
        assert e_w == pytest.approx(e_m, abs=1e-15)
        assert e_w == pytest.approx(direct, rel=1e-12)


def test_perfect_predictor_scores_zero():
    # one-hot probabilities with matching labels: gap is exactly zero
    labels = np.array([0, 1, 2, 1, 0])
    scores = np.eye(3)[labels]
    preds = PredictionSet(scores, labels, is_probabilities=True)
    for m in (1, 5, 15):
        assert ece(preds, m) == 0.0
        assert ece_em(preds, m) == 0.0
        assert mce(preds, m) == 0.0
        assert cwce(preds, m) == 0.0
        assert cwce_em(preds, m) == 0.0


def test_duplication_invariance():
    rng = np.random.default_rng(6)
    for trial in range(10):
        preds = random_prob_preds(rng, int(rng.integers(5, 60)), 3)
        tripled = PredictionSet(np.tile(preds.scores, (3, 1)),
                                np.tile(preds.labels, 3),
                                is_probabilities=True)
        for m in (1, 4, 10):
            for scheme in ("width", "mass"):
                assert ece(preds, m, scheme) == pytest.approx(
                    ece(tripled, m, scheme), rel=1e-10, abs=1e-12)
                assert cwce(preds, m, scheme) == pytest.approx(
                    cwce(tripled, m, scheme), rel=1e-10, abs=1e-12)


def test_hand_worked_two_bin_example():
    # all four confidences fall in [0.5, 1]: mean conf 0.75, accuracy 0.5
    scores = np.array([[0.6, 0.4], [0.7, 0.3], [0.8, 0.2], [0.9, 0.1]])
    conf = scores.max(axis=1)
    assert conf.tolist() == [0.6, 0.7, 0.8, 0.9]
    labels = np.array([1, 0, 0, 1])  # correct = 0, 1, 1, 0
    preds = PredictionSet(scores, labels, is_probabilities=True)
    want = abs(0.5 - 0.75)  # single populated bin [0.5, 1]
    assert ece(preds, 2) == pytest.approx(want, abs=1e-15)
    assert mce(preds, 2) == pytest.approx(want, abs=1e-15)


def test_metrics_require_probabilities():
    preds = PredictionSet([[2.0, -1.0], [0.0, 1.0], [1.0, 0.0],
                           [3.0, 1.0], [0.5, 0.2]], [0, 1, 0, 0, 1])
    for fn in (lambda p: ece(p, 10), lambda p: mce(p, 10),
               lambda p: cwce(p, 10)):
        with pytest.raises(ValueError, match="as_probabilities"):
            fn(preds)
        fn(as_probabilities(preds))  # converted input is accepted


# ---------------------------------------------------------------------------
# the shared binning kernel against a per-bin, per-class loop reference
# ---------------------------------------------------------------------------

def loop_binned_errors(conf, hits, m, scheme):
    """(weighted gap, max gap) of one score column: per-sample bin index,
    then per-bin sums by bincount."""
    edges = np.array(edges_oracle(scheme, conf, m))
    idx = np.minimum(np.searchsorted(edges, conf, side="right") - 1, m - 1)
    counts = np.bincount(idx, minlength=m)
    nz = counts > 0
    conf_sum = np.bincount(idx, weights=conf, minlength=m)[nz]
    hit_sum = np.bincount(idx, weights=hits, minlength=m)[nz]
    gaps = np.abs(hit_sum / counts[nz] - conf_sum / counts[nz])
    return np.sum(counts[nz] * gaps) / len(conf), np.max(gaps)


def loop_reference(preds, m, scheme):
    """ece, mce and cwce of one bin count and scheme, one class at a time."""
    top = loop_binned_errors(preds.top_confidence(), preds.correctness(),
                             m, scheme)
    per_class = [loop_binned_errors(preds.scores[:, k],
                                    (preds.labels == k).astype(float),
                                    m, scheme)[0]
                 for k in range(preds.n_classes)]
    return {"ece": top[0], "mce": top[1], "cwce": sum(per_class) / len(per_class)}


def kernel_cases():
    rng = np.random.default_rng(12)
    # heavy ties: every row is one of four probability vectors
    vectors = rng.dirichlet(np.ones(5), size=4)
    tied = vectors[rng.integers(0, 4, size=600)]
    yield "ties", PredictionSet(tied, rng.integers(0, 5, size=600),
                                is_probabilities=True)
    # top confidences exactly on equal-width edges i/m, including 1.0
    on_edge = rng.choice([0.5, 0.6, 0.75, 0.8, 0.9, 0.96, 0.998, 1.0],
                         size=400)
    yield "edges", PredictionSet(np.stack([on_edge, 1.0 - on_edge], axis=1),
                                 rng.integers(0, 2, size=400),
                                 is_probabilities=True)
    # one-hot rows: confidences of exactly 1.0 and columns of exact zeros
    labels = rng.integers(0, 4, size=300)
    hot = np.eye(4)[np.where(rng.uniform(size=300) < 0.8, labels,
                             rng.integers(0, 4, size=300))]
    yield "one-hot", PredictionSet(hot, labels, is_probabilities=True)
    # softmax underflow: two classes never get a nonzero probability
    logits = rng.normal(scale=4.0, size=(500, 6))
    logits[:, [1, 4]] = -2000.0
    underflow = as_probabilities(PredictionSet(logits,
                                               rng.integers(0, 6, size=500)))
    assert np.all(underflow.scores[:, [1, 4]] == 0.0)
    yield "underflow", underflow
    # fewer samples than bins: equal-mass edges repeat and bins stay empty
    yield "n<m", random_prob_preds(rng, 7, 3)
    yield "random", random_prob_preds(rng, 900, 10)
    # below, equal-mass edges x_(i*n//m) sit inside runs of equal values,
    # so their positions come from a search, not from i*n//m
    # every row two to four times in a row
    base = random_prob_preds(rng, 150, 4)
    reps = np.repeat(np.arange(150), rng.choice([2, 3, 4], size=150))
    yield "dup-rows", PredictionSet(base.scores[reps], base.labels[reps],
                                    is_probabilities=True)
    # softmax underflow in about half of each column: long runs of 0.0
    logits = rng.normal(scale=3.0, size=(700, 5))
    logits[rng.uniform(size=(700, 5)) < 0.5] = -3000.0
    logits[np.arange(700), rng.integers(0, 5, 700)] = 0.0
    yield "zero-runs", as_probabilities(PredictionSet(
        logits, rng.integers(0, 5, size=700)))
    # fewer samples than bins, with duplicates
    yield "n<m-dups", PredictionSet([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8],
                                     [0.2, 0.8], [0.9, 0.1]],
                                    [0, 1, 1, 1, 0], is_probabilities=True)
    # the kernel bins _ROWS_PER_STEP = 8 rows at a time: these split their
    # rows across steps on the suite route (K + 1 rows: 8, 9 and 18) and
    # the public cwce one (K rows: 7, 8 and 17)
    for k in (7, 8, 17):
        yield f"k={k}", random_prob_preds(rng, 400, k)
    # every row one probability vector: each column is a single run of
    # ties, so every equal-mass edge sits inside it and all samples share
    # the last bin
    vector = rng.dirichlet(np.ones(3))
    yield "one-vector", PredictionSet(np.tile(vector, (60, 1)),
                                      rng.integers(0, 3, size=60),
                                      is_probabilities=True)


@pytest.mark.parametrize("name,preds", list(kernel_cases()))
def test_kernel_matches_loop_reference(name, preds):
    suite = _binned_metrics(preds, _top_label(preds), DEFAULT_BIN_SIZES)
    for m in DEFAULT_BIN_SIZES:
        for scheme in ("width", "mass"):
            want = loop_reference(preds, m, scheme)
            got = {"ece": ece(preds, m, scheme), "mce": mce(preds, m, scheme),
                   "cwce": cwce(preds, m, scheme)}
            for metric, value in got.items():
                assert value == pytest.approx(want[metric], rel=1e-10,
                                              abs=1e-12), (metric, m, scheme)
        assert suite["ece", m] == ece(preds, m)
        assert suite["ece_em", m] == ece_em(preds, m)
        assert suite["mce", m] == mce(preds, m)
        assert suite["cwce", m] == cwce(preds, m)
        assert suite["cwce_em", m] == cwce_em(preds, m)


def test_kernel_cases_put_mass_edges_inside_runs():
    cases = dict(kernel_cases())
    for name in ("dup-rows", "zero-runs", "n<m-dups"):
        preds = cases[name]
        cols = np.sort(np.concatenate(
            [preds.top_confidence()[None, :], preds.scores.T]), axis=1)
        n = preds.n_samples
        tied = 0
        for m in DEFAULT_BIN_SIZES:
            cuts = (np.arange(1, m) * n) // m
            cuts = cuts[cuts > 0]
            tied += np.count_nonzero(cols[:, cuts - 1] == cols[:, cuts])
        assert tied > 0, name


def top_label_cases():
    rng = np.random.default_rng(31)
    k = 3
    # equal confidences with mixed correctness, in both input orders
    tied = np.array([[0.5, 0.3, 0.2], [0.5, 0.2, 0.3], [0.4, 0.4, 0.2],
                     [0.6, 0.2, 0.2], [0.5, 0.25, 0.25], [0.6, 0.3, 0.1]])
    yield "ties", PredictionSet(tied, [0, 1, 0, 2, 0, 0],
                                is_probabilities=True)
    yield "ties reversed", PredictionSet(tied[::-1], [0, 0, 2, 0, 1, 0],
                                         is_probabilities=True)
    few = np.eye(k)[rng.integers(0, k, 40)] * 0.4 + 0.2
    yield "all hits", PredictionSet(few, few.argmax(1), is_probabilities=True)
    yield "all misses", PredictionSet(few, (few.argmax(1) + 1) % k,
                                      is_probabilities=True)
    # a few hundred samples on 4 confidence levels, mixed correctness
    levels = rng.dirichlet(np.ones(k), size=4)[rng.integers(0, 4, 300)]
    yield "levels", PredictionSet(levels, rng.integers(0, k, 300),
                                  is_probabilities=True)
    yield "random", random_prob_preds(rng, 500, 4)


@pytest.mark.parametrize("name,preds", list(top_label_cases()))
def test_top_label_matches_lexsort_reference(name, preds):
    pred = preds.scores.argmax(axis=1)
    conf = preds.scores[np.arange(preds.n_samples), pred]
    correct = (pred == preds.labels).astype(np.float64)
    order = np.lexsort((correct, conf))
    got_conf, got_correct = _top_label(preds)
    assert got_conf.dtype == got_correct.dtype == np.float64
    assert got_conf.tobytes() == conf[order].tobytes()
    assert got_correct.tobytes() == correct[order].tobytes()


def test_binned_metrics_subsets_give_the_same_bits():
    # a bin count gives the same bits whatever other bin counts share the
    # kernel call
    rng = np.random.default_rng(13)
    preds = random_prob_preds(rng, 400, 7)
    top = _top_label(preds)
    full = _binned_metrics(preds, top, DEFAULT_BIN_SIZES)
    m = DEFAULT_BIN_SIZES[3]
    assert _binned_metrics(preds, top, (m,)) == {
        (metric, m): full[metric, m] for metric in BIN_METRICS}
    assert _binned_metrics(preds, top, ()) == {}


def test_binned_metrics_reject_out_of_range_confidences():
    # the binned metrics read probability sets only, and a probability
    # set holds no entry outside [0, 1], not even within rounding of it
    for row in ([1.0 + 1e-10, -1e-10], [1.0 + 5e-10, 0.0], [-1e-10, 1.0]):
        scores = np.array([[0.3, 0.7], row, [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"out of \[0, 1\] in row 1"):
            PredictionSet(scores, [0, 1, 0], is_probabilities=True)
