"""Tests for bin partitions and binned calibration metrics.

Every metric is checked against a deliberately naive scalar re-implementation
(plain Python loops over per-bin member lists) on seeded random inputs.
"""
import numpy as np
import pytest

from calibrex import (
    BinPartition,
    PredictionSet,
    as_probabilities,
    assign_bins,
    bin_stats,
    cwce,
    cwce_em,
    ece,
    ece_em,
    equal_mass_edges,
    mce,
    reliability_data,
)
from calibrex.binning import binned_metrics
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
# partitions and bin assignment
# ---------------------------------------------------------------------------

def test_equal_width_edges_are_exact():
    for m in (1, 2, 5, 15, 100):
        part = BinPartition.equal_width(m)
        assert part.m == m
        assert np.array_equal(part.edges, np.arange(m + 1) / m)


def test_equal_mass_edges_match_order_statistics():
    rng = np.random.default_rng(0)
    for m in (1, 2, 5, 10, 50):
        conf = rng.uniform(size=137)
        got = equal_mass_edges(conf, m)
        assert got.tolist() == edges_oracle("mass", conf, m)


def test_equal_mass_occupancy_spread_at_most_one_on_distinct_values():
    rng = np.random.default_rng(1)
    for trial in range(30):
        n = int(rng.integers(20, 400))
        m = int(rng.integers(1, 20))
        conf = rng.permutation(np.linspace(0.01, 0.99, n))
        part = BinPartition.equal_mass(conf, m)
        counts = np.bincount(assign_bins(conf, part), minlength=m)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n


def test_equal_mass_ties_share_one_bin():
    conf = np.full(50, 0.7)
    part = BinPartition.equal_mass(conf, 10)
    counts = np.bincount(assign_bins(conf, part), minlength=10)
    assert np.sum(counts > 0) == 1
    assert counts.max() == 50


def test_partition_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        BinPartition("quantile", [0.0, 1.0])
    with pytest.raises(ValueError, match="at least 2"):
        BinPartition("width", [0.5])
    with pytest.raises(ValueError, match="start at 0"):
        BinPartition("width", [0.1, 1.0])
    with pytest.raises(ValueError, match="non-decreasing"):
        BinPartition("width", [0.0, 0.6, 0.4, 1.0])
    with pytest.raises(ValueError, match="positive integer"):
        BinPartition.equal_width(0)


def test_assign_bins_half_open_rule():
    part = BinPartition.equal_width(4)
    conf = np.array([0.0, 0.1, 0.25, 0.49999, 0.5, 0.75, 0.99, 1.0])
    assert assign_bins(conf, part).tolist() == [0, 0, 1, 1, 2, 3, 3, 3]


def test_assign_bins_matches_oracle_with_duplicate_edges():
    part = BinPartition("mass", [0.0, 0.5, 0.5, 1.0])
    conf = np.array([0.0, 0.4999, 0.5, 0.7, 1.0])
    got = assign_bins(conf, part)
    want = [assign_oracle(c, [0.0, 0.5, 0.5, 1.0]) for c in conf]
    assert got.tolist() == want == [0, 0, 2, 2, 2]


def test_bin_stats_counts_and_means():
    part = BinPartition.equal_width(2)
    conf = np.array([0.2, 0.4, 0.9])
    correct = np.array([1.0, 0.0, 1.0])
    stats = bin_stats(conf, correct, part)
    assert stats.counts.tolist() == [2, 1]
    assert np.allclose(stats.mean_confidence, [0.3, 0.9])
    assert np.allclose(stats.mean_accuracy, [0.5, 1.0])


def test_bin_stats_empty_bins_are_nan():
    part = BinPartition.equal_width(4)
    stats = bin_stats(np.array([0.1]), np.array([1.0]), part)
    assert stats.counts.tolist() == [1, 0, 0, 0]
    assert np.isnan(stats.mean_confidence[1:]).all()


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
               lambda p: cwce(p, 10), lambda p: reliability_data(p, 10)):
        with pytest.raises(ValueError, match="as_probabilities"):
            fn(preds)
        fn(as_probabilities(preds))  # converted input is accepted


# ---------------------------------------------------------------------------
# reliability diagrams
# ---------------------------------------------------------------------------

def test_reliability_data_aggregates_to_metrics():
    rng = np.random.default_rng(7)
    for scheme in ("width", "mass"):
        preds = random_prob_preds(rng, 150, 4)
        diag = reliability_data(preds, 12, scheme)
        nz = diag.counts > 0
        ece_from_diag = np.sum(diag.counts[nz] * np.abs(diag.gap[nz])) / 150
        mce_from_diag = np.max(np.abs(diag.gap[nz]))
        assert ece_from_diag == pytest.approx(ece(preds, 12, scheme), abs=1e-12)
        assert mce_from_diag == pytest.approx(mce(preds, 12, scheme), abs=1e-12)
        assert diag.counts.sum() == 150
        assert diag.partition.m == 12


def test_reliability_gap_sign():
    # underconfident bin: accuracy above confidence gives a positive gap
    scores = np.array([[0.55, 0.45]] * 5)
    labels = np.zeros(5, dtype=int)
    preds = PredictionSet(scores, labels, is_probabilities=True)
    diag = reliability_data(preds, 1)
    assert diag.gap[0] == pytest.approx(1.0 - 0.55, abs=1e-12)


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


@pytest.mark.parametrize("name,preds", list(kernel_cases()))
def test_kernel_matches_loop_reference(name, preds):
    suite = binned_metrics(preds, BIN_METRICS, DEFAULT_BIN_SIZES)
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


def test_binned_metrics_subsets_give_the_same_bits():
    rng = np.random.default_rng(13)
    preds = random_prob_preds(rng, 400, 7)
    full = binned_metrics(preds, BIN_METRICS, DEFAULT_BIN_SIZES)
    for metric in BIN_METRICS:
        alone = binned_metrics(preds, (metric,), (DEFAULT_BIN_SIZES[3],))
        assert alone == {(metric, DEFAULT_BIN_SIZES[3]):
                         full[metric, DEFAULT_BIN_SIZES[3]]}
    assert binned_metrics(preds, (), DEFAULT_BIN_SIZES) == {}


def test_binned_metrics_reject_out_of_range_confidences():
    scores = np.array([[1.0 + 1e-10, -1e-10], [0.3, 0.7], [0.5, 0.5]])
    preds = PredictionSet(scores, [0, 1, 0], is_probabilities=True)
    for fn in (lambda p: ece(p, 10), lambda p: cwce(p, 10),
               lambda p: binned_metrics(p, BIN_METRICS, (10,))):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            fn(preds)
