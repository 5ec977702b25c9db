"""Tests for metric tables, rank correlation, scores, and summaries."""
import csv
import math
import threading
from collections import Counter

import numpy as np
import pytest

from calibrex import (
    BoxplotStats,
    MetricTable,
    boxplot_stats,
    correlation_matrix,
    hcs,
    kendall_tau,
    read_table_csv,
    size_brackets,
    top_k_by,
    write_matrix_csv,
    write_table_csv,
)
from calibrex import analysis


# ---------------------------------------------------------------------------
# kendall tau-b against a pair-counting oracle
# ---------------------------------------------------------------------------

def tau_b_oracle(x, y):
    n = len(x)
    conc = disc = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = (x[i] - x[j]) * (y[i] - y[j])
            if s > 0:
                conc += 1
            elif s < 0:
                disc += 1
    n0 = n * (n - 1) / 2
    n1 = sum(k * (k - 1) / 2 for k in Counter(x).values())
    n2 = sum(k * (k - 1) / 2 for k in Counter(y).values())
    return (conc - disc) / math.sqrt((n0 - n1) * (n0 - n2))


def test_kendall_tau_matches_oracle_without_ties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        x = rng.permutation(n).astype(float)
        y = rng.normal(size=n)
        assert kendall_tau(x, y) == pytest.approx(
            tau_b_oracle(x.tolist(), y.tolist()), rel=1e-12, abs=1e-14)


def test_kendall_tau_matches_oracle_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(4, 50))
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert kendall_tau(x, y) == pytest.approx(
            tau_b_oracle(x.tolist(), y.tolist()), rel=1e-12, abs=1e-14)


def test_kendall_tau_extremes_and_degenerates():
    x = np.arange(10.0)
    assert kendall_tau(x, x) == pytest.approx(1.0, abs=1e-12)
    assert kendall_tau(x, -x) == pytest.approx(-1.0, abs=1e-12)
    assert math.isnan(kendall_tau(np.ones(5), x[:5]))
    assert math.isnan(kendall_tau(x[:5], np.zeros(5)))
    assert math.isnan(kendall_tau([1.0], [2.0]))


def test_kendall_tau_validates_shapes():
    with pytest.raises(ValueError, match="equal length"):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="1-D"):
        kendall_tau(np.ones((2, 2)), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# the sort-based tau-b kernel against scipy, bit for bit
# ---------------------------------------------------------------------------

KERNEL_SIZES = [2, 3, 15, 16, 17, 1_000, 16_383, 16_384, 16_385, 20_000]


def scipy_tau_b(x, y):
    stats = pytest.importorskip("scipy.stats")
    return float(stats.kendalltau(x, y, variant="b").statistic)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_kendall_tau_equals_scipy_without_ties(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    assert kendall_tau(x, y) == scipy_tau_b(x, y)


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_kendall_tau_equals_scipy_with_ties(n):
    rng = np.random.default_rng(n + 1)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    few = max(2, n // 50)
    x_tied = np.floor(x * few / 4)
    y_tied = np.floor(y * few / 4)
    for a, b in ((x_tied, y), (x, y_tied), (x_tied, y_tied)):
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert kendall_tau(a, b) == scipy_tau_b(a, b)
    # two-valued columns: nearly every pair is tied in one of them
    a = rng.integers(0, 2, size=n).astype(float)
    b = np.where(rng.random(n) < 0.8, a, 1.0 - a)
    if not (np.all(a == a[0]) or np.all(b == b[0])):
        assert kendall_tau(a, b) == scipy_tau_b(a, b)


@pytest.mark.parametrize("n", [2, 17, 16_384, 20_000])
def test_kendall_tau_identical_reversed_and_constant(n):
    rng = np.random.default_rng(3)
    x = rng.normal(size=n)
    tied = np.round(x * 3)
    for v in (x, tied):
        if np.all(v == v[0]):
            continue
        assert kendall_tau(v, v) == scipy_tau_b(v, v)
        assert kendall_tau(v, v) == pytest.approx(1.0, abs=1e-15)
        assert kendall_tau(v, -v) == scipy_tau_b(v, -v)
        assert kendall_tau(v, -v) == pytest.approx(-1.0, abs=1e-15)
        assert kendall_tau(v, v[::-1]) == scipy_tau_b(v, v[::-1])
    assert math.isnan(kendall_tau(np.full(n, 2.5), x))
    assert math.isnan(kendall_tau(x, np.zeros(n)))


def test_kendall_tau_nan_input_gives_nan():
    x = np.array([1.0, 2.0, np.nan, 4.0])
    assert math.isnan(kendall_tau(x, np.arange(4.0)))
    assert math.isnan(kendall_tau(np.arange(4.0), x))


def test_correlation_matrix_entries_equal_pairwise_kendall_tau():
    rng = np.random.default_rng(4)
    n = 3_000
    base = rng.normal(size=n)
    cols = {"smooth": base,
            "noisy": base + rng.normal(size=n),
            "tied": np.round(base * 2),
            "coarse": np.round(base + rng.normal(size=n)),
            "binary": (base > 0.3).astype(float),
            "flat": np.ones(n),
            "anti": -base}
    t = MetricTable(np.arange(n), cols)
    names, mat = correlation_matrix(t)
    assert np.all(np.diag(mat) == 1.0)
    assert np.array_equal(mat, mat.T, equal_nan=True)
    # entry (i, j), i < j, is kendall_tau(column i, column j): x is the
    # column earlier in the name order, as in scipy's argument order
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            ref = kendall_tau(t.column(a), t.column(b))
            got = mat[i, names.index(b)]
            assert (math.isnan(got) and math.isnan(ref)) or got == ref, (a, b)


# ---------------------------------------------------------------------------
# the rows of the tau-b matrix on a thread pool
# ---------------------------------------------------------------------------

def mixed_columns():
    """Tied, tie-free, binary, constant and NaN columns, a tied one first
    (by name) so that the tied branch runs inside a worker.  At 16,000
    rows a batch holds 10 to 32 columns by worker count, so each worker
    counts several batches."""
    rng = np.random.default_rng(8)
    n = 16_000
    base = rng.normal(size=n)
    cols = {}
    for j in range(4):
        noisy = base + rng.normal(size=n) * (j + 1)
        cols[f"a{j}_tied"] = np.round(noisy * 3)
        cols[f"b{j}_free"] = noisy
        cols[f"c{j}_binary"] = (noisy > 0.2 * j).astype(float)
    cols["d_flat"] = np.full(n, 0.5)
    cols["e_nan"] = np.where(np.arange(n) == 7, np.nan, base)
    return cols


def mixed_table():
    """The finite columns of ``mixed_columns``: a table holds no NaN."""
    cols = mixed_columns()
    del cols["e_nan"]
    return MetricTable(np.arange(16_000), cols)


def test_correlation_matrix_bits_do_not_depend_on_the_thread_count(
        monkeypatch):
    # the NaN column reaches _tau_b on plain arrays, as through
    # kendall_tau; the table's matrix is the finite columns' block of it
    cols = mixed_columns()
    names = sorted(cols)
    table = mixed_table()
    discordant = analysis._discordant
    counted_on = set()

    def spy(seq, pad):
        counted_on.add(threading.current_thread())
        return discordant(seq, pad)

    monkeypatch.setattr(analysis, "_discordant", spy)
    mats = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: workers)
        counted_on.clear()
        mats[workers] = analysis._tau_b([cols[c] for c in names], 16_000)
        main_only = counted_on == {threading.main_thread()}
        assert main_only == (workers == 1)
    assert names[0] == "a0_tied"
    assert mats[1].tobytes() == mats[2].tobytes() == mats[3].tobytes()
    degenerate = [names.index("d_flat"), names.index("e_nan")]
    off = ~np.eye(len(names), dtype=bool)
    assert np.isnan(mats[1][degenerate][off[degenerate]]).all()
    rest = np.delete(np.delete(mats[1], degenerate, 0), degenerate, 1)
    assert np.isfinite(rest).all()
    finite = [names.index(c) for c in sorted(table.columns)]
    for workers in (1, 2):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: workers)
        got_names, got = correlation_matrix(table)
        assert got_names == [names[i] for i in finite]
        assert got.tobytes() == mats[1][np.ix_(finite, finite)].tobytes()


def discordant_einsum(seq, pad):
    """The merge count as it was written with an einsum over the right
    half's positions: the reference for ``analysis._discordant``."""
    m, n = seq.shape
    size = max(analysis._BLOCK, 1 << (n - 1).bit_length())
    keys = np.full((m, size), pad, dtype=analysis._key_dtype(pad))
    keys[:, :n] = seq
    dis = np.zeros(m, dtype=np.int64)
    for a in range(analysis._BLOCK):
        for b in range(a + 1, analysis._BLOCK):
            blocks = keys.reshape(m, -1, analysis._BLOCK)
            dis += (blocks[..., a] > blocks[..., b]).sum(axis=1)
    keys <<= 1
    w = analysis._BLOCK
    while w < size:
        blocks = keys.reshape(m, -1, 2 * w)
        blocks[..., :w] &= ~1
        blocks[..., w:] |= 1
        blocks.sort(axis=-1)
        right = np.einsum("ijk,k->i", blocks & 1,
                          np.arange(2 * w, dtype=keys.dtype), dtype=np.int64)
        dis += blocks.shape[1] * (w * w + w * (w - 1) // 2) - right
        w *= 2
    return dis


@pytest.mark.parametrize("n, dtype", [(5_000, np.int16),
                                      (17_000, np.int32)])
def test_discordant_matches_the_einsum_count(monkeypatch, n, dtype):
    assert analysis._key_dtype(n) == dtype
    rng = np.random.default_rng(n)
    seq = np.stack([rng.permutation(n), rng.integers(0, n, n),
                    np.arange(n)[::-1] // 3]).astype(dtype)
    want = discordant_einsum(seq, n)
    assert analysis._discordant(seq, n).tolist() == want.tolist()
    # and the matrix keeps its bits on one and on two threads
    table = MetricTable(np.arange(n), {str(i): seq[i].astype(float)
                                       for i in range(3)})
    mats = []
    for workers in (1, 2):
        monkeypatch.setattr(analysis, "_cpu_count", lambda: workers)
        mats.append(correlation_matrix(table)[1].tobytes())
    assert mats[0] == mats[1]


def test_an_error_in_a_worker_propagates(monkeypatch):
    def fail(seq, pad):
        raise RuntimeError("count failed")

    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "_discordant", fail)
    with pytest.raises(RuntimeError, match="count failed"):
        correlation_matrix(mixed_table())


def test_kendall_tau_starts_no_thread(monkeypatch):
    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(analysis, "_cpu_count", lambda: 8)
    monkeypatch.setattr(threading.Thread, "start", start)
    assert kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == \
        pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def small_table():
    return MetricTable(np.array([4, 1, 9, 2]),
                       {"acc": np.array([0.9, 0.8, 0.9, 0.7]),
                        "err": np.array([0.1, 0.2, 0.1, 0.3])})


def test_metric_table_rejects_a_repeated_arch_index():
    with pytest.raises(ValueError,
                       match="^arch_index 9 has more than one row$"):
        MetricTable(np.array([4, 9, 1, 9]), {"acc": np.arange(4.0)})
    assert MetricTable(np.array([], dtype=np.int64)).n_rows == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metric_table_rejects_a_cell_that_is_not_finite(bad):
    # a NaN cell once gave correlation_matrix NaN off the diagonal and
    # passed top_k_by, with no error
    with pytest.raises(ValueError, match="^column 'a' is not finite at "
                       "arch_index 9$"):
        MetricTable([4, 9, 1, 2], {"b": [1.0, 2.0, 3.0, 4.0],
                                   "a": [1.0, bad, 2.0, 3.0]})


def test_metric_table_validation_and_lookup():
    t = small_table()
    assert t.n_rows == 4
    assert t.column("acc").tolist() == [0.9, 0.8, 0.9, 0.7]
    with pytest.raises(KeyError, match="no column 'loss'"):
        t.column("loss")
    with pytest.raises(ValueError, match="shape"):
        MetricTable(np.array([1, 2]), {"x": np.array([1.0])})


def test_correlation_matrix_properties():
    rng = np.random.default_rng(2)
    t = MetricTable(np.arange(30),
                    {"a": rng.normal(size=30), "b": rng.normal(size=30),
                     "c": rng.integers(0, 3, size=30).astype(float)})
    names, mat = correlation_matrix(t)
    assert names == ["a", "b", "c"]
    assert mat.shape == (3, 3)
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 1.0)
    i, j = names.index("a"), names.index("b")
    assert mat[i, j] == pytest.approx(kendall_tau(t.column("a"),
                                                  t.column("b")), rel=1e-12)


def test_correlation_matrix_column_subset_and_nan():
    t = MetricTable(np.arange(5),
                    {"a": np.arange(5.0), "flat": np.ones(5)})
    names, mat = correlation_matrix(t, ["flat", "a"])
    assert names == ["flat", "a"]
    assert math.isnan(mat[0, 1]) and math.isnan(mat[1, 0])
    assert mat[0, 0] == mat[1, 1] == 1.0


def test_correlation_matrix_rejects_a_repeated_column():
    # once a 2x2 matrix with a repeated name and 0.9999999999999999 off
    # the diagonal
    t = MetricTable(np.arange(5), {"a": np.arange(5.0), "b": np.ones(5)})
    with pytest.raises(ValueError, match="^column 'a' is repeated$"):
        correlation_matrix(t, ["a", "b", "a"])


def test_top_k_by_orders_and_breaks_ties_by_arch():
    t = small_table()
    best = top_k_by(t, "acc", 2)
    # 0.9 appears for archs 4 and 9; smaller arch index wins the tie
    assert best.arch_index.tolist() == [4, 9]
    assert top_k_by(t, "acc", 4).n_rows == 4
    # k beyond the table was clamped; 1.5 failed inside numpy's slicing
    for k in (5, 99):
        with pytest.raises(ValueError, match=f"^k {k} exceeds table size "
                           "4$"):
            top_k_by(t, "acc", k)
    for k in (0, 1.5, 2.0, True, None):
        with pytest.raises(ValueError, match="^k must be a positive "
                           f"integer, got {k}$"):
            top_k_by(t, "acc", k)


# ---------------------------------------------------------------------------
# harmonic calibration score
# ---------------------------------------------------------------------------

TABLE_ROWS = [  # (accuracy %, ece %) -> expected hcs % at beta 1, 2, 3
    ((93.91, 4.20), (94.84, 95.16, 95.32)),
    ((94.01, 4.25), (94.87, 95.16, 95.31)),
    ((93.52, 4.15), (94.67, 95.06, 95.26)),
    ((93.94, 4.17), (94.88, 95.19, 95.35)),
]


def test_hcs_reproduces_reference_rows():
    for (acc_pct, ece_pct), expected in TABLE_ROWS:
        for beta, want in zip((1.0, 2.0, 3.0), expected):
            got = 100.0 * hcs(acc_pct / 100.0, ece_pct / 100.0, beta)
            assert got == pytest.approx(want, abs=0.01)


def test_hcs_closed_form():
    acc, e, beta = 0.8, 0.1, 2.0
    want = (1 + beta) * acc * 0.9 / (beta * acc + 0.9)
    assert hcs(acc, e, beta) == pytest.approx(want, rel=1e-15)


def test_hcs_between_its_ingredients():
    rng = np.random.default_rng(3)
    for _ in range(200):
        acc = float(rng.uniform(0.01, 1.0))
        e = float(rng.uniform(0.0, 0.99))
        beta = float(rng.uniform(0.1, 10.0))
        q = 1.0 - e
        v = hcs(acc, e, beta)
        assert min(acc, q) - 1e-12 <= v <= max(acc, q) + 1e-12
        assert v <= 1.0 + 1e-12


def test_hcs_beta_weights_toward_calibration_term():
    acc, e = 0.7, 0.05  # accuracy well below 1 - ece
    q = 1.0 - e
    # beta -> 0 recovers accuracy, beta -> inf recovers 1 - ece
    assert abs(hcs(acc, e, 1e-6) - acc) < 1e-5
    assert abs(hcs(acc, e, 1e6) - q) < 1e-5
    assert abs(hcs(acc, e, 10.0) - q) < abs(hcs(acc, e, 1.0) - q)


def test_hcs_vectorized():
    acc = np.array([0.9, 0.5])
    e = np.array([0.1, 0.2])
    got = hcs(acc, e)
    assert got.shape == (2,)
    assert got[0] == pytest.approx(hcs(0.9, 0.1), rel=1e-15)


def test_hcs_degenerate_and_validation():
    assert hcs(0.0, 1.0) == 0.0  # zero/zero blend defines to zero
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hcs(1.2, 0.1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hcs(0.9, -0.1)
    with pytest.raises(ValueError, match="beta"):
        hcs(0.9, 0.1, beta=0.0)


@pytest.mark.parametrize("acc, e", [
    (math.nan, 0.1), (0.9, math.nan),
    (np.array([0.9, math.nan]), np.array([0.1, 0.2]))])
def test_hcs_rejects_nan(acc, e):
    # a NaN once failed none of the range tests and scored 0.0
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        hcs(acc, e)


@pytest.mark.parametrize("beta", [math.inf, math.nan, -math.inf])
def test_hcs_rejects_a_beta_that_is_not_finite(beta):
    # an infinite beta once gave NaN for every score
    with pytest.raises(ValueError, match="beta must be a finite number > 0"):
        hcs(np.array([0.9, 0.5]), np.array([0.1, 0.2]), beta)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_boxplot_stats_hand_example():
    s = boxplot_stats(np.arange(1.0, 10.0))
    assert s == BoxplotStats(9, 5.0, 3.0, 7.0, 1.0, 9.0, 0)


def test_boxplot_stats_flags_outliers():
    s = boxplot_stats([1.0, 2.0, 3.0, 4.0, 100.0])
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    assert (s.whisker_lo, s.whisker_hi) == (1.0, 4.0)
    assert s.n_outliers == 1
    assert s.n == 5


def test_boxplot_stats_validation():
    with pytest.raises(ValueError, match="non-empty"):
        boxplot_stats([])
    with pytest.raises(ValueError, match="1-D"):
        boxplot_stats(np.ones((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boxplot_stats_rejects_values_that_are_not_finite(bad):
    # a NaN once surfaced as numpy's zero-size reduction error
    with pytest.raises(ValueError, match="^values must be finite$"):
        boxplot_stats([1.0, bad, 2.0])


def test_size_brackets():
    got = size_brackets([8, 16, 31, 32, 40, 300], [16.0, 32.0])
    assert got.tolist() == [0, 1, 1, 2, 2, 2]
    with pytest.raises(ValueError, match="strictly increasing"):
        size_brackets([1], [32.0, 16.0])
    with pytest.raises(ValueError, match="non-empty"):
        size_brackets([1], [])


@pytest.mark.parametrize("edges", [[120.0, math.nan], [math.nan, 120.0],
                                   [120.0, math.inf]])
def test_size_brackets_reject_edges_that_are_not_finite(edges):
    # a NaN edge compares false either way, so it once passed the order
    # check and put sizes into a bracket labelled [120,nan)
    with pytest.raises(ValueError, match="finite"):
        size_brackets([100, 200, 300], edges)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_size_brackets_reject_sizes_that_are_not_finite(bad):
    # a NaN size once landed in the top bracket
    with pytest.raises(ValueError, match="^sizes must be finite$"):
        size_brackets([bad, 5.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_write_table_csv_round_trips(tmp_path):
    t = small_table()
    path = tmp_path / "table.csv"
    write_table_csv(t, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arch_index", "acc", "err"]
    assert len(rows) == 5
    got_arch = [int(r[0]) for r in rows[1:]]
    got_acc = [float(r[1]) for r in rows[1:]]
    assert got_arch == t.arch_index.tolist()
    assert got_acc == t.column("acc").tolist()


def test_read_table_csv_reads_back_what_write_table_csv_wrote(tmp_path):
    rng = np.random.default_rng(5)
    t = MetricTable(np.array([7, 0, 3, 12, 5]),
                    {"b": rng.normal(size=5) * 1e-300,
                     "a": np.array([0.1, 1 / 3, -0.0, 5e-324, 1e308])})
    path = tmp_path / "table.csv"
    write_table_csv(t, path)
    back = read_table_csv(path)
    assert back.arch_index.tobytes() == t.arch_index.tobytes()
    assert list(back.columns) == ["a", "b"]
    for name, column in t.columns.items():
        assert back.column(name).tobytes() == column.tobytes()


def test_write_matrix_csv(tmp_path):
    names = ["a", "b"]
    mat = np.array([[1.0, 0.25], [0.25, 1.0]])
    path = tmp_path / "mat.csv"
    write_matrix_csv(names, mat, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "a", "b"]
    assert rows[1] == ["a", "1.0", "0.25"]
    assert [float(x) for x in rows[2][1:]] == [0.25, 1.0]
