"""Tests for prediction containers, softmax, splits, and score-file IO."""
import errno
import re
import struct
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from calibrex import (
    LogitsFileError,
    PredictionSet,
    SplitSpec,
    as_probabilities,
    read_csv_predictions,
    read_logits_file,
    apply_temperature,
    fit_temperature,
    softmax,
    split,
    write_csv_predictions,
    write_logits_file,
)
from calibrex import predictions
from calibrex.predictions import FORMAT_VERSION, MAGIC, _HEADER


def random_preds(rng, n, k, probabilities=False):
    scores = rng.normal(size=(n, k))
    if probabilities:
        scores = np.exp(scores)
        scores /= scores.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, size=n)
    return PredictionSet(scores, labels, is_probabilities=probabilities)


# ---------------------------------------------------------------------------
# PredictionSet construction and validation
# ---------------------------------------------------------------------------

def test_basic_properties():
    p = PredictionSet([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]], [1, 0, 0])
    assert p.n_samples == 3
    assert p.n_classes == 2
    assert not p.is_probabilities
    assert p.scores.dtype == np.float64
    assert p.labels.dtype == np.int64


def test_arrays_are_read_only_and_copied():
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    p = PredictionSet(src, [0, 1])
    with pytest.raises(ValueError):
        p.scores[0, 0] = 5.0
    src[0, 0] = 99.0  # mutating the input must not leak into the set
    assert p.scores[0, 0] == 0.0


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="2-D"):
        PredictionSet(np.zeros(4), [0])
    with pytest.raises(ValueError, match="at least one sample"):
        PredictionSet(np.zeros((0, 3)), [])
    with pytest.raises(ValueError, match="at least two classes"):
        PredictionSet(np.zeros((3, 1)), [0, 0, 0])
    with pytest.raises(ValueError, match="labels shape"):
        PredictionSet(np.zeros((3, 2)), [0, 1])


def test_validation_rejects_bad_values():
    with pytest.raises(ValueError, match="non-finite score in row 1"):
        PredictionSet([[0.0, 1.0], [np.nan, 0.0]], [0, 0])
    with pytest.raises(ValueError, match=r"label 2 out of range \[0, 2\) in row 0"):
        PredictionSet([[0.0, 1.0]], [2])
    with pytest.raises(ValueError, match="label -1"):
        PredictionSet([[0.0, 1.0], [0.0, 1.0]], [0, -1])
    # each was once cast to int64: 1.7 became 1, True 1, nan a huge
    # negative number with a RuntimeWarning
    # numpy reads [0, True, 1] as three int64s, so it once loaded [0, 1, 1]
    for labels, shown, row in (([0.5, 1.7, 1.0], "0.5", 0),
                               ([0.0, 1.7, 1.0], "1.7", 1),
                               ([True, False, True], "True", 0),
                               ([0, True, 1], "True", 1),
                               ([0.0, np.nan, 1.0], "nan", 1)):
        with pytest.raises(ValueError, match=f"^label {re.escape(shown)} is "
                           f"not an integer in row {row}$"):
            PredictionSet(np.zeros((3, 2)), labels)
    # a whole float past int64 once reached the cast, which warned
    for labels, shown in (([0.0, 1e20, 1.0], "1e+20"),
                          ([0.0, -1e20, 1.0], "-1e+20"),
                          ([0, 10**20, 1], str(10**20))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^label {re.escape(shown)} "
                               "is outside the int64 range in row 1$"):
                PredictionSet(np.zeros((3, 2)), labels)
    for labels in ([0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.uint8)):
        p = PredictionSet(np.zeros((3, 2)), labels)
        assert p.labels.dtype == np.int64
        assert p.labels.tolist() == [0, 1, 1]


def test_probability_flag_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PredictionSet([[1.5, -0.5]], [0], is_probabilities=True)
    with pytest.raises(ValueError, match="sums to"):
        PredictionSet([[0.6, 0.6]], [0], is_probabilities=True)
    # within the 1e-6 tolerance is fine
    PredictionSet([[0.6 + 4e-7, 0.4]], [0], is_probabilities=True)


def test_probability_entries_lie_in_unit_interval_exactly(tmp_path):
    # entries within rounding of [0, 1] were once accepted, then failed
    # inside the binned metrics (or passed kdece); the boundary rejects them
    ok = [0.25, 0.75]
    above = float(np.nextafter(np.float32(1.0), np.float32(2.0)))
    for bad in ([-1e-10, 1.0 + 1e-10], [1.0 + 5e-10, 0.0], [above, 0.0]):
        with pytest.raises(ValueError, match=r"out of \[0, 1\] in row 1"):
            PredictionSet([ok, bad, ok], [0, 1, 0], is_probabilities=True)
    # the same through a flag-1 binary file, with values float32 keeps
    # outside [0, 1]
    for bad in ([-1e-10, 1.0], [above, 0.0]):
        path = tmp_path / "near.bin"
        path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 1, 3, 2)
                         + b"".join(struct.pack("<ffi", *row, 0)
                                    for row in (ok, bad, ok)))
        with pytest.raises(LogitsFileError,
                           match=r"near.bin: probability entry out of "
                                 r"\[0, 1\] in row 1"):
            read_logits_file(path)


def test_transforms_give_read_only_sets_that_share_no_memory():
    rng = np.random.default_rng(4)
    scores, labels = rng.normal(size=(40, 5)), rng.integers(0, 5, 40)
    preds = PredictionSet(scores, labels)
    probs = as_probabilities(preds)
    val, test = split(preds, SplitSpec(0.25, seed=1))
    fit = fit_temperature(val)
    # (output, the set it came from)
    pairs = [(probs, preds), (val, preds), (test, preds),
             (apply_temperature(test, fit), test),
             (apply_temperature(probs, 2.0), probs),
             *((part, probs) for part in split(probs, SplitSpec(0.5)))]
    for out, source in pairs:
        for arr in (out.scores, out.labels):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            assert not any(np.shares_memory(arr, a) for a in (
                scores, labels, source.scores, source.labels))
        assert out.scores.dtype == np.float64
        assert out.labels.dtype == np.int64
        assert out.scores.flags.c_contiguous
        # valid by construction: the public constructor agrees
        again = PredictionSet(out.scores, out.labels, out.is_probabilities)
        assert np.array_equal(again.scores, out.scores)
    scores[0, 0] = labels[0] = 99  # the caller's arrays stay theirs
    assert all(out.scores.max() < 99 and out.labels.max() < 5
               for out, _ in pairs)


def test_predicted_class_tie_breaks_to_smallest_index():
    p = PredictionSet([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]], [0, 1])
    assert p.predicted_class().tolist() == [0, 1]


def test_predicted_class_does_not_copy_the_frozen_scores():
    """np.argmax copies a read-only array whole (1.008 of the scores as
    tracemalloc counts it at 8,000 x 120); the argmax stays under 0.2."""
    rng = np.random.default_rng(8)
    # small integers: most rows tie on their max, in blocks of every size
    p = PredictionSet(rng.integers(0, 4, size=(8_000, 120)).astype(float),
                      rng.integers(0, 120, size=8_000))
    assert not p.scores.flags.writeable
    tracemalloc.start()
    try:
        pred = p.predicted_class()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * p.scores.nbytes
    first = np.array([row.tolist().index(row.max()) for row in p.scores])
    assert np.array_equal(pred, first)


def test_correctness_and_accuracy():
    p = PredictionSet([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [0.0, 2.0]],
                      [0, 1, 1, 1])
    assert p.correctness().tolist() == [1.0, 1.0, 0.0, 1.0]
    assert p.accuracy() == 0.75


# ---------------------------------------------------------------------------
# softmax against a high-precision oracle
# ---------------------------------------------------------------------------

def softmax_oracle(scores):
    """Row-wise softmax computed with 50-digit mpmath arithmetic."""
    with mpmath.workdps(50):
        out = np.empty_like(np.asarray(scores, dtype=np.float64))
        for i, row in enumerate(scores):
            exps = [mpmath.e ** mpmath.mpf(float(v)) for v in row]
            total = mpmath.fsum(exps)
            out[i] = [float(v / total) for v in exps]
    return out


def test_softmax_matches_mpmath_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z = rng.normal(scale=3.0, size=(5, 4))
        got = softmax(z)
        want = softmax_oracle(z)
        assert np.max(np.abs(got - want)) < 1e-14
        assert np.allclose(got.sum(axis=1), 1.0, atol=1e-15)


def test_softmax_known_value():
    got = softmax(np.array([[0.0, np.log(2.0)]]))
    assert np.allclose(got, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)


def test_softmax_is_shift_stable():
    z = np.array([[1000.0, 1001.0, 999.0]])
    got = softmax(z)
    want = softmax(z - 1000.0)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) < 1e-15


def test_softmax_rejects_bad_input():
    # the score-matrix rule and messages of PredictionSet
    with pytest.raises(ValueError, match=r"^scores must be 2-D, got shape "
                       r"\(3,\)$"):
        softmax(np.zeros(3))
    with pytest.raises(ValueError, match="^non-finite score in row 1$"):
        softmax(np.array([[0.0, 1.0], [0.0, np.inf]]))


def test_probabilities_passthrough_and_as_probabilities():
    rng = np.random.default_rng(0)
    p = random_preds(rng, 10, 3, probabilities=True)
    assert as_probabilities(p) is p

    q = random_preds(rng, 10, 3)
    qp = as_probabilities(q)
    assert qp.is_probabilities
    assert np.array_equal(qp.labels, q.labels)
    assert np.max(np.abs(qp.scores - softmax(q.scores))) == 0.0
    assert as_probabilities(qp) is qp
    # argmax (hence accuracy) is preserved by softmax
    assert np.array_equal(qp.predicted_class(), q.predicted_class())


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_spec_validates_fraction():
    # "0.5" once raised a TypeError; 10**400 is too large for a float
    for bad in (0.0, 1.0, -0.2, 1.5, np.nan, "0.5", None, True, 10**400):
        with pytest.raises(ValueError, match="fraction"):
            SplitSpec(fraction=bad)


def test_split_spec_validates_seed():
    # None once drew OS entropy, True read as 1, and 1.5, "3" and -1
    # failed only at split, with numpy's message
    for bad in (None, True, 1.5, "3", -1):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"seed must be an integer >= 0, got {bad!r}") + "$"):
            SplitSpec(seed=bad)
    assert SplitSpec(seed=np.int64(3)) == SplitSpec(seed=3)


def test_split_requires_five_samples():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="at least 5"):
        split(random_preds(rng, 4, 2), SplitSpec())


def test_split_sizes_and_partition():
    rng = np.random.default_rng(2)
    for n, frac, want_val in [(10, 0.2, 2), (10, 0.01, 1), (10, 0.99, 9),
                              (7, 0.5, 4), (100, 0.2, 20)]:
        p = random_preds(rng, n, 3)
        val, test = split(p, SplitSpec(fraction=frac, seed=3))
        assert val.n_samples == want_val
        assert test.n_samples == n - want_val
        # the two parts recover the original multiset of rows
        combined = np.concatenate([val.scores, test.scores])
        assert np.array_equal(np.sort(combined, axis=0), np.sort(p.scores, axis=0))


def test_split_is_deterministic_in_seed():
    rng = np.random.default_rng(3)
    p = random_preds(rng, 50, 4)
    v1, t1 = split(p, SplitSpec(fraction=0.3, seed=11))
    v2, t2 = split(p, SplitSpec(fraction=0.3, seed=11))
    assert np.array_equal(v1.scores, v2.scores)
    assert np.array_equal(t1.labels, t2.labels)
    v3, _ = split(p, SplitSpec(fraction=0.3, seed=12))
    assert not np.array_equal(v1.scores, v3.scores)


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def test_binary_round_trip_logits(tmp_path):
    rng = np.random.default_rng(8)
    p = random_preds(rng, 37, 5)
    path = tmp_path / "a.bin"
    write_logits_file(path, p)
    q = read_logits_file(path)
    assert not q.is_probabilities
    assert np.array_equal(q.labels, p.labels)
    # float32 storage: lossless for the float32 image of the scores
    assert np.array_equal(q.scores, p.scores.astype(np.float32).astype(np.float64))


def test_binary_round_trip_probabilities(tmp_path):
    # pick float32-exact probabilities so the round trip is bit-lossless
    scores = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    p = PredictionSet(scores, [1, 0, 0], is_probabilities=True)
    path = tmp_path / "b.bin"
    write_logits_file(path, p)
    q = read_logits_file(path)
    assert q.is_probabilities
    assert np.array_equal(q.scores, scores)
    assert np.array_equal(q.labels, p.labels)


def test_binary_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    p = random_preds(rng, 11, 3)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    write_logits_file(a, p)
    write_logits_file(b, p)
    assert a.read_bytes() == b.read_bytes()


def test_binary_header_layout(tmp_path):
    p = PredictionSet([[1.0, 2.0, 3.0]], [2])
    path = tmp_path / "c.bin"
    write_logits_file(path, p)
    raw = path.read_bytes()
    magic, version, flag, n, k = _HEADER.unpack(raw[:_HEADER.size])
    assert magic == MAGIC == b"CLBX"
    assert version == FORMAT_VERSION == 1
    assert flag == 0
    assert (n, k) == (1, 3)
    assert len(raw) == _HEADER.size + 1 * (4 * 3 + 4)


def _write_valid(tmp_path, name="v.bin"):
    p = PredictionSet([[0.1, 0.9], [0.8, 0.2]], [1, 0], is_probabilities=True)
    path = tmp_path / name
    write_logits_file(path, p)
    return path


def test_binary_write_that_fails_keeps_the_old_file(tmp_path,
                                                    monkeypatch):
    # the file was once opened for writing first, so a failed write left
    # the old file empty
    path = _write_valid(tmp_path)
    old = path.read_bytes()

    class NoSpace:
        def pack(self, *values):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(predictions, "_HEADER", NoSpace())
    with pytest.raises(OSError, match="No space left"):
        write_logits_file(path, random_preds(np.random.default_rng(3), 4, 3))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"CLBX\x01")
    with pytest.raises(LogitsFileError, match="truncated header"):
        read_logits_file(path)


def test_binary_bad_magic(tmp_path):
    path = _write_valid(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(LogitsFileError, match="bad magic"):
        read_logits_file(path)


def test_binary_unsupported_version(tmp_path):
    path = _write_valid(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(LogitsFileError, match="unsupported version 99"):
        read_logits_file(path)


def test_binary_bad_flag(tmp_path):
    path = _write_valid(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[6] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(LogitsFileError, match="bad flag byte 7"):
        read_logits_file(path)


def test_binary_truncated_body(tmp_path):
    path = _write_valid(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(LogitsFileError, match="truncated body"):
        read_logits_file(path)


def test_binary_label_out_of_range(tmp_path):
    path = tmp_path / "l.bin"
    body = struct.pack("<ffi", 0.5, 0.5, 9)
    path.write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 1, 1, 2) + body)
    with pytest.raises(LogitsFileError, match=re.escape(
            f"{path}: label 9 out of range [0, 2) in row 0")):
        read_logits_file(path)


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(10)
    p = random_preds(rng, 23, 4)
    path = tmp_path / "a.csv"
    write_csv_predictions(path, p)
    q = read_csv_predictions(path)
    # repr() round trips float64 exactly
    assert np.array_equal(q.scores, p.scores)
    assert np.array_equal(q.labels, p.labels)
    assert not q.is_probabilities


def test_csv_auto_detects_probabilities(tmp_path):
    rng = np.random.default_rng(11)
    p = random_preds(rng, 15, 3, probabilities=True)
    path = tmp_path / "p.csv"
    write_csv_predictions(path, p)
    assert read_csv_predictions(path).is_probabilities
    # one row off the simplex by more than 1e-6 makes the file logits
    path.write_text("label,s0,s1\n0,0.5,0.5\n1,0.5,0.500002\n")
    assert read_csv_predictions(path).is_probabilities is False
    path.write_text("label,s0,s1\n0,0.5,0.5\n1,0.5,0.5000005\n")
    assert read_csv_predictions(path).is_probabilities


def test_csv_header_errors(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("")
    with pytest.raises(LogitsFileError, match="empty file"):
        read_csv_predictions(path)
    path.write_text("s0,s1\n0.1,0.9\n")
    with pytest.raises(LogitsFileError, match="line 1: bad header"):
        read_csv_predictions(path)
    path.write_text("label,s0\n0,1.0\n")
    with pytest.raises(LogitsFileError, match="bad header"):
        read_csv_predictions(path)


def test_csv_row_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("label,s0,s1\n0,0.1,0.9\n1,0.4\n")
    with pytest.raises(LogitsFileError, match=re.escape(
            f"{path}: line 3: the dtype passed requires 3 columns but 2 "
            "were found")):
        read_csv_predictions(path)
    path.write_text("label,s0,s1\n0,0.1,0.9\n1,abc,0.2\n")
    with pytest.raises(LogitsFileError, match=re.escape(
            f"{path}: line 3: could not convert string 'abc' to float64")):
        read_csv_predictions(path)
    path.write_text("label,s0,s1\n")
    with pytest.raises(LogitsFileError, match="no data rows"):
        read_csv_predictions(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("label,s0,s1\n0,0.1,0.9\n\n1,0.7,0.3\n")
    q = read_csv_predictions(path)
    assert q.n_samples == 2


def test_csv_bad_label_reported_with_path(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("label,s0,s1\n5,0.1,0.9\n")
    with pytest.raises(LogitsFileError, match="out of range"):
        read_csv_predictions(path)


def test_csv_reads_every_spelling_the_cell_rules_take(tmp_path):
    # the cell rules are numpy's number syntax
    path = tmp_path / "s.csv"
    path.write_text("label,s0,s1,s2\n"
                    "0,1e-3, 0.5 ,+0.25\n"
                    "2,-0,.5,5.\n"
                    "1,\t-1.25E+2,0.1,0.2\r\n"
                    "1,0.30000000000000004,1e-320,-2\n")
    got = read_csv_predictions(path)
    want = np.array([[1e-3, 0.5, 0.25], [-0.0, 0.5, 5.0],
                     [-125.0, 0.1, 0.2], [0.30000000000000004, 1e-320, -2.0]])
    assert np.array_equal(got.labels, [0, 2, 1, 1])
    assert got.scores.tobytes() == want.tobytes()
    assert np.signbit(got.scores[1, 0])
    # Python-only spellings are rejected, naming the line and the cell
    for row, cell in (("0_1,0.25,0.75", "'0_1' to int64"),
                      ("1,0.2_5,0.75", "'0.2_5' to float64"),
                      ('1,"0.75",0.25', """'"0.75"' to float64"""),
                      ("\u0660,0.5,0.5", "'\u0660' to int64")):
        path.write_text(f"label,s0,s1\n0,0.5,0.5\n\n{row}\n")
        with pytest.raises(LogitsFileError, match=re.escape(
                f"{path}: line 4: could not convert string {cell}")):
            read_csv_predictions(path)


def test_csv_cells_numpy_strips_are_read(tmp_path):
    # numpy strips \x1c-\x1f and Unicode spaces such as NBSP around a
    # number, and splits lines only at \r and \n
    path = tmp_path / "c.csv"
    for ch in "\x1c\x1d\x1e\x1f\x0b\x0c\xa0\x85\u2028":
        path.write_text(f"label,s0,s1\n0,0.5,0.5\n1,0.5{ch},{ch}0.5\n",
                        newline="")
        got = read_csv_predictions(path)
        assert np.array_equal(got.labels, [0, 1])
        assert np.array_equal(got.scores, np.full((2, 2), 0.5))
    # a whitespace-only line is a one-cell row, not a blank one
    path.write_text("label,s0,s1\n0,0.5,0.5\n \n")
    with pytest.raises(LogitsFileError, match=re.escape(
            "line 3: the dtype passed requires 3 columns but 1 were found")):
        read_csv_predictions(path)
