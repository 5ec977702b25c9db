"""Prediction containers, score transforms, splits, and score-file IO.

The central type is :class:`PredictionSet`, an immutable bundle of a score
matrix (logits or probabilities) and integer labels.  Two on-disk formats are
supported: a small binary format (magic ``CLBX``) storing float32 scores with
int32 labels, and a CSV format with header ``label,s0,...,s{K-1}``.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import re
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CLBX"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHBII")  # magic, version, flag, N, K


class LogitsFileError(ValueError):
    """Raised for malformed binary or CSV score files."""


# the argument rules every module shares: a bool is not a number here
def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_finite_real(x) -> bool:
    if isinstance(x, bool) or \
            not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer too large for a float
        return False


def _check_positive(name: str, x) -> None:
    if not (_is_finite_real(x) and x > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {x!r}")


def _check_count(name: str, x) -> None:
    if not _is_int(x) or x < 1:
        raise ValueError(f"{name} must be a positive integer, got {x!r}")


def _check_seed(x) -> None:
    if not _is_int(x) or x < 0:
        raise ValueError(f"seed must be an integer >= 0, got {x!r}")


def _check_index(name: str, x) -> None:
    # the range of every reader's int64 columns; a plain int skips _is_int
    if not (type(x) is int or _is_int(x)) or not 0 <= x < 2**63:
        raise ValueError(f"{name} must be an integer >= 0 and < 2**63, "
                         f"got {x!r}")


@contextlib.contextmanager
def atomic_output(path):
    """Yield a text file (``newline=""``) that replaces ``path`` on success.

    It is a new ``.tmp`` file beside ``path``, made with mode 0o666 less
    the umask, as ``open(path, "w")`` would be, and removed on an error.
    A path that is there but not a regular file (a FIFO, a device, a
    symlink) is written in place, as ``open(path, "w")`` writes it."""
    in_place = False  # a new path: the temp file's errors name it
    with contextlib.suppress(OSError):
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    if in_place:
        with open(path, "w", newline="") as fh:
            yield fh
        return
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the output, not the temp file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "w", newline="") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # name the output here too
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class PredictionSet:
    """Immutable matrix of per-sample class scores plus integer labels.

    Parameters
    ----------
    scores : ndarray of shape (n_samples, n_classes)
        Raw logits or probabilities, float64 internally.
    labels : ndarray of shape (n_samples,)
        Integer class labels in ``[0, n_classes)``.
    is_probabilities : bool
        True when every row of ``scores`` is a probability vector.
    """

    scores: np.ndarray
    labels: np.ndarray
    is_probabilities: bool = False

    def __post_init__(self):
        # C order whatever the input's layout: the kernels index rows of
        # the flattened scores
        scores = np.array(self.scores, dtype=np.float64, copy=True,
                          order="C")
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        _check(scores, labels, self.is_probabilities)
        _freeze(self, scores, labels)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def top_confidence(self) -> np.ndarray:
        """Per-sample top-label probability."""
        return as_probabilities(self).scores.max(axis=1)

    def predicted_class(self) -> np.ndarray:
        """Argmax class per sample; ties resolve to the smallest class index."""
        # np.argmax copies a read-only input whole: blocks of 2**16 scores
        # keep that copy at 512 KiB
        step = max(1, 2**16 // self.n_classes)
        return np.concatenate([np.argmax(self.scores[i:i + step], axis=1)
                               for i in range(0, self.n_samples, step)])

    def correctness(self) -> np.ndarray:
        """Float 0/1 vector marking samples whose argmax equals the label."""
        return (self.predicted_class() == self.labels).astype(np.float64)

    def accuracy(self) -> float:
        return float(self.correctness().mean())


def _check(scores: np.ndarray, labels: np.ndarray,
           is_probabilities: bool) -> None:
    """Raise ValueError unless float64 ``scores`` and int64 ``labels`` make
    a valid PredictionSet.  The one rule set: the public constructor and
    the file readers apply it to their own copies."""
    _check_scores(scores)
    n, k = scores.shape
    if n < 1:
        raise ValueError("need at least one sample")
    if k < 2:
        raise ValueError(f"need at least two classes, got {k}")
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match {n} samples")
    if labels.min() < 0 or labels.max() >= k:
        bad = int(np.argwhere((labels < 0) | (labels >= k))[0, 0])
        raise ValueError(
            f"label {labels[bad]} out of range [0, {k}) in row {bad}")
    if is_probabilities:
        if scores.min() < 0.0 or scores.max() > 1.0:
            bad = int(np.argwhere((scores < 0.0) | (scores > 1.0))[0, 0])
            raise ValueError(f"probability entry out of [0, 1] in row {bad}")
        sums = scores.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(
                f"row {bad} sums to {sums[bad]:.8f}, expected 1 within 1e-6")


def _check_scores(scores: np.ndarray) -> None:
    """The score-matrix rule: float64 ``scores`` are 2-D with finite rows."""
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        bad = int(np.argwhere(~np.isfinite(scores).all(axis=1))[0, 0])
        raise ValueError(f"non-finite score in row {bad}")


def _freeze(preds: PredictionSet, scores: np.ndarray,
            labels: np.ndarray) -> None:
    scores.setflags(write=False)
    labels.setflags(write=False)
    object.__setattr__(preds, "scores", scores)
    object.__setattr__(preds, "labels", labels)


def _trusted(scores: np.ndarray, labels: np.ndarray,
             is_probabilities: bool) -> PredictionSet:
    """A PredictionSet around arrays that are valid by construction.

    ``scores`` (float64, C-ordered) and ``labels`` (int64) must be new
    arrays that nothing else references, and must pass ``_check``: a
    reader's own copies after ``_check``, or the output of a transform of
    a valid set.
    They are frozen, not copied or checked again.
    """
    preds = object.__new__(PredictionSet)
    object.__setattr__(preds, "is_probabilities", is_probabilities)
    _freeze(preds, scores, labels)
    return preds


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift stabilization.

    Parameters
    ----------
    scores : ndarray of shape (n, k)
        Finite logits.

    Returns
    -------
    ndarray of shape (n, k)
        Rows are probability vectors summing to 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    _check_scores(scores)
    return _softmax(scores)


def _softmax(scores: np.ndarray, out=None) -> np.ndarray:
    """softmax of finite 2-D float64 scores, built in one buffer: ``out``
    (which may be ``scores`` itself) or a new array."""
    e = np.subtract(scores, scores.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def as_probabilities(preds: PredictionSet) -> PredictionSet:
    """Return an equivalent PredictionSet flagged as probabilities."""
    if preds.is_probabilities:
        return preds
    return _trusted(_softmax(preds.scores), preds.labels.copy(), True)


@dataclass(frozen=True)
class SplitSpec:
    """Validation/test split request.

    fraction is the validation share; the permutation is drawn from
    ``np.random.default_rng(seed)``, so a split repeats for a given seed.
    """

    fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (_is_finite_real(self.fraction) and 0.0 < self.fraction < 1.0):
            raise ValueError(f"fraction must lie in (0, 1), got "
                             f"{self.fraction!r}")
        _check_seed(self.seed)


def _take(preds: PredictionSet, idx: np.ndarray) -> PredictionSet:
    """The rows ``idx`` (non-empty) of a valid set: valid, and new arrays."""
    return _trusted(preds.scores[idx], preds.labels[idx],
                    preds.is_probabilities)


def split(preds: PredictionSet, spec: SplitSpec) -> tuple[PredictionSet, PredictionSet]:
    """Split into (validation, test) parts.

    The validation part receives ``round(n * fraction)`` samples, clamped so
    both parts are non-empty.  Deterministic in ``spec.seed``; the two index
    sets partition ``range(n)``.
    """
    n = preds.n_samples
    if n < 5:
        raise ValueError(f"need at least 5 samples to split, got {n}")
    n_val = int(round(n * spec.fraction))
    n_val = min(max(n_val, 1), n - 1)
    perm = np.random.default_rng(spec.seed).permutation(n)
    return _take(preds, perm[:n_val]), _take(preds, perm[n_val:])


# ---------------------------------------------------------------------------
# binary format: magic "CLBX", u16 version, u8 flag (1 = probabilities),
# u32 N, u32 K, then N records of K float32 scores + one int32 label (LE).
# ---------------------------------------------------------------------------

def write_logits_file(path, preds: PredictionSet) -> None:
    """Serialize a PredictionSet to the binary format (float32 scores)."""
    n, k = preds.n_samples, preds.n_classes
    rec = np.empty(n, dtype=np.dtype([("s", "<f4", (k,)), ("y", "<i4")]))
    rec["s"] = preds.scores.astype(np.float32)
    rec["y"] = preds.labels.astype(np.int32)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION,
                              1 if preds.is_probabilities else 0, n, k))
        fh.write(rec.tobytes())


def read_logits_file(path) -> PredictionSet:
    """Parse a binary score file; raises LogitsFileError with a diagnostic."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise LogitsFileError(f"{path}: truncated header "
                                  f"({len(head)} of {_HEADER.size} bytes)")
        magic, version, flag, n, k = _HEADER.unpack(head)
        if magic != MAGIC:
            raise LogitsFileError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise LogitsFileError(f"{path}: unsupported version {version}")
        if flag not in (0, 1):
            raise LogitsFileError(f"{path}: bad flag byte {flag}")
        body = fh.read()
    rec_size = 4 * k + 4
    if len(body) != n * rec_size:
        raise LogitsFileError(f"{path}: truncated body "
                              f"({len(body)} of {n * rec_size} bytes)")
    rec = np.frombuffer(body, dtype=np.dtype([("s", "<f4", (k,)), ("y", "<i4")]))
    labels = rec["y"].astype(np.int64)
    scores = rec["s"].astype(np.float64)
    try:
        _check(scores, labels, bool(flag))
    except ValueError as exc:
        raise LogitsFileError(f"{path}: {exc}") from exc
    return _trusted(scores, labels, bool(flag))


# ---------------------------------------------------------------------------
# CSV format: header "label,s0,...,s{K-1}".  A file whose rows all lie in
# [0, 1] and sum to 1 within 1e-6 parses as probabilities.
# ---------------------------------------------------------------------------

def write_csv_predictions(path, preds: PredictionSet) -> None:
    with atomic_output(path) as fh:
        w = csv.writer(fh)
        w.writerow(["label"] + [f"s{i}" for i in range(preds.n_classes)])
        for y, row in zip(preds.labels, preds.scores):
            w.writerow([int(y)] + [repr(float(v)) for v in row])


def read_csv_predictions(path) -> PredictionSet:
    """Parse a CSV score file.

    The set is flagged as probabilities exactly when every row lies in
    [0, 1] and sums to 1 within 1e-6; otherwise the scores are logits.
    """
    with open(path, newline="") as fh:
        try:
            header = read_header(path, fh)
            if header is None:
                raise ValueError(f"{path}: empty file")
            k = len(header) - 1
            if k < 2 or header[0] != "label" or \
                    header[1:] != [f"s{i}" for i in range(k)]:
                raise ValueError(f"{path}: line 1: bad header {header!r}")
            dtype = [("y", np.int64), ("s", np.float64, (k,))]
            data = read_rows(path, fh, dtype, delimiter=",",
                             check=_check_rows)
        except ValueError as exc:
            raise LogitsFileError(*exc.args) from None
    if data.size == 0:
        raise LogitsFileError(f"{path}: no data rows")
    labels, scores = data["y"].copy(), data["s"].copy()
    in_range = scores.min() >= 0.0 and scores.max() <= 1.0
    is_prob = bool(in_range and
                   np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-6)
    # _check_rows passed each row, and is_prob is _check's probability rule
    return _trusted(scores, labels, is_prob)


def _check_rows(data: np.ndarray) -> None:
    """The row rules of ``_check`` (finite scores, labels in range) on
    parsed CSV rows, so that a bad value names its line.  Whether the set
    is probabilities is decided on the whole file afterwards."""
    _check(data["s"], data["y"], False)


# ---------------------------------------------------------------------------
# text rows: the one reader of CSV predictions, OoD confidence files and
# metric tables
# ---------------------------------------------------------------------------

def read_header(path, fh):
    """The first line of text file ``fh`` as CSV cells, None if it is empty;
    a byte that is not UTF-8 raises ValueError ``path: <decoder message>``."""
    try:
        line = fh.readline()
    except UnicodeDecodeError as exc:  # its args[0] would be "utf-8"
        raise ValueError(f"{path}: {exc}") from None
    return next(csv.reader([line])) if line else None


def read_rows(path, fh, dtype, check, delimiter=None) -> np.ndarray:
    """The rest of text file ``fh`` as one structured array of ``dtype``,
    one row per line; empty lines are skipped.

    The rows are parsed by one numpy ``loadtxt`` in its number syntax,
    split on ``delimiter`` (None splits on whitespace); ``check`` raises
    ValueError for parsed rows (one or more) that it rejects.  ``fh`` must
    have been advanced by ``readline()`` calls only, so that it can tell
    where the body starts.  A rejected row raises ValueError ``path: line
    N: <message>`` with N the physical line of the first bad row; a body
    that is not UTF-8 raises ``path: <decoder message>``.  The lines are
    read only after a failure, so a good file is streamed.
    """
    # numpy skips a line that strips to "" (all whitespace, without a
    # delimiter) and warns on rows without another, so it never gets those
    blank = None if delimiter is None else "\r\n"

    def load(rows, any_row: bool):
        if not any_row:  # no rows: the caller's error
            return np.empty(0, dtype)
        data = np.loadtxt(rows, dtype=dtype, delimiter=delimiter,
                          comments=None, quotechar=None, ndmin=1)
        check(data)
        return data

    start = fh.tell()
    try:
        # the body is peeked at up to its first row, then parsed in full
        any_row = any(line.strip(blank) for line in iter(fh.readline, ""))
        fh.seek(start)
        return load(fh, any_row)
    except ValueError as exc:  # a bad row, or a byte that is not UTF-8
        error = exc
    fh.seek(0)
    head = 0  # lines before the body: the readline() calls that reach it
    while fh.tell() != start:
        fh.readline()
        head += 1
    try:
        lines = fh.readlines()
    except UnicodeDecodeError as exc:  # its args[0] would be "utf-8"
        raise ValueError(f"{path}: {exc}") from None
    # a prefix fails exactly when it holds a bad line, so bisecting on
    # prefix length finds the first one
    good, bad = 0, len(lines)  # lines[:good] loads, lines[:bad] does not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            load(lines[:mid], any(line.strip(blank) for line in lines[:mid]))
            good = mid
        except ValueError as exc:
            bad, error = mid, exc
    # numpy's row number (and a check's) skips blank lines, and numpy's
    # counts from 0 or 1 by error kind: drop it (and the `usecols` hint),
    # name the line
    msg = re.sub(r" (?:at|in) row \d+", "", str(error).partition("; use")[0])
    raise ValueError(f"{path}: line {head + bad}: {msg}")
