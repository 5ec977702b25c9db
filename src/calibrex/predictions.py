"""Prediction containers, score transforms, splits, and score-file IO.

The central type is :class:`PredictionSet`, an immutable bundle of a score
matrix (logits or probabilities) and integer labels.  Two on-disk formats are
supported: a small binary format (magic ``CLBX``) storing float32 scores with
int32 labels, and a CSV format with header ``label,s0,...,s{K-1}``.
"""
from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"CLBX"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHBII")  # magic, version, flag, N, K


class LogitsFileError(ValueError):
    """Raised for malformed binary or CSV score files."""


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
        scores = np.array(self.scores, dtype=np.float64, copy=True)
        labels = np.array(self.labels, dtype=np.int64, copy=True)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-D, got shape {scores.shape}")
        n, k = scores.shape
        if n < 1:
            raise ValueError("need at least one sample")
        if k < 2:
            raise ValueError(f"need at least two classes, got {k}")
        if labels.shape != (n,):
            raise ValueError(
                f"labels shape {labels.shape} does not match {n} samples")
        if not np.all(np.isfinite(scores)):
            bad = int(np.argwhere(~np.isfinite(scores).all(axis=1))[0, 0])
            raise ValueError(f"non-finite score in row {bad}")
        if labels.min() < 0 or labels.max() >= k:
            bad = int(np.argwhere((labels < 0) | (labels >= k))[0, 0])
            raise ValueError(
                f"label {labels[bad]} out of range [0, {k}) in row {bad}")
        if self.is_probabilities:
            if scores.min() < -1e-9 or scores.max() > 1.0 + 1e-9:
                raise ValueError("probability entries must lie in [0, 1]")
            sums = scores.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-6:
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise ValueError(
                    f"row {bad} sums to {sums[bad]:.8f}, expected 1 within 1e-6")
        scores.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def probabilities(self) -> np.ndarray:
        """Probability matrix: scores if already probabilities, else softmax."""
        if self.is_probabilities:
            return self.scores
        return softmax(self.scores)

    def top_confidence(self) -> np.ndarray:
        """Per-sample top-label probability."""
        return self.probabilities().max(axis=1)

    def predicted_class(self) -> np.ndarray:
        """Argmax class per sample; ties resolve to the smallest class index."""
        return np.argmax(self.scores, axis=1)

    def correctness(self) -> np.ndarray:
        """Float 0/1 vector marking samples whose argmax equals the label."""
        return (self.predicted_class() == self.labels).astype(np.float64)

    def accuracy(self) -> float:
        return float(self.correctness().mean())


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
    if scores.ndim != 2:
        raise ValueError(f"expected 2-D logits, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        bad = int(np.argwhere(~np.isfinite(scores).all(axis=1))[0, 0])
        raise ValueError(f"non-finite logit in row {bad}")
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def as_probabilities(preds: PredictionSet) -> PredictionSet:
    """Return an equivalent PredictionSet flagged as probabilities."""
    if preds.is_probabilities:
        return preds
    return PredictionSet(softmax(preds.scores), preds.labels,
                         is_probabilities=True)


@dataclass(frozen=True)
class SplitSpec:
    """Validation/test split request.

    fraction is the validation share; the permutation is drawn from
    ``np.random.default_rng(seed)``.
    """

    fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(f"fraction must lie in (0, 1), got {self.fraction}")


def _take(preds: PredictionSet, idx: np.ndarray) -> PredictionSet:
    return PredictionSet(preds.scores[idx], preds.labels[idx],
                         is_probabilities=preds.is_probabilities)


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
    if n and (labels.min() < 0 or labels.max() >= k):
        bad = int(np.argwhere((labels < 0) | (labels >= k))[0, 0])
        raise LogitsFileError(
            f"{path}: label {labels[bad]} out of range [0, {k}) in record {bad}")
    try:
        return PredictionSet(rec["s"].astype(np.float64), labels,
                             is_probabilities=bool(flag))
    except ValueError as exc:
        raise LogitsFileError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV format: header "label,s0,...,s{K-1}".  A file whose rows all lie in
# [0, 1] and sum to 1 within 1e-6 parses as probabilities under kind="auto".
# ---------------------------------------------------------------------------

def write_csv_predictions(path, preds: PredictionSet) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label"] + [f"s{i}" for i in range(preds.n_classes)])
        for y, row in zip(preds.labels, preds.scores):
            w.writerow([int(y)] + [repr(float(v)) for v in row])


def read_csv_predictions(path, kind: str = "auto") -> PredictionSet:
    """Parse a CSV score file.

    Parameters
    ----------
    path : str or Path
    kind : {"auto", "logits", "probabilities"}
        Under "auto" the set is flagged as probabilities exactly when every
        row lies in [0, 1] and sums to 1 within 1e-6.
    """
    if kind not in ("auto", "logits", "probabilities"):
        raise ValueError(f"bad kind {kind!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogitsFileError(f"{path}: empty file") from None
        k = len(header) - 1
        if k < 2 or header[0] != "label" or \
                header[1:] != [f"s{i}" for i in range(k)]:
            raise LogitsFileError(f"{path}: line 1: bad header {header!r}")
        labels = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 1:
                raise LogitsFileError(
                    f"{path}: line {lineno}: expected {k + 1} cells, got {len(row)}")
            try:
                labels.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise LogitsFileError(
                    f"{path}: line {lineno}: non-numeric cell") from None
        if not rows:
            raise LogitsFileError(f"{path}: no data rows")
    scores = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if kind == "auto":
        in_range = scores.min() >= 0.0 and scores.max() <= 1.0
        is_prob = bool(in_range and
                       np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-6)
    else:
        is_prob = kind == "probabilities"
    try:
        return PredictionSet(scores, labels, is_probabilities=is_prob)
    except ValueError as exc:
        raise LogitsFileError(f"{path}: {exc}") from exc
