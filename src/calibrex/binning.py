"""Confidence binning and binned calibration error metrics.

Bins over [0, 1] are half-open ``[e_i, e_{i+1})`` with the last bin closed at
1.  Equal-width partitions place edges at ``i/m`` exactly; equal-mass
partitions place interior edges at order statistics of the observed
confidences, so heavy ties can leave some bins empty while their duplicates
share a single bin.

Every binned metric (ece, ece_em, mce, cwce, cwce_em, and lp_ce in
``continuous``) comes from one kernel that works on score columns sorted
once: bins are slices of a sorted column and their sums are differences of
cumulative sums.  ``BinPartition``, ``assign_bins`` and ``bin_stats`` give
the same bins one sample at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet

SCHEMES = ("width", "mass")


@dataclass(frozen=True)
class BinPartition:
    """A partition of [0, 1] into m bins defined by m+1 edges."""

    scheme: str
    edges: np.ndarray

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        edges = np.array(self.edges, dtype=np.float64, copy=True)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D array of at least 2 values")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("edges must start at 0 and end at 1")
        if np.any(np.diff(edges) < 0):
            raise ValueError("edges must be non-decreasing")
        edges.setflags(write=False)
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return self.edges.size - 1

    @classmethod
    def equal_width(cls, m: int) -> "BinPartition":
        _check_m(m)
        return cls("width", np.arange(m + 1, dtype=np.float64) / m)

    @classmethod
    def equal_mass(cls, confidences, m: int) -> "BinPartition":
        return cls("mass", equal_mass_edges(confidences, m))


def _check_m(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"bin count must be a positive integer, got {m!r}")


def _check_conf(confidences) -> np.ndarray:
    c = np.asarray(confidences, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("confidences must be a non-empty 1-D array")
    if not np.all(np.isfinite(c)) or c.min() < 0.0 or c.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    return c


def equal_mass_edges(confidences, m: int) -> np.ndarray:
    """Interior edges at order statistics ``x_(i*n//m)`` of the confidences.

    With distinct values the resulting bin occupancies differ by at most one;
    duplicated values collapse onto shared edges and occupy a single bin.
    """
    _check_m(m)
    c = np.sort(_check_conf(confidences))
    n = c.size
    cuts = (np.arange(1, m) * n) // m
    return np.concatenate(([0.0], c[cuts], [1.0]))


def assign_bins(confidences, partition: BinPartition) -> np.ndarray:
    """Map each confidence to its bin index under the half-open rule."""
    c = _check_conf(confidences)
    idx = np.searchsorted(partition.edges, c, side="right") - 1
    return np.minimum(idx, partition.m - 1)


@dataclass(frozen=True)
class BinStats:
    """Per-bin sample counts and conditional means (NaN where empty)."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    mean_accuracy: np.ndarray


def bin_stats(confidences, correctness, partition: BinPartition) -> BinStats:
    c = _check_conf(confidences)
    a = np.asarray(correctness, dtype=np.float64)
    if a.shape != c.shape:
        raise ValueError("correctness must match confidences in shape")
    idx = assign_bins(c, partition)
    m = partition.m
    counts = np.bincount(idx, minlength=m)
    with np.errstate(invalid="ignore"):
        mean_c = np.bincount(idx, weights=c, minlength=m) / counts
        mean_a = np.bincount(idx, weights=a, minlength=m) / counts
    return BinStats(counts, mean_c, mean_a)


@dataclass(frozen=True)
class ReliabilityDiagram:
    """Reliability table: one row per bin with count, means, and gap."""

    partition: BinPartition
    counts: np.ndarray
    mean_confidence: np.ndarray
    mean_accuracy: np.ndarray
    gap: np.ndarray


def _partition_for(preds_conf, m: int, scheme: str) -> BinPartition:
    if scheme == "width":
        return BinPartition.equal_width(m)
    if scheme == "mass":
        return BinPartition.equal_mass(preds_conf, m)
    raise ValueError(f"unknown scheme {scheme!r}")


def _require_probs(preds: PredictionSet) -> None:
    if not preds.is_probabilities:
        raise ValueError("expected a probability PredictionSet; "
                         "convert logits with as_probabilities() first")


def reliability_data(preds: PredictionSet, bins: int,
                     scheme: str = "width") -> ReliabilityDiagram:
    """Reliability diagram data for the top-label confidences."""
    _require_probs(preds)
    conf = preds.top_confidence()
    part = _partition_for(conf, bins, scheme)
    stats = bin_stats(conf, preds.correctness(), part)
    gap = stats.mean_accuracy - stats.mean_confidence
    return ReliabilityDiagram(part, stats.counts, stats.mean_confidence,
                              stats.mean_accuracy, gap)


def _sorted_columns(preds: PredictionSet, top_label: bool, classwise: bool):
    """Score columns to bin, one per row, each sorted ascending.

    Rows are the top-label confidences (if ``top_label``) followed by the K
    class score columns (if ``classwise``).  Alongside comes, per row, the
    sorted scores of that row's hits: the correctly predicted samples for the
    top-label row, the samples labelled k for class column k.
    """
    _require_probs(preds)
    rows, hits = [], []
    if top_label:
        conf = preds.top_confidence()
        rows.append(conf[None, :])
        hits.append(np.sort(conf[preds.correctness() == 1.0]))
    if classwise:
        rows.append(preds.scores.T)
        labels = preds.labels
        p_true = preds.scores[np.arange(preds.n_samples), labels]
        by_label = p_true[np.lexsort((p_true, labels))]
        ends = np.cumsum(np.bincount(labels, minlength=preds.n_classes))
        hits += np.split(by_label, ends[:-1])
    cols = np.concatenate(rows)
    cols.sort(axis=1)
    if cols[:, 0].min() < 0.0 or cols[:, -1].max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    return cols, hits


def _binned_errors(cols: np.ndarray, hits, bin_counts, p: float = 1.0):
    """Binned calibration errors of every row, at every bin count and scheme.

    ``cols`` holds one sorted score column per row and ``hits[j]`` the
    sorted scores of row j's hits (a sub-multiset of row j).  Edges become
    positions by ``searchsorted(side="left")`` on the sorted row, so a bin
    ``[e_i, e_{i+1})`` is a slice of it; the outer edges are -inf and +inf,
    which closes the last bin at 1.  Bin counts, confidence sums and hit
    counts are then differences of cumulative sums.

    Returns ``{(scheme, m): (lp, mce)}`` with one value per row:
    ``lp = sum_b (n_b / n) * gap_b ** p`` (the ECE for p = 1) and ``mce``
    the largest gap over non-empty bins, where ``gap_b = |hits_b - conf_b|
    / n_b``.  Empty bins contribute nothing to either.  Each row's values
    depend on that row alone, so a row gives the same bits whatever other
    rows or bin counts share the call.
    """
    c, n = cols.shape
    blocks = []
    for m in bin_counts:
        blocks.append(("width", m, np.broadcast_to(np.arange(1, m) / m,
                                                   (c, m - 1))))
        blocks.append(("mass", m, cols[:, (np.arange(1, m) * n) // m]))
    outer = np.full((c, 1), np.inf)
    queries = np.concatenate([part for _, _, interior in blocks
                              for part in (-outer, interior, outer)], axis=1)
    pos = np.empty(queries.shape, dtype=np.intp)
    hit_pos = np.empty_like(pos)
    for j in range(c):
        pos[j] = np.searchsorted(cols[j], queries[j])
        hit_pos[j] = np.searchsorted(hits[j], queries[j])
    cum = np.zeros((c, n + 1))
    np.cumsum(cols, axis=1, out=cum[:, 1:])
    conf_at = np.take_along_axis(cum, pos, axis=1)

    out = {}
    start = 0
    for scheme, m, _ in blocks:
        edges = slice(start, start + m + 1)
        start += m + 1
        counts = np.diff(pos[:, edges])
        gaps = np.abs(np.diff(hit_pos[:, edges]) - np.diff(conf_at[:, edges]))
        gaps /= np.maximum(counts, 1)
        out[scheme, m] = (np.sum(counts / n * gaps ** p, axis=1),
                          gaps.max(axis=1))
    return out


def _binned(preds: PredictionSet, bins: int, scheme: str, classwise: bool,
            statistic: int, p: float = 1.0) -> float:
    """One binned error at one bin count: the kernel on a single row set,
    averaged over rows (the K class columns when ``classwise``)."""
    _check_m(bins)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    cols, hits = _sorted_columns(preds, not classwise, classwise)
    errors = _binned_errors(cols, hits, (bins,), p)
    return float(np.mean(errors[scheme, bins][statistic]))


# suite metric -> (classwise, scheme, statistic: 0 weighted gap, 1 max gap)
_SUITE_METRICS = {"ece": (False, "width", 0), "ece_em": (False, "mass", 0),
                  "cwce": (True, "width", 0), "cwce_em": (True, "mass", 0),
                  "mce": (False, "width", 1)}


def binned_metrics(preds: PredictionSet, metrics, bin_counts) -> dict:
    """``{(metric, m): value}`` for every named binned metric and bin count.

    One sort of the score columns and one kernel call serve them all; each
    value is bit-identical to the matching public call, e.g.
    ``cwce_em(preds, m)``.
    """
    if not metrics or not bin_counts:
        return {}
    classwise = {_SUITE_METRICS[name][0] for name in metrics}
    top_label = False in classwise
    for m in bin_counts:
        _check_m(m)
    cols, hits = _sorted_columns(preds, top_label, True in classwise)
    errors = _binned_errors(cols, hits, tuple(bin_counts))
    rows = {False: slice(0, 1), True: slice(int(top_label), None)}
    values = {}
    for name in metrics:
        cw, scheme, statistic = _SUITE_METRICS[name]
        for m in bin_counts:
            values[name, m] = float(np.mean(
                errors[scheme, m][statistic][rows[cw]]))
    return values


def ece(preds: PredictionSet, bins: int, scheme: str = "width") -> float:
    """Expected calibration error: count-weighted mean |accuracy - confidence|.

    Top-label confidences are binned under the given scheme; empty bins
    contribute nothing.  Always within [0, 1] and bounded above by mce.
    """
    return _binned(preds, bins, scheme, False, 0)


def ece_em(preds: PredictionSet, bins: int) -> float:
    """Equal-mass (adaptive) variant of ece."""
    return ece(preds, bins, scheme="mass")


def mce(preds: PredictionSet, bins: int, scheme: str = "width") -> float:
    """Maximum calibration error over non-empty bins."""
    return _binned(preds, bins, scheme, False, 1)


def cwce(preds: PredictionSet, bins: int, scheme: str = "width") -> float:
    """Classwise calibration error.

    For every class k the full score column f_k is binned over all samples;
    bin accuracy is the frequency of true label k in the bin.  The result
    averages the per-class weighted gaps over classes.
    """
    return _binned(preds, bins, scheme, True, 0)


def cwce_em(preds: PredictionSet, bins: int) -> float:
    """Equal-mass variant of cwce; per-class edges from each score column."""
    return cwce(preds, bins, scheme="mass")
