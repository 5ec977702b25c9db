"""Confidence binning and binned calibration error metrics.

Bins over [0, 1] are half-open ``[e_i, e_{i+1})`` with the last bin closed at
1.  Equal-width partitions place edges at ``i/m`` exactly; equal-mass
partitions place interior edges at order statistics of the observed
confidences, so heavy ties can leave some bins empty while their duplicates
share a single bin.

Every binned metric (ece, ece_em, mce, cwce, cwce_em, and lp_ce in
``continuous``) comes from one kernel that sorts the score columns a few
at a time: bins are slices of a sorted column and their sums are
differences of cumulative sums.
"""
from __future__ import annotations

import numpy as np

from .predictions import PredictionSet, _is_int

SCHEMES = ("width", "mass")
# score columns the binned kernel sorts and bins per step: its buffer is
# 8 x N floats (512 KB at N=8,000), and at the default bin counts its
# other temporaries stay under 128 KB each
_ROWS_PER_STEP = 8


def _check_m(m: int) -> None:
    if not _is_int(m) or m < 1:
        raise ValueError(f"bin count must be a positive integer, got {m!r}")


def _require_probs(preds: PredictionSet) -> None:
    if not preds.is_probabilities:
        raise ValueError("expected a probability PredictionSet; "
                         "convert logits with as_probabilities() first")


def _top_label(preds: PredictionSet):
    """Top-label confidences and 0/1 correctness, in canonical order.

    One ``predicted_class`` serves both: the confidence is the score at the
    argmax, which is the row max.  The samples are then sorted by
    (confidence, correctness), so every consumer sees the same order whatever
    the input order.  ``run_suite`` builds this once per stage and hands it to
    the binned kernel, ``ksce``, ``mmce`` and ``kdece``.

    The order comes from two float sorts and one merge: the misses'
    confidences and the hits' are sorted apart and laid end to end, and a
    stable argsort of those two runs merges them (ties keep misses first).
    """
    _require_probs(preds)
    pred = preds.predicted_class()
    conf = preds.scores[np.arange(preds.n_samples), pred]
    is_hit = pred == preds.labels
    runs = np.concatenate((np.sort(conf[~is_hit]), np.sort(conf[is_hit])))
    order = np.argsort(runs, kind="stable")
    n_miss = runs.size - np.count_nonzero(is_hit)
    return runs[order], (order >= n_miss).astype(np.float64)


def _edge_layout(bin_counts, n: int):
    """The edges of every (bin count, scheme) block, as sources.

    Returns the distinct equal-width edges, the distinct equal-mass cut
    indices ``i*n//m`` (both ascending) and, per block ``width m`` then
    ``mass m`` in ``bin_counts`` order, its m + 1 edges as column indices
    into ``[-inf, +inf, widths..., cuts...]``.
    """
    widths, w_of = np.unique(np.concatenate(
        [np.arange(1, m) / m for m in bin_counts]), return_inverse=True)
    cuts, c_of = np.unique(np.concatenate(
        [(np.arange(1, m) * n) // m for m in bin_counts]),
        return_inverse=True)
    c_of += 2 + widths.size
    w_of += 2
    parts, start = [], 0
    for m in bin_counts:
        for inner in (w_of, c_of):
            parts += ([0], inner[start:start + m - 1], [1])
        start += m - 1
    return widths, cuts, np.concatenate(parts)


def _binned_errors(preds: PredictionSet, top, classwise: bool, bin_counts,
                   p: float = 1.0):
    """Binned calibration errors of every row, at every bin count and scheme.

    Rows are the top-label confidences (if ``top``, the state of
    ``_top_label``, is given), then the K class score columns (if
    ``classwise``).  Row j's hits, the correct samples for the top-label
    row and those labelled k for column k, are sorted once for all rows.
    The rows are sorted ``_ROWS_PER_STEP`` at a time in one small buffer.
    Each edge becomes a position, the number of row values below it, so
    a bin ``[e_i, e_{i+1})`` is a slice of a sorted row; the outer edges
    are -inf and +inf (positions 0 and n), which closes the last bin at
    1.  Bin counts, confidence sums and hit counts are then differences
    of cumulative sums, the buffer's taken in place.

    The equal-width edges ``i/m`` are shared by every row; each distinct
    one is searched once per row.  An interior equal-mass edge is the
    row's own ``x_(i*n//m)``, so its position is its index ``i*n//m``
    unless the value just before it is equal; only such tied edges are
    searched.  Hit counts below the edges come from searches of the
    row's hits.

    Returns ``{(scheme, m): (lp, mce)}`` with one value per row:
    ``lp = sum_b (n_b / n) * gap_b ** p`` (the ECE for p = 1) and ``mce``
    the largest gap over non-empty bins, where ``gap_b = |hits_b - conf_b|
    / n_b``.  Empty bins contribute nothing to either.  Each row's values
    depend on that row alone, so a row gives the same bits whatever other
    rows or bin counts share the call.
    """
    _require_probs(preds)
    n = preds.n_samples
    hits, hit_count = [], []
    if top is not None:
        hits.append(top[0][top[1] == 1.0])
        hit_count.append([hits[0].size])
    if classwise:
        labels = preds.labels
        p_true = preds.scores[np.arange(n), labels]
        # sorted by (label, score): sort the scores, then stable-sort by
        # label, a radix sort once the labels fit in int16
        order = np.argsort(p_true)
        keys = labels[order]
        if preds.n_classes <= np.iinfo(np.int16).max:
            keys = keys.astype(np.int16)
        hits.append(p_true[order[np.argsort(keys, kind="stable")]])
        hit_count.append(np.bincount(labels, minlength=preds.n_classes))
    hits, hit_count = np.concatenate(hits), np.concatenate(hit_count)
    ends = np.cumsum(hit_count)
    head = 0 if top is None else 1  # the top-label row, if any, leads
    c = head + (preds.n_classes if classwise else 0)

    widths, cuts, layout = _edge_layout(bin_counts, n)
    # per row, at [-inf, +inf, widths, cuts]: edge positions, hits below
    w_at = slice(2, 2 + widths.size)
    c_at = slice(2 + widths.size, None)
    buf = np.empty((min(c, _ROWS_PER_STEP), n))
    out = {(scheme, m): (np.empty(c), np.empty(c))
           for m in bin_counts for scheme in SCHEMES}
    for first in range(0, c, _ROWS_PER_STEP):
        rows = slice(first, min(first + _ROWS_PER_STEP, c))
        cols = buf[:rows.stop - first]
        lead = head if first == 0 else 0
        if lead:
            cols[0] = top[0]
        cols[lead:] = preds.scores[:, first + lead - head:rows.stop - head].T
        cols.sort(axis=1)
        pos = np.empty((len(cols), 2 + widths.size + cuts.size),
                       dtype=np.intp)
        hit_pos = np.empty_like(pos)
        pos[:, 0] = hit_pos[:, 0] = 0
        pos[:, 1] = n
        hit_pos[:, 1] = hit_count[rows]
        pos[:, c_at] = cuts
        mass = cols[:, cuts]
        tied = (cols[:, np.maximum(cuts - 1, 0)] == mass) & (cuts > 0)
        for j, end in enumerate(ends[rows]):
            row_hits = hits[end - hit_pos[j, 1]:end]
            pos[j, w_at] = np.searchsorted(cols[j], widths)
            hit_pos[j, w_at] = np.searchsorted(row_hits, widths)
            hit_pos[j, c_at] = np.searchsorted(row_hits, mass[j])
            if tied[j].any():
                pos[j, c_at][tied[j]] = np.searchsorted(cols[j],
                                                        mass[j, tied[j]])
        # in place, cols[j, q - 1] becomes the sum of row j's first q values
        np.cumsum(cols, axis=1, out=cols)
        conf_at = np.take(cols, pos - 1 + n * np.arange(len(cols))[:, None])
        conf_at[pos == 0] = 0.0

        # every bin of every block at once; the differences across a block
        # boundary (a +inf edge, then the next -inf one) are never read.
        # np.take keeps the rows C-ordered, as the per-block sums need
        at, hits_at, conf = (np.take(a, layout, axis=1)
                             for a in (pos, hit_pos, conf_at))
        counts = at[:, 1:] - at[:, :-1]
        hit_diff = hits_at[:, 1:] - hits_at[:, :-1]
        gaps = conf[:, 1:] - conf[:, :-1]
        np.subtract(hit_diff, gaps, out=gaps)
        np.abs(gaps, out=gaps)
        gaps /= np.maximum(counts, 1, out=hit_diff)
        terms = counts / n
        terms *= gaps if p == 1.0 else gaps ** p  # x ** 1.0 is x
        start = 0
        for m in bin_counts:
            for scheme in SCHEMES:
                bins = slice(start, start + m)
                start += m + 1
                lp, mce = out[scheme, m]
                # what np.sum and np.max run, minus their per-call cost
                np.add.reduce(terms[:, bins], axis=1, out=lp[rows])
                np.maximum.reduce(gaps[:, bins], axis=1, out=mce[rows])
    return out


def _binned(preds: PredictionSet, bins: int, scheme: str, classwise: bool,
            statistic: int, p: float = 1.0) -> float:
    """One binned error at one bin count: the kernel on a single row set,
    averaged over rows (the K class columns when ``classwise``)."""
    _check_m(bins)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    top = None if classwise else _top_label(preds)
    errors = _binned_errors(preds, top, classwise, (bins,), p)
    return float(np.mean(errors[scheme, bins][statistic]))


# suite metric -> (classwise, scheme, statistic: 0 weighted gap, 1 max gap)
_SUITE_METRICS = {"ece": (False, "width", 0), "ece_em": (False, "mass", 0),
                  "cwce": (True, "width", 0), "cwce_em": (True, "mass", 0),
                  "mce": (False, "width", 1)}


def _binned_metrics(preds: PredictionSet, top, bin_counts) -> dict:
    """``{(metric, m): value}`` for the five suite metrics at every bin count.

    ``top`` is the ``_top_label`` state of ``preds``.  One sort of the score
    columns and one kernel call serve them all; each value is bit-identical
    to the matching public call, e.g. ``cwce_em(preds, m)``.
    """
    if not bin_counts:
        return {}
    errors = _binned_errors(preds, top, True, tuple(bin_counts))
    # row 0 is the top-label row, the K class columns follow
    rows = {False: slice(0, 1), True: slice(1, None)}
    return {(name, m): float(np.mean(errors[scheme, m][statistic][rows[cw]]))
            for name, (cw, scheme, statistic) in _SUITE_METRICS.items()
            for m in bin_counts}


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
