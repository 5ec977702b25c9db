"""Ranking and correlation analysis over per-architecture measurements.

A MetricTable holds one row per architecture and one column per named
measurement; everything downstream (Kendall correlation matrices, top-k
filtering, harmonic accuracy/calibration scores, boxplot and size-bracket
summaries) operates on such tables.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .predictions import _is_int, read_header, read_rows


class NotFiniteError(ValueError):
    """A MetricTable cell that is NaN or infinite."""

    def __init__(self, column: str, arch_index: int):
        super().__init__(f"column {column!r} is not finite at arch_index "
                         f"{arch_index}")
        self.column, self.arch_index = column, arch_index


@dataclass
class MetricTable:
    """Rectangular table: one row per arch_index, named finite real-valued
    columns."""

    arch_index: np.ndarray
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.arch_index = np.asarray(self.arch_index, dtype=np.int64)
        n = self.arch_index.size
        srt = np.sort(self.arch_index, axis=None)
        repeats = srt[1:][srt[1:] == srt[:-1]]
        if repeats.size:
            raise ValueError(f"arch_index {repeats[0]} has more than one row")
        cols = {}
        for name, vals in self.columns.items():
            v = np.asarray(vals, dtype=np.float64)
            if v.shape != (n,):
                raise ValueError(f"column {name!r} has shape {v.shape}, "
                                 f"expected ({n},)")
            bad = np.flatnonzero(~np.isfinite(v))
            if bad.size:
                raise NotFiniteError(name, int(self.arch_index[bad[0]]))
            cols[name] = v
        self.columns = cols

    @property
    def n_rows(self) -> int:
        return self.arch_index.size

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have "
                           f"{sorted(self.columns)}")
        return self.columns[name]


# Rows are padded to a power of two; the first merge level counts
# inversions inside blocks of this size by direct comparison.
_BLOCK = 16


def _key_dtype(n: int):
    """Smallest integer type holding the merge keys ``2 * n + 1``."""
    top = 2 * n + 1
    return np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64


def _tied_pairs(srt: np.ndarray) -> int:
    """Number of pairs of equal entries in a sorted 1-D array."""
    starts = np.flatnonzero(np.r_[True, srt[1:] != srt[:-1]])
    runs = np.diff(np.append(starts, srt.size))
    return int((runs * (runs - 1) // 2).sum())


def _dense_ranks(columns: Sequence[np.ndarray], n: int):
    """0-based dense ranks of each column (one row each), and tied pairs."""
    ranks = np.empty((len(columns), n), dtype=_key_dtype(n))
    ties = np.empty(len(columns), dtype=np.int64)
    for c, v in enumerate(columns):
        order = np.argsort(v)
        srt = v[order]
        ranks[c, order] = np.cumsum(np.r_[False, srt[1:] != srt[:-1]])
        ties[c] = _tied_pairs(srt)
    return ranks, ties


def _discordant(seq: np.ndarray, pad: int) -> np.ndarray:
    """Pairs a < b with seq[a] > seq[b] in each row of ``seq``.

    Bottom-up merge count (Knight 1966) vectorised over rows and blocks.
    Values lie in [0, pad); rows are padded with ``pad`` to a power of two.
    At merge width w every 2w-block is sorted on the key
    ``value << 1 | is_right_half``, so a left value equal to a right one
    sorts first (a tie is not discordant), and the left values greater than
    the right ones total w*w + w*(w-1)/2 minus the summed merged positions
    of the right half.
    """
    m, n = seq.shape
    size = max(_BLOCK, 1 << (n - 1).bit_length())
    keys = np.full((m, size), pad, dtype=_key_dtype(pad))
    keys[:, :n] = seq
    # inside blocks of _BLOCK, offset-major so each comparison is a long row
    cols = keys.reshape(-1, _BLOCK).T.copy()
    count = np.zeros(cols.shape, dtype=np.uint8)
    for d in range(1, _BLOCK):
        count[d:] += cols[:-d] > cols[d:]
    dis = count.reshape(_BLOCK, m, -1).sum(axis=(0, 2), dtype=np.int64)
    keys <<= 1
    w = _BLOCK
    while w < size:
        blocks = keys.reshape(m, -1, 2 * w)
        blocks[..., :w] &= ~1
        blocks[..., w:] |= 1
        blocks.sort(axis=-1)
        # the merged positions of the right half: -(key & 1) is all ones
        # there and zero on the left, so ANDing it with the positions keeps
        # those of the right half, in the keys' own dtype
        pos = blocks & 1
        np.negative(pos, out=pos)
        pos &= np.arange(2 * w, dtype=keys.dtype)
        right = pos.sum(axis=(1, 2), dtype=np.int64)
        dis += blocks.shape[1] * (w * w + w * (w - 1) // 2) - right
        w *= 2
    return dis


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tau_b(columns: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Kendall tau-b between every pair of k float columns of length n.

    Each column is dense-ranked once; for each column i the later columns
    are put in the order of column i and their discordant pairs counted
    together.  When column i has ties, each pair is ordered by
    (rank_i, rank_j) so that pairs tied in i are not counted as discordant.
    Entry (i, j), i < j, follows scipy's tau-b arithmetic with x = column i
    exactly; a constant column or one holding NaN gives NaN.

    The rows i are counted on up to one thread per available CPU (the
    sorts and counts release the GIL); every entry is computed from its
    own pair alone, so the matrix has the same bits for any thread count.
    """
    k = len(columns)
    out = np.eye(k)
    ranks, ties = _dense_ranks(columns, n)
    tot = n * (n - 1) // 2
    degenerate = (ties == tot) | np.array([np.isnan(v).any()
                                           for v in columns], dtype=bool)
    workers = max(1, min(_cpu_count(), k - 1))
    # rows j per batch: bounds the (batch, n) int64 work arrays of all
    # workers together to 4 MiB
    batch = max(1, 2**19 // max(n, 1) // workers)

    def fill(i):
        """Fill ``out[i, i + 1:]`` and ``out[i + 1:, i]``."""
        if not ties[i]:
            order = np.empty(n, dtype=np.intp)
            order[ranks[i]] = np.arange(n)
        for lo in range(i + 1, k, batch):
            hi = min(k, lo + batch)
            if ties[i]:
                seq = ranks[lo:hi].astype(np.int64)
                seq += ranks[i].astype(np.int64) * n
                seq.sort(axis=1)
                joint = np.array([_tied_pairs(row) if t else 0
                                  for row, t in zip(seq, ties[lo:hi])])
                seq %= n
            else:
                seq, joint = ranks[lo:hi, order], 0
            dis = _discordant(seq, n)
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = (tot - ties[i] - ties[lo:hi] + joint - 2 * dis) \
                    / np.sqrt(tot - ties[i]) / np.sqrt(tot - ties[lo:hi])
            tau = np.clip(tau, -1.0, 1.0)
            tau[degenerate[i] | degenerate[lo:hi]] = np.nan
            out[i, lo:hi] = out[lo:hi, i] = tau

    if workers == 1:
        for i in range(k - 1):
            fill(i)
    else:
        from concurrent.futures import ThreadPoolExecutor
        # tasks start in submission order, so the longest rows go first;
        # the first error propagates and cancels the tasks not yet started
        with ThreadPoolExecutor(workers) as pool:
            for _ in pool.map(fill, range(k - 1)):
                pass
    return out


def kendall_tau(x, y) -> float:
    """Kendall tau-b rank correlation; NaN when either side is degenerate."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    return float(_tau_b([x, y], x.size)[0, 1])


def correlation_matrix(table: MetricTable,
                       column_names: Optional[Sequence[str]] = None):
    """Pairwise Kendall tau-b over the chosen columns.

    Returns (names, matrix); the matrix is symmetric with unit diagonal.
    A name given twice is a ValueError.
    """
    names = list(column_names) if column_names is not None \
        else sorted(table.columns)
    repeated = [c for i, c in enumerate(names) if c in names[:i]]
    if repeated:
        raise ValueError(f"column {repeated[0]!r} is repeated")
    columns = [table.column(name) for name in names]
    return names, _tau_b(columns, table.n_rows)


def top_k_by(table: MetricTable, column: str, k: int) -> MetricTable:
    """The k rows with the largest values of a column; ties broken by
    ascending arch index."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > table.n_rows:
        raise ValueError(f"k {k} exceeds table size {table.n_rows}")
    order = np.lexsort((table.arch_index, -table.column(column)))
    idx = order[:k]
    return MetricTable(table.arch_index[idx],
                       {name: v[idx] for name, v in table.columns.items()})


def hcs(accuracy, ece, beta: float = 1.0):
    """Harmonic calibration score blending accuracy and 1 - ECE.

    hcs = (1 + beta) * acc * (1 - ece) / (beta * acc + (1 - ece)),
    with accuracy and ece as fractions in [0, 1].  The score is bounded by
    min-max of its two ingredients and never exceeds 1.  Larger beta shifts
    the weight toward the calibration term 1 - ece.
    """
    if not (beta > 0 and np.isfinite(beta)):
        raise ValueError(f"beta must be a finite number > 0, got {beta!r}")
    acc = np.asarray(accuracy, dtype=np.float64)
    q = 1.0 - np.asarray(ece, dtype=np.float64)
    if not (np.all((0 <= acc) & (acc <= 1)) and np.all((0 <= q) & (q <= 1))):
        raise ValueError("accuracy and ece must lie in [0, 1]")  # NaN fails
    num = (1.0 + beta) * acc * q
    den = beta * acc + q
    out = np.where(den > 0.0, num / np.maximum(den, 1e-300), 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary with 1.5*IQR whiskers clipped to the data."""

    n: int
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    n_outliers: int


def boxplot_stats(values) -> BoxplotStats:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("need a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    lo_lim, hi_lim = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    inside = v[(v >= lo_lim) & (v <= hi_lim)]
    return BoxplotStats(int(v.size), float(med), float(q1), float(q3),
                        float(inside.min()), float(inside.max()),
                        int(v.size - inside.size))


def size_brackets(sizes, edges: Sequence[float]) -> np.ndarray:
    """Assign each size to a half-open bracket [e_i, e_{i+1}).

    Returns integer bracket ids; 0 is everything below the first edge and
    len(edges) everything at or above the last.
    """
    e = np.asarray(edges, dtype=np.float64)
    if e.ndim != 1 or e.size == 0 or not np.all(np.isfinite(e)) \
            or np.any(np.diff(e) <= 0):
        raise ValueError("edges must be finite, strictly increasing and "
                         "non-empty")
    s = np.asarray(sizes, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("sizes must be finite")
    return np.searchsorted(e, s, side="right")


def read_table_csv(path) -> MetricTable:
    """A table as ``write_table_csv`` writes it: header ``arch_index`` and
    one distinct name per column, then one row per architecture."""
    with open(path, newline="") as fh:
        header = read_header(path, fh)
        if not header or header[0] != "arch_index":
            raise ValueError(f"{path}: first column must be arch_index")
        repeated = [c for i, c in enumerate(header) if c in header[:i]]
        if repeated:
            raise ValueError(f"{path}: line 1: column {repeated[0]!r} is "
                             "repeated")
        names = header[1:]
        # one field per header cell: a short or long row, a non-integer
        # arch_index or a non-numeric or non-finite cell raises ValueError
        dtype = [("arch_index", np.int64)] + [(f"c{i}", np.float64)
                                             for i in range(len(names))]

        def finite(data):
            for i, name in enumerate(names):
                bad = ~np.isfinite(data[f"c{i}"])
                if bad.any():
                    raise ValueError(f"column {name!r}: "
                                     f"{data[f'c{i}'][bad][0]} is not a "
                                     "finite number")

        data = read_rows(path, fh, dtype, delimiter=",", check=finite)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    try:
        return MetricTable(data["arch_index"],
                           {name: data[f"c{i}"]
                            for i, name in enumerate(names)})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_table_csv(table: MetricTable, path) -> None:
    names = sorted(table.columns)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arch_index"] + names)
        for i in range(table.n_rows):
            w.writerow([int(table.arch_index[i])] +
                       [repr(float(table.columns[c][i])) for c in names])


def write_matrix_csv(names: Sequence[str], matrix: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric"] + list(names))
        for i, name in enumerate(names):
            w.writerow([name] + [repr(float(x)) for x in matrix[i]])
