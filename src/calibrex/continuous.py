"""Binning-free calibration metrics and proper-scoring losses.

All metrics consume probability PredictionSets.  The top-label metrics
(ksce, mmce, kdece) read one state per prediction set: the top-label
confidences and 0/1 correctness, sorted into the canonical (confidence,
correctness) order by ``binning._top_label``.  They are therefore exactly
invariant to input permutation despite floating-point accumulation, and
``run_suite`` builds that state once per stage for all of them.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .binning import _binned, _require_probs, _top_label
from .predictions import PredictionSet, _check_positive, _is_int

PROB_FLOOR = 1e-12

def nll(preds: PredictionSet) -> float:
    """Mean negative log-likelihood; probabilities floored at 1e-12."""
    _require_probs(preds)
    p = preds.scores[np.arange(preds.n_samples), preds.labels]
    return float(-np.mean(np.log(np.maximum(p, PROB_FLOOR))))


def brier(preds: PredictionSet) -> float:
    """Mean squared distance between the score vector and the one-hot label.

    Uses the full multiclass vector, so values range over [0, 2].
    """
    _require_probs(preds)
    n = preds.n_samples
    sq = np.einsum("ij,ij->i", preds.scores, preds.scores)
    p_true = preds.scores[np.arange(n), preds.labels]
    return float(np.mean(sq - 2.0 * p_true + 1.0))


def ksce(preds: PredictionSet) -> float:
    """Kolmogorov-Smirnov calibration error.

    Max absolute difference between the cumulative sums of correctness and
    confidence, in confidence order, scaled by 1/N.
    """
    _require_probs(preds)
    return _ksce(*_top_label(preds))


def _ksce(conf: np.ndarray, correct: np.ndarray) -> float:
    drift = np.cumsum(correct - conf)
    return float(np.max(np.abs(drift)) / conf.size)


MMCE_BANDWIDTH = 0.4


def mmce(preds: PredictionSet, bandwidth: float = MMCE_BANDWIDTH) -> float:
    """Maximum mean calibration error with a Laplacian kernel.

    sqrt(c^T K c) / N where c_i = correct_i - conf_i and
    K_ij = exp(-|conf_i - conf_j| / bandwidth).  With confidences sorted,
    the off-diagonal part is sum_i c_i S_i with the decaying recurrence
    S_i = exp(-(conf_i - conf_{i-1}) / bandwidth) * (S_{i-1} + c_{i-1}),
    S_0 = 0.  Every factor lies in (0, 1], so this is exact and cannot
    overflow at any bandwidth; a prefix scan evaluates it in about log2 N
    numpy passes after the sort.  The Gram matrix is PSD so the form is
    clamped at 0 before the root.
    """
    _require_probs(preds)
    _check_positive("bandwidth", bandwidth)
    return _mmce(*_top_label(preds), bandwidth)


def _mmce(conf: np.ndarray, correct: np.ndarray,
          bandwidth: float = MMCE_BANDWIDTH) -> float:
    c = correct - conf
    # S_i = a_i S_{i-1} + b_i with (a_i, b_i) = (d_i, d_i c_{i-1}), S_0 = 0:
    # a log-step (Hillis-Steele) scan composes the maps over spans of 1, 2,
    # 4, ... samples, after which b_i is S_i.  Every a stays in (0, 1].
    a = np.exp(-np.diff(conf) / bandwidth)
    b = a * c[:-1]
    span = 1
    while span < a.size:
        b[span:] = a[span:] * b[:-span] + b[span:]
        a[span:] = a[span:] * a[:-span]
        span *= 2
    cross = float(np.dot(c[1:], b))
    total = 2.0 * cross + float(np.dot(c, c))
    return float(np.sqrt(max(total, 0.0)) / conf.size)


KDE_BW_MIN = 1e-3
KDE_BW_MAX = 0.2
KDE_GRID = 1024


def silverman_bandwidth(values) -> float:
    """0.9 * min(std, IQR/1.34) * n^(-1/5), clipped to [1e-3, 0.2]."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    if n < 2:
        return KDE_BW_MIN
    sigma = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    spread = min(sigma, (q75 - q25) / 1.34)
    if not np.isfinite(spread) or spread <= 0.0:
        return KDE_BW_MIN
    return float(np.clip(0.9 * spread * n ** (-0.2), KDE_BW_MIN, KDE_BW_MAX))


def kdece(preds: PredictionSet, bandwidth: Optional[float] = None,
          grid: int = KDE_GRID) -> float:
    """Kernel-density estimate of calibration error.

    Smooths both the confidence density and the conditional accuracy with a
    triweight kernel on a uniform grid over [0, 1], then integrates
    |z - acc(z)| * density(z) by the trapezoid rule.  The density is left
    unnormalized; mass truncated at the boundaries is simply not counted.
    A bandwidth of None picks one by ``silverman_bandwidth``.  Memory is
    linear in N + grid.
    """
    _require_probs(preds)
    if bandwidth is not None:
        _check_positive("bandwidth", bandwidth)
    if not _is_int(grid) or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    return _kdece(*_top_label(preds), bandwidth, grid)


def _kdece(conf: np.ndarray, correct: np.ndarray,
           bandwidth: Optional[float] = None, grid: int = KDE_GRID) -> float:
    """kdece on canonically sorted confidences and correctness."""
    h = bandwidth if bandwidth is not None else silverman_bandwidth(conf)
    z = np.linspace(0.0, 1.0, grid)
    n = conf.size
    # sample i has kernel terms only at grid points [g0_i, g1_i)
    g0 = np.searchsorted(z, conf - h, side="left")
    g1 = np.searchsorted(z, conf + h, side="right")
    dens, acc_num = _kde_sums(conf, correct, z, h, g0, g1)
    dens /= n
    acc_num /= n
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(dens > 0.0, acc_num / np.maximum(dens, 1e-300), 0.0)
    integrand = np.abs(z - acc) * dens
    return float(np.trapezoid(integrand, z))


def _kde_sums(conf, correct, z, h, g0, g1):
    """Density and accuracy sums on ``z``, grid offset by offset.

    Step d evaluates every sample at its grid point g0_i + d, for the
    samples whose window is wider than d.  Sorting the samples by window
    width (widest first), then by correctness, makes those a prefix; within
    each (width, correctness) group the canonical order keeps g0
    nondecreasing, so samples sharing a grid point form runs.  Each step
    sums the runs with ``add.reduceat`` and scatters the run sums with two
    ``bincount`` calls.

    The grid and the confidences are divided by h once, so a step computes
    u = z/h - conf/h, then max(1 - u*u, 0) cubed by two multiplies.  Both
    sums are linear in the triweight's constant 35/32 and the kernel's 1/h,
    so that factor scales them once, after the loop.
    """
    grid = z.size
    width = g1 - g0
    order = np.lexsort((correct, -width))
    width, g0, hit = width[order], g0[order], correct[order]
    ch = conf[order] / h
    zh = z / h
    starts = np.flatnonzero(np.r_[True, (width[1:] != width[:-1])
                                  | (hit[1:] != hit[:-1])
                                  | (g0[1:] != g0[:-1])])
    run_g0, run_hit = g0[starts], hit[starts]
    # samples, then runs, taking part in step d: those with width > d
    active = np.searchsorted(-width, -np.arange(width[0]), side="left")
    active_runs = np.searchsorted(starts, active, side="left")
    dens = np.zeros(grid)
    acc_num = np.zeros(grid)
    g = np.empty_like(g0)
    u = np.empty_like(ch)
    sq = np.empty_like(ch)
    for d, (m, r) in enumerate(zip(active.tolist(), active_runs.tolist())):
        gd = np.add(g0[:m], d, out=g[:m])
        w = np.take(zh, gd, out=u[:m])
        np.subtract(w, ch[:m], out=w)
        np.multiply(w, w, out=w)
        np.subtract(1.0, w, out=w)
        np.maximum(w, 0.0, out=w)
        np.multiply(w, np.multiply(w, w, out=sq[:m]), out=w)
        run_sums = np.add.reduceat(w, starts[:r])
        at = run_g0[:r] + d
        dens += np.bincount(at, run_sums, minlength=grid)
        acc_num += np.bincount(at, run_sums * run_hit[:r], minlength=grid)
    scale = 35.0 / (32.0 * h)
    dens *= scale
    acc_num *= scale
    return dens, acc_num


def lp_ce(preds: PredictionSet, p: float, bins: int,
          scheme: str = "width") -> float:
    """Binned L^p calibration error, p in [1, 2]; p=1 coincides with ece."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    return _binned(preds, bins, scheme, False, 0, p) ** (1.0 / p)


def _score_set(values) -> np.ndarray:
    """A score set as float64: ValueError unless 1-D, non-empty, finite."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all():
        raise ValueError("a score set must be a non-empty 1-D array of "
                         "finite numbers")
    return x


def auroc(pos_scores, neg_scores) -> float:
    """Probability a positive score outranks a negative one (ties count 0.5).

    The Mann-Whitney U statistic, sum_p #(neg < p) + 0.5 #(neg == p), comes
    from two ``searchsorted`` calls on the sorted negatives, so it is an
    exact half-integer and the value is the area under the ROC curve.
    """
    return _auroc(_score_set(pos_scores), _score_set(neg_scores))


def _auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """``auroc`` of two checked score sets (see ``_score_set``)."""
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left").sum()
    not_above = np.searchsorted(neg, pos, side="right").sum()
    u = 0.5 * float(below + not_above)
    return float(u / (pos.size * neg.size))
