"""Binning-free calibration metrics and proper-scoring losses.

All metrics consume probability PredictionSets.  The pairwise-kernel metric
(mmce) and the empirical-process metric (ksce) sort samples into a canonical
order first, so they are exactly invariant to input permutation despite
floating-point accumulation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .binning import _binned, _require_probs
from .predictions import PredictionSet

PROB_FLOOR = 1e-12

KERNEL_FAMILIES = ("laplacian", "triweight")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus bandwidth (None = data-driven rule)."""

    family: str = "laplacian"
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def evaluate(self, u) -> np.ndarray:
        """Unit-bandwidth kernel value at u (bandwidth applied by callers)."""
        u = np.asarray(u, dtype=np.float64)
        if self.family == "laplacian":
            return np.exp(-np.abs(u))
        # triweight: compactly supported on [-1, 1]
        out = np.clip(1.0 - u * u, 0.0, None)
        return (35.0 / 32.0) * out ** 3


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


def _canonical_order(conf: np.ndarray, correct: np.ndarray):
    order = np.lexsort((correct, conf))
    return conf[order], correct[order]


def ksce(preds: PredictionSet) -> float:
    """Kolmogorov-Smirnov calibration error.

    Max absolute difference between the cumulative sums of correctness and
    confidence, in confidence order, scaled by 1/N.
    """
    _require_probs(preds)
    conf, correct = _canonical_order(preds.top_confidence(),
                                     preds.correctness().astype(np.float64))
    drift = np.cumsum(correct - conf)
    return float(np.max(np.abs(drift)) / preds.n_samples)


MMCE_BANDWIDTH = 0.4


def mmce(preds: PredictionSet, kernel: Optional[KernelSpec] = None) -> float:
    """Maximum mean calibration error with a Laplacian kernel.

    sqrt(c^T K c) / N where c_i = correct_i - conf_i and
    K_ij = exp(-|conf_i - conf_j| / bandwidth).  With confidences sorted,
    the off-diagonal part is sum_i c_i S_i with the decaying recurrence
    S_i = exp(-(conf_i - conf_{i-1}) / bandwidth) * (S_{i-1} + c_{i-1}),
    S_0 = 0.  Every factor lies in (0, 1], so this is exact, O(N) after the
    sort, and cannot overflow at any bandwidth.  The Gram matrix is PSD so
    the form is clamped at 0 before the root.
    """
    _require_probs(preds)
    if kernel is None:
        kernel = KernelSpec("laplacian", MMCE_BANDWIDTH)
    if kernel.family != "laplacian":
        raise ValueError("mmce requires a laplacian kernel")
    bw = kernel.bandwidth if kernel.bandwidth is not None else MMCE_BANDWIDTH
    conf, correct = _canonical_order(preds.top_confidence(),
                                     preds.correctness().astype(np.float64))
    c = correct - conf
    decay = np.exp(-np.diff(conf) / bw).tolist()
    s = 0.0
    cross = 0.0
    for d, prev, cur in zip(decay, c[:-1].tolist(), c[1:].tolist()):
        s = d * (s + prev)
        cross += cur * s
    total = 2.0 * cross + float(np.dot(c, c))
    return float(np.sqrt(max(total, 0.0)) / conf.size)


KDE_BW_MIN = 1e-3
KDE_BW_MAX = 0.2


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


def kdece(preds: PredictionSet, kernel: Optional[KernelSpec] = None,
          grid: int = 1024, block: int = 2048) -> float:
    """Kernel-density estimate of calibration error.

    Smooths both the confidence density and the conditional accuracy with a
    triweight kernel on a uniform grid over [0, 1], then integrates
    |z - acc(z)| * density(z) by the trapezoid rule.  The density is left
    unnormalized; mass truncated at the boundaries is simply not counted.
    """
    _require_probs(preds)
    if kernel is None:
        kernel = KernelSpec("triweight", None)
    if kernel.family != "triweight":
        raise ValueError("kdece requires a triweight kernel")
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    conf, correct = _canonical_order(preds.top_confidence(),
                                     preds.correctness().astype(np.float64))
    h = kernel.bandwidth if kernel.bandwidth is not None \
        else silverman_bandwidth(conf)
    z = np.linspace(0.0, 1.0, grid)
    dens = np.zeros(grid)
    acc_num = np.zeros(grid)
    n = conf.size
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # the kernel vanishes beyond one bandwidth of every sample in the
        # (sorted) block, so only grid points within that window get terms
        g0 = np.searchsorted(z, conf[lo] - h, side="left")
        g1 = np.searchsorted(z, conf[hi - 1] + h, side="right")
        w = kernel.evaluate((z[g0:g1, None] - conf[None, lo:hi]) / h) / h
        dens[g0:g1] += w.sum(axis=1)
        acc_num[g0:g1] += w @ correct[lo:hi]
    dens /= n
    acc_num /= n
    with np.errstate(invalid="ignore", divide="ignore"):
        acc = np.where(dens > 0.0, acc_num / np.maximum(dens, 1e-300), 0.0)
    integrand = np.abs(z - acc) * dens
    return float(np.trapezoid(integrand, z))


def lp_ce(preds: PredictionSet, p: float, bins: int,
          scheme: str = "width") -> float:
    """Binned L^p calibration error, p in [1, 2]; p=1 coincides with ece."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    return _binned(preds, bins, scheme, False, 0, p) ** (1.0 / p)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    srt = values[order]
    new = np.r_[True, srt[1:] != srt[:-1]]
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], srt.size)
    ranks = np.empty(srt.size)
    ranks[order] = (0.5 * (starts + ends + 1))[np.cumsum(new) - 1]
    return ranks


def auroc(pos_scores, neg_scores) -> float:
    """Probability a positive score outranks a negative one (ties count 0.5).

    Computed from the rank-sum statistic, so it matches the area under the
    ROC curve exactly.
    """
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score sets must be non-empty")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise ValueError("scores must be finite")
    ranks = _average_ranks(np.concatenate([pos, neg]))
    u = ranks[:pos.size].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))
