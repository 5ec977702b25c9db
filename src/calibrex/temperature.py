"""Temperature scaling: a single scalar that rescales logits before softmax.

The scalar is fit by minimizing mean negative log-likelihood on a held-out
set.  The objective is unimodal in 1/T, so a golden-section search over
log-temperature finds the minimum without derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet, softmax

T_MIN = 0.05
T_MAX = 20.0
T_TOL = 1e-4

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Temperature:
    """A fitted temperature with NLL before/after on the fitting set."""

    value: float
    nll_before: float
    nll_after: float


def _as_logits(preds: PredictionSet) -> np.ndarray:
    if preds.is_probabilities:
        return np.log(np.maximum(preds.scores, 1e-12))
    return preds.scores


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp, with the arithmetic of scipy's ``logsumexp``.

    The row maxima are left out of the shifted sum and enter as the log of
    their count: ``log1p(sum / count) + log(count) + max``.
    """
    zmax = z.max(axis=1, keepdims=True)
    is_max = z == zmax
    count = is_max.sum(axis=1, keepdims=True, dtype=z.dtype)
    s = np.exp(np.where(is_max, -np.inf, z) - zmax).sum(axis=1, keepdims=True)
    return (np.log1p(s / count) + np.log(count) + zmax)[:, 0]


def _nll_at(logits: np.ndarray, labels: np.ndarray, t: float) -> float:
    z = logits / t
    lse = _logsumexp_rows(z)
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


def fit_temperature(preds: PredictionSet) -> Temperature:
    """Golden-section search for the NLL-minimizing temperature.

    The search runs over log T in [T_MIN, T_MAX] until the bracket is
    narrower than T_TOL in temperature units.  If the optimum does not
    strictly improve on T=1, the identity temperature is returned.
    """
    logits = _as_logits(preds)
    labels = preds.labels

    def f(u: float) -> float:
        return _nll_at(logits, labels, math.exp(u))

    lo, hi = math.log(T_MIN), math.log(T_MAX)
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while math.exp(hi) - math.exp(lo) > T_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    t_star = math.exp(0.5 * (lo + hi))
    nll_one = _nll_at(logits, labels, 1.0)
    nll_star = _nll_at(logits, labels, t_star)
    if not nll_star < nll_one:
        return Temperature(1.0, nll_one, nll_one)
    return Temperature(t_star, nll_one, nll_star)


def apply_temperature(preds: PredictionSet, temperature) -> PredictionSet:
    """Rescale logits by 1/T and softmax; output is always probabilities."""
    t = temperature.value if isinstance(temperature, Temperature) \
        else float(temperature)
    if not t > 0.0:
        raise ValueError("temperature must be positive")
    probs = softmax(_as_logits(preds) / t)
    return PredictionSet(probs, preds.labels, is_probabilities=True)
