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


def _logsumexp_into(z: np.ndarray, zmax: np.ndarray,
                    is_max: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of z, with the arithmetic of scipy's
    ``logsumexp``, given the row maxima ``zmax``.

    The row maxima are left out of the shifted sum and enter as the log of
    their count: ``log1p(sum / count) + log(count) + max``.  z and the
    boolean buffer is_max are overwritten.
    """
    col = zmax[:, None]
    np.equal(z, col, out=is_max)
    count = is_max.sum(axis=1, dtype=z.dtype)
    np.subtract(z, col, out=z)
    np.copyto(z, -np.inf, where=is_max)
    s = np.exp(z, out=z).sum(axis=1)
    return np.log1p(s / count) + np.log(count) + zmax


def _nll_curve(logits: np.ndarray, labels: np.ndarray):
    """``t -> mean NLL of softmax(logits / t)``, with per-fit work hoisted.

    Division by t > 0 is monotone, so the row max of ``logits / t`` is the
    row max of the logits divided by t, exactly; it and the label logits
    are taken once, and each call reuses two N x K buffers.  ``is_max``
    still compares the divided logits: two distinct logits can round to one
    value after division.
    """
    row_max = logits.max(axis=1)
    label_logits = logits[np.arange(logits.shape[0]), labels]
    z = np.empty_like(logits)
    is_max = np.empty(logits.shape, dtype=bool)

    def nll_at(t: float) -> float:
        np.divide(logits, t, out=z)
        lse = _logsumexp_into(z, row_max / t, is_max)
        return float(np.mean(lse - label_logits / t))
    return nll_at


def fit_temperature(preds: PredictionSet) -> Temperature:
    """Golden-section search for the NLL-minimizing temperature.

    The search runs over log T in [T_MIN, T_MAX] until the bracket is
    narrower than T_TOL in temperature units.  If the optimum does not
    strictly improve on T=1, the identity temperature is returned.
    """
    nll_at = _nll_curve(_as_logits(preds), preds.labels)

    def f(u: float) -> float:
        return nll_at(math.exp(u))

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
    nll_one = nll_at(1.0)
    nll_star = nll_at(t_star)
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
