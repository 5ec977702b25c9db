"""Temperature scaling: a single scalar that rescales logits before softmax.

The scalar is fit by minimizing mean negative log-likelihood on a held-out
set.  The objective is unimodal in 1/T, so a golden-section search over
log-temperature finds the minimum without derivatives.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .predictions import PredictionSet, _check_logits, _softmax, _trusted

T_MIN = 0.05
T_MAX = 20.0
T_TOL = 1e-4

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Temperature:
    """A fitted temperature with NLL before/after on the fitting set.

    ``at_bound`` is True when the optimum lies within ``T_TOL`` of
    ``T_MIN`` or ``T_MAX``: the search stopped at the edge of its range,
    so the NLL may keep falling beyond it.  It is ``near_bound(value)``;
    ``calibrex eval``, which sees only the records' temperatures, applies
    ``near_bound`` to those, so the flag and the warning agree.
    """

    value: float
    nll_before: float
    nll_after: float
    at_bound: bool = False


def near_bound(t: float) -> bool:
    """True when temperature t lies within T_TOL of T_MIN or T_MAX."""
    return t - T_MIN <= T_TOL or T_MAX - t <= T_TOL


def _as_logits(preds: PredictionSet) -> np.ndarray:
    if preds.is_probabilities:
        z = np.maximum(preds.scores, 1e-12)
        return np.log(z, out=z)
    return preds.scores


def _logsumexp_into(z: np.ndarray, zmax: np.ndarray, max_rows: np.ndarray,
                    max_at: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of z, with the arithmetic of scipy's
    ``logsumexp``, given the row maxima ``zmax``.

    ``max_at`` holds the flat index into z of every entry equal to its row
    max, ``max_rows`` that entry's row.  The row maxima are left out of the
    shifted sum and enter as the log of their count:
    ``log1p(sum / count) + log(count) + max``.  z (C-contiguous) is
    overwritten.
    """
    count = np.bincount(max_rows, minlength=z.shape[0]).astype(z.dtype)
    np.subtract(z, zmax[:, None], out=z)
    z.ravel()[max_at] = -np.inf
    s = np.exp(z, out=z).sum(axis=1)
    return np.log1p(s / count) + np.log(count) + zmax


# below this magnitude, x / t cannot overflow for any t >= T_MIN / 2
_NO_OVERFLOW = sys.float_info.max * (T_MIN / 4)


def _nll_curve(logits: np.ndarray, labels: np.ndarray):
    """``t -> mean NLL of softmax(logits / t)`` for t in [T_MIN, T_MAX],
    with per-fit work hoisted.

    Division by t > 0 is monotone, so the row max of ``logits / t`` is the
    row max M of the logits divided by t, exactly; it and the label logits
    are taken once, and each call reuses one N x K buffer.  Two distinct
    logits can still round to one value after division, so the entries
    equal to the row max are found anew at each t, but only among
    candidates collected once: x is one if ``x >= M - (|M| * 2**-40 +
    2**-1000)`` or ``|x|`` may overflow when divided by t.

    Why that is every entry that can tie: if ``fl(x/t) == fl(M/t) == v``
    for x < M, the exact quotients lie in v's rounding interval, so
    ``(M - x)/t <= ulp(v) <= 2**-52 |v| + 2**-1074``.  For finite v,
    ``|v|`` exceeds ``|M|/t`` by at most half an ulp, so
    ``M - x <= 2**-51 |M| + 2t * 2**-1074``: far inside the margin for
    any t up to 2 * T_MAX, also after the cutoff's own rounding (at most
    ``2**-53`` of |M| or of the margin).  Infinite v needs ``|x|/t`` to
    overflow, which the second test covers for t down to T_MIN / 2.
    """
    n, k = logits.shape
    row_max = logits.max(axis=1)
    label_logits = logits[np.arange(n), labels]
    cutoff = row_max - (np.abs(row_max) * 2.0 ** -40 + 2.0 ** -1000)
    near = logits >= cutoff[:, None]
    near |= np.abs(logits) >= _NO_OVERFLOW
    rows, cols = np.nonzero(near)
    at = rows * k + cols
    values = logits[rows, cols]
    z = np.empty(logits.shape)  # C order, which ``at`` indexes

    def nll_at(t: float) -> float:
        np.divide(logits, t, out=z)
        zmax = row_max / t
        is_max = values / t == zmax[rows]
        lse = _logsumexp_into(z, zmax, rows[is_max], at[is_max])
        return float(np.mean(lse - label_logits / t))
    return nll_at


def fit_temperature(preds: PredictionSet) -> Temperature:
    """Golden-section search for the NLL-minimizing temperature.

    The search runs over log T in [T_MIN, T_MAX] until the bracket is
    narrower than T_TOL in temperature units.  If the optimum does not
    strictly improve on T=1, the identity temperature is returned.
    """
    return _golden_section(_nll_curve(_as_logits(preds), preds.labels))


def _golden_section(nll_at) -> Temperature:
    """``fit_temperature``'s search on the NLL curve ``t -> nll_at(t)``."""
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
    return Temperature(t_star, nll_one, nll_star, near_bound(t_star))


def apply_temperature(preds: PredictionSet, temperature) -> PredictionSet:
    """Rescale logits by 1/T and softmax; output is always probabilities."""
    t = temperature.value if isinstance(temperature, Temperature) \
        else float(temperature)
    if not 0.0 < t < math.inf:
        raise ValueError(f"temperature must be a finite positive number, "
                         f"got {t!r}")
    z = _as_logits(preds) / t
    _check_logits(z)  # huge logits over a small t overflow
    return _trusted(_softmax(z, out=z), preds.labels.copy(), True)
