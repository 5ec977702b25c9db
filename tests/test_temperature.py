"""Tests for temperature fitting and application."""
import math

import numpy as np
import pytest

from calibrex import (
    PredictionSet,
    SplitSpec,
    Temperature,
    apply_temperature,
    fit_temperature,
    nll,
    softmax,
    split,
)
from calibrex.temperature import (T_MAX, T_MIN, T_TOL, _INV_PHI, _as_logits,
                                  _logsumexp_into, _nll_curve)


def logsumexp_rows(z):
    return _logsumexp_into(z.copy(), z.max(axis=1),
                           np.empty(z.shape, dtype=bool))


def nll_at(logits, labels, t):
    return _nll_curve(logits, labels)(t)


def nll_reference(logits, labels, t):
    """Independent NLL route: explicit softmax, then log of the true class."""
    z = np.asarray(logits, dtype=np.float64) / t
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return float(-np.mean(np.log(p[np.arange(len(labels)), labels])))


def grid_minimizer(logits, labels, points=6001):
    ts = np.exp(np.linspace(np.log(T_MIN), np.log(T_MAX), points))
    vals = [nll_reference(logits, labels, t) for t in ts]
    return float(ts[int(np.argmin(vals))])


def test_logsumexp_and_nll_match_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    z = rng.normal(scale=4.0, size=(400, 12))
    tied = np.round(z)                      # ties, also at the row maximum
    one_hot = np.eye(12)[rng.integers(0, 12, 400)] * 25.0
    flat = np.zeros((5, 3))
    labels = rng.integers(0, 12, 400)
    for logits in (z, tied, one_hot, z * 1e3):
        for t in (T_MIN, 0.3, 1.0, 7.0, T_MAX):
            scaled = logits / t
            ref = special.logsumexp(scaled, axis=1)
            assert np.array_equal(logsumexp_rows(scaled), ref)
            assert nll_at(logits, labels, t) == float(np.mean(
                ref - scaled[np.arange(400), labels]))
    assert np.array_equal(logsumexp_rows(flat),
                          special.logsumexp(flat, axis=1))


def nll_at_unhoisted(logits, labels, t):
    """The NLL as every evaluation once computed it from ``logits / t``."""
    z = logits / t
    zmax = z.max(axis=1, keepdims=True)
    is_max = z == zmax
    count = is_max.sum(axis=1, keepdims=True, dtype=z.dtype)
    s = np.exp(np.where(is_max, -np.inf, z) - zmax).sum(axis=1, keepdims=True)
    lse = (np.log1p(s / count) + np.log(count) + zmax)[:, 0]
    return float(np.mean(lse - z[np.arange(z.shape[0]), labels]))


def fit_unhoisted(preds):
    """fit_temperature's golden-section search on ``nll_at_unhoisted``."""
    logits, labels = _as_logits(preds), preds.labels

    def f(u):
        return nll_at_unhoisted(logits, labels, math.exp(u))

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
    nll_one = nll_at_unhoisted(logits, labels, 1.0)
    nll_star = nll_at_unhoisted(logits, labels, t_star)
    if not nll_star < nll_one:
        return Temperature(1.0, nll_one, nll_one)
    return Temperature(t_star, nll_one, nll_star)


def overconfident_preds(k, model, n=10_000):
    """Logits of an overconfident classifier, as the benchmark generates
    them: unit Gaussians, true class shifted by mu, all scaled by mu * t."""
    rng = np.random.default_rng([k, model, 2])
    lo, hi = (1.6, 3.2) if k <= 10 else (2.4, 4.4)
    mu = rng.uniform(lo, hi)
    t = rng.uniform(1.4, 2.4)
    labels = rng.integers(0, k, size=n)
    z = rng.standard_normal((n, k))
    z[np.arange(n), labels] += mu
    return PredictionSet((z * (mu * t)).astype(np.float32), labels)


def test_nll_equals_unhoisted_formula_with_colliding_maxima():
    rng = np.random.default_rng(17)
    n, k = 300, 6
    logits = rng.normal(scale=4.0, size=(n, k))
    # rows 0..199 have top logits x and the next double above x: distinct
    # logits that often round to one value after division by t
    x = rng.uniform(-8.0, 8.0, 200)
    logits[:200, 0] = x
    logits[:200, 3] = np.nextafter(x, np.inf)
    # the other logits sit 0.01 to 40 below, so at every t some of them
    # weigh in the sum that the maxima are left out of
    gaps = np.exp(rng.uniform(np.log(0.01), np.log(40.0), (200, 4)))
    logits[:200, [1, 2, 4, 5]] = x[:, None] - gaps
    labels = rng.integers(0, k, n)
    collided = 0
    for t in np.geomspace(T_MIN, T_MAX, 31):
        assert nll_at(logits, labels, t) == nll_at_unhoisted(logits, labels,
                                                              t), t
        # one row at a time, so no last-bit difference hides in the mean
        rows = np.flatnonzero(logits[:200, 0] / t == logits[:200, 3] / t)
        collided += rows.size
        for i in rows:
            one = slice(i, i + 1)
            assert nll_at(logits[one], labels[one], t) == nll_at_unhoisted(
                logits[one], labels[one], t), (t, i)
    assert collided > 100


@pytest.mark.parametrize("k", [10, 120])
def test_fit_on_benchmark_shaped_logits_gives_unhoisted_bits(k):
    for model in (0, 1):
        fit_part, _ = split(overconfident_preds(k, model), SplitSpec(0.2, 0))
        assert fit_temperature(fit_part) == fit_unhoisted(fit_part)


def planted_preds(c, repeat=1):
    """Logits c * log(p) with labels allocated in exact proportion to p.

    The empirical label distribution then equals softmax(logits / c) row for
    row, so the population NLL minimizer sits exactly at temperature c.
    """
    blocks = [
        (np.array([0.8, 0.15, 0.05]), 20),
        (np.array([0.6, 0.3, 0.1]), 10),
        (np.array([0.45, 0.35, 0.2]), 20),
    ]
    rows, labels = [], []
    for p, copies in blocks:
        counts = np.rint(p * copies).astype(int)
        assert counts.sum() == copies
        z = c * np.log(p)
        for cls, cnt in enumerate(counts):
            for _ in range(cnt * repeat):
                rows.append(z)
                labels.append(cls)
    return PredictionSet(np.array(rows), np.array(labels))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_planted_temperature():
    for c in (0.5, 2.0, 4.0):
        fit = fit_temperature(planted_preds(c))
        assert abs(fit.value - c) < 1e-2
        assert fit.nll_after <= fit.nll_before


def test_fit_agrees_with_grid_oracle():
    rng = np.random.default_rng(0)
    for trial in range(5):
        logits = rng.normal(scale=2.0, size=(120, 4))
        labels = rng.integers(0, 4, size=120)
        preds = PredictionSet(logits, labels)
        fit = fit_temperature(preds)
        t_grid = grid_minimizer(logits, labels)
        assert abs(fit.value - t_grid) < 5e-3
        assert nll_reference(logits, labels, fit.value) == pytest.approx(
            fit.nll_after, rel=1e-12)


def test_fit_never_reports_worse_nll():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = int(rng.integers(5, 120))
        k = int(rng.choice([2, 5]))
        preds = PredictionSet(rng.normal(size=(n, k)),
                              rng.integers(0, k, size=n))
        fit = fit_temperature(preds)
        assert fit.nll_after <= fit.nll_before
        assert T_MIN <= fit.value <= T_MAX


def test_flat_objective_ties_to_identity():
    # constant rows give a uniform softmax at every temperature
    preds = PredictionSet(np.zeros((10, 3)), np.arange(10) % 3)
    fit = fit_temperature(preds)
    assert fit.value == 1.0
    assert fit.nll_before == fit.nll_after == pytest.approx(np.log(3.0),
                                                            rel=1e-12)


def test_already_calibrated_input_stays_near_identity():
    fit = fit_temperature(planted_preds(1.0))
    assert abs(fit.value - 1.0) < 1e-2


def test_fit_accepts_probability_input():
    p = planted_preds(2.0)
    probs = PredictionSet(softmax(p.scores), p.labels, is_probabilities=True)
    fit = fit_temperature(probs)
    assert abs(fit.value - 2.0) < 1e-2


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------

def test_apply_returns_probabilities_and_preserves_accuracy():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(5, 100))
        preds = PredictionSet(rng.normal(size=(n, 4)),
                              rng.integers(0, 4, size=n))
        for t in (0.3, 1.0, 2.5, 7.0):
            out = apply_temperature(preds, t)
            assert out.is_probabilities
            assert np.allclose(out.scores.sum(axis=1), 1.0, atol=1e-12)
            assert np.array_equal(out.predicted_class(),
                                  preds.predicted_class())
            assert out.accuracy() == preds.accuracy()


def test_apply_identity_is_softmax():
    rng = np.random.default_rng(3)
    preds = PredictionSet(rng.normal(size=(20, 3)), rng.integers(0, 3, 20))
    out = apply_temperature(preds, 1.0)
    assert np.array_equal(out.scores, softmax(preds.scores))


def test_apply_accepts_temperature_object():
    preds = planted_preds(2.0)
    fit = fit_temperature(preds)
    by_obj = apply_temperature(preds, fit)
    by_val = apply_temperature(preds, fit.value)
    assert np.array_equal(by_obj.scores, by_val.scores)


def test_apply_on_probabilities_round_trips_at_identity():
    rng = np.random.default_rng(4)
    p = rng.dirichlet(np.ones(3), size=30)
    preds = PredictionSet(p, rng.integers(0, 3, 30), is_probabilities=True)
    out = apply_temperature(preds, 1.0)
    assert np.max(np.abs(out.scores - p)) < 1e-12


def test_apply_rejects_nonpositive_temperature():
    preds = planted_preds(1.0)
    for bad in (0.0, -2.0):
        with pytest.raises(ValueError, match="positive"):
            apply_temperature(preds, bad)


def test_high_temperature_flattens_low_sharpens():
    preds = PredictionSet(np.array([[2.0, 0.0, -1.0]]), np.array([0]))
    hot = apply_temperature(preds, 10.0).scores[0]
    cold = apply_temperature(preds, 0.1).scores[0]
    base = softmax(preds.scores)[0]
    assert hot.max() < base.max() < cold.max()
    assert cold.max() > 0.999


def test_scaling_reduces_nll_of_overconfident_model():
    rng = np.random.default_rng(5)
    p = planted_preds(3.0, repeat=2)  # sharper than its accuracy warrants
    fit = fit_temperature(p)
    before = nll(apply_temperature(p, 1.0))
    after = nll(apply_temperature(p, fit))
    assert after < before
    assert after == pytest.approx(fit.nll_after, rel=1e-10)
