"""Tests for temperature fitting and application."""
import math

import numpy as np
import pytest

from calibrex import (
    PredictionSet,
    SplitSpec,
    Temperature,
    apply_temperature,
    as_probabilities,
    fit_temperature,
    nll,
    softmax,
    split,
)
from calibrex.temperature import (T_MAX, T_MIN, T_TOL, _INV_PHI, _as_logits,
                                  _logsumexp_into, _nll_curve)


def logsumexp_rows(z):
    zmax = z.max(axis=1)
    rows, cols = np.nonzero(z == zmax[:, None])
    return _logsumexp_into(z.copy(), zmax, rows, rows * z.shape[1] + cols)


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


def golden_section(nll_at):
    """fit_temperature's golden-section search, kept here as an independent
    reference: over log T in [T_MIN, T_MAX] on the curve ``nll_at``."""
    def f(u):
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
    at_bound = t_star - T_MIN <= T_TOL or T_MAX - t_star <= T_TOL
    return Temperature(t_star, nll_one, nll_star, at_bound)


def fit_unhoisted(preds):
    """fit_temperature's golden-section search on ``nll_at_unhoisted``."""
    logits, labels = _as_logits(preds), preds.labels
    return golden_section(lambda t: nll_at_unhoisted(logits, labels, t))


def nll_curve_full_matrix(logits, labels):
    """The hoisted NLL curve as it was before the candidates-only max test:
    every evaluation compares, counts and masks the whole N x K matrix."""
    row_max = logits.max(axis=1)
    label_logits = logits[np.arange(logits.shape[0]), labels]
    z = np.empty_like(logits)
    is_max = np.empty(logits.shape, dtype=bool)

    def nll_at(t):
        np.divide(logits, t, out=z)
        zmax = row_max / t
        col = zmax[:, None]
        np.equal(z, col, out=is_max)
        count = is_max.sum(axis=1, dtype=z.dtype)
        np.subtract(z, col, out=z)
        np.copyto(z, -np.inf, where=is_max)
        s = np.exp(z, out=z).sum(axis=1)
        lse = np.log1p(s / count) + np.log(count) + zmax
        return float(np.mean(lse - label_logits / t))
    return nll_at


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
    # inf once gave 1/K in every row, with no error
    for bad in (0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^temperature must be a "
                           f"finite positive number, got {bad}$"):
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


# ---------------------------------------------------------------------------
# the candidates-only max test against the full-matrix curve
# ---------------------------------------------------------------------------

def full_matrix_cases():
    """(name, logits, labels) where row maxima tie, nearly tie or sit at
    extreme magnitudes."""
    rng = np.random.default_rng(23)
    n, k = 240, 7
    labels = rng.integers(0, k, n)
    z = rng.normal(scale=3.0, size=(n, k))
    tied = z.copy()
    tied[:, 2] = tied.max(axis=1)               # a second exact maximum
    tied[::3, 5] = tied[::3, 2]                 # and a third in some rows
    yield "exact ties", tied, labels
    near = z.copy()
    top = z.max(axis=1) * np.exp(rng.uniform(-30, 30, n))  # 1e-13 .. 1e13
    near[:, 0] = top
    below = top
    for col in (1, 3, 6):                       # 1, 2 and 3 ulps below
        below = np.nextafter(below, -np.inf)
        near[:, col] = below
    near[:, 4] = np.nextafter(top, np.inf)      # and one ulp above
    yield "near ties", near, labels
    tiny = np.array([5e-324, 1e-323, 2e-323, 0.0, -5e-324, 1e-310, 3e-310])
    yield "subnormal", tiny[rng.integers(0, 7, (n, k))], labels
    yield "large", z * 1e300, labels
    probs = as_probabilities(PredictionSet(z * 4.0, labels))
    yield "probabilities", _as_logits(probs), labels
    one_hot = PredictionSet(np.eye(k)[labels], labels, is_probabilities=True)
    yield "floored probabilities", _as_logits(one_hot), labels


@pytest.mark.parametrize("name,logits,labels", list(full_matrix_cases()))
def test_nll_curve_matches_full_matrix_bit_for_bit(name, logits, labels):
    ts = [T_MIN, *np.geomspace(T_MIN, T_MAX, 41)[1:-1], 1.0, T_MAX]
    fast = _nll_curve(logits, labels)
    full = nll_curve_full_matrix(logits, labels)
    for t in ts:
        assert fast(t) == full(t), t
    # one row at a time, so no last-bit difference hides in the mean
    for i in range(0, logits.shape[0], 7):
        one = slice(i, i + 1)
        fast = _nll_curve(logits[one], labels[one])
        full = nll_curve_full_matrix(logits[one], labels[one])
        for t in ts[::4]:
            assert fast(t) == full(t), (t, i)
    assert fit_temperature(PredictionSet(logits, labels)) == golden_section(
        nll_curve_full_matrix(logits, labels))


@pytest.mark.parametrize("name,logits,labels", list(full_matrix_cases()))
def test_fit_ignores_the_memory_layout_of_the_scores(name, logits, labels):
    # a Fortran-ordered input must fit the same bits as a C-ordered one
    fortran = np.asfortranarray(logits)
    preds = PredictionSet(fortran, labels)
    assert preds.scores.flags.c_contiguous
    assert fit_temperature(preds) == fit_temperature(
        PredictionSet(logits, labels))
    # and the curve itself must not assume the layout of its input
    fast, full = _nll_curve(fortran, labels), _nll_curve(logits, labels)
    for t in (T_MIN, 0.7, 1.0, 3.0, T_MAX):
        assert fast(t) == full(t), t


def test_fit_flags_a_temperature_pinned_at_a_bound():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, 500)
    # near-zero logits, perfect labels: the NLL falls all the way to T_MIN
    sharp = fit_temperature(PredictionSet(1e-3 * np.eye(4)[labels], labels))
    assert sharp.value - T_MIN <= T_TOL and sharp.at_bound
    # confident logits, random labels: the NLL falls all the way to T_MAX
    noisy = fit_temperature(PredictionSet(
        20.0 * np.eye(4)[rng.integers(0, 4, 500)], labels))
    assert T_MAX - noisy.value <= T_TOL and noisy.at_bound
    assert not fit_temperature(planted_preds(2.0)).at_bound
    # the identity fallback is never at a bound
    flat = fit_temperature(PredictionSet(np.zeros((10, 3)), np.arange(10) % 3))
    assert flat.value == 1.0 and not flat.at_bound


def test_nll_curve_matches_full_matrix_when_division_overflows():
    # 5e307 / T_MIN and 1e308 / T_MIN both round to inf: a tie at the max
    # that no relative margin around 1e308 finds (missing it gives NaN)
    logits = np.array([[1e308, 5e307, 1.0], [3.0, 1.0, 2.0]])
    labels = np.array([2, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (T_MIN, 0.1, 1.0):
            want = nll_curve_full_matrix(logits, labels)(t)
            assert _nll_curve(logits, labels)(t) == want, t
        assert nll_curve_full_matrix(logits, labels)(T_MIN) == np.inf
