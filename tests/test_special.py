"""Gamma / Bessel / binomial substrate against independent references."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fraclat import special as _special
from fraclat import (
    PoleError,
    bessel_i_scaled,
    bessel_i_scaled_row,
    binomial,
    gamma,
    log_gamma,
    log_gamma_ratio,
    reciprocal_gamma,
)

# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_at_one():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)


def test_gamma_at_half():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_at_minus_half():
    # one recursion step: Gamma(0.5) = (-0.5) Gamma(-0.5)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13, 1e-13])
def test_gamma_pole_error(z):
    with pytest.raises(PoleError):
        gamma(z)


def test_gamma_overflow_error():
    with pytest.raises(OverflowError):
        gamma(200.0)


def test_gamma_recursion_property(rng):
    # |Gamma(z+1) - z Gamma(z)| <= 1e-12 |Gamma(z+1)| away from the poles
    checked = 0
    while checked < 200:
        z = float(rng.uniform(-10.0, 10.0))
        if z < 0.5 and abs(z - round(z)) < 1e-6:
            continue
        if z + 1.0 < 0.5 and abs(z + 1.0 - round(z + 1.0)) < 1e-6:
            continue
        checked += 1
        lhs = gamma(z + 1.0)
        assert abs(lhs - z * gamma(z)) <= 1e-12 * abs(lhs)


def test_gamma_matches_stdlib_on_positive_axis(rng):
    # exp(log_gamma) amplifies the log-space error by |ln Gamma|, which
    # reaches ~700 near the overflow edge; 1e-12 is the module contract
    for _ in range(300):
        z = float(rng.uniform(1e-3, 170.0))
        assert gamma(z) == pytest.approx(math.gamma(z), rel=1e-12)


def test_gamma_matches_mpmath_on_negative_axis(rng):
    for _ in range(100):
        z = float(rng.uniform(-30.0, -1e-3))
        if abs(z - round(z)) < 1e-3:
            continue
        ref = float(mpmath.gamma(z))
        assert gamma(z) == pytest.approx(ref, rel=1e-12)


def test_reflection_consistency(rng):
    # Gamma(s)Gamma(1-s) = (-1)^{k+1} Gamma(k-s) Gamma(1+s-k)
    for _ in range(50):
        s = float(rng.uniform(0.05, 4.95))
        if abs(s - round(s)) < 1e-3:
            continue
        k = int(rng.integers(1, 21))
        lhs = gamma(s) * gamma(1.0 - s)
        rhs = (-1.0) ** (k + 1) * gamma(k - s) * gamma(1.0 + s - k)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_duplication_consistency(rng):
    # Gamma(s)Gamma(s+1/2) = 2^{1-2s} sqrt(pi) Gamma(2s)
    for _ in range(50):
        s = float(rng.uniform(0.05, 10.0))
        lhs = gamma(s) * gamma(s + 0.5)
        rhs = 2.0 ** (1.0 - 2.0 * s) * math.sqrt(math.pi) * gamma(2.0 * s)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_power_ratio_inequality(rng):
    # sanity suite for floating-point powers:
    # min(lam, 1) <= (b^lam - a^lam) / (b^{lam-1}(b - a)) <= max(lam, 1)
    for _ in range(300):
        a = float(rng.uniform(0.0, 100.0))
        b = float(rng.uniform(0.0, 100.0))
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        lam = float(rng.uniform(1e-3, 5.0))
        q = (b**lam - a**lam) / (b ** (lam - 1.0) * (b - a))
        assert min(lam, 1.0) - 1e-9 <= q <= max(lam, 1.0) + 1e-9


# ---------------------------------------------------------------------------
# reciprocal gamma
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -15.0, -4.0 - 1e-13])
def test_reciprocal_gamma_zero_at_poles(z):
    assert reciprocal_gamma(z) == 0.0


def test_reciprocal_gamma_values():
    assert reciprocal_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert reciprocal_gamma(3.0) == pytest.approx(0.5, rel=1e-14)
    assert reciprocal_gamma(-0.5) == pytest.approx(-1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)


def test_reciprocal_gamma_total_on_reals(rng):
    for _ in range(200):
        z = float(rng.uniform(-40.0, 40.0))
        val = reciprocal_gamma(z)  # must never raise
        assert math.isfinite(val)


# ---------------------------------------------------------------------------
# log-gamma ratio
# ---------------------------------------------------------------------------


def test_log_gamma_ratio_simple():
    assert log_gamma_ratio(3.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-14)
    assert log_gamma_ratio(5.0, 5.0) == 0.0
    assert log_gamma_ratio(100.5, 101.5) == pytest.approx(-math.log(100.5), rel=1e-14)


def test_log_gamma_ratio_domain():
    with pytest.raises(ValueError):
        log_gamma_ratio(-1.0, 2.0)
    with pytest.raises(ValueError):
        log_gamma_ratio(2.0, 0.0)


@pytest.mark.parametrize(
    "a, b", [(math.nan, 2.0), (2.0, math.inf), (math.inf, 2.0), (-math.inf, 2.0)]
)
def test_log_gamma_ratio_rejects_non_finite(a, b):
    # the scalar path, with Python and numpy scalars, and the array path
    for args in [(a, b), (np.float64(a), np.float64(b)), (np.array([a, 1.5]), np.array([b, 3.0]))]:
        with pytest.raises(ValueError, match="positive finite arguments"):
            log_gamma_ratio(*args)


def test_log_gamma_ratio_large_arguments_vs_mpmath():
    # exp of the ratio must keep 1e-12 relative accuracy up to 1e6
    with mpmath.workdps(40):
        for a, b in [
            (1e5 - 0.25, 1e5 + 1.75),
            (1e6 - 3.0, 1e6 + 4.0),
            (12345.5, 12349.25),
            (999999.0, 2.5),
        ]:
            ref = float(mpmath.log(mpmath.gamma(a) / mpmath.gamma(b)))
            got = log_gamma_ratio(a, b)
            # relative error of exp(result) ~ absolute error of result
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_log_gamma_ratio_vectorized(rng):
    a = rng.uniform(0.5, 50.0, size=32)
    b = rng.uniform(0.5, 50.0, size=32)
    vec = log_gamma_ratio(a, b)
    for i in range(32):
        assert vec[i] == pytest.approx(log_gamma_ratio(float(a[i]), float(b[i])), rel=1e-13, abs=1e-13)


def test_log_gamma_vs_stdlib(rng):
    for _ in range(400):
        x = float(rng.uniform(1e-4, 500.0))
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=5e-13)


# ---------------------------------------------------------------------------
# scalar path against the array path
# ---------------------------------------------------------------------------

# reflection (< 0.5), integers, half-integers, large arguments, and np.float64
_SCALAR_GRID = [
    1e-300, 1e-12, 0.1, 0.25, 0.49999999999999994, 0.5, 0.75, 1.0, 1, 2, 2.5,
    3.7, 7, 10.5, 33.3, 170.6, 1e5, 1e5 + 0.25, np.float64(0.3), np.float64(12.0),
]  # fmt: skip
_SINPI_GRID = _SCALAR_GRID + [
    -0.0, 0.0, -0.5, -1.5, -2.5, 1.5, -3, -7.25, 4503599627370497.0, -1e300,
    math.nan, math.inf, -math.inf, np.float64(-2.5),
]  # fmt: skip
_BAD_ARGUMENTS = [0.0, 0, -1.0, -1, math.nan, math.inf]


def _outcome(fn, *args):
    """What a call gives: its exception (type and message) or its value's bits."""
    try:
        with np.errstate(all="ignore"):  # nan and inf warn on the array path only
            value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return np.float64(np.ravel(value)[0]).tobytes()


def _array_path(fn):
    """Call ``fn`` with every argument as a 1-element array."""
    return lambda *args: fn(*(np.array([a], dtype=float) for a in args))


@pytest.mark.parametrize("x", _SCALAR_GRID + _BAD_ARGUMENTS)
def test_log_gamma_scalar_path_matches_array_path(x):
    assert _outcome(log_gamma, x) == _outcome(_array_path(log_gamma), x)


@pytest.mark.parametrize("a", _SCALAR_GRID + _BAD_ARGUMENTS)
def test_log_gamma_ratio_scalar_path_matches_array_path(a):
    for b in (a, 0.5, 1.0, 3.25, 1e5, np.float64(2.0), 0.0, -1.0, math.nan):
        assert _outcome(log_gamma_ratio, a, b) == _outcome(_array_path(log_gamma_ratio), a, b)


@pytest.mark.parametrize("x", _SINPI_GRID)
def test_sinpi_scalar_path_matches_array_path(x):
    assert _outcome(_special._sinpi, x) == _outcome(_array_path(_special._sinpi), x)


@pytest.mark.parametrize("fn", [gamma, reciprocal_gamma])
def test_gamma_scalar_path_matches_array_path(fn, monkeypatch):
    grid = _SCALAR_GRID + _BAD_ARGUMENTS + [-0.5, -2.5, -7.3, -30.1, -3.0 + 1e-13]
    scalar = [_outcome(fn, z) for z in grid]
    # gamma and reciprocal_gamma reach the array path through a 0-d array
    array_log_gamma = _special.log_gamma
    monkeypatch.setattr(_special, "log_gamma", lambda x: array_log_gamma(np.asarray(x)))
    assert scalar == [_outcome(fn, z) for z in grid]


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_at_zero_argument():
    assert bessel_i_scaled(0, 0.0) == 1.0
    assert bessel_i_scaled(3, 0.0) == 0.0


def test_bessel_symmetry_exact(rng):
    for _ in range(50):
        k = int(rng.integers(0, 30))
        x = float(rng.uniform(0.0, 100.0))
        assert bessel_i_scaled(k, x) == bessel_i_scaled(-k, x)


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_i_scaled(0, -1.0)


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_bessel_mass_identity(x):
    # e^{-x} [I_0 + 2 sum_{k>=1} I_k] = 1; truncate where the tail is certified
    kmax = int(math.ceil(math.sqrt(92.0 * x))) + 20
    row = bessel_i_scaled_row(x, kmax)
    total = row[0] + 2.0 * row[1:].sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bessel_against_scipy():
    # both regimes (series x <= 30, recurrence above) plus the far switch
    for x in (1e-3, 0.7, 5.0, 29.5, 30.5, 123.0, 4096.0, 1e4):
        row = bessel_i_scaled_row(x, 40)
        ref = sps.ive(np.arange(41), x)
        assert np.max(np.abs(row - ref)) < 1e-13


def test_bessel_high_orders_against_scipy():
    # orders well beyond sqrt(x), where the recurrence start index matters
    for x in (50.0, 300.0):
        row = bessel_i_scaled_row(x, 120)
        ref = sps.ive(np.arange(121), x)
        assert np.max(np.abs(row - ref)) < 1e-13


def test_bessel_asymptotic_regime_against_scipy():
    for x in (1e6, 1e8):
        row = bessel_i_scaled_row(x, 8)
        ref = sps.ive(np.arange(9), x)
        assert np.max(np.abs(row - ref) / ref) < 1e-10


def test_bessel_against_mpmath_spot():
    with mpmath.workdps(40):
        for k, x in [(0, 17.0), (7, 250.0), (25, 1e4), (3, 30.0)]:
            ref = float(mpmath.besseli(k, x) * mpmath.exp(-x))
            assert bessel_i_scaled(k, x) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def _bessel_row_series_reference(x, kmax):
    """The ascending series summed one order at a time (DLMF 10.25.2)."""
    q = 0.25 * x * x
    out = np.zeros(kmax + 1)
    for k in range(kmax + 1):
        log_t0 = k * math.log(0.5 * x) - log_gamma(k + 1.0)
        if log_t0 - x < -745.0:  # scaled leading term underflows
            continue
        term = math.exp(log_t0)
        total = term
        j = 0
        while True:
            j += 1
            term *= q / (j * (j + k))
            total += term
            if term <= 1e-18 * total:
                break
        out[k] = math.exp(-x) * total
    return out


@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 3.7, 10.0, 29.9, 30.0])
def test_bessel_series_matches_per_order_reference(x):
    for kmax in (0, 1, 5, 64, 200, 600):
        row = bessel_i_scaled_row(x, kmax)
        want = _bessel_row_series_reference(x, kmax)
        assert np.array_equal(row == 0.0, want == 0.0)
        nz = want != 0.0
        assert np.all(np.abs(row[nz] - want[nz]) <= 2e-15 * want[nz])


def _bessel_row_series_active_set(x, kmax):
    """The series summed as a loop over j with an active set of orders.

    Returns the row and the number of steps j taken; the block-summed
    production code must reproduce this loop bit for bit.
    """
    q = 0.25 * x * x
    k = np.arange(kmax + 1)
    log_t0 = k * math.log(0.5 * x) - log_gamma(k + 1.0)
    out = np.zeros(kmax + 1)
    active = np.flatnonzero(log_t0 - x >= -745.0)
    term = np.exp(log_t0[active])
    total = term.copy()
    j = 0
    while active.size:
        j += 1
        term *= q / (j * (j + active))
        total += term
        done = term <= 1e-18 * total
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, term, total = active[keep], term[keep], total[keep]
    return math.exp(-x) * out, j


def test_bessel_series_matches_active_set_loop():
    steps = []
    for x in (1e-4, 1e-3, 0.1, 1.0, 3.7, 10.0, 29.9, 30.0):
        for kmax in (0, 1, 5, 24, 25, 64, 200, 600):
            want, j = _bessel_row_series_active_set(x, kmax)
            assert np.array_equal(bessel_i_scaled_row(x, kmax), want), (x, kmax)
            steps.append(j)
    # some rows run past one block, so carrying terms and sums over is tested
    assert max(steps) > 2 * _special._SERIES_BLOCK
    assert min(steps) < _special._SERIES_BLOCK


def test_bessel_deep_order_tail():
    # orders far beyond sqrt(x): values underflow cleanly, no overflow mid-pass
    row = bessel_i_scaled_row(35.0, 500)
    assert row[500] == pytest.approx(0.0, abs=1e-280)
    assert np.all(np.isfinite(row))
    assert np.all(row >= 0.0)


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------


def test_binomial_values():
    assert binomial(4, 2) == 6.0
    assert binomial(4, 0) == 1.0
    assert binomial(6, 3) == 20.0
    assert binomial(0, 0) == 1.0


def test_binomial_exact_small():
    for n in range(0, 61):
        for k in range(0, n + 1, 7):
            assert binomial(n, k) == float(math.comb(n, k))


def test_binomial_large_via_log_gamma():
    assert binomial(100, 40) == pytest.approx(float(math.comb(100, 40)), rel=1e-12)


def test_binomial_domain():
    with pytest.raises(ValueError):
        binomial(4, -1)
    with pytest.raises(ValueError):
        binomial(4, 5)
