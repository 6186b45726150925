"""Operator application paths against brute-force and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import (
    BudgetExceededError,
    NearIntegerOrderError,
    OperatorSpec,
    QuadratureConvergenceError,
    Sequence,
    apply,
    apply_composed,
    apply_fractional,
    apply_integer_power,
    apply_quadrature_oracle,
    axpy,
    delta,
    heat_semigroup,
    inner,
    kernel_extended,
    kernel_sum,
    log_norm_estimate,
    norm,
    sup_dist,
)
from fraclat import kernel as _kernel
from fraclat.operators import _fft_size, fftconvolve
from conftest import random_sequence


def brute_force_series(u, s, out_radius):
    """Index-by-index evaluation of A_s u(n) - sum_k K_s(n-k) u(k)."""
    a_s = kernel_sum(s)
    lo, hi = u.offset - out_radius, u.end - 1 + out_radius
    vals = []
    for n in range(lo, hi + 1):
        acc = a_s * u.at(n)
        for k in range(u.offset, u.end):
            acc -= kernel_extended(s, n - k) * u.at(k)
        vals.append(acc)
    return Sequence(lo, np.array(vals))


# ---------------------------------------------------------------------------
# integer powers
# ---------------------------------------------------------------------------


def test_integer_power_stencils():
    p1 = apply_integer_power(delta(0), 1)
    assert p1.offset == -1
    assert list(p1.values) == [-1.0, 2.0, -1.0]
    p2 = apply_integer_power(delta(0), 2)
    assert p2.offset == -2
    assert list(p2.values) == [1.0, -4.0, 6.0, -4.0, 1.0]


def test_integer_power_identity_and_constant():
    u = Sequence(-3, np.arange(1.0, 8.0))
    assert apply_integer_power(u, 0) is u
    c = Sequence(0, np.ones(9))
    out = apply_integer_power(c, 1)
    # second difference of a constant vanishes on the interior
    for n in range(1, 8):
        assert out.at(n) == 0.0


def test_integer_power_support_widening(rng):
    u = random_sequence(rng, width=5)
    for m in (1, 2, 3):
        out = apply_integer_power(u, m)
        assert out.offset == u.offset - m
        assert out.end == u.end + m


def test_integer_power_composition(rng):
    u = random_sequence(rng, width=6)
    twice = apply_integer_power(apply_integer_power(u, 1), 1)
    assert sup_dist(twice, apply_integer_power(u, 2)) == 0.0


# ---------------------------------------------------------------------------
# kernel series
# ---------------------------------------------------------------------------


def test_fractional_on_delta_half_order():
    out = apply_fractional(delta(0), OperatorSpec(0.5, 64))
    assert out.at(0) == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert out.at(1) == pytest.approx(-4.0 / (3.0 * math.pi), rel=1e-12)
    assert out.trunc_bound > 0.0


def test_fractional_at_integer_order_is_stencil():
    out = apply_fractional(delta(0), OperatorSpec(1.0, 16))
    assert out.offset == -1
    assert list(out.values) == [-1.0, 2.0, -1.0]
    assert out.trunc_bound == 0.0


def test_fractional_matches_brute_force(rng):
    for s in (0.4, 1.3, 2.6):
        u = random_sequence(rng, width=6)
        got = apply_fractional(u, OperatorSpec(s, 12))
        want = brute_force_series(u, s, 12)
        assert sup_dist(got, want) < 1e-12


def test_fractional_budget_gate():
    spec = OperatorSpec(0.5, 16, "series", error_budget=1e-12)
    with pytest.raises(BudgetExceededError):
        apply_fractional(delta(0), spec)


def test_fractional_self_adjoint(rng):
    spec = OperatorSpec(0.7, 24)
    for _ in range(10):
        u = random_sequence(rng, width=5, offset=-2)
        v = random_sequence(rng, width=7, offset=-3)
        lhs = inner(apply_fractional(u, spec), v)
        rhs = inner(u, apply_fractional(v, spec))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_composed_routes():
    c2 = apply_composed(delta(0), 2.0, 16)
    assert list(c2.values) == [1.0, -4.0, 6.0, -4.0, 1.0]
    # floor = 0 branch is the plain fractional path
    a = apply_composed(delta(0), 0.5, 32)
    b = apply_fractional(delta(0), OperatorSpec(0.5, 32))
    assert a == b


def test_composed_agrees_with_direct():
    a = apply_composed(delta(0), 1.5, 256)
    b = apply_fractional(delta(0), OperatorSpec(1.5, 256))
    assert sup_dist(a, b) < 1e-8


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(0.5, 16, "binomial")
    with pytest.raises(ValueError):
        OperatorSpec(2.0, 16, "quadrature")
    with pytest.raises(ValueError):
        OperatorSpec(-1.0, 16)
    with pytest.raises(ValueError):
        OperatorSpec(0.5, 0)
    with pytest.raises(ValueError):
        OperatorSpec(0.5, 16, "fourier")


def test_operator_spec_rejects_nan_order():
    with pytest.raises(ValueError, match="order must be positive and finite"):
        OperatorSpec(math.nan, 16)


def test_operator_spec_rejects_nan_budget():
    with pytest.raises(ValueError, match="error_budget"):
        OperatorSpec(0.5, 16, error_budget=math.nan)
    assert OperatorSpec(0.5, 16).error_budget == math.inf


def test_apply_dispatcher(rng):
    u = random_sequence(rng, width=4)
    assert apply(u, OperatorSpec(2.0, 16, "binomial")) == apply_integer_power(u, 2)
    assert apply(u, OperatorSpec(0.5, 16, "series")) == apply_fractional(
        u, OperatorSpec(0.5, 16)
    )
    assert apply(u, OperatorSpec(2.5, 16, "composed")) == apply_composed(u, 2.5, 16)


def _reflect(u):
    return Sequence(-(u.end - 1), u.values[::-1])


# a fixed set of examples: the four properties add about a second to the suite
_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# orders on both sides of the integers, radii and lengths on both sides of
# the 64-point switch from direct sums to the FFT
_orders = st.floats(min_value=0.05, max_value=3.9)
_radii = st.integers(min_value=5, max_value=80)
_lengths = st.integers(min_value=1, max_value=160)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)
# multiples of 1/4: no subnormal products, whose relative error is not ~1e-16
_coefficients = st.integers(min_value=-8, max_value=8).map(lambda k: k / 4)


def _property_input(seed, length, offset=0):
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=length)
    vals[[0, -1]] = 1.0  # the support is exactly the drawn window
    return Sequence(offset, vals)


@_PROPERTY_SETTINGS
@given(_orders, _radii, _lengths, _seeds, _coefficients, _coefficients)
def test_fractional_is_linear(s, radius, length, seed, a, b):
    spec = OperatorSpec(s, radius)
    u = _property_input(seed, length)
    v = _property_input(seed + 1, length)
    w = apply_fractional(axpy(a, u, Sequence(0, b * v.values)), spec)
    if len(w) == 0:
        return
    # w's window is complete; u's and v's cover it, since w's support lies in theirs
    lo, hi = w.offset, w.end - 1
    want = a * apply_fractional(u, spec).window(lo, hi)
    want += b * apply_fractional(v, spec).window(lo, hi)
    scale = kernel_sum(s) * (abs(a) + abs(b))
    assert np.max(np.abs(w.window(lo, hi) - want)) <= 1e-12 * scale


@_PROPERTY_SETTINGS
@given(_orders, _radii, _lengths, _seeds, st.integers(-50, 50))
def test_fractional_reflection_symmetric(s, radius, length, seed, offset):
    spec = OperatorSpec(s, radius)
    u = _property_input(seed, length, offset)
    got = apply_fractional(_reflect(u), spec)
    want = _reflect(apply_fractional(u, spec))
    assert (got.offset, len(got)) == (want.offset, len(want))
    assert sup_dist(got, want) <= 1e-12 * kernel_sum(s)


@_PROPERTY_SETTINGS
@given(_orders, _radii, _lengths, _seeds, st.integers(-1000, 1000))
def test_fractional_translation_equivariant(s, radius, length, seed, shift):
    spec = OperatorSpec(s, radius)
    u = _property_input(seed, length)
    base = apply_fractional(u, spec)
    moved = apply_fractional(Sequence(shift, u.values), spec)
    assert moved.offset == base.offset + shift
    assert moved.values.tobytes() == base.values.tobytes()


@_PROPERTY_SETTINGS
@given(_orders, _radii, _lengths, _seeds)
def test_fractional_cache_hit_equals_cold_call(s, radius, length, seed):
    spec = OperatorSpec(s, radius)
    u = _property_input(seed, length)
    _kernel._convolution_kernel.cache_clear()
    _kernel.build_table.cache_clear()
    cold = apply_fractional(u, spec)
    hit = apply_fractional(u, spec)
    assert _kernel._convolution_kernel.cache_info().hits == 1
    assert (hit.offset, hit.trunc_bound) == (cold.offset, cold.trunc_bound)
    assert hit.values.tobytes() == cold.values.tobytes()


def test_fft_size_is_smallest_5_smooth_length():
    smooth = sorted(
        2**i * 3**j * 5**k
        for i in range(16)
        for j in range(10)
        for k in range(7)
        if 2**i * 3**j * 5**k <= 40_000
    )
    for n in range(1, 20_001):
        na = (n + 1) // 2
        want = smooth[np.searchsorted(smooth, n)]
        assert _fft_size(na, n + 1 - na) == want, n
    assert _fft_size(4097, 8321) == 12_500


@pytest.mark.parametrize(
    "na, nb",
    [(63, 65), (65, 100), (64, 4097), (1000, 8321)]
    + [(100, 201), (129, 385), (257, 513), (4097, 8321)],  # 300, 540, 800, 12500 points
)
def test_fftconvolve_matches_direct(rng, na, nb):
    a = rng.uniform(-1.0, 1.0, size=na)
    b = rng.uniform(-1.0, 1.0, size=nb)
    want = np.convolve(a, b)
    got = fftconvolve(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # a batch of rows with the transform of b precomputed gives the same rows
    rows = np.stack([a, a[::-1]])
    spectrum = np.fft.rfft(b, _fft_size(na, nb))
    batched = fftconvolve(rows, b, spectrum)
    assert np.array_equal(batched[0], got)
    assert np.array_equal(batched[1], fftconvolve(a[::-1], b))


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------


def test_semigroup_identity_at_zero():
    u = Sequence(-1, np.array([0.5, -1.0, 2.0]))
    assert heat_semigroup(u, 0.0, 10) is u


@pytest.mark.parametrize("z", [0.5, 2.0])
def test_semigroup_mass_conservation(z):
    out = heat_semigroup(delta(0), z, 48)
    assert float(np.sum(out.values)) == pytest.approx(1.0, abs=1e-12)


def test_semigroup_contraction(rng):
    for z in (0.1, 1.0, 10.0):
        u = random_sequence(rng, width=9)
        out = heat_semigroup(u, z, 96)
        assert norm(out) <= norm(u) * (1.0 + 1e-12)


def test_semigroup_law():
    for t, z in ((0.3, 0.7), (1.0, 1.0)):
        a = heat_semigroup(heat_semigroup(delta(0), t, 48), z, 48)
        b = heat_semigroup(delta(0), t + z, 96)
        assert sup_dist(a, b) < 1e-10


def test_semigroup_generator_first_order():
    # (S_{z+h} - S_z)u / h -> Lap S_z u with O(h) error
    z = 0.5
    base = heat_semigroup(delta(0), z, 60)
    lap = apply_integer_power(base, 1)
    lap = Sequence(lap.offset, -lap.values)
    errs = []
    for h in (1e-3, 1e-4):
        bumped = heat_semigroup(delta(0), z + h, 60)
        quotient = axpy(-1.0, base, bumped)
        quotient = Sequence(quotient.offset, quotient.values / h)
        errs.append(sup_dist(quotient, lap))
    assert errs[0] < 1e-2
    assert errs[1] < 0.2 * errs[0]  # O(h): tenfold h cut shrinks the error


def test_semigroup_negative_time_rejected():
    with pytest.raises(ValueError):
        heat_semigroup(delta(0), -0.1, 10)


def test_laplacian_quadratic_form(rng):
    # <Lap u, u> = -sum_k (u(k-1) - u(k))^2
    for _ in range(10):
        u = random_sequence(rng, width=8)
        lap = apply_integer_power(u, 1)
        lap = Sequence(lap.offset, -lap.values)
        expected = -sum(
            (u.at(k - 1) - u.at(k)) ** 2 for k in range(u.offset, u.end + 1)
        )
        assert inner(lap, u) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_series_on_delta():
    for s in (0.5, 1.5):
        series = apply_fractional(delta(0), OperatorSpec(s, 24))
        oracle = apply_quadrature_oracle(delta(0), s, radius=24 - math.floor(s))
        assert sup_dist(series, oracle) < 1e-6


def test_oracle_matches_series_on_random(rng):
    u = random_sequence(rng, width=5, offset=-2)
    series = apply_fractional(u, OperatorSpec(0.7, 20))
    oracle = apply_quadrature_oracle(u, 0.7, radius=20)
    assert sup_dist(series, oracle) < 1e-6


def test_oracle_continuity_in_order():
    a = apply_quadrature_oracle(delta(0), 0.5, radius=16)
    b = apply_quadrature_oracle(delta(0), 0.5 + 1e-4, radius=16)
    assert sup_dist(a, b) <= 1e-2


def test_oracle_rejects_integer_order():
    with pytest.raises(NearIntegerOrderError):
        apply_quadrature_oracle(delta(0), 2.0)


def test_oracle_refines_its_rule_near_an_integer_order():
    # the 96- and 192-node rules differ by 5.9e-6 here; finer ones agree
    series = apply_fractional(delta(0), OperatorSpec(0.99999, 64))
    oracle = apply_quadrature_oracle(delta(0), 0.99999, radius=64)
    assert sup_dist(series, oracle) < 1e-6


def test_oracle_raises_when_the_finest_rule_does_not_converge():
    u = Sequence(-20, np.random.default_rng(1).uniform(-1.0, 1.0, 41))
    with pytest.raises(QuadratureConvergenceError, match="1536-node"):
        apply_quadrature_oracle(u, 12.25)


@pytest.mark.parametrize("s", [math.inf, math.nan])
@pytest.mark.parametrize(
    "path",
    [
        lambda s: apply_composed(delta(0), s, 8),
        lambda s: apply_quadrature_oracle(delta(0), s),
    ],
    ids=["composed", "quadrature"],
)
def test_non_finite_order_rejected(path, s):
    with pytest.raises(ValueError, match="order must be positive and finite"):
        path(s)


# ---------------------------------------------------------------------------
# logarithmic norm of the window-restricted operator
# ---------------------------------------------------------------------------


def test_log_norm_closed_form():
    # Dirichlet tridiagonal Toeplitz eigenvalues: -4 sin^2(pi j/(2(N+1)))
    assert log_norm_estimate(2) == pytest.approx(-1.0, abs=1e-14)
    for n in (5, 16, 40):
        want = -4.0 * math.sin(math.pi / (2.0 * (n + 1))) ** 2
        assert log_norm_estimate(n) == pytest.approx(want, rel=1e-14)


def test_log_norm_power_iteration_agrees():
    for n in (2, 5, 16, 40):
        closed = log_norm_estimate(n)
        power = log_norm_estimate(n, method="power")
        assert abs(closed - power) < 1e-10


def test_log_norm_matrix_oracle():
    n = 16
    mat = -2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    top = float(np.linalg.eigvalsh(mat)[-1])
    assert log_norm_estimate(n) == pytest.approx(top, rel=1e-12)


def test_log_norm_strictly_negative_large_window():
    val = log_norm_estimate(10**4)
    assert val < 0.0
    assert abs(val) < 1e-6


def test_log_norm_validation():
    with pytest.raises(ValueError):
        log_norm_estimate(1)
    with pytest.raises(ValueError):
        log_norm_estimate(10, method="magic")
