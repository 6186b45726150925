"""Kernel closed forms, integer limits, tables, and Gamma-stack identities."""

import ast
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat import (
    NearIntegerOrderError,
    asymptotic_decay_constant,
    build_table,
    decay_certificate,
    kernel_extended,
    kernel_limit_at_integer,
    kernel_row,
    kernel_sum,
    kernel_value,
    kernel_value_reference,
    partial_sum_identity_check,
)
from fraclat import kernel as _kernel

# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.25, 0.5, 1.7, 3.3])
def test_kernel_zero_lag(s):
    assert kernel_value(s, 0) == 0.0
    assert kernel_extended(s, 0) == 0.0


def test_kernel_half_order_closed_form():
    # hand evaluation with Gamma(0.5) = sqrt(pi), Gamma(-0.5) = -2 sqrt(pi),
    # Gamma(2.5) = 3 sqrt(pi)/4: both closed forms give 4 / (3 pi)
    expected = 4.0 / (3.0 * math.pi)
    assert kernel_value(0.5, 1) == pytest.approx(expected, rel=1e-13)
    assert kernel_value_reference(0.5, 1) == pytest.approx(expected, rel=1e-13)


def test_kernel_half_order_general_lag():
    # at order 1/2 the kernel telescopes to 4 / (pi (4 k^2 - 1))
    for k in (1, 2, 5, 17, 100):
        expected = 4.0 / (math.pi * (4.0 * k * k - 1.0))
        assert kernel_value(0.5, k) == pytest.approx(expected, rel=1e-12)


def test_kernel_symmetry_exact():
    assert kernel_value(0.5, -7) == kernel_value(0.5, 7)
    assert kernel_extended(2.0, -1) == kernel_extended(2.0, 1)


def test_kernel_near_integer_gate():
    with pytest.raises(NearIntegerOrderError):
        kernel_value(1.0 + 1e-10, 3)
    with pytest.raises(ValueError):
        kernel_value(-0.5, 1)
    with pytest.raises(ValueError):
        kernel_value(0.0, 1)


def test_dual_form_agreement(rng):
    checked = 0
    while checked < 500:
        s = float(rng.uniform(0.0, 6.0))
        if s <= 1e-3 or abs(s - round(s)) <= 1e-3:
            continue
        k = int(rng.integers(-64, 65))
        checked += 1
        a = kernel_value(s, k)
        b = kernel_value_reference(s, k)
        if a == 0.0 and b == 0.0:
            continue
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def test_kernel_value_against_mpmath():
    # spans the whole stated accuracy domain, up to |k| = 1e5 and s near 20
    with mpmath.workdps(50):
        for s, k in [(0.3, 2), (0.8, 50), (1.5, 3), (2.7, 1), (4.2, 1000), (5.5, 100000), (19.5, 100000), (19.5, 7)]:
            ref = float(
                -(mpmath.mpf(4) ** s)
                * mpmath.gamma(mpmath.mpf(0.5) + s)
                * mpmath.gamma(abs(k) - mpmath.mpf(s))
                / (
                    mpmath.sqrt(mpmath.pi)
                    * mpmath.gamma(-mpmath.mpf(s))
                    * mpmath.gamma(abs(k) + 1 + mpmath.mpf(s))
                )
            )
            assert kernel_value(s, k) == pytest.approx(ref, rel=1e-10)


# ---------------------------------------------------------------------------
# integer limits
# ---------------------------------------------------------------------------


def test_limit_values():
    assert kernel_limit_at_integer(1, 1) == 1.0
    assert kernel_limit_at_integer(1, 2) == 0.0
    assert kernel_limit_at_integer(2, 1) == 4.0  # Gamma(5)/(Gamma(4)Gamma(2))
    assert kernel_limit_at_integer(2, 2) == -1.0
    assert kernel_limit_at_integer(3, 0) == 0.0


def test_limit_sign_pattern():
    for s in range(1, 7):
        for k in range(1, s + 1):
            val = kernel_limit_at_integer(s, k)
            assert val != 0.0
            assert math.copysign(1.0, val) == (-1.0) ** (k + 1)


def test_extended_dispatch():
    assert kernel_extended(1.0, 1) == 1.0
    assert kernel_extended(1.0 + 1e-7, 1) == pytest.approx(1.0, abs=1e-5)
    assert kernel_extended(0.5, 0) == 0.0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_continuity_across_integer(m):
    # sup_{|k|<=32} |K_{m+h}(k) - K_m(k)| decreases monotonically in h
    sups = []
    for h in (1e-2, 1e-4, 1e-6):
        worst = 0.0
        for k in range(0, 33):
            lim = kernel_limit_at_integer(m, k)
            for s in (m - h, m + h):
                worst = max(worst, abs(kernel_value(s, k) - lim))
        sups.append(worst)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-4


def _kernel_mpmath(s, k):
    """K_s(k) from the product form in 40 digits; rgamma is 0 at the poles."""
    with mpmath.workdps(40):
        s = mpmath.mpf(s)
        return float(
            (-1) ** (k + 1) * mpmath.gamma(2 * s + 1) * mpmath.rgamma(1 + s + k) * mpmath.rgamma(1 + s - k)
        )


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_next_to_integers_against_mpmath(n):
    # one formula on both sides of the integer: no band where the far lags
    # drop to 0, and the product form's last Gamma argument s - (mu - 1) is
    # exact where 1 + s - mu lost up to seven digits
    for d in (1e-12, 5e-10, 2e-9, 1e-8, 1e-7):
        for s in (n + d, n - d):
            row = kernel_row(s, n + 3)
            for k in range(1, n + 4):
                ref = _kernel_mpmath(s, k)
                assert row[k] == pytest.approx(ref, rel=1e-12, abs=0.0), (s, k)
                assert kernel_extended(s, k) == pytest.approx(ref, rel=1e-12, abs=0.0), (s, k)


@pytest.mark.parametrize("s", [1e-10, 1e-9])
def test_tiny_orders_against_mpmath(s):
    # every s > 0 is a valid order; K_s(k) ~ s / k there
    row = kernel_row(s, 8)
    for k in range(1, 9):
        assert row[k] == pytest.approx(_kernel_mpmath(s, k), rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# kernel sum
# ---------------------------------------------------------------------------


def test_kernel_sum_closed_values():
    # Gamma(1) = 1, Gamma(1.5) = sqrt(pi)/2          -> A_{1/2} = 4/pi
    # Gamma(1.5) = sqrt(pi)/2, Gamma(2) = 1          -> A_1 = 2
    # Gamma(2.5) = 3 sqrt(pi)/4, Gamma(3) = 2        -> A_2 = 6
    assert kernel_sum(0.5) == pytest.approx(4.0 / math.pi, rel=1e-13)
    assert kernel_sum(1.0) == pytest.approx(2.0, rel=1e-13)
    assert kernel_sum(2.0) == pytest.approx(6.0, rel=1e-13)


def test_max_order_is_the_last_order_with_a_finite_kernel_sum():
    assert 514.0 < _kernel.MAX_ORDER < 515.0
    assert math.isfinite(kernel_sum(_kernel.MAX_ORDER)) and math.isfinite(kernel_sum(514))
    beyond = math.nextafter(_kernel.MAX_ORDER, math.inf)
    with pytest.raises(OverflowError):
        math.exp(_kernel._log_kernel_sum(beyond))
    with pytest.raises(ValueError, match="order must be at most"):
        kernel_sum(beyond)


def test_kernel_sum_matches_direct_summation():
    # brute-force partial sums approach A_s from one side at the tail rate
    for s in (0.75, 1.25, 2.5):
        radius = 4000
        row = kernel_row(s, radius)
        partial = row[0] + 2.0 * row[1:].sum()
        tail_scale = asymptotic_decay_constant(s) * radius ** (-2.0 * s) / s
        assert abs(partial - kernel_sum(s)) <= 2.0 * tail_scale + 1e-13


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_table_basics():
    t = build_table(0.5, 64)
    assert t.values[0] == 0.0
    partial = t.values[0] + 2.0 * t.values[1:].sum()
    assert abs(partial - 4.0 / math.pi) <= t.tail_bound


def test_table_integer_order():
    t = build_table(1.0, 16)
    assert np.all(t.values[2:] == 0.0)
    assert t.tail_bound == 0.0


@pytest.mark.parametrize("s", [0.25, 0.5, 0.9, 1.5, 2.5, 3.7])
@pytest.mark.parametrize("radius", [64, 256, 1024])
def test_table_sum_within_tail(s, radius):
    # the certified tail can sit far below double round-off (6e-20 at
    # s = 3.7, R = 1024, with entries of magnitude ~40), so the check
    # carries an explicit round-off allowance on the evaluated sums
    t = build_table(s, radius)
    partial = t.values[0] + 2.0 * t.values[1:].sum()
    fp_allowance = 1e-12 * (abs(t.total_sum) + float(np.abs(t.values).sum()))
    assert abs(partial - t.total_sum) <= t.tail_bound + fp_allowance


@pytest.mark.parametrize("s", [0.25, 0.6, 1.5, 2.5])
def test_tail_bound_is_true_upper_bound(s):
    # recompute the discarded mass at 4x the radius: the certified bound must
    # dominate the measured partial tail plus the refined certificate
    radius = 128
    t = build_table(s, radius)
    wide = kernel_row(s, 4 * radius)
    measured = 2.0 * np.abs(wide[radius + 1 :]).sum()
    t_wide = build_table(s, 4 * radius)
    assert measured + t_wide.tail_bound <= t.tail_bound * (1.0 + 1e-12)
    assert measured <= t.tail_bound


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=1e-15, max_value=1e-6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_table_sum_within_tail_next_to_integers(n, sign, d, where):
    # orders within 1e-6 of an integer take build_table's empirical tail
    s = n + sign * d
    lo = max(2, math.ceil(s) + 1)
    radius = lo + round(where * (1024 - lo))
    t = build_table(s, radius)
    partial = t.values[0] + 2.0 * t.values[1:].sum()
    fp_allowance = 1e-12 * (abs(t.total_sum) + float(np.abs(t.values).sum()))
    assert abs(partial - t.total_sum) <= t.tail_bound + fp_allowance


def test_table_radius_validation():
    with pytest.raises(ValueError):
        build_table(2.5, 2)


def test_table_near_pole_fallback():
    # within 1e-6 of an integer the closed-form constant is bypassed; the
    # certificate must still envelope the measured tail
    s = 2.0 + 5e-7
    t = build_table(s, 64)
    wide = kernel_row(s, 512)
    measured = 2.0 * np.abs(wide[65:]).sum()
    assert measured <= t.tail_bound


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------


def test_decay_certificate_finite():
    assert 0.0 < decay_certificate(0.5, 1000) < math.inf
    assert 0.0 < decay_certificate(1.5, 1000) < math.inf
    with pytest.raises(NearIntegerOrderError):
        decay_certificate(2.0, 1000)


def test_decay_profile_limit_half_order():
    # |K_s(k)| k^{1+2s} -> 4^s Gamma(1/2+s)/(sqrt(pi)|Gamma(-s)|); for
    # s = 1/2 that is 2 * Gamma(1) / (sqrt(pi) * 2 sqrt(pi)) = 1/pi
    assert asymptotic_decay_constant(0.5) == pytest.approx(1.0 / math.pi, rel=1e-13)
    k = 10_000
    profile = abs(kernel_value(0.5, k)) * float(k) ** 2.0
    assert profile == pytest.approx(1.0 / math.pi, rel=1e-3)


def test_decay_profile_converges():
    for s in (0.5, 1.5):
        p1 = abs(kernel_value(s, 1000)) * 1000.0 ** (1.0 + 2.0 * s)
        p2 = abs(kernel_value(s, 2000)) * 2000.0 ** (1.0 + 2.0 * s)
        assert abs(p2 / p1 - 1.0) <= 1e-3


# ---------------------------------------------------------------------------
# partial-sum identity
# ---------------------------------------------------------------------------


def test_partial_sum_values():
    assert partial_sum_identity_check(0.5, 1) <= 1e-12
    assert partial_sum_identity_check(2.5, 3) <= 1e-11
    assert partial_sum_identity_check(0.25, 10) <= 1e-10


def test_partial_sum_gate():
    with pytest.raises(NearIntegerOrderError):
        partial_sum_identity_check(3.0, 2)
    with pytest.raises(ValueError):
        partial_sum_identity_check(0.5, 0)


# ---------------------------------------------------------------------------
# rows
# ---------------------------------------------------------------------------


def test_kernel_row_matches_scalar(rng):
    for s in (0.3, 0.9, 1.5, 4.2):
        row = kernel_row(s, 200)
        for k in (0, 1, 2, 3, 7, 50, 200):
            assert row[k] == pytest.approx(kernel_extended(s, k), rel=1e-13, abs=1e-300)


def test_kernel_row_integer_order():
    row = kernel_row(2.0, 10)
    assert list(row[:3]) == [0.0, 4.0, -1.0]
    assert np.all(row[3:] == 0.0)


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


def test_kernel_imports_no_higher_layer():
    # the kernel is the mathematics of K_s; the modules built on it import it,
    # never the other way round, not even inside a function
    tree = ast.parse(Path(_kernel.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
    assert not names & {"operators", "localization", "checks", "cli"}
