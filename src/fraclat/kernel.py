"""The fractional kernel K_s(k): closed forms, limits, tables, certificates.

This module holds only the mathematics of K_s (``build_table`` caches its
tables); the convolution cache lives in :mod:`fraclat.operators`.

For non-integer order s > 0 the kernel admits two equivalent closed forms:

* the ratio form  K_s(k) = -4^s G(1/2+s) G(|k|-s) / (sqrt(pi) G(-s) G(|k|+1+s)),
* the product form K_s(k) = (-1)^{|k|+1} G(2s+1) / (G(1+s+|k|) G(1+s-|k|)),

with G the Gamma function extended to negative non-integer arguments.  The
product form is the production path: it never touches G(-s), whose poles at
integer s sit exactly where the interesting limits live.  For lags beyond
ceil(s) its G(1+s-|k|) factor is rewritten through Euler reflection as

    K_s(k) = sin(pi s) G(2s+1) G(|k|-s) / (pi G(|k|+1+s)),

so every Gamma argument is positive and the large-lag ratio goes through the
cancellation-aware :func:`fraclat.special.log_gamma_ratio`.  The ratio form
is kept as :func:`kernel_value_reference` purely for cross-validation.

At integer s the singularity is removable: the limit kernel is supported on
|k| <= s and reproduces the binomial stencil coefficients.  The formulas
are continuous in s across the integers (the far lags vanish with sin(pi s)),
so only exact integers take the stencil, and their rows stay bit-exact.
Tables carry A_s = 4^s G(1/2+s)/(sqrt(pi) G(1+s)) and 1.5 times the kernel
mass beyond radius R >= ceil(s), exactly T_s(R) = |K_s(R+1)| (R+1+s)/s: the
far-lag ratios telescope, 2s G(k-s)/G(k+1+s) = G(k-s)/G(k+s) - G(k+1-s)/G(k+1+s).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .special import (
    _sinpi,
    binomial,
    gamma,
    log_gamma,
    log_gamma_ratio,
)

__all__ = [
    "NearIntegerOrderError",
    "NEAR_INTEGER_TOL",
    "MAX_ORDER",
    "kernel_value",
    "kernel_value_reference",
    "kernel_limit_at_integer",
    "kernel_extended",
    "kernel_sum",
    "asymptotic_decay_constant",
    "kernel_row",
    "KernelTable",
    "build_table",
    "decay_certificate",
    "partial_sum_identity_check",
]

NEAR_INTEGER_TOL = 1e-9


class NearIntegerOrderError(ValueError):
    """Order within NEAR_INTEGER_TOL of an integer, near a pole of Gamma(-s), on a
    route that needs a non-integer order; kernel_extended takes every s > 0."""


def _log_kernel_sum(s: float) -> float:
    """ln A_s = ln(4^s G(1/2+s) / (sqrt(pi) G(1+s)))."""
    return s * math.log(4.0) + log_gamma(s + 0.5) - 0.5 * math.log(math.pi) - log_gamma(s + 1.0)


def _largest_order() -> float:
    """The largest double s with ln A_s <= ln(largest double), by bisection
    (A_s grows with s): about 514.66, as C(1028, 514) is a double and
    C(1030, 515) is not."""
    lo, hi = 1.0, 1024.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if _log_kernel_sum(mid) <= math.log(sys.float_info.max):
            lo = mid
        else:
            hi = mid


# beyond this order neither A_s nor the stencil of an integer order is a double
MAX_ORDER = _largest_order()


def _check_order(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"order must be positive and finite, got {s!r}")
    if s > MAX_ORDER:
        raise ValueError(
            f"order must be at most {MAX_ORDER!r}, where the kernel sum A_s leaves"
            f" the doubles, got {s!r}"
        )
    return s


def _is_near_integer(s: float) -> bool:
    return abs(s - round(s)) <= NEAR_INTEGER_TOL


def _check_non_integer_order(s: float) -> float:
    """``_check_order``, and NearIntegerOrderError within NEAR_INTEGER_TOL of an integer."""
    s = _check_order(s)
    if _is_near_integer(s):
        raise NearIntegerOrderError(f"order {s!r} is within {NEAR_INTEGER_TOL} of an integer")
    return s


def _log_abs_kernel_far(s: float, mu):
    """ln |K_s(mu)| at lags mu > ceil(s), a float or an array, for non-integer s;
    K_s(mu) there has the sign of sin(pi s)."""
    return (
        math.log(abs(_sinpi(s)) / math.pi)
        + log_gamma(2.0 * s + 1.0)
        + log_gamma_ratio(mu - s, mu + 1.0 + s)
    )


def kernel_value(s: float, k: int) -> float:
    """:func:`kernel_extended` for non-integer order s > 0 (k = 0 gives exactly 0).

    Raises NearIntegerOrderError within NEAR_INTEGER_TOL of an integer.
    """
    return kernel_extended(_check_non_integer_order(s), k)


def kernel_value_reference(s: float, k: int) -> float:
    """Ratio-form evaluation of K_s(k), for cross-validation only.

    Evaluates -4^s G(1/2+s) G(|k|-s) / (sqrt(pi) G(-s) G(|k|+1+s)) literally,
    with the negative-argument Gamma extension.  Independent of
    :func:`kernel_value` except for the shared log-Gamma kernel; overflows
    for |k| beyond ~100, which is why the production path works in logs.
    """
    s = _check_non_integer_order(s)
    mu = abs(int(k))
    if mu == 0:
        return 0.0
    num = -(4.0**s) * gamma(0.5 + s) * gamma(mu - s)
    den = math.sqrt(math.pi) * gamma(-s) * gamma(mu + 1.0 + s)
    return num / den


def kernel_limit_at_integer(s: int, k: int) -> float:
    """lim_{z -> s} K_z(k) for integer s >= 1.

    Zero for k = 0 and |k| > s; otherwise (-1)^{|k|+1} C(2s, s+|k|), which is
    exact in double precision for s <= 26.
    """
    s = int(s)
    if s < 1:
        raise ValueError("integer order must be >= 1")
    mu = abs(int(k))
    if mu == 0 or mu > s:
        return 0.0
    sign = -1.0 if mu % 2 == 0 else 1.0
    return sign * binomial(2 * s, s + mu)


def kernel_extended(s: float, k: int) -> float:
    """K_s(k) for every order s > 0, continuous in s across the integers.

    At exact integers this is :func:`kernel_limit_at_integer`; elsewhere the
    product form up to lag ceil(s) and the reflected form beyond.  Symmetric
    in k: negative lags are mapped to |k| before any Gamma call.  Relative
    accuracy is ~1e-12 up to |k| = 1e5 and s = 20, also next to an integer.
    """
    s = _check_order(s)
    mu = abs(int(k))
    if s == round(s):
        return kernel_limit_at_integer(round(s), mu)
    if mu == 0:
        return 0.0
    if mu <= math.ceil(s):
        # product form; s - (mu - 1) > 0 is exact where 1 + s - mu would round
        sign = -1.0 if mu % 2 == 0 else 1.0
        log_mag = log_gamma(2.0 * s + 1.0) - log_gamma(1.0 + s + mu) - log_gamma(s - (mu - 1))
        return sign * math.exp(log_mag)
    return math.copysign(math.exp(_log_abs_kernel_far(s, mu)), _sinpi(s))


def kernel_sum(s: float) -> float:
    """Total kernel mass A_s = 4^s G(1/2+s) / (sqrt(pi) G(1+s)).

    The closed form is continuous across integer s, where it equals the
    central binomial stencil coefficient C(2s, s); integer orders return
    that coefficient exactly so the limit route stays bit-clean.
    """
    s = _check_order(s)
    if s == round(s):
        return binomial(2 * round(s), round(s))
    return math.exp(_log_kernel_sum(s))


def _log_abs_gamma_minus(s: float) -> float:
    """ln |Gamma(-s)| for non-integer s > 0 via reflection; stable at any s."""
    # |Gamma(-s)| = pi / (|sin(pi s)| * Gamma(1+s))
    return math.log(math.pi) - math.log(abs(_sinpi(s))) - log_gamma(1.0 + s)


def asymptotic_decay_constant(s: float) -> float:
    """lim_{|k| -> inf} |K_s(k)| |k|^{1+2s} = 4^s G(1/2+s) / (sqrt(pi) |G(-s)|).

    Read only by ``validate --level full`` and the tests.  OverflowError for
    non-integer s above about 85.4, where the constant leaves the doubles.
    """
    s = _check_order(s)
    if s == round(s):
        return 0.0
    return math.exp(
        s * math.log(4.0)
        + log_gamma(s + 0.5)
        - 0.5 * math.log(math.pi)
        - _log_abs_gamma_minus(s)
    )


def kernel_row(s: float, radius: int) -> np.ndarray:
    """Vector of kernel_extended(s, k) for k = 0..radius.

    The lags up to ceil(s) come from :func:`kernel_extended`; the lags beyond
    are zero at integer s and otherwise evaluated in one vectorized log-space
    pass, with the constant sign of sin(pi s).
    """
    s = _check_order(s)
    radius = int(radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    out = np.zeros(radius + 1)
    m = math.ceil(s)
    for mu in range(1, min(m, radius) + 1):
        out[mu] = kernel_extended(s, mu)
    if radius > m and s != m:
        mu = np.arange(m + 1, radius + 1, dtype=float)
        out[m + 1 :] = math.copysign(1.0, _sinpi(s)) * np.exp(_log_abs_kernel_far(s, mu))
    return out


# 1 + 1e-9 would cover the log-space round-off; 1.5 keeps validate's "kernel sum
# within tail certificate" at 1/1.5, the reading the bench's oracle reference holds
_TAIL_SAFETY = 1.5


@dataclass(frozen=True)
class KernelTable:
    """Precomputed K_s(k) for 0 <= k <= radius with a certified tail bound.

    ``values[k]`` holds K_s(k); evaluation at -k equals evaluation at k.
    ``tail_bound`` is 1.5 times the exact sum_{|k| > radius} |K_s(k)|; zero at
    integer s, where the kernel is finitely supported, and where that sum is
    below the smallest double (s = 300.5, radius = 1200).
    """

    s: float
    radius: int
    values: np.ndarray
    total_sum: float
    tail_bound: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@lru_cache(maxsize=128)
def build_table(s: float, radius: int) -> KernelTable:
    """Build (or fetch from cache) the kernel table for order s.

    The radius must be at least max(2, ceil(s) + 1) so the table reaches past
    the sign-alternating head of the kernel, where the tail identity holds.
    """
    s = _check_order(s)
    radius = int(radius)
    if radius < max(2, math.ceil(s) + 1):
        raise ValueError(
            f"radius {radius} too small for order {s}; need >= {max(2, math.ceil(s) + 1)}"
        )
    values = kernel_row(s, radius)
    total = kernel_sum(s)
    tail = 0.0
    if s != round(s):
        tail = _TAIL_SAFETY * math.exp(_log_abs_kernel_far(s, radius + 1)) * (radius + 1 + s) / s
    return KernelTable(s=s, radius=radius, values=values, total_sum=total, tail_bound=tail)


def decay_certificate(s: float, k_max: int) -> float:
    """Empirical decay constant max_k |K_s(k)| |k|^{1+2s} over ceil(s)+1..k_max.

    The profile k -> |K_s(k)| |k|^{1+2s} levels off at the asymptotic
    constant; the tests check that doubling k_max moves the value by less
    than 1e-3 relative once k_max >= 1e3.
    """
    s = _check_non_integer_order(s)
    lo = math.ceil(s) + 1
    k_max = int(k_max)
    if k_max < lo:
        raise ValueError(f"k_max must be >= {lo}")
    row = kernel_row(s, k_max)
    ks = np.arange(lo, k_max + 1, dtype=float)
    return float(np.max(np.abs(row[lo:]) * ks ** (1.0 + 2.0 * s)))


def partial_sum_identity_check(s: float, m: int) -> float:
    """Deviation of the Gamma-ratio partial-sum identity at (s, m).

    Returns | G(m-s)/(2s G(m+s)) + sum_{k=1}^{m-1} G(k-s)/G(k+1+s)
             + G(-s)/(2 G(1+s)) |,
    which is zero in exact arithmetic for every non-integer s > 0 and m >= 1.
    Exercises the full Gamma stack including the negative-argument extension.
    """
    s = _check_non_integer_order(s)
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = gamma(m - s) / (2.0 * s * gamma(m + s))
    for k in range(1, m):
        lhs += gamma(k - s) / gamma(k + 1.0 + s)
    rhs = -gamma(-s) / (2.0 * gamma(1.0 + s))
    return abs(lhs - rhs)
