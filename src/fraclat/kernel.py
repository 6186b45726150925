"""The fractional kernel K_s(k): closed forms, limits, tables, certificates.

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
|k| <= s and reproduces the binomial stencil coefficients.  Tables carry the
total sum A_s = 4^s G(1/2+s)/(sqrt(pi) G(1+s)) and a certified bound on the
absolute kernel mass beyond the table radius.
"""

from __future__ import annotations

import math
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
    """Order is within tolerance of an integer; use kernel_extended instead."""


def _check_order(s: float) -> float:
    s = float(s)
    if not math.isfinite(s) or s <= 0.0:
        raise ValueError(f"order must be positive and finite, got {s!r}")
    return s


def _is_near_integer(s: float, tol: float = NEAR_INTEGER_TOL) -> bool:
    return abs(s - round(s)) <= tol


def kernel_value(s: float, k: int) -> float:
    """K_s(k) for non-integer order s > 0 (k = 0 gives exactly 0).

    Symmetric in k: negative lags are mapped to |k| before any Gamma call.
    Relative accuracy is ~1e-12 up to |k| = 1e5 and s = 20.
    """
    s = _check_order(s)
    if _is_near_integer(s):
        raise NearIntegerOrderError(
            f"order {s!r} is within {NEAR_INTEGER_TOL} of an integer; "
            "use kernel_extended"
        )
    mu = abs(int(k))
    if mu == 0:
        return 0.0
    m = math.ceil(s)
    if mu <= m:
        # product form, all Gamma arguments positive since 1+s-mu > 0
        sign = -1.0 if mu % 2 == 0 else 1.0
        log_mag = (
            log_gamma(2.0 * s + 1.0)
            - log_gamma(1.0 + s + mu)
            - log_gamma(1.0 + s - mu)
        )
        return sign * math.exp(log_mag)
    sp = _sinpi(s)
    log_mag = (
        math.log(abs(sp) / math.pi)
        + log_gamma(2.0 * s + 1.0)
        + log_gamma_ratio(mu - s, mu + 1.0 + s)
    )
    return math.copysign(math.exp(log_mag), sp)


def kernel_value_reference(s: float, k: int) -> float:
    """Ratio-form evaluation of K_s(k), for cross-validation only.

    Evaluates -4^s G(1/2+s) G(|k|-s) / (sqrt(pi) G(-s) G(|k|+1+s)) literally,
    with the negative-argument Gamma extension.  Independent of
    :func:`kernel_value` except for the shared log-Gamma kernel; overflows
    for |k| beyond ~100, which is why the production path works in logs.
    """
    s = _check_order(s)
    if _is_near_integer(s):
        raise NearIntegerOrderError(f"order {s!r} too close to an integer")
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
    """Analytic extension of K_s(k) across integer orders.

    Dispatches to the limit formula within 1e-9 of an integer and to
    :func:`kernel_value` elsewhere; continuous in s.
    """
    s = _check_order(s)
    if _is_near_integer(s):
        r = round(s)
        if r < 1:
            raise ValueError(f"order {s!r} is too close to zero")
        return kernel_limit_at_integer(r, k)
    return kernel_value(s, k)


def kernel_sum(s: float) -> float:
    """Total kernel mass A_s = 4^s G(1/2+s) / (sqrt(pi) G(1+s)).

    The closed form is continuous across integer s, where it equals the
    central binomial stencil coefficient C(2s, s); integer orders return
    that coefficient exactly so the limit route stays bit-clean.
    """
    s = _check_order(s)
    if _is_near_integer(s) and round(s) >= 1:
        m = round(s)
        return binomial(2 * m, m)
    return math.exp(
        s * math.log(4.0)
        + log_gamma(s + 0.5)
        - 0.5 * math.log(math.pi)
        - log_gamma(s + 1.0)
    )


def _log_abs_gamma_minus(s: float) -> float:
    """ln |Gamma(-s)| for non-integer s > 0 via reflection; stable at any s."""
    # |Gamma(-s)| = pi / (|sin(pi s)| * Gamma(1+s))
    return math.log(math.pi) - math.log(abs(_sinpi(s))) - log_gamma(1.0 + s)


def asymptotic_decay_constant(s: float) -> float:
    """lim_{|k| -> inf} |K_s(k)| |k|^{1+2s} = 4^s G(1/2+s) / (sqrt(pi) |G(-s)|)."""
    s = _check_order(s)
    if _is_near_integer(s):
        return 0.0
    return math.exp(
        s * math.log(4.0)
        + log_gamma(s + 0.5)
        - 0.5 * math.log(math.pi)
        - _log_abs_gamma_minus(s)
    )


def kernel_row(s: float, radius: int) -> np.ndarray:
    """Vector of kernel_extended(s, k) for k = 0..radius.

    Large lags are evaluated in one vectorized log-space pass; the sign for
    lags beyond ceil(s) is the constant sign of sin(pi s).
    """
    s = _check_order(s)
    radius = int(radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    out = np.zeros(radius + 1)
    if _is_near_integer(s):
        r = round(s)
        if r < 1:
            raise ValueError(f"order {s!r} is too close to zero")
        for mu in range(1, min(r, radius) + 1):
            out[mu] = kernel_limit_at_integer(r, mu)
        return out
    m = math.ceil(s)
    for mu in range(1, min(m, radius) + 1):
        out[mu] = kernel_value(s, mu)
    if radius > m:
        mu = np.arange(m + 1, radius + 1, dtype=float)
        sp = _sinpi(s)
        log_mag = (
            math.log(abs(sp) / math.pi)
            + log_gamma(2.0 * s + 1.0)
            + log_gamma_ratio(mu - s, mu + 1.0 + s)
        )
        out[m + 1 :] = math.copysign(1.0, sp) * np.exp(log_mag)
    return out


_TAIL_SAFETY = 1.5


@dataclass(frozen=True)
class KernelTable:
    """Precomputed K_s(k) for 0 <= k <= radius with a certified tail bound.

    ``values[k]`` holds K_s(k); evaluation at -k equals evaluation at k.
    ``tail_bound`` is an upper bound on sum_{|k| > radius} |K_s(k)| (zero at
    integer s, where the kernel is finitely supported).
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


# the package's kernel caches: tables here, and in _convolution_kernel the
# mirrored rows or spectra that the convolutions use (at any radius: evolve's
# 2W may be below build_table's minimum)
@lru_cache(maxsize=128)
def build_table(s: float, radius: int) -> KernelTable:
    """Build (or fetch from cache) the kernel table for order s.

    The radius must be at least max(2, ceil(s) + 1) so the table reaches past
    the sign-alternating head of the kernel.
    """
    s = _check_order(s)
    radius = int(radius)
    if radius < max(2, math.ceil(s) + 1):
        raise ValueError(
            f"radius {radius} too small for order {s}; need >= {max(2, math.ceil(s) + 1)}"
        )
    values = kernel_row(s, radius)
    total = kernel_sum(s)
    if _is_near_integer(s):
        tail = 0.0
    else:
        if abs(s - round(s)) < 1e-6 and round(s) >= 1:
            # too close to a Gamma(-s) pole for the closed-form constant:
            # bound the decay constant empirically over the outer half-table
            ks = np.arange(max(2, radius // 2), radius + 1, dtype=float)
            c = _TAIL_SAFETY * float(
                np.max(np.abs(values[int(ks[0]) :]) * ks ** (1.0 + 2.0 * s))
            )
        else:
            c = _TAIL_SAFETY * asymptotic_decay_constant(s)
        # 2 * C * integral_R^inf x^{-1-2s} dx = 2 C R^{-2s} / (2s)
        tail = c * radius ** (-2.0 * s) / s
    return KernelTable(s=s, radius=radius, values=values, total_sum=total, tail_bound=tail)


@lru_cache(maxsize=128)
def _convolution_kernel(
    s: float, half: int, n: int
) -> tuple[int, np.ndarray | None, np.ndarray | None]:
    """(r, K_s on lags -r..r, its ``fftconvolve`` spectrum for n-point inputs).

    r is the last lag <= ``half`` where K_s is nonzero.  Callers that convolve
    many inputs of one length share the result read-only, so the kernel row,
    its nonzero scan and its transform are computed once per (s, half, n).
    An entry holds only what its callers read, and None in place of the
    rest: the spectrum where ``_convolve`` takes the FFT, the kernel where it
    sums directly or where ``evolve``'s clip bound reads it (half < n: every
    lag stays inside the n sites).  Elsewhere ``fftconvolve`` needs only the
    kernel's length 2r + 1.  A one-point input has half = R, so its row is
    the table that ``apply_fractional`` has already built.
    """
    from .operators import _DIRECT_MAX, _fft_size  # operators imports this module

    row = build_table(s, half).values if n == 1 else kernel_row(s, half)
    r = int(np.flatnonzero(row)[-1])  # K_s(1) > 0 for every valid order, so r >= 1
    kern = np.concatenate([row[r:0:-1], row[: r + 1]])
    kern.setflags(write=False)
    if min(n, kern.size) <= _DIRECT_MAX:
        return r, kern, None
    spectrum = np.fft.rfft(kern, _fft_size(n, kern.size))
    spectrum.setflags(write=False)
    return r, (kern if half < n else None), spectrum


def decay_certificate(s: float, k_max: int) -> float:
    """Empirical decay constant max_k |K_s(k)| |k|^{1+2s} over ceil(s)+1..k_max.

    The profile k -> |K_s(k)| |k|^{1+2s} levels off at the asymptotic
    constant; the tests check that doubling k_max moves the value by less
    than 1e-3 relative once k_max >= 1e3.
    """
    s = _check_order(s)
    if _is_near_integer(s):
        raise NearIntegerOrderError(f"order {s!r} too close to an integer")
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
    s = _check_order(s)
    if _is_near_integer(s):
        raise NearIntegerOrderError(f"order {s!r} too close to an integer")
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = gamma(m - s) / (2.0 * s * gamma(m + s))
    for k in range(1, m):
        lhs += gamma(k - s) / gamma(k + 1.0 + s)
    rhs = -gamma(-s) / (2.0 * gamma(1.0 + s))
    return abs(lhs - rhs)
