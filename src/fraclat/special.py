"""Real-argument Gamma machinery and integer-order modified Bessel functions.

Everything downstream (kernel coefficients, heat-semigroup weights, binomial
stencils) is built on the functions in this module, so they are implemented
here from scratch and cross-checked in the test suite against independent
references (the C library ``lgamma``, ``scipy.special``, ``mpmath``).

Gamma on the positive axis uses a Lanczos rational approximation (g = 7,
9 terms, the coefficients published by Godfrey; see also Press et al.,
Numerical Recipes, ch. 6.1).  Negative non-integer arguments are reached
through the recursion Gamma(z + 1) = z * Gamma(z) applied enough times to
shift the argument into (0, 1).  Non-positive integers are poles; only the
reciprocal is defined there (as exactly 0).

``log_gamma``, ``log_gamma_ratio`` and ``_sinpi`` take a scalar path for
Python ``float``/``int`` arguments (``np.float64`` included), which costs a
few microseconds instead of 10-80 for a 1-element array.  It evaluates the
same formula in the same operation order and gives bit-identical results.
Its logarithms and sines still call numpy's ufuncs, on the scalar: there
``math.log`` and ``math.log1p`` round differently from numpy's SIMD loops
in the last bit for some arguments.

The modified Bessel functions are evaluated in exponentially scaled form
e^{-x} I_k(x).  Small arguments use the ascending power series
I_k(x) = sum_j (x/2)^{2j+k} / (j! (j+k)!) (DLMF 10.25.2); large arguments use
Miller's backward recurrence normalized with e^{-x}[I_0 + 2 sum_k I_k] = 1
(DLMF 10.35.5); very large arguments fall back to the asymptotic expansion
DLMF 10.40.1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "gamma",
    "reciprocal_gamma",
    "log_gamma",
    "log_gamma_ratio",
    "bessel_i_scaled",
    "bessel_i_scaled_row",
    "binomial",
]

POLE_TOL = 1e-12

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = float(np.log(np.pi))
_LOG_MAX_DOUBLE = math.log(np.finfo(float).max)

# Lanczos g = 7, n = 9 (Godfrey).  Relative error of the reconstructed Gamma
# is a few 1e-14 on the real axis, verified in the tests.
_LANCZOS_G = 7.0
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_COEFFS = (
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class PoleError(ValueError):
    """Gamma was requested at (or within tolerance of) a non-positive integer."""


def _near_nonpositive_integer(z: float, tol: float = POLE_TOL) -> bool:
    if z > tol:
        return False
    r = round(z)
    return r <= 0 and abs(z - r) <= tol


def _lanczos_series(x):
    """Rational series A_g(x) of the Lanczos formula; valid for x > 0."""
    s = _LANCZOS_C0
    for i, c in enumerate(_LANCZOS_COEFFS, start=1):
        s = s + c / (x - 1.0 + i)
    return s


def _sinpi(x):
    """sin(pi*x) with argument reduction done on x, exact near integer x."""
    if isinstance(x, (int, float)):
        x = float(x)
        k = round(x, 0)  # half to even like np.round, and keeps the sign of -0.0
        s = float(np.sin(np.pi * (x - k)))
        return s if k % 2.0 == 0.0 else -s
    x = np.asarray(x, dtype=float)
    k = np.round(x)
    r = x - k
    s = np.sin(np.pi * r)
    out = np.where(np.mod(k, 2.0) == 0.0, s, -s)
    return out if out.ndim else float(out)


def _log_gamma_lanczos(x):
    """ln Gamma(x) by the Lanczos formula, for x >= 0.5 (scalar or array)."""
    t = x + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_TWO_PI + (x - 0.5) * np.log(t) - t + np.log(_lanczos_series(x))


def log_gamma(x):
    """ln Gamma(x) for x > 0.  Accepts scalars or numpy arrays.

    Arguments below 0.5 are routed through the reflection formula so the
    Lanczos series is only ever evaluated where it is most accurate.
    """
    if isinstance(x, (int, float)):
        x = float(x)
        if not (math.isfinite(x) and x > 0.0):
            raise ValueError("log_gamma requires strictly positive finite arguments")
        if x < 0.5:
            return float(_LOG_PI - np.log(np.sin(np.pi * x)) - _log_gamma_lanczos(1.0 - x))
        return float(_log_gamma_lanczos(x))
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("log_gamma requires strictly positive finite arguments")

    small = arr < 0.5
    lg = _log_gamma_lanczos(np.where(small, 1.0 - arr, arr))
    if np.any(small):
        # ln Gamma(x) = ln(pi / sin(pi x)) - ln Gamma(1 - x), sin > 0 on (0, 1/2)
        lg[small] = _LOG_PI - np.log(np.sin(np.pi * arr[small])) - lg[small]
    return float(lg[0]) if scalar else lg


def _log_abs_gamma_negative(z: float) -> tuple[float, float]:
    """(sign, ln|Gamma(z)|) for negative non-integer z via repeated recursion.

    Shifts z upward by |floor(z)| steps into (0, 1) and divides out the
    product z (z+1) ... (z + |floor(z)| - 1), tracked in log/sign form so
    deeply negative arguments neither overflow nor underflow prematurely.
    """
    shift = -math.floor(z)
    log_den = 0.0
    sign = 1.0
    for i in range(shift):
        f = z + i
        log_den += math.log(abs(f))
        if f < 0.0:
            sign = -sign
    return sign, log_gamma(z + shift) - log_den


def gamma(z: float) -> float:
    """Gamma(z) for real z away from the poles at 0, -1, -2, ...

    Positive arguments go through the Lanczos log-Gamma kernel; negative
    non-integer arguments use the recursion-based extension.  Raises
    ``PoleError`` within 1e-12 of a pole and ``OverflowError`` when the
    result exceeds the double range (use :func:`log_gamma_ratio` instead).
    """
    z = float(z)
    if _near_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z!r}")
    if z > 0.0:
        lg = log_gamma(z)
        if lg > _LOG_MAX_DOUBLE:
            raise OverflowError(
                f"gamma({z!r}) exceeds double range; use log_gamma_ratio"
            )
        return math.exp(lg)
    sign, log_mag = _log_abs_gamma_negative(z)
    if log_mag > _LOG_MAX_DOUBLE:
        raise OverflowError(f"gamma({z!r}) exceeds double range")
    return sign * math.exp(log_mag)


def reciprocal_gamma(z: float) -> float:
    """1 / Gamma(z), defined on all reals; exactly 0 at non-positive integers."""
    z = float(z)
    if _near_nonpositive_integer(z):
        return 0.0
    if z > 0.0:
        return math.exp(-log_gamma(z))
    sign, log_mag = _log_abs_gamma_negative(z)
    return sign * math.exp(-log_mag)


def log_gamma_ratio(a, b):
    """ln(Gamma(a) / Gamma(b)) for finite a, b > 0, computed in log space.

    The two Lanczos representations are combined analytically before any
    large term is formed, so ratios with a ~ b stay fully accurate even for
    arguments around 1e5 where independent ``lgamma`` calls would lose
    digits to cancellation.  Accepts scalars or numpy arrays (broadcast).
    """
    # finite Python scalars from 0.5 up take the scalar path; there no Lanczos
    # denominator x - 1 + i rounds to 0, which Python division would raise on
    scalars = isinstance(a, (int, float)) and isinstance(b, (int, float))
    if scalars and 0.5 <= a < math.inf and 0.5 <= b < math.inf:
        a, b = float(a), float(b)
        return 0.0 if a == b else float(_log_gamma_ratio_lanczos(a, b))
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0
    a_arr, b_arr = np.broadcast_arrays(np.atleast_1d(a_arr), np.atleast_1d(b_arr))
    if not np.all((a_arr > 0.0) & (a_arr < np.inf) & (b_arr > 0.0) & (b_arr < np.inf)):
        raise ValueError("log_gamma_ratio requires positive finite arguments")

    out = np.where(a_arr == b_arr, 0.0, _log_gamma_ratio_lanczos(a_arr, b_arr))
    return float(out[0]) if scalar else out


def _log_gamma_ratio_lanczos(a, b):
    """The combined Lanczos form of ln(Gamma(a) / Gamma(b)) (scalars or arrays)."""
    tb = b + (_LANCZOS_G - 0.5)
    diff = a - b
    return (
        (a - 0.5) * np.log1p(diff / tb)
        + diff * (np.log(tb) - 1.0)
        + np.log(_lanczos_series(a) / _lanczos_series(b))
    )


# ---------------------------------------------------------------------------
# Modified Bessel functions, exponentially scaled
# ---------------------------------------------------------------------------

_BESSEL_SERIES_CUTOFF = 30.0
_BESSEL_ASYMPTOTIC_MIN_X = 1e4
_SERIES_BLOCK = 16  # steps of j per block of the series; see _bessel_row_series


@lru_cache(maxsize=128)
def _log_factorials(kmax: int) -> np.ndarray:
    """ln k! for k = 0..kmax, read-only (shared by every series row of that length)."""
    out = log_gamma(np.arange(kmax + 1) + 1.0)
    out.flags.writeable = False
    return out


def _bessel_row_series(x: float, kmax: int) -> np.ndarray:
    """e^{-x} I_k(x) for k = 0..kmax by the ascending series, x <= 30.

    All orders are summed together, _SERIES_BLOCK steps of j at a time: the
    term of order k is multiplied by (x/2)^2 / (j (j + k)) at step j, and
    ``cumprod``/``cumsum`` along a block form the terms and partial sums in
    the same order as a loop over j would.  All terms are positive, so there
    is no cancellation; an order stops at its first j whose term is below
    1e-18 of its partial sum, and orders not yet stopped carry their term and
    sum into the next block.  Orders whose scaled leading term underflows
    (below e^-745) are never summed and stay exactly 0.
    """
    q = 0.25 * x * x
    log_t0 = np.arange(kmax + 1) * math.log(0.5 * x) - _log_factorials(kmax)
    out = np.zeros(kmax + 1)
    active = np.flatnonzero(log_t0 - x >= -745.0)
    term = np.exp(log_t0[active])
    total = term
    j = np.arange(1, _SERIES_BLOCK + 1)
    while active.size:
        # column 0 carries the previous term (for cumprod), then the
        # previous sum (for cumsum); columns 1.. are steps j, j+1, ...
        terms = np.empty((active.size, _SERIES_BLOCK + 1))
        terms[:, 0] = term
        terms[:, 1:] = q / (j * (j + active[:, None]))
        np.cumprod(terms, axis=1, out=terms)
        term = terms[:, -1]
        terms[:, 0] = total
        totals = np.cumsum(terms, axis=1)
        done = terms[:, 1:] <= 1e-18 * totals[:, 1:]
        first = done.argmax(axis=1)
        stopped = done[np.arange(active.size), first]
        out[active[stopped]] = totals[stopped, first[stopped] + 1]
        active, term, total = active[~stopped], term[~stopped], totals[~stopped, -1]
        j = j + _SERIES_BLOCK
    return math.exp(-x) * out


def _bessel_row_recurrence(x: float, kmax: int) -> np.ndarray:
    """e^{-x} I_k(x) for k = 0..kmax by normalized backward recurrence.

    The downward pass starts high enough that the trial value at the start
    order is negligible relative to every requested order; normalization is
    the identity e^{-x} [I_0(x) + 2 sum_{k>=1} I_k(x)] = 1 (DLMF 10.35.5).
    Values are rescaled mid-pass when they threaten to overflow; already
    stored (tiny) high orders are scaled down in step, flushing to zero
    exactly when their true value is below the double range.
    """
    # I_M / I_k ~ exp(-(M^2 - k^2) / (2x)) for orders well below x
    start = int(math.ceil(math.sqrt(kmax * kmax + 92.0 * x))) + 10
    vals = np.zeros(start + 1)
    hi = 0.0
    lo = 1e-300
    vals[start] = lo
    for m in range(start, 0, -1):
        nxt = hi + (2.0 * m / x) * lo
        hi, lo = lo, nxt
        vals[m - 1] = nxt
        if nxt > 1e250:
            vals[m - 1 :] /= 1e250
            hi /= 1e250
            lo /= 1e250
    norm = vals[0] + 2.0 * vals[1:].sum()
    return vals[: kmax + 1] / norm


def _bessel_row_asymptotic(x: float, kmax: int) -> np.ndarray:
    """e^{-x} I_k(x) by the large-argument expansion DLMF 10.40.1.

    Only used when x >= max(1e4, 5 kmax^2), where the series converges to
    well below 1e-12 relative before its terms turn.
    """
    k = np.arange(kmax + 1, dtype=float)
    mu = 4.0 * k * k
    term = np.ones(kmax + 1)
    total = term.copy()
    for j in range(1, 40):
        term = term * -(mu - (2.0 * j - 1.0) ** 2) / (8.0 * j * x)
        total += term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i_scaled_row(x: float, kmax: int) -> np.ndarray:
    """Array of e^{-x} I_k(x) for k = 0..kmax, x >= 0.

    One backward-recurrence pass yields the whole row, which is what the
    heat-semigroup convolution consumes.
    """
    if kmax < 0:
        raise ValueError("kmax must be non-negative")
    x = float(x)
    if x < 0.0:
        raise ValueError("bessel_i_scaled_row requires x >= 0")
    if x == 0.0:
        out = np.zeros(kmax + 1)
        out[0] = 1.0
        return out
    if x <= _BESSEL_SERIES_CUTOFF:
        return _bessel_row_series(x, kmax)
    if x >= _BESSEL_ASYMPTOTIC_MIN_X and x >= 5.0 * (kmax + 1) ** 2:
        return _bessel_row_asymptotic(x, kmax)
    return _bessel_row_recurrence(x, kmax)


def bessel_i_scaled(k: int, x: float) -> float:
    """e^{-x} I_|k|(x), the exponentially scaled modified Bessel function.

    Symmetric in k by construction.  Power series below x = 30, normalized
    backward recurrence above; absolute error is a few 1e-15 for x <= 1e4.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("bessel_i_scaled requires x >= 0")
    k = abs(int(k))
    if x == 0.0:
        return 1.0 if k == 0 else 0.0
    return float(bessel_i_scaled_row(x, k)[k])


def binomial(n: int, k: int) -> float:
    """Binomial coefficient C(n, k) as a float.

    Exact integer arithmetic below n = 60 (so the integer-power stencils are
    bit-clean); the log-Gamma route beyond.
    """
    n = int(n)
    k = int(k)
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        raise ValueError("binomial requires 0 <= k <= n")
    if n <= 60:
        return float(math.comb(n, k))
    return math.exp(
        log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)
    )
