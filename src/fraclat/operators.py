"""Application paths for powers of the shifted second-difference operator.

Three mutually cross-validating ways to apply the non-negative operator
(-Lap)^s to a finitely supported sequence:

* ``apply_integer_power`` -- the exact binomial stencil for integer s,
* ``apply_fractional``   -- the kernel series
      ((-Lap)^s u)(n) = A_s u(n) - sum_k K_s(n - k) u(k),
  the production path for arbitrary s > 0,
* ``apply_quadrature_oracle`` -- direct numerical integration of the
  semigroup representation
      (1/Gamma(-sigma)) int_0^inf z^{-sigma-1} (S_z - I) (-Lap)^{floor(s)} u dz,
  slow, used to check the series path.

``heat_semigroup`` evaluates S_z itself through scaled Bessel weights
e^{-2z} I_{n-k}(2z).  Output windows are the input support dilated by the
truncation radius; each result carries a certified bound on the discarded
mass in its ``trunc_bound`` field.

Convention: the zeroth power is the identity.  (An alternative convention
mapping w to -w exists in the literature; it is incompatible with the
composition rule used here and is not implemented.  ``fraclat validate``
prints the convention in use.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import kernel as _kernel
from .kernel import NEAR_INTEGER_TOL, build_table
from .lattice import Sequence
from .special import _sinpi, bessel_i_scaled_row, binomial, gamma, log_gamma

__all__ = [
    "BudgetExceededError",
    "QuadratureConvergenceError",
    "OperatorSpec",
    "QuadratureScheme",
    "PATHS",
    "apply",
    "apply_integer_power",
    "apply_fractional",
    "apply_composed",
    "heat_semigroup",
    "apply_quadrature_oracle",
    "log_norm_estimate",
]

PATHS = ("series", "binomial", "quadrature", "composed")

_ZERO = Sequence(0, np.zeros(0))


class BudgetExceededError(RuntimeError):
    """Certified truncation error exceeds the configured budget for this apply."""


class QuadratureConvergenceError(RuntimeError):
    """Doubling the quadrature nodes moved the result by more than tolerance."""


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters for one operator application.

    ``radius`` is the kernel truncation radius R: results are reported on the
    input support dilated by R and the kernel mass beyond R is certified by
    the table's tail bound.  ``error_budget`` is the admissible certified
    truncation (sup norm) per application; exceeding it raises
    :class:`BudgetExceededError`.
    """

    s: float
    radius: int
    path: str = "series"
    error_budget: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "radius", int(self.radius))
        object.__setattr__(self, "error_budget", float(self.error_budget))
        if not math.isfinite(self.s) or self.s <= 0.0:
            raise ValueError(f"order must be positive and finite, got {self.s!r}")
        if self.radius < 1:
            raise ValueError("radius must be a positive integer")
        if self.path not in PATHS:
            raise ValueError(f"unknown path {self.path!r}; expected one of {PATHS}")
        if math.isnan(self.error_budget) or self.error_budget < 0.0:
            raise ValueError(f"error_budget must be non-negative, got {self.error_budget!r}")
        near_int = abs(self.s - round(self.s)) <= NEAR_INTEGER_TOL
        if self.path == "binomial" and not (near_int and round(self.s) >= 1):
            raise ValueError("path 'binomial' requires a positive integer order")
        if self.path == "quadrature" and near_int:
            raise ValueError("path 'quadrature' requires a non-integer order")


@dataclass(frozen=True)
class QuadratureScheme:
    """Node layout for the semigroup-integral oracle.

    The z-integral is split at ``split_point``; the singular inner part is
    regularized by the substitution z = t^{1/(1-sigma)} and integrated with
    ``nodes_inner`` Gauss-Legendre points, the outer part [split, z_max] with
    ``nodes_outer`` points.  Beyond ``z_max`` the identity component is
    integrated in closed form and the decaying semigroup component on a
    log-spaced Gauss-Legendre segment (see ``apply_quadrature_oracle``).
    """

    split_point: float = 1.0
    nodes_inner: int = 96
    nodes_outer: int = 96
    z_max: float = 200.0

    def __post_init__(self):
        if self.split_point <= 0.0:
            raise ValueError("split_point must be positive")
        if self.z_max <= self.split_point:
            raise ValueError("z_max must exceed split_point")
        if self.nodes_inner < 8 or self.nodes_outer < 8:
            raise ValueError("node counts must be at least 8")


# ---------------------------------------------------------------------------
# convolution plumbing
# ---------------------------------------------------------------------------


def fftconvolve(
    a: np.ndarray, b: np.ndarray, b_spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Full convolution of the real 1-D ``b`` with ``a`` (or with every row of
    a 2-D ``a``) by a real FFT along the last axis.

    Both operands are zero-padded to ``_fft_size``, the smallest 5-smooth
    length (2^a 3^b 5^c) that holds the whole linear convolution, so nothing
    wraps around.  ``b_spectrum``, if given, is
    ``np.fft.rfft(b, _fft_size(a.shape[-1], b.size))``, precomputed by a caller
    that convolves many inputs of one length with ``b``.
    """
    n = a.shape[-1] + b.size - 1
    size = _fft_size(a.shape[-1], b.size)
    if b_spectrum is None:
        b_spectrum = np.fft.rfft(b, size)
    return np.fft.irfft(np.fft.rfft(a, size) * b_spectrum, size)[..., :n]


def _fft_size(na: int, nb: int) -> int:
    """Smallest 5-smooth integer >= na + nb - 1, the length ``fftconvolve``
    pads inputs of lengths na and nb to.

    numpy's FFT is fast on lengths with prime factors 2, 3 and 5 only; a
    7-smooth length such as 12,544 is about as slow as the next power of two.
    """
    n = na + nb - 1
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two >= n / p35
            m = p35 << ((n - 1) // p35).bit_length()
            if m < best:
                best = m
            p35 *= 3
        p5 *= 5
    return best


def _convolve(
    a: np.ndarray, b: np.ndarray, b_spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Full convolution of ``b`` with ``a`` or every row of ``a``; FFT-based
    (``fftconvolve``, which takes ``b_spectrum``) when both operands are long."""
    if min(a.shape[-1], b.size) > 64:
        return fftconvolve(a, b, b_spectrum)
    if a.ndim == 1:
        return np.convolve(a, b)
    return np.array([np.convolve(row, b) for row in a])


def _stencil(m: int) -> np.ndarray:
    """Coefficients (-1)^{j-m} C(2m, j), j = 0..2m; exact integers as floats."""
    out = np.empty(2 * m + 1)
    for j in range(2 * m + 1):
        sign = 1.0 if (j - m) % 2 == 0 else -1.0
        out[j] = sign * binomial(2 * m, j)
    return out


# ---------------------------------------------------------------------------
# integer powers
# ---------------------------------------------------------------------------


def apply_integer_power(u: Sequence, m: int) -> Sequence:
    """((-Lap)^m u) by the exact binomial stencil; m = 0 is the identity.

    Support widens by exactly m on each side and every coefficient is an
    integer, so the result is exact (used as the bit-clean reference that
    the fractional paths must reproduce in the integer limit).
    """
    m = int(m)
    if m < 0:
        raise ValueError("power must be non-negative")
    if m == 0 or len(u) == 0:
        return u
    conv = np.convolve(u.values, _stencil(m))
    return Sequence(u.offset - m, conv)


# ---------------------------------------------------------------------------
# kernel series
# ---------------------------------------------------------------------------


def apply_fractional(u: Sequence, spec: OperatorSpec) -> Sequence:
    """Kernel-series application of (-Lap)^s, the production path.

    Uses the rearrangement A_s u(n) - sum_k K_s(n-k) u(k).  Every retained
    output index receives its complete finite sum over the support of u (the
    kernel row is extended to cover all reachable lags); the certified bound
    ``tail_bound * sup|u|`` covers the indices dropped beyond the dilated
    window.
    """
    s, radius = spec.s, spec.radius
    table = build_table(s, radius)
    if len(u) == 0:
        return _ZERO
    sup_u = float(np.max(np.abs(u.values)))
    bound = table.tail_bound * sup_u
    if bound > spec.error_budget:
        raise BudgetExceededError(
            f"certified truncation {bound:.3e} exceeds budget {spec.error_budget:.3e}"
        )
    length = len(u)
    kern_half, kern, spectrum = _kernel._convolution_kernel(s, radius + length - 1, length)
    conv = _convolve(u.values, kern, spectrum)  # window [offset - kern_half, end-1 + kern_half]
    r_out = min(radius, kern_half)
    lo = kern_half - r_out
    out = -conv[lo : lo + length + 2 * r_out]
    out[r_out : r_out + length] += table.total_sum * u.values
    return Sequence(u.offset - r_out, out, trunc_bound=bound)


def apply_composed(
    u: Sequence, s: float, radius: int, error_budget: float = math.inf
) -> Sequence:
    """(-Lap)^s u as (-Lap)^{s - floor(s)} applied after (-Lap)^{floor(s)}.

    The second factor is skipped when s is (numerically) an integer.
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("order must be positive")
    mfl = math.floor(s)
    frac = s - mfl
    v = apply_integer_power(u, mfl)
    if frac <= NEAR_INTEGER_TOL:
        return v
    return apply_fractional(v, OperatorSpec(frac, radius, "series", error_budget))


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------


def heat_semigroup(u: Sequence, z: float, radius: int) -> Sequence:
    """(S_z u)(n) = sum_k e^{-2z} I_{n-k}(2z) u(k) on the dilated window.

    z = 0 returns u unchanged (S_0 is the identity, exactly).  The Bessel
    row is normalized so that its full mass is 1; the reported truncation
    bound is sup|u| times the row mass beyond the output radius.
    """
    z = float(z)
    if z < 0.0:
        raise ValueError("semigroup time must be non-negative")
    radius = int(radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if z == 0.0 or len(u) == 0:
        return u
    out, row = _semigroup_window(u, z, radius)
    sup_u = float(np.max(np.abs(u.values)))
    tail_mass = max(0.0, 1.0 - (row[0] + 2.0 * float(np.sum(row[1 : radius + 1]))))
    return Sequence(u.offset - radius, out, trunc_bound=sup_u * tail_mass)


def _semigroup_window(v: Sequence, z: float, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """(S_z v) densely on [v.offset - radius, v.end-1 + radius], and its Bessel row."""
    length = len(v)
    kmax = radius + length - 1
    row = bessel_i_scaled_row(2.0 * z, kmax)
    kern = np.concatenate([row[kmax:0:-1], row[: kmax + 1]])
    conv = _convolve(v.values, kern)  # window [offset - kmax, end-1 + kmax]
    lo = kmax - radius
    return conv[lo : lo + length + 2 * radius], row


# ---------------------------------------------------------------------------
# semigroup-integral oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (built once per n)."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_nodes(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    mid = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    return mid + halfw * x, halfw * w


def _oracle_pass(
    v: Sequence,
    sigma: float,
    scheme: QuadratureScheme,
    radius: int,
    n_inner: int,
    n_outer: int,
    far_cut: float,
) -> np.ndarray:
    """One quadrature evaluation of the sigma-order integral applied to v.

    Returns the dense result on [v.offset - radius, v.end-1 + radius].
    """
    length = len(v) + 2 * radius
    v_dense = v.window(v.offset - radius, v.end - 1 + radius)

    # Taylor data for (S_z - I)v / z at small z: Lap v, Lap^2 v, Lap^3 v
    d1 = apply_integer_power(v, 1)
    d2 = apply_integer_power(v, 2)
    d3 = apply_integer_power(v, 3)
    lo_n, hi_n = v.offset - radius, v.end - 1 + radius
    t1 = -d1.window(lo_n, hi_n)
    t2 = d2.window(lo_n, hi_n)
    t3 = -d3.window(lo_n, hi_n)

    def diff_over_z(z: float) -> np.ndarray:
        # (S_z v - v) / z; by Taylor below the cancellation floor
        if z <= 1e-4:
            return t1 + (0.5 * z) * t2 + (z * z / 6.0) * t3
        return (_semigroup_window(v, z, radius)[0] - v_dense) / z

    total = np.zeros(length)

    # inner (0, z0]: z = t^beta absorbs the singularity; the transformed
    # integrand is beta * (S_z - I)v / z, bounded down to t = 0
    z0 = scheme.split_point
    beta = 1.0 / (1.0 - sigma)
    t_nodes, t_weights = _gl_nodes(n_inner, 0.0, z0 ** (1.0 - sigma))
    for t, w in zip(t_nodes, t_weights):
        total += (w * beta) * diff_over_z(t**beta)

    # outer [z0, z_max]: plain Gauss-Legendre of z^{-sigma} * (S_z - I)v / z
    z_nodes, z_weights = _gl_nodes(n_outer, z0, scheme.z_max)
    for z, w in zip(z_nodes, z_weights):
        total += (w * z ** (-sigma)) * diff_over_z(z)

    # beyond z_max: the identity component integrates in closed form ...
    total -= v_dense * (scheme.z_max ** (-sigma) / sigma)
    # ... and the decaying semigroup component on a log-spaced segment
    if far_cut > scheme.z_max * (1.0 + 1e-12):
        y_nodes, y_weights = _gl_nodes(
            n_outer, math.log(scheme.z_max), math.log(far_cut)
        )
        for y, w in zip(y_nodes, y_weights):
            z = math.exp(y)
            total += (w * math.exp(-sigma * y)) * _semigroup_window(v, z, radius)[0]

    return total / gamma(-sigma)


def apply_quadrature_oracle(
    u: Sequence,
    s: float,
    scheme: QuadratureScheme | None = None,
    *,
    radius: int = 64,
) -> Sequence:
    """Semigroup-integral evaluation of (-Lap)^s u; the slow cross-check.

    Computes v = (-Lap)^{floor(s)} u exactly, then integrates
    (1/Gamma(-sigma)) int_0^inf z^{-sigma-1} (S_z v - v) dz with
    sigma = s - floor(s) in four pieces: a substituted inner segment, a plain
    outer segment, a closed-form identity tail, and a log-spaced far segment
    for the semigroup tail cut where its certified remainder drops below
    1e-9.  The whole computation is repeated with doubled node counts; a
    discrepancy above 1e-6 in sup norm raises
    :class:`QuadratureConvergenceError`, otherwise the refined result is
    returned.  ``radius`` dilates the output window of the fractional step
    (total dilation is floor(s) + radius).
    """
    s = float(s)
    if s <= 0.0:
        raise ValueError("order must be positive")
    sigma = s - math.floor(s)
    if sigma <= NEAR_INTEGER_TOL or sigma >= 1.0 - NEAR_INTEGER_TOL:
        raise _kernel.NearIntegerOrderError(
            f"order {s!r} is within tolerance of an integer; "
            "use apply_integer_power or apply_fractional"
        )
    radius = int(radius)
    if radius < 1:
        raise ValueError("radius must be a positive integer")
    if scheme is None:
        scheme = QuadratureScheme()

    v = apply_integer_power(u, math.floor(s))
    if len(v) == 0:
        return _ZERO

    # cut the far segment where the remainder bound
    # |v|_1 (4 pi z)^{-1/2} z^{-sigma} / ((sigma+1/2) |Gamma(-sigma)|)
    # integrated past the cut drops below ftol
    l1 = float(np.sum(np.abs(v.values)))
    ftol = 1e-9 * max(1.0, float(np.max(np.abs(v.values))))
    log_abs_gamma_msigma = (
        math.log(math.pi) - math.log(_sinpi(sigma)) - log_gamma(1.0 + sigma)
    )
    log_cut = (
        math.log(l1)
        - 0.5 * math.log(4.0 * math.pi)
        - math.log(sigma + 0.5)
        - log_abs_gamma_msigma
        - math.log(ftol)
    ) / (sigma + 0.5)
    far_cut = max(scheme.z_max, math.exp(min(log_cut, 700.0)))

    coarse = _oracle_pass(
        v, sigma, scheme, radius, scheme.nodes_inner, scheme.nodes_outer, far_cut
    )
    fine = _oracle_pass(
        v,
        sigma,
        scheme,
        radius,
        2 * scheme.nodes_inner,
        2 * scheme.nodes_outer,
        far_cut,
    )
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > 1e-6:
        raise QuadratureConvergenceError(
            f"node doubling moved the result by {drift:.3e} (> 1e-6)"
        )
    return Sequence(v.offset - radius, fine, trunc_bound=ftol)


# ---------------------------------------------------------------------------
# dispatch and diagnostics
# ---------------------------------------------------------------------------


def apply(u: Sequence, spec: OperatorSpec, scheme: QuadratureScheme | None = None) -> Sequence:
    """Apply (-Lap)^s along the evaluation path selected by ``spec.path``."""
    if spec.path == "series":
        return apply_fractional(u, spec)
    if spec.path == "binomial":
        return apply_integer_power(u, round(spec.s))
    if spec.path == "quadrature":
        return apply_quadrature_oracle(u, spec.s, scheme, radius=spec.radius)
    return apply_composed(u, spec.s, spec.radius, spec.error_budget)


def log_norm_estimate(window: int, method: str = "closed_form") -> float:
    """Largest Rayleigh quotient of Lap over sequences supported in a width-N window.

    The restriction of Lap to N contiguous sites (zero extension outside) is
    the Dirichlet tridiagonal Toeplitz matrix with eigenvalues
    -4 sin^2(pi j / (2(N+1))); the maximum is strictly negative for every
    finite N and vanishes like -pi^2/N^2 as the window grows.
    ``method='power'`` recomputes it by power iteration on Lap + 4 I
    (practical for modest N; the spectral gap closes as N grows).
    """
    n = int(window)
    if n < 2:
        raise ValueError("window must be at least 2")
    if method == "closed_form":
        return -4.0 * math.sin(math.pi / (2.0 * (n + 1))) ** 2
    if method != "power":
        raise ValueError("method must be 'closed_form' or 'power'")

    x = np.ones(n) / math.sqrt(n)
    prev = -math.inf
    lam = 0.0
    for _ in range(500_000):
        ax = 2.0 * x  # (Lap + 4 I) x with zero boundary
        ax[:-1] += x[1:]
        ax[1:] += x[:-1]
        lam = float(np.dot(x, ax))
        if abs(lam - prev) <= 1e-15 * max(1.0, abs(lam)):
            break
        prev = lam
        x = ax / np.linalg.norm(ax)
    return lam - 4.0
