"""Application paths for powers of the shifted second-difference operator.

Three mutually cross-validating ways to apply the non-negative operator
(-Lap)^s to a finitely supported sequence:

* ``apply_integer_power`` -- the exact binomial stencil for integer s,
* ``apply_fractional``   -- the kernel series
      ((-Lap)^s u)(n) = A_s u(n) - sum_k K_s(n - k) u(k),
  the production path for arbitrary s > 0,
* ``apply_quadrature_oracle`` -- direct numerical integration of the
  semigroup representation
      (1/Gamma(-sigma)) int_0^inf z^{-sigma-1} (S_z - I) (-Lap)^{floor(s)} u dz
  by nested Clenshaw-Curtis rules (Waldvogel, BIT 46, 2006; Trefethen,
  SIAM Rev. 50, 2008), slow, used to check the series path.

``heat_semigroup`` evaluates S_z itself through scaled Bessel weights
e^{-2z} I_{n-k}(2z).  Output windows are the input support dilated by the
truncation radius; each result carries a bound on the discarded mass in its
``trunc_bound`` field, certified except for the oracle's (see there).

The module owns the convolution cache, ``_convolution_kernel``: the mirrored
kernel rows or spectra that the convolutions use, at any radius (``evolve``'s
2W may be below ``build_table``'s minimum).  The package's one other kernel
cache is ``kernel.build_table``, which keeps the tables.

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

from . import kernel as _kernel
from .kernel import build_table
from .lattice import Sequence
from .special import bessel_i_scaled_row, binomial, gamma

__all__ = [
    "BudgetExceededError",
    "QuadratureConvergenceError",
    "OperatorSpec",
    "PATHS",
    "apply",
    "apply_integer_power",
    "apply_fractional",
    "heat_semigroup",
    "apply_quadrature_oracle",
]

PATHS = ("series", "binomial", "quadrature")

_ZERO = Sequence(0, np.zeros(0))
# ``_convolve`` sums directly when either operand is at most this long
_DIRECT_MAX = 64


class BudgetExceededError(RuntimeError):
    """Certified truncation error exceeds the configured budget for this apply."""


class QuadratureConvergenceError(RuntimeError):
    """The quadrature oracle found no pair of rules, up to the finest, whose
    results agree within 1e-6, or the drift between two rules is not finite."""


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
        object.__setattr__(self, "s", _kernel._check_order(self.s))
        object.__setattr__(self, "radius", int(self.radius))
        object.__setattr__(self, "error_budget", float(self.error_budget))
        if self.radius < 1:
            raise ValueError("radius must be a positive integer")
        if self.path not in PATHS:
            raise ValueError(f"unknown path {self.path!r}; expected one of {PATHS}")
        if math.isnan(self.error_budget) or self.error_budget < 0.0:
            raise ValueError(f"error_budget must be non-negative, got {self.error_budget!r}")
        near_int = _kernel._is_near_integer(self.s)
        if self.path == "binomial" and not (near_int and round(self.s) >= 1):
            raise ValueError("path 'binomial' requires a positive integer order")
        if self.path == "quadrature" and near_int:
            raise ValueError("path 'quadrature' requires a non-integer order")


# ---------------------------------------------------------------------------
# convolution plumbing
# ---------------------------------------------------------------------------


def fftconvolve(
    a: np.ndarray, b: np.ndarray | int, b_spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Full convolution of the real 1-D ``b`` with ``a`` (or with every row of
    a 2-D ``a``) by a real FFT along the last axis.

    Both operands are zero-padded to ``_fft_size``, the smallest 5-smooth
    length (2^a 3^b 5^c) that holds the whole linear convolution, so nothing
    wraps around.  ``b_spectrum``, if given, is
    ``np.fft.rfft(b, _fft_size(a.shape[-1], b.size))``, precomputed by a caller
    that convolves many inputs of one length with ``b``; ``b`` may then be
    given by its length alone.
    """
    nb = b if isinstance(b, int) else b.size
    n = a.shape[-1] + nb - 1
    size = _fft_size(a.shape[-1], nb)
    if b_spectrum is None:
        b_spectrum = np.fft.rfft(b, size)
    return np.fft.irfft(np.fft.rfft(a, size) * b_spectrum, size)[..., :n]


@lru_cache(maxsize=128)
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
    row = build_table(s, half).values if n == 1 else _kernel.kernel_row(s, half)
    r = int(np.flatnonzero(row)[-1])  # K_s(1) > 0 for every valid order, so r >= 1
    kern = np.concatenate([row[r:0:-1], row[: r + 1]])
    kern.setflags(write=False)
    if min(n, kern.size) <= _DIRECT_MAX:
        return r, kern, None
    spectrum = np.fft.rfft(kern, _fft_size(n, kern.size))
    spectrum.setflags(write=False)
    return r, (kern if half < n else None), spectrum


def _convolve(
    a: np.ndarray, b: np.ndarray, b_spectrum: np.ndarray | None = None
) -> np.ndarray:
    """Full convolution of ``b`` with ``a`` or every row of ``a``; FFT-based
    (``fftconvolve``, which takes ``b_spectrum``) when both operands are long."""
    if min(a.shape[-1], b.size) > _DIRECT_MAX:
        return fftconvolve(a, b, b_spectrum)
    if a.ndim == 1:
        return np.convolve(a, b)
    return np.array([np.convolve(row, b) for row in a])


def _stencil(m: int) -> np.ndarray:
    """Coefficients (-1)^{j-m} C(2m, j), j = 0..2m; exact integers as floats.

    Built term by term, so a stencil beyond doubles (m >= 515) overflows
    before anything of size m is allocated."""
    return np.array([(-1.0) ** (j - m) * binomial(2 * m, j) for j in range(2 * m + 1)])


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
    kern_half, kern, spectrum = _convolution_kernel(s, radius + length - 1, length)
    # window [offset - kern_half, end-1 + kern_half]; the FFT entry keeps no kernel
    if spectrum is None:
        conv = _convolve(u.values, kern)
    else:
        conv = fftconvolve(u.values, 2 * kern_half + 1, spectrum)
    r_out = min(radius, kern_half)
    lo = kern_half - r_out
    out = -conv[lo : lo + length + 2 * r_out]
    out[r_out : r_out + length] += table.total_sum * u.values
    return Sequence(u.offset - r_out, out, trunc_bound=bound)


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


# The oracle's node layout: the inner segment ends at _SPLIT, the outer one at
# _Z_MAX, and the first rule has _FIRST_NODES intervals per segment.  Doubling
# stops at _LAST_NODES = 64 * 16: s = 0.99999 on a random 41-point input needs
# the 1,025-node rules (the 257- and 513-node ones differ by 9.5e-6), and an
# input that never converges raises after about 0.6 s of CPU (2-vCPU Xeon).
_SPLIT = 1.0
_Z_MAX = 200.0
_FIRST_NODES = 64
_LAST_NODES = 1024


@lru_cache(maxsize=8)
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n+1)-node Clenshaw-Curtis rule on [-1, 1], read-only (built once per n).

    Node j is cos(j pi / n), computed as sin(pi (n - 2j) / (2n)), so the nodes
    of n are bit for bit the even-indexed nodes of 2n.  The weights are the
    type-I discrete cosine transform of the moments 2 / (1 - k^2), k even,
    taken by one real FFT (Waldvogel, BIT 46, 2006).
    """
    x = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2.0)
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / n
    w[[0, -1]] *= 0.5
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _oracle_pass(v: Sequence, sigma: float, radius: int, far_cut: float):
    """Yield (n, result) for the sigma-order integral applied to v with the
    (n+1)-node Clenshaw-Curtis rules, n = _FIRST_NODES, 2 _FIRST_NODES, ...,
    on the inner, outer and far segments; each result is dense on
    [v.offset - radius, v.end-1 + radius].

    The rules are nested (Trefethen, SIAM Rev. 50, 2008), so each pass keeps
    the integrand values of the one before and evaluates only its new nodes.
    """
    v_dense = v.window(v.offset - radius, v.end - 1 + radius)

    # Taylor data for (S_z - I)v / z at small z: Lap v, Lap^2 v, Lap^3 v
    d1 = apply_integer_power(v, 1)
    d2 = apply_integer_power(v, 2)
    d3 = apply_integer_power(v, 3)
    lo_n, hi_n = v.offset - radius, v.end - 1 + radius
    t1 = -d1.window(lo_n, hi_n)
    t2 = d2.window(lo_n, hi_n)
    t3 = -d3.window(lo_n, hi_n)

    @lru_cache(maxsize=None)  # this call's memo: the segments share z = 1 and z = _Z_MAX
    def semigroup(z: float) -> np.ndarray:
        return _semigroup_window(v, z, radius)[0]

    def diff_over_z(z: float) -> np.ndarray:
        # (S_z v - v) / z; by Taylor below the cancellation floor (and at z = 0)
        if z <= 1e-4:
            return t1 + (0.5 * z) * t2 + (z * z / 6.0) * t3
        return (semigroup(z) - v_dense) / z

    def far(y: float) -> np.ndarray:
        z = _Z_MAX * math.exp(y)
        return z ** (-sigma) * semigroup(z)

    beta = 1.0 / (1.0 - sigma)
    segments = [
        # inner (0, split]: z = t^beta absorbs the singularity; the transformed
        # integrand is beta * (S_z - I)v / z, bounded down to t = 0
        (0.0, _SPLIT ** (1.0 - sigma), lambda t: beta * diff_over_z(t**beta)),
        # outer [split, z_max]: z^{-sigma} * (S_z - I)v / z
        (_SPLIT, _Z_MAX, lambda z: z ** (-sigma) * diff_over_z(z)),
    ]
    # beyond z_max: the decaying semigroup component, in y = log(z / z_max) ...
    if far_cut > _Z_MAX * (1.0 + 1e-12):
        segments.append((0.0, math.log(far_cut / _Z_MAX), far))
    # ... and the identity component in closed form
    identity_tail = v_dense * (_Z_MAX ** (-sigma) / sigma)

    values = [None] * len(segments)
    n = _FIRST_NODES
    while True:
        x, w = _clenshaw_curtis(n)
        total = -identity_tail
        for i, (lo, hi, f) in enumerate(segments):
            mid, halfw = 0.5 * (lo + hi), 0.5 * (hi - lo)
            if n == _FIRST_NODES:
                values[i] = np.array([f(mid + halfw * xj) for xj in x])
            else:  # new node k lies between the old nodes k and k + 1
                fresh = np.array([f(mid + halfw * xj) for xj in x[1::2]])
                values[i] = np.insert(values[i], np.arange(1, n // 2 + 1), fresh, axis=0)
            total = total + halfw * (w @ values[i])
        yield n, total / gamma(-sigma)
        n *= 2


# the drift test rejects every non-finite result, so numpy's warnings add nothing
@np.errstate(over="ignore", invalid="ignore")
def apply_quadrature_oracle(u: Sequence, s: float, *, radius: int = 64) -> Sequence:
    """Semigroup-integral evaluation of (-Lap)^s u; the slow cross-check.

    Computes v = (-Lap)^{floor(s)} u exactly, then integrates
    (1/Gamma(-sigma)) int_0^inf z^{-sigma-1} (S_z v - v) dz with
    sigma = s - floor(s) in four pieces, three of them with a Clenshaw-Curtis
    rule: an inner segment (0, 1], where the substitution z = t^{1/(1-sigma)}
    removes the singularity; a plain outer segment [1, 200]; beyond 200 the
    identity component in closed form; and a log-spaced far segment for the
    semigroup component, cut where its certified remainder drops below ftol
    = 1e-9 max(1, sup|v|).

    The oracle checks its own convergence: it integrates with 65 nodes per
    segment, then 129, doubling the intervals until two successive results
    agree within 1e-6 in sup norm, and returns the finer one.  The rules are
    nested, so each doubling pays only for its new nodes (Waldvogel, BIT 46,
    2006; Trefethen, SIAM Rev. 50, 2008).  If the results still differ at
    1,025 nodes, or their difference is not finite, it raises
    :class:`QuadratureConvergenceError`.  ``radius`` dilates the output
    window of the fractional step (total dilation is floor(s) + radius).

    The returned ``trunc_bound`` is ftol, which bounds only the cut far
    tail.  The quadrature drift, up to 1e-6, is not part of it, so as a
    bound on the error of the result it is an estimate.
    """
    s = _kernel._check_non_integer_order(s)
    sigma = s - math.floor(s)
    radius = int(radius)
    if radius < 1:
        raise ValueError("radius must be a positive integer")

    v = apply_integer_power(u, math.floor(s))
    if len(v) == 0:
        return _ZERO

    # cut the far segment where the remainder bound
    # |v|_1 (4 pi z)^{-1/2} z^{-sigma} / ((sigma+1/2) |Gamma(-sigma)|)
    # integrated past the cut drops below ftol
    l1 = float(np.sum(np.abs(v.values)))
    ftol = 1e-9 * max(1.0, float(np.max(np.abs(v.values))))
    log_cut = (
        math.log(l1)
        - 0.5 * math.log(4.0 * math.pi)
        - math.log(sigma + 0.5)
        - _kernel._log_abs_gamma_minus(sigma)
        - math.log(ftol)
    ) / (sigma + 0.5)
    far_cut = max(_Z_MAX, math.exp(min(log_cut, 700.0)))

    passes = _oracle_pass(v, sigma, radius, far_cut)
    _, coarse = next(passes)
    for n, fine in passes:
        drift = float(np.max(np.abs(fine - coarse)))
        if drift <= 1e-6:
            return Sequence(v.offset - radius, fine, trunc_bound=ftol)
        if not math.isfinite(drift) or n >= _LAST_NODES:
            raise QuadratureConvergenceError(
                f"at order {s!r} the {n // 2 + 1}- and {n + 1}-node rules differ by"
                f" {drift:.3e} (limit 1e-6)"
            )
        coarse = fine


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def apply(u: Sequence, spec: OperatorSpec) -> Sequence:
    """Apply (-Lap)^s along the evaluation path selected by ``spec.path``."""
    if spec.path == "series":
        return apply_fractional(u, spec)
    if spec.path == "binomial":
        return apply_integer_power(u, round(spec.s))
    return apply_quadrature_oracle(u, spec.s, radius=spec.radius)

