"""Random fractional Schrodinger operators and Krylov-span diagnostics.

The model is H = (-Lap)^s + V on the lattice, where V is a diagonal of
i.i.d. uniform[-c/2, c/2] disorder.  The harness computes forward orbits
H^k delta_0, orthonormalizes them into a Krylov basis, and records the
distance of probe vectors to the growing span: a unit vector whose distance
stays bounded away from zero (with positive probability over the disorder)
certifies absolutely continuous spectrum, i.e. absence of localization.
The ensemble runner reports residuals only; it deliberately does not
classify spectra.

All lattice runs live on a finite window [-W, W] with zero extension
outside; the mass clipped at the boundary is reported through the result's
``trunc_bound``.  Disorder is drawn from a counter-based generator keyed by
(seed, site), so the value at a site does not depend on the window size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox

from .kernel import _check_order, _convolution_kernel, kernel_sum
from .lattice import Sequence, delta, norm
from .operators import OperatorSpec, _convolve, apply_fractional

__all__ = [
    "SupportOverflowError",
    "StabilityError",
    "DisorderRealization",
    "sample_disorder",
    "HamiltonianConfig",
    "apply_hamiltonian",
    "OrbitBasis",
    "orbit_basis",
    "krylov_residual",
    "evolve",
    "EnsembleReport",
    "monte_carlo",
]

_MASK64 = (1 << 64) - 1
_KEY_SALT = 0x9E3779B97F4A7C15  # tags this use of Philox; arbitrary fixed odd word

# evolve's step-matrix route costs one batched RK4 step per window site to
# build P and one per time step to replay the clipped stage values, and then
# steps by one (2W+1)^2 gemv instead of four single-row convolutions.  CPU time
# per evolve call, step matrix over single rows (s = 0.5, one thread, 2-vCPU
# Xeon): with as many steps as sites 2.2-2.7x faster at W <= 64, 1.5x at
# W = 128, 1.0x at W = 176 and 192, 0.9x at W = 224 and 256; at 1000 steps
# 1.45x at W = 192, 0.94x at W = 320, 0.73x at W = 384.
_STEP_MATRIX_MAX_SITES = 385  # W <= 192
# rows per batched RK4 step: at W = 128 a row costs 80, 73 and 84 us in
# batches of 8, 16 and 32, against 261 us alone
_STEP_MATRIX_CHUNK = 16


class SupportOverflowError(ValueError):
    """Sequence support does not fit inside the configured window."""


class StabilityError(RuntimeError):
    """Explicit time step exceeds the stability bound 0.5 / (A_s + c/2)."""


@dataclass(frozen=True)
class DisorderRealization:
    """Window of i.i.d. uniform[-c/2, c/2] site potentials with its seed.

    ``potential[i]`` is the value at site i - window_radius.  Regenerating
    with the same (seed, amplitude, window_radius) is bit-exact, and the
    value at a fixed site is independent of the window size.
    """

    amplitude: float
    seed: int
    window_radius: int
    potential: np.ndarray

    def __post_init__(self):
        pot = np.asarray(self.potential, dtype=float)
        pot.setflags(write=False)
        object.__setattr__(self, "potential", pot)

    def at(self, n: int) -> float:
        i = int(n) + self.window_radius
        if not 0 <= i < self.potential.size:
            raise IndexError(f"site {n} outside disorder window")
        return float(self.potential[i])


def _counter_run(seed: int, start: int, n: int) -> np.ndarray:
    """First 64-bit word of Philox blocks start, start+1, ..., start+n-1."""
    bitgen = Philox(
        counter=np.array([start & _MASK64, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64),
    )
    return bitgen.random_raw(4 * n)[::4]


def sample_disorder(c: float, seed: int, window_radius: int) -> DisorderRealization:
    """Draw the disorder realization for (seed, amplitude c) on [-W, W].

    Site n takes the first word of Philox counter block n (mod 2^64) under
    a key made of the seed, so the draw at site n is a pure function of
    (seed, n).  The blocks are drawn as two contiguous runs, one for the
    sites -W..-1 (counters 2^64 - W .. 2^64 - 1) and one for 0..W, because a
    single run across the wrap would carry into the second counter word.
    Each word is mapped to [-c/2, c/2) exactly as ``Generator.uniform``
    maps it: low + (high - low) * ((word >> 11) * 2^-53).
    """
    c = float(c)
    if not math.isfinite(c) or c < 0.0:
        raise ValueError(f"disorder amplitude must be finite and non-negative, got {c!r}")
    w = int(window_radius)
    if w < 1:
        raise ValueError("window_radius must be a positive integer")
    seed = int(seed)
    half = 0.5 * c
    raw = np.concatenate([_counter_run(seed, -w, w), _counter_run(seed, 0, w + 1)])
    pot = -half + (half - (-half)) * ((raw >> np.uint64(11)) * 2.0**-53)
    return DisorderRealization(amplitude=c, seed=seed, window_radius=w, potential=pot)


@dataclass(frozen=True)
class HamiltonianConfig:
    """H = (-Lap)^s + disorder diagonal on a finite window.

    ``kernel_radius`` is the truncation radius handed to the kernel-series
    path; it must fit inside the disorder window.  Outside the window the
    state is zero: whatever H moves beyond it is dropped, and the dropped
    magnitude is reported through ``trunc_bound``.
    """

    s: float
    kernel_radius: int
    disorder: DisorderRealization

    def __post_init__(self):
        _check_order(self.s)
        if self.kernel_radius < 1:
            raise ValueError("kernel_radius must be a positive integer")
        if self.kernel_radius > self.disorder.window_radius:
            raise ValueError("kernel_radius must not exceed the window radius")

    @property
    def window_radius(self) -> int:
        return self.disorder.window_radius


def apply_hamiltonian(u: Sequence, config: HamiltonianConfig) -> Sequence:
    """(H u)(n) = ((-Lap)^s u)(n) + eps_n u(n), clipped to the window.

    The support of u must already lie inside [-W, W]; the fractional part is
    the kernel-series path and whatever it places outside the window is
    dropped, with the dropped magnitude added to the result's trunc_bound.
    """
    w, r = config.window_radius, config.kernel_radius
    if len(u) and (u.offset < -w or u.end - 1 > w):
        raise SupportOverflowError(
            f"support [{u.offset}, {u.end - 1}] exceeds window [-{w}, {w}]"
        )
    if len(u) == 0:
        return u
    frac = apply_fractional(u, OperatorSpec(config.s, r, "series"))
    # the series output lies in [-W-R, W+R]; the R sites at either end are dropped
    full = frac.window(-w - r, w + r)
    clip_mass = float(max(np.max(np.abs(full[:r])), np.max(np.abs(full[-r:]))))
    out = full[r:-r]
    pot = config.disorder.potential
    i0 = u.offset + w
    out[i0 : i0 + len(u)] += pot[i0 : i0 + len(u)] * u.values
    return Sequence(-w, out, trunc_bound=frac.trunc_bound + clip_mass)


@dataclass(frozen=True)
class OrbitBasis:
    """Orthonormalized basis of span{H^k delta_0} with per-step iterate norms.

    ``raw_norms[k]`` is the norm of the k-th orbit iterate before
    orthonormalization (``raw_norms[0] = 1`` for delta_0, afterwards
    ||H b_{k-1}|| with b_{k-1} the previous basis vector); vectors and
    raw_norms have equal length.  Construction stops early when an iterate's
    component orthogonal to the current span falls below ``residual_tol``
    relative to the iterate's norm (numerical detection of an invariant
    subspace).
    """

    vectors: list[Sequence]
    raw_norms: list[float]
    residual_tol: float

    def __len__(self) -> int:
        return len(self.vectors)

    def prefix(self, depth: int) -> "OrbitBasis":
        d = min(int(depth), len(self.vectors))
        return OrbitBasis(self.vectors[:d], self.raw_norms[:d], self.residual_tol)


def orbit_basis(
    config: HamiltonianConfig, depth: int, residual_tol: float = 1e-12
) -> OrbitBasis:
    """Build the Krylov basis of H from delta_0 up to the requested depth.

    Each new direction is H applied to the most recent orthonormal vector,
    orthogonalized against the basis so far by classical Gram-Schmidt run
    twice (CGS2): two blocked projections b -= Q^T (Q b).  A single pass
    loses orthogonality in floating point; the second restores it to
    working precision ("twice is enough", Giraud, Langou & Rozloznik 2005).
    (Orthonormalizing the raw power iterates H^k delta_0 spans the same
    space in exact arithmetic but loses the span geometrically in floating
    point as the iterates align with the dominant spectral weight; this
    construction keeps both the Gram matrix and symmetry properties of the
    span at the 1e-14 level to arbitrary depth.)  ``residual_tol`` must lie
    in (0, 1), so the basis always holds delta_0.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    if not 0.0 < residual_tol < 1.0:
        raise ValueError(f"residual_tol must lie in (0, 1), got {residual_tol!r}")
    w = config.window_radius
    q = np.zeros((min(depth, 2 * w + 1), 2 * w + 1))  # at most dim-many directions
    raw_norms: list[float] = []
    dense = delta(0).window(-w, w)
    for k in range(len(q)):
        if k:
            dense = apply_hamiltonian(Sequence(-w, q[k - 1]), config).window(-w, w)
        raw = float(np.linalg.norm(dense))
        if raw == 0.0:
            break
        b = dense - q[:k].T @ (q[:k] @ dense)
        b -= q[:k].T @ (q[:k] @ b)
        r = float(np.linalg.norm(b))
        if r < residual_tol * raw:
            break
        raw_norms.append(raw)
        q[k] = b / r
    vectors = [Sequence(-w, b) for b in q[: len(raw_norms)]]
    return OrbitBasis(vectors=vectors, raw_norms=raw_norms, residual_tol=residual_tol)


def _span_residuals(q: Iterable[np.ndarray], v: np.ndarray) -> list[float]:
    """||v - sum_{j<d} <v, q_j> q_j|| for d = 1, 2, ... over the dense rows q_j."""
    resid = v.copy()
    out = []
    for qj in q:
        resid -= np.dot(qj, v) * qj
        out.append(float(np.linalg.norm(resid)))
    return out


def krylov_residual(v: Sequence, basis: OrbitBasis) -> float:
    """Distance ||v - sum_j <v, b_j> b_j|| from unit v to the orbit span."""
    nv = norm(v)
    if abs(nv - 1.0) > 1e-10:
        raise ValueError(f"probe must be unit norm, got ||v|| = {nv!r}")
    if not basis.vectors:
        return 1.0
    lo = min(v.offset, min(b.offset for b in basis.vectors))
    hi = max(v.end, max(b.end for b in basis.vectors)) - 1
    dense = (b.window(lo, hi) for b in basis.vectors)
    return _span_residuals(dense, v.window(lo, hi))[-1]


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------


def evolve(
    u0: Sequence,
    config: HamiltonianConfig,
    t_end: float,
    dt: float,
    sign: int = +1,
) -> Sequence:
    """Integrate u' = sign * H u by classical fixed-step RK4.

    ``sign=+1`` follows the evolution equation literally; ``sign=-1`` gives
    the diffusive direction u' = -(-Lap)^s u - V u.  The step must satisfy
    the explicit-scheme heuristic dt <= 0.5 / (A_s + c/2); the number of
    steps is round(t_end / dt) and the step is snapped to t_end / steps so
    the integration lands on t_end exactly.

    The right-hand side is the window restriction of H with every lag
    reachable inside [-W, W], i.e. the same sums ``apply_hamiltonian``
    evaluates on window-spanning states; equivalently, the matrix
    (A_s + eps_n) I - Toeplitz(K_s) on the window.  Because every lag in
    the window is used, ``config.kernel_radius`` does not affect the result.

    H is fixed, so every RK4 step is the same matrix P = sum_{j<=4} (hM)^j / j!
    with M = sign * H.  When the window has at most 385 sites (W <= 192) and
    the run takes at least as many steps as the window has sites, P is built
    once (8 (2W+1)^2 bytes, 1.2 MB at W = 192) and each step is one
    matrix-vector product; otherwise each step evaluates the four stages by
    convolution.  Both routes agree to rounding, and both report the
    same ``trunc_bound``: the largest stage value clipped at the window edge
    over the run, times t_end.
    """
    t_end = float(t_end)
    dt = float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be non-negative and finite, got {t_end!r}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if t_end == 0.0:
        return u0
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    a_s = kernel_sum(config.s)
    dt_max = 0.5 / (a_s + 0.5 * config.disorder.amplitude)
    if dt > dt_max * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt} exceeds stability bound {dt_max:.6g}")

    w = config.window_radius
    if len(u0) and (u0.offset < -w or u0.end - 1 > w):
        raise SupportOverflowError("initial state exceeds the window")
    steps = max(1, round(t_end / dt))
    h = sign * (t_end / steps)  # negation is exact: same values as sign * H u

    length = 2 * w + 1
    _, kern, spectrum = _convolution_kernel(float(config.s), 2 * w, length)
    diag = a_s + config.disorder.potential
    clipped = 0.0
    y = u0.window(-w, w)
    if length <= _STEP_MATRIX_MAX_SITES and steps >= length:  # P pays for itself
        # row i of pt is P e_i, so y @ pt is one RK4 step P y
        pt = np.empty((length, length))
        for i in range(0, length, _STEP_MATRIX_CHUNK):
            rows = np.eye(min(_STEP_MATRIX_CHUNK, length - i), length, i)
            pt[i : i + len(rows)] = _rk4_rows(rows, h, diag, kern, spectrum)[0]
        states = np.empty((_STEP_MATRIX_CHUNK, length))
        for first in range(0, steps, _STEP_MATRIX_CHUNK):
            m = min(_STEP_MATRIX_CHUNK, steps - first)
            for j in range(m):
                states[j] = y
                y = y @ pt
            # replay the chunk's steps only for the stage values they clip
            clipped = max(clipped, _rk4_rows(states[:m], h, diag, kern, spectrum)[1])
    else:
        for _ in range(steps):
            y, clip = _rk4_rows(y, h, diag, kern, spectrum)
            clipped = max(clipped, clip)
    # crude bound on the boundary intrusion: strongest clipped stage value
    # integrated over the run
    return Sequence(-w, y, trunc_bound=clipped * t_end)


def _rk4_rows(
    y: np.ndarray, h: float, diag: np.ndarray, kern: np.ndarray, spectrum: np.ndarray
) -> tuple[np.ndarray, float]:
    """One classical RK4 step of u' = (diag I - Toeplitz(kern)) u, step h, for
    every row of ``y`` (a 1-D ``y`` is one row).

    ``kern`` holds the lags -r..r and ``spectrum`` is its ``fftconvolve``
    transform at the window length of ``y``.  Returns the stepped rows and
    the largest |value| any stage placed on the r sites beyond either end of
    the window, which the zero extension drops.
    """
    n, r = y.shape[-1], kern.size // 2
    clipped = 0.0

    def rhs(v: np.ndarray) -> np.ndarray:
        nonlocal clipped
        conv = _convolve(v, kern, spectrum)
        edge = max(np.max(np.abs(conv[..., :r])), np.max(np.abs(conv[..., r + n :])))
        clipped = max(clipped, float(edge))
        return diag * v - conv[..., r : r + n]

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), clipped


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleReport:
    """Per-seed residual rows plus ensemble statistics.

    ``rows`` holds (seed, probe_id, depth, residual) in seed order, depths
    1..depth per probe; the CSV rendering (header and rows, no manifest) is
    a pure function of the inputs, so identical parameters give identical
    bytes.
    """

    rows: list[tuple[int, str, int, float]]
    summary: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["seed,probe_id,depth,residual"]
        for seed, pid, depth, res in self.rows:
            lines.append(f"{seed},{pid},{depth},{res!r}")
        return "\n".join(lines) + "\n"

    def summary_csv(self) -> str:
        lines = ["probe_id,depth,mean,min,max"]
        for (pid, depth), (mean, lo, hi) in sorted(self.summary.items()):
            lines.append(f"{pid},{depth},{mean!r},{lo!r},{hi!r}")
        return "\n".join(lines) + "\n"


def monte_carlo(
    s: float,
    c: float,
    window_radius: int,
    kernel_radius: int,
    seeds: list[int],
    depth: int,
    probes: list[tuple[str, Sequence]],
    residual_tol: float = 1e-12,
) -> EnsembleReport:
    """Run the seeded disorder ensemble and collect span residuals.

    For every seed the full pipeline (disorder, orbit, per-depth residual of
    every probe) is deterministic, so the report is bit-reproducible for a
    fixed argument set.  Seeds run one after another in this thread: a
    thread pool gave no speedup, because the per-seed work holds the
    interpreter lock.
    """
    seeds = [int(x) for x in seeds]
    if not seeds:
        raise ValueError("seeds must name at least one seed, got an empty list")
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    probes = list(probes)
    for pid, probe in probes:
        if abs(norm(probe) - 1.0) > 1e-10:
            raise ValueError(f"probe {pid!r} is not unit norm")
        if len(probe) and (probe.offset < -window_radius or probe.end - 1 > window_radius):
            raise SupportOverflowError(f"probe {pid!r} exceeds the window")

    def job(seed: int) -> list[tuple[int, str, int, float]]:
        disorder = sample_disorder(c, seed, window_radius)
        config = HamiltonianConfig(s=s, kernel_radius=kernel_radius, disorder=disorder)
        basis = orbit_basis(config, depth, residual_tol)
        w = window_radius
        dense = [b.window(-w, w) for b in basis.vectors]
        rows = []
        for pid, probe in probes:
            res = _span_residuals(dense, probe.window(-w, w))
            res += res[-1:] * (depth - len(res))  # a basis that ended early
            rows.extend((seed, pid, d, r) for d, r in enumerate(res, 1))
        return rows

    # one seed at a time; a seed's basis is freed before the next one is built
    rows = [row for seed in seeds for row in job(seed)]
    groups: dict[tuple[str, int], list[float]] = {}
    for _, pid, d, r in rows:  # in seed order
        groups.setdefault((pid, d), []).append(r)
    summary = {
        key: (float(math.fsum(vals) / len(vals)), min(vals), max(vals))
        for key, vals in groups.items()
    }
    return EnsembleReport(rows=rows, summary=summary)
