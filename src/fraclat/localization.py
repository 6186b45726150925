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

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox

from .kernel import _check_order, _convolution_kernel, kernel_sum
from .lattice import Sequence, norm
from .operators import _DIRECT_MAX, OperatorSpec, _convolve, _fft_size, apply_fractional

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
    "trajectory",
    "evolve",
    "EnsembleReport",
    "monte_carlo",
]

_MASK64 = (1 << 64) - 1
_KEY_SALT = 0x9E3779B97F4A7C15  # tags this use of Philox; arbitrary fixed odd word

# evolve's step-matrix route costs one batched RK4 step per window site to
# build P, and then steps by one (2W+1)^2 gemv instead of four single-row
# convolutions.  CPU time per evolve call, single rows over step matrix
# (s = 0.5, one thread, 2-vCPU Xeon): with as many steps as sites 2.0-2.6x
# at W = 128 and 192, 1.3-1.4x at W = 256, 0.85-1.0x at W = 320, 0.85x at
# W = 384; at 2000 steps 2.2x at W = 256, 1.45x at W = 320, 0.96x at W = 384.
_STEP_MATRIX_MAX_SITES = 513  # W <= 256
# rows per batched RK4 step: at W = 128 a row costs 80, 73 and 84 us in
# batches of 8, 16 and 32, against 261 us alone
_STEP_MATRIX_CHUNK = 16


class SupportOverflowError(ValueError):
    """Sequence support does not fit inside the configured window."""


class StabilityError(RuntimeError):
    """Explicit time step exceeds the stability bound 0.5 / (A_s + c/2)."""


def _check_window(name: str, u: Sequence, w: int) -> None:
    """Raise SupportOverflowError unless the support of ``u`` lies inside [-w, w]."""
    if len(u) and (u.offset < -w or u.end - 1 > w):
        raise SupportOverflowError(
            f"{name} support [{u.offset}, {u.end - 1}] exceeds window [-{w}, {w}]"
        )


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
    _check_window("state", u, w)
    if len(u) == 0:
        return u
    frac = apply_fractional(u, OperatorSpec(config.s, r, "series"))
    # the series output lies in [-W-R, W+R]; its sites [i, j) lie inside the
    # window, and the values beyond are dropped
    i = max(frac.offset, -w)
    j = max(min(frac.end, w + 1), i)
    vals = frac.values
    edges = (vals[: i - frac.offset], vals[j - frac.offset :])
    clip_mass = float(max(np.max(np.abs(e), initial=0.0) for e in edges))
    lo, hi = min(i, u.offset), max(j, u.end)
    out = np.zeros(hi - lo)
    out[i - lo : j - lo] = vals[i - frac.offset : j - frac.offset]
    pot = config.disorder.potential[u.offset + w : u.end + w]
    out[u.offset - lo : u.end - lo] += pot * u.values
    return Sequence(lo, out, trunc_bound=frac.trunc_bound + clip_mass)


@dataclass(frozen=True, eq=False)
class OrbitBasis:
    """Orthonormalized basis of span{H^k delta_0} with per-step iterate norms.

    Row k of the read-only array ``q`` is basis vector k on the window
    sites -W..W.  ``raw_norms[k]`` is the norm of the k-th orbit iterate
    before orthonormalization (``raw_norms[0] = 1`` for delta_0, afterwards
    ||H b_{k-1}|| with b_{k-1} the previous basis vector); q and raw_norms
    have equal length.  :func:`orbit_basis` stops early when an iterate's
    component orthogonal to the current span falls below ``residual_tol``
    relative to the iterate's norm (numerical detection of an invariant
    subspace).
    """

    q: np.ndarray
    raw_norms: list[float]

    def __len__(self) -> int:
        return len(self.q)

    @property
    def vectors(self) -> list[Sequence]:
        """The rows of ``q`` as Sequences."""
        w = self.q.shape[1] // 2
        return [Sequence(-w, b) for b in self.q]


def orbit_basis(
    config: HamiltonianConfig, depth: int, residual_tol: float = 1e-12
) -> OrbitBasis:
    """Build the Krylov basis of H from delta_0 up to the requested depth.

    Each new direction is H applied to the most recent orthonormal vector,
    orthogonalized against the basis so far by classical Gram-Schmidt run
    twice (CGS2): two blocked projections b -= Q^T (Q b).  The orbit grows
    by at most R sites a side per step, so its support envelope (the union
    of the supports so far, [-kR, kR] at step k) is usually far narrower
    than the window; every basis vector is zero outside it, and the norms,
    both projections and H itself run on the envelope only.  A single pass
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
    lo, hi = w, w + 1  # the envelope: the columns of q the orbit has reached
    iterate = np.ones(1)  # delta_0 on the envelope
    for k in range(len(q)):
        if k:
            hb = apply_hamiltonian(Sequence(lo - w, q[k - 1, lo:hi]), config)
            lo, hi = min(lo, hb.offset + w), max(hi, hb.end + w)
            iterate = hb.window(lo - w, hi - 1 - w)
        raw = float(np.linalg.norm(iterate))
        if raw == 0.0:
            break
        qk = q[:k, lo:hi]
        b = iterate - qk.T @ (qk @ iterate)
        b -= qk.T @ (qk @ b)
        r = float(np.linalg.norm(b))
        if r < residual_tol * raw:
            break
        raw_norms.append(raw)
        q[k, lo:hi] = b / r
    q = q[: len(raw_norms)]
    q.setflags(write=False)
    return OrbitBasis(q=q, raw_norms=raw_norms)


def krylov_residual(v: Sequence, basis: OrbitBasis) -> list[float]:
    """Distances ||v - sum_{j<d} <v, b_j> b_j|| from unit v to the span of the
    first d basis vectors, for d = 1, ..., len(basis).

    The support of v must lie inside the basis's window [-W, W].
    """
    nv = norm(v)
    if abs(nv - 1.0) > 1e-10:
        raise ValueError(f"probe must be unit norm, got ||v|| = {nv!r}")
    w = basis.q.shape[1] // 2
    _check_window("probe", v, w)
    dense = v.window(-w, w)
    resid = dense.copy()
    out = []
    for qj in basis.q:
        resid -= np.dot(qj, dense) * qj
        out.append(float(np.linalg.norm(resid)))
    return out


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------


def trajectory(
    u0: Sequence,
    config: HamiltonianConfig,
    t_end: float,
    dt: float,
    sign: int = +1,
    every: float | None = None,
) -> Iterator[tuple[float, Sequence]]:
    """Integrate u' = sign * H u by classical fixed-step RK4, yielding
    ``(t, state)`` at every checkpoint and last at ``t_end``.

    ``sign=+1`` follows the evolution equation literally; ``sign=-1`` gives
    the diffusive direction u' = -(-Lap)^s u - V u.  The step must satisfy
    the explicit-scheme heuristic dt <= 0.5 / (A_s + c/2); the number of
    steps is round(t_end / dt) and the step is snapped to h = t_end / steps
    so the integration lands on t_end exactly.  Checkpoint j = 1, 2, ... is
    step k = round(j * every / h), at time t_end * k / steps, for each
    distinct 0 < k < steps; ``every`` must be finite and at least dt.
    Checkpoints leave the run unchanged, and all checks run before the
    first pair is yielded.

    The right-hand side is the window restriction of H with every lag
    reachable inside [-W, W], i.e. the same sums ``apply_hamiltonian``
    evaluates on window-spanning states; equivalently, the matrix
    (A_s + eps_n) I - Toeplitz(K_s) on the window.  Because every lag in
    the window is used, ``config.kernel_radius`` does not affect the result.

    H is fixed, so every RK4 step is the same matrix P = sum_{j<=4} (hM)^j / j!
    with M = sign * H.  When the window has at most 513 sites (W <= 256) and
    the run takes at least as many steps as the window has sites, P is built
    once (8 (2W+1)^2 bytes, 2.1 MB at W = 256) and each step is one
    matrix-vector product; otherwise each step evaluates the four stages by
    convolution.  The routes agree to rounding.

    ``trunc_bound`` is t times the largest, over the steps so far, of a
    proven bound on the values that the step's four stages place beyond the
    window, where the zero extension drops them: c . |y| for the state y the
    step starts from, with the weights c of :func:`_clip_weights`.  Both
    routes read it from the states alone.  As a bound on the state's error
    against an unbounded lattice it is an estimate, not a proof.
    """
    t_end, dt = float(t_end), float(dt)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be non-negative and finite, got {t_end!r}")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if every is not None and not math.isfinite(every):
        raise ValueError(f"snapshot interval must be finite, got {every!r}")
    if every is not None and every < dt:
        raise ValueError("snapshot interval must be at least dt")
    if t_end == 0.0:
        yield t_end, u0
        return
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    a_s = kernel_sum(config.s)
    dt_max = 0.5 / (a_s + 0.5 * config.disorder.amplitude)
    if dt > dt_max * (1.0 + 1e-12):
        raise StabilityError(f"dt = {dt} exceeds stability bound {dt_max:.6g}")

    w = config.window_radius
    _check_window("initial state", u0, w)
    steps = max(1, round(t_end / dt))
    grid = t_end / steps
    # the checkpoint steps in order, each once (with every >= dt all are positive)
    ks = (round(j * every / grid) for j in itertools.count(1)) if every else iter(())
    marks = (k for k, _ in itertools.groupby(itertools.takewhile(lambda k: k < steps, ks)))
    mark = next(marks, None)

    length = 2 * w + 1
    _, kern, spectrum = _convolution_kernel(float(config.s), 2 * w, length)
    diag = a_s + config.disorder.potential
    # negation is exact: the step sign * grid gives the same values as sign * H u
    rk4 = (sign * grid, diag, kern, spectrum)
    weights = _clip_weights(grid, diag, kern)
    route = _matrix_steps if length <= _STEP_MATRIX_MAX_SITES and steps >= length else _row_steps
    y, clipped = u0.window(-w, w), 0.0
    for k, (y, clip) in enumerate(route(y, steps, rk4, weights), 1):
        clipped = max(clipped, clip)
        if k == mark:
            t = t_end * k / steps
            yield t, Sequence(-w, y, trunc_bound=clipped * t)
            mark = next(marks, None)
    yield t_end, Sequence(-w, y, trunc_bound=clipped * t_end)


def evolve(
    u0: Sequence, config: HamiltonianConfig, t_end: float, dt: float, sign: int = +1
) -> Sequence:
    """The state at ``t_end``, the one pair :func:`trajectory` yields without checkpoints."""
    return next(trajectory(u0, config, t_end, dt, sign))[1]


def _clip_weights(h: float, diag: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Weights c such that c . |y| bounds every value that the four stages of
    one RK4 step from ``y`` place beyond the window (see :func:`_rk4_rows`).

    A stage v clips at most w . |v|, where w_i is the largest |K_s| over the
    lags from site i to the sites beyond the window that ``kern`` reaches.
    The stages are S y with S = I, I + (h/2)M, I + (h/2)M + (h^2/4)M^2 and
    I + hM + (h^2/2)M^2 + (h^3/4)M^3, for M = diag I - Toeplitz(kern).  So
    |S| <= I + |h||M| + (h^2/2)|M|^2 + (|h|^3/4)|M|^3 entrywise, and as |M| is
    symmetric, c = w + |h||M|(w + (|h|/2)|M|(w + (|h|/2)|M|w)) will do.
    """
    n, r = diag.size, kern.size // 2
    mag = np.abs(kern)
    # tail[d] = max |K_s| over the lags d..r, and 0 past r; site i reaches the
    # lags W + 1 - |i| and up beyond the window
    tail = np.append(np.maximum.accumulate(mag[r:][::-1])[::-1], 0.0)
    w = tail[np.minimum(n // 2 + 1 - np.abs(np.arange(n) - n // 2), r + 1)]
    eps = np.finfo(float).eps
    # an FFT of length N sums |K_s| * c with an error below tau (|c|_1 |K_s|_2 +
    # 3 |K_s|_1 |c|_2) in each entry, for tau = 16 log2(N) eps: Higham, Accuracy
    # and Stability of Numerical Algorithms, Thm 24.2, gives about 7 log2(N) eps
    # a radix-2 transform.  A direct sum needs no slack.
    tau = 16 * math.log2(_fft_size(n, mag.size)) * eps if min(n, mag.size) > _DIRECT_MAX else 0.0
    k1, k2 = mag.sum(), math.sqrt(mag @ mag)
    c = w
    for step in (0.5 * abs(h), 0.5 * abs(h), abs(h)):
        slack = tau * (c.sum() * k2 + 3 * k1 * math.sqrt(c @ c))
        c = w + step * (np.abs(diag) * c + _convolve(c, mag)[r : r + n] + slack)
    # rounding takes less than 16 n eps off these sums of non-negative terms
    # and off each c . |y|
    return c * (1.0 + 16 * n * eps)


def _row_steps(
    y: np.ndarray, steps: int, rk4: tuple, weights: np.ndarray
) -> Iterator[tuple[np.ndarray, float]]:
    """Each step's state and the bound ``weights . |y|`` on the values its
    stages clip, with y the state it starts from; four convolutions a step."""
    for _ in range(steps):
        clip = float(np.abs(y) @ weights)
        y = _rk4_rows(y, *rk4)
        yield y, clip


def _matrix_steps(
    y: np.ndarray, steps: int, rk4: tuple, weights: np.ndarray
) -> Iterator[tuple[np.ndarray, float]]:
    """The same pairs as ``_row_steps``, each state by one product with P."""
    # row i of pt is P e_i, so y @ pt is one RK4 step P y
    pt = np.empty((y.size, y.size))
    for i in range(0, y.size, _STEP_MATRIX_CHUNK):
        rows = np.eye(min(_STEP_MATRIX_CHUNK, y.size - i), y.size, i)
        pt[i : i + len(rows)] = _rk4_rows(rows, *rk4)
    for first in range(0, steps, _STEP_MATRIX_CHUNK):
        ys = [y]
        for _ in range(min(_STEP_MATRIX_CHUNK, steps - first)):
            ys.append(ys[-1] @ pt)
        yield from zip(ys[1:], (np.abs(ys[:-1]) @ weights).tolist())
        y = ys[-1]


def _rk4_rows(
    y: np.ndarray, h: float, diag: np.ndarray, kern: np.ndarray, spectrum: np.ndarray | None
) -> np.ndarray:
    """One classical RK4 step of u' = (diag I - Toeplitz(kern)) u, step h, for
    every row of ``y`` (a 1-D ``y`` is one row).

    ``kern`` holds the lags -r..r and ``spectrum`` is its ``fftconvolve``
    transform at the window length of ``y`` (None where ``_convolve`` sums
    directly).  Whatever a stage places on the r sites beyond either end of
    the window, the zero extension drops.
    """
    n, r = y.shape[-1], kern.size // 2

    def rhs(v: np.ndarray) -> np.ndarray:
        return diag * v - _convolve(v, kern, spectrum)[..., r : r + n]

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    probes = list(probes)
    if not probes:
        raise ValueError("probes must name at least one probe, got an empty list")
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    dim = 2 * window_radius + 1
    if depth > dim:
        raise ValueError(f"depth {depth} exceeds the {dim} basis vectors the window holds")
    for pid, probe in probes:
        if abs(norm(probe) - 1.0) > 1e-10:
            raise ValueError(f"probe {pid!r} is not unit norm")
        _check_window(f"probe {pid!r}", probe, window_radius)

    def job(seed: int) -> list[tuple[int, str, int, float]]:
        disorder = sample_disorder(c, seed, window_radius)
        config = HamiltonianConfig(s=s, kernel_radius=kernel_radius, disorder=disorder)
        basis = orbit_basis(config, depth, residual_tol)
        rows = []
        for pid, probe in probes:
            res = krylov_residual(probe, basis)
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
