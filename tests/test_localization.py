"""Disorder sampling, Krylov orbits, time evolution, ensemble determinism."""

import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from fraclat import (
    HamiltonianConfig,
    OperatorSpec,
    Sequence,
    StabilityError,
    SupportOverflowError,
    apply_fractional,
    apply_hamiltonian,
    delta,
    evolve,
    heat_semigroup,
    inner,
    kernel_row,
    kernel_sum,
    krylov_residual,
    monte_carlo,
    norm,
    orbit_basis,
    sample_disorder,
    sup_dist,
)
from fraclat.localization import _KEY_SALT, _MASK64
from fraclat.operators import _convolve
from conftest import random_sequence

ODD_PROBE = Sequence(-1, np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0))


def _config(s=1.0, c=0.0, seed=1, window=64, kernel_radius=8):
    return HamiltonianConfig(
        s=s, kernel_radius=kernel_radius, disorder=sample_disorder(c, seed, window)
    )


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------


def test_disorder_zero_amplitude():
    d = sample_disorder(0.0, 123, 32)
    assert np.all(d.potential == 0.0)


def test_disorder_range():
    d = sample_disorder(1.0, 42, 256)
    assert np.all(np.abs(d.potential) <= 0.5)
    assert np.std(d.potential) > 0.1  # actually random, not constant


def test_disorder_window_independence():
    small = sample_disorder(1.0, 42, 64)
    large = sample_disorder(1.0, 42, 128)
    for n in range(-64, 65):
        assert small.at(n) == large.at(n)


def test_disorder_bit_exact_reproducibility():
    a = sample_disorder(0.7, 9001, 100)
    b = sample_disorder(0.7, 9001, 100)
    assert np.array_equal(a.potential, b.potential)


def test_disorder_seed_sensitivity():
    a = sample_disorder(1.0, 1, 64)
    b = sample_disorder(1.0, 2, 64)
    assert not np.array_equal(a.potential, b.potential)


def test_disorder_validation():
    with pytest.raises(ValueError):
        sample_disorder(-1.0, 1, 8)
    for c in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sample_disorder(c, 1, 8)
    with pytest.raises(ValueError):
        sample_disorder(1.0, 1, 0)


def _site_uniform(seed, site, half_amp):
    """Reference draw: one Philox generator per site, counter block = site."""
    bitgen = Philox(
        counter=np.array([site & _MASK64, 0, 0, 0], dtype=np.uint64),
        key=np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64),
    )
    return float(Generator(bitgen).uniform(-half_amp, half_amp))


@pytest.mark.parametrize("seed", [0, 1, 42, -5, 2**63 + 7, 2**64 - 1])
def test_disorder_matches_per_site_reference(seed):
    # every W >= 1 draws across the counter wrap at 2^64 (sites -W..-1)
    for c in (0.0, 0.7, 1.0, 3.3):
        for w in (1, 64, 2048):
            want = np.array([_site_uniform(seed, n, 0.5 * c) for n in range(-w, w + 1)])
            assert np.array_equal(sample_disorder(c, seed, w).potential, want)


@pytest.mark.parametrize("seed", [1, -5, 2**64 - 1])
def test_disorder_prefix_property(seed):
    small = sample_disorder(1.0, seed, 64).potential
    large = sample_disorder(1.0, seed, 2048).potential
    assert np.array_equal(small, large[2048 - 64 : 2048 + 65])


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------


def test_hamiltonian_reduces_to_stencil():
    out = apply_hamiltonian(delta(0), _config(s=1.0, c=0.0))
    assert out.offset == -1
    assert list(out.values) == [-1.0, 2.0, -1.0]


def test_hamiltonian_is_fractional_plus_diagonal():
    cfg = _config(s=0.5, c=1.0, seed=3, window=64, kernel_radius=16)
    u = delta(0)
    out = apply_hamiltonian(u, cfg)
    frac = apply_fractional(u, OperatorSpec(0.5, 16))
    assert out.at(0) == pytest.approx(kernel_sum(0.5) + cfg.disorder.at(0), rel=1e-13)
    for n in range(1, 16):
        assert out.at(n) == pytest.approx(frac.at(n), rel=1e-13)


def test_hamiltonian_clips_and_reports():
    cfg = _config(s=0.5, c=0.0, window=4, kernel_radius=4)
    out = apply_hamiltonian(delta(0), cfg)
    assert out.offset >= -4 and out.end - 1 <= 4
    assert out.trunc_bound > 0.0  # clipped kernel mass is certified


def test_hamiltonian_support_overflow():
    cfg = _config(window=8)
    with pytest.raises(SupportOverflowError):
        apply_hamiltonian(delta(20), cfg)


def test_hamiltonian_self_adjoint(rng):
    cfg = _config(s=0.8, c=1.0, seed=11, window=96, kernel_radius=16)
    for _ in range(5):
        u = random_sequence(rng, width=7, offset=-10)
        v = random_sequence(rng, width=9, offset=2)
        lhs = inner(apply_hamiltonian(u, cfg), v)
        rhs = inner(u, apply_hamiltonian(v, cfg))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_config_validation():
    dis = sample_disorder(0.0, 1, 8)
    with pytest.raises(ValueError):
        HamiltonianConfig(s=0.5, kernel_radius=16, disorder=dis)
    with pytest.raises(ValueError):
        HamiltonianConfig(s=-1.0, kernel_radius=4, disorder=dis)
    with pytest.raises(ValueError):
        HamiltonianConfig(s=0.5, kernel_radius=4, disorder=dis, boundary="periodic")


def test_config_rejects_nan_order():
    dis = sample_disorder(0.0, 1, 8)
    with pytest.raises(ValueError, match="finite"):
        HamiltonianConfig(s=math.nan, kernel_radius=4, disorder=dis)


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------


def test_orbit_depth_one():
    basis = orbit_basis(_config(), depth=1)
    assert len(basis) == 1
    assert basis.vectors[0] == delta(0)
    assert basis.raw_norms == [1.0]


def test_orbit_even_symmetry_without_disorder():
    # H commutes with reflection and delta_0 is even, so the orbit is even
    basis = orbit_basis(_config(s=1.0, c=0.0), depth=5)
    for b in basis.vectors:
        mirrored = Sequence(-(b.end - 1), b.values[::-1])
        assert sup_dist(b, mirrored) < 1e-12


def test_orbit_gram_matrix_is_identity():
    basis = orbit_basis(_config(s=0.5, c=1.0, seed=5, window=128, kernel_radius=32), depth=12)
    vecs = basis.vectors
    gram = np.array([[inner(a, b) for b in vecs] for a in vecs])
    assert np.max(np.abs(gram - np.eye(len(vecs)))) <= 1e-10


def test_orbit_raw_norm_growth_bound():
    # each iterate is H applied to a unit vector, so Young's inequality
    # bounds every raw norm by A_s + sum_k |K_s(k)| + c/2
    for s, c in ((0.5, 1.0), (2.5, 0.5)):
        cfg = _config(s=s, c=c, seed=2, window=256, kernel_radius=64)
        basis = orbit_basis(cfg, depth=10)
        assert basis.raw_norms[0] == 1.0
        row = kernel_row(s, 2 * 256)
        l1 = kernel_sum(s) + 2.0 * float(np.abs(row[1:]).sum()) + 0.5 * c
        for raw in basis.raw_norms[1:]:
            assert raw <= l1 * (1.0 + 1e-12)
        if s < 1.0:
            # below order 1 the kernel is positive, so the l1 bound
            # collapses to 2 A_s + c/2
            crude = 2.0 * kernel_sum(s) + 0.5 * c
            for raw in basis.raw_norms[1:]:
                assert raw <= crude * (1.0 + 1e-12)


def test_orbit_early_stop_on_invariant_subspace():
    # zero disorder on a tiny window: delta_0 lives in the even subspace,
    # which is 3-dimensional on [-2, 2], so the orbit closes after 3 vectors
    cfg = _config(s=1.0, c=0.0, window=2, kernel_radius=2)
    basis = orbit_basis(cfg, depth=8)
    assert len(basis) == 3


def test_orbit_orthonormal_at_working_precision_when_deep():
    # 64 directions in a 129-site window: one Gram-Schmidt pass drifts to
    # about 1e-8 here, the second pass brings it back to rounding level
    cfg = _config(s=0.5, c=1.0, seed=5, window=64, kernel_radius=64)
    basis = orbit_basis(cfg, depth=64)
    assert len(basis) == 64
    q = np.array([b.window(-64, 64) for b in basis.vectors])
    assert np.max(np.abs(q @ q.T - np.eye(64))) <= 1e-14


def _mgs_orbit(config, depth, residual_tol=1e-12):
    """Reference orbit: modified Gram-Schmidt with one reorthogonalization sweep."""
    w = config.window_radius
    basis, raw_norms = [], []
    for k in range(depth):
        if k == 0:
            dense = delta(0).window(-w, w)
        else:
            dense = apply_hamiltonian(Sequence(-w, basis[-1]), config).window(-w, w)
        raw = float(np.linalg.norm(dense))
        if raw == 0.0:
            break
        b = dense.copy()
        for _ in range(2):
            for q in basis:
                b -= np.dot(q, b) * q
        r = float(np.linalg.norm(b))
        if r < residual_tol * raw:
            break
        raw_norms.append(raw)
        basis.append(b / r)
    return basis, raw_norms


@pytest.mark.parametrize("window", [64, 2048])
@pytest.mark.parametrize("seed", [1, 5])
def test_orbit_matches_mgs_reference(window, seed):
    # the two orthogonalizations round differently and the orbit amplifies
    # that: reversing the projection order of the reference itself moves
    # depth-32 vectors by up to 4e-12 (seeds 1-8), so vectors and raw norms
    # are pinned at 1e-11 and the well-conditioned span residuals at 1e-12
    cfg = _config(s=0.5, c=1.0, seed=seed, window=window, kernel_radius=64)
    basis = orbit_basis(cfg, depth=32)
    ref, ref_norms = _mgs_orbit(cfg, 32)
    assert len(basis) == len(ref) == 32
    for got, want in zip(basis.vectors, ref):
        assert np.max(np.abs(got.window(-window, window) - want)) <= 1e-11
    assert np.max(np.abs(np.subtract(basis.raw_norms, ref_norms))) <= 1e-11
    for probe in (ODD_PROBE, delta(3)):
        pd = probe.window(-window, window)
        resid = pd.copy()
        for d, q in enumerate(ref, 1):
            resid -= np.dot(q, pd) * q
            got = krylov_residual(probe, basis.prefix(d))
            assert abs(got - float(np.linalg.norm(resid))) <= 1e-12


def test_krylov_residual_membership_and_parity():
    cfg = _config(s=1.0, c=0.0, window=48, kernel_radius=4)
    basis = orbit_basis(cfg, depth=6)
    assert krylov_residual(basis.vectors[0], basis) <= 1e-10
    # odd probe vs an even span: distance stays exactly 1
    for depth in range(1, 7):
        assert krylov_residual(ODD_PROBE, basis.prefix(depth)) == pytest.approx(
            1.0, abs=1e-10
        )


def test_krylov_residual_monotone_in_depth(rng):
    cfg = _config(s=0.5, c=1.0, seed=7, window=128, kernel_radius=32)
    basis = orbit_basis(cfg, depth=10)
    probe = delta(2)
    vals = [krylov_residual(probe, basis.prefix(d)) for d in range(1, 11)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_krylov_residual_requires_unit_norm():
    basis = orbit_basis(_config(), depth=2)
    with pytest.raises(ValueError):
        krylov_residual(Sequence(0, np.array([2.0])), basis)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_evolve_zero_time_returns_input():
    cfg = _config()
    u0 = delta(0)
    assert evolve(u0, cfg, 0.0, 0.1) is u0


def test_evolve_stability_gate():
    cfg = _config(s=1.0, c=0.0)
    dt_max = 0.5 / kernel_sum(1.0)
    with pytest.raises(StabilityError):
        evolve(delta(0), cfg, 1.0, 2.0 * dt_max)


def test_evolve_matches_semigroup():
    # u' = -H u with zero disorder and s = 1 is the heat flow
    cfg = _config(s=1.0, c=0.0, window=64, kernel_radius=8)
    got = evolve(delta(0), cfg, 1.0, 0.005, sign=-1)
    want = heat_semigroup(delta(0), 1.0, 64)
    assert sup_dist(got, want) < 1e-6


def test_evolve_conserves_mass_for_heat_flow():
    cfg = _config(s=1.0, c=0.0, window=64, kernel_radius=8)
    out = evolve(delta(0), cfg, 1.0, 0.01, sign=-1)
    assert float(np.sum(out.values)) == pytest.approx(1.0, abs=1e-12)


def test_evolve_richardson_ratio():
    cfg = _config(s=1.0, c=0.0, window=48, kernel_radius=8)
    results = [evolve(delta(0), cfg, 1.0, dt, sign=-1) for dt in (0.04, 0.02, 0.01)]
    d1 = sup_dist(results[0], results[1])
    d2 = sup_dist(results[1], results[2])
    assert d1 / d2 == pytest.approx(16.0, rel=0.2)


def test_evolve_plus_sign_grows():
    cfg = _config(s=1.0, c=0.0, window=48, kernel_radius=8)
    out = evolve(delta(0), cfg, 1.0, 0.01, sign=+1)
    assert norm(out) > 1.0  # +H direction amplifies


# 100 steps on 49 sites take the step matrix, 40 steps the per-stage convolutions
@pytest.mark.parametrize("w, t", [(24, 0.5), (24, 0.2)])
def test_evolve_matches_matrix_exponential_with_disorder(w, t):
    # independent oracle: H restricted to the window is the matrix
    # (A_s + eps_n) I - Toeplitz(K_s); expm of that drives a dense solve
    from scipy.linalg import expm, toeplitz

    s, c = 0.5, 1.0
    dis = sample_disorder(c, 5, w)
    cfg = HamiltonianConfig(s=s, kernel_radius=w, disorder=dis)
    mat = -toeplitz(kernel_row(s, 2 * w)) + np.diag(kernel_sum(s) + dis.potential)
    d0 = delta(0).window(-w, w)
    for sign in (-1, +1):
        ref = expm(sign * t * mat) @ d0
        got = evolve(delta(0), cfg, t, 0.005, sign=sign)
        assert np.max(np.abs(got.window(-w, w) - ref)) < 1e-9


def _rk4_reference(u0, config, t_end, dt, sign):
    """evolve as one RK4 loop of per-stage convolutions on the window
    (test-only reference for both of evolve's routes)."""
    w = config.window_radius
    a_s = kernel_sum(config.s)
    steps = max(1, round(t_end / dt))
    h = sign * (t_end / steps)
    length = 2 * w + 1
    row = kernel_row(config.s, 2 * w)
    r_eff = int(np.flatnonzero(row)[-1])
    kern = np.concatenate([row[r_eff:0:-1], row[: r_eff + 1]])
    diag = a_s + config.disorder.potential
    clip_activity = 0.0

    def rhs(y):
        nonlocal clip_activity
        out = diag * y
        conv = _convolve(y, kern)
        out -= conv[r_eff : r_eff + length]
        edge = max(
            float(np.max(np.abs(conv[:r_eff]))),
            float(np.max(np.abs(conv[r_eff + length :]))),
        )
        clip_activity = max(clip_activity, edge)
        return out

    y = u0.window(-w, w)
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y, clip_activity * t_end


# dt = 0.01: (24, 1) and (128, 3) take the step matrix, (192, 3.85) at its
# size and step limits; (128, 1) has too few steps and (300, 6.1) too many
# sites.  Started at the edge, the clipped value peaks in the first step.
@pytest.mark.parametrize(
    "w, t, start",
    [(24, 1.0, 0), (24, 1.0, 24), (128, 3.0, 0), (192, 3.85, 0), (128, 1.0, 0), (300, 6.1, 0)],
)
@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_evolve_matches_rk4_reference(s, sign, w, t, start):
    cfg = HamiltonianConfig(s=s, kernel_radius=1, disorder=sample_disorder(1.0, 3, w))
    got = evolve(delta(start), cfg, t, 0.01, sign=sign)
    want, want_bound = _rk4_reference(delta(start), cfg, t, 0.01, sign)
    peak = np.max(np.abs(want))
    assert np.max(np.abs(got.window(-w, w) - want)) <= 1e-12 * peak
    # where the clipped stage values sink below the convolution's round-off,
    # about eps * A_s * |u|, both sides report that round-off instead
    floor = 1e-14 * t * kernel_sum(s) * max(1.0, peak)
    assert abs(got.trunc_bound - want_bound) <= 1e-12 * want_bound + floor


def test_evolve_matches_column_matrix_at_integer_order():
    # at integer order the kernel is finitely supported, so the matrix built
    # column-by-column from apply_hamiltonian on deltas is the exact window
    # operator; checks disorder handling end to end
    from scipy.linalg import expm

    w, t = 24, 0.5
    dis = sample_disorder(1.0, 5, w)
    cfg = HamiltonianConfig(s=1.0, kernel_radius=4, disorder=dis)
    n = 2 * w + 1
    mat = np.zeros((n, n))
    for j in range(n):
        mat[:, j] = apply_hamiltonian(delta(j - w), cfg).window(-w, w)
    assert np.max(np.abs(mat - mat.T)) == 0.0
    ref = expm(-t * mat) @ delta(0).window(-w, w)
    got = evolve(delta(0), cfg, t, 0.005, sign=-1)
    assert np.max(np.abs(got.window(-w, w) - ref)) < 1e-9


def test_evolve_validation():
    cfg = _config()
    with pytest.raises(ValueError):
        evolve(delta(0), cfg, 1.0, -0.1)
    with pytest.raises(ValueError):
        evolve(delta(0), cfg, 0.05, 0.1)
    with pytest.raises(ValueError):
        evolve(delta(0), cfg, 1.0, 0.1, sign=2)


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_monte_carlo_shape_and_determinism():
    probes = [("odd", ODD_PROBE), ("delta:0", delta(0))]
    kwargs = dict(
        s=0.5,
        c=1.0,
        window_radius=128,
        kernel_radius=32,
        seeds=[1, 2, 3],
        depth=4,
        probes=probes,
    )
    rep1 = monte_carlo(**kwargs)
    rep2 = monte_carlo(**kwargs)
    assert len(rep1.rows) == 3 * 4 * 2
    assert rep1.to_csv() == rep2.to_csv()
    assert rep1.summary_csv() == rep2.summary_csv()


def test_monte_carlo_threaded_matches_serial():
    probes = [("odd", ODD_PROBE)]
    kwargs = dict(
        s=0.5,
        c=1.0,
        window_radius=96,
        kernel_radius=24,
        seeds=[1, 2, 3, 4],
        depth=3,
        probes=probes,
    )
    serial = monte_carlo(**kwargs, max_workers=1)
    threaded = monte_carlo(**kwargs, max_workers=4)
    assert serial.to_csv() == threaded.to_csv()


def test_monte_carlo_zero_disorder_parity_column():
    rep = monte_carlo(
        s=1.0,
        c=0.0,
        window_radius=64,
        kernel_radius=8,
        seeds=[7],
        depth=5,
        probes=[("odd", ODD_PROBE)],
    )
    for _, _, _, residual in rep.rows:
        assert residual == pytest.approx(1.0, abs=1e-10)


def test_monte_carlo_single_seed_matches_direct_orbit():
    cfg = _config(s=0.5, c=1.0, seed=7, window=96, kernel_radius=24)
    basis = orbit_basis(cfg, depth=4)
    rep = monte_carlo(
        s=0.5,
        c=1.0,
        window_radius=96,
        kernel_radius=24,
        seeds=[7],
        depth=4,
        probes=[("delta:1", delta(1))],
    )
    for seed, pid, depth, residual in rep.rows:
        want = krylov_residual(delta(1), basis.prefix(depth))
        assert residual == pytest.approx(want, abs=1e-12)


def test_monte_carlo_rejects_empty_seed_list():
    with pytest.raises(ValueError, match="empty"):
        monte_carlo(0.5, 1.0, 16, 4, [], 2, [("d", delta(0))])


def test_monte_carlo_rejects_bad_probe():
    with pytest.raises(ValueError):
        monte_carlo(
            s=0.5,
            c=0.0,
            window_radius=32,
            kernel_radius=8,
            seeds=[1],
            depth=2,
            probes=[("bad", Sequence(0, np.array([2.0])))],
        )
