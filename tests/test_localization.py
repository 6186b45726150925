"""Disorder sampling, Krylov orbits, time evolution, ensemble determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    trajectory,
)
from fraclat import localization, operators
from fraclat.localization import _KEY_SALT, _MASK64, OrbitBasis
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
)
def test_disorder_prefix_property_any_windows(seed, c, w1, extra):
    # the W1 window is the middle of the W2 window for every W1 < W2
    w2 = w1 + extra
    small = sample_disorder(c, seed, w1).potential
    large = sample_disorder(c, seed, w2).potential
    assert np.array_equal(small, large[w2 - w1 : w2 + w1 + 1])


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
    with pytest.raises(SupportOverflowError, match=r"support \[20, 20\] exceeds window \[-8, 8\]"):
        apply_hamiltonian(delta(20), cfg)


def test_hamiltonian_self_adjoint(rng):
    cfg = _config(s=0.8, c=1.0, seed=11, window=96, kernel_radius=16)
    for _ in range(5):
        u = random_sequence(rng, width=7, offset=-10)
        v = random_sequence(rng, width=9, offset=2)
        lhs = inner(apply_hamiltonian(u, cfg), v)
        rhs = inner(u, apply_hamiltonian(v, cfg))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def _dense_window_hamiltonian(u, config):
    """H u by the dense-window formula (test-only reference): the series output
    on [-W-R, W+R], with the R sites at each end dropped and their largest
    magnitude added to trunc_bound."""
    w, r = config.window_radius, config.kernel_radius
    frac = apply_fractional(u, OperatorSpec(config.s, r))
    full = frac.window(-w - r, w + r)
    clip_mass = float(max(np.max(np.abs(full[:r])), np.max(np.abs(full[-r:]))))
    out = full[r:-r]
    i0 = u.offset + w
    out[i0 : i0 + len(u)] += config.disorder.potential[i0 : i0 + len(u)] * u.values
    return Sequence(-w, out, trunc_bound=frac.trunc_bound + clip_mass)


@pytest.mark.parametrize("s", [0.5, 1.5, 2.0])
@pytest.mark.parametrize(
    "lo, hi", [(-5, 5), (-40, -31), (31, 40), (-40, 40)], ids=["inside", "at-W", "atW", "all"]
)
def test_hamiltonian_matches_dense_window_at_the_edges(s, lo, hi, rng):
    cfg = _config(s=s, c=1.0, seed=5, window=40, kernel_radius=16)
    u = Sequence(lo, rng.uniform(0.5, 1.0, hi - lo + 1) * rng.choice([-1.0, 1.0], hi - lo + 1))
    got, want = apply_hamiltonian(u, cfg), _dense_window_hamiltonian(u, cfg)
    assert (got.offset, got.trunc_bound) == (want.offset, want.trunc_bound)
    assert got.values.tobytes() == want.values.tobytes()
    reach = 2 if s == 2.0 else 16  # the integer order's kernel ends at lag s
    clipped = got.trunc_bound > apply_fractional(u, OperatorSpec(s, 16)).trunc_bound
    assert clipped == (lo - reach < -40 or hi + reach > 40)


def test_config_validation():
    dis = sample_disorder(0.0, 1, 8)
    with pytest.raises(ValueError):
        HamiltonianConfig(s=0.5, kernel_radius=16, disorder=dis)
    with pytest.raises(ValueError):
        HamiltonianConfig(s=-1.0, kernel_radius=4, disorder=dis)


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
        res = krylov_residual(probe, basis)
        for d, q in enumerate(ref, 1):
            resid -= np.dot(q, pd) * q
            assert abs(res[d - 1] - float(np.linalg.norm(resid))) <= 1e-12


def _cgs2_full_width_orbit(config, depth, residual_tol=1e-12):
    """Reference orbit: orbit_basis's CGS2 with every norm, projection and H
    application over the whole window (test-only reference)."""
    w = config.window_radius
    q = np.zeros((min(depth, 2 * w + 1), 2 * w + 1))
    raw_norms = []
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
    return OrbitBasis(q[: len(raw_norms)], raw_norms)


@pytest.mark.parametrize("seed", range(1, 9))
def test_orbit_is_bit_identical_to_full_width_where_the_first_product_fills_the_window(seed):
    cfg = _config(s=0.5, c=1.0, seed=seed, window=64, kernel_radius=64)
    basis = orbit_basis(cfg, 32)
    ref = _cgs2_full_width_orbit(cfg, 32)
    assert basis.raw_norms == ref.raw_norms
    assert len(basis) == len(ref) == 32
    for got, want in zip(basis.vectors, ref.vectors):
        assert got.offset == want.offset
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("seed", range(1, 9))
def test_orbit_on_the_envelope_matches_full_width_residuals(seed):
    w, r = 2048, 64
    cfg = _config(s=0.5, c=1.0, seed=seed, window=w, kernel_radius=r)
    basis = orbit_basis(cfg, 32)
    ref = _cgs2_full_width_orbit(cfg, 32)
    assert len(basis) == len(ref) == 32
    for k, b in enumerate(basis.vectors):  # vector k spans at most H^k delta_0
        assert -k * r <= b.offset and b.end - 1 <= k * r
    for probe in (ODD_PROBE, delta(3)):
        got = krylov_residual(probe, basis)
        want = krylov_residual(probe, ref)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12


def test_krylov_residual_membership_and_parity():
    cfg = _config(s=1.0, c=0.0, window=48, kernel_radius=4)
    basis = orbit_basis(cfg, depth=6)
    assert len(basis) == 6
    assert krylov_residual(basis.vectors[0], basis)[-1] <= 1e-10
    # odd probe vs an even span: distance stays exactly 1
    res = krylov_residual(ODD_PROBE, basis)
    for depth in range(1, 7):
        assert res[depth - 1] == pytest.approx(1.0, abs=1e-10)


def test_krylov_residual_monotone_in_depth(rng):
    cfg = _config(s=0.5, c=1.0, seed=7, window=128, kernel_radius=32)
    basis = orbit_basis(cfg, depth=10)
    vals = krylov_residual(delta(2), basis)
    assert len(vals) == 10
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_krylov_residual_requires_unit_norm():
    basis = orbit_basis(_config(), depth=2)
    with pytest.raises(ValueError):
        krylov_residual(Sequence(0, np.array([2.0])), basis)


def test_krylov_residual_rejects_a_probe_outside_the_window():
    basis = orbit_basis(_config(window=16), depth=2)
    assert krylov_residual(delta(16), basis) == [1.0, 1.0]  # no basis vector reaches 16
    with pytest.raises(SupportOverflowError, match=r"probe support \[17, 17\] exceeds window"):
        krylov_residual(delta(17), basis)


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


# dt = 0.01: (24, 1), (128, 3) and (192, 3.85) take the step matrix, (256,
# 5.13) at its size and step limits; (128, 1) has too few steps and (300,
# 6.1) too many sites.  Started at the edge, the clipped value peaks in the
# first step.
@pytest.mark.parametrize(
    "w, t, start",
    [
        (24, 1.0, 0), (24, 1.0, 24), (128, 3.0, 0), (192, 3.85, 0), (256, 5.13, 0),
        (128, 1.0, 0), (300, 6.1, 0),
    ],
)  # fmt: skip
@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
def test_evolve_matches_rk4_reference(s, sign, w, t, start):
    cfg = HamiltonianConfig(s=s, kernel_radius=1, disorder=sample_disorder(1.0, 3, w))
    got = evolve(delta(start), cfg, t, 0.01, sign=sign)
    want, want_bound = _rk4_reference(delta(start), cfg, t, 0.01, sign)
    peak = np.max(np.abs(want))
    assert np.max(np.abs(got.window(-w, w) - want)) <= 1e-12 * peak
    # trunc_bound bounds the clipped stage values that the reference measures;
    # where they sink below the convolution's round-off, about eps * A_s * |u|,
    # the reference measures that round-off instead
    floor = 1e-14 * t * kernel_sum(s) * max(1.0, peak)
    assert got.trunc_bound >= want_bound * (1.0 - 1e-12) - floor


# each case has at least as many steps as sites, so either route may take it
@pytest.mark.parametrize("w, t", [(32, 3.0), (48, 5.0), (96, 8.0), (192, 4.0)])
@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("s", [0.5, 2.5])
def test_evolve_routes_report_the_same_trunc_bound(s, sign, w, t, monkeypatch):
    cfg = HamiltonianConfig(s=s, kernel_radius=1, disorder=sample_disorder(1.0, 3, w))
    want, want_bound = _rk4_reference(delta(0), cfg, t, 0.01, sign)
    peak = np.max(np.abs(want))
    floor = 1e-14 * t * kernel_sum(s) * max(1.0, peak)
    got = []
    for limit in (0, 2 * w + 1):  # single rows, then the step matrix
        monkeypatch.setattr("fraclat.localization._STEP_MATRIX_MAX_SITES", limit)
        got.append(evolve(delta(0), cfg, t, 0.01, sign=sign))
        assert np.max(np.abs(got[-1].window(-w, w) - want)) <= 1e-12 * peak
        assert got[-1].trunc_bound >= want_bound * (1.0 - 1e-12) - floor
    assert got[1].trunc_bound == pytest.approx(got[0].trunc_bound, rel=1e-3)


# trunc_bound estimates the error of the window, and this guards that
# estimate against regression; it proves nothing
@pytest.mark.parametrize("w, t, start", [(24, 1.0, 0), (24, 1.0, 20), (64, 2.0, 0), (32, 3.0, 16)])
@pytest.mark.parametrize("sign", [-1, +1])
@pytest.mark.parametrize("s", [0.25, 0.5, 1.7, 2.5])
def test_evolve_trunc_bound_covers_a_four_times_wider_window(s, sign, w, t, start):
    def run(radius):
        cfg = HamiltonianConfig(s=s, kernel_radius=1, disorder=sample_disorder(1.0, 3, radius))
        return evolve(delta(start), cfg, t, 0.01, sign=sign)

    narrow, wide = run(w), run(4 * w)
    assert np.max(np.abs(narrow.window(-w, w) - wide.window(-w, w))) <= narrow.trunc_bound


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


# 100 steps on 33 sites take the step matrix, on 129 sites the single rows;
# started at the edge, every step clips
@pytest.mark.parametrize("w", [16, 64])
def test_trajectory_checkpoints_leave_the_run_unchanged(w):
    cfg = HamiltonianConfig(s=0.5, kernel_radius=1, disorder=sample_disorder(1.0, 3, w))
    pairs = list(trajectory(delta(w), cfg, 1.0, 0.01, sign=-1, every=0.3))
    assert [t for t, _ in pairs] == [0.3, 0.6, 0.9, 1.0]  # steps 30, 60, 90 and the end
    final = evolve(delta(w), cfg, 1.0, 0.01, sign=-1)
    assert pairs[-1][1] == final and pairs[-1][1].trunc_bound == final.trunc_bound
    for t, state in pairs[:-1]:
        # a run that stops at the checkpoint takes the same steps up to rounding
        alone = evolve(delta(w), cfg, t, 0.01, sign=-1)
        assert sup_dist(state, alone) <= 1e-13 * np.max(np.abs(alone.values))
        assert state.trunc_bound == pytest.approx(alone.trunc_bound, rel=1e-9)


@pytest.mark.parametrize(
    "every, match", [(math.nan, "finite"), (math.inf, "finite"), (0.05, "at least dt")]
)
def test_trajectory_checks_every_before_the_first_pair(every, match):
    with pytest.raises(ValueError, match=match):
        next(trajectory(delta(0), _config(), 0.0, 0.1, every=every))


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
    # the second basis ends after 3 vectors (the even subspace of [-2, 2]),
    # so its depths 4 and 5 repeat the depth-3 residual
    for s, c, w, r, depth, length in ((0.5, 1.0, 96, 24, 4, 4), (1.0, 0.0, 2, 2, 5, 3)):
        basis = orbit_basis(_config(s=s, c=c, seed=7, window=w, kernel_radius=r), depth)
        assert len(basis) == length
        want = krylov_residual(delta(1), basis)
        rep = monte_carlo(s, c, w, r, [7], depth, [("delta:1", delta(1))])
        assert [d for _, _, d, _ in rep.rows] == list(range(1, depth + 1))
        for _, _, d, residual in rep.rows:
            assert residual == want[min(d, length) - 1]


def test_monte_carlo_reaches_the_traced_call_chain(monkeypatch):
    # perfbench's tracer (``perfbench/run.py --trace 1``) wraps these names
    # where fraclat looks them up and needs the chain orbit_basis ->
    # apply_hamiltonian -> apply_fractional -> fftconvolve; a refactor that
    # goes round one of them fails here
    stack, calls = [], []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((stack[-1] if stack else None, name))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(module, name, counted)

    for name in ("orbit_basis", "apply_hamiltonian", "apply_fractional"):
        count(localization, name)
    count(operators, "fftconvolve")
    # from the second product on the orbit's supports exceed 64 points, so
    # the convolutions take the FFT
    monte_carlo(0.5, 1.0, 200, 64, [1, 2], 4, [("d", delta(0))])
    assert calls.count((None, "orbit_basis")) == 2
    assert calls.count(("orbit_basis", "apply_hamiltonian")) == 2 * 3
    assert calls.count(("apply_hamiltonian", "apply_fractional")) == 2 * 3
    assert calls.count(("apply_fractional", "fftconvolve")) >= 2
    assert all(parent is not None for parent, name in calls if name != "orbit_basis")
    cfg = _config(s=0.5, c=1.0, seed=1, window=200, kernel_radius=64)
    assert len(localization.orbit_basis(cfg, 4)) == 4


def test_monte_carlo_depth_at_most_the_window_dimension():
    probes = [("d", delta(0))]
    assert len(monte_carlo(0.5, 1.0, 4, 2, [1], 9, probes).rows) == 9
    with pytest.raises(ValueError, match="depth 10 exceeds the 9 basis vectors"):
        monte_carlo(0.5, 1.0, 4, 2, [1], 10, probes)


def test_monte_carlo_rejects_empty_seed_list():
    with pytest.raises(ValueError, match="empty"):
        monte_carlo(0.5, 1.0, 16, 4, [], 2, [("d", delta(0))])


def test_monte_carlo_rejects_empty_probe_list_before_any_seed(monkeypatch):
    def no_seed(*args):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(localization, "sample_disorder", no_seed)
    with pytest.raises(ValueError, match="probes must name at least one probe"):
        monte_carlo(0.5, 1.0, 16, 4, [1, 2, 3], 2, [])


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
