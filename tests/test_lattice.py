"""Sequence data model, inner products, and the text format."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclat import (
    Sequence,
    axpy,
    delta,
    format_sequence,
    inner,
    norm,
    parse_sequence,
    semi_inner_fd,
    sup_dist,
)
from conftest import random_sequence


def test_delta_values():
    d = delta(0)
    assert d.at(0) == 1.0
    assert d.at(5) == 0.0
    assert norm(delta(7)) == 1.0


def test_inner_basics():
    assert inner(delta(0), delta(0)) == 1.0
    assert inner(delta(0), delta(1)) == 0.0


def test_inner_is_norm_squared(rng):
    for _ in range(20):
        u = random_sequence(rng, width=int(rng.integers(1, 30)))
        assert inner(u, u) == pytest.approx(norm(u) ** 2, rel=1e-14)


def test_norm_values():
    assert norm(Sequence(0, np.zeros(4))) == 0.0
    assert norm(delta(3)) == 1.0
    assert norm(Sequence(2, np.array([3.0, 4.0]))) == 5.0


def test_inner_bilinearity(rng):
    for _ in range(30):
        u = random_sequence(rng)
        w = random_sequence(rng)
        v = random_sequence(rng)
        a = float(rng.uniform(-3.0, 3.0))
        lhs = inner(axpy(a, u, w), v)
        rhs = a * inner(u, v) + inner(w, v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_inner_long_window_pairwise(rng):
    # long windows keep accumulation error at the 1e-12 relative scale
    vals = rng.uniform(0.5, 1.0, size=200_000)
    u = Sequence(-1000, vals)
    assert inner(u, u) == pytest.approx(float(np.dot(vals, vals)), rel=1e-13)


def test_axpy_merge_and_identity():
    s = axpy(1.0, delta(0), delta(1))
    assert s.offset == 0
    assert list(s.values) == [1.0, 1.0]
    u = Sequence(-2, np.array([1.0, 2.0, 3.0]))
    v = Sequence(3, np.array([-1.0, 5.0]))
    assert axpy(0.0, u, v) == v
    assert len(axpy(-1.0, u, u)) == 0  # exact cancellation -> zero sequence


def test_semi_inner_examples():
    assert semi_inner_fd(delta(0), delta(0), 1e-6) == pytest.approx(1.0, abs=1e-6)
    assert semi_inner_fd(delta(1), delta(0), 1e-6) == pytest.approx(0.0, abs=1e-6)


def test_semi_inner_degenerate():
    with pytest.raises(ValueError):
        semi_inner_fd(delta(0), Sequence(0, np.zeros(3)), 1e-6)
    with pytest.raises(ValueError):
        semi_inner_fd(delta(0), delta(0), 0.0)


def test_semi_inner_converges_first_order(rng):
    for _ in range(20):
        u = random_sequence(rng)
        v = random_sequence(rng)
        if norm(v) < 0.1:
            continue
        target = inner(u, v)
        devs = [abs(semi_inner_fd(u, v, eps) - target) for eps in (1e-2, 1e-4, 1e-6)]
        # error shrinks linearly: each factor-100 drop in eps cuts it ~100x
        assert devs[0] <= 10.0 * 1e-2 * norm(u) ** 2
        assert devs[1] <= 10.0 * devs[0] * 1e-2 + 1e-12
        assert devs[2] <= 10.0 * devs[1] * 1e-2 + 1e-10


def test_normalization_trims_and_preserves_values():
    padded = Sequence(-4, np.array([0.0, 0.0, 1.5, 0.0, -2.0, 0.0, 0.0]))
    assert padded.offset == -2
    assert len(padded) == 3
    for n in range(-8, 9):
        expected = {-2: 1.5, 0: -2.0}.get(n, 0.0)
        assert padded.at(n) == expected
    again = Sequence(padded.offset, padded.values)
    assert again == padded  # idempotent


@pytest.mark.parametrize(
    "vals",
    [
        [1.5, 0.0, -2.0],  # both ends nonzero: no scan
        [0.0, 0.0, 1.5, 0.0, -2.0, 0.0],
        [-0.0, 3.0, -0.0],  # -0.0 is zero
        [np.nan, 0.0, 2.0],  # nan is nonzero
        [0.0, 1.0, np.nan],
        [np.nan],
        [-0.0, np.nan, -0.0],
        [4.0],
        [0.0],
        [0.0, -0.0, 0.0],
        [],
    ],
)
def test_normalization_matches_flatnonzero_trim(vals):
    vals = np.array(vals, dtype=float)
    nz = np.flatnonzero(vals)
    lo, hi = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    u = Sequence(7, vals)
    assert u.offset == (7 + lo if nz.size else 0)
    assert u.values.tobytes() == vals[lo:hi].tobytes()
    assert u.values is not vals and not np.shares_memory(u.values, vals)


def test_zero_sequence_is_canonical():
    z = Sequence(17, np.zeros(5))
    assert z.offset == 0
    assert len(z) == 0
    assert norm(z) == 0.0


def test_values_are_immutable():
    u = delta(0)
    with pytest.raises(ValueError):
        u.values[0] = 2.0


def test_sup_dist():
    assert sup_dist(delta(0), delta(0)) == 0.0
    assert sup_dist(delta(0), delta(1)) == 1.0
    u = Sequence(0, np.array([1.0, 2.0]))
    v = Sequence(1, np.array([2.5]))
    assert sup_dist(u, v) == 1.0


def test_text_format_round_trip(rng):
    vals = np.concatenate(
        [
            rng.uniform(-1.0, 1.0, size=5),
            np.array([0.1, 1e-300, 3.141592653589793, -7.25e155]),
        ]
    )
    u = Sequence(-3, vals)
    again = parse_sequence(format_sequence(u))
    assert again.offset == u.offset
    assert again.values.tobytes() == u.values.tobytes()  # bit-identical doubles


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=-(2**62), max_value=2**62),
    st.lists(st.floats(allow_nan=False), max_size=40),
)
@example(5, [])
@example(-3, [0.0, -0.0, 2.5, -0.0])
def test_text_format_round_trip_property(offset, values):
    u = Sequence(offset, np.array(values, dtype=float))
    again = parse_sequence(format_sequence(u))
    assert again.offset == u.offset
    assert again.values.tobytes() == u.values.tobytes()  # -0.0, inf, subnormals


def test_text_format_zero_sequence():
    z = Sequence(0, np.zeros(0))
    assert parse_sequence(format_sequence(z)) == z


def test_text_format_errors():
    with pytest.raises(ValueError):
        parse_sequence("1.0\n2.0\n")
    with pytest.raises(ValueError):
        parse_sequence("offset x\n1.0\n")
    with pytest.raises(ValueError):
        parse_sequence("offset 0\nnot-a-number\n")
