"""Cross-module identity suites behind ``fraclat validate``.

Each check exercises an identity that ties at least two independently
implemented code paths together (both kernel closed forms, the kernel sum
against its table tail certificate, the Gamma-ratio partial sums, the
integer limit of the fractional path, the series path against the
semigroup-integral oracle, the semigroup law).  A tampered constant anywhere
in the Gamma stack shows up here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kernel import (
    asymptotic_decay_constant,
    build_table,
    decay_certificate,
    kernel_value,
    kernel_value_reference,
    partial_sum_identity_check,
)
from .lattice import Sequence, delta, sup_dist
from .operators import (
    OperatorSpec,
    apply_fractional,
    apply_integer_power,
    apply_quadrature_oracle,
    heat_semigroup,
)

__all__ = ["CheckResult", "run_checks", "ZEROTH_POWER_CONVENTION"]

ZEROTH_POWER_CONVENTION = (
    "convention in use: the zeroth operator power is the identity, "
    "((-Lap)^0 u)(n) = u(n)"
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_dev: float
    tol: float
    passed: bool
    seconds: float


def _timed(name: str, tol: float, dev: float, t0: float) -> CheckResult:
    return CheckResult(name, dev, tol, dev <= tol, time.perf_counter() - t0)


def _check_dual_form() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240511)
    worst = 0.0
    n = 0
    while n < 500:
        s = float(rng.uniform(0.0, 6.0))
        if s <= 1e-3 or abs(s - round(s)) <= 1e-3:
            continue
        k = int(rng.integers(-64, 65))
        n += 1
        a = kernel_value(s, k)
        b = kernel_value_reference(s, k)
        if a == b == 0.0:
            continue
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return _timed("kernel dual-form agreement", 1e-10, worst, t0)


def _check_kernel_sum() -> CheckResult:
    # reported value is the worst deviation/envelope ratio, so tol is 1; the
    # envelope adds a round-off allowance since the certified tail can sit
    # below double precision (6e-20 at s = 3.7, R = 1024)
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.25, 0.5, 0.9, 1.5, 2.5, 3.7):
        table = build_table(s, 1024)
        partial = float(table.values[0] + 2.0 * np.sum(table.values[1:]))
        dev = abs(partial - table.total_sum)
        fp_allowance = 1e-12 * (
            abs(table.total_sum) + float(np.abs(table.values).sum())
        )
        worst = max(worst, dev / (table.tail_bound + fp_allowance))
    return _timed("kernel sum within tail certificate", 1.0, worst, t0)


def _check_partial_sum() -> CheckResult:
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.5, 2.5, 0.25):
        for m in range(1, 11):
            worst = max(worst, partial_sum_identity_check(s, m))
    return _timed("Gamma-ratio partial-sum identity", 1e-10, worst, t0)


def _check_integer_limit() -> CheckResult:
    t0 = time.perf_counter()
    d0 = delta(0)
    worst = 0.0
    for m in (1, 2, 3):
        stencil = apply_integer_power(d0, m)
        for h in (1e-6, -1e-6):
            frac = apply_fractional(d0, OperatorSpec(m + h, 32))
            worst = max(worst, sup_dist(frac, stencil))
    return _timed("integer limit of the fractional path", 1e-4, worst, t0)


def _check_oracle(level: str) -> CheckResult:
    t0 = time.perf_counter()
    orders = (0.5, 1.5) if level == "quick" else (0.3, 0.5, 0.8, 1.2, 1.5, 2.7)
    probes = [delta(0)]
    if level == "full":
        rng = np.random.default_rng(7)
        probes.append(Sequence(-3, rng.uniform(-1.0, 1.0, size=7)))
    radius = 24
    worst = 0.0
    for s in orders:
        for u in probes:
            series = apply_fractional(u, OperatorSpec(s, radius))
            oracle = apply_quadrature_oracle(u, s, radius=radius - math.floor(s))
            worst = max(worst, sup_dist(series, oracle))
    return _timed("series path vs semigroup-integral oracle", 1e-6, worst, t0)


def _check_semigroup_law() -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    seqs = [delta(0), Sequence(-2, rng.uniform(-1.0, 1.0, size=5))]
    worst = 0.0
    for u in seqs:
        for t, z in ((0.3, 0.7), (1.0, 1.0)):
            two_step = heat_semigroup(heat_semigroup(u, t, 40), z, 40)
            one_step = heat_semigroup(u, t + z, 80)
            worst = max(worst, sup_dist(two_step, one_step))
    return _timed("semigroup composition law", 1e-10, worst, t0)


def _check_decay_constant() -> CheckResult:
    # profile p(k) = |K_s(k)| k^{1+2s} must level off at the asymptotic constant
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.5, 1.5):
        p_full = abs(kernel_value(s, 10_000)) * 10_000.0 ** (1.0 + 2.0 * s)
        p_half = abs(kernel_value(s, 5_000)) * 5_000.0 ** (1.0 + 2.0 * s)
        worst = max(worst, abs(p_full / p_half - 1.0))
        worst = max(worst, abs(p_full / asymptotic_decay_constant(s) - 1.0))
        decay_certificate(s, 10_000)  # bounded over the whole range
    return _timed("decay-constant convergence at k = 1e4", 1e-3, worst, t0)


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the identity suite; ``level`` is 'quick' or 'full'."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    results = [
        _check_dual_form(),
        _check_kernel_sum(),
        _check_partial_sum(),
        _check_integer_limit(),
        _check_oracle(level),
        _check_semigroup_law(),
    ]
    if level == "full":
        results.append(_check_decay_constant())
    return results
