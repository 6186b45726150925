"""Workloads of the fraclat benchmark: CLI arguments, data rows and output checks.

Standard library only: the worker imports this module before it times
``import fraclat.cli``, so nothing here may pull in numpy or scipy.

A bench seed selects one of ``POOL`` input sets (seed mod POOL).  The data
rows of every set were recorded once with ``record_reference.py``, so each
call's output is compared against ``reference.json`` within the tolerances
below.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

WORKLOADS = ("ensemble", "dynamics", "oracle")

POOL = 8
SEEDS_PER_CALL = 16

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Replacing fftconvolve by a direct convolution moves ensemble residuals by
# about 4e-14 and the evolved state by about 3e-15 of its sup norm; a defect
# moves them by far more.  The tolerances sit between the two.
ENSEMBLE_ABS_TOL = 1e-9  # residuals lie in [0, 1]
DYNAMICS_REL_TOL = 1e-9  # share of the reference state's largest |value|
MONOTONE_SLACK = 1e-12  # rounding allowance for "does not increase with depth"
# a check's max deviation may move by 1% of itself or by 0.1% of its tolerance
ORACLE_DEV_SHARE = 1e-2
ORACLE_TOL_SHARE = 1e-3

ENSEMBLE_HEADER = "seed,probe_id,depth,residual"
ENSEMBLE_PROBES = ("odd", "delta:3")
ENSEMBLE_DEPTH = 32
DYNAMICS_HEADER = "n,value"

_CHECK_LINE = re.compile(
    r"^(?P<name>\S.*?)\s+(?P<dev>\S+)\s+(?P<tol>\S+)\s+(?P<status>PASS|FAIL)\s+\S+$"
)

# per-layer metrics of the traced run, per workload: name -> (unit, better)
_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")
_BYTES = ("bytes", "lower")
_COMMON = {
    "kernel.kernel_row.calls": _COUNT,
    "kernel.kernel_row.elements": _COUNT,
    "kernel.kernel_row.self_s": _SECONDS,
    "lattice.sequence.created": _COUNT,
    "lattice.sequence.bytes": _BYTES,
    "cli.main.self_s": _SECONDS,
    "cli.output_bytes": _BYTES,
    "trace.overhead_s": _SECONDS,
}
_MATVEC = {
    "special.log_gamma_ratio.calls": _COUNT,
    "special.log_gamma_ratio.self_s": _SECONDS,
    "operators.fftconvolve.calls": _COUNT,
    "operators.fftconvolve.elements": _COUNT,
    "operators.fftconvolve.self_s": _SECONDS,
    "localization.sample_disorder.calls": _COUNT,
    "localization.sample_disorder.sites": _COUNT,
    "localization.sample_disorder.self_s": _SECONDS,
}
LAYER_METRICS = {
    "ensemble": {
        **_COMMON,
        **_MATVEC,
        "operators.apply_fractional.calls": _COUNT,
        "operators.apply_fractional.self_s": _SECONDS,
        "localization.orbit_basis.calls": _COUNT,
        "localization.orbit_basis.self_s": _SECONDS,
        "localization.orbit_basis.depth_ratio": ("ratio", "higher"),
        "localization.apply_hamiltonian.calls": _COUNT,
        "localization.apply_hamiltonian.self_s": _SECONDS,
        "localization.monte_carlo.self_s": _SECONDS,
    },
    "dynamics": {
        **_COMMON,
        **_MATVEC,
        "localization.evolve.calls": _COUNT,
        "localization.evolve.steps": _COUNT,
        "localization.evolve.self_s": _SECONDS,
    },
    "oracle": {
        **_COMMON,
        "special.log_gamma.calls": _COUNT,
        "special.log_gamma.self_s": _SECONDS,
        "special.bessel_i_scaled_row.calls": _COUNT,
        "special.bessel_i_scaled_row.self_s": _SECONDS,
        "special.bessel_i_scaled_row.series_calls": _COUNT,
        "special.bessel_i_scaled_row.recurrence_calls": _COUNT,
        "special.bessel_i_scaled_row.asymptotic_calls": _COUNT,
        "kernel.build_table.calls": _COUNT,
        "kernel.build_table.self_s": _SECONDS,
        "kernel.kernel_value.calls": _COUNT,
        "kernel.kernel_value.self_s": _SECONDS,
        "operators.apply_fractional.calls": _COUNT,
        "operators.apply_fractional.self_s": _SECONDS,
        "operators.apply_quadrature_oracle.calls": _COUNT,
        "operators.apply_quadrature_oracle.self_s": _SECONDS,
        "operators.heat_semigroup.calls": _COUNT,
        "operators.heat_semigroup.self_s": _SECONDS,
        "checks.dual_form_s": _SECONDS,
        "checks.kernel_sum_s": _SECONDS,
        "checks.partial_sum_s": _SECONDS,
        "checks.integer_limit_s": _SECONDS,
        "checks.oracle_s": _SECONDS,
        "checks.semigroup_law_s": _SECONDS,
    },
}

# `fraclat validate` check names -> per-layer metric keys
CHECK_KEYS = {
    "kernel dual-form agreement": "checks.dual_form_s",
    "kernel sum within tail certificate": "checks.kernel_sum_s",
    "Gamma-ratio partial-sum identity": "checks.partial_sum_s",
    "integer limit of the fractional path": "checks.integer_limit_s",
    "series path vs semigroup-integral oracle": "checks.oracle_s",
    "semigroup composition law": "checks.semigroup_law_s",
}


def base_seed(bench_seed: int) -> int:
    """First disorder seed of the input set that ``bench_seed`` selects."""
    return 1 + SEEDS_PER_CALL * (bench_seed % POOL)


def cli_args(workload: str, bench_seed: int) -> list[str]:
    """Arguments of the workload's ``fraclat`` command, without ``--out``."""
    b = base_seed(bench_seed)
    if workload == "ensemble":
        return [
            "localize", "--s", "0.5", "--c", "1",
            "--seeds", f"{b}..{b + SEEDS_PER_CALL - 1}",
            "--window", "2048", "--kernel-radius", "64", "--depth", str(ENSEMBLE_DEPTH),
            "--probes", ",".join(ENSEMBLE_PROBES), "--threads", "1",
        ]  # fmt: skip
    if workload == "dynamics":
        return [
            "evolve", "--s", "0.5", "--c", "1", "--seed", str(b), "--sign", "minus",
            "--t", "40", "--dt", "0.01", "--window", "128",
        ]  # fmt: skip
    if workload == "oracle":
        return ["validate", "--level", "quick"]
    raise ValueError(f"unknown workload {workload!r}")


def writes_file(workload: str) -> bool:
    """Whether the command writes its data rows to ``--out`` (else to stdout)."""
    return workload != "oracle"


def data_rows(workload: str, out_text: str, stdout_text: str) -> list[str]:
    """The rows a rerun must reproduce byte for byte.

    For CSV output these are the non-``#`` lines.  For ``validate`` they are
    the check lines without their timing column.
    """
    if workload != "oracle":
        return [ln for ln in out_text.splitlines() if not ln.startswith("#")]
    rows = []
    for line in stdout_text.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            rows.append(",".join(m.group("name", "dev", "tol", "status")))
    return rows


def digest(rows: list[str]) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parsing into the reference layout
# ---------------------------------------------------------------------------


def parse_ensemble(rows: list[str]) -> dict[str, dict[str, list[float]]]:
    """seed -> probe -> residuals at depths 1, 2, ... (ValueError if malformed)."""
    if not rows or rows[0] != ENSEMBLE_HEADER:
        raise ValueError("missing ensemble CSV header")
    out: dict[str, dict[str, list[float]]] = {}
    for line in rows[1:]:
        seed, probe, depth, residual = line.split(",")
        series = out.setdefault(seed, {}).setdefault(probe, [])
        if int(depth) != len(series) + 1:
            raise ValueError(f"depth out of order in row {line!r}")
        series.append(float(residual))
    return out


def parse_dynamics(rows: list[str]) -> dict:
    """{"offset": first site, "values": state} (ValueError if malformed)."""
    if not rows or rows[0] != DYNAMICS_HEADER:
        raise ValueError("missing evolve CSV header")
    sites, values = [], []
    for line in rows[1:]:
        n, value = line.split(",")
        sites.append(int(n))
        values.append(float(value))
    if not sites or sites != list(range(sites[0], sites[0] + len(sites))):
        raise ValueError("evolve rows are not a contiguous window of sites")
    return {"offset": sites[0], "values": values}


def parse_oracle(rows: list[str]) -> list[list]:
    """[name, max_dev, tol, status] per check line."""
    out = []
    for line in rows:
        name, dev, tol, status = line.rsplit(",", 3)
        out.append([name, float(dev), float(tol), status])
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check(workload: str, bench_seed: int, exit_code, rows: list[str], reference: dict) -> list[str]:
    """Problems found in one call's result; an empty list means it passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code!r}"]
    try:
        if workload == "ensemble":
            problems += _check_ensemble(bench_seed, rows, reference["ensemble"])
        elif workload == "dynamics":
            problems += _check_dynamics(bench_seed, rows, reference["dynamics"])
        else:
            problems += _check_oracle(rows, reference["oracle"])
    except (ValueError, KeyError) as exc:
        problems.append(f"malformed output: {exc}")
    return problems


def _check_ensemble(bench_seed: int, rows: list[str], reference: dict) -> list[str]:
    got = parse_ensemble(rows)
    b = base_seed(bench_seed)
    seeds = [str(x) for x in range(b, b + SEEDS_PER_CALL)]
    if sorted(got) != sorted(seeds):
        return [f"seeds {sorted(got)} differ from {seeds}"]
    problems = []
    for seed in seeds:
        if sorted(got[seed]) != sorted(ENSEMBLE_PROBES):
            problems.append(f"seed {seed}: probes {sorted(got[seed])}")
            continue
        for probe in ENSEMBLE_PROBES:
            series = got[seed][probe]
            ref = reference[seed][probe]
            where = f"seed {seed} probe {probe}"
            if len(series) != ENSEMBLE_DEPTH:
                problems.append(f"{where}: {len(series)} depths")
                continue
            if not all(0.0 <= r <= 1.0 for r in series):
                problems.append(f"{where}: residual outside [0, 1]")
            if any(nxt > prev + MONOTONE_SLACK for prev, nxt in zip(series, series[1:])):
                problems.append(f"{where}: residual increases with depth")
            dev = max(abs(r - q) for r, q in zip(series, ref))
            if not dev <= ENSEMBLE_ABS_TOL:
                problems.append(f"{where}: {dev:.3e} from the reference")
    return problems


def _check_dynamics(bench_seed: int, rows: list[str], reference: dict) -> list[str]:
    got = parse_dynamics(rows)
    ref = reference[str(base_seed(bench_seed))]
    if not all(math.isfinite(v) for v in got["values"]):
        return ["state is not finite"]
    if got["offset"] != ref["offset"] or len(got["values"]) != len(ref["values"]):
        return ["state window differs from the reference"]
    scale = max(abs(v) for v in ref["values"])
    dev = max(abs(v - q) for v, q in zip(got["values"], ref["values"]))
    if not dev <= DYNAMICS_REL_TOL * scale:
        return [f"state is {dev / scale:.3e} (relative) from the reference"]
    return []


def _check_oracle(rows: list[str], reference: list) -> list[str]:
    got = parse_oracle(rows)
    if [g[0] for g in got] != [r[0] for r in reference]:
        return [f"check names {[g[0] for g in got]} differ from the reference"]
    problems = []
    for (name, dev, tol, status), (_, ref_dev, ref_tol) in zip(got, reference):
        if status != "PASS":
            problems.append(f"{name}: {status}")
        if tol != ref_tol:
            problems.append(f"{name}: tolerance {tol} differs from {ref_tol}")
        allowed = max(ORACLE_DEV_SHARE * abs(ref_dev), ORACLE_TOL_SHARE * ref_tol)
        if not abs(dev - ref_dev) <= allowed:
            problems.append(f"{name}: max dev {dev:.3e} differs from {ref_dev:.3e}")
    return problems
