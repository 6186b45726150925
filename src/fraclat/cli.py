"""Command-line interface: kernel dumps, operator application, validation,
localization ensembles, and time evolution, all with machine-readable CSV
output.

Every output file starts with a ``#``-prefixed manifest: the command, the
tool version, one line per parsed argument keyed by its ``argparse`` dest
(``kernel_radius`` is ``--kernel-radius``), the computed values and the elapsed
wall time.  Re-running with the recorded arguments reproduces the data rows
byte for byte.  Exit codes: 0 success, 1 numerical failure, 2 argument or
parse error, 3 budget or stability violation.  Each command runs with numpy
set to raise on overflow and on invalid operations, so a run that would
write ``inf`` or ``nan`` exits 1 instead.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .checks import ZEROTH_POWER_CONVENTION, run_checks
from .kernel import _check_order, build_table
from .lattice import Sequence, delta, norm, parse_sequence
from .localization import (
    HamiltonianConfig,
    StabilityError,
    evolve,
    monte_carlo,
    sample_disorder,
    trajectory,
)
from .operators import (
    PATHS,
    BudgetExceededError,
    OperatorSpec,
    QuadratureConvergenceError,
    apply,
)

_EXIT_OK = 0
_EXIT_NUMERICAL = 1
_EXIT_USAGE = 2
_EXIT_BUDGET = 3

# The largest --radius or --window accepted: a row of 2 * 10**7 + 1 doubles
# is 160 MB.  Larger values exit 2 before anything is allocated.
_MAX_SIZE = 10**7
# The most seeds --seeds may name.  The ensemble keeps probes x depth result
# rows of about 100 bytes per seed until the CSV is written.
_MAX_SEEDS = 10**5
# The most RK4 steps (round(--t / --dt)) evolve may take; see README for the
# cost of a step.  More steps exit 2 before anything is allocated.
_MAX_STEPS = 10**6


def _cell(value) -> str:
    # np.float64 is a float whose repr under numpy 2 is 'np.float64(...)'
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(args, results: dict, header: str, rows, t0: float) -> None:
    """Write the manifest, ``header`` and ``rows`` to ``args.out`` ('-' is stdout).

    The manifest lists every parsed argument but the output path, then the
    computed ``results``; every manifest value and table cell goes through
    ``_cell``.
    """
    lines = [f"# fraclat {args.command}", f"# version = {__version__}"]
    params = sorted(vars(args).items())
    for key, value in [*params, *results.items()]:
        if key not in ("func", "command", "out"):
            lines.append(f"# {key} = {_cell(value)}")
    lines.append(f"# elapsed_seconds = {time.perf_counter() - t0:.3f}")
    lines.append(header)
    lines.extend(",".join(map(_cell, row)) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sequence_rows(seq: Sequence):
    return zip(seq.indices().tolist(), seq.values.tolist())


def _check_size(flag: str, value: int, limit: int = _MAX_SIZE) -> None:
    if value > limit:
        raise ValueError(f"{flag} {value} exceeds the size limit {limit}")


def _check_order_flag(s: float) -> None:
    try:
        _check_order(s)
    except ValueError as exc:
        raise ValueError(f"--s: {exc}") from None


def _read_sequence(path: str) -> Sequence:
    seq = parse_sequence(sys.stdin.read() if path == "-" else Path(path).read_text("utf-8"))
    if not np.all(np.isfinite(seq.values)):
        raise ValueError(f"input sequence {path} holds a non-finite value")
    return seq


def _snapshot_path(out: str, t: float) -> str:
    return f"{out}.t{t:.12g}.csv"  # 12 digits tell the times of distinct steps apart


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_s, sep, hi_s = part.partition("..")
        lo, hi = int(lo_s), int(hi_s if sep else lo_s)
        if hi < lo:
            raise ValueError(f"bad seed range {part!r}")
        if len(seeds) + hi - lo + 1 > _MAX_SEEDS:  # before the range is expanded
            raise ValueError(f"--seeds {text} names more than {_MAX_SEEDS} seeds")
        seeds.extend(range(lo, hi + 1))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def _make_probe(name: str) -> tuple[str, Sequence]:
    if name == "odd":
        return name, Sequence(-1, np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0))
    if name == "even":
        return name, Sequence(-1, np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0))
    if name.startswith("delta:"):
        return name, delta(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown probe {name!r}; expected odd, even, or delta:<n>")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_kernel(args) -> int:
    t0 = time.perf_counter()
    _check_size("--radius", args.radius)
    table = build_table(args.s, args.radius)
    results = {"A_s": table.total_sum, "tail_bound": table.tail_bound}
    _write_csv(args, results, "k,K_s_k", enumerate(table.values.tolist()), t0)
    print(f"A_s = {table.total_sum!r}")
    print(f"tail_bound = {table.tail_bound!r}")
    return _EXIT_OK


def _cmd_apply(args) -> int:
    t0 = time.perf_counter()
    _check_size("--radius", args.radius)
    u = delta(0) if args.input is None else _read_sequence(args.input)
    spec = OperatorSpec(args.s, args.radius, args.path, args.budget)
    result = apply(u, spec)
    if not np.all(np.isfinite(result.values)):  # np.convolve ignores np.errstate
        raise FloatingPointError("overflow encountered in convolve")
    results = {"trunc_bound": result.trunc_bound}
    _write_csv(args, results, "n,value", _sequence_rows(result), t0)
    return _EXIT_OK


def _cmd_validate(args) -> int:
    results = run_checks(args.level)
    width = max(len(r.name) for r in results)
    print(f"{'check'.ljust(width)}  {'max dev':>12}  {'tol':>9}  status  seconds")
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(
            f"{r.name.ljust(width)}  {r.max_dev:>12.3e}  {r.tol:>9.0e}  "
            f"{status:<6}  {r.seconds:7.2f}"
        )
    print(ZEROTH_POWER_CONVENTION)
    return _EXIT_NUMERICAL if failed else _EXIT_OK


def _cmd_localize(args) -> int:
    t0 = time.perf_counter()
    if args.threads < 1:
        raise ValueError(f"worker count must be a positive integer, got {args.threads}")
    _check_size("--window", args.window)
    seeds = _parse_seeds(args.seeds)
    probes = [_make_probe(name.strip()) for name in args.probes.split(",") if name.strip()]
    report = monte_carlo(
        s=args.s,
        c=args.c,
        window_radius=args.window,
        kernel_radius=args.kernel_radius,
        seeds=seeds,
        depth=args.depth,
        probes=probes,
        residual_tol=args.residual_tol,
    )
    _write_csv(args, {}, "seed,probe_id,depth,residual", report.rows, t0)
    sys.stdout.write(report.summary_csv())
    return _EXIT_OK


def _cmd_evolve(args) -> int:
    t0 = time.perf_counter()
    _check_size("--window", args.window)
    if math.isfinite(args.t) and args.dt > 0.0 and args.t / args.dt > _MAX_STEPS:
        raise ValueError(f"--t {args.t} / --dt {args.dt} exceeds the step limit {_MAX_STEPS}")
    disorder = sample_disorder(args.c, args.seed, args.window)
    # evolve uses every lag in the window and does not read kernel_radius;
    # the window radius is always a valid value
    config = HamiltonianConfig(s=args.s, kernel_radius=args.window, disorder=disorder)
    u0 = delta(0) if args.input is None else _read_sequence(args.input)
    sign = +1 if args.sign == "plus" else -1
    if args.snapshot_every is None:
        result = evolve(u0, config, args.t, args.dt, sign=sign)
    else:
        if args.out == "-":
            raise ValueError("snapshots require --out to be a file path")
        for t, result in trajectory(u0, config, args.t, args.dt, sign, args.snapshot_every):
            if t < args.t:  # a checkpoint; the last pair is the final state
                snap = argparse.Namespace(**{**vars(args), "out": _snapshot_path(args.out, t)})
                _write_csv(snap, {"snapshot_t": t}, "n,value", _sequence_rows(result), t0)
    results = {"trunc_bound": result.trunc_bound, "mass": sum(result.values)}
    _write_csv(args, results, "n,value", _sequence_rows(result), t0)
    print(f"norm = {norm(result)!r}")
    return _EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraclat",
        description="Fractional powers of the discrete Laplace operator on the "
        "integer lattice: kernel dumps, operator application, identity "
        "validation, localization ensembles, time evolution.",
    )
    parser.add_argument("--version", action="version", version=f"fraclat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="dump a kernel table as CSV")
    p.add_argument("--s", type=float, required=True, help="fractional order (> 0)")
    p.add_argument("--radius", type=int, required=True, help="table radius (>= 2)")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("apply", help="apply the operator to a sequence")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--radius", type=int, default=64)
    p.add_argument("--path", choices=PATHS, default="series")
    p.add_argument("--input", default=None, help="sequence file ('-' for stdin; default delta at 0)")
    p.add_argument("--budget", type=float, default=math.inf, help="truncation error budget")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("validate", help="run the cross-path identity suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("localize", help="seeded disorder ensemble with span residuals")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--c", type=float, required=True, help="disorder amplitude")
    p.add_argument("--seeds", required=True, help="e.g. '1,2,3' or '1..32'")
    p.add_argument("--window", type=int, default=256, help="window radius W")
    p.add_argument("--kernel-radius", dest="kernel_radius", type=int, default=64)
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--probes", default="odd", help="comma list: odd, even, delta:<n>")
    p.add_argument("--residual-tol", dest="residual_tol", type=float, default=1e-12)
    p.add_argument(
        "--threads", type=int, default=1, help="must be at least 1; no effect, seeds run serially"
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("evolve", help="integrate u' = +/- H u from delta at 0")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--t", type=float, required=True, help="final time")
    p.add_argument("--dt", type=float, required=True, help="RK4 step")
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--input", default=None)
    p.add_argument(
        "--snapshot-every",
        dest="snapshot_every",
        type=float,
        default=None,
        help="also write intermediate states every this many time units",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_evolve)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if "s" in vars(args):
                _check_order_flag(args.s)
            return args.func(args)
    except (BudgetExceededError, StabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (QuadratureConvergenceError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
