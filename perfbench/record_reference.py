"""Record ``reference.json``: the data rows of every input set of the benchmark.

Run from the root of a fraclat checkout:

    PYTHONPATH=src python3 perfbench/record_reference.py

It runs each workload once per input set (bench seeds 0 .. POOL-1) through
``fraclat.cli.main`` and stores the parsed rows, rounded to 12 significant
digits, far below the check tolerances in ``workloads.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads


def _round(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, list):
        return [_round(v) for v in value]
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    return value


def _rows(cli, workload: str, bench_seed: int, tmp: str) -> list[str]:
    argv = workloads.cli_args(workload, bench_seed)
    out_path = os.path.join(tmp, "out.csv")
    if workloads.writes_file(workload):
        argv += ["--out", out_path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = cli.main(argv)
    if exit_code != 0:
        raise SystemExit(f"{workload} seed {bench_seed}: exit code {exit_code}")
    out_text = ""
    if workloads.writes_file(workload):
        with open(out_path, encoding="utf-8") as fh:
            out_text = fh.read()
    return workloads.data_rows(workload, out_text, stdout.getvalue())


def main() -> int:
    import fraclat.cli as cli

    reference = {"ensemble": {}, "dynamics": {}}
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench-") as tmp:
        for bench_seed in range(workloads.POOL):
            rows = _rows(cli, "ensemble", bench_seed, tmp)
            reference["ensemble"].update(workloads.parse_ensemble(rows))
            rows = _rows(cli, "dynamics", bench_seed, tmp)
            key = str(workloads.base_seed(bench_seed))
            reference["dynamics"][key] = workloads.parse_dynamics(rows)
        rows = _rows(cli, "oracle", 0, tmp)
        reference["oracle"] = [entry[:3] for entry in workloads.parse_oracle(rows)]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(_round(reference), fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
