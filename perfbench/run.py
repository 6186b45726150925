"""Benchmark of the fraclat command line: ensemble, dynamics and oracle workloads.

Run from the root of a fraclat checkout (no install needed):

    python3 perfbench/run.py --workload ensemble --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one table each

With ``--trace 0`` every call of the checkout's ``fraclat`` (``src``) is
paired with the same call of ``baseline/fraclat``, a frozen copy of the
package kept in this directory.  The two sides run in two interpreters pinned
to one CPU and are sent each call at the same moment, so the scheduler
interleaves them every few milliseconds and both see the same machine speed.
The ratio of their CPU times cancels the speed swings of a shared machine,
which move a single call's time by about 20%.  The run starts
``IMPORT_PAIRS + COLD_PAIRS`` fresh pairs of interpreters one after another.
The two of a pair import ``fraclat.cli`` side by side; setup_s is the ratio
of their import CPU times, in seconds of the baseline's recorded import time
(``BASELINE_SETUP_S``).  The last ``COLD_PAIRS`` pairs then make one cold
call pair each (first_call_ratio), and the last pair makes warm call pairs
until ``--seconds`` are spent (warm_call_ratio).  peak_rss_mb is the peak RSS
of the checkout's interpreters that made calls.  Every metric is the median
over its samples in the run.

With ``--trace 1`` the run traces one cold call of every workload, so each
traced run yields every per-layer metric, named ``<workload>.<layer
metric>``, and measures the tracing overhead from side-by-side pairs of a
traced and an untraced interpreter (see ``trace``).

Each call's output is checked (see ``workloads.py``), and all calls of one
workload and side in a run must give byte-identical data rows, traced or
not.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; only the checkout's calls count
as attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import workloads

IMPORT_PAIRS = 2  # pairs of interpreters that only import, for more setup_s samples
COLD_PAIRS = 2
# Wall time of the baseline's ``import fraclat.cli`` alone on one CPU: the
# median over 30 runs, each the median of 6 imports, on a 2-vCPU Intel Xeon
# VM with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.  The run medians of the
# same code spread from 1.10 to 1.83 s within half an hour, so setup_s is the
# measured import ratio expressed in these seconds.
BASELINE_SETUP_S = 1.5694
MIN_WARM_PAIRS = 2
RUN_DEADLINE_S = 170.0
SINGLE_THREADED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
CHECKOUT, BASELINE = "checkout", "baseline"

END_TO_END = {
    "setup_s": "s",
    "first_call_ratio": "ratio",
    "warm_call_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The benchmark could not measure; no result is printed."""


def machine_header() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    return (
        f"# machine: nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} {versions}"
    )


def package_root(root: str, side: str) -> str:
    """The directory holding the ``fraclat`` package of ``side``."""
    return os.path.join(root, "src") if side == CHECKOUT else os.path.join(HERE, "baseline")


def worker_env(package_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = package_dir
    env.pop("FRACLAT_THREADS", None)
    for name in SINGLE_THREADED:  # every workload is single-threaded
        env[name] = "1"
    return env


class Worker:
    """A worker interpreter of one side, pinned to ``cpu``, alive until ``close``
    or the with block ends.  ``wait_ready`` waits for its import of
    ``fraclat.cli``."""

    def __init__(self, job: dict, side: str, cpu: int, deadline: float):
        self.side, self.deadline = side, deadline
        job = dict(job, package_root=package_root(job["root"], side))
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, json.dumps(job)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=worker_env(job["package_root"]),
            text=True,
        )
        try:
            os.sched_setaffinity(self.proc.pid, {cpu})
        except BaseException:
            self._kill()
            raise

    def wait_ready(self) -> None:
        self.setup_cpu_s = self.reply()["setup_cpu_s"]

    def reply(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise RunError(f"{self.side} worker timed out")
        line = self.proc.stdout.readline()
        if not line:
            raise RunError(f"{self.side} worker exited with code {self.proc.wait()}")
        try:
            return json.loads(line)
        except ValueError as exc:
            raise RunError(f"{self.side} worker replied {line[:80]!r}") from exc

    def send(self, op: str) -> None:
        try:
            self.proc.stdin.write(op + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise RunError(f"{self.side} worker exited with code {self.proc.wait()}") from exc

    def request(self, op: str) -> dict:
        self.send(op)
        return self.reply()

    def close(self) -> float:
        """Ends the process; returns its peak RSS in MB."""
        rss = self.request("exit")["peak_rss_mb"]
        self.proc.stdin.close()
        self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        return rss

    def _kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._kill()


def count_failures(groups: list[list[dict]]) -> tuple[int, list[str]]:
    """Failed calls: a problem of their own, or data rows unlike the first call's
    in their group (the calls of one workload and side in this run)."""
    failed, problems = 0, []
    for calls in groups:
        for call in calls:
            own = list(call["problems"])
            if call["digest"] != calls[0]["digest"]:
                own.append("data rows differ from the run's first call")
            failed += bool(own)
            problems += own
    return failed, problems


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" q1={q1:.4f} q3={q3:.4f}"


def start_pair(job: dict, order: tuple[str, str], cpu: int, deadline: float, stack) -> dict:
    """A checkout and a baseline interpreter on ``cpu``, importing side by side;
    returns them once both have imported.  ``stack`` ends them."""
    workers = {side: stack.enter_context(Worker(job, side, cpu, deadline)) for side in order}
    for worker in workers.values():
        worker.wait_ready()
    return workers


def call_pair(workers: dict, order: tuple[str, str], calls: dict) -> float:
    """One call per side, both at once on their shared CPU; returns the checkout's
    CPU time over the baseline's."""
    for side in order:
        workers[side].send("call")
    for side in order:
        calls[side].append(workers[side].reply())
    return calls[CHECKOUT][-1]["cpu_s"] / calls[BASELINE][-1]["cpu_s"]


def measure(job: dict, deadline: float) -> tuple[list[list[dict]], dict, list[str]]:
    """Untraced run: end-to-end metrics from paired checkout and baseline calls."""
    end = time.monotonic() + job["seconds"]
    calls = {CHECKOUT: [], BASELINE: []}
    setup, setup_cpu, first, warm, rss = [], [], [], [], []
    cpu = max(os.sched_getaffinity(0))
    pairs = IMPORT_PAIRS + COLD_PAIRS
    for p in range(pairs):
        order = (CHECKOUT, BASELINE) if p % 2 == 0 else (BASELINE, CHECKOUT)
        with contextlib.ExitStack() as stack:
            workers = start_pair(job, order, cpu, deadline, stack)
            setup_cpu.append(workers[CHECKOUT].setup_cpu_s)
            setup.append(workers[CHECKOUT].setup_cpu_s / workers[BASELINE].setup_cpu_s)
            if p >= IMPORT_PAIRS:
                first.append(call_pair(workers, order, calls))
            while p == pairs - 1:  # the last pair of interpreters stays for warm calls
                order = order[::-1]
                start = time.monotonic()
                warm.append(call_pair(workers, order, calls))
                pair_s = time.monotonic() - start
                if len(warm) >= MIN_WARM_PAIRS and time.monotonic() + pair_s > end:
                    break
            checkout_rss = workers[CHECKOUT].close()
            workers[BASELINE].close()
            if p >= IMPORT_PAIRS:
                rss.append(checkout_rss)

    failed, problems = count_failures([calls[BASELINE]])
    if failed:
        raise RunError(f"baseline calls failed: {problems[0]}")
    values = {
        "setup_s": statistics.median(setup) * BASELINE_SETUP_S,
        "first_call_ratio": statistics.median(first),
        "warm_call_ratio": statistics.median(warm),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    seconds = {side: [c["cpu_s"] for c in calls[side]] for side in calls}
    notes = [
        f"fraclat {' '.join(workloads.cli_args(job['workload'], job['seed']))}",
        f"setup_s: {BASELINE_SETUP_S} s times the median import CPU time ratio of "
        f"{len(setup)} fresh pairs{quartiles(setup)}; checkout import CPU seconds "
        f"side by side: median {statistics.median(setup_cpu):.4f}",
        f"first_call_ratio: median of {len(first)} cold call pairs{quartiles(first)}",
        f"warm_call_ratio: median of {len(warm)} warm call pairs{quartiles(warm)}",
        f"peak_rss_mb: median of {len(rss)} processes, max {max(rss):.1f}",
    ]
    for side, label in ((CHECKOUT, "checkout"), (BASELINE, "baseline")):
        cold, hot = seconds[side][:COLD_PAIRS], seconds[side][COLD_PAIRS:]
        notes.append(
            f"{label} CPU seconds per call: cold median {statistics.median(cold):.4f}, "
            f"warm median {statistics.median(hot):.4f}{quartiles(hot)}"
        )
    return [calls[CHECKOUT]], metrics, notes


def trace(job: dict, deadline: float) -> tuple[list[list[dict]], dict, list[str]]:
    """Traced run: per-layer metrics of every workload.

    For each workload a traced and an untraced interpreter of the checkout
    share one CPU.  Each first makes a cold call alone: the traced one gives
    the per-layer metrics, the untraced one the CheckResult seconds of
    ``validate``.  Then they call side by side, and the tracing overhead is
    the median difference of their CPU times.
    """
    groups, metrics, notes = [], {}, []
    cpu = max(os.sched_getaffinity(0))
    for workload in workloads.WORKLOADS:
        end = time.monotonic() + job["seconds"] / len(workloads.WORKLOADS)
        sub = dict(job, workload=workload)
        with Worker(sub, CHECKOUT, cpu, deadline) as traced, Worker(
            sub, CHECKOUT, cpu, deadline
        ) as untraced:
            traced.wait_ready()
            untraced.wait_ready()
            cold, untraced_cold = traced.request("traced"), untraced.request("call")
            calls, overhead = [cold, untraced_cold], []
            while True:
                start = time.monotonic()
                traced.send("traced")
                untraced.send("call")
                calls += [traced.reply(), untraced.reply()]
                overhead.append(calls[-2]["cpu_s"] - calls[-1]["cpu_s"])
                pair_s = time.monotonic() - start
                if len(overhead) >= MIN_WARM_PAIRS and time.monotonic() + pair_s > end:
                    break
            traced.close()
            untraced.close()
        groups.append(calls)
        layers = dict(cold["layers"], **untraced_cold["checks"])
        layers["cli.output_bytes"] = cold["output_bytes"]
        layers["trace.overhead_s"] = statistics.median(overhead)
        for name, (unit, _) in workloads.LAYER_METRICS[workload].items():
            if name not in layers:
                raise RunError(f"traced {workload} run did not record {name}")
            metrics[f"{workload}.{name}"] = {"value": layers[name], "unit": unit}
        notes.append(
            f"{workload}: tracing overhead {layers['trace.overhead_s']:+.4f} CPU s per call, "
            f"median of {len(overhead)} side-by-side pairs{quartiles(overhead)}"
        )
    return groups, metrics, notes


def run_workload(workload: str, args, root: str, tmp: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    job = {"root": root, "tmp": tmp, "workload": workload, "seed": args.seed,
           "seconds": float(args.seconds)}  # fmt: skip
    groups, metrics, notes = (trace if args.trace else measure)(job, deadline)
    failed, problems = count_failures(groups)
    attempted = sum(len(calls) for calls in groups)

    print(f"# workload={workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(f"#   {note}")
    for problem in problems[:10]:
        print(f"# problem: {problem}", file=sys.stderr)
    print(f"#   error_rate = {failed / attempted:.4f} ({failed} failed of {attempted} calls)")
    for name, metric in metrics.items():
        print(f"#   {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}  # fmt: skip


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fraclat", "cli.py")):
        print("error: run from the root of a fraclat checkout (no src/fraclat here)",
              file=sys.stderr)  # fmt: skip
        return 2
    # a traced run covers every workload whichever one is named
    if args.workload == "all" and not args.trace:
        selected = workloads.WORKLOADS
    else:
        selected = (args.workload,)
    print(machine_header())
    try:
        with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
            results = [run_workload(w, args, root, tmp) for w in selected]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
