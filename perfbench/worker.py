"""One benchmark process: times ``import fraclat.cli`` and in-process CLI calls.

run.py starts this script in a fresh interpreter, passing one JSON job as
its only argument.  ``PYTHONPATH`` selects which ``fraclat`` it imports: the
checkout's ``src`` or the frozen copy in ``baseline``.  Once imported it
prints ``{"setup_cpu_s": ...}`` (CPU seconds of the import), then answers
each line of standard input with one JSON line:

  call    runs the workload's command once and checks its output
  traced  the same under the tracer; the reply adds the per-layer ``layers``
  exit    reports the peak RSS of the process and ends it

The commands' own standard output is captured in memory and their files go
to the job's temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads  # standard library only, so the import timing below stays clean


def run_call(cli, job: dict, reference: dict) -> dict:
    """One ``fraclat`` command through ``cli.main``, timed in process CPU
    seconds, then checked."""
    workload = job["workload"]
    argv = workloads.cli_args(workload, job["seed"])
    out_path = os.path.join(job["tmp"], f"{os.getpid()}-{workload}.csv")
    if workloads.writes_file(workload):
        argv += ["--out", out_path]

    # run_checks passes through so that the CheckResult.seconds are kept
    check_results = []
    run_checks = cli.run_checks

    def keep_results(*args, **kwargs):
        results = run_checks(*args, **kwargs)
        check_results.extend(results)
        return results

    stdout = io.StringIO()
    error = None
    cli.run_checks = keep_results
    start = time.process_time()
    try:
        with contextlib.redirect_stdout(stdout):
            exit_code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        exit_code = exc.code
    except Exception as exc:  # a traceback is a failed call, not a failed run
        exit_code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        cpu_s = time.process_time() - start
        cli.run_checks = run_checks

    out_text = ""
    if workloads.writes_file(workload) and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            out_text = fh.read()
        os.remove(out_path)
    rows = workloads.data_rows(workload, out_text, stdout.getvalue())
    problems = [error] if error else []
    problems += workloads.check(workload, job["seed"], exit_code, rows, reference)
    return {
        "cpu_s": cpu_s,
        "problems": problems,
        "digest": workloads.digest(rows),
        "output_bytes": len(out_text.encode()) + len(stdout.getvalue().encode()),
        "checks": {workloads.CHECK_KEYS.get(r.name, r.name): r.seconds for r in check_results},
    }


def traced_call(cli, job: dict, reference: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        record = run_call(cli, job, reference)
    finally:
        tracer.uninstall()
    record["layers"] = tracer.summary()
    return record


def main() -> int:
    job = json.loads(sys.argv[1])
    # the commands print into a StringIO; replies go to the real stdout
    channel = sys.stdout

    def reply(obj) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    start = time.process_time()
    import fraclat.cli as cli

    setup_cpu_s = time.process_time() - start
    source = os.path.join(job["package_root"], "")
    if not os.path.abspath(cli.__file__).startswith(source):
        print(f"error: fraclat imported from {cli.__file__}, not {source}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    reply({"setup_cpu_s": setup_cpu_s})
    for line in sys.stdin:
        op = line.strip()
        if op == "call":
            reply(run_call(cli, job, reference))
        elif op == "traced":
            reply(traced_call(cli, job, reference))
        elif op == "exit":
            reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            return 0
        else:
            print(f"error: unknown request {op!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
