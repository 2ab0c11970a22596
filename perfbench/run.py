"""Benchmark runner for the GRANITE reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-distinct --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds its inputs from ``--seed``, measures for about
``--seconds`` seconds, checks the program's outputs, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones listed
in ``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from
spans recorded around the program's public calls (written to
``.perfbench/spans-<workload>-<seed>.jsonl``).  A wrong answer makes the run
exit with status 1.

Every end-to-end metric exists on every workload: set-up time, peak RSS,
the share of operations that succeeded, and two *lanes* (``primary.*`` and
``secondary.*``), each a rate and a median latency.  What a lane measures
depends on the workload and is stated in its module docstring and in
``BENCHMARK.json``.  Lines before the last one describe the environment
(numpy, BLAS, threads, cores), each phase's counts, the inputs' repeat and
cold shares, and ``workload_metrics``: the workload's own figures under their
own names (``granite_blocks_per_s``, ``high.p99_ms``, ``requests_per_s``,
...), tail percentiles included.  ``--workload all`` runs every workload in
its own process and prints those figures together.

This module does nothing at import time: worker processes started with
``forkserver`` or ``spawn`` re-import it as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

#: Workload name -> (module, BLAS threads).  The serving workloads run the
#: client and one worker process on two cores, so each gets one BLAS
#: thread; the offline ones use both cores in one process.
WORKLOADS = {
    "sweep-distinct": ("perfbench.sweep", 2),
    "train-multitask": ("perfbench.train", 2),
    "serve-open-mixed": ("perfbench.serve_open", 1),
    "http-closed-hot": ("perfbench.http_closed", 1),
}

#: Environment variables the program or numpy would otherwise read.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Output:
    """Prints the descriptive lines that precede the result line."""

    def info(self, name: str, values) -> None:
        print(f"{name} {json.dumps(values, default=float)}", flush=True)

    def phase(self, counts) -> None:
        print(counts.line(), flush=True)


def _repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _keep_temporary_files_inside(root: str) -> None:
    """Points temporary files (multiprocessing's forkserver socket) into the checkout.

    Skipped when the path would make that socket's name longer than a Unix
    socket address allows.
    """
    directory = os.path.join(root, ".perfbench", "tmp")
    if len(directory) > 60:
        return
    os.makedirs(directory, exist_ok=True)
    os.environ["TMPDIR"] = directory
    tempfile.tempdir = directory


def _exit_on_signal(signum, frame) -> None:
    """Turns SIGTERM into SystemExit so the worker processes are stopped on the way out."""
    sys.exit(128 + signum)


def _lane_metrics(lanes) -> dict:
    from perfbench.common import metric, percentile

    metrics = {}
    for lane, (per_second, latencies_s) in lanes.items():
        metrics[f"{lane}.per_s"] = metric(per_second, "1/s")
        metrics[f"{lane}.p50_ms"] = metric(1e3 * percentile(latencies_s, 0.50), "ms")
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module_name, blas_threads = WORKLOADS[workload]
    for variable in _THREAD_VARIABLES:
        os.environ[variable] = str(blas_threads)
    root = _repo_root()
    source = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"error: the program's sources ({source}/repro) are missing", file=sys.stderr)
        return 2
    for path in (source, root):
        if path not in sys.path:
            sys.path.insert(0, path)

    _keep_temporary_files_inside(root)
    signal.signal(signal.SIGTERM, _exit_on_signal)

    import importlib

    from perfbench.common import environment_record, metric, stop_processes

    out = Output()
    out.info("environment", dict(environment_record(blas_threads), workload=workload,
                                 seed=seed, seconds=seconds, trace=int(trace)))
    module = importlib.import_module(module_name)
    try:
        result = module.run(seed, seconds, trace, out)
    finally:
        stop_processes()

    out.info("workload_metrics", result["workload_metrics"])
    if trace:
        out.info("self_times_s", result["self_times"])
        spans = os.path.join(".perfbench", f"spans-{workload}-{seed}.jsonl")
        result["tracer"].write(spans)
        out.info("spans", {"path": spans, "count": len(result["tracer"].spans)})
        metrics = result["per_layer"]
    else:
        attempted = max(result["attempted"], 1)
        metrics = {
            "setup_s": metric(result["setup_s"], "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "ok_share": metric((result["attempted"] - result["failed"]) / attempted, "share"),
        }
        metrics.update(_lane_metrics(result["lanes"]))
    for problem in result["problems"]:
        print(f"MISMATCH {problem}", flush=True)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Runs every workload in its own process; prints the design-note metrics."""
    status = 0
    summary = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = completed.stdout.strip().splitlines()
        figures = [line for line in lines if line.startswith("workload_metrics ")]
        if completed.returncode != 0 or not figures:
            print(f"{workload}: exit {completed.returncode}\n{completed.stdout}{completed.stderr}")
            status = 1
            continue
        final = json.loads(lines[-1])
        summary[workload] = json.loads(figures[-1].split(" ", 1)[1])
        for name, entry in summary[workload].items():
            print(f"{workload:18s} {name:24s} {entry['value']:12.4f} {entry['unit']}")
        status = status or (0 if final["correct"] else 1)
    print(json.dumps({"correct": status == 0, "workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
