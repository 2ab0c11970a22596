"""Helpers shared by the workloads: percentiles, phase counts, memory, output."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Set-ups per run; ``setup_s`` reports their median.  Cheap set-ups
#: (building models in-process) repeat more often than ones that spawn a
#: worker process.
SETUP_REPEATS = 5
WORKER_SETUP_REPEATS = 3


def percentile(values: Sequence[float], quantile: float) -> float:
    """Linear-interpolated percentile (``quantile`` in [0, 1]); NaN if empty."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = quantile * (len(ordered) - 1)
    low = int(position)
    if position == low:
        return ordered[low]  # also keeps an infinite neighbour out of the sum
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


@dataclass
class PhaseCounts:
    """Operations of one phase: every attempt ends in exactly one outcome."""

    phase: str
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    rejected: int = 0
    lost: int = 0

    def line(self) -> str:
        return "phase " + json.dumps(asdict(self))


def timed_setups(build: Callable[[], object],
                 release: Optional[Callable[[object], None]] = None,
                 repeats: int = SETUP_REPEATS):
    """Runs ``build`` ``repeats`` times; keeps the last result.

    Returns ``(result, median_seconds, all_seconds)``.  Every earlier result
    is passed to ``release`` (when given) before the next build so repeats
    do not stack up worker processes, and is freed before the clock starts:
    a user's one set-up does not pay for tearing down an earlier one.
    """
    import gc

    seconds: List[float] = []
    result = None
    for _ in range(repeats):
        if result is not None and release is not None:
            release(result)
        result = None
        gc.collect()
        start = time.perf_counter()
        result = build()
        seconds.append(time.perf_counter() - start)
    return result, median(seconds), seconds


def alternate(budgets: Dict[str, float], minimum: int,
              step: Callable[[str], float]) -> Dict[str, List[float]]:
    """Interleaves timed operations of several kinds until each used its budget.

    ``step(kind)`` runs one operation and returns its seconds.  The kind
    furthest behind its budget goes next, so slow drifts of the machine hit
    every kind alike; each kind runs at least ``minimum`` times.
    """
    times: Dict[str, List[float]] = {kind: [] for kind in budgets}

    def progress(kind: str) -> float:
        spent = times[kind]
        return sum(spent) / budgets[kind] if len(spent) >= minimum else -1.0

    while min(progress(kind) for kind in times) < 1.0:
        kind = min(times, key=progress)
        times[kind].append(step(kind))
    return times


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` in MB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _parent_pids() -> Dict[int, int]:
    """Process id -> parent process id, for every process in ``/proc``."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    return parents


def descendant_pids(root: int) -> List[int]:
    """Every process below ``root`` (forkserver workers included)."""
    children: Dict[int, List[int]] = {}
    for pid, parent in _parent_pids().items():
        children.setdefault(parent, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb() -> float:
    """Sum of the peak RSS of this process and every live descendant."""
    return sum(_vm_hwm_mb(pid) for pid in [os.getpid()] + descendant_pids(os.getpid()))


def _await_exit(pids: Sequence[int], timeout_s: float) -> List[int]:
    """Waits until every pid has left ``/proc``; returns those still there.

    Children of this process are reaped here; deeper descendants are
    reaped by their own parent (the forkserver reaps its workers).
    """
    deadline = time.monotonic() + timeout_s
    remaining = list(pids)
    while remaining:
        for pid in remaining:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        remaining = [pid for pid in remaining if os.path.exists(f"/proc/{pid}")]
        if not remaining or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    return remaining


def _end(pids: Sequence[int], grace_s: float) -> None:
    """SIGTERM, then SIGKILL after ``grace_s``; returns once each has ended."""
    import signal

    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        pids = _await_exit(pids, grace_s)
        if not pids:
            return
    _await_exit(pids, 60.0)


def stop_processes(grace_s: float = 5.0) -> None:
    """Stops every process this one started and waits until each has ended.

    Worker processes go first, while the forkserver that forked them is
    still there to reap them.  Then multiprocessing's forkserver and
    resource tracker are asked to stop and are waited for: on their own
    they only notice that this process is gone some time after it exits.
    Anything still left is killed.
    """
    forkserver = sys.modules.get("multiprocessing.forkserver")
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    helpers = {
        getattr(getattr(forkserver, "_forkserver", None), "_forkserver_pid", None),
        getattr(getattr(tracker, "_resource_tracker", None), "_pid", None),
    }
    _end([pid for pid in descendant_pids(os.getpid()) if pid not in helpers], grace_s)
    for module, name in ((forkserver, "_forkserver"), (tracker, "_resource_tracker")):
        stop = getattr(getattr(module, name, None), "_stop", None)
        if stop is not None:
            try:
                stop()
            except OSError:  # already gone; the sweep below checks
                pass
    _end(descendant_pids(os.getpid()), grace_s)


def environment_record(blas_threads: int) -> Dict[str, object]:
    """What the numbers depend on besides the code: numpy, BLAS, cores."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("name", "unknown")
        blas += " " + str(config["Build Dependencies"]["blas"].get("version", ""))
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.strip(),
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def overhead_share(untraced: Dict[str, List[float]], traced: Dict[str, List[float]]) -> float:
    """Traced time over the time the same operations took untraced, minus 1.

    Both arguments map an operation kind to its durations; each kind's
    untraced mean prices the traced operations of that kind.
    """
    expected = sum(len(traced[kind]) * sum(untraced[kind]) / len(untraced[kind])
                   for kind in traced if traced[kind] and untraced.get(kind))
    actual = sum(sum(traced[kind]) for kind in traced if traced[kind] and untraced.get(kind))
    return actual / expected - 1.0 if expected > 0 else 0.0


def checksum(values: Iterable[float]) -> str:
    """Short digest of a float sequence (exact reprs, so bit-level changes show)."""
    digest = hashlib.sha256(",".join(repr(float(v)) for v in values).encode("ascii"))
    return digest.hexdigest()[:16]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
