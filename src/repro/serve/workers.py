"""Sharded worker processes with health checks and automatic respawn.

The original worker pool was a ``multiprocessing.Pool`` whose ``map`` dealt
micro-batches to whichever worker was free.  That wastes the workers' warm
caches: the same block lands on a different replica every submission, so
every replica slowly re-encodes (and re-predicts) the whole key space.  This
module replaces it with a :class:`ShardedWorkerPool` of *addressable*
workers:

* each worker is a dedicated process with its own duplex pipe, so the
  parent can route a micro-batch to a specific worker — which is what makes
  stable block-text-hash sharding (see
  :func:`repro.serve.batching.coalesce_requests_by_ring`) possible;
* each worker owns a warm model replica plus parse cache, and can report
  its cache counters (the per-worker shard-affinity stats used by the
  serving benchmarks);
* the parent detects crashed workers (dead process, broken pipe) both via
  explicit health checks and mid-submission, respawns them from the service
  config, and transparently resubmits the work that was in flight —
  predictions are pure, so resubmission is always safe;
* the pool is *elastic*: :meth:`ShardedWorkerPool.scale_to` grows and
  shrinks the worker count at runtime, keeping a consistent
  :class:`~repro.serve.ring.HashRing` over the live worker ids in sync so
  only ~1/N of the cache key space moves per resize.  Worker ids stay
  contiguous (``0 .. count-1``): scaling up re-adds the lowest free id and
  scaling down retires the highest, so the ring topology — and therefore
  every surviving worker's cache partition — is a pure function of the
  worker count.  :class:`PoolAutoscaler` turns queue depth into resize
  decisions under min/max bounds and a cooldown.

The job protocol is deliberately tiny: ``(kind, job_id, payload)`` requests
and ``(status, job_id, payload)`` replies, with kinds ``predict``, ``stats``,
``ping`` and ``stop``.  Job ids let the parent discard stale replies after a
respawn instead of mis-assigning them.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.models import create_model
from repro.models.base import ThroughputModel
from repro.serve.faults import FaultInjector
from repro.serve.resilience import CircuitBreaker, RespawnGovernor, RespawnPolicy
from repro.serve.ring import HashRing
from repro.serve.stats import WorkerStats, worker_stats_from_raw
from repro.serve.types import ServiceClosedError
from repro.utils.cache import LRUCache

__all__ = [
    "PoolAutoscaler",
    "ShardedWorkerPool",
    "WorkerCrashError",
    "PARSE_CACHE_SIZE",
]

#: Capacity of the text -> parsed BasicBlock caches (service and workers).
PARSE_CACHE_SIZE = 8192

#: How often (seconds) the parent re-checks a worker's liveness while
#: waiting for a reply.  Predictions may legitimately take much longer; the
#: poll only bounds how quickly a *crash* is noticed, not the job itself.
_POLL_INTERVAL_S = 0.05

#: Respawn budget per ``run_batches`` call.  A worker that dies
#: deterministically on some input would otherwise crash-loop forever.
_MAX_RESPAWNS_PER_CALL = 3

#: Exit code of a worker killed by an injected crash fault (visible in the
#: parent's process table; any nonzero code is handled the same way).
_CRASH_EXIT_CODE = 17


class WorkerCrashError(RuntimeError):
    """A worker crashed repeatedly and its work could not be completed."""


def _worker_context():
    """A fork-safe multiprocessing context for worker (re)spawns.

    Workers are respawned wherever a crash is detected — including the async
    front end's dispatcher thread — and ``fork`` in a multi-threaded parent
    can inherit held locks into the child, wedging it inside
    :func:`build_model` forever.  ``forkserver`` forks from a clean
    single-threaded server instead (with this module preloaded so replicas
    don't re-import numpy per spawn); platforms without it use ``spawn``.
    """
    try:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.serve.workers"])
    except ValueError:
        context = multiprocessing.get_context("spawn")
    return context


def build_model(config) -> ThroughputModel:
    """Constructs (and warm-starts) one model replica from a service config.

    The config's ``inference_dtype`` is threaded into the replica, which is
    how a sharded pool ends up with every worker predicting in float32 when
    the service says so — replicas respawned after a crash come through this
    same path, so the dtype survives respawns too.
    """
    kwargs = {}
    if config.tasks is not None:
        kwargs["tasks"] = config.tasks
    dtype = getattr(config, "inference_dtype", None)
    if dtype is not None:
        kwargs["inference_dtype"] = dtype
    return create_model(
        config.model_name,
        small=config.small_model,
        seed=config.seed,
        checkpoint_path=config.checkpoint_path,
        **kwargs,
    )


def predict_texts(
    model: ThroughputModel,
    block_texts: Sequence[str],
    parse_cache: Optional[LRUCache] = None,
) -> Dict[str, np.ndarray]:
    """Parses block texts (through ``parse_cache`` when given) and predicts.

    Caching the parsed blocks keeps steady-state serving of repeated texts
    from paying parse + render cost before the model's prediction cache can
    even be consulted.
    """
    blocks = []
    for text in block_texts:
        block = parse_cache.get(text) if parse_cache is not None else None
        if block is None:
            block = BasicBlock.from_text(text)
            if parse_cache is not None:
                parse_cache.put(text, block)
        blocks.append(block)
    return model.predict(blocks)


def _predictions_corrupt(payload: object) -> bool:
    """True when a predict reply carries any non-finite prediction.

    Only consulted while a fault plan is armed — the parent's defence
    against the ``corrupt_reply`` fault (and, under chaos, against any
    real bit-flip the transport might ever produce).
    """
    if not isinstance(payload, dict):
        return False
    return any(
        not bool(np.isfinite(np.asarray(values)).all())
        for values in payload.values()
    )


def _apply_worker_fault(injector: Optional[FaultInjector], block_texts) -> bool:
    """Executes any worker-side fault due for this predict job.

    A ``crash`` fault exits the process on the spot (the parent sees EOF
    and respawns); ``hang`` / ``slow_reply`` sleep for the spec's delay
    before the job proceeds.  Returns True when the reply should be
    corrupted (``corrupt_reply`` fault).
    """
    if injector is None:
        return False
    action = injector.worker_fault(block_texts)
    if action is None:
        return False
    kind, delay_s = action
    if kind == "crash":
        os._exit(_CRASH_EXIT_CODE)
    if delay_s > 0.0:
        time.sleep(delay_s)
    return kind == "corrupt_reply"


def _worker_main(config, connection, incarnation: int = 1) -> None:
    """Entry point of one worker process: warm model, serve jobs until stop.

    ``incarnation`` is this replica's spawn generation (1 = the original
    process, 2 = first respawn, ...); the fault injector uses it so a
    replica respawned after an injected crash does not re-fault on the
    same keys.
    """
    model = build_model(config)
    parse_cache = LRUCache(PARSE_CACHE_SIZE)
    fault_plan = getattr(config, "fault_plan", None)
    injector = None if fault_plan is None else FaultInjector(fault_plan, incarnation)
    job_errors = 0
    while True:
        try:
            kind, job_id, payload = connection.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if kind == "stop":
            return
        try:
            if kind == "predict":
                corrupt = _apply_worker_fault(injector, payload)
                result = predict_texts(model, payload, parse_cache)
                if corrupt:
                    result = injector.corrupt(result)
            elif kind == "stats":
                result = dict(model.cache_stats())
                result["parse_hits"] = parse_cache.hits
                result["parse_misses"] = parse_cache.misses
                # Which precision this replica actually predicts in; lets
                # the parent (and tests) verify dtype propagation.
                result["inference_dtype"] = model.inference_dtype
                # Jobs this replica failed since it (re)spawned: the parent
                # only raises the first traceback per run_batches call, so
                # the count is how monitoring sees repeat offenders.
                result["job_errors"] = job_errors
            elif kind == "ping":
                result = os.getpid()
            else:
                raise ValueError(f"unknown worker job kind {kind!r}")
            connection.send(("ok", job_id, result))
        except Exception:
            job_errors += 1
            connection.send(("error", job_id, traceback.format_exc()))


class _WorkerHandle:
    """Parent-side handle of one worker: process, pipe, respawn bookkeeping."""

    def __init__(self, config, worker_id: int, context) -> None:
        self._config = config
        self._context = context
        self.worker_id = worker_id
        self.spawn_count = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.connection = None
        self.spawn()

    def spawn(self) -> None:
        self.discard()
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(self._config, child_end, self.spawn_count + 1),
            name=f"repro-serve-worker-{self.worker_id}",
            daemon=True,
        )
        process.start()
        child_end.close()  # the parent keeps only its own end
        self.process = process
        self.connection = parent_end
        self.spawn_count += 1

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def discard(self) -> None:
        """Tears down the current process/pipe without replacing them."""
        if self.connection is not None:
            try:
                self.connection.close()
            except OSError:
                pass
            self.connection = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=2.0)
            self.process = None


class ShardedWorkerPool:
    """An elastic pool of addressable warm-model workers.

    Unlike ``multiprocessing.Pool`` the assignment of work to workers is
    entirely up to the caller (jobs address workers by id), dead workers
    are respawned automatically, in-flight work lost to a crash is
    resubmitted to the replacement, and the worker count can be scaled at
    runtime (:meth:`scale_to`) with a consistent hash :attr:`ring` tracking
    the live ids so callers can route with minimal cache movement.

    Worker ids are always the contiguous range ``0 .. num_workers - 1``:
    scaling down retires the highest ids and scaling back up re-creates
    them, which makes the ring topology (and hence each worker's cache
    partition) a deterministic function of the worker count alone.
    """

    def __init__(
        self,
        config,
        num_workers: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._config = config
        self._context = _worker_context()
        self._job_ids = itertools.count()
        #: Optional per-worker circuit breaker (owned by the service);
        #: crashes / timeouts / corrupt replies feed failures in, ok
        #: predict replies feed successes.
        self._breaker = breaker
        #: Respawn rate limiter — bounds health-check respawns per window
        #: so a crash-storming worker cannot spin the pool.
        self._governor = RespawnGovernor(
            getattr(config, "respawn_policy", None) or RespawnPolicy()
        )
        #: Per-job watchdog: an in-flight job older than this is treated as
        #: a crash (hung replica).  None = wait forever (historical).
        self._job_timeout_s = getattr(config, "worker_job_timeout_s", None)
        #: Validate predict replies for finiteness only when a fault plan
        #: is armed — normal serving never pays the scan.
        self._validate_replies = getattr(config, "fault_plan", None) is not None
        #: Jobs killed by the per-job watchdog.
        self.job_timeouts = 0
        #: Predict replies discarded as corrupt (non-finite values).
        self.corrupt_replies = 0
        count = config.num_workers if num_workers is None else num_workers
        if count < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._workers = [
            _WorkerHandle(config, worker_id, self._context)
            for worker_id in range(count)
        ]
        #: Consistent hash ring over the live worker ids; hash-sharding
        #: callers route every block to ``ring.owner(shard_key(text))``.
        self.ring = HashRing(nodes=range(count))
        #: Chronological resize log: ``{"action", "worker_id",
        #: "num_workers", "at"}`` per worker added or retired.  Bounded so
        #: a long-lived autoscaled pool cannot grow it without limit.
        self.resize_events: Deque[Dict[str, object]] = deque(maxlen=1024)
        # One submission owns all pipes at a time: replies are correlated to
        # jobs by per-worker FIFO order, which concurrent callers (e.g. two
        # async front ends sharing one service) would interleave.
        self._jobs_lock = threading.Lock()
        self._closed = False
        #: Total workers respawned over the pool's lifetime (health checks
        #: and mid-submission crash recovery both count).
        self.respawns = 0
        #: Total error replies received from workers.  ``run_batches`` only
        #: raises the *first* traceback per call; this counts every one, so
        #: errors masked by an earlier failure still show up in monitoring.
        self.job_errors = 0

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    # ------------------------------------------------------------------ #
    # Elasticity.
    # ------------------------------------------------------------------ #
    def scale_to(self, count: int) -> int:
        """Grows or shrinks the pool to ``count`` workers; returns the delta.

        Serialized against submissions via the jobs lock, so no in-flight
        batch can be addressed to a worker being retired.  Retired workers
        are stopped and their processes discarded; re-grown worker ids get
        fresh (cold-cache) replicas, but every *surviving* worker keeps its
        warm caches and — thanks to the consistent ring — almost all of its
        key partition.

        Callers routing through :attr:`ring` must serialize their routing
        decisions against ``scale_to`` themselves (the prediction service
        holds its submit lock across both).
        """
        if count < 1:
            raise ValueError("a worker pool needs at least one worker")
        with self._jobs_lock:
            self._check_open_locked()
            delta = count - len(self._workers)
            while len(self._workers) > count:
                worker = self._workers.pop()
                self._retire_locked(worker)
                self.ring.remove_node(worker.worker_id)
                self._governor.forget(worker.worker_id)
                if self._breaker is not None:
                    self._breaker.forget(worker.worker_id)
                self._record_resize("remove", worker.worker_id)
            while len(self._workers) < count:
                worker_id = len(self._workers)
                self._workers.append(
                    _WorkerHandle(self._config, worker_id, self._context)
                )
                self.ring.add_node(worker_id)
                self._record_resize("add", worker_id)
            return delta

    def _retire_locked(self, worker: _WorkerHandle) -> None:
        if worker.connection is not None and worker.alive():
            try:
                worker.connection.send(("stop", -1, None))
            except (BrokenPipeError, OSError):
                pass
        worker.discard()

    def _record_resize(self, action: str, worker_id: int) -> None:
        self.resize_events.append(
            {
                "action": action,
                "worker_id": worker_id,
                "num_workers": len(self._workers),
                "at": time.monotonic(),
            }
        )

    # ------------------------------------------------------------------ #
    # Health.
    # ------------------------------------------------------------------ #
    def ensure_healthy(self) -> int:
        """Respawns dead workers the respawn governor admits; returns count.

        Taken under the jobs lock so an out-of-band monitoring thread can
        never replace a connection a concurrent submission is waiting on.
        A worker that has exhausted its respawn window stays dead until
        its backoff expires (``respawns_suppressed`` counts the refusals),
        so a crash-storming replica cannot spin the pool through an
        endless fork/build/crash cycle.
        """
        with self._jobs_lock:
            self._check_open_locked()
            respawned = 0
            for worker in self._workers:
                if not worker.alive():
                    if not self._governor.may_respawn(worker.worker_id):
                        continue
                    worker.spawn()
                    self._governor.record_respawn(worker.worker_id)
                    respawned += 1
            self.respawns += respawned
            return respawned

    @property
    def respawns_suppressed(self) -> int:
        """Respawn attempts refused by the governor's backoff."""
        return self._governor.suppressed

    def respawn_backoff_workers(self) -> List[int]:
        """Worker ids currently held in respawn backoff."""
        return self._governor.backoff_workers()

    def respawn_backoff_active(self) -> bool:
        """True while any worker is held in respawn backoff."""
        return bool(self._governor.backoff_workers())

    def ping(self) -> List[int]:
        """Round-trips every worker, returning their PIDs.

        Blocks until each worker has finished warm-starting its model and
        answered, so it doubles as the pool's warm-up barrier.
        """
        results = self._run_jobs([(index, "ping", None) for index in range(self.num_workers)])
        return [int(pid) for pid in results]

    def worker_stats(self) -> List[WorkerStats]:
        """Typed per-worker stats (:class:`~repro.serve.stats.WorkerStats`):
        the replica's cache counters (encode/prediction/parse hits, misses),
        its ``inference_dtype``, its ``job_errors`` count (jobs that raised
        since the replica spawned), its stable ``worker_id``, the fraction
        of the hash ring it owns (``ring_share``) and its ``spawn_count``
        (1 = never respawned).  Read entries by attribute
        (``entry.cache.prediction_hit_rate``).

        Everything — the stats round-trips, the ring shares and the
        worker pairing — happens under the jobs lock, so a concurrent
        ``scale_to`` (e.g. the autoscale monitor) can never mispair stats
        with a half-applied resize.

        Dead workers are *not* round-tripped (asking them would force the
        respawn the governor may be suppressing); they report a
        placeholder entry with ``alive=False`` and zeroed cache counters
        instead.
        """
        with self._jobs_lock:
            self._check_open_locked()
            alive_indexes = [
                index for index, worker in enumerate(self._workers) if worker.alive()
            ]
            results = self._run_jobs_locked(
                [(index, "stats", None) for index in alive_indexes]
            )
            raw_by_index = dict(zip(alive_indexes, results))
            shares = self.ring.shares()
            entries = []
            for index, worker in enumerate(self._workers):
                raw = raw_by_index.get(index)
                state = (
                    self._breaker.state(worker.worker_id)
                    if self._breaker is not None
                    else "closed"
                )
                entries.append(
                    worker_stats_from_raw(
                        raw if raw is not None else {},
                        worker_id=worker.worker_id,
                        spawn_count=worker.spawn_count,
                        ring_share=shares.get(worker.worker_id, 0.0),
                        alive=raw is not None,
                        respawn_backoff_active=self._governor.in_backoff(
                            worker.worker_id
                        ),
                        breaker_state=state,
                    )
                )
            return entries

    # ------------------------------------------------------------------ #
    # Work.
    # ------------------------------------------------------------------ #
    def run_batches(
        self, assignments: Sequence[Tuple[int, Tuple[str, ...]]]
    ) -> List[Dict[str, np.ndarray]]:
        """Predicts every ``(worker_index, block_texts)`` assignment.

        Workers run their assignments concurrently (each worker serially, in
        order).  Results are returned aligned with ``assignments``.  Crashed
        workers are respawned and their outstanding assignments resubmitted;
        a worker that keeps crashing raises :class:`WorkerCrashError`.
        """
        return self._run_jobs(
            [(worker_index, "predict", texts) for worker_index, texts in assignments]
        )

    #: In-flight jobs per worker.  Bounding this keeps both pipe directions
    #: shallow, so neither side can block on a full OS pipe buffer while the
    #: other side is blocked too (the classic fan-out deadlock of sending a
    #: whole job list eagerly).
    _MAX_IN_FLIGHT = 2

    def _run_jobs(self, jobs: Sequence[Tuple[int, str, object]]) -> List[object]:
        """Dispatches jobs to their workers and gathers results in order."""
        with self._jobs_lock:
            self._check_open_locked()
            return self._run_jobs_locked(jobs)

    def _run_jobs_locked(self, jobs: Sequence[Tuple[int, str, object]]) -> List[object]:
        results: List[object] = [None] * len(jobs)
        # Per-worker queues of (job_id, job_index, kind, payload); in-flight
        # entries grow a ``sent_at`` timestamp for the job watchdog.  Workers
        # answer in submission order, so the head of ``in_flight`` is always
        # the reply expected next from that worker.
        waiting: Dict[int, List[Tuple[int, int, str, object]]] = {}
        in_flight: Dict[int, List[Tuple[int, int, str, object, float]]] = {}
        for job_index, (worker_index, kind, payload) in enumerate(jobs):
            if not 0 <= worker_index < self.num_workers:
                raise IndexError(f"no such worker: {worker_index}")
            job_id = next(self._job_ids)
            waiting.setdefault(worker_index, []).append(
                (job_id, job_index, kind, payload)
            )
            in_flight.setdefault(worker_index, [])
        respawn_budget = _MAX_RESPAWNS_PER_CALL * self.num_workers
        # Corrupt replies are re-queued for recomputation; bound that the
        # same way respawns are so a deterministically-corrupting worker
        # cannot loop forever.
        requeue_budget = _MAX_RESPAWNS_PER_CALL * self.num_workers
        first_error: Optional[str] = None

        def handle_crash(worker_index: int) -> None:
            nonlocal respawn_budget
            worker = self._workers[worker_index]
            if self._breaker is not None:
                self._breaker.record_failure(worker.worker_id)
            if respawn_budget <= 0:
                raise WorkerCrashError(
                    f"worker {worker_index} crashed repeatedly; giving up "
                    f"after {self.respawns} respawns"
                )
            respawn_budget -= 1
            worker.spawn()
            self.respawns += 1
            self._governor.record_respawn(worker.worker_id)
            # Everything sent but unanswered died with the process; put it
            # back at the front so the replacement recomputes it first.
            waiting[worker_index][:0] = [
                entry[:4] for entry in in_flight[worker_index]
            ]
            in_flight[worker_index].clear()

        def handle_reply(worker_index: int, reply) -> None:
            nonlocal first_error, requeue_budget
            status, job_id, payload = reply
            if job_id != in_flight[worker_index][0][0]:
                return  # stale reply from before a respawn; discard
            entry = in_flight[worker_index].pop(0)
            _, job_index, kind, job_payload, _ = entry
            worker_id = self._workers[worker_index].worker_id
            if status == "ok":
                if (
                    kind == "predict"
                    and self._validate_replies
                    and _predictions_corrupt(payload)
                ):
                    self.corrupt_replies += 1
                    if self._breaker is not None:
                        self._breaker.record_failure(worker_id)
                    if requeue_budget > 0:
                        requeue_budget -= 1
                        waiting[worker_index].insert(0, entry[:4])
                    else:
                        self.job_errors += 1
                        if first_error is None:
                            first_error = (
                                f"worker {worker_id} kept returning corrupt "
                                f"(non-finite) predictions"
                            )
                    return
                results[job_index] = payload
                if kind == "predict" and self._breaker is not None:
                    self._breaker.record_success(worker_id)
            else:
                self.job_errors += 1
                if first_error is None:
                    first_error = payload

        def sweep_job_timeouts() -> None:
            if self._job_timeout_s is None:
                return
            now = time.monotonic()
            for worker_index, flight in in_flight.items():
                if not flight or now - flight[0][4] <= self._job_timeout_s:
                    continue
                # The head job has been in flight too long: the replica is
                # hung (or injected to hang).  Kill it and let the crash
                # path respawn and resubmit.
                self.job_timeouts += 1
                worker = self._workers[worker_index]
                if worker.process is not None and worker.process.is_alive():
                    worker.process.terminate()
                handle_crash(worker_index)

        while any(waiting.values()) or any(in_flight.values()):
            for worker_index in waiting:
                # Top up this worker's in-flight window.
                while (
                    waiting[worker_index]
                    and len(in_flight[worker_index]) < self._MAX_IN_FLIGHT
                ):
                    job = waiting[worker_index].pop(0)
                    try:
                        self._workers[worker_index].connection.send(
                            (job[2], job[0], job[3])
                        )
                        in_flight[worker_index].append(job + (time.monotonic(),))
                    except (BrokenPipeError, OSError):
                        waiting[worker_index].insert(0, job)
                        handle_crash(worker_index)
            # Wait on every busy worker's pipe at once: the first reply (or
            # EOF of a dying worker) wakes us, with no serial per-worker
            # poll latency.
            connection_owner = {
                self._workers[worker_index].connection: worker_index
                for worker_index, flight in in_flight.items()
                if flight
            }
            if not connection_owner:
                continue
            ready = multiprocessing.connection.wait(
                list(connection_owner), timeout=_POLL_INTERVAL_S
            )
            sweep_job_timeouts()
            if not ready:
                # No replies within the poll window; sweep for silent deaths
                # (a SIGKILLed worker's pipe usually reports EOF via wait,
                # but be defensive).
                for connection, worker_index in connection_owner.items():
                    if self._workers[worker_index].connection is not connection:
                        continue  # already respawned by the watchdog
                    if not self._workers[worker_index].alive():
                        handle_crash(worker_index)
                continue
            for connection in ready:
                worker_index = connection_owner[connection]
                if self._workers[worker_index].connection is not connection:
                    continue  # worker was respawned by the watchdog
                try:
                    reply = connection.recv()
                except (EOFError, BrokenPipeError, OSError):
                    handle_crash(worker_index)
                    continue
                handle_reply(worker_index, reply)
        if first_error is not None:
            raise RuntimeError(f"worker job failed:\n{first_error}")
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def _check_open_locked(self) -> None:
        if self._closed:
            raise ServiceClosedError("worker pool is closed")

    def close(self) -> None:
        """Stops every worker (idempotent).

        Taken under the jobs lock: an in-flight ``run_batches`` finishes
        (including any crash-recovery respawns it performs) before teardown,
        so no worker process can be spawned after its pool is closed.
        """
        with self._jobs_lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                self._retire_locked(worker)


class PoolAutoscaler:
    """Turns queue depth and realized latency into pool-resize decisions.

    The policy is deliberately conservative:

    * **scale up** when the pending backlog exceeds
      ``scale_up_backlog_batches`` size-flushes *per worker* — the queue is
      growing faster than the current pool drains it — or when the
      realized-latency signals say the SLO is already slipping (see
      :meth:`decide`);
    * **scale down** when the queue has stayed below one batch *total* —
      and no latency signal has shown pressure — for ``idle_grace_s``:
      the pool is provably over-provisioned;
    * never outside ``[min_workers, max_workers]``, and never within
      ``cooldown_s`` of the previous resize (spawning a replica costs a
      model build; flapping would be worse than either steady state).

    The caller (the async front end's autoscale monitor) polls
    :meth:`decide` with the live queue depth and applies the returned
    target via ``PredictionService.scale_workers``.
    """

    def __init__(
        self,
        min_workers: int,
        max_workers: int,
        max_batch_size: int,
        cooldown_s: float = 2.0,
        idle_grace_s: float = 1.0,
        scale_up_backlog_batches: float = 2.0,
    ) -> None:
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if max_workers < min_workers:
            raise ValueError("need min_workers <= max_workers")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.max_batch_size = int(max_batch_size)
        self.cooldown_s = float(cooldown_s)
        self.idle_grace_s = float(idle_grace_s)
        self.scale_up_backlog_batches = float(scale_up_backlog_batches)
        self._last_resize_at: Optional[float] = None
        self._busy_since: Optional[float] = None  # last time the queue was busy

    @staticmethod
    def _signal(value: Optional[float]) -> Optional[float]:
        """Normalizes a latency signal: ``None``/NaN mean "no data"."""
        if value is None or math.isnan(value):
            return None
        return float(value)

    def decide(
        self,
        pending_blocks: int,
        num_workers: int,
        now: Optional[float] = None,
        *,
        flush_wait_p99_s: Optional[float] = None,
        batch_latency_s: Optional[float] = None,
        wait_budget_s: Optional[float] = None,
    ) -> int:
        """The worker count the pool should run right now.

        Besides the queue depth, the caller may pass realized-latency
        signals (``None``/NaN = no data, behave exactly as before):

        * ``flush_wait_p99_s`` — the recent p99 of realized flush waits.
          Exceeding ``wait_budget_s`` means clients are *already* waiting
          too long, however short the queue looks right now: scale up.
        * ``batch_latency_s`` — the typical wall time of one service
          flush.  ``pending / max_batch_size x batch_latency / workers``
          estimates how long draining the current backlog will take; a
          drain time over budget is pressure the pure depth threshold
          (which assumes flushes are instant) misses on slow models.

        Latency pressure also counts as "busy", so an over-budget pool is
        never scaled down no matter how shallow its queue.  Returns
        ``num_workers`` (no change) unless a resize is due; the caller is
        responsible for applying the change and may call again immediately
        (the cooldown starts from the *decision*).
        """
        now = time.monotonic() if now is None else now
        wait_p99 = self._signal(flush_wait_p99_s)
        batch_latency = self._signal(batch_latency_s)
        budget = self._signal(wait_budget_s)
        latency_pressure = False
        if budget is not None and budget > 0:
            if wait_p99 is not None and wait_p99 > budget:
                latency_pressure = True
            if batch_latency is not None and num_workers > 0:
                pending_batches = pending_blocks / self.max_batch_size
                drain_s = pending_batches * batch_latency / num_workers
                if drain_s > budget:
                    latency_pressure = True
        if (
            self._busy_since is None
            or pending_blocks >= self.max_batch_size
            or latency_pressure
        ):
            self._busy_since = now
        target = min(max(num_workers, self.min_workers), self.max_workers)
        if target != num_workers:
            pass  # out of bounds: clamp back regardless of cooldown
        elif self._last_resize_at is not None and (
            now - self._last_resize_at < self.cooldown_s
        ):
            return num_workers
        elif (
            pending_blocks
            >= self.scale_up_backlog_batches * self.max_batch_size * num_workers
            or latency_pressure
        ) and num_workers < self.max_workers:
            target = num_workers + 1
        elif (
            now - self._busy_since >= self.idle_grace_s
            and num_workers > self.min_workers
        ):
            target = num_workers - 1
        if target != num_workers:
            self._last_resize_at = now
        return target
