"""The async serving front end: queued, latency-bounded micro-batching.

:class:`~repro.serve.service.PredictionService` is synchronous — every
``submit`` call coalesces and flushes on its own, so concurrent clients
never share a batch and there is no queueing, no latency/throughput knob
and no back-pressure.  :class:`AsyncPredictionService` adds all three in
front of it:

* producers :meth:`~AsyncPredictionService.submit` individual requests and
  immediately receive a :class:`concurrent.futures.Future`;
* a dispatcher thread drains the shared :class:`~repro.serve.queue.RequestQueue`
  into micro-batch flushes, each flush triggered by ``max_batch_size``
  pending blocks OR a latency deadline on the oldest request — whichever
  fires first;
* every flush is one synchronous ``PredictionService.submit`` call, so the
  async front end composes unchanged with the in-process model or the
  hash-sharded worker pool behind it — including that service's
  ``inference_dtype``: put the queue in front of a float32 service config
  and every flush runs mixed-precision across the whole sharded pool.

The flush deadline itself is governed by a pluggable policy
(:mod:`repro.serve.flush`): ``flush_policy="static"`` keeps the fixed
``max_latency_ms`` deadline, ``"adaptive"`` scales it with the observed
load between ``min_latency_ms`` (idle — flush a lone request fast, nobody
else is coming) and ``max_latency_ms`` (busy — let batches pack densely).

Requests can leave the queue without being served: clients may ``cancel()``
their future while it is queued (the entry is discarded eagerly, before it
can occupy a micro-batch) and requests submitted with a ``deadline_ms``
budget resolve with :class:`~repro.serve.types.RequestExpiredError` when
the budget runs out.  Both drop classes are counted and reported by
:meth:`AsyncPredictionService.snapshot`, alongside the controller state,
queue depth and realized flush-wait percentiles.

When the underlying service declares elastic worker bounds
(``ServiceConfig(min_workers=..., max_workers=...)``), the front end also
runs a small monitor thread that feeds the live queue depth into
``PredictionService.maybe_autoscale`` — queue pressure grows the pool,
sustained idleness shrinks it, and the consistent hash ring keeps cache
movement to ~1/N per resize.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.serve.config import AsyncOptions, ServiceConfig
from repro.serve.faults import FaultInjector
from repro.serve.flush import (
    FlushController,
    HedgeController,
    create_flush_controller,
)
from repro.serve.queue import Priority, QueuedRequest, RequestQueue
from repro.serve.resilience import StalePredictionCache, run_with_retries
from repro.serve.service import PredictionService
from repro.serve.stats import (
    FlushStats,
    HedgeStats,
    QueueStats,
    ResilienceStats,
    ServiceSnapshot,
    latency_percentile,
)
from repro.serve.types import (
    PredictionRequest,
    PredictionResponse,
    QueueFullError,
    RequestExpiredError,
    ServiceClosedError,
)

__all__ = ["AsyncServiceStats", "AsyncPredictionService"]


@dataclass
class AsyncServiceStats:
    """Counters and flush-latency samples of one async front end."""

    requests: int = 0
    blocks: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    close_flushes: int = 0
    flushed_blocks: int = 0
    #: Entries dropped at flush time because their future was already
    #: cancelled (eagerly-discarded queue entries are counted by the queue).
    cancelled_drops: int = 0
    #: Entries dropped at flush time because their deadline had passed
    #: (queue-side expiries are counted by the queue).
    expired_drops: int = 0
    #: Wait of each flush's *oldest* request, enqueue -> dispatch, seconds.
    #: Bounded so a long-lived service cannot grow without limit.  A biased
    #: request-latency estimate by construction (one sample per flush, the
    #: worst-waiting request only) — per-request latency lives in
    #: ``request_latencies``.
    flush_waits: Deque[float] = field(default_factory=lambda: deque(maxlen=8192))
    #: Flush deadline (ms) in effect at each flush — how benchmarks watch
    #: the adaptive controller act.  Bounded like ``flush_waits``.
    flush_deadlines_ms: Deque[float] = field(
        default_factory=lambda: deque(maxlen=8192)
    )
    #: Queue depth (pending blocks) right after each flush was drained.
    queue_depths: Deque[int] = field(default_factory=lambda: deque(maxlen=8192))
    #: Per-request enqueue -> completion latency, seconds (bounded
    #: reservoir).  Every served queue entry contributes one sample — the
    #: whole distribution, not just each flush's oldest request — so these
    #: percentiles are what clients actually experienced, including the
    #: model call itself.  Under hedging, winning and losing attempts both
    #: contribute (the straggling loser keeps the tail honest, which also
    #: keeps the hedge deadline from chasing its own improvement).
    request_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=8192)
    )
    #: Wall time of each flush's ``PredictionService.submit`` call, seconds
    #: — the per-batch service latency the autoscaler uses to estimate
    #: drain time.
    flush_service_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=8192)
    )
    #: Queue entries resolved with a response / with a service error.
    requests_completed: int = 0
    request_errors: int = 0
    #: Hedge duplicates submitted / that answered the client first / that
    #: were cancelled while still queued.
    hedges_issued: int = 0
    hedges_won: int = 0
    hedges_cancelled: int = 0
    #: Backoff retries the dispatcher actually took / submissions that
    #: still failed after the last attempt.
    retries: int = 0
    retries_exhausted: int = 0
    #: Requests answered from the stale prediction cache (``degraded=True``).
    degraded_responses: int = 0
    #: Submissions rejected by an armed queue-saturation fault.
    injected_queue_rejections: int = 0

    @property
    def mean_flush_blocks(self) -> float:
        return self.flushed_blocks / self.flushes if self.flushes else 0.0

    def flush_wait_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) of recorded flush waits, in seconds.

        NaN while no flush has been recorded: an empty window must never
        read as 0.0, or SLO checks and the autoscaler would mistake "no
        samples yet" for "zero latency".
        """
        return latency_percentile(self.flush_waits, quantile)

    def flush_deadline_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) of realized flush deadlines, in ms.

        NaN for an empty window, like :meth:`flush_wait_percentile`.
        """
        return latency_percentile(self.flush_deadlines_ms, quantile)

    def request_latency_percentile(self, quantile: float) -> float:
        """The ``quantile`` (0..1) of per-request latencies, in seconds.

        NaN for an empty window, like :meth:`flush_wait_percentile`.
        """
        return latency_percentile(self.request_latencies, quantile)


class _HedgedCall:
    """Mutable race state of one client request (primary vs. hedge attempt).

    Plain data plus a leaf lock: every transition happens inside
    ``AsyncPredictionService`` methods under :attr:`lock`, which is never
    held while resolving or cancelling a future (done callbacks run
    synchronously and re-enter these methods).
    """

    __slots__ = (
        "request",
        "priority",
        "deadline_s",
        "enqueued_at",
        "client",
        "lock",
        "attempts",
        "outstanding",
        "hedged",
        "finished",
        "first_error",
    )

    def __init__(
        self,
        request: PredictionRequest,
        priority: int,
        deadline_s: Optional[float],
        enqueued_at: float,
    ) -> None:
        self.request = request
        self.priority = priority
        self.deadline_s = deadline_s
        self.enqueued_at = enqueued_at
        #: The future handed to the client; resolved exactly once by the
        #: first attempt to finish (set_running_or_notify_cancel guards the
        #: client-cancelled race).
        self.client: Future = Future()
        self.lock = threading.Lock()
        #: Queue entries issued for this call (primary first).
        self.attempts: List[QueuedRequest] = []
        self.outstanding = 0
        self.hedged = False
        self.finished = False
        #: First attempt error, so a later loser's cancellation/expiry
        #: cannot shadow the informative failure.
        self.first_error: Optional[BaseException] = None


class AsyncPredictionService:
    """Queued prediction front end with latency-bounded micro-batching.

    Args:
        options: Flush/queue knobs; ``None`` inherits the service config's
            ``async_options``.  The size-flush bound is always the service
            config's ``max_batch_size``.
        service: The synchronous service to flush into.  When ``None``, one
            is built from ``service_config`` (or its defaults) and owned —
            i.e. closed — by this front end; a caller-provided service is
            left open on :meth:`close` so it can be shared.
        service_config: Configuration of the owned service (mutually
            exclusive with ``service``).
    """

    def __init__(
        self,
        options: Optional[AsyncOptions] = None,
        service: Optional[PredictionService] = None,
        service_config: Optional[ServiceConfig] = None,
    ) -> None:
        if service is not None and service_config is not None:
            raise ValueError("pass either a service or a service_config, not both")
        self._owns_service = service is None
        self.service = service or PredictionService(service_config)
        if options is None:
            options = self.service.config.async_options
        #: The async layer's own knobs.
        self.options = options
        self.queue = RequestQueue(
            max_blocks=options.max_queue_blocks,
            policy=options.backpressure,
        )
        self.controller: FlushController = create_flush_controller(
            options.flush_policy,
            options.max_latency_ms / 1e3,
            options.min_latency_ms / 1e3,
            self.service.config.max_batch_size,
            options.controller_window_ms / 1e3,
        )
        self.stats = AsyncServiceStats()
        # Guards the producer-side counters: submit() runs from many client
        # threads, and `+=` on shared attributes is not atomic.
        self._stats_lock = threading.Lock()
        # Serializes start/close transitions against each other (close is
        # documented idempotent, which includes concurrent callers).
        self._lifecycle_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._autoscale_monitor: Optional[threading.Thread] = None
        self._hedge_monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        #: Autoscale attempts that raised (e.g. a worker spawn failing
        #: under resource pressure); the monitor retries on the next poll.
        self.autoscale_errors = 0
        # Concurrent flush dispatch: >1 hands flushes to this pool so a
        # straggling batch cannot head-of-line-block the batches (and
        # hedges) behind it.  The semaphore bounds in-flight flushes and
        # doubles as the dispatcher's drain barrier.
        if options.max_concurrent_flushes > 1:
            self._flush_pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
                max_workers=options.max_concurrent_flushes,
                thread_name_prefix="repro-serve-flush",
            )
            self._flush_slots: Optional[threading.Semaphore] = threading.Semaphore(
                options.max_concurrent_flushes
            )
        else:
            self._flush_pool = None
            self._flush_slots = None
        # Hedging: the monitor re-submits calls that outlive the deadline
        # derived from observed request latencies.
        self._hedge_controller = HedgeController(
            quantile=options.hedge_quantile,
            min_samples=options.hedge_min_samples,
            min_s=options.hedge_min_ms / 1e3,
            max_s=None if options.hedge_max_ms is None else options.hedge_max_ms / 1e3,
        )
        self._hedge_lock = threading.Lock()
        self._hedge_calls: set = set()
        # Self-healing: the sanctioned retry loop around failed flush
        # submissions, the stale cache backing graceful degradation, and
        # the event-scoped fault injector (queue saturation), all optional.
        self._retry_policy = options.retry_policy
        self._retry_budget = (
            options.retry_policy.make_budget()
            if options.retry_policy is not None
            else None
        )
        self._stale_cache = (
            StalePredictionCache(options.stale_cache_size)
            if options.degraded_mode
            else None
        )
        fault_plan = getattr(self.service.config, "fault_plan", None)
        self._fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        self._closed = False

    @property
    def inference_dtype(self) -> str:
        """Compute dtype of the service this front end flushes into."""
        return self.service.inference_dtype

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncPredictionService":
        """Warm-starts the underlying service and the dispatcher thread.

        The service is warmed in the caller's thread (worker processes must
        not be forked from the dispatcher), then the dispatcher starts
        draining.  Requests submitted before ``start`` simply wait in the
        queue.  When the service has elastic worker bounds, an autoscale
        monitor thread starts too.  Idempotent while running.
        """
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._dispatcher is None:
                self.service.warm_start()
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name="repro-serve-dispatcher",
                    daemon=True,
                )
                self._dispatcher.start()
            if (
                self._autoscale_monitor is None
                and self.service.autoscaling_enabled
            ):
                self._autoscale_monitor = threading.Thread(
                    target=self._autoscale_loop,
                    name="repro-serve-autoscaler",
                    daemon=True,
                )
                self._autoscale_monitor.start()
            if self._hedge_monitor is None and self.options.hedge_enabled:
                self._hedge_monitor = threading.Thread(
                    target=self._hedge_loop,
                    name="repro-serve-hedger",
                    daemon=True,
                )
                self._hedge_monitor.start()
        return self

    def close(self) -> None:
        """Drains the queue, resolves every pending future, stops (idempotent).

        Already-admitted requests are still flushed and answered; new
        submissions fail immediately.  The underlying service is closed only
        if this front end built it.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            dispatcher, self._dispatcher = self._dispatcher, None
            monitor, self._autoscale_monitor = self._autoscale_monitor, None
            hedger, self._hedge_monitor = self._hedge_monitor, None
        self._monitor_stop.set()
        if monitor is not None:
            monitor.join()
        if hedger is not None:
            hedger.join()
        self.queue.close()
        if dispatcher is not None:
            dispatcher.join()
        else:
            # Never started: resolve whatever was queued ourselves.
            self._drain_queue(max_wait_s=0.0)
        # The dispatcher's drain barrier already waited for in-flight
        # flushes; shutting down afterwards just retires the idle threads.
        if self._flush_pool is not None:
            self._flush_pool.shutdown(wait=True)
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "AsyncPredictionService":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Producer API.
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: PredictionRequest,
        priority: int = Priority.NORMAL,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> "Future":
        """Enqueues one request; returns the future of its response.

        Args:
            request: The request to serve.
            priority: Scheduling class (:class:`~repro.serve.queue.Priority`
                or any int; lower drains first).
            timeout: With the ``block`` back-pressure policy, how long to
                wait for queue space before giving up (``None`` = forever).
            deadline_ms: Optional per-request latency budget measured from
                admission.  A request still queued when it runs out is
                dropped — before it can occupy a micro-batch — and its
                future resolves with
                :class:`~repro.serve.types.RequestExpiredError`.

        The returned future supports ``cancel()`` while the request is
        queued: a cancelled entry is discarded eagerly (its blocks free up
        queue capacity immediately) and never reaches a worker.  With
        ``hedge_enabled`` the future is a wrapper racing the primary queue
        entry against a possible hedge duplicate — first result wins,
        cancelling it cancels every attempt.

        Raises:
            QueueFullError: The queue is full (``reject`` policy) or the
                wait for space timed out (``block`` policy).
        """
        if self._fault_injector is not None and self._fault_injector.on_submit():
            with self._stats_lock:
                self.stats.injected_queue_rejections += 1
            raise QueueFullError("injected queue-saturation fault")
        deadline_s = None if deadline_ms is None else deadline_ms / 1e3
        entry = self.queue.put(
            request,
            priority=priority,
            timeout=timeout,
            deadline_s=deadline_s,
        )
        client: Future = entry.future
        if self.options.hedge_enabled:
            call = _HedgedCall(request, int(priority), deadline_s, entry.enqueued_at)
            with self._hedge_lock:
                self._hedge_calls.add(call)
            self._attach_attempt(call, entry, is_hedge=False)
            call.client.add_done_callback(
                functools.partial(self._on_client_done, call)
            )
            client = call.client
        self.controller.observe_arrival(request.num_blocks)
        with self._stats_lock:
            self.stats.requests += 1
            self.stats.blocks += request.num_blocks
        return client

    def predict_blocks(
        self,
        blocks: Sequence[Union[BasicBlock, str]],
        priority: int = Priority.INTERACTIVE,
        timeout: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Synchronous convenience: submit one request, wait for its arrays.

        Defaults to :attr:`~repro.serve.queue.Priority.INTERACTIVE` since
        the caller is, by construction, blocked on the answer.  ``timeout``
        bounds each of the two waits (admission under the ``block``
        back-pressure policy, then the result), so the call cannot hang
        un-bounded on a full queue.
        """
        future = self.submit(
            PredictionRequest.of(blocks), priority=priority, timeout=timeout
        )
        return future.result(timeout).predictions

    # ------------------------------------------------------------------ #
    # Hedging.
    # ------------------------------------------------------------------ #
    def _attach_attempt(
        self, call: _HedgedCall, entry: QueuedRequest, is_hedge: bool
    ) -> None:
        with call.lock:
            call.attempts.append(entry)
            call.outstanding += 1
        # Outside call.lock: an already-resolved entry runs the callback
        # synchronously, and the callback re-acquires call.lock.
        entry.future.add_done_callback(
            functools.partial(self._on_attempt_done, call, is_hedge)
        )

    def _on_client_done(self, call: _HedgedCall, future: Future) -> None:
        if not future.cancelled():
            return
        with call.lock:
            attempts = list(call.attempts)
        for entry in attempts:
            entry.future.cancel()

    def _on_attempt_done(
        self, call: _HedgedCall, is_hedge: bool, future: Future
    ) -> None:
        """Settles the race when an attempt resolves (first result wins).

        Runs as a done callback — synchronously inside whatever resolved
        the attempt (flush thread, queue expiry, a cancel) — so it must
        not block and must release ``call.lock`` before touching any
        future.
        """
        deliver = None  # ("result", response) | ("error", exc) | ("cancelled",)
        with call.lock:
            call.outstanding -= 1
            last = call.outstanding == 0
            if not call.finished:
                if future.cancelled():
                    if last:
                        call.finished = True
                        deliver = (
                            ("error", call.first_error)
                            if call.first_error is not None
                            else ("cancelled",)
                        )
                else:
                    error = future.exception()
                    if error is None:
                        call.finished = True
                        deliver = ("result", future.result())
                    else:
                        if call.first_error is None:
                            call.first_error = error
                        if last:
                            call.finished = True
                            deliver = ("error", call.first_error)
            losers = (
                [e for e in call.attempts if e.future is not future]
                if deliver is not None and deliver[0] == "result"
                else []
            )
        if deliver is not None:
            if deliver[0] == "result":
                # set_running_or_notify_cancel returns False iff the client
                # cancelled the wrapper — then the result is discarded (the
                # loser entries were already cancelled by _on_client_done).
                delivered = call.client.set_running_or_notify_cancel()
                if delivered:
                    call.client.set_result(deliver[1])
                losers_cancelled = sum(
                    1 for entry in losers if entry.future.cancel()
                )
                with self._stats_lock:
                    if delivered and is_hedge:
                        self.stats.hedges_won += 1
                    self.stats.hedges_cancelled += losers_cancelled
            elif deliver[0] == "error":
                if call.client.set_running_or_notify_cancel():
                    call.client.set_exception(deliver[1])
            else:
                # Every attempt was cancelled without a result or error —
                # normally because the client cancelled the wrapper first,
                # in which case this is a no-op.
                call.client.cancel()
        if last:
            with self._hedge_lock:
                self._hedge_calls.discard(call)

    def _hedge_loop(self) -> None:
        interval = self.options.hedge_poll_ms / 1e3
        while not self._monitor_stop.wait(interval):
            deadline_s = self._hedge_deadline_s()
            if math.isnan(deadline_s):
                continue  # under-sampled: hedging stays dormant
            now = time.monotonic()
            with self._hedge_lock:
                calls = list(self._hedge_calls)
            for call in calls:
                with call.lock:
                    due = (
                        not call.hedged
                        and not call.finished
                        and now - call.enqueued_at >= deadline_s
                    )
                    if due:
                        call.hedged = True
                if due:
                    self._issue_hedge(call)

    def _hedge_deadline_s(self) -> float:
        """The age (seconds) past which an in-flight call gets hedged."""
        with self._stats_lock:
            samples = list(self.stats.request_latencies)
        return self._hedge_controller.deadline_s(samples)

    def _issue_hedge(self, call: _HedgedCall) -> None:
        deadline_s = None
        if call.deadline_s is not None:
            deadline_s = call.deadline_s - (time.monotonic() - call.enqueued_at)
            if deadline_s <= 0:
                return  # the primary is about to expire; don't pile on
        try:
            # timeout=0: the hedge monitor must never park on a full queue
            # (a hedge that has to wait for capacity would arrive too late
            # to beat anything anyway).
            entry = self.queue.put(
                call.request,
                priority=call.priority,
                timeout=0.0,
                deadline_s=deadline_s,
            )
        except (QueueFullError, ServiceClosedError):
            with call.lock:
                call.hedged = False  # no capacity now; re-candidate next poll
            return
        self.controller.observe_arrival(call.request.num_blocks)
        with self._stats_lock:
            self.stats.hedges_issued += 1
        self._attach_attempt(call, entry, is_hedge=True)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def snapshot(self) -> ServiceSnapshot:
        """A point-in-time typed view of the serving stack.

        Returns a :class:`~repro.serve.stats.ServiceSnapshot` combining the
        queue section (admission state and drop counters — queue-side eager
        discards plus dispatcher-side flush-time drops), the flush section
        (counters, realized wait/deadline percentiles, the controller's
        current deadline), the underlying service's
        :class:`~repro.serve.stats.ModelStats`, and the flush controller's
        raw state dict.  Sections are read by attribute
        (``snapshot.flush.wait_p99_ms``); ``to_dict()`` is the JSON view.
        """
        # Controller and queue take their own locks; read them before
        # entering the stats critical section to keep it a leaf lock.
        # (peek, not deadline_s: observers must not overwrite the
        # controller's last dispatcher decision, which the per-flush
        # deadline history records.)
        current_deadline_ms = (
            self.controller.peek_deadline_s(self.queue.pending_blocks) * 1e3
        )
        # Counters are mutated by client threads (submit), the dispatcher
        # (_flush) and the autoscale monitor — read them under the same
        # lock so the snapshot is internally consistent.
        with self._stats_lock:
            stats = self.stats
            submitted_requests = stats.requests
            submitted_blocks = stats.blocks
            flush = FlushStats(
                policy=self.controller.policy,
                current_deadline_ms=current_deadline_ms,
                flushes=stats.flushes,
                size_flushes=stats.size_flushes,
                deadline_flushes=stats.deadline_flushes,
                close_flushes=stats.close_flushes,
                flushed_blocks=stats.flushed_blocks,
                mean_flush_blocks=stats.mean_flush_blocks,
                wait_p50_ms=stats.flush_wait_percentile(0.50) * 1e3,
                wait_p99_ms=stats.flush_wait_percentile(0.99) * 1e3,
                deadline_p50_ms=stats.flush_deadline_percentile(0.50),
                deadline_p99_ms=stats.flush_deadline_percentile(0.99),
                request_p50_ms=stats.request_latency_percentile(0.50) * 1e3,
                request_p99_ms=stats.request_latency_percentile(0.99) * 1e3,
                request_p999_ms=stats.request_latency_percentile(0.999) * 1e3,
                requests_completed=stats.requests_completed,
                request_errors=stats.request_errors,
            )
            dispatcher_cancelled = stats.cancelled_drops
            dispatcher_expired = stats.expired_drops
            autoscale_errors = self.autoscale_errors
            hedge_samples = list(stats.request_latencies)
            hedges_issued = stats.hedges_issued
            hedges_won = stats.hedges_won
            hedges_cancelled = stats.hedges_cancelled
            retries = stats.retries
            retries_exhausted = stats.retries_exhausted
            degraded_responses = stats.degraded_responses
            injected_queue_rejections = stats.injected_queue_rejections
        with self._hedge_lock:
            hedge_inflight = len(self._hedge_calls)
        hedge = HedgeStats(
            enabled=self.options.hedge_enabled,
            issued=hedges_issued,
            won=hedges_won,
            losers_cancelled=hedges_cancelled,
            deadline_ms=self._hedge_controller.deadline_s(hedge_samples) * 1e3,
            inflight=hedge_inflight,
        )
        queue = QueueStats(
            depth_blocks=self.queue.pending_blocks,
            depth_requests=len(self.queue),
            max_blocks=self.queue.max_blocks,
            backpressure=self.queue.policy,
            submitted_requests=submitted_requests,
            submitted_blocks=submitted_blocks,
            rejected=self.queue.rejected,
            cancelled_drops=self.queue.cancelled + dispatcher_cancelled,
            expired_drops=self.queue.expired + dispatcher_expired,
        )
        resilience = ResilienceStats(
            retries=retries,
            retries_exhausted=retries_exhausted,
            retry_budget_denied=(
                self._retry_budget.denied if self._retry_budget is not None else 0
            ),
            degraded_responses=degraded_responses,
            stale_cache_entries=(
                len(self._stale_cache) if self._stale_cache is not None else 0
            ),
            injected_queue_rejections=injected_queue_rejections,
        )
        return ServiceSnapshot(
            queue=queue,
            flush=flush,
            model=self.service.snapshot(),
            hedge=hedge,
            controller=self.controller.state(),
            autoscale_errors=autoscale_errors,
            resilience=resilience,
        )

    # ------------------------------------------------------------------ #
    # Dispatcher.
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        # The controller runs inside the queue's flush-wait loop (under the
        # queue lock), which is why it receives the pending-block count as
        # an argument instead of reading the queue itself.
        self._drain_queue(self.controller.deadline_s)

    def _autoscale_loop(self) -> None:
        interval = self.options.autoscale_poll_ms / 1e3
        # The wait budget the realized-latency signals are judged against:
        # twice the flush-deadline ceiling.  Waits below it are the
        # batching policy working as configured; sustained p99 beyond it
        # means the pool drains slower than the deadline assumes.
        wait_budget_s = 2.0 * self.options.max_latency_ms / 1e3
        flushes_seen = 0
        while not self._monitor_stop.wait(interval):
            with self._stats_lock:
                # Only the waits of flushes completed since the previous
                # poll: a percentile over any fixed-size window would keep
                # reporting a long-gone burst forever once traffic stops,
                # pinning the pool at its burst size.  No new flushes ->
                # NaN -> the autoscaler sees no wait signal and the idle
                # shrink path works exactly as before.
                new_flushes = min(
                    self.stats.flushes - flushes_seen, len(self.stats.flush_waits)
                )
                flushes_seen = self.stats.flushes
                fresh_waits = (
                    list(self.stats.flush_waits)[-new_flushes:]
                    if new_flushes > 0
                    else []
                )
                wait_p99_s = latency_percentile(fresh_waits, 0.99)
                # Service time per flush barely drifts, so staleness is
                # harmless here (and drain pressure already vanishes with
                # an empty queue: it scales with pending_blocks).
                batch_latency_s = latency_percentile(
                    list(self.stats.flush_service_s)[-64:], 0.50
                )
            try:
                self.service.maybe_autoscale(
                    self.queue.pending_blocks,
                    flush_wait_p99_s=wait_p99_s,
                    batch_latency_s=batch_latency_s,
                    wait_budget_s=wait_budget_s,
                )
            except RuntimeError:
                return  # the service closed under us; nothing left to scale
            except Exception:
                # A transient failure (e.g. OSError spawning a replica under
                # fd/memory pressure) must not kill the monitor and silently
                # disable elasticity for the rest of the service's life:
                # count it and retry on the next poll.
                with self._stats_lock:
                    self.autoscale_errors += 1

    def _drain_queue(self, max_wait_s) -> None:
        """Flushes batches until the queue reports closed-and-empty.

        ``max_wait_s`` is a float or a ``pending_blocks -> seconds``
        callable, passed straight through to ``RequestQueue.take_batch``.
        With ``max_concurrent_flushes > 1`` each flush is handed to the
        flush pool (bounded by the slot semaphore) so the next batch can
        dispatch while a straggler is still in the service.
        """
        pool, slots = self._flush_pool, self._flush_slots
        try:
            while True:
                entries, reason = self.queue.take_batch(
                    self.service.config.max_batch_size, max_wait_s
                )
                if not entries:
                    return  # closed and fully drained
                if pool is None:
                    self._flush(entries, reason)
                else:
                    slots.acquire()
                    pool.submit(self._flush_and_release, entries, reason)
        finally:
            if slots is not None:
                # Drain barrier: owning every slot proves no flush is in
                # flight, so close() can resolve "drained" truthfully.
                for _ in range(self.options.max_concurrent_flushes):
                    slots.acquire()
                for _ in range(self.options.max_concurrent_flushes):
                    slots.release()

    def _flush_and_release(self, entries, reason: str) -> None:
        try:
            self._flush(entries, reason)
        finally:
            self._flush_slots.release()

    def _flush(self, entries, reason: str) -> None:
        now = time.monotonic()
        # Drop dead entries *before* coalescing, so abandoned or expired
        # requests never consume worker time.  Cancelled futures must never
        # see set_result/set_exception (InvalidStateError would kill the
        # dispatcher thread and strand every later request) — a False
        # set_running_or_notify_cancel() return means the client cancelled
        # while queued.
        kept = []
        expired_drops = 0
        cancelled_drops = 0
        for entry in entries:
            if entry.deadline_at is not None and now >= entry.deadline_at:
                if entry.future.set_running_or_notify_cancel():
                    entry.future.set_exception(
                        RequestExpiredError(
                            f"request {entry.request.request_id!r} expired "
                            f"after waiting {now - entry.enqueued_at:.3f}s"
                        )
                    )
                    expired_drops += 1
                else:
                    cancelled_drops += 1
            elif entry.future.set_running_or_notify_cancel():
                kept.append(entry)
            else:
                cancelled_drops += 1
        entries = kept
        if not entries:
            with self._stats_lock:
                self.stats.expired_drops += expired_drops
                self.stats.cancelled_drops += cancelled_drops
            return
        # Controller and queue take their own locks; read them before
        # entering the stats critical section to keep it a leaf lock.
        deadline_ms = float(self.controller.state()["deadline_ms"])
        queue_depth = self.queue.pending_blocks
        with self._stats_lock:
            self.stats.expired_drops += expired_drops
            self.stats.cancelled_drops += cancelled_drops
            self.stats.flushes += 1
            self.stats.flushed_blocks += sum(e.request.num_blocks for e in entries)
            self.stats.flush_waits.append(now - min(e.enqueued_at for e in entries))
            self.stats.flush_deadlines_ms.append(deadline_ms)
            self.stats.queue_depths.append(queue_depth)
            if reason == "size":
                self.stats.size_flushes += 1
            elif reason == "deadline":
                self.stats.deadline_flushes += 1
            else:
                self.stats.close_flushes += 1
        service_started = time.monotonic()
        try:
            responses = self._submit_with_retries(entries)
        except Exception as error:
            served, failed = self._degraded_responses(entries)
            done_at = time.monotonic()
            with self._stats_lock:
                self.stats.degraded_responses += len(served)
                self.stats.requests_completed += len(served)
                for entry, _ in served:
                    self.stats.request_latencies.append(done_at - entry.enqueued_at)
                self.stats.request_errors += len(failed)
            for entry, response in served:
                entry.future.set_result(response)
            for entry in failed:
                entry.future.set_exception(error)
            return
        service_s = time.monotonic() - service_started
        if self._stale_cache is not None:
            for entry, response in zip(entries, responses):
                self._stale_cache.record(
                    entry.request.block_texts, response.predictions
                )
        # Record latencies *before* resolving the futures: a client (or the
        # hedge monitor) reacting to a result must never observe stats that
        # don't include it yet.
        done_at = time.monotonic()
        with self._stats_lock:
            self.stats.flush_service_s.append(service_s)
            for entry in entries:
                self.stats.request_latencies.append(done_at - entry.enqueued_at)
            self.stats.requests_completed += len(entries)
        for entry, response in zip(entries, responses):
            entry.future.set_result(response)

    # ------------------------------------------------------------------ #
    # Self-healing.
    # ------------------------------------------------------------------ #
    @staticmethod
    def _retryable(error: BaseException) -> bool:
        """Transient failures retry; client errors and closure never do.

        Worker crashes, hang timeouts and fd pressure all surface as
        ``RuntimeError``/``OSError``/``TimeoutError`` from the sync layer.
        ``ServiceClosedError`` subclasses ``RuntimeError`` but retrying a
        closed service can only fail again, so it is excluded explicitly.
        """
        if isinstance(error, ServiceClosedError):
            return False
        return isinstance(error, (RuntimeError, OSError, TimeoutError))

    def _submit_with_retries(self, entries) -> list:
        requests = [entry.request for entry in entries]
        if self._retry_policy is None:
            return self.service.submit(requests)

        def on_retry(attempt: int, delay_s: float, error: BaseException) -> None:
            with self._stats_lock:
                self.stats.retries += 1

        try:
            return run_with_retries(
                lambda: self.service.submit(requests),
                self._retry_policy,
                budget=self._retry_budget,
                retryable=self._retryable,
                on_retry=on_retry,
                token=entries[0].request.request_id,
            )
        except Exception:
            with self._stats_lock:
                self.stats.retries_exhausted += 1
            raise

    def _degraded_responses(self, entries) -> tuple:
        """Splits a failed batch into stale-servable and truly failed entries.

        Returns ``(served, failed)`` where ``served`` pairs each entry with
        a ``degraded=True`` response built from the stale prediction cache.
        Entries already past their deadline are never served stale — the
        client stopped waiting for an answer, fresh or not.
        """
        if self._stale_cache is None:
            return [], list(entries)
        now = time.monotonic()
        served, failed = [], []
        for entry in entries:
            if entry.deadline_at is not None and now >= entry.deadline_at:
                failed.append(entry)
                continue
            request = entry.request
            payload = self._stale_cache.lookup(request.block_texts, request.tasks)
            if payload is None:
                failed.append(entry)
                continue
            served.append(
                (
                    entry,
                    PredictionResponse(
                        request_id=request.request_id,
                        predictions=payload,
                        num_blocks=request.num_blocks,
                        seconds=0.0,
                        degraded=True,
                    ),
                )
            )
        return served, failed
