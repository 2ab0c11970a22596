"""Bounded priority request queue with latency-deadline flushing.

This is the producer/consumer core of the async serving front end
(:class:`repro.serve.async_service.AsyncPredictionService`).  Producers
:meth:`~RequestQueue.put` requests and immediately get a
:class:`concurrent.futures.Future`; a single dispatcher thread calls
:meth:`~RequestQueue.take_batch`, which blocks until a flush is due and
returns the batch to predict.  The flush rule is the classic
latency/throughput trade-off knob:

* **size** — enough blocks are pending to fill ``max_batch_size``; flush
  now, the batch is as dense as it gets;
* **deadline** — the *oldest* pending request has waited ``max_wait_s``;
  flush whatever is there, a straggler must not wait forever for company;
* **close** — the queue is shutting down; flush the remainder so every
  accepted request still gets an answer.

Requests carry a :class:`Priority`: the flush drains strictly in priority
order (ties broken by arrival), so an interactive autotuner request jumps
ahead of queued bulk-eval traffic without any extra machinery.

Admission is bounded in *blocks*, not requests — a thousand one-block
requests and one thousand-block request cost the model the same.  When the
queue is full, the configured back-pressure policy decides: ``"block"``
makes ``put`` wait (optionally with a timeout) for the dispatcher to drain,
``"reject"`` raises :class:`QueueFullError` immediately so the client can
shed load itself.

Admitted requests can still leave the queue without being served:

* **cancellation** — a client calling ``entry.future.cancel()`` while the
  request is queued discards it *eagerly*: its blocks stop counting against
  the admission bound and the flush budget immediately, so an abandoned
  autotuner candidate never reaches a worker;
* **expiry** — a request admitted with a ``deadline_s`` budget that the
  dispatcher cannot meet resolves with :class:`RequestExpiredError` instead
  of occupying a micro-batch slot.

Both are counted (:attr:`RequestQueue.cancelled`,
:attr:`RequestQueue.expired`) so the serving stats can report drop rates.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, List, Optional, Tuple, Union

from repro.serve.types import (
    PredictionRequest,
    QueueFullError,
    RequestExpiredError,
    ServiceClosedError,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "Priority",
    "QueuedRequest",
    "RequestQueue",
]

#: Admission policies when the queue is at capacity.
BACKPRESSURE_POLICIES = ("block", "reject")


class Priority(IntEnum):
    """Scheduling class of a request; lower values are served first.

    The gap between the levels is deliberate: callers with finer needs can
    pass any int in between (e.g. ``Priority.BULK - 1`` for "bulk but ahead
    of the backfill job").
    """

    #: A caller is blocked on the answer (e.g. a compiler autotuner's inner
    #: loop); jumps ahead of any queued bulk traffic.
    INTERACTIVE = 0
    #: Default traffic.
    NORMAL = 10
    #: Throughput-oriented batch evaluation; yields to everything else.
    BULK = 20


@dataclass
class QueuedRequest:
    """One admitted request together with its delivery machinery.

    Attributes:
        request: The client's prediction request.
        priority: Scheduling class (lower drains first).
        sequence: Admission order, the tie-breaker within a priority.
        enqueued_at: ``time.monotonic()`` of admission; deadline flushing
            and the wait-latency stats are measured from here.
        deadline_at: Optional ``time.monotonic()`` instant after which the
            request is dropped with :class:`RequestExpiredError` instead of
            being dispatched (``None`` = never expires).
        future: Resolves to the :class:`~repro.serve.batching.PredictionResponse`
            (or the submission's exception).
    """

    request: PredictionRequest
    priority: int
    sequence: int
    enqueued_at: float
    deadline_at: Optional[float] = None
    future: Future = field(default_factory=Future)


class RequestQueue:
    """Thread-safe bounded priority queue of prediction requests.

    Args:
        max_blocks: Admission bound in blocks (not requests).
        policy: ``"block"`` or ``"reject"`` (see module docstring).
    """

    def __init__(self, max_blocks: int = 4096, policy: str = "block") -> None:
        if max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown back-pressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self.max_blocks = int(max_blocks)
        self.policy = policy
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._work = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, QueuedRequest]] = []
        self._by_arrival: "OrderedDict[int, QueuedRequest]" = OrderedDict()
        self._sequence = itertools.count()
        self._pending_blocks = 0
        #: Live entries carrying a deadline; gates the expiry machinery so
        #: deadline-free traffic pays nothing for the feature.
        self._deadline_entries = 0
        #: Min-heap of ``(deadline_at, sequence)`` for O(log n) expiry —
        #: lazily deleted like ``_heap`` (entries that left the queue some
        #: other way are skipped when they surface).
        self._deadline_heap: List[Tuple[float, int]] = []
        self._closed = False
        #: Requests turned away (reject policy or block-policy timeout).
        self.rejected = 0
        #: Requests discarded because their future was cancelled in-queue.
        self.cancelled = 0
        #: Requests dropped (``RequestExpiredError``) past their deadline.
        self.expired = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_arrival)

    @property
    def pending_blocks(self) -> int:
        """Blocks currently admitted and not yet drained."""
        with self._lock:
            return self._pending_blocks

    # ------------------------------------------------------------------ #
    # Producer side.
    # ------------------------------------------------------------------ #
    def put(
        self,
        request: PredictionRequest,
        priority: int = Priority.NORMAL,
        timeout: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ) -> QueuedRequest:
        """Admits ``request``, returning its queue entry (with the future).

        Args:
            request: The request to admit.
            priority: Scheduling class (lower drains first).
            timeout: With the ``block`` policy, how long to wait for space.
            deadline_s: Optional per-request latency budget, measured from
                admission; once it passes, the request is dropped with
                :class:`RequestExpiredError` instead of being dispatched.

        Raises:
            QueueFullError: Capacity exceeded and the policy is ``reject``,
                the ``block`` wait timed out, or the request alone exceeds
                ``max_blocks`` (it could never be admitted).
            ServiceClosedError: The queue is closed (a ``RuntimeError``
                subclass, so historical handlers still catch it).
        """
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be >= 0")
        blocks = request.num_blocks
        with self._lock:
            if self._closed:
                raise ServiceClosedError("queue is closed")
            if blocks > self.max_blocks:
                self.rejected += 1
                raise QueueFullError(
                    f"request {request.request_id!r} has {blocks} blocks, more "
                    f"than the queue's total capacity of {self.max_blocks}"
                )
            if self._pending_blocks + blocks > self.max_blocks:
                if self.policy == "reject":
                    self.rejected += 1
                    raise QueueFullError(
                        f"queue full ({self._pending_blocks}/{self.max_blocks} "
                        f"blocks); request {request.request_id!r} rejected"
                    )
                deadline = None if timeout is None else time.monotonic() + timeout
                while self._pending_blocks + blocks > self.max_blocks:
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        self.rejected += 1
                        raise QueueFullError(
                            f"timed out after {timeout:.3f}s waiting for queue "
                            f"space for request {request.request_id!r}"
                        )
                    self._not_full.wait(remaining)
                    if self._closed:
                        raise ServiceClosedError(
                            "queue closed while waiting for space"
                        )
            sequence = next(self._sequence)
            enqueued_at = time.monotonic()
            entry = QueuedRequest(
                request=request,
                priority=int(priority),
                sequence=sequence,
                enqueued_at=enqueued_at,
                deadline_at=(
                    None if deadline_s is None else enqueued_at + deadline_s
                ),
            )
            heapq.heappush(self._heap, (entry.priority, sequence, entry))
            self._by_arrival[sequence] = entry
            self._pending_blocks += blocks
            if entry.deadline_at is not None:
                self._deadline_entries += 1
                heapq.heappush(self._deadline_heap, (entry.deadline_at, sequence))
            self._work.notify_all()
        # Outside the lock: a cancel() from another thread runs this callback
        # synchronously, and the discard it triggers takes the lock itself.
        entry.future.add_done_callback(
            lambda future, entry=entry: self._on_future_done(entry)
        )
        return entry

    def _on_future_done(self, entry: QueuedRequest) -> None:
        """Eagerly discards an entry whose future was cancelled in-queue.

        Done callbacks fire for normal resolution too; only a *cancelled*
        future whose entry is still queued needs work — its blocks stop
        counting against admission and the flush budget immediately, and
        blocked producers get the freed space.
        """
        if not entry.future.cancelled():
            return
        with self._lock:
            if entry.sequence not in self._by_arrival:
                return  # already drained (or expired); accounted elsewhere
            self._remove_entry_locked(entry)
            self.cancelled += 1
            self._not_full.notify_all()
            self._work.notify_all()

    def _remove_entry_locked(self, entry: QueuedRequest) -> None:
        del self._by_arrival[entry.sequence]
        self._pending_blocks -= entry.request.num_blocks
        if entry.deadline_at is not None:
            self._deadline_entries -= 1
        self._compact_heap_locked()

    def _compact_heap_locked(self) -> None:
        """Rebuilds the heaps once lazy deletions dominate them.

        Entries removed out of band (cancelled, expired, or drained as the
        arrival-oldest) stay in the heaps as stale tuples until a pop
        happens to pass them — but the priority heap only drains when live
        entries exist, so an idle queue fed speculative submit-then-cancel
        traffic would otherwise pin every cancelled request's payload
        forever.  Rebuilding when stale tuples outnumber live entries
        keeps both heaps O(live) at amortized O(1) per removal.
        """
        stale = len(self._heap) - len(self._by_arrival)
        if stale > 16 and stale > len(self._by_arrival):
            self._heap = [
                (entry.priority, entry.sequence, entry)
                for entry in self._by_arrival.values()
            ]
            heapq.heapify(self._heap)
        stale_deadlines = len(self._deadline_heap) - self._deadline_entries
        if stale_deadlines > 16 and stale_deadlines > self._deadline_entries:
            self._deadline_heap = [
                (entry.deadline_at, entry.sequence)
                for entry in self._by_arrival.values()
                if entry.deadline_at is not None
            ]
            heapq.heapify(self._deadline_heap)

    # ------------------------------------------------------------------ #
    # Consumer (dispatcher) side.
    # ------------------------------------------------------------------ #
    def take_batch(
        self,
        max_blocks: int,
        max_wait_s: Union[float, Callable[[int], float]],
    ) -> Tuple[List[QueuedRequest], str]:
        """Blocks until a flush is due, then drains and returns one batch.

        ``max_wait_s`` is either a fixed flush deadline in seconds or a
        callable ``pending_blocks -> seconds`` that is re-evaluated on
        every wake-up (how the adaptive flush controller drives the
        dispatcher).  The callable runs under the queue lock, so it must
        not call back into the queue.

        Returns ``(entries, reason)`` with ``reason`` one of ``"size"``,
        ``"deadline"`` or ``"close"``.  Entries come out in priority order
        (ties by arrival) and cover at most ``max_blocks`` blocks, with two
        deliberate exceptions: the arrival-oldest entry is always included
        (sustained high-priority traffic must not starve it past its
        deadline), and an over-sized request rides along uncut (the
        prediction service splits it into micro-batches anyway).  An empty
        list (reason ``"close"``) means the queue was closed and fully
        drained: the dispatcher should exit.

        Requests whose per-request deadline has passed are dropped here —
        before they can occupy batch capacity — and their futures resolve
        with :class:`RequestExpiredError`.
        """
        if max_blocks < 1:
            raise ValueError("max_blocks must be positive")
        if not callable(max_wait_s) and max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        while True:
            expired: List[QueuedRequest] = []
            batch: Optional[List[QueuedRequest]] = None
            reason = ""
            with self._lock:
                while True:
                    now = time.monotonic()
                    expired.extend(self._pop_expired_locked(now))
                    if not self._by_arrival:
                        if self._closed:
                            batch, reason = [], "close"
                            break
                        if expired:
                            break  # resolve them before blocking again
                        self._work.wait()
                        continue
                    wait_s = (
                        max(max_wait_s(self._pending_blocks), 0.0)
                        if callable(max_wait_s)
                        else max_wait_s
                    )
                    oldest = next(iter(self._by_arrival.values()))
                    age = now - oldest.enqueued_at
                    if self._pending_blocks >= max_blocks:
                        reason = "size"
                    elif self._closed:
                        reason = "close"
                    elif age >= wait_s:
                        reason = "deadline"
                    else:
                        if expired:
                            break  # resolve outside the lock, then re-enter
                        timeout = wait_s - age
                        next_expiry = self._next_expiry_locked()
                        if next_expiry is not None:
                            timeout = min(timeout, max(next_expiry - now, 0.0))
                        self._work.wait(timeout=timeout)
                        continue
                    batch = self._drain_locked(max_blocks)
                    break
            # Futures are resolved outside the lock: done callbacks run in
            # the resolving thread and may call back into the queue.
            for entry in expired:
                self._resolve_expired(entry)
            if batch is not None:
                return batch, reason

    def _pop_expired_locked(self, now: float) -> List[QueuedRequest]:
        """Removes (without resolving) every entry past its deadline.

        O(expired log n) via the deadline heap — a deadline-carrying
        backlog must not cost a full queue scan per dispatcher wake-up.
        """
        if not self._deadline_entries:
            return []
        expired: List[QueuedRequest] = []
        while self._deadline_heap:
            deadline_at, sequence = self._deadline_heap[0]
            entry = self._by_arrival.get(sequence)
            if entry is None:
                heapq.heappop(self._deadline_heap)  # left some other way
                continue
            if deadline_at > now:
                break
            heapq.heappop(self._deadline_heap)
            self._remove_entry_locked(entry)
            expired.append(entry)
        if expired:
            self._not_full.notify_all()
        return expired

    def _next_expiry_locked(self) -> Optional[float]:
        """The soonest pending per-request deadline, if any."""
        while self._deadline_heap:
            deadline_at, sequence = self._deadline_heap[0]
            if sequence in self._by_arrival:
                return deadline_at
            heapq.heappop(self._deadline_heap)  # stale: left some other way
        return None

    def _resolve_expired(self, entry: QueuedRequest) -> None:
        # set_running first: if the client cancelled concurrently, the
        # future is already resolved and set_exception would raise
        # InvalidStateError.  A cancel that won the race is counted as a
        # cancellation, keeping every dropped entry counted exactly once.
        waited = time.monotonic() - entry.enqueued_at
        if entry.future.set_running_or_notify_cancel():
            entry.future.set_exception(
                RequestExpiredError(
                    f"request {entry.request.request_id!r} expired after "
                    f"waiting {waited:.3f}s (deadline "
                    f"{entry.deadline_at - entry.enqueued_at:.3f}s)"
                )
            )
            with self._lock:
                self.expired += 1
        else:
            with self._lock:
                self.cancelled += 1

    def _drain_locked(self, max_blocks: int) -> List[QueuedRequest]:
        # Anti-starvation: the arrival-oldest entry — whose age is what
        # drives the deadline trigger — is always part of the flush,
        # whatever its priority.  Otherwise sustained high-priority traffic
        # filling every batch would leave an old bulk request (and every
        # flush's "deadline" attribution) stuck behind it forever.
        oldest_entry = next(iter(self._by_arrival.values()))
        self._remove_entry_locked(oldest_entry)
        taken: List[QueuedRequest] = [oldest_entry]
        total = oldest_entry.request.num_blocks
        while self._heap:
            _, sequence, entry = self._heap[0]
            if sequence not in self._by_arrival:
                # Already gone: drained as the oldest, cancelled or expired.
                heapq.heappop(self._heap)
                continue
            if total + entry.request.num_blocks > max_blocks:
                break
            heapq.heappop(self._heap)
            self._remove_entry_locked(entry)
            taken.append(entry)
            total += entry.request.num_blocks
        # The batch itself still leads with the highest-priority entries.
        taken.sort(key=lambda entry: (entry.priority, entry.sequence))
        self._not_full.notify_all()
        return taken

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stops admissions; pending entries remain drainable (idempotent).

        Producers blocked in ``put`` are woken and fail; the dispatcher
        keeps receiving batches (reason ``"close"``) until the queue is
        empty, so nothing already admitted is dropped.
        """
        with self._lock:
            self._closed = True
            self._work.notify_all()
            self._not_full.notify_all()
