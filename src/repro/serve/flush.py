"""Flush-deadline control policies for the async dispatcher.

The async front end flushes a micro-batch when ``max_batch_size`` blocks
are pending OR the oldest request has waited out a deadline.  A *static*
deadline is the wrong constant at both ends of the load curve:

* **idle** — arrivals are sparse, so nobody else is coming: holding a lone
  request for the full ``max_latency_ms`` buys no extra batching, it is
  pure added latency;
* **saturated** — the size trigger fires long before any deadline, and
  when the offered load hovers just below the batch-fill rate a *longer*
  deadline packs visibly denser batches.

:class:`AdaptiveFlushController` therefore scales the deadline with the
observed load: it tracks block arrivals over a short sliding window,
combines the arrival rate with the current queue depth into a load
estimate in ``[0, 1]`` (1.0 = a batch is expected to fill within
``max_latency_ms`` on its own), and interpolates the deadline between
``min_latency_ms`` (idle) and ``max_latency_ms`` (saturated).
:class:`StaticFlushController` keeps the pre-adaptive behaviour — always
``max_latency_ms`` — selectable and benchmarkable via
``AsyncOptions(flush_policy="static")``.

Controllers are thread-safe: producers record arrivals from many client
threads while the dispatcher reads the deadline.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

__all__ = [
    "FLUSH_POLICIES",
    "FlushController",
    "StaticFlushController",
    "AdaptiveFlushController",
    "HedgeController",
    "create_flush_controller",
    "default_flush_policy",
]

#: Flush-deadline policies accepted by ``AsyncOptions``.
FLUSH_POLICIES = ("static", "adaptive")


def default_flush_policy() -> str:
    """The process-wide default flush-deadline policy of the async service.

    ``static`` unless the ``REPRO_FLUSH_POLICY`` environment variable says
    otherwise — the same env-default pattern as
    :func:`repro.models.config.default_inference_dtype`, so a CI leg (or
    an operator) can flip the whole serving stack to adaptive flushing
    without touching any call site.  Validated by ``AsyncOptions``
    against :data:`FLUSH_POLICIES`.
    """
    return os.environ.get("REPRO_FLUSH_POLICY", "static")


class FlushController:
    """Interface of a flush-deadline policy.

    ``deadline_s`` is called by the dispatcher (from inside the queue's
    flush-wait loop, so it must not touch the queue) and ``observe_arrival``
    by every producer thread on submit.
    """

    #: Policy name, matching the ``AsyncOptions.flush_policy`` value.
    policy: str = "static"

    def observe_arrival(self, num_blocks: int, now: Optional[float] = None) -> None:
        """Records ``num_blocks`` arriving at ``now`` (``time.monotonic()``)."""

    def deadline_s(self, pending_blocks: int = 0, now: Optional[float] = None) -> float:
        """The flush deadline (seconds) to apply right now.

        May record the decision as the controller's "last" deadline (what
        :meth:`state` and the per-flush stats report), so only the
        dispatcher should call it; observers use :meth:`peek_deadline_s`.
        """
        raise NotImplementedError

    def peek_deadline_s(
        self, pending_blocks: int = 0, now: Optional[float] = None
    ) -> float:
        """Like :meth:`deadline_s` but side-effect-free, for observers."""
        return self.deadline_s(pending_blocks, now)

    def state(self) -> Dict[str, object]:
        """Introspection snapshot for service stats and benchmarks."""
        raise NotImplementedError


class StaticFlushController(FlushController):
    """The original fixed-deadline behaviour: always ``max_latency_s``."""

    policy = "static"

    def __init__(self, max_latency_s: float) -> None:
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        self.max_latency_s = float(max_latency_s)

    def deadline_s(self, pending_blocks: int = 0, now: Optional[float] = None) -> float:
        return self.max_latency_s

    def state(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "deadline_ms": self.max_latency_s * 1e3,
            "load": float("nan"),
            "arrival_rate_blocks_per_s": float("nan"),
        }


class AdaptiveFlushController(FlushController):
    """Load-adaptive deadline between a floor and ``max_latency_s``.

    The load estimate has two terms, either of which can saturate it:

    * ``arrival_rate / fill_rate`` — how fast blocks are arriving relative
      to the rate at which a ``max_batch_size`` batch would fill within
      ``max_latency_s`` (the rate at which waiting longer stops paying);
    * ``pending_blocks / max_batch_size`` — how full the queue already is
      (a deep queue means size flushes are imminent regardless of rate).

    Args:
        max_latency_s: Deadline ceiling (the configured ``max_latency_ms``).
        min_latency_s: Deadline floor applied when the queue is idle.
        max_batch_size: The dispatcher's size-flush threshold, in blocks.
        window_s: Length of the sliding arrival window.
    """

    policy = "adaptive"

    def __init__(
        self,
        max_latency_s: float,
        min_latency_s: float,
        max_batch_size: int,
        window_s: float = 0.25,
    ) -> None:
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be >= 0")
        if not 0 <= min_latency_s <= max_latency_s:
            raise ValueError("need 0 <= min_latency_s <= max_latency_s")
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.max_latency_s = float(max_latency_s)
        self.min_latency_s = float(min_latency_s)
        self.max_batch_size = int(max_batch_size)
        self.window_s = float(window_s)
        self._lock = threading.Lock()
        self._arrivals: Deque[Tuple[float, int]] = deque()
        self._window_blocks = 0
        #: The most recently computed deadline (what the stats report).
        self.last_deadline_s = max_latency_s
        self.last_load = 0.0

    def observe_arrival(self, num_blocks: int, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._arrivals.append((now, num_blocks))
            self._window_blocks += num_blocks
            self._evict_locked(now)

    def _evict_locked(self, now: float) -> None:
        horizon = now - self.window_s
        while self._arrivals and self._arrivals[0][0] < horizon:
            _, blocks = self._arrivals.popleft()
            self._window_blocks -= blocks

    def load(self, pending_blocks: int = 0, now: Optional[float] = None) -> float:
        """The current load estimate, clamped to ``[0, 1]``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._evict_locked(now)
            arrival_rate = self._window_blocks / self.window_s
        if self.max_latency_s <= 0:
            return 1.0
        # The arrival rate at which a batch fills exactly at the deadline.
        fill_rate = self.max_batch_size / self.max_latency_s
        load = arrival_rate / fill_rate + pending_blocks / self.max_batch_size
        return min(1.0, load)

    def peek_deadline_s(
        self, pending_blocks: int = 0, now: Optional[float] = None
    ) -> float:
        load = self.load(pending_blocks, now)
        return self.min_latency_s + load * (self.max_latency_s - self.min_latency_s)

    def deadline_s(self, pending_blocks: int = 0, now: Optional[float] = None) -> float:
        load = self.load(pending_blocks, now)
        deadline = self.min_latency_s + load * (self.max_latency_s - self.min_latency_s)
        with self._lock:
            self.last_deadline_s = deadline
            self.last_load = load
        return deadline

    def state(self) -> Dict[str, object]:
        with self._lock:
            window_blocks = self._window_blocks
            deadline = self.last_deadline_s
            load = self.last_load
        return {
            "policy": self.policy,
            "deadline_ms": deadline * 1e3,
            "load": load,
            "arrival_rate_blocks_per_s": window_blocks / self.window_s,
            "window_blocks": float(window_blocks),
            "min_deadline_ms": self.min_latency_s * 1e3,
            "max_deadline_ms": self.max_latency_s * 1e3,
        }


class HedgeController:
    """Turns observed request latencies into a hedge deadline.

    The async front end re-submits a request once it has outlived this
    deadline (see ``AsyncOptions.hedge_*``).  The deadline is the
    ``quantile`` of the request-latency reservoir, clamped to
    ``[min_s, max_s]`` — the floor prevents hedge storms when the service
    is microsecond-fast, the cap keeps hedges firing within the
    operator's latency budget even when stragglers inflate the observed
    quantile itself.  Until ``min_samples`` latencies exist the deadline
    is NaN and callers must not hedge: a deadline guessed from nothing
    would either never fire or fire for everything.

    Stateless between calls, so it needs no lock; the caller passes a
    stable copy of the sample window.
    """

    def __init__(
        self,
        quantile: float = 0.99,
        min_samples: int = 32,
        min_s: float = 1e-3,
        max_s: Optional[float] = None,
    ) -> None:
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if min_s < 0:
            raise ValueError("min_s must be >= 0")
        if max_s is not None and max_s < min_s:
            raise ValueError("need min_s <= max_s")
        self.quantile = float(quantile)
        self.min_samples = int(min_samples)
        self.min_s = float(min_s)
        self.max_s = None if max_s is None else float(max_s)

    def deadline_s(self, latency_samples_s) -> float:
        """The hedge deadline (seconds), NaN while under-sampled."""
        # Imported here, not at module top: stats imports nothing from
        # flush, so the one-way dependency stays acyclic either way, but
        # the lazy import keeps this module import-light for config.py.
        from repro.serve.stats import latency_percentile

        samples = list(latency_samples_s)
        if len(samples) < self.min_samples:
            return float("nan")
        deadline = latency_percentile(samples, self.quantile)
        deadline = max(deadline, self.min_s)
        if self.max_s is not None:
            deadline = min(deadline, self.max_s)
        return deadline


def create_flush_controller(
    policy: str,
    max_latency_s: float,
    min_latency_s: float,
    max_batch_size: int,
    window_s: float = 0.25,
) -> FlushController:
    """Builds the controller named by ``policy`` (see :data:`FLUSH_POLICIES`)."""
    if policy == "static":
        return StaticFlushController(max_latency_s)
    if policy == "adaptive":
        return AdaptiveFlushController(
            max_latency_s, min_latency_s, max_batch_size, window_s
        )
    raise ValueError(
        f"unknown flush policy {policy!r}; expected one of {FLUSH_POLICIES}"
    )
