"""Layered serving configuration.

One service, one config: :class:`ServiceConfig` describes everything about
a served model variant — the model itself (family, tasks, dtype, seed,
checkpoint), the synchronous batching/sharding front end, and, nested as
:attr:`ServiceConfig.async_options`, the queueing/flushing knobs of the
async front end.  :class:`AsyncOptions` holds only what is *specific* to
the async layer; the batch-size bound it flushes at is the service's own
``max_batch_size``, the one batch-size knob of the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.models.config import default_inference_dtype
from repro.nn.tensor import SUPPORTED_DTYPES
from repro.serve.faults import FaultPlan, default_fault_plan
from repro.serve.flush import FLUSH_POLICIES, default_flush_policy
from repro.serve.queue import BACKPRESSURE_POLICIES
from repro.serve.resilience import BreakerPolicy, RespawnPolicy, RetryPolicy

__all__ = [
    "AsyncOptions",
    "ServiceConfig",
    "SHARDING_MODES",
]

#: Worker-sharding strategies accepted by :class:`ServiceConfig`.
SHARDING_MODES = ("hash", "round_robin")


@dataclass(frozen=True)
class AsyncOptions:
    """Queueing and flushing knobs of the async front end.

    Everything here is specific to the async layer; the size-flush bound is
    the owning :class:`ServiceConfig`'s ``max_batch_size`` (one batch-size
    knob for the whole stack).

    Attributes:
        max_latency_ms: Flush the oldest pending request after at most this
            long, however few blocks have accumulated (the latency bound of
            the latency/throughput trade-off, and the adaptive policy's
            deadline ceiling).
        flush_policy: ``"static"`` (always ``max_latency_ms``) or
            ``"adaptive"`` (deadline scales with observed load between
            ``min_latency_ms`` and ``max_latency_ms``).  The default
            honours the ``REPRO_FLUSH_POLICY`` environment variable.
        min_latency_ms: The adaptive policy's deadline floor (ignored by
            ``static``).
        controller_window_ms: Sliding arrival window of the adaptive
            controller's load estimate.
        autoscale_poll_ms: How often the elasticity monitor feeds queue
            depth into the service's autoscaler (only runs when the
            service has elastic worker bounds).
        max_queue_blocks: Admission bound of the queue, in blocks.
        backpressure: ``"block"`` (producers wait for space) or
            ``"reject"`` (producers get
            :class:`~repro.serve.types.QueueFullError`).
        max_concurrent_flushes: Micro-batch flushes allowed in flight at
            once.  1 (default) keeps the historical serial dispatcher; >1
            hands flushes to a small thread pool so one straggling batch
            cannot head-of-line-block every batch behind it (a
            prerequisite for hedging to beat a straggler at all).
        hedge_enabled: Re-submit requests that outlive the observed
            request-latency hedge deadline as a duplicate queue entry;
            first result wins, the loser is cancelled (or its result
            discarded).  Requires no cooperation from the service behind
            the queue.
        hedge_quantile: The request-latency quantile used as the hedge
            deadline (a request older than this is duplicated).
        hedge_min_ms: Deadline floor — never hedge faster than this, so
            cache-warm microsecond traffic cannot trigger hedge storms.
        hedge_max_ms: Optional deadline cap.  Under a straggler regime the
            observed p99 itself inflates toward the straggler latency;
            capping keeps hedges firing within the latency budget the
            operator actually cares about.  ``None`` = uncapped.
        hedge_min_samples: Observed request latencies required before any
            hedge fires (the deadline is NaN — and hedging dormant —
            until then).
        hedge_poll_ms: How often the hedge monitor scans in-flight
            requests for deadline overruns.
        retry_policy: Optional :class:`~repro.serve.resilience.RetryPolicy`
            applied to failed flush submissions.  ``None`` (default) keeps
            the historical fail-fast behaviour; a policy makes the
            dispatcher retry transient backend failures with capped,
            seeded exponential backoff, bounded by the policy's budget.
        degraded_mode: Serve stale prediction-cache entries (flagged
            ``degraded=True``) when the backend keeps failing after
            retries, instead of erroring the request.  Only requests whose
            every block (and task) has a last-known-good value degrade;
            the rest still fail.
        stale_cache_size: Entry bound of the last-known-good prediction
            cache backing ``degraded_mode`` (0 disables recording).
    """

    max_latency_ms: float = 10.0
    flush_policy: str = field(default_factory=default_flush_policy)
    min_latency_ms: float = 1.0
    controller_window_ms: float = 250.0
    autoscale_poll_ms: float = 50.0
    max_queue_blocks: int = 4096
    backpressure: str = "block"
    max_concurrent_flushes: int = 1
    hedge_enabled: bool = False
    hedge_quantile: float = 0.99
    hedge_min_ms: float = 1.0
    hedge_max_ms: Optional[float] = None
    hedge_min_samples: int = 32
    hedge_poll_ms: float = 2.0
    retry_policy: Optional[RetryPolicy] = None
    degraded_mode: bool = False
    stale_cache_size: int = 4096

    def __post_init__(self) -> None:
        if self.max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if self.flush_policy not in FLUSH_POLICIES:
            raise ValueError(
                f"unknown flush policy {self.flush_policy!r}; "
                f"expected one of {FLUSH_POLICIES}"
            )
        if self.min_latency_ms < 0:
            raise ValueError("min_latency_ms must be >= 0")
        # The floor only exists for the adaptive policy; a static config
        # with a sub-floor (or zero) deadline stays valid, as before.
        if (
            self.flush_policy == "adaptive"
            and self.min_latency_ms > self.max_latency_ms
        ):
            raise ValueError("need min_latency_ms <= max_latency_ms")
        if self.controller_window_ms <= 0:
            raise ValueError("controller_window_ms must be positive")
        if self.autoscale_poll_ms <= 0:
            raise ValueError("autoscale_poll_ms must be positive")
        if self.max_queue_blocks < 1:
            raise ValueError("max_queue_blocks must be positive")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown back-pressure policy {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        if self.max_concurrent_flushes < 1:
            raise ValueError("max_concurrent_flushes must be >= 1")
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise ValueError("hedge_quantile must be in (0, 1]")
        if self.hedge_min_ms < 0:
            raise ValueError("hedge_min_ms must be >= 0")
        if self.hedge_max_ms is not None and self.hedge_max_ms < self.hedge_min_ms:
            raise ValueError("need hedge_min_ms <= hedge_max_ms")
        if self.hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        if self.hedge_poll_ms <= 0:
            raise ValueError("hedge_poll_ms must be positive")
        if self.retry_policy is not None and not isinstance(self.retry_policy, RetryPolicy):
            raise ValueError("retry_policy must be a RetryPolicy (or None)")
        if self.stale_cache_size < 0:
            raise ValueError("stale_cache_size must be >= 0")


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a served model variant (sync and async layers).

    Attributes:
        model_name: ``"granite"``, ``"ithemal"`` or ``"ithemal+"``.
        tasks: Microarchitecture heads of the served model; ``None`` uses
            the model family's default heads.
        small_model: Serve the reduced CPU-friendly configuration.
        seed: Weight initialisation seed (all worker replicas share it, so
            they are numerically identical).
        checkpoint_path: Optional ``.npz`` checkpoint restored into every
            replica at warm-start (the trained weights to serve).
        max_batch_size: Upper bound on blocks per micro-batch — the one
            batch-size knob of the whole stack (the async front end's size
            flush uses it too).
        num_workers: Worker processes; 0 serves in-process.  In sharded
            mode this is the *initial* pool size; see ``min_workers`` /
            ``max_workers`` for elasticity.
        min_workers: Lower bound for elastic scaling (``None`` =
            ``num_workers``, i.e. never scale below the initial size).
        max_workers: Upper bound for elastic scaling (``None`` =
            ``num_workers``, i.e. a fixed pool).  Autoscaling is active
            exactly when the ``[min_workers, max_workers]`` interval allows
            a size other than ``num_workers``; manual
            ``PredictionService.scale_workers`` calls work regardless.
        scale_cooldown_s: Minimum seconds between autoscaler resizes.
        sharding: ``"hash"`` routes every block through a consistent hash
            ring over the live worker ids (stable cache affinity, and only
            ~1/N of the key space moves when the pool resizes);
            ``"round_robin"`` deals micro-batches out cyclically.
        hot_key_replicas: Replication factor for Zipf-head block keys
            under ``"hash"`` sharding.  1 (default) keeps the pure ring
            (every key has exactly one owner); >= 2 routes the hottest
            keys read-any across that many distinct ring successors, so a
            single scorching key no longer serializes on one worker.  Only
            meaningful with ``num_workers >= 2``.
        hot_key_count: How many keys may be classified hot at once.
        inference_dtype: Compute dtype of every replica's no-grad inference
            fast path (``"float64"`` default, ``"float32"`` for
            mixed-precision serving).  Propagated to all worker processes —
            a whole hash-sharded pool runs float32 behind the same queue —
            and into the replicas' prediction-cache keys, so float32 and
            float64 services never alias cached values.  The default
            honours the ``INFERENCE_DTYPE`` environment variable.
        async_options: Queueing/flushing knobs applied when an
            ``AsyncPredictionService`` (or the HTTP front end / model
            registry) is put in front of this service.
        worker_job_timeout_s: Per-job watchdog of the sharded pool: an
            in-flight worker job older than this is treated as a crash
            (the worker is killed and respawned, the job re-queued), so a
            hung replica cannot stall the batch forever.  ``None``
            (default) keeps the historical wait-forever behaviour.
        breaker_policy: Optional per-worker circuit-breaker tuning.
            ``None`` disables circuit breaking; a
            :class:`~repro.serve.resilience.BreakerPolicy` makes hash
            routing walk past workers whose breaker is open.
        respawn_policy: Respawn rate limits of the sharded pool (always
            on; the defaults are generous enough that a healthy pool
            never notices them).
        fault_plan: Optional deterministic chaos schedule
            (:class:`~repro.serve.faults.FaultPlan`) shipped to every
            worker replica and the async front end.  The default honours
            the ``REPRO_FAULT_PLAN`` environment variable and is normally
            None.
    """

    model_name: str = "granite"
    tasks: Optional[Tuple[str, ...]] = None
    small_model: bool = True
    seed: int = 0
    checkpoint_path: Optional[str] = None
    max_batch_size: int = 64
    num_workers: int = 0
    min_workers: Optional[int] = None
    max_workers: Optional[int] = None
    scale_cooldown_s: float = 2.0
    sharding: str = "hash"
    hot_key_replicas: int = 1
    hot_key_count: int = 8
    inference_dtype: str = field(default_factory=default_inference_dtype)
    async_options: AsyncOptions = field(default_factory=AsyncOptions)
    worker_job_timeout_s: Optional[float] = None
    breaker_policy: Optional[BreakerPolicy] = None
    respawn_policy: RespawnPolicy = field(default_factory=RespawnPolicy)
    fault_plan: Optional[FaultPlan] = field(default_factory=default_fault_plan)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.min_workers is not None or self.max_workers is not None:
            if self.num_workers < 1:
                raise ValueError(
                    "elastic worker bounds need a sharded service "
                    "(num_workers >= 1)"
                )
            low = self.num_workers if self.min_workers is None else self.min_workers
            high = self.num_workers if self.max_workers is None else self.max_workers
            if low < 1:
                raise ValueError("min_workers must be >= 1")
            if not low <= self.num_workers <= high:
                raise ValueError(
                    f"need min_workers <= num_workers <= max_workers, got "
                    f"{low} / {self.num_workers} / {high}"
                )
        if self.scale_cooldown_s < 0:
            raise ValueError("scale_cooldown_s must be >= 0")
        if self.sharding not in SHARDING_MODES:
            raise ValueError(
                f"unknown sharding mode {self.sharding!r}; "
                f"expected one of {SHARDING_MODES}"
            )
        if self.hot_key_replicas < 1:
            raise ValueError("hot_key_replicas must be >= 1")
        if self.hot_key_replicas > 1 and self.sharding != "hash":
            raise ValueError("hot_key_replicas > 1 requires sharding='hash'")
        if self.hot_key_count < 1:
            raise ValueError("hot_key_count must be >= 1")
        if self.inference_dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"inference_dtype must be one of {SUPPORTED_DTYPES}, "
                f"got {self.inference_dtype!r}"
            )
        if self.worker_job_timeout_s is not None and self.worker_job_timeout_s <= 0:
            raise ValueError("worker_job_timeout_s must be positive (or None)")
        if self.breaker_policy is not None and not isinstance(self.breaker_policy, BreakerPolicy):
            raise ValueError("breaker_policy must be a BreakerPolicy (or None)")
        if not isinstance(self.respawn_policy, RespawnPolicy):
            raise ValueError("respawn_policy must be a RespawnPolicy")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError("fault_plan must be a FaultPlan (or None)")
