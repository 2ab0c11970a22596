"""Batched prediction serving, from micro-batches to the network.

This subpackage is the production serving story of the reproduction, in
three layers:

* the synchronous :class:`PredictionService`: heterogeneous requests are
  coalesced into size-bounded micro-batches, optionally sharded across an
  *elastic* pool of warm worker processes via a consistent hash ring over
  each block's text (cache affinity, health checks, automatic respawn,
  runtime ``scale_workers`` with ~1/N cache movement per resize), and
  reassembled into per-request responses;
* the async :class:`AsyncPredictionService` front end: producers enqueue
  requests into a bounded priority queue with back-pressure and get
  futures (cancellable while queued, with optional per-request deadlines);
  a dispatcher thread flushes micro-batches on ``max_batch_size`` OR a
  latency deadline governed by a static or load-adaptive
  :mod:`~repro.serve.flush` policy, and an autoscale monitor feeds queue
  depth into the pool's elasticity bounds;
* the network layer: a :class:`ModelRegistry` hosts many named model
  variants (family × uarch × dtype) with lazy load/unload, checkpoint
  warm-start and per-tenant request accounting, and
  :class:`PredictionHttpServer` exposes it over HTTP/1.1 + JSON (stdlib
  asyncio only) with API-key tenancy via :class:`TenantDirectory`.

All of it builds on the no-grad inference fast path in
:mod:`repro.nn.tensor` and the batched ``ThroughputModel.predict`` API.

Configuration is layered the same way: :class:`ServiceConfig` describes
one served model variant end to end, carrying the queueing/flushing knobs
as a nested :class:`AsyncOptions`; the size-flush bound of the async
front end is the service's own ``max_batch_size``.

Error taxonomy
--------------

Everything the stack can refuse raises a :class:`ServeError` carrying a
machine-readable :class:`ReasonCode` (``queue_full``,
``deadline_expired``, ``service_closed``, ``unknown_model``,
``unauthenticated``, ``forbidden``, ``invalid_request``), so transports
map outcomes to their status space without string matching — the HTTP
front end's ``STATUS_BY_REASON`` table is exactly that mapping.  Each
error also inherits the builtin its pre-taxonomy ancestor did
(:class:`QueueFullError` is a ``RuntimeError``, etc.), so existing
``except`` clauses keep working.

Stats schema
------------

Introspection is typed (:mod:`repro.serve.stats`); JSON stats responses
serialize these exact dataclasses, so the wire schema cannot drift from
the in-process one:

* ``PredictionService.snapshot()`` -> :class:`ModelStats` — aggregate
  request/block/batch/latency counters of one service, its worker-pool
  respawn/resize counters, and (in-process mode) a :class:`CacheStats`
  section with encode/prediction/parse cache hit rates;
* ``PredictionService.worker_stats()`` -> list of :class:`WorkerStats` —
  per-replica identity (``worker_id``, ``spawn_count``), hash-ring share,
  dtype, job errors and a nested :class:`CacheStats`;
* ``AsyncPredictionService.snapshot()`` -> :class:`ServiceSnapshot` with
  sections ``queue`` (:class:`QueueStats`: depth, capacity, back-pressure
  policy, admission/drop counters), ``flush`` (:class:`FlushStats`:
  flush-trigger counters plus realized wait/deadline percentiles),
  ``model`` (the :class:`ModelStats` above), ``hedge``
  (:class:`HedgeStats`), ``resilience`` (:class:`ResilienceStats`), the
  flush controller's raw ``controller`` state dict, and
  ``autoscale_errors``;
* ``GET /v1/models/{model}/stats`` -> a serialized
  :class:`~repro.serve.registry.ModelReport`: ``info`` (a
  :class:`~repro.serve.registry.ModelInfo` with the per-tenant request
  counters), ``snapshot`` (:class:`ServiceSnapshot`, ``null`` while the
  variant is cold) and ``workers`` (list of :class:`WorkerStats`).

Stats are read by attribute (``snapshot.flush.wait_p99_ms``);
``to_dict()`` is the only dict view.  Latency percentiles are NaN —
never 0.0 — while their sample window is empty, and serialize to JSON
``null``.

Tail-latency harness
--------------------

:mod:`repro.serve.replay` closes the SLO loop: capture live traffic with
:class:`TraceRecorder` (the HTTP server's ``recorder`` hook) or
synthesize Zipf-skewed bursty traces with :func:`synthesize_trace`, drive
them through :class:`TraceReplayer` at recorded or time-scaled pacing,
and judge the realized p50/p99/p99.9 against an :class:`SloPolicy`.  The
tail-attacking machinery lives alongside: hedged requests
(``AsyncOptions.hedge_enabled`` — duplicate a request once it outlives
the observed latency quantile, first result wins, the loser is
cancelled), hot-key replication (``ServiceConfig.hot_key_replicas`` —
:class:`HotKeyRouter` spreads Zipf-head keys read-any across their ring
replica sets), and a latency-fed autoscaler.

Fault injection and self-healing
--------------------------------

:mod:`repro.serve.faults` is a deterministic chaos plane: a
:class:`FaultPlan` (seeded, JSON-serializable, loadable from the
``REPRO_FAULT_PLAN`` environment variable) selects faults — worker
crashes, hangs, slow or corrupted replies, queue saturation, checkpoint
write failures — by content hash, so every chaos run is bit-reproducible.
:mod:`repro.serve.resilience` is the machinery it validates:
:class:`RetryPolicy` (capped, seeded exponential backoff behind
``AsyncOptions.retry_policy``, bounded by a sliding-window retry budget),
a per-worker :class:`CircuitBreaker` (``ServiceConfig.breaker_policy``)
whose open workers the hash ring routes around, a respawn governor that
backs off crash-storming replicas, and a stale prediction cache serving
``degraded=True`` responses when the backend keeps failing
(``AsyncOptions.degraded_mode``).  ``GET /readyz`` exposes the aggregate:
``ready``/``degraded`` answer 200, ``unready`` answers 503 with
``Retry-After``.
"""

from repro.serve.async_service import (
    AsyncPredictionService,
    AsyncServiceStats,
)
from repro.serve.auth import ANONYMOUS, Tenant, TenantDirectory
from repro.serve.batching import (
    MicroBatch,
    coalesce_requests,
    coalesce_requests_by_ring,
    coalesce_requests_by_router,
    shard_key,
)
from repro.serve.config import (
    AsyncOptions,
    ServiceConfig,
)
from repro.serve.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    load_fault_plan_from_env,
)
from repro.serve.flush import (
    FLUSH_POLICIES,
    AdaptiveFlushController,
    FlushController,
    HedgeController,
    StaticFlushController,
    create_flush_controller,
    default_flush_policy,
)
from repro.serve.http import (
    STATUS_BY_REASON,
    HttpServerConfig,
    PredictionHttpServer,
)
from repro.serve.queue import (
    Priority,
    QueuedRequest,
    RequestQueue,
)
from repro.serve.registry import (
    ModelInfo,
    ModelRegistry,
    ModelReport,
    ModelVariant,
)
from repro.serve.resilience import (
    BreakerPolicy,
    BreakerRing,
    CircuitBreaker,
    RespawnGovernor,
    RespawnPolicy,
    RetryBudget,
    RetryPolicy,
    StalePredictionCache,
    run_with_retries,
)
from repro.serve.replay import (
    ReplayReport,
    SloPolicy,
    SloVerdict,
    Trace,
    TraceRecorder,
    TraceReplayer,
    TraceRequest,
    synthesize_trace,
)
from repro.serve.ring import HashRing, HotKeyRouter, HotKeyTracker
from repro.serve.service import PredictionService, ServiceStats
from repro.serve.stats import (
    CacheStats,
    FlushStats,
    HedgeStats,
    ModelStats,
    QueueStats,
    ResilienceStats,
    ServiceSnapshot,
    StatsStruct,
    WorkerStats,
    latency_percentile,
)
from repro.serve.types import (
    AuthenticationError,
    AuthorizationError,
    InvalidRequestError,
    PredictionRequest,
    PredictionResponse,
    QueueFullError,
    ReasonCode,
    RequestExpiredError,
    ServeError,
    ServiceClosedError,
    UnknownModelError,
)
from repro.serve.workers import (
    PoolAutoscaler,
    ShardedWorkerPool,
    WorkerCrashError,
)

__all__ = [
    # Envelopes and batching.
    "MicroBatch",
    "PredictionRequest",
    "PredictionResponse",
    "coalesce_requests",
    "coalesce_requests_by_ring",
    "coalesce_requests_by_router",
    "shard_key",
    # Services and configuration.
    "PredictionService",
    "ServiceConfig",
    "ServiceStats",
    "AsyncPredictionService",
    "AsyncOptions",
    "AsyncServiceStats",
    # Flush and hedge policies.
    "FLUSH_POLICIES",
    "AdaptiveFlushController",
    "FlushController",
    "HedgeController",
    "StaticFlushController",
    "create_flush_controller",
    "default_flush_policy",
    # Queueing and routing.
    "HashRing",
    "HotKeyRouter",
    "HotKeyTracker",
    "Priority",
    "QueuedRequest",
    "RequestQueue",
    # Worker pool.
    "PoolAutoscaler",
    "ShardedWorkerPool",
    "WorkerCrashError",
    # Fault injection and self-healing.
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "load_fault_plan_from_env",
    "RetryPolicy",
    "RetryBudget",
    "run_with_retries",
    "BreakerPolicy",
    "CircuitBreaker",
    "BreakerRing",
    "RespawnPolicy",
    "RespawnGovernor",
    "StalePredictionCache",
    # Error taxonomy.
    "ReasonCode",
    "ServeError",
    "QueueFullError",
    "RequestExpiredError",
    "ServiceClosedError",
    "UnknownModelError",
    "AuthenticationError",
    "AuthorizationError",
    "InvalidRequestError",
    # Typed stats schema.
    "StatsStruct",
    "CacheStats",
    "WorkerStats",
    "QueueStats",
    "FlushStats",
    "HedgeStats",
    "ModelStats",
    "ResilienceStats",
    "ServiceSnapshot",
    "latency_percentile",
    # Tail-latency SLO harness.
    "Trace",
    "TraceRequest",
    "TraceRecorder",
    "TraceReplayer",
    "ReplayReport",
    "SloPolicy",
    "SloVerdict",
    "synthesize_trace",
    # Tenancy.
    "Tenant",
    "TenantDirectory",
    "ANONYMOUS",
    # Registry and network front end.
    "ModelVariant",
    "ModelInfo",
    "ModelReport",
    "ModelRegistry",
    "HttpServerConfig",
    "PredictionHttpServer",
    "STATUS_BY_REASON",
]
