"""The typed stats contract of the serving stack.

Every introspection surface of the stack returns instances of the
dataclasses below instead of ad-hoc dicts:

* ``PredictionService.snapshot()`` -> :class:`ModelStats`
* ``ShardedWorkerPool.worker_stats()`` / ``PredictionService.worker_stats()``
  -> ``List[``:class:`WorkerStats```]``
* ``AsyncPredictionService.snapshot()`` -> :class:`ServiceSnapshot`
  (sections: :class:`QueueStats`, :class:`FlushStats`, :class:`ModelStats`)
* ``GET /v1/models/{model}/stats`` serializes exactly these dataclasses —
  the JSON schema *is* the dataclass schema (:meth:`StatsStruct.to_dict`),
  so the wire format can never drift from the in-process one.

Values are read by attribute (``snapshot.flush.wait_p99_ms``,
``worker_stats()[0].cache.prediction_hit_rate``); ``to_dict()`` is the
only dict view.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

import numpy as np

__all__ = [
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
]


def latency_percentile(samples: Iterable[float], quantile: float) -> float:
    """The ``quantile`` (0..1) of ``samples``, or NaN for an empty window.

    NaN — not 0.0 — is the only honest answer when there are no samples:
    an SLO check or autoscaler reading 0.0 would mistake "no data" for
    "zero latency" and either pass a dead service or never scale.  NaN
    propagates through arithmetic, fails every ``<=`` comparison, and
    serializes to ``null`` on the wire (see ``repro.serve.http._jsonable``),
    so every consumer is forced to treat the empty window explicitly.
    """
    if not 0.0 <= quantile <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    # list() is a single C-level copy, so iterating cannot interleave with
    # a producer thread appending to a deque mid-iteration.
    values = list(samples)
    if not values:
        return float("nan")
    return float(np.quantile(np.asarray(values), quantile))


def _plain(value: Any) -> Any:
    """Plain-data view of ``value`` (StatsStructs and containers recursed)."""
    if isinstance(value, StatsStruct):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class StatsStruct:
    """Mixin giving a stats dataclass its schema-driven serialization.

    ``to_dict()`` recursively converts the dataclass (nested sections
    included) into plain JSON-ready dicts — the serialization used by the
    HTTP front end.
    """

    def to_dict(self) -> Dict[str, Any]:
        """Recursive plain-dict view, field order preserved."""
        out: Dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            out[spec.name] = _plain(getattr(self, spec.name))
        return out


@dataclass(frozen=True)
class CacheStats(StatsStruct):
    """Cache counters of one model replica (encode / prediction / parse)."""

    encode_hits: int = 0
    encode_misses: int = 0
    encode_hit_rate: float = 0.0
    prediction_hits: int = 0
    prediction_misses: int = 0
    prediction_hit_rate: float = 0.0
    prediction_entries: int = 0
    parse_hits: int = 0
    parse_misses: int = 0

    @classmethod
    def from_model_stats(cls, stats: Mapping[str, Any]) -> "CacheStats":
        """Parses the flat dict of ``ThroughputModel.cache_stats()``.

        Unknown keys are ignored; missing keys keep their zero defaults —
        worker replicas may add counters before the parent upgrades.
        """
        field_names = {spec.name for spec in dataclasses.fields(cls)}
        return cls(**{key: stats[key] for key in stats.keys() & field_names})


@dataclass(frozen=True)
class WorkerStats(StatsStruct):
    """One worker replica's identity, ring share and cache counters.

    A dead worker held in respawn backoff reports ``alive=False`` with
    ``respawn_backoff_active=True`` and zeroed cache counters (its process
    cannot be asked); ``breaker_state`` is the worker's circuit-breaker
    state (always ``"closed"`` when circuit breaking is disabled).
    """

    worker_id: int
    spawn_count: int
    ring_share: float
    inference_dtype: str
    job_errors: int
    cache: CacheStats
    alive: bool = True
    respawn_backoff_active: bool = False
    breaker_state: str = "closed"


@dataclass(frozen=True)
class QueueStats(StatsStruct):
    """Admission-side state of the async front end's request queue."""

    depth_blocks: int
    depth_requests: int
    max_blocks: int
    backpressure: str
    submitted_requests: int
    submitted_blocks: int
    rejected: int
    cancelled_drops: int
    expired_drops: int


@dataclass(frozen=True)
class FlushStats(StatsStruct):
    """Dispatcher-side flush counters and realized latency percentiles.

    Two latency families with deliberately distinct names:

    * ``wait_*`` — per *flush*, the wait of that flush's oldest request
      (the dispatcher's deadline-keeping signal; biased low as a request
      latency, since only one request per flush is sampled);
    * ``request_*`` — per *request*, enqueue -> completion (what a client
      actually experienced, including the service call itself).

    All percentiles are NaN while their sample window is empty (never
    0.0 — "no data" must not read as "zero latency").
    """

    policy: str
    current_deadline_ms: float
    flushes: int
    size_flushes: int
    deadline_flushes: int
    close_flushes: int
    flushed_blocks: int
    mean_flush_blocks: float
    wait_p50_ms: float
    wait_p99_ms: float
    deadline_p50_ms: float
    deadline_p99_ms: float
    request_p50_ms: float = float("nan")
    request_p99_ms: float = float("nan")
    request_p999_ms: float = float("nan")
    requests_completed: int = 0
    request_errors: int = 0


@dataclass(frozen=True)
class HedgeStats(StatsStruct):
    """Hedged-request counters of the async front end.

    ``issued`` counts duplicate submissions (a request outlived the hedge
    deadline while queued or in flight); ``won`` counts client responses
    that came from the hedge rather than the primary; ``losers_cancelled``
    counts losing attempts cancelled while still queued (their blocks were
    freed without reaching a worker).  ``deadline_ms`` is the hedge
    deadline currently in effect — NaN until ``hedge_min_samples`` request
    latencies have been observed.
    """

    enabled: bool = False
    issued: int = 0
    won: int = 0
    losers_cancelled: int = 0
    deadline_ms: float = float("nan")
    inflight: int = 0


@dataclass(frozen=True)
class ModelStats(StatsStruct):
    """Aggregate serving counters of one (sync) prediction service."""

    model_name: str
    inference_dtype: str
    requests: int
    blocks: int
    batches: int
    seconds: float
    blocks_per_second: float
    respawns: int
    resizes: int
    num_workers: int
    #: Replication factor applied to Zipf-head keys (1 = replication off).
    hot_key_replicas: int = 1
    #: Keys currently classified hot (and routed read-any over replicas).
    hot_keys: int = 0
    #: Blocks routed through a replica set instead of the single ring owner.
    replicated_routes: int = 0
    #: Circuit-breaker trips (closed/half-open -> open transitions).
    breaker_trips: int = 0
    #: Probe requests admitted by half-open breakers.
    breaker_probes: int = 0
    #: Half-open -> closed recoveries.
    breaker_recoveries: int = 0
    #: Workers whose breaker is open right now.
    breaker_open_workers: int = 0
    #: Worker jobs killed by the per-job watchdog (hung replicas).
    job_timeouts: int = 0
    #: Worker replies discarded as corrupt (non-finite predictions).
    corrupt_replies: int = 0
    #: Respawn attempts refused by the respawn governor (backoff active).
    respawns_suppressed: int = 0
    #: Cache counters of the in-process replica; ``None`` in worker mode
    #: (each replica reports its own through ``worker_stats()``) and until
    #: the model is first built.
    cache: Optional[CacheStats] = None


@dataclass(frozen=True)
class ResilienceStats(StatsStruct):
    """Self-healing counters of the async front end.

    ``retries`` counts backoff retries actually taken by the dispatcher;
    ``retries_exhausted`` counts submissions that still failed after the
    last attempt; ``retry_budget_denied`` counts retries refused by the
    sliding-window budget.  ``degraded_responses`` counts requests served
    from the stale prediction cache (flagged ``degraded=True``), and
    ``injected_queue_rejections`` counts submissions rejected by an armed
    queue-saturation fault.
    """

    retries: int = 0
    retries_exhausted: int = 0
    retry_budget_denied: int = 0
    degraded_responses: int = 0
    stale_cache_entries: int = 0
    injected_queue_rejections: int = 0


@dataclass(frozen=True)
class ServiceSnapshot(StatsStruct):
    """Point-in-time view of one async serving stack.

    Sections: :attr:`queue` (admission), :attr:`flush` (dispatcher),
    :attr:`model` (the underlying sync service), :attr:`hedge` (the hedged
    duplicate machinery), plus the flush controller's own
    :attr:`controller` state dict and the autoscale monitor's error
    counter.
    """

    queue: QueueStats
    flush: FlushStats
    model: ModelStats
    hedge: HedgeStats
    controller: Dict[str, Any]
    autoscale_errors: int
    resilience: ResilienceStats = field(default_factory=ResilienceStats)


def worker_stats_from_raw(
    raw: Mapping[str, Any],
    worker_id: int,
    spawn_count: int,
    ring_share: float,
    alive: bool = True,
    respawn_backoff_active: bool = False,
    breaker_state: str = "closed",
) -> WorkerStats:
    """Builds a :class:`WorkerStats` from one worker's raw stats reply."""
    return WorkerStats(
        worker_id=worker_id,
        spawn_count=spawn_count,
        ring_share=ring_share,
        inference_dtype=str(raw.get("inference_dtype", "")),
        job_errors=int(raw.get("job_errors", 0)),
        cache=CacheStats.from_model_stats(raw),
        alive=alive,
        respawn_backoff_active=respawn_backoff_active,
        breaker_state=breaker_state,
    )


def worker_stats_list(entries: List[WorkerStats]) -> List[Dict[str, Any]]:
    """Plain-dict view of a ``worker_stats()`` result (JSON-ready)."""
    return [entry.to_dict() for entry in entries]
