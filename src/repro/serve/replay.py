"""Trace capture, synthesis and replay: the tail-latency SLO harness.

Mean throughput hides the tail.  A serving stack that predicts a million
blocks per second is still broken if every thousandth request waits half a
second — and the only way to *measure* the tail honestly is to drive the
stack with realistic traffic and record what every request experienced.
This module provides that loop:

* :class:`TraceRequest` / :class:`Trace` — the trace format: per-request
  arrival offsets (seconds since the trace epoch), block texts, priority,
  deadline.  JSON on disk, so traces are diffable and checked-in-able.
* :class:`TraceRecorder` — the live capture hook: hand one to
  :class:`repro.serve.http.PredictionHttpServer` (its ``recorder``
  argument) and every predict call becomes a trace entry, stamped with its
  arrival offset.  Thread-safe; usable from any submission path.
* :func:`synthesize_trace` — workload synthesis when no live traffic
  exists: a fixed-seed block universe sampled with Zipf key skew (real
  block streams are heavily skewed — hot loop bodies recur constantly)
  and bursty arrivals (a two-rate Markov-modulated Poisson process:
  calm/burst phases with exponential gaps).  Same seed, same trace,
  bit-for-bit.
* :class:`TraceReplayer` — drives a trace against an
  :class:`~repro.serve.async_service.AsyncPredictionService` at recorded
  (or time-scaled) pacing and reports what actually happened:
  per-request p50/p99/p99.9 latency, jitter, error/reject counts,
  scheduling lag, and the hedging counters' delta over the run.
* :class:`SloPolicy` / :class:`SloVerdict` — budget checks over a report.
  An empty latency window yields NaN percentiles, and NaN fails every
  budget comparison — a replay that measured nothing can never *pass* an
  SLO (see :func:`repro.serve.stats.latency_percentile`).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.queue import Priority
from repro.serve.stats import latency_percentile
from repro.serve.types import PredictionRequest, ServeError

__all__ = [
    "TraceRequest",
    "Trace",
    "TraceRecorder",
    "synthesize_trace",
    "TraceReplayer",
    "ReplayReport",
    "SloPolicy",
    "SloVerdict",
]

#: Trace JSON schema version, bumped on incompatible format changes.
TRACE_VERSION = 1


@dataclass(frozen=True)
class TraceRequest:
    """One request of a trace.

    Attributes:
        offset_s: Arrival time, in seconds since the trace epoch (the
            first request's arrival); non-negative and non-decreasing
            within a trace.
        block_texts: The canonical block texts of the request.
        priority: Queue priority (see :class:`repro.serve.queue.Priority`).
        deadline_ms: Queue deadline carried by the original request, if any.
        model: Model name the request targeted (informational; the
            replayer drives whatever service it is given).
        stream: Whether the original call used NDJSON streaming
            (informational; replay submits each request whole).
    """

    offset_s: float
    block_texts: Tuple[str, ...]
    priority: int = int(Priority.NORMAL)
    deadline_ms: Optional[float] = None
    model: Optional[str] = None
    stream: bool = False

    def __post_init__(self) -> None:
        if self.offset_s < 0:
            raise ValueError("offset_s must be >= 0")
        if not self.block_texts:
            raise ValueError("a trace request needs at least one block")

    @property
    def num_blocks(self) -> int:
        return len(self.block_texts)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "offset_s": self.offset_s,
            "blocks": list(self.block_texts),
            "priority": int(self.priority),
        }
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        if self.model is not None:
            out["model"] = self.model
        if self.stream:
            out["stream"] = True
        return out

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "TraceRequest":
        return cls(
            offset_s=float(raw["offset_s"]),
            block_texts=tuple(raw["blocks"]),
            priority=int(raw.get("priority", int(Priority.NORMAL))),
            deadline_ms=(
                None if raw.get("deadline_ms") is None else float(raw["deadline_ms"])
            ),
            model=raw.get("model"),
            stream=bool(raw.get("stream", False)),
        )


@dataclass(frozen=True)
class Trace:
    """An ordered request trace plus free-form metadata."""

    requests: Tuple[TraceRequest, ...]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        offsets = [request.offset_s for request in self.requests]
        if any(b < a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("trace offsets must be non-decreasing")

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_blocks(self) -> int:
        return sum(request.num_blocks for request in self.requests)

    @property
    def duration_s(self) -> float:
        """Offset of the last arrival (0.0 for an empty trace)."""
        return self.requests[-1].offset_s if self.requests else 0.0

    def scaled(self, speedup: float) -> "Trace":
        """The same trace with arrivals ``speedup`` x closer together.

        ``speedup=10`` replays a 60-second capture in 6 seconds — same
        request contents, same relative arrival pattern, compressed
        timeline.  ``speedup < 1`` slows the trace down.
        """
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        return Trace(
            requests=tuple(
                dataclass_replace(request, offset_s=request.offset_s / speedup)
                for request in self.requests
            ),
            metadata={**self.metadata, "scaled_by": speedup},
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": TRACE_VERSION,
                "metadata": self.metadata,
                "requests": [request.to_dict() for request in self.requests],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        raw = json.loads(text)
        version = raw.get("version", TRACE_VERSION)
        if version != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {version}; this build reads "
                f"version {TRACE_VERSION}"
            )
        return cls(
            requests=tuple(
                TraceRequest.from_dict(entry) for entry in raw.get("requests", ())
            ),
            metadata=dict(raw.get("metadata", {})),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


class TraceRecorder:
    """Captures live submissions as a :class:`Trace`.

    The first recorded call defines the trace epoch; every later call is
    stamped with its monotonic offset from that epoch.  Thread-safe — the
    HTTP front end records from its loop thread, but nothing stops several
    submission paths from sharing one recorder.

    Args:
        max_requests: Capture stops (silently, counted in
            :attr:`dropped`) beyond this many requests, so a recorder left
            attached to a busy server is memory-bounded.
    """

    def __init__(self, max_requests: int = 100_000) -> None:
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        self.max_requests = int(max_requests)
        self._lock = threading.Lock()
        self._epoch: Optional[float] = None  # guarded-by: _lock
        self._requests: List[TraceRequest] = []  # guarded-by: _lock
        self.dropped = 0  # guarded-by: _lock

    def record(
        self,
        block_texts: Sequence[str],
        priority: int = int(Priority.NORMAL),
        deadline_ms: Optional[float] = None,
        model: Optional[str] = None,
        stream: bool = False,
        now: Optional[float] = None,
    ) -> None:
        """Records one submission (``now`` overrides the clock in tests)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            if self._epoch is None:
                self._epoch = now
            if len(self._requests) >= self.max_requests:
                self.dropped += 1
                return
            self._requests.append(
                TraceRequest(
                    offset_s=max(0.0, now - self._epoch),
                    block_texts=tuple(block_texts),
                    priority=int(priority),
                    deadline_ms=deadline_ms,
                    model=model,
                    stream=stream,
                )
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._requests)

    def trace(self, **metadata: Any) -> Trace:
        """The capture so far as an immutable :class:`Trace`."""
        with self._lock:
            requests = tuple(self._requests)
            dropped = self.dropped
        meta = {"source": "recorded", "dropped": dropped}
        meta.update(metadata)
        return Trace(requests=requests, metadata=meta)


def synthesize_trace(
    num_requests: int,
    seed: int,
    block_universe: Optional[Sequence[str]] = None,
    num_keys: int = 64,
    zipf_alpha: float = 1.1,
    mean_rate_rps: float = 200.0,
    burstiness: float = 4.0,
    burst_fraction: float = 0.2,
    blocks_per_request: int = 1,
    priority: int = int(Priority.NORMAL),
    deadline_ms: Optional[float] = None,
) -> Trace:
    """A deterministic synthetic trace with Zipf key skew and bursty arrivals.

    Block texts are drawn from a ``num_keys``-entry universe with
    probability proportional to ``1 / rank^zipf_alpha`` — rank 1 is the
    hot head key that :class:`repro.serve.ring.HotKeyRouter` exists for.
    Arrival gaps come from a two-phase process: a calm phase at the base
    rate and a burst phase at ``burstiness`` times that rate, with
    ``burst_fraction`` of requests arriving in bursts — the clumped
    arrivals that make tail latency interesting.  Everything flows from
    ``np.random.default_rng(seed)``: the same arguments always produce
    the identical trace.

    Args:
        num_requests: Trace length, in requests.
        seed: The RNG seed (also recorded in the trace metadata).
        block_universe: Optional block texts to sample from; synthesized
            with :class:`repro.data.synthetic.BlockGenerator` (seeded from
            ``seed``) when omitted.
        num_keys: Size of the sampled block universe.
        zipf_alpha: Skew exponent (larger = hotter head).
        mean_rate_rps: Average arrival rate over the whole trace.
        burstiness: Burst-phase rate multiplier (>= 1).
        burst_fraction: Fraction of requests arriving in burst phases.
        blocks_per_request: Blocks per request.
        priority: Queue priority stamped on every request.
        deadline_ms: Queue deadline stamped on every request, if any.
    """
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if num_keys < 1:
        raise ValueError("num_keys must be >= 1")
    if zipf_alpha < 0:
        raise ValueError("zipf_alpha must be >= 0")
    if mean_rate_rps <= 0:
        raise ValueError("mean_rate_rps must be positive")
    if burstiness < 1:
        raise ValueError("burstiness must be >= 1")
    if not 0 <= burst_fraction <= 1:
        raise ValueError("burst_fraction must be in [0, 1]")
    if blocks_per_request < 1:
        raise ValueError("blocks_per_request must be >= 1")
    rng = np.random.default_rng(seed)
    if block_universe is None:
        from repro.data.synthetic import BlockGenerator, GeneratorConfig

        generator = BlockGenerator(GeneratorConfig(seed=seed))
        block_universe = [
            block.canonical_text() for block in generator.generate_blocks(num_keys)
        ]
    else:
        block_universe = list(block_universe)
        if not block_universe:
            raise ValueError("block_universe must not be empty")
    universe = block_universe[:num_keys]
    ranks = np.arange(1, len(universe) + 1, dtype=np.float64)
    probabilities = ranks**-zipf_alpha
    probabilities /= probabilities.sum()

    # The calm/burst rates solve
    #   burst_fraction/burst_rate + (1-burst_fraction)/calm_rate = 1/mean
    # per-request in expectation, keeping the *average* rate at the asked
    # mean whatever the burst shape.
    mean_gap = 1.0 / mean_rate_rps
    burst_rate = mean_rate_rps * burstiness
    calm_share = 1.0 - burst_fraction
    calm_gap = (
        (mean_gap - burst_fraction / burst_rate) / calm_share
        if calm_share > 0
        else mean_gap
    )
    calm_gap = max(calm_gap, 0.0)

    offsets: List[float] = []
    clock = 0.0
    for index in range(num_requests):
        in_burst = rng.random() < burst_fraction
        scale = 1.0 / burst_rate if in_burst else calm_gap
        if index > 0:
            clock += float(rng.exponential(scale)) if scale > 0 else 0.0
        offsets.append(clock)

    key_indices = rng.choice(
        len(universe), size=(num_requests, blocks_per_request), p=probabilities
    )
    requests = tuple(
        TraceRequest(
            offset_s=offsets[index],
            block_texts=tuple(universe[key] for key in key_indices[index]),
            priority=priority,
            deadline_ms=deadline_ms,
        )
        for index in range(num_requests)
    )
    return Trace(
        requests=requests,
        metadata={
            "source": "synthesized",
            "seed": seed,
            "num_keys": len(universe),
            "zipf_alpha": zipf_alpha,
            "mean_rate_rps": mean_rate_rps,
            "burstiness": burstiness,
            "burst_fraction": burst_fraction,
            "blocks_per_request": blocks_per_request,
        },
    )


@dataclass(frozen=True)
class SloVerdict:
    """Outcome of checking one replay against an :class:`SloPolicy`."""

    met: bool
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"met": self.met, "violations": list(self.violations)}


@dataclass(frozen=True)
class SloPolicy:
    """Latency/error budgets judged against a :class:`ReplayReport`.

    Any budget left ``None`` is not checked.  NaN realized values (an
    empty measurement window) fail their check: "we measured nothing"
    must never read as "we met the SLO".

    Attributes:
        p50_ms / p99_ms / p999_ms: Percentile latency budgets.
        budget_ms: Per-request latency budget for the violation *rate*
            check: the fraction of completed requests over ``budget_ms``
            must stay at or below ``max_violation_rate``.
        max_violation_rate: See ``budget_ms``.
        max_error_rate: Ceiling on ``(errors + rejected) / offered``.
    """

    p50_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    p999_ms: Optional[float] = None
    budget_ms: Optional[float] = None
    max_violation_rate: float = 0.0
    max_error_rate: float = 0.0

    def check(self, report: "ReplayReport") -> SloVerdict:
        violations: List[str] = []

        def over(realized: float, budget: Optional[float], label: str) -> None:
            if budget is None:
                return
            # NaN <= budget is False, so an unmeasured percentile lands
            # here and fails — by design.
            if not realized <= budget:
                violations.append(f"{label} {realized:.3f}ms > budget {budget:.3f}ms")

        over(report.p50_ms, self.p50_ms, "p50")
        over(report.p99_ms, self.p99_ms, "p99")
        over(report.p999_ms, self.p999_ms, "p99.9")
        if self.budget_ms is not None:
            rate = report.violation_rate(self.budget_ms)
            if not rate <= self.max_violation_rate:
                violations.append(
                    f"violation rate {rate:.4f} > {self.max_violation_rate:.4f} "
                    f"(budget {self.budget_ms:.3f}ms)"
                )
        offered = report.num_requests
        if offered > 0:
            error_rate = (report.errors + report.rejected) / offered
            if not error_rate <= self.max_error_rate:
                violations.append(
                    f"error rate {error_rate:.4f} > {self.max_error_rate:.4f}"
                )
        return SloVerdict(met=not violations, violations=tuple(violations))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "budget_ms": self.budget_ms,
            "max_violation_rate": self.max_violation_rate,
            "max_error_rate": self.max_error_rate,
        }


@dataclass(frozen=True)
class ReplayReport:
    """What one replay run measured.

    All latency figures are per-request due time -> completion wall times
    in milliseconds (the due time is the request's scaled trace offset, so
    a submission delayed behind a slow earlier one still counts its wait);
    percentiles are NaN when no request completed.  Jitter is the standard
    deviation of the completed latencies.  Scheduling lag is how late the
    replayer itself fired each submission relative to the trace timeline —
    a sanity signal that the measured tail belongs to the service, not to
    the load generator.
    """

    num_requests: int
    completed: int
    errors: int
    rejected: int
    duration_s: float
    offered_rps: float
    speedup: float
    p50_ms: float
    p99_ms: float
    p999_ms: float
    mean_ms: float
    max_ms: float
    jitter_ms: float
    schedule_lag_p99_ms: float
    hedges_issued: int = 0
    hedges_won: int = 0
    latencies_ms: Tuple[float, ...] = ()
    slo: Optional[SloVerdict] = None

    def violation_rate(self, budget_ms: float) -> float:
        """Fraction of completed requests slower than ``budget_ms``.

        NaN when nothing completed (no data is not zero violations).
        """
        if not self.latencies_ms:
            return float("nan")
        over = sum(1 for latency in self.latencies_ms if latency > budget_ms)
        return over / len(self.latencies_ms)

    @property
    def lost(self) -> int:
        """Requests that vanished: neither completed, errored nor rejected.

        The zero-lost invariant of the chaos gate — every submitted
        request must resolve *somehow*, even under injected crashes.
        """
        return self.num_requests - self.completed - self.errors - self.rejected

    def availability(self, budget_ms: float) -> float:
        """Fraction of offered requests answered within ``budget_ms``.

        Unlike :meth:`violation_rate`, the denominator is *every* request
        the trace offered: an error, a rejection or a lost request counts
        against availability exactly like a blown deadline does.  NaN when
        the trace was empty.
        """
        if self.num_requests <= 0:
            return float("nan")
        within = sum(1 for latency in self.latencies_ms if latency <= budget_ms)
        return within / self.num_requests

    def to_dict(self, include_latencies: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "num_requests": self.num_requests,
            "completed": self.completed,
            "errors": self.errors,
            "rejected": self.rejected,
            "lost": self.lost,
            "duration_s": self.duration_s,
            "offered_rps": self.offered_rps,
            "speedup": self.speedup,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "p999_ms": self.p999_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "jitter_ms": self.jitter_ms,
            "schedule_lag_p99_ms": self.schedule_lag_p99_ms,
            "hedges_issued": self.hedges_issued,
            "hedges_won": self.hedges_won,
        }
        if include_latencies:
            out["latencies_ms"] = list(self.latencies_ms)
        if self.slo is not None:
            out["slo"] = self.slo.to_dict()
        return out


class TraceReplayer:
    """Replays a :class:`Trace` against an async prediction service.

    The replayer sleeps to each request's (optionally time-scaled) arrival
    offset, submits it, and captures the completion time from the future's
    done callback — so latency is measured from the request's due time to
    the moment the response materialized, not whenever a collection loop
    got around to it.

    Args:
        service: An :class:`~repro.serve.async_service.AsyncPredictionService`
            (or anything with its ``submit(request, priority=...,
            deadline_ms=...)`` -> future signature; when it has
            ``snapshot()``, the result's ``hedge`` section supplies the
            hedge counters, otherwise they read 0).
        speedup: Timeline compression (see :meth:`Trace.scaled`); applied
            at replay time, the trace itself is not modified.
        slo: Optional policy checked into the report's ``slo`` field.
        result_timeout_s: Per-request ceiling on waiting for stragglers
            after the last submission; a request still unresolved counts
            as an error.
    """

    def __init__(
        self,
        service: Any,
        speedup: float = 1.0,
        slo: Optional[SloPolicy] = None,
        result_timeout_s: float = 60.0,
    ) -> None:
        if speedup <= 0:
            raise ValueError("speedup must be positive")
        if result_timeout_s <= 0:
            raise ValueError("result_timeout_s must be positive")
        self.service = service
        self.speedup = float(speedup)
        self.slo = slo
        self.result_timeout_s = float(result_timeout_s)

    def _hedge_counters(self) -> Tuple[int, int]:
        snapshot: Optional[Callable[[], Any]] = getattr(
            self.service, "snapshot", None
        )
        if snapshot is None:
            return 0, 0
        hedge = snapshot().hedge
        return hedge.issued, hedge.won

    def run(self, trace: Trace) -> ReplayReport:
        """Replays ``trace`` once and reports the realized latencies."""
        issued_before, won_before = self._hedge_counters()
        completions: List[Tuple[int, float]] = []
        completion_lock = threading.Lock()

        def on_done(index: int, future: Any) -> None:
            done_at = time.monotonic()
            with completion_lock:
                completions.append((index, done_at))

        start = time.monotonic()
        # Latency runs from each request's due time, not from when submit
        # was reached: time spent behind a slow earlier submit (or a late
        # wake-up) is part of what the client would have waited.
        due_at: Dict[int, float] = {}
        futures: Dict[int, Any] = {}
        lags: List[float] = []
        rejected = 0
        for index, request in enumerate(trace.requests):
            target = start + request.offset_s / self.speedup
            due_at[index] = target
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            lags.append(max(0.0, time.monotonic() - target))
            try:
                future = self.service.submit(
                    PredictionRequest.of(list(request.block_texts)),
                    priority=request.priority,
                    deadline_ms=request.deadline_ms,
                )
            except ServeError:
                rejected += 1
                continue
            futures[index] = future
            # functools.partial-free closure: bind index explicitly.
            future.add_done_callback(
                lambda fut, bound_index=index: on_done(bound_index, fut)
            )

        errors = 0
        for index, future in futures.items():
            try:
                future.result(timeout=self.result_timeout_s)
            except Exception:  # noqa: BLE001 - every failure mode is an error here
                errors += 1
        duration_s = time.monotonic() - start

        with completion_lock:
            done_at_by_index = dict(completions)
        latencies_ms = tuple(
            sorted(
                (done_at_by_index[index] - due_at[index]) * 1e3
                for index, future in futures.items()
                if index in done_at_by_index
                and not future.cancelled()
                and future.exception() is None
            )
        )
        issued_after, won_after = self._hedge_counters()
        values = np.asarray(latencies_ms, dtype=np.float64)
        report = ReplayReport(
            num_requests=trace.num_requests,
            completed=len(latencies_ms),
            errors=errors,
            rejected=rejected,
            duration_s=duration_s,
            offered_rps=(
                trace.num_requests / duration_s if duration_s > 0 else float("nan")
            ),
            speedup=self.speedup,
            p50_ms=latency_percentile(latencies_ms, 0.50),
            p99_ms=latency_percentile(latencies_ms, 0.99),
            p999_ms=latency_percentile(latencies_ms, 0.999),
            mean_ms=float(values.mean()) if values.size else float("nan"),
            max_ms=float(values.max()) if values.size else float("nan"),
            jitter_ms=float(values.std()) if values.size else float("nan"),
            schedule_lag_p99_ms=latency_percentile(lags, 0.99) * 1e3,
            hedges_issued=issued_after - issued_before,
            hedges_won=won_after - won_before,
            latencies_ms=latencies_ms,
        )
        if self.slo is not None:
            report = dataclass_replace(report, slo=self.slo.check(report))
        return report
