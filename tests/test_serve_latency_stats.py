"""Latency-stats honesty tests: empty windows are NaN, never 0.0.

The historical bug: ``flush_wait_percentile`` and friends returned 0.0
for an empty sample window, so an idle (or dead) service read as
"zero latency" to every SLO check and to the autoscaler.  These tests pin
the fix at every layer — the percentile helper, the async service's
accessors, the snapshot dataclasses, and the JSON wire format.
"""

import json
import math

import numpy as np
import pytest

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PoolAutoscaler,
    PredictionRequest,
    ServiceConfig,
    latency_percentile,
)
from repro.serve.http import _jsonable


class TestLatencyPercentile:
    def test_empty_window_is_nan(self):
        assert math.isnan(latency_percentile([], 0.99))
        assert math.isnan(latency_percentile((), 0.0))
        assert math.isnan(latency_percentile(iter(()), 1.0))

    def test_single_sample_is_that_sample(self):
        for quantile in (0.0, 0.5, 0.99, 1.0):
            assert latency_percentile([42.0], quantile) == 42.0

    def test_matches_numpy_on_real_windows(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        for quantile in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert latency_percentile(samples, quantile) == pytest.approx(
                float(np.quantile(samples, quantile))
            )

    def test_quantile_bounds_are_validated(self):
        with pytest.raises(ValueError):
            latency_percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            latency_percentile([1.0], 1.1)

    def test_nan_fails_every_slo_comparison(self):
        # The property every consumer relies on: "no data" can never pass
        # a latency budget.
        empty = latency_percentile([], 0.99)
        assert not empty <= 100.0
        assert not empty < float("inf")
        assert not empty == 0.0


class TestEmptyWindowSurfaces:
    def test_idle_service_percentiles_are_nan_everywhere(self):
        with AsyncPredictionService(AsyncOptions(max_latency_ms=5.0)) as service:
            assert math.isnan(service.stats.flush_wait_percentile(0.99))
            assert math.isnan(service.stats.flush_deadline_percentile(0.5))
            assert math.isnan(service.stats.request_latency_percentile(0.999))
            snapshot = service.snapshot()
        assert math.isnan(snapshot.flush.wait_p50_ms)
        assert math.isnan(snapshot.flush.wait_p99_ms)
        assert math.isnan(snapshot.flush.deadline_p50_ms)
        assert math.isnan(snapshot.flush.deadline_p99_ms)
        assert math.isnan(snapshot.flush.request_p50_ms)
        assert math.isnan(snapshot.flush.request_p99_ms)
        assert math.isnan(snapshot.flush.request_p999_ms)
        assert math.isnan(snapshot.hedge.deadline_ms)

    def test_served_requests_populate_request_percentiles(self):
        with AsyncPredictionService(AsyncOptions(max_latency_ms=2.0)) as service:
            for _ in range(3):
                service.predict_blocks(["MOV RAX, RBX"])
            snapshot = service.snapshot()
        assert snapshot.flush.requests_completed == 3
        assert snapshot.flush.request_p50_ms > 0.0
        assert snapshot.flush.request_p999_ms >= snapshot.flush.request_p50_ms


class TestNanWireRoundTrip:
    def test_jsonable_maps_nan_to_null(self):
        payload = {
            "p99": float("nan"),
            "inf": float("inf"),
            "fine": 1.5,
            "nested": [float("nan"), 2.0],
            "np_nan": np.float64("nan"),
        }
        wire = json.loads(json.dumps(_jsonable(payload)))
        assert wire == {
            "p99": None,
            "inf": None,
            "fine": 1.5,
            "nested": [None, 2.0],
            "np_nan": None,
        }

    def test_idle_snapshot_serializes_percentiles_as_null(self):
        with AsyncPredictionService(AsyncOptions(max_latency_ms=5.0)) as service:
            snapshot = service.snapshot()
        wire = json.loads(json.dumps(_jsonable(snapshot.to_dict())))
        flush = wire["flush"]
        for key in (
            "wait_p50_ms",
            "wait_p99_ms",
            "deadline_p50_ms",
            "deadline_p99_ms",
            "request_p50_ms",
            "request_p99_ms",
            "request_p999_ms",
        ):
            assert flush[key] is None, key
        assert wire["hedge"]["deadline_ms"] is None
        # And never the old lie:
        assert 0.0 not in {flush["wait_p99_ms"], flush["request_p999_ms"]}


class TestAutoscalerLatencySignals:
    def test_nan_signals_behave_like_legacy(self):
        legacy = PoolAutoscaler(1, 4, 8, cooldown_s=0.0, idle_grace_s=10.0)
        guarded = PoolAutoscaler(1, 4, 8, cooldown_s=0.0, idle_grace_s=10.0)
        nan = float("nan")
        for pending in (0, 10, 100, 500):
            assert guarded.decide(
                pending,
                2,
                now=1.0,
                flush_wait_p99_s=nan,
                batch_latency_s=nan,
                wait_budget_s=nan,
            ) == legacy.decide(pending, 2, now=1.0)

    def test_wait_pressure_scales_up_without_backlog(self):
        scaler = PoolAutoscaler(1, 4, 8, cooldown_s=0.0)
        # Queue looks empty, but clients waited 5x the budget: grow.
        assert (
            scaler.decide(
                0, 2, now=1.0, flush_wait_p99_s=0.5, wait_budget_s=0.1
            )
            == 3
        )

    def test_drain_pressure_scales_up_on_slow_batches(self):
        scaler = PoolAutoscaler(1, 4, 8, cooldown_s=0.0)
        # 4 batches pending x 200ms each / 2 workers = 400ms drain > 100ms
        # budget, despite the backlog threshold (2*8*2=32 blocks) not
        # being met.
        assert (
            scaler.decide(
                32 - 1,
                2,
                now=1.0,
                batch_latency_s=0.2,
                wait_budget_s=0.1,
            )
            == 3
        )

    def test_latency_pressure_blocks_scale_down(self):
        scaler = PoolAutoscaler(1, 4, 8, cooldown_s=0.0, idle_grace_s=0.5)
        assert scaler.decide(0, 2, now=0.0) == 2
        # A shallow queue would normally shrink after the grace period,
        # but over-budget waits mean the pool is not over-provisioned.
        assert (
            scaler.decide(
                0, 2, now=1.0, flush_wait_p99_s=0.5, wait_budget_s=0.1
            )
            == 3
        )

    def test_within_budget_still_shrinks_when_idle(self):
        scaler = PoolAutoscaler(1, 4, 8, cooldown_s=0.0, idle_grace_s=0.5)
        assert scaler.decide(0, 2, now=0.0, flush_wait_p99_s=0.01, wait_budget_s=0.1) == 2
        assert (
            scaler.decide(0, 2, now=1.0, flush_wait_p99_s=0.01, wait_budget_s=0.1)
            == 1
        )


class TestPerRequestVsPerFlushBias:
    def test_flush_waits_sample_only_the_oldest(self):
        """The reason request_* exists: wait_* under-samples the tail."""
        with AsyncPredictionService(
            AsyncOptions(max_latency_ms=20.0),
            service_config=ServiceConfig(max_batch_size=64),
        ) as service:
            futures = [
                service.submit(PredictionRequest.of([f"ADD RAX, {index}"]))
                for index in range(8)
            ]
            for future in futures:
                future.result(timeout=30.0)
            stats = service.stats
            # One coalesced deadline flush: one wait sample, eight request
            # samples — the per-flush family cannot see seven of the eight
            # individual waits.
            assert len(stats.flush_waits) < len(stats.request_latencies)
            assert len(stats.request_latencies) == 8
