"""Hedged-request semantics (repro.serve.async_service + flush.HedgeController).

The contract under test: a hedge is a *duplicate* of a still-pending
request; whichever attempt finishes first resolves the client future,
exactly once; the losing attempt is cancelled (freeing queue capacity
when still queued) and can never re-complete, fail, or double-complete
the client.
"""

import math
import threading
import time

import pytest

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    HedgeController,
    PredictionRequest,
    PredictionService,
    ServiceConfig,
    Trace,
    TraceReplayer,
    TraceRequest,
)


class TestHedgeController:
    def test_under_sampled_deadline_is_nan(self):
        controller = HedgeController(quantile=0.99, min_samples=4)
        assert math.isnan(controller.deadline_s([]))
        assert math.isnan(controller.deadline_s([0.1, 0.2, 0.3]))

    def test_deadline_is_the_quantile(self):
        controller = HedgeController(quantile=0.5, min_samples=1, min_s=0.0)
        assert controller.deadline_s([0.1, 0.2, 0.3]) == pytest.approx(0.2)

    def test_floor_and_cap(self):
        controller = HedgeController(
            quantile=1.0, min_samples=1, min_s=0.05, max_s=0.2
        )
        assert controller.deadline_s([0.001]) == 0.05  # floored
        assert controller.deadline_s([5.0]) == 0.2  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            HedgeController(quantile=0.0)
        with pytest.raises(ValueError):
            HedgeController(min_samples=0)
        with pytest.raises(ValueError):
            HedgeController(min_s=0.2, max_s=0.1)


class _BlockingOnceService(PredictionService):
    """First submission stalls until released; later ones run normally.

    The stall happens *before* the base submit (outside any lock), so a
    hedge dispatched through a second flush slot can overtake it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.stalled = threading.Event()
        self._stall_lock = threading.Lock()
        self._stalled_once = False

    def submit(self, requests):
        stall = False
        with self._stall_lock:
            if not self._stalled_once:
                self._stalled_once = True
                stall = True
        if stall:
            self.stalled.set()
            assert self.release.wait(timeout=30.0), "never released"
        return super().submit(requests)


def _hedging_config(**overrides):
    """A service config whose async options hedge aggressively."""
    base = dict(
        max_latency_ms=1.0,
        hedge_enabled=True,
        hedge_quantile=0.5,
        hedge_min_samples=4,
        hedge_min_ms=5.0,
        hedge_max_ms=25.0,
        hedge_poll_ms=1.0,
        max_concurrent_flushes=2,
    )
    base.update(overrides)
    return ServiceConfig(max_batch_size=4, async_options=AsyncOptions(**base))


def _stalling_front_end():
    """A started hedging front end over a service whose next submit stalls.

    The latency reservoir is warmed past ``hedge_min_samples`` first, so
    the hedge controller has a deadline (with the stall released, or the
    first warm-up flush would be the stalled one); then the stall is
    re-armed.
    """
    inner = _BlockingOnceService(_hedging_config())
    service = AsyncPredictionService(service=inner).start()
    inner.release.set()
    for index in range(6):
        service.predict_blocks([f"ADD RAX, {index}"])
    inner.release.clear()
    inner._stalled_once = False
    inner.stalled.clear()
    return inner, service


class TestHedgingEndToEnd:
    def test_hedge_overtakes_straggler_and_no_double_complete(self):
        inner, service = _stalling_front_end()
        with service:
            future = service.submit(PredictionRequest.of(["MOV RBX, RCX"]))
            assert inner.stalled.wait(timeout=10.0)
            # The primary attempt is stalled inside the service; the hedge
            # must complete the client anyway.
            response = future.result(timeout=10.0)
            assert response.num_blocks == 1
            snapshot = service.snapshot()
            assert snapshot.hedge.enabled
            assert snapshot.hedge.issued >= 1
            assert snapshot.hedge.won >= 1
            # Release the straggler; its late completion must not blow up
            # (the client future is already resolved — set_result twice
            # would raise InvalidStateError inside the flush thread and
            # surface as request_errors).
            inner.release.set()
            time.sleep(0.2)
            final = service.snapshot()
            assert final.flush.request_errors == 0
        assert future.done() and not future.cancelled()

    def test_cancelling_the_client_cancels_every_attempt(self):
        inner, service = _stalling_front_end()
        with service:
            # Fill the (single remaining) flush slot with the stalled
            # request, then cancel a queued one: the queue's eager discard
            # must see the cancellation.
            stalled_future = service.submit(PredictionRequest.of(["MOV R8, R9"]))
            assert inner.stalled.wait(timeout=10.0)
            victim = service.submit(PredictionRequest.of(["MOV R10, R11"]))
            before = service.queue.cancelled
            assert victim.cancel()
            deadline = time.monotonic() + 5.0
            while service.queue.cancelled <= before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.queue.cancelled > before
            inner.release.set()
            stalled_future.result(timeout=10.0)

    def test_hedging_disabled_issues_nothing(self):
        config = _hedging_config(hedge_enabled=False)
        with AsyncPredictionService(service_config=config) as service:
            for index in range(8):
                service.predict_blocks([f"ADD RAX, {index}"])
            snapshot = service.snapshot()
        assert not snapshot.hedge.enabled
        assert snapshot.hedge.issued == 0
        assert snapshot.hedge.won == 0
        assert snapshot.hedge.losers_cancelled == 0

    def test_hedged_futures_resolve_exactly_once_under_load(self):
        with AsyncPredictionService(service_config=_hedging_config()) as service:
            futures = [
                service.submit(PredictionRequest.of([f"ADD RCX, {index % 16}"]))
                for index in range(64)
            ]
            results = [future.result(timeout=30.0) for future in futures]
            assert all(response.num_blocks == 1 for response in results)
            snapshot = service.snapshot()
            # Winners + losers both feed the per-request reservoir, and
            # every submitted request completed exactly once.
            assert snapshot.flush.request_errors == 0
        assert all(future.done() for future in futures)

    def test_losers_cancelled_counter_moves(self):
        inner, service = _stalling_front_end()
        with service:
            future = service.submit(PredictionRequest.of(["MOV RDX, RSI"]))
            assert inner.stalled.wait(timeout=10.0)
            future.result(timeout=10.0)
            inner.release.set()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if service.snapshot().hedge.losers_cancelled >= 1:
                    break
                time.sleep(0.02)
            # The stalled primary lost the race; it was cancelled (if still
            # pending) or completed unobserved — either way the counter
            # must reflect the hedge outcome without errors.
            snapshot = service.snapshot()
            assert snapshot.hedge.won >= 1
            assert snapshot.flush.request_errors == 0


class TestHedgedReplay:
    def test_replay_reports_the_hedges_the_service_issued(self):
        """The replayer's hedge counters are the snapshot's delta."""
        inner, service = _stalling_front_end()
        try:
            trace = Trace(
                requests=tuple(
                    TraceRequest(offset_s=0.01 * index, block_texts=(text,))
                    for index, text in enumerate(
                        ("MOV RBX, RCX", "ADD RDX, 1", "SUB RSI, 2")
                    )
                )
            )
            before = service.snapshot().hedge
            # The first request stalls inside the service; only a hedge
            # through the second flush slot can answer it.
            report = TraceReplayer(service, result_timeout_s=10.0).run(trace)
            after = service.snapshot().hedge
        finally:
            inner.release.set()
            service.close()
        assert inner.stalled.is_set()
        assert report.completed == 3 and report.errors == 0
        assert report.hedges_issued == after.issued - before.issued
        assert report.hedges_won == after.won - before.won
        assert report.hedges_issued >= 1
        assert report.hedges_won >= 1
