"""Tests of the flush-deadline controllers (repro.serve.flush)."""

import time

import pytest

from repro.serve import (
    AdaptiveFlushController,
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    ServiceConfig,
    StaticFlushController,
    create_flush_controller,
    default_flush_policy,
)

MAX_S = 0.025  # the ceiling (25 ms)
MIN_S = 0.001  # the floor (1 ms)
BATCH = 64


def _adaptive(window_s=0.25) -> AdaptiveFlushController:
    return AdaptiveFlushController(MAX_S, MIN_S, BATCH, window_s=window_s)


class TestStaticController:
    def test_always_max_latency(self):
        controller = StaticFlushController(MAX_S)
        assert controller.deadline_s() == MAX_S
        assert controller.deadline_s(pending_blocks=10_000) == MAX_S
        controller.observe_arrival(500)  # ignored by design
        assert controller.deadline_s() == MAX_S
        assert controller.state()["deadline_ms"] == pytest.approx(MAX_S * 1e3)


class TestAdaptiveController:
    def test_idle_deadline_is_the_floor(self):
        controller = _adaptive()
        # No arrivals, nothing pending: waiting longer buys nothing.
        assert controller.deadline_s(0, now=100.0) == pytest.approx(MIN_S)

    def test_saturated_deadline_is_the_ceiling(self):
        controller = _adaptive()
        # Arrivals far above the batch-fill rate saturate the load at 1.
        controller.observe_arrival(10_000, now=100.0)
        assert controller.deadline_s(0, now=100.0) == pytest.approx(MAX_S)

    def test_deadline_scales_between_floor_and_ceiling(self):
        controller = _adaptive(window_s=1.0)
        # Half the batch-fill rate: 64 blocks / 25 ms = 2560 blocks/s, so
        # 1280 blocks over the 1 s window is load 0.5.
        controller.observe_arrival(1280, now=100.0)
        expected = MIN_S + 0.5 * (MAX_S - MIN_S)
        assert controller.deadline_s(0, now=100.0) == pytest.approx(expected)

    def test_pending_blocks_raise_the_load(self):
        controller = _adaptive()
        idle = controller.deadline_s(0, now=100.0)
        half = controller.deadline_s(BATCH // 2, now=100.0)
        full = controller.deadline_s(BATCH, now=100.0)
        assert idle < half < full == pytest.approx(MAX_S)

    def test_window_forgets_old_arrivals(self):
        controller = _adaptive(window_s=0.1)
        controller.observe_arrival(10_000, now=100.0)
        assert controller.deadline_s(0, now=100.05) == pytest.approx(MAX_S)
        # 200 ms later the burst is outside the window: idle again.
        assert controller.deadline_s(0, now=100.2) == pytest.approx(MIN_S)

    def test_state_reports_the_last_decision(self):
        controller = _adaptive()
        controller.observe_arrival(10_000, now=100.0)
        controller.deadline_s(0, now=100.0)
        state = controller.state()
        assert state["policy"] == "adaptive"
        assert state["load"] == pytest.approx(1.0)
        assert state["deadline_ms"] == pytest.approx(MAX_S * 1e3)
        assert state["min_deadline_ms"] == pytest.approx(MIN_S * 1e3)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            AdaptiveFlushController(-1.0, 0.0, BATCH)
        with pytest.raises(ValueError):
            AdaptiveFlushController(MAX_S, MAX_S * 2, BATCH)  # floor > ceiling
        with pytest.raises(ValueError):
            AdaptiveFlushController(MAX_S, MIN_S, 0)
        with pytest.raises(ValueError):
            AdaptiveFlushController(MAX_S, MIN_S, BATCH, window_s=0.0)


class TestFactoryAndConfig:
    def test_factory_builds_both_policies(self):
        assert isinstance(
            create_flush_controller("static", MAX_S, MIN_S, BATCH),
            StaticFlushController,
        )
        assert isinstance(
            create_flush_controller("adaptive", MAX_S, MIN_S, BATCH),
            AdaptiveFlushController,
        )
        with pytest.raises(ValueError):
            create_flush_controller("nagle", MAX_S, MIN_S, BATCH)

    def test_async_config_validates_policy(self):
        assert AsyncOptions(flush_policy="adaptive").flush_policy == "adaptive"
        with pytest.raises(ValueError):
            AsyncOptions(flush_policy="nagle")
        with pytest.raises(ValueError):
            AsyncOptions(
                flush_policy="adaptive", min_latency_ms=20.0, max_latency_ms=10.0
            )
        with pytest.raises(ValueError):
            AsyncOptions(min_latency_ms=-1.0)
        with pytest.raises(ValueError):
            AsyncOptions(controller_window_ms=0.0)

    def test_static_policy_allows_sub_floor_deadlines(self):
        """The adaptive floor must not invalidate static configs that were
        legal before it existed (min_latency_ms is ignored by static)."""
        assert AsyncOptions(max_latency_ms=0.5).max_latency_ms == 0.5
        assert AsyncOptions(max_latency_ms=0.0).max_latency_ms == 0.0

    def test_peek_deadline_does_not_clobber_last_decision(self):
        """Observers (snapshot) must not overwrite the dispatcher's last
        recorded deadline decision."""
        controller = _adaptive()
        controller.observe_arrival(10_000, now=100.0)
        controller.deadline_s(0, now=100.0)  # dispatcher: saturated
        recorded = controller.state()["deadline_ms"]
        # An observer peeks much later, when the window has gone idle.
        peeked = controller.peek_deadline_s(0, now=200.0)
        assert peeked == pytest.approx(MIN_S)
        assert controller.state()["deadline_ms"] == recorded

    def test_env_default_flush_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLUSH_POLICY", raising=False)
        assert default_flush_policy() == "static"
        monkeypatch.setenv("REPRO_FLUSH_POLICY", "adaptive")
        assert default_flush_policy() == "adaptive"
        assert AsyncOptions().flush_policy == "adaptive"


class TestAdaptiveEndToEnd:
    def test_idle_request_answers_far_below_the_ceiling(self):
        """A lone request under the adaptive policy must not sit out the
        full ``max_latency_ms`` the static policy would charge it."""
        from repro.data.synthetic import BlockGenerator

        blocks = BlockGenerator(seed=3).generate_blocks(2)
        config = AsyncOptions(
            max_latency_ms=500.0,
            flush_policy="adaptive",
            min_latency_ms=1.0,
        )
        with AsyncPredictionService(
            config,
            service_config=ServiceConfig(model_name="granite", max_batch_size=64),
        ) as service:
            service.predict_blocks(blocks)  # warm model + caches
            time.sleep(0.3)  # let the warm-up burst leave the window
            start = time.monotonic()
            future = service.submit(PredictionRequest.of(blocks))
            future.result(timeout=30.0)
            elapsed = time.monotonic() - start
            snapshot = service.snapshot()
        # Static would wait the full 500 ms deadline before flushing; the
        # adaptive controller should flush the idle queue almost at once.
        assert elapsed < 0.25
        assert snapshot.flush.policy == "adaptive"
        assert snapshot.flush.deadline_p50_ms <= 500.0

    def test_snapshot_exposes_controller_and_queue(self):
        from repro.data.synthetic import BlockGenerator

        blocks = BlockGenerator(seed=4).generate_blocks(4)
        config = AsyncOptions(max_latency_ms=5.0, flush_policy="adaptive")
        with AsyncPredictionService(
            config, service_config=ServiceConfig(model_name="granite")
        ) as service:
            service.predict_blocks(blocks)
            snapshot = service.snapshot()
        assert snapshot.queue.submitted_requests == 1
        assert snapshot.flush.flushes >= 1
        assert snapshot.queue.depth_blocks == 0
        assert snapshot.queue.cancelled_drops == 0
        assert snapshot.queue.expired_drops == 0
        assert 0.0 <= snapshot.flush.current_deadline_ms <= 5.0
        assert snapshot.controller["policy"] == "adaptive"
        assert len(service.stats.flush_deadlines_ms) == len(
            service.stats.queue_depths
        )
