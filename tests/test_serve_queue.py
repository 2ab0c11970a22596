"""Tests of the async serving front end (repro.serve.queue / async_service)."""

import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    PredictionService,
    Priority,
    QueueFullError,
    RequestQueue,
    ServiceConfig,
)


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=21)).generate_blocks(24)


def _request(blocks, count=1, **kwargs):
    return PredictionRequest.of(blocks[:count], **kwargs)


class TestRequestQueue:
    def test_size_flush_is_immediate(self, blocks):
        queue = RequestQueue(max_blocks=64)
        for _ in range(4):
            queue.put(_request(blocks, 2))
        start = time.monotonic()
        entries, reason = queue.take_batch(max_blocks=8, max_wait_s=10.0)
        elapsed = time.monotonic() - start
        assert reason == "size"
        assert sum(e.request.num_blocks for e in entries) == 8
        assert elapsed < 1.0  # did not sit out the 10 s deadline

    def test_deadline_flush_single_straggler(self, blocks):
        """One lone request must flush at the deadline, not wait for company."""
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 1))
        start = time.monotonic()
        entries, reason = queue.take_batch(max_blocks=64, max_wait_s=0.05)
        elapsed = time.monotonic() - start
        assert reason == "deadline"
        assert len(entries) == 1
        assert 0.04 <= elapsed < 5.0

    def test_priority_jumps_full_bulk_queue(self, blocks):
        """A late high-priority request drains before earlier bulk traffic."""
        queue = RequestQueue(max_blocks=64)
        for index in range(6):
            queue.put(
                _request(blocks, 2, request_id=f"bulk-{index}"),
                priority=Priority.BULK,
            )
        queue.put(
            _request(blocks, 2, request_id="interactive"),
            priority=Priority.INTERACTIVE,
        )
        entries, _ = queue.take_batch(max_blocks=6, max_wait_s=10.0)
        assert entries[0].request.request_id == "interactive"
        # Remaining capacity goes to the oldest bulk requests, in order.
        assert [e.request.request_id for e in entries[1:]] == ["bulk-0", "bulk-1"]

    def test_ties_drain_in_arrival_order(self, blocks):
        queue = RequestQueue(max_blocks=64)
        for index in range(4):
            queue.put(_request(blocks, 1, request_id=f"r{index}"))
        entries, _ = queue.take_batch(max_blocks=64, max_wait_s=0.0)
        assert [e.request.request_id for e in entries] == ["r0", "r1", "r2", "r3"]

    def test_reject_policy(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="reject")
        queue.put(_request(blocks, 4))
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 1))
        assert queue.rejected == 1
        # Draining frees capacity again.
        queue.take_batch(max_blocks=64, max_wait_s=0.0)
        queue.put(_request(blocks, 1))

    def test_block_policy_times_out(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        queue.put(_request(blocks, 4))
        start = time.monotonic()
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 1), timeout=0.05)
        assert time.monotonic() - start >= 0.04

    def test_block_policy_unblocks_on_drain(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        queue.put(_request(blocks, 4))
        admitted = threading.Event()

        def producer():
            queue.put(_request(blocks, 2))
            admitted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # blocked: queue is full
        queue.take_batch(max_blocks=64, max_wait_s=0.0)
        assert admitted.wait(5.0)
        thread.join(timeout=5.0)

    def test_oldest_entry_never_starved_by_priorities(self, blocks):
        """Sustained high-priority load cannot starve the arrival-oldest."""
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 2, request_id="old-bulk"), priority=Priority.BULK)
        for index in range(10):
            queue.put(
                _request(blocks, 2, request_id=f"hot-{index}"),
                priority=Priority.INTERACTIVE,
            )
        entries, _ = queue.take_batch(max_blocks=8, max_wait_s=10.0)
        request_ids = [entry.request.request_id for entry in entries]
        assert "old-bulk" in request_ids  # always flushed, despite priority
        assert request_ids[0] == "hot-0"  # but priority still leads the batch

    def test_oversized_request_never_fits(self, blocks):
        queue = RequestQueue(max_blocks=4, policy="block")
        with pytest.raises(QueueFullError):
            queue.put(_request(blocks, 5))

    def test_oversized_flush_not_starved(self, blocks):
        """A request bigger than the flush bound is returned alone."""
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 12))
        entries, _ = queue.take_batch(max_blocks=8, max_wait_s=0.0)
        assert len(entries) == 1
        assert entries[0].request.num_blocks == 12

    def test_close_drains_then_signals_exit(self, blocks):
        queue = RequestQueue(max_blocks=64)
        queue.put(_request(blocks, 2))
        queue.close()
        entries, reason = queue.take_batch(max_blocks=64, max_wait_s=10.0)
        assert reason == "close"
        assert len(entries) == 1
        entries, reason = queue.take_batch(max_blocks=64, max_wait_s=10.0)
        assert (entries, reason) == ([], "close")
        with pytest.raises(RuntimeError):
            queue.put(_request(blocks, 1))

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            RequestQueue(max_blocks=0)
        with pytest.raises(ValueError):
            RequestQueue(max_blocks=4, policy="drop-oldest")


class TestAsyncPredictionService:
    def test_matches_direct_predictions(self, blocks):
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=8,
            async_options=AsyncOptions(max_latency_ms=5.0),
        )
        with AsyncPredictionService(service_config=config) as service:
            direct = service.service.model.predict(blocks)
            futures = [
                service.submit(
                    PredictionRequest.of(blocks[index : index + 3]),
                    priority=Priority.BULK if index % 2 else Priority.INTERACTIVE,
                )
                for index in range(0, len(blocks), 3)
            ]
            for index, future in enumerate(futures):
                response = future.result(timeout=30.0)
                for task, values in direct.items():
                    np.testing.assert_allclose(
                        response.predictions[task],
                        values[3 * index : 3 * index + 3],
                        rtol=1e-9,
                    )
        stats = service.stats
        assert stats.requests == len(futures)
        assert stats.blocks == len(blocks)
        assert stats.flushes >= 1
        assert stats.flushed_blocks == len(blocks)

    def test_deadline_bounds_straggler_latency(self, blocks):
        """With a huge batch size, a lone request still answers by deadline."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=4096,
            async_options=AsyncOptions(max_latency_ms=30.0),
        )
        with AsyncPredictionService(service_config=config) as service:
            service.predict_blocks(blocks[:1])  # warm every cache
            start = time.monotonic()
            service.predict_blocks(blocks[:1])
            elapsed = time.monotonic() - start
        assert service.stats.deadline_flushes >= 1
        # Generous bound: the deadline plus scheduling and service time.
        assert elapsed < 10.0

    def test_backpressure_reject_end_to_end(self, blocks):
        """With no dispatcher draining, the bounded queue rejects overflow."""
        options = AsyncOptions(max_queue_blocks=4, backpressure="reject")
        service = AsyncPredictionService(
            options, service_config=ServiceConfig(model_name="granite")
        )
        accepted = service.submit(PredictionRequest.of(blocks[:4]))
        with pytest.raises(QueueFullError):
            service.submit(PredictionRequest.of(blocks[4:6]))
        # Closing still answers the admitted request (flush-on-close).
        service.close()
        assert accepted.result(timeout=30.0).num_blocks == 4
        assert service.queue.rejected == 1
        assert service.stats.close_flushes == 1

    def test_error_propagates_to_future(self, blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        ) as service:
            future = service.submit(
                PredictionRequest.of(blocks[:1], tasks=("not-a-task",))
            )
            with pytest.raises(KeyError):
                future.result(timeout=30.0)

    def test_shared_service_left_open(self, blocks):
        shared = PredictionService(ServiceConfig(model_name="granite"))
        with AsyncPredictionService(service=shared) as front_end:
            front_end.predict_blocks(blocks[:2])
        # The sync service survives its async front end and keeps serving.
        assert shared.predict_blocks(blocks[:2])
        assert shared.stats.requests == 2

    def test_cancelled_future_is_skipped_not_fatal(self, blocks):
        """A client cancelling a queued future must not kill the dispatcher."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=8,
            async_options=AsyncOptions(max_latency_ms=5.0),
        )
        service = AsyncPredictionService(service_config=config)
        doomed = service.submit(PredictionRequest.of(blocks[:2]))
        kept = service.submit(PredictionRequest.of(blocks[2:4]))
        assert doomed.cancel()  # still queued: cancellable
        service.start()
        assert kept.result(timeout=30.0).num_blocks == 2
        # The dispatcher survived the cancelled entry and keeps serving.
        assert service.predict_blocks(blocks[:1])
        service.close()
        assert doomed.cancelled()

    def test_submit_after_close_raises(self, blocks):
        service = AsyncPredictionService(
            service_config=ServiceConfig(model_name="granite")
        )
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(PredictionRequest.of(blocks[:1]))
        with pytest.raises(RuntimeError):
            service.start()

    def test_conflicting_construction_rejected(self):
        with pytest.raises(ValueError):
            AsyncPredictionService(
                service=PredictionService(),
                service_config=ServiceConfig(),
            )

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            AsyncOptions(max_latency_ms=-1.0)
