"""Sustained-traffic serving: async front end vs. sync submit, hash sharding.

The async/queued front end exists for the production traffic shape: many
clients submitting *small* requests of mostly *novel* blocks (a compiler
autotuner streams new candidate blocks; only some repeat).  A synchronous
``submit()`` loop pays a tiny forward pass and, in sharded mode, an IPC
round-trip per request; the async dispatcher coalesces many requests into
dense micro-batch flushes that the worker shards crunch in parallel.

Three measurements over the same hash-sharded two-worker service:

* **sync** — the steady-state blocks/sec of a request-at-a-time
  synchronous submit loop (the only safe way to drive the sync service);
* **async burst** — everything enqueued at once: capacity must be at least
  the sync rate (this is the throughput half of the acceptance bar);
* **async paced at the sync rate** — the offered load the sync service can
  just sustain, now through the queue: the p99 flush wait must stay within
  2x ``max_latency_ms`` (the deadline half of the acceptance bar).

A separate test checks shard affinity: under hash sharding every worker's
caches own a stable partition of the block key space, so per-worker hit
rates must measurably beat round-robin dealing on repeated traffic — both
single-producer and with 8 concurrent producers over a Zipf-skewed block
popularity mix.

The load-adaptive serving additions are benchmarked here too:

* **adaptive vs. static flushing** on the same bursty workload — the
  adaptive policy must cut p99 enqueue->response latency on the idle-heavy
  phase while sustaining the static policy's blocks/s when saturated;
* **elastic scaling** N -> N+1 -> N under live load — no request lost,
  consistent-ring key movement ~1/(N+1), and per-worker cache hit rates
  recovering once the pool returns to its original size;
* **cancellation goodput** — a producer abandoning half its in-flight
  requests must complete the wanted half measurably faster than a
  no-cancellation baseline, because dropped requests never reach a worker.

Wall-clock margins follow the repo convention: loose at the default quick
scale, tightening when ``REPRO_BENCH_STEPS`` asks for a paper-scale run.
"""

import os
import random
import threading
import time

import pytest

from repro.data.synthetic import BlockGenerator
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    HashRing,
    PredictionRequest,
    PredictionService,
    ServiceConfig,
    shard_key,
)

REQUEST_SIZE = 2
NUM_REQUESTS = 200  # per measurement phase
DEADLINE_MS = 25.0
NUM_WORKERS = 2
NUM_PRODUCERS = 4
REQUESTS_PER_PRODUCER = 50
#: The higher-producer-count scenario (skewed-popularity test).
NUM_PRODUCERS_SKEW = 8


def _throughput_margin() -> float:
    """Wall-clock comparison margin, scaled with the benchmark budget.

    Two same-workload runs on a busy CI box differ by several percent of
    noise; at the default quick scale the saturated-phase comparison keeps
    a loose 0.85x margin, tightening to near-strict when REPRO_BENCH_STEPS
    asks for a paper-scale run (longer runs, less relative noise).
    """
    steps = int(os.environ.get("REPRO_BENCH_STEPS", "0") or 0)
    return 0.95 if steps >= 1000 else 0.85


def _requests(block_texts, start):
    """NUM_REQUESTS small requests of novel blocks, starting at ``start``."""
    return [
        PredictionRequest.of(block_texts[index : index + REQUEST_SIZE])
        for index in range(start, start + NUM_REQUESTS * REQUEST_SIZE, REQUEST_SIZE)
    ]


@pytest.fixture(scope="module")
def block_texts():
    count = 20 + 3 * NUM_REQUESTS * REQUEST_SIZE  # warmup + three phases
    blocks = BlockGenerator(seed=41).generate_blocks(count)
    return [block.canonical_text() for block in blocks]


def test_async_sustains_sync_throughput_within_deadline(block_texts):
    config = ServiceConfig(
        model_name="granite", max_batch_size=64, num_workers=NUM_WORKERS
    )
    async_config = AsyncOptions(max_latency_ms=DEADLINE_MS, max_queue_blocks=8192)
    with PredictionService(config).warm_start() as service:
        for request in _requests(block_texts[:20], 0)[: 20 // REQUEST_SIZE]:
            service.submit([request])  # warm code paths, not the caches

        # Synchronous baseline: every request is its own submit/flush.
        sync_requests = _requests(block_texts, 20)
        start = time.perf_counter()
        for request in sync_requests:
            service.submit([request])
        sync_seconds = time.perf_counter() - start
        sync_rate = NUM_REQUESTS * REQUEST_SIZE / sync_seconds

        with AsyncPredictionService(async_config, service=service) as front_end:
            # Burst capacity: enqueue everything, drain through the queue.
            burst = _requests(block_texts, 20 + NUM_REQUESTS * REQUEST_SIZE)
            start = time.perf_counter()
            futures = [front_end.submit(request) for request in burst]
            for future in futures:
                future.result(timeout=300.0)
            burst_seconds = time.perf_counter() - start
            burst_rate = NUM_REQUESTS * REQUEST_SIZE / burst_seconds

            # Deadline under load: offer the sync service's own steady-state
            # rate through the queue and watch the flush waits.  Snapshot
            # the cumulative counters so the report below is paced-only.
            front_end.stats.flush_waits.clear()
            burst_flushes = front_end.stats.flushes
            burst_size = front_end.stats.size_flushes
            burst_deadline = front_end.stats.deadline_flushes
            burst_blocks = front_end.stats.flushed_blocks
            paced = _requests(block_texts, 20 + 2 * NUM_REQUESTS * REQUEST_SIZE)
            interarrival = REQUEST_SIZE / sync_rate
            futures = []
            next_send = time.perf_counter()
            for request in paced:
                delay = next_send - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(front_end.submit(request))
                next_send += interarrival
            for future in futures:
                future.result(timeout=300.0)
            stats = front_end.stats

    p50 = stats.flush_wait_percentile(0.50) * 1e3
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print("--- sustained traffic (novel blocks, 2 hash-sharded workers) ---")
    print(f"sync submit loop:   {sync_rate:8.0f} blocks/s ({sync_seconds:6.3f}s)")
    print(
        f"async burst:        {burst_rate:8.0f} blocks/s ({burst_seconds:6.3f}s)"
        f"  {burst_rate / sync_rate:5.2f}x"
    )
    paced_flushes = stats.flushes - burst_flushes
    print(
        f"async paced @ sync rate: {paced_flushes} flushes "
        f"(size={stats.size_flushes - burst_size}, "
        f"deadline={stats.deadline_flushes - burst_deadline}), "
        f"mean {(stats.flushed_blocks - burst_blocks) / max(paced_flushes, 1):.1f} "
        f"blocks/flush"
    )
    print(f"flush wait: p50={p50:.2f} ms  p99={p99:.2f} ms (deadline {DEADLINE_MS} ms)")

    assert burst_rate >= sync_rate, (
        f"async front end sustains only {burst_rate:.0f} blocks/s vs "
        f"{sync_rate:.0f} blocks/s synchronous"
    )
    assert p99 <= 2.0 * DEADLINE_MS, (
        f"p99 flush wait {p99:.2f} ms exceeds 2x the {DEADLINE_MS} ms deadline "
        f"at the sync-equivalent offered load"
    )


def test_latency_bounded_coalescing_on_warm_traffic(block_texts):
    """Warm repeated traffic still coalesces densely and meets the deadline."""
    texts = block_texts[:64]
    config = AsyncOptions(max_latency_ms=DEADLINE_MS, max_queue_blocks=8192)
    with AsyncPredictionService(
        config, service_config=ServiceConfig(model_name="granite", max_batch_size=64)
    ) as front_end:
        front_end.predict_blocks(texts)  # fill every cache
        futures = [
            front_end.submit(PredictionRequest.of(texts[index : index + REQUEST_SIZE]))
            for index in range(0, len(texts) - REQUEST_SIZE, REQUEST_SIZE)
            for _ in range(10)
        ]
        for future in futures:
            future.result(timeout=60.0)
        stats = front_end.stats
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print(
        f"warm traffic: {stats.flushes} flushes, "
        f"mean {stats.mean_flush_blocks:.1f} blocks/flush, p99 wait {p99:.2f} ms"
    )
    assert stats.mean_flush_blocks >= 4 * REQUEST_SIZE  # real coalescing happened
    assert p99 <= 2.0 * DEADLINE_MS


@pytest.mark.parametrize("rounds", [4])
def test_hash_sharding_beats_round_robin_cache_affinity(block_texts, rounds):
    """Per-worker cache hit rates: stable hashing > round-robin dealing."""
    population = block_texts[:64]
    rates = {}
    for mode in ("hash", "round_robin"):
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=16,
            num_workers=NUM_WORKERS,
            sharding=mode,
        )
        rng = random.Random(13)
        with PredictionService(config) as service:
            for _ in range(rounds):
                # Real traffic never repeats the exact same request
                # composition, so reshuffle the population every round:
                # round-robin dealing then scatters each block across
                # workers while hashing keeps it pinned.
                shuffled = population[:]
                rng.shuffle(shuffled)
                for start in range(0, len(shuffled), 8):
                    service.submit(
                        [PredictionRequest.of(shuffled[start : start + 8])]
                    )
            worker_stats = service._pool.worker_stats()
        rates[mode] = [s.cache.prediction_hit_rate for s in worker_stats]

    print()
    print(f"--- per-worker prediction-cache hit rates, {rounds} shuffled rounds ---")
    for mode, mode_rates in rates.items():
        print(f"{mode:<12} {['%.3f' % rate for rate in mode_rates]}")

    hash_rate = sum(rates["hash"]) / len(rates["hash"])
    rr_rate = sum(rates["round_robin"]) / len(rates["round_robin"])
    assert hash_rate > rr_rate + 0.05, (
        f"hash sharding's mean per-worker prediction hit rate ({hash_rate:.3f}) "
        f"is not measurably above round-robin's ({rr_rate:.3f})"
    )


def test_multi_producer_no_loss_within_deadline():
    """Four concurrent threaded clients: no request loss, p99 wait bounded.

    The async front end's submit path is hit from ``NUM_PRODUCERS`` threads
    at once, each pacing its own novel-block traffic so the aggregate
    offered load matches the sync service's measured steady-state rate.
    Every future must resolve with its own request's blocks (no loss, no
    cross-wiring) and the p99 flush wait must stay within 2x the deadline —
    the same bar the single-producer test holds.
    """
    warmup = 20
    total_requests = NUM_PRODUCERS * REQUESTS_PER_PRODUCER
    calibration = 50
    blocks = BlockGenerator(seed=77).generate_blocks(
        warmup + (calibration + total_requests) * REQUEST_SIZE
    )
    texts = [block.canonical_text() for block in blocks]

    config = ServiceConfig(
        model_name="granite", max_batch_size=64, num_workers=NUM_WORKERS
    )
    async_config = AsyncOptions(max_latency_ms=DEADLINE_MS, max_queue_blocks=8192)
    with PredictionService(config).warm_start() as service:
        for start in range(0, warmup, REQUEST_SIZE):
            service.submit([PredictionRequest.of(texts[start : start + REQUEST_SIZE])])

        # Calibrate the offered load: the sync service's own sustained rate.
        start_time = time.perf_counter()
        for index in range(calibration):
            begin = warmup + index * REQUEST_SIZE
            service.submit([PredictionRequest.of(texts[begin : begin + REQUEST_SIZE])])
        sync_rate = calibration * REQUEST_SIZE / (time.perf_counter() - start_time)
        interarrival = NUM_PRODUCERS * REQUEST_SIZE / sync_rate

        with AsyncPredictionService(async_config, service=service) as front_end:
            results: dict = {}
            errors: list = []
            base = warmup + calibration * REQUEST_SIZE

            def produce(producer: int) -> None:
                futures = []
                next_send = time.perf_counter()
                try:
                    for index in range(REQUESTS_PER_PRODUCER):
                        offset = base + (
                            producer * REQUESTS_PER_PRODUCER + index
                        ) * REQUEST_SIZE
                        request = PredictionRequest.of(
                            texts[offset : offset + REQUEST_SIZE],
                            request_id=f"producer-{producer}-{index}",
                        )
                        delay = next_send - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        futures.append((request.request_id, front_end.submit(request)))
                        next_send += interarrival
                    for request_id, future in futures:
                        results[request_id] = future.result(timeout=120.0)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append((producer, error))

            producers = [
                threading.Thread(target=produce, args=(producer,), daemon=True)
                for producer in range(NUM_PRODUCERS)
            ]
            start_time = time.perf_counter()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=300.0)
            elapsed = time.perf_counter() - start_time
            stats = front_end.stats

    assert not errors, f"producer threads failed: {errors}"
    # No request loss: every submitted request resolved, with its own size.
    assert len(results) == total_requests
    for request_id, response in results.items():
        assert response.request_id == request_id
        assert response.num_blocks == REQUEST_SIZE
    assert stats.requests == total_requests

    p50 = stats.flush_wait_percentile(0.50) * 1e3
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print(
        f"--- {NUM_PRODUCERS} producers x {REQUESTS_PER_PRODUCER} requests "
        f"@ {sync_rate:.0f} blocks/s aggregate ---"
    )
    print(
        f"{total_requests * REQUEST_SIZE / elapsed:8.0f} blocks/s served, "
        f"{stats.flushes} flushes, mean {stats.mean_flush_blocks:.1f} blocks/flush"
    )
    print(f"flush wait: p50={p50:.2f} ms  p99={p99:.2f} ms (deadline {DEADLINE_MS} ms)")
    assert p99 <= 2.0 * DEADLINE_MS, (
        f"p99 flush wait {p99:.2f} ms exceeds 2x the {DEADLINE_MS} ms deadline "
        f"under {NUM_PRODUCERS} concurrent producers"
    )


# --------------------------------------------------------------------- #
# Adaptive vs. static flushing on bursty traffic.
# --------------------------------------------------------------------- #

IDLE_REQUESTS = 60
IDLE_INTERARRIVAL_S = 0.030  # slower than the 25 ms deadline: idle-heavy
SATURATED_REQUESTS = 200  # per repeat, submitted all at once


def _percentile(samples, quantile):
    ordered = sorted(samples)
    index = min(int(quantile * len(ordered)), len(ordered) - 1)
    return ordered[index]


def _run_flush_policy(policy, idle_runs, saturated_runs, warm_texts):
    """One policy's measurement over the shared bursty workload.

    Returns ``(idle_p99s_s, idle_p50s_s, best_saturated_rate, snapshot)``
    with one idle percentile pair per repeat.  A fresh in-process service
    per policy keeps the comparison cache-fair; the same block texts make
    the workloads identical.  Both phases repeat (best-of-N) because
    single-shot wall-clock tails on a busy CI box are scheduler noise, not
    policy behaviour.
    """
    async_config = AsyncOptions(
        max_latency_ms=DEADLINE_MS,
        flush_policy=policy,
        min_latency_ms=1.0,
        max_queue_blocks=8192,
    )
    idle_p99s, idle_p50s = [], []
    with AsyncPredictionService(
        async_config,
        service_config=ServiceConfig(model_name="granite", max_batch_size=64),
    ) as front_end:
        front_end.predict_blocks(warm_texts)  # warm model + code paths
        time.sleep(0.3)  # let the warm-up burst leave the controller window

        # Idle-heavy phase: sparse lone requests.  Under the static policy
        # each one sits out the full deadline; adaptive should flush fast.
        for idle_texts in idle_runs:
            latencies = []
            futures = []
            next_send = time.perf_counter()
            for index in range(0, len(idle_texts), REQUEST_SIZE):
                delay = next_send - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at = time.perf_counter()
                future = front_end.submit(
                    PredictionRequest.of(idle_texts[index : index + REQUEST_SIZE])
                )
                future.add_done_callback(
                    lambda _, sent_at=sent_at: latencies.append(
                        time.perf_counter() - sent_at
                    )
                )
                futures.append(future)
                next_send += IDLE_INTERARRIVAL_S
            for future in futures:
                future.result(timeout=300.0)
            # result() can return before the last done callback has
            # appended its sample (set_result notifies waiters first);
            # join on the sample count so no latency goes missing.
            join_deadline = time.monotonic() + 5.0
            while len(latencies) < len(futures) and time.monotonic() < join_deadline:
                time.sleep(0.001)
            assert len(latencies) == len(futures)
            idle_p99s.append(_percentile(latencies, 0.99))
            idle_p50s.append(_percentile(latencies, 0.50))

        # Saturated phase: everything enqueued at once; size flushes must
        # dominate under either policy.
        best_rate = 0.0
        for run_texts in saturated_runs:
            start = time.perf_counter()
            futures = [
                front_end.submit(
                    PredictionRequest.of(run_texts[index : index + REQUEST_SIZE])
                )
                for index in range(0, len(run_texts), REQUEST_SIZE)
            ]
            for future in futures:
                future.result(timeout=300.0)
            rate = len(run_texts) / (time.perf_counter() - start)
            best_rate = max(best_rate, rate)
        snapshot = front_end.snapshot()
    return idle_p99s, idle_p50s, best_rate, snapshot


def test_adaptive_flush_beats_static_on_bursty_traffic():
    """The tentpole acceptance bar: on the same bursty workload the
    adaptive policy must cut idle-phase p99 enqueue->response latency
    versus static while sustaining the static policy's saturated
    throughput."""
    repeats = 2
    idle_run_size = IDLE_REQUESTS * REQUEST_SIZE
    run_size = SATURATED_REQUESTS * REQUEST_SIZE
    blocks = BlockGenerator(seed=97).generate_blocks(
        16 + repeats * (idle_run_size + run_size)
    )
    texts = [block.canonical_text() for block in blocks]
    warm_texts = texts[:16]
    idle_texts = texts[16 : 16 + repeats * idle_run_size]
    saturated_texts = texts[16 + repeats * idle_run_size :]
    idle_runs = [
        idle_texts[run * idle_run_size : (run + 1) * idle_run_size]
        for run in range(repeats)
    ]
    saturated_runs = [
        saturated_texts[run * run_size : (run + 1) * run_size]
        for run in range(repeats)
    ]

    results = {}
    for policy in ("static", "adaptive"):
        results[policy] = _run_flush_policy(
            policy, idle_runs, saturated_runs, warm_texts
        )

    print()
    print("--- bursty traffic: static vs adaptive flush policy ---")
    for policy, (p99s, p50s, rate, snapshot) in results.items():
        print(
            f"{policy:<9} idle p50={min(p50s) * 1e3:7.2f} ms  "
            f"p99={min(p99s) * 1e3:7.2f} ms (runs: "
            f"{['%.1f' % (p * 1e3) for p in p99s]})   "
            f"saturated {rate:8.0f} blocks/s   "
            f"flush deadline p50={snapshot.flush.deadline_p50_ms:.2f} ms"
        )

    # Best-of-N on both sides: a single scheduler stall in one run must not
    # decide the comparison in either direction.
    static_p99 = min(results["static"][0])
    adaptive_p99 = min(results["adaptive"][0])
    static_rate = results["static"][2]
    adaptive_rate = results["adaptive"][2]
    margin = _throughput_margin()

    # Idle-heavy phase: the static policy charges every lone request the
    # full deadline; adaptive must be decisively below it, not merely tied.
    assert adaptive_p99 < 0.8 * static_p99, (
        f"adaptive idle-phase p99 ({adaptive_p99 * 1e3:.2f} ms) is not below "
        f"the static policy's ({static_p99 * 1e3:.2f} ms)"
    )
    # Saturated phase: size flushes dominate either way; adaptive must
    # sustain the static policy's throughput (loose margin at quick scale).
    assert adaptive_rate >= margin * static_rate, (
        f"adaptive saturated throughput ({adaptive_rate:.0f} blocks/s) fell "
        f"below {margin:.2f}x the static policy's ({static_rate:.0f} blocks/s)"
    )


# --------------------------------------------------------------------- #
# Elastic scaling under live load.
# --------------------------------------------------------------------- #


def _hit_rates_from(stats_before, stats_after):
    """Per-worker prediction hit rates over the window between snapshots."""
    rates = []
    for before, after in zip(stats_before, stats_after):
        hits = after.cache.prediction_hits - before.cache.prediction_hits
        misses = after.cache.prediction_misses - before.cache.prediction_misses
        total = hits + misses
        rates.append(hits / total if total else 0.0)
    return rates


def test_elastic_scaling_no_loss_and_affinity_recovery():
    """The elasticity acceptance bar: scaling N -> N+1 -> N under load
    loses no requests, moves only ~1/(N+1) of the key space (all of it to
    the new worker), and the surviving workers' cache hit rates recover
    once the pool is back at N."""
    population = [
        block.canonical_text()
        for block in BlockGenerator(seed=103).generate_blocks(64)
    ]
    config = ServiceConfig(
        model_name="granite", max_batch_size=16, num_workers=NUM_WORKERS
    )
    rng = random.Random(19)

    def drive_round(service):
        shuffled = population[:]
        rng.shuffle(shuffled)
        for start in range(0, len(shuffled), 4):
            service.submit([PredictionRequest.of(shuffled[start : start + 4])])

    with PredictionService(config).warm_start() as service:
        for _ in range(3):
            drive_round(service)  # warm every worker's caches
        warm_stats = service.worker_stats()

        # Scale up and back down while a producer thread keeps submitting.
        results = []
        errors = []

        def produce():
            try:
                for _ in range(6):
                    shuffled = population[:]
                    random.Random(23).shuffle(shuffled)
                    for start in range(0, len(shuffled), 4):
                        request = PredictionRequest.of(shuffled[start : start + 4])
                        results.append(service.submit([request])[0])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.05)
        service.scale_workers(NUM_WORKERS + 1)
        time.sleep(0.2)
        service.scale_workers(NUM_WORKERS)
        producer.join(timeout=300.0)
        assert not producer.is_alive()

        resized_stats = service.worker_stats()
        for _ in range(2):
            drive_round(service)  # post-reshard traffic: caches still warm?
        recovered_stats = service.worker_stats()
        events = list(service._pool.resize_events)

    # No request lost or mangled while the pool resized under load.
    assert not errors, f"submissions failed during resize: {errors}"
    assert len(results) == 6 * len(population) // 4
    assert all(response.num_blocks == 4 for response in results)
    assert [event["action"] for event in events] == ["add", "remove"]

    # Consistent-ring movement: growing to N+1 moves ~1/(N+1) of the
    # population, every moved key landing on the new worker only.
    before_ring = HashRing(nodes=range(NUM_WORKERS))
    after_ring = HashRing(nodes=range(NUM_WORKERS + 1))
    moved = 0
    for text in population:
        old = before_ring.owner(shard_key(text))
        new = after_ring.owner(shard_key(text))
        if old != new:
            moved += 1
            assert new == NUM_WORKERS, "a key moved to a pre-existing worker"
    moved_fraction = moved / len(population)
    assert 0.0 < moved_fraction <= 2.0 / (NUM_WORKERS + 1)

    # Cache-affinity recovery: back at N workers the ring topology is the
    # original, so the surviving workers answer the same partition from
    # their still-warm caches.
    warm_rates = [entry.cache.prediction_hit_rate for entry in warm_stats]
    recovered_rates = _hit_rates_from(resized_stats, recovered_stats)
    print()
    print(f"--- elastic {NUM_WORKERS} -> {NUM_WORKERS + 1} -> {NUM_WORKERS} ---")
    print(f"moved keys: {moved}/{len(population)} ({moved_fraction:.2f})")
    print(f"pre-resize cumulative hit rates: {['%.3f' % r for r in warm_rates]}")
    print(f"post-reshard window hit rates:   {['%.3f' % r for r in recovered_rates]}")
    mean_warm = sum(warm_rates) / len(warm_rates)
    mean_recovered = sum(recovered_rates) / len(recovered_rates)
    assert mean_recovered >= 0.75 * mean_warm, (
        f"post-reshard hit rate {mean_recovered:.3f} did not recover to "
        f"within 0.75x of the pre-reshard {mean_warm:.3f}"
    )


# --------------------------------------------------------------------- #
# Cancellation goodput.
# --------------------------------------------------------------------- #


def _goodput_run(texts, abandon):
    """Submits ``len(texts)/2``-request backlog, optionally abandoning half.

    Every odd request is the "abandoned" half.  Returns the goodput in
    blocks/s over the *wanted* (even, never-cancelled) requests, measured
    from dispatcher start to the last wanted completion.
    """
    service = AsyncPredictionService(
        AsyncOptions(max_latency_ms=DEADLINE_MS, max_queue_blocks=65536),
        service_config=ServiceConfig(model_name="granite", max_batch_size=32),
    )
    wanted, abandoned = [], []
    for index in range(0, len(texts), REQUEST_SIZE):
        future = service.submit(
            PredictionRequest.of(texts[index : index + REQUEST_SIZE])
        )
        if (index // REQUEST_SIZE) % 2:
            abandoned.append(future)
        else:
            wanted.append(future)
    if abandon:
        for future in abandoned:
            assert future.cancel()
    start = time.perf_counter()
    service.start()
    for future in wanted:
        future.result(timeout=600.0)
    elapsed = time.perf_counter() - start
    if not abandon:
        for future in abandoned:
            future.result(timeout=600.0)
    snapshot = service.snapshot()
    service.close()
    goodput = len(wanted) * REQUEST_SIZE / elapsed
    return goodput, snapshot


def test_cancellation_increases_goodput():
    """The cancellation acceptance bar: abandoning 50% of the in-flight
    requests must measurably raise the goodput (completed non-cancelled
    blocks/s) over the no-cancellation baseline, because dropped requests
    never consume prediction time."""
    num_requests = 150  # per half; the backlog is 2x this
    # One corpus for both legs: each leg gets a fresh service (no cache
    # carryover), so identical blocks make the workloads identical and the
    # measured difference purely the cancellation effect.
    texts = [
        block.canonical_text()
        for block in BlockGenerator(seed=113).generate_blocks(
            2 * num_requests * REQUEST_SIZE
        )
    ]
    legs = {}
    for leg, abandon in (("baseline", False), ("cancelling", True)):
        legs[leg] = _goodput_run(texts, abandon)

    baseline, baseline_snapshot = legs["baseline"]
    cancelling, cancelling_snapshot = legs["cancelling"]
    print()
    print("--- goodput with 50% of requests abandoned in-queue ---")
    print(f"baseline (no cancels): {baseline:8.0f} wanted blocks/s")
    print(
        f"cancelling:            {cancelling:8.0f} wanted blocks/s "
        f"({cancelling / baseline:.2f}x), "
        f"{cancelling_snapshot.queue.cancelled_drops} drops"
    )
    assert baseline_snapshot.queue.cancelled_drops == 0
    assert cancelling_snapshot.queue.cancelled_drops == num_requests
    # The cancelled half never reaches a worker, so the wanted half should
    # finish in roughly half the time; demand a conservative 1.3x.
    assert cancelling >= 1.3 * baseline, (
        f"goodput with cancellation ({cancelling:.0f} blocks/s) is only "
        f"{cancelling / baseline:.2f}x the baseline ({baseline:.0f} blocks/s)"
    )


# --------------------------------------------------------------------- #
# Many producers over a skewed (Zipf-like) popularity mix.
# --------------------------------------------------------------------- #


def test_hash_sharding_keeps_hit_rate_edge_under_skewed_producers():
    """8 concurrent producers sampling blocks from a Zipf-like popularity
    distribution: hash sharding's per-worker cache-affinity edge over
    round-robin dealing must survive both the concurrency and the skew."""
    population = [
        block.canonical_text()
        for block in BlockGenerator(seed=131).generate_blocks(64)
    ]
    # Zipf-like: popularity ~ 1/rank.  The head blocks recur constantly,
    # the tail rarely — the traffic shape of a real autotuner corpus.
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    # Few enough repeats that round-robin's duplicated first-miss cost (a
    # block must miss once per worker it is dealt to) stays visible next to
    # hash sharding's single miss per block.
    requests_per_producer = 24
    rates = {}
    flushes = {}
    for mode in ("hash", "round_robin"):
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=16,
            num_workers=NUM_WORKERS,
            sharding=mode,
        )
        async_config = AsyncOptions(max_latency_ms=DEADLINE_MS, max_queue_blocks=8192)
        with AsyncPredictionService(async_config, service_config=config) as front_end:
            errors = []

            def produce(producer_index, front_end=front_end, errors=errors):
                rng = random.Random(500 + producer_index)
                try:
                    futures = [
                        front_end.submit(
                            PredictionRequest.of(
                                rng.choices(population, weights=weights, k=4)
                            )
                        )
                        for _ in range(requests_per_producer)
                    ]
                    for future in futures:
                        future.result(timeout=300.0)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append((producer_index, error))

            producers = [
                threading.Thread(target=produce, args=(index,), daemon=True)
                for index in range(NUM_PRODUCERS_SKEW)
            ]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=300.0)
            assert not errors, f"producers failed under {mode}: {errors}"
            worker_stats = front_end.service.worker_stats()
            flushes[mode] = front_end.stats.flushes
        rates[mode] = [entry.cache.prediction_hit_rate for entry in worker_stats]

    print()
    print(
        f"--- {NUM_PRODUCERS_SKEW} producers, Zipf-skewed popularity, "
        f"{NUM_WORKERS} workers ---"
    )
    for mode, mode_rates in rates.items():
        print(
            f"{mode:<12} per-worker hit rates "
            f"{['%.3f' % rate for rate in mode_rates]} "
            f"({flushes[mode]} flushes)"
        )
    hash_rate = sum(rates["hash"]) / len(rates["hash"])
    rr_rate = sum(rates["round_robin"]) / len(rates["round_robin"])
    assert hash_rate > rr_rate + 0.05, (
        f"hash sharding's mean per-worker hit rate ({hash_rate:.3f}) lost its "
        f"edge over round-robin ({rr_rate:.3f}) under skewed concurrent load"
    )
