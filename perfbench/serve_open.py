"""``serve-open-mixed``: open-loop serving with a cold share.

One generator (the main thread) sends single-block requests on a fixed
arrival schedule: Zipf-skewed over a small hot key set with bursts, built
with :func:`repro.serve.replay.synthesize_trace`, and exactly
``COLD_SHARE`` of the requests replaced by blocks never sent before.  The
target is an in-process :class:`~repro.serve.AsyncPredictionService` over
one worker process running paper-scale GRANITE in float32.  Queueing,
flushing and the worker pipe do most of the work; the cold share puts
model compute on the tail.

Every request is timed from the moment it was due, not from when the
generator got to it, so a stalled generator shows as latency.  (The
repository's ``TraceReplayer.run`` stamps ``submitted_at`` after its
sleep and would hide such stalls; it is not used here.)

Phases: ``low`` at ``LOW_RPS`` and ``high`` at ``HIGH_RPS``, both fixed
(set from measurements of the parent commit, never derived at run time).
At ``low`` a request almost never waits behind a cold block; at ``high``
cold blocks hold up the hot requests queued behind them.  Lanes:
``primary`` is the ``high`` phase and ``secondary`` the ``low`` phase; each
reports its latency and its goodput: requests answered correctly within
``SLO_P99_MS`` per second, from the first request's due time to the last
answer.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import (
    WORKER_SETUP_REPEATS,
    PhaseCounts,
    metric,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from perfbench.inputs import DistinctTexts
from perfbench.layers import Instrumentation, serving_deltas
from perfbench.tracer import Tracer

HOT_KEYS = 64
ZIPF_ALPHA = 1.1
BURSTINESS = 4.0
BURST_FRACTION = 0.2
#: At 10% cold requests the worker spent most of the time on cold blocks
#: at 150 rps, and p50 and p99 moved by 25-60% between runs of the same
#: code; at 2% both rates stay below the knee of the cold compute.
COLD_SHARE = 0.02
#: Length of every cold block.  The p99 of a phase is set by the cold
#: requests; with the generator's long-tailed lengths it followed the few
#: largest cold blocks of a seed and moved by 20-60% between seeds.
#: sweep-distinct covers the whole length distribution.
COLD_INSTRUCTIONS = 8
LOW_RPS = 100.0
HIGH_RPS = 300.0
#: The latency limit of ``slo_share`` and of the goodput rates.
SLO_P99_MS = 250.0
#: Phase lengths as shares of ``--seconds``.
LOW_SHARE, HIGH_SHARE = 0.4, 0.6
#: A run whose generator sent later than this at p99 did not keep its
#: schedule and is reported as invalid.
GEN_LAG_LIMIT_MS = 100.0
#: How long :func:`drive` waits for the last answers of a phase.
DRAIN_TIMEOUT_S = 30.0
#: Answered predictions are compared with ``model.predict`` on every hot
#: key and this many cold texts.
CHECK_TEXTS = 96


def service_config():
    """Every setting the program would otherwise default or read from the environment."""
    from repro.serve import AsyncOptions, ServiceConfig

    return ServiceConfig(
        model_name="granite",
        small_model=False,
        seed=0,
        max_batch_size=64,
        num_workers=1,
        inference_dtype="float32",
        fault_plan=None,
        async_options=AsyncOptions(
            max_latency_ms=1.0,
            flush_policy="static",
            max_queue_blocks=4096,
            backpressure="reject",
        ),
    )


class Schedule:
    """Arrival offsets and block texts of one phase."""

    def __init__(self, offsets: List[float], texts: List[str], cold: List[bool]) -> None:
        self.offsets, self.texts, self.cold = offsets, texts, cold


def hot_keys(seed: int) -> List[str]:
    """The small, distinct key set the Zipf schedule draws from (rank order)."""
    return DistinctTexts(seed).take(HOT_KEYS)


class Inputs:
    def __init__(self, seed: int) -> None:
        self.hot = hot_keys(seed)
        self.cold = DistinctTexts(seed + 1, instructions=COLD_INSTRUCTIONS)
        self.cold.seen.update(self.hot)
        self.seed = seed
        self.phases = 0

    def schedule(self, rate: float, seconds: float) -> Schedule:
        from repro.serve.replay import synthesize_trace

        self.phases += 1
        phase_seed = self.seed * 1000 + self.phases
        count = max(1, int(round(rate * seconds)))
        trace = synthesize_trace(
            count, seed=phase_seed, block_universe=self.hot, num_keys=HOT_KEYS,
            zipf_alpha=ZIPF_ALPHA, mean_rate_rps=rate, burstiness=BURSTINESS,
            burst_fraction=BURST_FRACTION,
        )
        texts = [request.block_texts[0] for request in trace.requests]
        cold = [False] * count
        rng = np.random.default_rng(phase_seed)
        for index in rng.choice(count, size=int(round(COLD_SHARE * count)), replace=False):
            texts[index] = self.cold.take(1)[0]
            cold[index] = True
        return Schedule([request.offset_s for request in trace.requests], texts, cold)


class PhaseResult:
    def __init__(self, name: str, rate: float, schedule: Schedule) -> None:
        self.name, self.rate, self.schedule = name, rate, schedule
        count = len(schedule.offsets)
        self.counts = PhaseCounts(name, attempted=count)
        self.latencies: List[float] = [float("nan")] * count
        self.answers: List[Optional[Dict[str, float]]] = [None] * count
        self.lags: List[float] = []
        self.backlog_at_end = 0
        self.first_due = 0.0
        self.last_answer = 0.0

    def served_within(self, limit_s: float) -> int:
        return sum(1 for latency, answer in zip(self.latencies, self.answers)
                   if answer is not None and latency <= limit_s)

    def timings(self) -> List[float]:
        """Latency of every attempt; failed or lost requests count as infinitely late."""
        return [v if v == v else float("inf") for v in self.latencies]

    def p99_s(self) -> float:
        return percentile(self.timings(), 0.99)


def drive(service, name: str, rate: float, schedule: Schedule) -> PhaseResult:
    """Sends ``schedule`` open loop; waits for every answer."""
    from repro.serve.types import PredictionRequest, ServeError

    phase = PhaseResult(name, rate, schedule)
    completed = threading.Semaphore(0)
    sent = 0
    lock = threading.Lock()

    def on_done(index: int, due: float, future) -> None:
        finished = time.perf_counter()
        try:
            response = future.result()
            phase.answers[index] = {task: float(v[0]) for task, v in response.predictions.items()}
            phase.latencies[index] = finished - due
            with lock:
                phase.counts.succeeded += 1
                phase.last_answer = max(phase.last_answer, finished)
        except (ServeError, RuntimeError, OSError):
            with lock:
                phase.counts.failed += 1
        completed.release()

    start = time.perf_counter() + 0.01
    phase.first_due = start
    for index, (offset, text) in enumerate(zip(schedule.offsets, schedule.texts)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.lags.append(time.perf_counter() - due)
        try:
            future = service.submit(PredictionRequest.of([text]))
        except ServeError:
            phase.counts.rejected += 1
            continue
        sent += 1
        future.add_done_callback(functools.partial(on_done, index, due))
    phase.backlog_at_end = sent - (phase.counts.succeeded + phase.counts.failed)
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    for _ in range(sent):
        if not completed.acquire(timeout=max(0.0, deadline - time.perf_counter())):
            break
    with lock:
        phase.counts.lost = sent - phase.counts.succeeded - phase.counts.failed
    return phase


class Serving:
    def __init__(self, seed: int) -> None:
        from repro.serve import AsyncPredictionService

        self.inputs = Inputs(seed)
        self.service = AsyncPredictionService(service_config=service_config()).start()
        # Warm the worker's caches with every hot key, as a long-running
        # service would be.
        self.service.predict_blocks(self.inputs.hot, timeout=120.0)

    def close(self) -> None:
        self.service.close()


def verify_answers(answers: Dict[str, Dict[str, float]]) -> List[str]:
    """Served answers must equal ``model.predict`` on the same texts (float32)."""
    from repro.isa.basic_block import BasicBlock
    from repro.models import create_model
    from repro.testing.equivalence import assert_allclose_for_dtype

    texts = sorted(answers)
    model = create_model("granite", small=False, inference_dtype="float32")
    expected = model.predict([BasicBlock.from_text(text) for text in texts], batch_size=100)
    problems = []
    for task, values in expected.items():
        served = np.array([answers[text][task] for text in texts])
        # Float32 sums of large per-instruction contributions cancel, so the
        # rounding error scales with the largest prediction, not each value.
        try:
            assert_allclose_for_dtype(served, values, "float32", rtol32=1e-4,
                                      atol32=1e-5 * float(np.abs(values).max()))
        except AssertionError as error:
            problems.append(f"served {task} predictions differ from model.predict: {error}")
    return problems


def verify(phases: List[PhaseResult], hot: List[str]) -> List[str]:
    """Checks every hot key and up to ``CHECK_TEXTS`` cold ones."""
    answers: Dict[str, Dict[str, float]] = {}
    cold_checked = 0
    for phase in phases:
        for text, cold, answer in zip(phase.schedule.texts, phase.schedule.cold, phase.answers):
            if answer is None or text in answers or (cold and cold_checked >= CHECK_TEXTS):
                continue
            answers[text] = answer
            cold_checked += cold
    return verify_answers(answers)


def run(seed: int, seconds: float, trace: bool, out) -> Dict[str, object]:
    serving, setup_s, setup_all = timed_setups(lambda: Serving(seed), Serving.close,
                                               repeats=WORKER_SETUP_REPEATS)
    out.info("setup", {"median_s": setup_s, "runs_s": setup_all})
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    if trace:
        instrumentation.install_serve_layers()
    inputs = serving.inputs
    service = serving.service
    try:
        warmup = drive(service, "warmup", LOW_RPS, inputs.schedule(LOW_RPS, 1.0))
        out.phase(warmup.counts)
        untraced = None
        if trace:
            untraced = drive(service, "high-untraced", HIGH_RPS,
                             inputs.schedule(HIGH_RPS, HIGH_SHARE * seconds))
            out.phase(untraced.counts)
            tracer.enable()
        workers_before = service.service.worker_stats()
        snapshot_before = service.snapshot()
        low = drive(service, "low", LOW_RPS,
                    inputs.schedule(LOW_RPS, LOW_SHARE * seconds))
        high = drive(service, "high", HIGH_RPS,
                     inputs.schedule(HIGH_RPS, HIGH_SHARE * seconds))
        if trace:
            tracer.disable()
        snapshot_after = service.snapshot()
        workers_after = service.service.worker_stats()
        phases = [low, high]
        for phase in phases:
            out.phase(phase.counts)
            out.info("rate", {"phase": phase.name, "rps": phase.rate,
                              "p50_ms": 1e3 * percentile(phase.timings(), 0.5),
                              "p99_ms": 1e3 * phase.p99_s(),
                              "gen_lag_p99_ms": 1e3 * percentile(phase.lags, 0.99),
                              "backlog_at_end": phase.backlog_at_end})
        rss = peak_rss_mb()
        queue_depth_max = max(service.stats.queue_depths, default=0)
    finally:
        serving.close()

    problems = verify(phases, inputs.hot)
    lag_p99_ms = 1e3 * percentile(low.lags + high.lags, 0.99)
    if lag_p99_ms > GEN_LAG_LIMIT_MS:
        problems.append(f"generator p99 lag {lag_p99_ms:.1f} ms > {GEN_LAG_LIMIT_MS} ms: "
                        "the schedule was not kept, so the run is invalid")
    attempted = sum(p.counts.attempted for p in phases)
    failed = sum(p.counts.attempted - p.counts.succeeded for p in phases)
    limit_s = SLO_P99_MS / 1e3
    goodput = {p.name: p.served_within(limit_s) / (p.last_answer - p.first_due) for p in phases}
    cold = [c for p in phases for c in p.schedule.cold]
    texts = [t for p in phases for t in p.schedule.texts]
    repeat_share = 1.0 - len(set(texts)) / len(texts)
    out.info("inputs", {"repeat_share": repeat_share, "cold_share": sum(cold) / len(cold)})
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "workload_metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "fail_share": metric(failed / max(attempted, 1), "share"),
            "low.p50_ms": metric(1e3 * percentile(low.timings(), 0.5), "ms"),
            "low.p99_ms": metric(1e3 * low.p99_s(), "ms"),
            "high.p50_ms": metric(1e3 * percentile(high.timings(), 0.5), "ms"),
            "high.p99_ms": metric(1e3 * high.p99_s(), "ms"),
            "slo_share": metric(high.served_within(limit_s) / high.counts.attempted, "share"),
        },
        "lanes": {
            "primary": (goodput["high"], high.timings()),
            "secondary": (goodput["low"], low.timings()),
        },
    }
    if trace:
        untraced_p50 = percentile(untraced.timings(), 0.5)
        result["per_layer"] = instrumentation.metrics({
            **serving_deltas(snapshot_before, snapshot_after, workers_before, workers_after),
            "serve.queue_depth_max": float(queue_depth_max),
            "serve.gen_lag_p99_ms": lag_p99_ms,
            "input.repeat_share": repeat_share,
            "input.cold_share": sum(cold) / len(cold),
            "trace.overhead_share": percentile(high.timings(), 0.5) / untraced_p50 - 1.0,
        })
        result["self_times"] = instrumentation.self_time_table()
        result["tracer"] = tracer
    tracer.restore()
    return result
