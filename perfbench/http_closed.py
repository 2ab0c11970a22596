"""``http-closed-hot``: closed-loop HTTP clients on hot keys only.

Keep-alive HTTP/1.1 connections from one process send single-block
predict requests, each sending its next request as soon as the previous
answer arrives, to :class:`~repro.serve.PredictionHttpServer` over a
one-variant :class:`~repro.serve.ModelRegistry` (paper-scale GRANITE,
float32, one worker process) with API-key authentication.  Keys are
Zipf-distributed over the same small hot set as ``serve-open-mixed`` and
all of them are cached after set-up, so the HTTP, auth, JSON and queue
overheads dominate rather than the model.

Lanes: ``primary`` is two concurrent connections, ``secondary`` is one;
each reports requests per second and per-request latency.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    WORKER_SETUP_REPEATS,
    PhaseCounts,
    metric,
    peak_rss_mb,
    percentile,
    timed_setups,
)
from perfbench.layers import Instrumentation, serving_deltas
from perfbench.serve_open import HOT_KEYS, ZIPF_ALPHA, hot_keys, service_config, verify_answers
from perfbench.tracer import Tracer

VARIANT = "granite-f32"
API_KEY = "perfbench-key"
CONNECTIONS = {"primary": 2, "secondary": 1}
PRIMARY_SHARE = 0.5
REQUEST_TIMEOUT_S = 60.0


class Server:
    def __init__(self, seed: int) -> None:
        from repro.serve import (
            HttpServerConfig,
            ModelRegistry,
            ModelVariant,
            PredictionHttpServer,
            Tenant,
            TenantDirectory,
        )

        self.hot = hot_keys(seed)
        registry = ModelRegistry((ModelVariant(VARIANT, service_config()),))
        registry.load(VARIANT)
        self.server = PredictionHttpServer(
            registry,
            HttpServerConfig(host="127.0.0.1", port=0),
            auth=TenantDirectory([Tenant("perfbench", api_key=API_KEY)], allow_anonymous=False),
            own_registry=True,
        ).start()
        # One request carrying every hot key warms the worker's caches.
        client = Client(self.server.port)
        try:
            status, _, _ = client.post({"blocks": self.hot})
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")

    def close(self) -> None:
        self.server.close()


class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def post(self, payload) -> tuple:
        body = json.dumps(payload).encode("utf-8")
        self.connection.request(
            "POST", f"/v1/models/{VARIANT}/predict", body=body,
            headers={"X-API-Key": API_KEY, "Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, len(body) + len(data)

    def close(self) -> None:
        self.connection.close()


class LaneResult:
    def __init__(self, name: str) -> None:
        self.counts = PhaseCounts(name)
        self.latencies: List[float] = []
        self.request_ids: List[str] = []
        self.bytes = 0
        self.answers: Dict[str, Dict[str, float]] = {}
        self.mismatched_repeats = 0
        self.seconds = 0.0
        self.lock = threading.Lock()


def closed_loop(port: int, hot: List[str], connections: int, seconds: float, seed: int,
                name: str) -> LaneResult:
    """``connections`` clients, each sending its next request on each answer."""
    lane = LaneResult(name)
    ranks = np.arange(1, len(hot) + 1, dtype=np.float64) ** -ZIPF_ALPHA
    probabilities = ranks / ranks.sum()
    stop_at = time.perf_counter() + seconds

    def client_loop(index: int) -> None:
        rng = np.random.default_rng([seed, index])
        client = Client(port)
        try:
            while time.perf_counter() < stop_at:
                text = hot[int(rng.choice(HOT_KEYS, p=probabilities))]
                start = time.perf_counter()
                try:
                    status, data, size = client.post({"block": text})
                except (OSError, http.client.HTTPException):
                    with lane.lock:
                        lane.counts.attempted += 1
                        lane.counts.failed += 1
                    client.close()
                    client = Client(port)
                    continue
                elapsed = time.perf_counter() - start
                with lane.lock:
                    lane.counts.attempted += 1
                    lane.bytes += size
                    if status != 200:
                        lane.counts.rejected += 1
                        continue
                    reply = json.loads(data)
                    answer = {task: float(v[0]) for task, v in reply["predictions"].items()}
                    previous = lane.answers.setdefault(text, answer)
                    lane.mismatched_repeats += previous != answer
                    lane.counts.succeeded += 1
                    lane.latencies.append(elapsed)
                    lane.request_ids.append(reply["request_id"])
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,), name=f"perfbench-client-{i}")
               for i in range(connections)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT_S)
    lane.seconds = time.perf_counter() - started
    lane.counts.lost = sum(thread.is_alive() for thread in threads)
    return lane


def run(seed: int, seconds: float, trace: bool, out) -> Dict[str, object]:
    server, setup_s, setup_all = timed_setups(lambda: Server(seed), Server.close,
                                               repeats=WORKER_SETUP_REPEATS)
    out.info("setup", {"median_s": setup_s, "runs_s": setup_all})
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    if trace:
        instrumentation.install_serve_layers()
    port, hot = server.server.port, server.hot
    registry = server.server.registry
    try:
        warmup = closed_loop(port, hot, CONNECTIONS["primary"], 1.0, seed, "warmup")
        out.phase(warmup.counts)
        before = registry.stats(VARIANT)
        lanes: Dict[str, LaneResult] = {}
        untraced = None
        if trace:
            untraced = closed_loop(port, hot, CONNECTIONS["primary"], seconds / 2, seed + 1,
                                   "primary-untraced")
            out.phase(untraced.counts)
            tracer.enable()
            lanes["primary"] = closed_loop(port, hot, CONNECTIONS["primary"], seconds / 2,
                                           seed + 2, "primary")
            tracer.disable()
        else:
            lanes["primary"] = closed_loop(port, hot, CONNECTIONS["primary"],
                                           PRIMARY_SHARE * seconds, seed + 2, "primary")
            lanes["secondary"] = closed_loop(port, hot, CONNECTIONS["secondary"],
                                             (1 - PRIMARY_SHARE) * seconds, seed + 3, "secondary")
        after = registry.stats(VARIANT)
        rss = peak_rss_mb()
    finally:
        server.close()

    answers: Dict[str, Dict[str, float]] = {}
    problems = []
    for name, lane in lanes.items():
        out.phase(lane.counts)
        answers.update(lane.answers)
        if lane.mismatched_repeats:
            problems.append(f"{name}: {lane.mismatched_repeats} repeated keys got another answer")
    problems += verify_answers(answers)
    primary = lanes["primary"]
    deltas = serving_deltas(before.snapshot, after.snapshot, before.workers, after.workers)
    repeat_share = 1.0 - len(primary.answers) / max(primary.counts.succeeded, 1)
    cold_share = 1.0 - deltas["models.prediction_hit_rate"]
    out.info("inputs", {"repeat_share": repeat_share, "cold_share": cold_share})
    attempted = sum(lane.counts.attempted for lane in lanes.values())
    succeeded = sum(lane.counts.succeeded for lane in lanes.values())
    rates = {name: lane.counts.succeeded / lane.seconds for name, lane in lanes.items()}
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - succeeded,
        "workload_metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "fail_share": metric((attempted - succeeded) / max(attempted, 1), "share"),
            "requests_per_s": metric(rates["primary"], "1/s"),
            "p50_ms": metric(1e3 * percentile(primary.latencies, 0.5), "ms"),
            "p99_ms": metric(1e3 * percentile(primary.latencies, 0.99), "ms"),
        },
        "lanes": {name: (rates[name], lane.latencies) for name, lane in lanes.items()},
    }
    if trace:
        spans = instrumentation.registry_spans
        overheads = [latency - spans[rid] for latency, rid in
                     zip(primary.latencies, primary.request_ids) if spans.get(rid, 0) > 0]
        result["per_layer"] = instrumentation.metrics({
            **deltas,
            "http.overhead_p50_ms": 1e3 * percentile(overheads, 0.5),
            "http.overhead_p99_ms": 1e3 * percentile(overheads, 0.99),
            "http.bytes_per_request": primary.bytes / max(primary.counts.attempted, 1),
            "input.repeat_share": repeat_share,
            "input.cold_share": cold_share,
            "trace.overhead_share": (untraced.counts.succeeded / untraced.seconds)
            / (primary.counts.succeeded / primary.seconds) - 1.0,
        })
        result["self_times"] = instrumentation.self_time_table()
        result["tracer"] = tracer
    tracer.restore()
    return result
