#!/usr/bin/env python3
"""Serve throughput predictions with the batched prediction service.

Demonstrates the serving stack added for the deployable-cost-model story:

1. train a small GRANITE model and save a checkpoint,
2. warm-start a :class:`repro.serve.PredictionService` from that checkpoint,
3. submit heterogeneous requests (different clients, different batch sizes)
   that the service coalesces into size-bounded micro-batches,
4. stand an :class:`repro.serve.AsyncPredictionService` front end in front
   of the same service and stream prioritised requests through its queue,
5. print per-request predictions and the service throughput counters.

Serving architecture
--------------------

The serving stack has two front ends over one execution core:

* **Synchronous** (:class:`repro.serve.PredictionService`): ``submit()``
  takes a list of requests, coalesces their blocks into micro-batches of at
  most ``max_batch_size``, predicts, and reassembles per-request responses
  before returning.  Simple and deterministic — but every call flushes on
  its own, so independent callers never share a batch.

* **Asynchronous** (:class:`repro.serve.AsyncPredictionService`):
  producers ``submit()`` single requests and immediately get futures; a
  dispatcher thread drains the shared bounded queue and flushes a
  micro-batch when ``max_batch_size`` blocks are pending OR the oldest
  request has waited ``max_latency_ms`` — whichever fires first.  Those two
  knobs *are* the latency/throughput trade-off.  Requests carry priorities
  (:class:`repro.serve.Priority`): interactive traffic jumps queued bulk
  work.  The queue is bounded in blocks; the ``backpressure`` policy either
  blocks producers or rejects with :class:`repro.serve.QueueFullError`.

Execution beneath either front end is controlled by ``ServiceConfig``:
``num_workers=0`` runs in-process; ``num_workers=N`` shards work across N
warm worker processes.  With ``sharding="hash"`` (the default) each block
is routed by a stable hash of its canonical text, so every worker's encode
and prediction caches own a fixed partition of the key space — repeated
traffic stays hot no matter how clients slice it.  Crashed workers are
respawned automatically and their in-flight work is resubmitted.

Mixed-precision serving: ``ServiceConfig(inference_dtype="float32")`` (the
``--dtype float32`` flag below) makes every replica — in-process or the
whole sharded pool — run its no-grad forward in single precision, roughly
2x faster through the Dense/LayerNorm/LSTM matmuls.  Checkpoints still
store float64 master weights, and ``tests/equivalence`` pins float32
predictions to the float64 path within an explicit tolerance/MAPE budget.

Load-adaptive serving
---------------------

``--flush-policy adaptive`` replaces the fixed flush deadline with the
load-adaptive controller: when the queue is idle a lone request flushes
after ~``min_latency_ms`` instead of sitting out the whole deadline, and
under saturation the deadline stretches back to ``--max-latency-ms`` so
flushes stay dense (the ``REPRO_FLUSH_POLICY`` environment variable sets
the default).  With ``--workers N --min-workers LO --max-workers HI`` the
sharded pool also becomes *elastic*: an autoscale monitor grows it when
the queue backs up and shrinks it after sustained idleness, with a
consistent hash ring keeping ~(N-1)/N of every worker's cache partition
in place across each resize.  Requests carry optional per-request
deadlines and their futures can be ``cancel()``-ed while queued — both
drop paths show up in ``AsyncPredictionService.snapshot()``.

Network serving
---------------

``--http PORT`` adds the third layer: a :class:`repro.serve.ModelRegistry`
hosting two named variants warm-started from the same checkpoint — the
``--dtype`` haswell head and a mixed-precision skylake head — behind a
:class:`repro.serve.PredictionHttpServer` (stdlib asyncio, HTTP/1.1 +
JSON).  The demo drives both variants through the socket with per-tenant
API keys, prints the per-model stats, and leaves ``curl`` transcripts to
reproduce each call by hand (``examples/http_client.py`` is a standalone
raw-socket client for the same endpoints; pass ``--http 0`` for an
ephemeral port).

Usage::

    # static flushing, fixed in-process serving (the PR 2/3 behaviour)
    python examples/serve_blocks.py --steps 100 --workers 0

    # adaptive flushing over an elastic 1..3-worker hash-sharded pool
    python examples/serve_blocks.py --workers 1 --min-workers 1 \
        --max-workers 3 --flush-policy adaptive --max-latency-ms 25

    # mixed precision on top: float32 replicas behind the same queue
    python examples/serve_blocks.py --workers 2 --dtype float32 \
        --flush-policy adaptive

    # multi-model HTTP serving on an ephemeral port
    python examples/serve_blocks.py --steps 50 --http 0
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.data.datasets import build_ithemal_like_dataset
from repro.models import create_model
from repro.models.config import TrainingConfig
from repro.nn.serialization import save_checkpoint
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    HttpServerConfig,
    ModelRegistry,
    ModelVariant,
    PredictionHttpServer,
    PredictionRequest,
    PredictionService,
    Priority,
    ServiceConfig,
    Tenant,
    TenantDirectory,
    default_flush_policy,
)
from repro.training.trainer import Trainer


def demo_synchronous(service: PredictionService, test_blocks, tasks) -> None:
    """One synchronous submission of heterogeneous client requests."""
    bulk = max(len(test_blocks) - 4, 1)
    requests = [
        PredictionRequest.of(test_blocks[:bulk], request_id="sweep"),
        PredictionRequest.of(test_blocks[bulk : bulk + 1], request_id="interactive"),
        PredictionRequest.of(
            test_blocks[bulk + 1 :], request_id="tuner", tasks=tasks[:1]
        ),
    ]
    responses = service.submit(requests)
    for response in responses:
        preview = {
            task: [round(float(value), 2) for value in values[:3]]
            for task, values in response.predictions.items()
        }
        print(
            f"  {response.request_id}: {response.num_blocks} blocks, "
            f"first predictions {preview}"
        )
    stats = service.stats
    print(
        f"served {stats.blocks} blocks in {stats.batches} micro-batches "
        f"({stats.blocks_per_second:.0f} blocks/s)"
    )


def demo_asynchronous(service: PredictionService, test_blocks) -> None:
    """Streams prioritised requests through the queued async front end.

    The front end takes its queue/flush knobs from the service config's
    ``async_options`` and flushes at the service's ``max_batch_size``.
    """
    with AsyncPredictionService(service=service) as front_end:
        futures = {}
        # Bulk traffic first, then an interactive request that jumps it.
        for index in range(0, len(test_blocks) - 2, 4):
            request = PredictionRequest.of(
                test_blocks[index : index + 4], request_id=f"bulk-{index // 4}"
            )
            futures[request.request_id] = front_end.submit(
                request, priority=Priority.BULK
            )
        interactive = PredictionRequest.of(
            test_blocks[-2:], request_id="interactive"
        )
        futures[interactive.request_id] = front_end.submit(
            interactive, priority=Priority.INTERACTIVE
        )
        for request_id, future in futures.items():
            future.result(timeout=120.0)
        stats = front_end.stats
        print(
            f"  async: {stats.requests} requests -> {stats.flushes} flushes "
            f"(size={stats.size_flushes}, deadline={stats.deadline_flushes}), "
            f"mean {stats.mean_flush_blocks:.1f} blocks/flush"
        )
        snapshot = front_end.snapshot()
        flush, queue = snapshot.flush, snapshot.queue
        print(
            f"  flush wait p50={flush.wait_p50_ms:.2f} ms "
            f"p99={flush.wait_p99_ms:.2f} ms "
            f"(policy {flush.policy}, "
            f"deadline ceiling {front_end.options.max_latency_ms} ms, "
            f"realized p50 {flush.deadline_p50_ms:.2f} ms)"
        )
        if queue.cancelled_drops or queue.expired_drops:
            print(
                f"  drops: {queue.cancelled_drops} cancelled, "
                f"{queue.expired_drops} expired"
            )


def demo_http(checkpoint: str, test_blocks, arguments) -> None:
    """Serves two registry variants over HTTP and drives both as a client."""
    import http.client
    import json

    api_key = "demo-key"
    registry = ModelRegistry(
        (
            ModelVariant(
                "granite-haswell",
                ServiceConfig(
                    model_name="granite",
                    tasks=("haswell",),
                    checkpoint_path=checkpoint,
                    max_batch_size=32,
                    inference_dtype=arguments.dtype,
                ),
                description="haswell head, demo checkpoint",
            ),
            ModelVariant(
                "granite-skylake-f32",
                ServiceConfig(
                    model_name="granite",
                    tasks=("skylake",),
                    checkpoint_path=checkpoint,
                    max_batch_size=32,
                    inference_dtype="float32",
                ),
                description="mixed-precision skylake head",
            ),
        )
    )
    auth = TenantDirectory((Tenant("demo", api_key=api_key),))
    server_config = HttpServerConfig(port=arguments.http)
    with PredictionHttpServer(
        registry, server_config, auth=auth, own_registry=True
    ) as server:
        print(f"  listening on {server.address} (API key: {api_key})")
        print(
            f"  curl -s {server.address}/v1/models -H 'X-API-Key: {api_key}'"
        )
        print(
            f"  curl -s -X POST {server.address}/v1/models/granite-haswell/"
            f"predict -H 'X-API-Key: {api_key}' "
            "-d '{\"blocks\": [\"add rax, rbx\"]}'"
        )
        blocks = [block.render() for block in test_blocks[:8]]
        for model in ("granite-haswell", "granite-skylake-f32"):
            connection = http.client.HTTPConnection(
                server.config.host, server.port, timeout=120
            )
            connection.request(
                "POST",
                f"/v1/models/{model}/predict",
                body=json.dumps({"blocks": blocks, "priority": "interactive"}),
                headers={"X-API-Key": api_key},
            )
            response = connection.getresponse()
            document = json.loads(response.read())
            connection.close()
            preview = {
                task: [round(float(value), 2) for value in values[:3]]
                for task, values in document["predictions"].items()
            }
            print(
                f"  {model}: HTTP {response.status}, "
                f"{document['num_blocks']} blocks, predictions {preview}"
            )
        connection = http.client.HTTPConnection(
            server.config.host, server.port, timeout=120
        )
        connection.request(
            "GET",
            "/v1/models/granite-haswell/stats",
            headers={"X-API-Key": api_key},
        )
        report = json.loads(connection.getresponse().read())
        connection.close()
        queue_stats = report["snapshot"]["queue"]
        print(
            f"  stats: {queue_stats['submitted_requests']} requests / "
            f"{queue_stats['submitted_blocks']} blocks from tenants "
            f"{report['info']['requests_by_tenant']}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=100, help="training steps")
    parser.add_argument("--blocks", type=int, default=300, help="dataset size")
    parser.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = in-process)"
    )
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=10.0,
        help="flush deadline (ceiling, for the adaptive policy) of the "
        "async front end",
    )
    parser.add_argument(
        "--flush-policy",
        choices=("static", "adaptive"),
        default=None,
        help="flush-deadline policy of the async front end: 'static' always "
        "waits --max-latency-ms, 'adaptive' scales the deadline with load "
        "(default honours REPRO_FLUSH_POLICY, falling back to static)",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=None,
        help="lower elastic bound of the worker pool (requires --workers >= 1; "
        "enables the autoscale monitor when the bounds allow another size)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="upper elastic bound of the worker pool (see --min-workers)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float64", "float32"),
        default="float64",
        help="inference compute dtype of every serving replica "
        "(float32 = mixed-precision serving, ~2x faster matmuls)",
    )
    parser.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="also run the multi-model HTTP demo: a two-variant ModelRegistry "
        "behind PredictionHttpServer on this port (0 = ephemeral)",
    )
    arguments = parser.parse_args()

    print(f"training granite for {arguments.steps} steps ...")
    dataset = build_ithemal_like_dataset(arguments.blocks, seed=0)
    splits = dataset.paper_splits(seed=0)
    model = create_model("granite", small=True, seed=0)
    trainer = Trainer(
        model, TrainingConfig(num_steps=arguments.steps, batch_size=32, seed=0)
    )
    trainer.train(splits.train, splits.validation)

    with tempfile.TemporaryDirectory() as directory:
        checkpoint = os.path.join(directory, "granite.npz")
        save_checkpoint(model, checkpoint)

        flush_policy = arguments.flush_policy or default_flush_policy()
        config = ServiceConfig(
            model_name="granite",
            checkpoint_path=checkpoint,
            max_batch_size=32,
            num_workers=arguments.workers,
            min_workers=arguments.min_workers,
            max_workers=arguments.max_workers,
            inference_dtype=arguments.dtype,
            async_options=AsyncOptions(
                max_latency_ms=arguments.max_latency_ms,
                flush_policy=flush_policy,
                max_queue_blocks=1024,
            ),
        )
        elastic = (
            f"elastic {config.min_workers}..{config.max_workers}, "
            if arguments.min_workers is not None or arguments.max_workers is not None
            else ""
        )
        print(
            f"warm-starting service (workers={config.num_workers}, {elastic}"
            f"sharding={config.sharding}, max_batch_size={config.max_batch_size}, "
            f"flush_policy={flush_policy}, "
            f"inference_dtype={config.inference_dtype}) ..."
        )
        with PredictionService(config) as service:
            test_blocks = splits.test.blocks()
            print("synchronous front end:")
            demo_synchronous(service, test_blocks, model.tasks)
            print("async front end:")
            demo_asynchronous(service, test_blocks)
        if arguments.http is not None:
            print("http front end:")
            demo_http(checkpoint, test_blocks, arguments)


if __name__ == "__main__":
    main()
