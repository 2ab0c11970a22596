"""Which public calls belong to which layer, and the per-layer metrics.

:class:`Instrumentation` patches the calls named in ``BENCHMARK.json``'s
per-layer list through a :class:`~perfbench.tracer.Tracer`, records the
counts measured at the same boundaries (graph sizes, Dense shapes, LSTM
padding, request timestamps), and turns spans plus counts into metrics.

Times are *self* times: a span's duration minus its traced children, so
the layer times of one thread add up to the traced wall time together with
``trace.unattributed_share``.  ``nn.dense_gflop`` and ``nn.dense_gbytes``
are computed from tensor shapes (``2*rows*in*out`` operations; input,
weight and output bytes), not measured by hardware counters.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from perfbench.common import metric, percentile
from perfbench.tracer import Tracer

#: Every per-layer metric, with its unit.  A traced run reports all of them
#: on every workload; a layer the workload never enters reads 0.
PER_LAYER_METRICS = {
    "isa.parse_ms": "ms",
    "graph.build_ms": "ms",
    "graph.pack_ms": "ms",
    "graph.nodes_per_block": "count",
    "graph.edges_per_block": "count",
    "models.granite.encode_ms": "ms",
    "models.granite.forward_ms": "ms",
    "models.ithemal.encode_ms": "ms",
    "models.ithemal.forward_ms": "ms",
    "models.prediction_hit_rate": "share",
    "models.encode_hit_rate": "share",
    "gnn.edge_update_ms": "ms",
    "gnn.node_update_ms": "ms",
    "gnn.global_update_ms": "ms",
    "gnn.decoder_ms": "ms",
    "nn.dense_ms": "ms",
    "nn.dense_gflop": "GFLOP",
    "nn.dense_gbytes": "GB",
    "nn.layernorm_ms": "ms",
    "nn.concat_ms": "ms",
    "nn.segment_sum_ms": "ms",
    "nn.gather_ms": "ms",
    "nn.lstm.instruction_ms": "ms",
    "nn.lstm.block_ms": "ms",
    "nn.lstm.pad_share": "share",
    **{
        f"training.{family}.{phase}_ms": "ms"
        for family in ("granite", "ithemal")
        for phase in ("sample", "encode", "forward", "loss", "backward", "clip", "optim")
    },
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.flush_blocks_mean": "count",
    "serve.deadline_flush_share": "share",
    "serve.queue_depth_max": "count",
    "serve.service_submit_p50_ms": "ms",
    "serve.service_submit_p99_ms": "ms",
    "serve.run_batches_p50_ms": "ms",
    "serve.run_batches_p99_ms": "ms",
    "serve.worker_prediction_hit_rate": "share",
    "serve.respawns": "count",
    "serve.retries": "count",
    "serve.gen_lag_p99_ms": "ms",
    "http.registry_submit_p50_ms": "ms",
    "http.registry_submit_p99_ms": "ms",
    "http.overhead_p50_ms": "ms",
    "http.overhead_p99_ms": "ms",
    "http.auth_ms": "ms",
    "http.bytes_per_request": "bytes",
    "input.repeat_share": "share",
    "input.cold_share": "share",
    "trace.unattributed_share": "share",
    "trace.overhead_share": "share",
}

#: Self-time span names reported per model batch: per GRANITE forward call,
#: except the LSTM levels, which are per Ithemal+ forward call.  Dense and
#: LayerNorm also run in the Ithemal+ decoder; that small share is included.
_PER_BATCH = {
    "graph.pack": "graph.pack_ms",
    "gnn.edge_update": "gnn.edge_update_ms",
    "gnn.node_update": "gnn.node_update_ms",
    "gnn.global_update": "gnn.global_update_ms",
    "gnn.decoder": "gnn.decoder_ms",
    "nn.dense": "nn.dense_ms",
    "nn.layernorm": "nn.layernorm_ms",
    "nn.concat": "nn.concat_ms",
    "nn.segment_sum": "nn.segment_sum_ms",
    "nn.gather": "nn.gather_ms",
    "nn.lstm.instruction": "nn.lstm.instruction_ms",
    "nn.lstm.block": "nn.lstm.block_ms",
}


def serving_deltas(before, after, workers_before, workers_after) -> Dict[str, float]:
    """Per-layer values read from the program's own counters over a window.

    ``before``/``after`` are :class:`~repro.serve.stats.ServiceSnapshot`
    values and ``workers_*`` the matching worker stats lists.
    """
    def delta(field: str) -> int:
        return (sum(getattr(w.cache, field) for w in workers_after)
                - sum(getattr(w.cache, field) for w in workers_before))

    hits, misses = delta("prediction_hits"), delta("prediction_misses")
    encode_hits, encode_misses = delta("encode_hits"), delta("encode_misses")
    flushes = max(after.flush.flushes - before.flush.flushes, 1)
    return {
        "models.prediction_hit_rate": hits / max(hits + misses, 1),
        "models.encode_hit_rate": encode_hits / max(encode_hits + encode_misses, 1),
        "serve.worker_prediction_hit_rate": hits / max(hits + misses, 1),
        "serve.flush_blocks_mean": (after.flush.flushed_blocks - before.flush.flushed_blocks)
        / flushes,
        "serve.deadline_flush_share": (after.flush.deadline_flushes
                                       - before.flush.deadline_flushes) / flushes,
        "serve.respawns": float(after.model.respawns - before.model.respawns),
        "serve.retries": float(after.resilience.retries - before.resilience.retries),
    }


class Instrumentation:
    """Patches the layer boundaries and collects their counts.

    Args:
        tracer: Where spans go.
        training: Name model calls as training phases
            (``training.<family>.<phase>``) instead of ``models.*`` and
            leave the isa/graph/gnn/nn internals unwrapped, so each phase's
            time is the whole phase.
    """

    def __init__(self, tracer: Tracer, training: bool = False) -> None:
        self.tracer = tracer
        self.training = training
        self.family_of: Dict[int, str] = {}
        self.trainers: list = []
        self.lstm_level: Dict[int, str] = {}
        self.decoders: set = set()
        self.counts: Dict[str, float] = defaultdict(float)
        self.submitted_at: Dict[str, float] = {}
        self.queue_waits: List[float] = []
        self.registry_spans: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._state = threading.local()

    # ------------------------------------------------------------------ #
    # Registration of the objects whose calls are named per instance.
    # ------------------------------------------------------------------ #
    def register_model(self, model, family: str) -> None:
        self.family_of[id(model)] = family
        if family == "granite":
            self.decoders.update(id(decoder) for decoder in model.decoders.values())
        else:
            self.lstm_level[id(model.instruction_lstm)] = "nn.lstm.instruction"
            self.lstm_level[id(model.block_lstm)] = "nn.lstm.block"

    def register_trainer(self, trainer, family: str) -> None:
        self.family_of[id(trainer)] = family
        self.trainers.append(trainer)
        self.register_model(trainer.model, family)

    def _phase(self, phase: str) -> str:
        return f"training.{getattr(self._state, 'family', 'granite')}.{phase}"

    # ------------------------------------------------------------------ #
    # Patching.
    # ------------------------------------------------------------------ #
    def install_model_layers(self) -> None:
        """isa, graph, models, gnn and nn boundaries (prediction path)."""
        import repro.gnn.blocks as blocks
        import repro.models.granite as granite
        import repro.training.trainer as trainer_module
        from repro.gnn.blocks import EdgeBlock, GlobalBlock, NodeBlock
        from repro.graph.builder import GraphBuilder
        from repro.isa.basic_block import BasicBlock
        from repro.models.granite import GraniteModel
        from repro.models.ithemal import IthemalModel
        from repro.nn.layers import Dense, LayerNorm, ResidualMLP
        from repro.nn.lstm import LSTM
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor

        patch = self.tracer.patch
        patch(IthemalModel, "forward", self._name_model_call("forward"),
              on_result=self._on_ithemal_forward)
        patch(GraniteModel, "forward", self._name_model_call("forward"),
              on_result=self._on_forward)
        patch(GraniteModel, "encode_blocks", self._name_model_call("encode"))
        patch(IthemalModel, "encode_blocks", self._name_model_call("encode"))
        if self.training:
            patch(trainer_module.Trainer, "train_step", self._name_train_step)
            patch(GraniteModel, "zero_grad", lambda *a, **k: self._phase("backward"))
            patch(IthemalModel, "zero_grad", lambda *a, **k: self._phase("backward"))
            patch(Tensor, "backward", lambda *a, **k: self._phase("backward"))
            patch(trainer_module, "clip_gradients_by_global_norm",
                  lambda *a, **k: self._phase("clip"))
            patch(Adam, "step", lambda *a, **k: self._phase("optim"))
            for trainer in self.trainers:
                patch(trainer, "loss_fn", lambda *a, **k: self._phase("loss"))
            return
        patch(BasicBlock, "from_text", lambda *a, **k: "isa.parse", static=True)
        patch(GraphBuilder, "build", lambda *a, **k: "graph.build", on_result=self._on_graph)
        patch(granite, "pack_graphs", lambda *a, **k: "graph.pack")
        patch(EdgeBlock, "forward", lambda *a, **k: "gnn.edge_update")
        patch(NodeBlock, "forward", lambda *a, **k: "gnn.node_update")
        patch(GlobalBlock, "forward", lambda *a, **k: "gnn.global_update")
        patch(ResidualMLP, "forward",
              lambda module, *a, **k: "gnn.decoder" if id(module) in self.decoders else None)
        patch(Dense, "forward", lambda *a, **k: "nn.dense", on_result=self._on_dense)
        patch(LayerNorm, "forward", lambda *a, **k: "nn.layernorm")
        patch(LSTM, "forward", lambda module, *a, **k: self.lstm_level.get(id(module)))
        patch(blocks, "concatenate", lambda *a, **k: "nn.concat")
        patch(blocks, "segment_sum", lambda *a, **k: "nn.segment_sum")
        patch(blocks, "segment_mean", lambda *a, **k: "nn.segment_sum")
        patch(granite, "segment_sum", lambda *a, **k: "nn.segment_sum")
        patch(blocks, "gather_rows", lambda *a, **k: "nn.gather")
        patch(granite, "gather_rows", lambda *a, **k: "nn.gather")

    def install_serve_layers(self) -> None:
        """Queue, service, worker pool, registry and auth boundaries."""
        from repro.serve.async_service import AsyncPredictionService
        from repro.serve.auth import TenantDirectory
        from repro.serve.registry import ModelRegistry
        from repro.serve.service import PredictionService
        from repro.serve.workers import ShardedWorkerPool

        patch = self.tracer.patch
        patch(AsyncPredictionService, "submit", self._name_async_submit)
        patch(PredictionService, "submit", self._name_service_submit)
        patch(ShardedWorkerPool, "run_batches", lambda *a, **k: "serve.run_batches")
        patch(ModelRegistry, "submit", self._name_registry_submit,
              on_result=self._on_registry_submit)
        patch(TenantDirectory, "authenticate", lambda *a, **k: "http.auth")

    # ------------------------------------------------------------------ #
    # Namers and count hooks.
    # ------------------------------------------------------------------ #
    def _name_model_call(self, phase: str):
        def namer(model, *args, **kwargs) -> str:
            if self.training:
                return self._phase(phase)
            return f"models.{self.family_of.get(id(model), 'granite')}.{phase}"
        return namer

    def _name_train_step(self, trainer, *args, **kwargs) -> str:
        self._state.family = self.family_of.get(id(trainer), "granite")
        return self._phase("sample")

    def _on_graph(self, name, args, kwargs, graph) -> None:
        self.counts["graph.nodes"] += graph.num_nodes
        self.counts["graph.edges"] += graph.num_edges

    def _on_forward(self, name, args, kwargs, result) -> None:
        self.counts[f"{name}.calls"] += 1

    def _on_ithemal_forward(self, name, args, kwargs, result) -> None:
        self._on_forward(name, args, kwargs, result)
        batch = args[1]
        tokens = batch.token_ids.shape[0] * batch.token_ids.shape[1]
        slots = batch.num_blocks * batch.max_instructions
        self.counts["lstm.steps"] += tokens + slots
        self.counts["lstm.useful"] += (int(batch.token_lengths.sum())
                                       + int(batch.block_lengths.sum()))

    def _on_dense(self, name, args, kwargs, result) -> None:
        layer, inputs = args[0], args[1]
        rows = inputs.shape[0] if len(inputs.shape) > 1 else 1
        fan_in, fan_out = layer.input_size, layer.output_size
        array = result if hasattr(result, "dtype") else result.data
        itemsize = array.dtype.itemsize
        self.counts["dense.flop"] += 2.0 * rows * fan_in * fan_out
        self.counts["dense.bytes"] += itemsize * (rows * fan_in + fan_in * fan_out + rows * fan_out)

    def _name_async_submit(self, service, request, *args, **kwargs) -> str:
        self.submitted_at[request.request_id] = time.perf_counter()
        return "serve.async_submit"

    def _name_service_submit(self, service, requests, *args, **kwargs) -> str:
        now = time.perf_counter()
        waits = [now - self.submitted_at.pop(r.request_id) for r in requests
                 if r.request_id in self.submitted_at]
        with self._lock:
            self.queue_waits.extend(waits)
        return "serve.service_submit"

    def _name_registry_submit(self, registry, name, request, *args, **kwargs) -> str:
        self.registry_spans[request.request_id] = -time.perf_counter()
        return "http.registry_submit"

    def _on_registry_submit(self, name, args, kwargs, future) -> None:
        request_id = args[2].request_id

        def resolved(_future) -> None:
            self.registry_spans[request_id] += time.perf_counter()

        future.add_done_callback(resolved)

    # ------------------------------------------------------------------ #
    # Metrics.
    # ------------------------------------------------------------------ #
    def metrics(self, extra: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, object]]:
        """Every per-layer metric; ``extra`` supplies workload-side values."""
        tracer = self.tracer
        selfs = tracer.self_times()
        values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_METRICS}

        def per_call(span: str) -> float:
            calls = len(tracer.inclusive(span))
            return 1e3 * selfs.get(span, 0.0) / calls if calls else 0.0

        values["isa.parse_ms"] = per_call("isa.parse")
        values["graph.build_ms"] = per_call("graph.build")
        built = len(tracer.inclusive("graph.build"))
        if built:
            values["graph.nodes_per_block"] = self.counts["graph.nodes"] / built
            values["graph.edges_per_block"] = self.counts["graph.edges"] / built
        for family in ("granite", "ithemal"):
            calls = self.counts[f"models.{family}.forward.calls"]
            for phase in ("encode", "forward"):
                span = f"models.{family}.{phase}"
                if calls:
                    values[span + "_ms"] = 1e3 * selfs.get(span, 0.0) / calls
            steps = len(tracer.inclusive(f"training.{family}.sample"))
            for phase in ("sample", "encode", "forward", "loss", "backward", "clip", "optim"):
                span = f"training.{family}.{phase}"
                if steps:
                    values[span + "_ms"] = 1e3 * selfs.get(span, 0.0) / steps
        for span, name in _PER_BATCH.items():
            family = "ithemal" if span.startswith("nn.lstm") else "granite"
            batches = self.counts[f"models.{family}.forward.calls"]
            if batches:
                values[name] = 1e3 * selfs.get(span, 0.0) / batches
        batches = self.counts["models.granite.forward.calls"]
        if batches:
            values["nn.dense_gflop"] = self.counts["dense.flop"] / 1e9 / batches
            values["nn.dense_gbytes"] = self.counts["dense.bytes"] / 1e9 / batches
        if self.counts["lstm.steps"]:
            useful = self.counts["lstm.useful"] / self.counts["lstm.steps"]
            values["nn.lstm.pad_share"] = 1.0 - useful

        def p50_p99(prefix: str, seconds: List[float]) -> None:
            if seconds:
                values[prefix + "_p50_ms"] = 1e3 * percentile(seconds, 0.50)
                values[prefix + "_p99_ms"] = 1e3 * percentile(seconds, 0.99)

        p50_p99("serve.queue_wait", self.queue_waits)
        p50_p99("serve.service_submit", tracer.inclusive("serve.service_submit"))
        p50_p99("serve.run_batches", tracer.inclusive("serve.run_batches"))
        p50_p99("http.registry_submit", [s for s in self.registry_spans.values() if s > 0])
        auth = tracer.inclusive("http.auth")
        if auth:
            values["http.auth_ms"] = 1e3 * sum(auth) / len(auth)
        window = tracer.window[1] - tracer.window[0]
        if window > 0:
            values["trace.unattributed_share"] = max(0.0, 1.0 - tracer.covered_seconds() / window)
        values.update(extra or {})
        return {name: metric(values[name], unit) for name, unit in PER_LAYER_METRICS.items()}

    def self_time_table(self) -> Dict[str, float]:
        """Self seconds per span name plus the uncovered rest of the window."""
        table = dict(self.tracer.self_times())
        window = self.tracer.window[1] - self.tracer.window[0]
        table["(unattributed)"] = window - self.tracer.covered_seconds()
        table["(window)"] = window
        return table
