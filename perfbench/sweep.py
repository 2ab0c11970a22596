"""``sweep-distinct``: an offline evaluation sweep over never-repeated blocks.

Block texts from :class:`~repro.data.BlockGenerator` (lengths stratified,
see :mod:`perfbench.inputs`) are parsed, deduplicated by
``canonical_text()`` and predicted with ``model.predict(blocks,
batch_size=100)`` by paper-scale GRANITE and Ithemal+ (three task heads,
float64).  Every block is new to the model, so the prediction and encode
caches miss and the serving stack is not used: the nn/gnn/models forward
does almost all of the work.

Lanes: ``primary`` is GRANITE, ``secondary`` is Ithemal+; each reports
blocks per second at the median batch time and the median time per
100-block batch (the unit of paper Table 10).
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from perfbench.common import (
    PhaseCounts,
    alternate,
    median,
    metric,
    overhead_share,
    peak_rss_mb,
    timed_setups,
)
from perfbench.inputs import StratifiedTexts
from perfbench.layers import Instrumentation
from perfbench.tracer import Tracer

BATCH_SIZE = 100
#: Share of the measured window spent on GRANITE.  It is ~6x slower per
#: block, so Ithemal+ still gets about twice as many batches.
GRANITE_SHARE = 0.65
MIN_BATCHES = 2
#: Blocks re-predicted one at a time to check batching changes no result.
CHECK_SAMPLE = 8
#: Float64 predictions must not depend on the batch a block is in.
CHECK_REL_TOL = 1e-9


class Sweep:
    def __init__(self, seed: int) -> None:
        from repro.models import create_model

        self.models = {
            "granite": create_model("granite", small=False, inference_dtype="float64"),
            "ithemal": create_model("ithemal+", small=False, inference_dtype="float64"),
        }
        self.texts = StratifiedTexts(seed)
        self.seen_in_window: set = set()
        self.repeats = 0

    def batch(self, family: str, tracer: Tracer):
        """Parses, dedupes and predicts one batch; returns (seconds, blocks, predictions)."""
        from repro.isa.basic_block import BasicBlock

        generated = time.perf_counter()
        texts = self.texts.take(BATCH_SIZE)
        start = time.perf_counter()
        tracer.record("bench.generate", generated, start)
        blocks = []
        for text in texts:
            block = BasicBlock.from_text(text)
            key = block.canonical_text()
            if key in self.seen_in_window:
                self.repeats += 1
                continue
            self.seen_in_window.add(key)
            blocks.append(block)
        predictions = self.models[family].predict(blocks, batch_size=BATCH_SIZE)
        return time.perf_counter() - start, blocks, predictions

    def measure(self, seconds: float, tracer: Tracer, counts: PhaseCounts):
        """Alternates the two models until each has used its share of time."""
        samples = {}

        def step(family: str) -> float:
            elapsed, blocks, predictions = self.batch(family, tracer)
            counts.attempted += len(blocks)
            finite = all(np.isfinite(values).all() for values in predictions.values())
            if finite and all(len(v) == len(blocks) for v in predictions.values()):
                counts.succeeded += len(blocks)
            else:
                counts.failed += len(blocks)
            samples.setdefault(family, (blocks[:CHECK_SAMPLE], predictions))
            return elapsed

        budgets = {"granite": GRANITE_SHARE * seconds, "ithemal": (1 - GRANITE_SHARE) * seconds}
        return alternate(budgets, MIN_BATCHES, step), samples

    def verify(self, samples) -> List[str]:
        """Per-block predictions must match the batched ones (float64)."""
        from repro.testing.equivalence import compare_predictions

        problems = []
        for family, (blocks, batched) in samples.items():
            model = self.models[family]
            with model.caches_disabled():
                single = [model.predict([block]) for block in blocks]
            candidate = {
                task: np.array([entry[task][0] for entry in single]) for task in model.tasks
            }
            reference = {task: values[: len(blocks)] for task, values in batched.items()}
            report = compare_predictions(reference, candidate)
            if not report.max_rel_error <= CHECK_REL_TOL:
                problems.append(
                    f"{family}: batched vs per-block max relative error "
                    f"{report.max_rel_error:.3e} > {CHECK_REL_TOL:.0e}"
                )
        return problems


def run(seed: int, seconds: float, trace: bool, out) -> Dict[str, object]:
    sweep, setup_s, setup_all = timed_setups(lambda: Sweep(seed))
    out.info("setup", {"median_s": setup_s, "runs_s": setup_all})
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    for family, model in sweep.models.items():
        instrumentation.register_model(model, family)
    if trace:
        instrumentation.install_model_layers()

    warmup = PhaseCounts("warmup")
    for family in sweep.models:
        _, blocks, _ = sweep.batch(family, tracer)
        warmup.attempted += len(blocks)
        warmup.succeeded += len(blocks)
    out.phase(warmup)

    before = {f: m.cache_stats() for f, m in sweep.models.items()}
    counts = PhaseCounts("measure")
    untraced = None
    if trace:
        untraced, _ = sweep.measure(seconds / 2, tracer, PhaseCounts("measure-untraced"))
        tracer.enable()
        times, samples = sweep.measure(seconds / 2, tracer, counts)
        tracer.disable()
    else:
        times, samples = sweep.measure(seconds, tracer, counts)
    out.phase(counts)
    after = {f: m.cache_stats() for f, m in sweep.models.items()}

    problems = sweep.verify(samples)
    out.phase(PhaseCounts("verify", attempted=len(samples),
                          succeeded=len(samples) - len(problems), failed=len(problems)))

    hits = sum(after[f]["prediction_hits"] - before[f]["prediction_hits"] for f in after)
    misses = sum(after[f]["prediction_misses"] - before[f]["prediction_misses"] for f in after)
    encode_hits = sum(after[f]["encode_hits"] - before[f]["encode_hits"] for f in after)
    encode_misses = sum(after[f]["encode_misses"] - before[f]["encode_misses"] for f in after)
    lookups = max(hits + misses, 1)
    repeat_share = sweep.repeats / max(counts.attempted + sweep.repeats, 1)
    cold_share = misses / lookups
    out.info("inputs", {"repeat_share": repeat_share, "cold_share": cold_share})

    # At the median batch time: one batch slowed by the machine does not move it.
    rates = {f: BATCH_SIZE / median(t) for f, t in times.items()}
    rss = peak_rss_mb()
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "problems": problems,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "workload_metrics": {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "fail_share": metric(counts.failed / max(counts.attempted, 1), "share"),
            "granite_blocks_per_s": metric(rates["granite"], "blocks/s"),
            "ithemal_blocks_per_s": metric(rates["ithemal"], "blocks/s"),
        },
        "lanes": {
            "primary": (rates["granite"], times["granite"]),
            "secondary": (rates["ithemal"], times["ithemal"]),
        },
    }
    out.info("batch_seconds", times)
    if trace:
        result["per_layer"] = instrumentation.metrics({
            "models.prediction_hit_rate": hits / lookups,
            "models.encode_hit_rate": encode_hits / max(encode_hits + encode_misses, 1),
            "input.repeat_share": repeat_share,
            "input.cold_share": cold_share,
            "trace.overhead_share": overhead_share(untraced, times),
        })
        result["self_times"] = instrumentation.self_time_table()
        result["tracer"] = tracer
        tracer.restore()
    return result
