"""``train-multitask``: paper-scale multi-task training at batch 100.

GRANITE and Ithemal+ (three task heads, Table 4 sizes) train with
``Trainer.train_step`` on an Ithemal-like dataset of one batch of
length-stratified blocks (see :mod:`perfbench.inputs`), with the paper's
optimiser settings (Adam, learning rate 1e-3, MAPE loss, batch 100).
Gradient clipping is on (global norm 1.0) so the clip phase is measured
too.  The graph and token encode caches are warmed during set-up, as in a
long training run, so steps measure forward, backward and the optimiser:
the only workload where backward and the optimiser run.

Lanes: ``primary`` is GRANITE, ``secondary`` is Ithemal+; each reports
blocks per second and the time per training step.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List

from perfbench.common import (
    PhaseCounts,
    alternate,
    checksum,
    median,
    metric,
    overhead_share,
    peak_rss_mb,
    timed_setups,
)
from perfbench.inputs import stratified_lengths
from perfbench.layers import Instrumentation
from perfbench.tracer import Tracer

BATCH_SIZE = 100
#: The warm-up step's batch: large enough to allocate every buffer a step
#: uses once (a cold first step at batch 100 takes ~1.5x a warm one), small
#: enough to cost a fraction of a measured step.
WARMUP_BATCH_SIZE = 20
#: One batch of length-stratified blocks (see :mod:`perfbench.inputs`):
#: every step trains on all of them, so step times differ only by the
#: machine, not by which blocks a step drew.
DATASET_BLOCKS = BATCH_SIZE
#: Share of the measured window for GRANITE; its ``MIN_STEPS`` steps
#: usually take longer, and Ithemal+ keeps its share regardless.
GRANITE_SHARE = 0.6
#: A GRANITE step takes seconds, so at least this many are measured
#: whatever ``--seconds`` says.
MIN_STEPS = 3
#: Losses of the first steps of each model (warm-up included) make up the
#: checksummed same-seed trajectory; later steps depend on the run length.
CHECKSUM_STEPS = 1 + MIN_STEPS


class Training:
    def __init__(self, seed: int) -> None:
        from repro.data import GeneratorConfig, ThroughputDataset, build_ithemal_like_dataset
        from repro.models import create_model
        from repro.models.config import TrainingConfig
        from repro.training.trainer import Trainer

        samples = []
        lengths = stratified_lengths(DATASET_BLOCKS)
        for length in sorted(set(lengths)):
            fixed = GeneratorConfig(min_instructions=length, max_instructions=length)
            part = build_ithemal_like_dataset(lengths.count(length), seed=seed * 64 + length,
                                              generator_config=fixed)
            samples.extend(part.samples)
        self.dataset = ThroughputDataset(samples, name="ithemal")
        config = TrainingConfig(
            learning_rate=1e-3, batch_size=BATCH_SIZE, loss="mape",
            gradient_clip_norm=1.0, seed=seed,
        )
        models = {
            "granite": create_model("granite", small=False, inference_dtype="float64"),
            "ithemal": create_model("ithemal+", small=False, inference_dtype="float64"),
        }
        self.trainers = {family: Trainer(model, config) for family, model in models.items()}
        self.warmup_trainers = {
            family: Trainer(model, replace(config, batch_size=WARMUP_BATCH_SIZE))
            for family, model in models.items()
        }
        blocks = self.dataset.blocks()
        for trainer in self.trainers.values():
            for start in range(0, len(blocks), BATCH_SIZE):
                trainer.model.encode_blocks(blocks[start : start + BATCH_SIZE])
        self.losses: Dict[str, List[float]] = {family: [] for family in self.trainers}

    def step(self, family: str, warmup: bool = False):
        trainer = (self.warmup_trainers if warmup else self.trainers)[family]
        result = trainer.train_step(self.dataset, len(self.losses[family]) + 1)
        self.losses[family].append(result.loss)
        return result

    def measure(self, seconds: float, counts: PhaseCounts):
        def step(family: str) -> float:
            result = self.step(family)
            counts.attempted += 1
            if math.isfinite(result.loss):
                counts.succeeded += 1
            else:
                counts.failed += 1
            return result.seconds

        budgets = {"granite": GRANITE_SHARE * seconds, "ithemal": (1 - GRANITE_SHARE) * seconds}
        return alternate(budgets, MIN_STEPS, step)


def run(seed: int, seconds: float, trace: bool, out) -> Dict[str, object]:
    training, setup_s, setup_all = timed_setups(lambda: Training(seed))
    out.info("setup", {"median_s": setup_s, "runs_s": setup_all})
    tracer = Tracer()
    instrumentation = Instrumentation(tracer, training=True)
    for family, trainer in training.trainers.items():
        instrumentation.register_trainer(trainer, family)
    if trace:
        instrumentation.install_model_layers()

    warmup = PhaseCounts("warmup")
    for family in ("ithemal", "granite"):
        result = training.step(family, warmup=True)
        warmup.attempted += 1
        warmup.succeeded += int(math.isfinite(result.loss))
        warmup.failed += int(not math.isfinite(result.loss))
        out.info("warmup_step", {"family": family, "seconds": result.seconds})
    out.phase(warmup)

    models = {family: trainer.model for family, trainer in training.trainers.items()}
    before = {family: model.cache_stats() for family, model in models.items()}
    counts = PhaseCounts("measure")
    untraced = None
    if trace:
        untraced = training.measure(seconds / 2, PhaseCounts("measure-untraced"))
        tracer.enable()
        times = training.measure(seconds / 2, counts)
        tracer.disable()
    else:
        times = training.measure(seconds, counts)
    out.phase(counts)
    after = {family: model.cache_stats() for family, model in models.items()}

    problems = []
    trajectory = {}
    for family, losses in training.losses.items():
        if not all(math.isfinite(loss) for loss in losses):
            problems.append(f"{family}: non-finite training loss in {losses}")
        trajectory[family] = {
            "steps": CHECKSUM_STEPS,
            "checksum": checksum(losses[:CHECKSUM_STEPS]),
            "losses": losses[:CHECKSUM_STEPS],
        }
    out.info("loss_trajectory", trajectory)

    encode_hits = sum(after[f]["encode_hits"] - before[f]["encode_hits"] for f in after)
    encode_misses = sum(after[f]["encode_misses"] - before[f]["encode_misses"] for f in after)
    # At the median step time: one step slowed by the machine does not move it.
    rates = {family: BATCH_SIZE / median(t) for family, t in times.items()}
    out.info("step_seconds", times)
    rss = peak_rss_mb()
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "problems": problems,
        "attempted": counts.attempted + warmup.attempted,
        "failed": counts.failed + warmup.failed,
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
    if trace:
        lookups = max(encode_hits + encode_misses, 1)
        result["per_layer"] = instrumentation.metrics({
            "models.encode_hit_rate": encode_hits / lookups,
            # Every sampled block was encoded before (set-up warms the
            # caches), so repeats and cold inputs show at the encode cache.
            "input.repeat_share": encode_hits / lookups,
            "input.cold_share": encode_misses / lookups,
            "trace.overhead_share": overhead_share(untraced, times),
        })
        result["self_times"] = instrumentation.self_time_table()
        result["tracer"] = tracer
    tracer.restore()
    return result
