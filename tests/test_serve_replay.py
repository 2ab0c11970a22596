"""Tests of the tail-latency SLO harness (repro.serve.replay)."""

import json
import math
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    Priority,
    ReplayReport,
    SloPolicy,
    Trace,
    TraceRecorder,
    TraceReplayer,
    TraceRequest,
    synthesize_trace,
)


class TestTraceRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRequest(offset_s=-0.1, block_texts=("MOV RAX, RBX",))
        with pytest.raises(ValueError):
            TraceRequest(offset_s=0.0, block_texts=())

    def test_dict_round_trip_drops_defaults(self):
        minimal = TraceRequest(offset_s=0.5, block_texts=("ADD RAX, 1",))
        raw = minimal.to_dict()
        assert "deadline_ms" not in raw and "model" not in raw
        assert TraceRequest.from_dict(raw) == minimal

        full = TraceRequest(
            offset_s=1.25,
            block_texts=("ADD RAX, 1", "SUB RBX, 2"),
            priority=int(Priority.INTERACTIVE),
            deadline_ms=50.0,
            model="granite-haswell",
            stream=True,
        )
        assert TraceRequest.from_dict(full.to_dict()) == full


class TestTrace:
    def test_offsets_must_be_non_decreasing(self):
        with pytest.raises(ValueError):
            Trace(
                requests=(
                    TraceRequest(offset_s=1.0, block_texts=("A",)),
                    TraceRequest(offset_s=0.5, block_texts=("B",)),
                )
            )

    def test_json_round_trip(self, tmp_path):
        trace = synthesize_trace(num_requests=20, seed=3, num_keys=8)
        again = Trace.from_json(trace.to_json())
        assert again.requests == trace.requests
        assert again.metadata == trace.metadata
        path = tmp_path / "trace.json"
        trace.save(str(path))
        assert Trace.load(str(path)).requests == trace.requests

    def test_version_mismatch_rejected(self):
        raw = json.loads(synthesize_trace(num_requests=2, seed=0).to_json())
        raw["version"] = 999
        with pytest.raises(ValueError, match="version"):
            Trace.from_json(json.dumps(raw))

    def test_scaled_compresses_the_timeline(self):
        trace = synthesize_trace(num_requests=50, seed=5, mean_rate_rps=100.0)
        fast = trace.scaled(10.0)
        assert fast.num_requests == trace.num_requests
        assert fast.duration_s == pytest.approx(trace.duration_s / 10.0)
        assert fast.metadata["scaled_by"] == 10.0
        # Contents are untouched — only arrivals move.
        assert [r.block_texts for r in fast.requests] == [
            r.block_texts for r in trace.requests
        ]
        with pytest.raises(ValueError):
            trace.scaled(0.0)


class TestSynthesizeTrace:
    def test_deterministic_under_fixed_seed(self):
        first = synthesize_trace(num_requests=100, seed=42)
        second = synthesize_trace(num_requests=100, seed=42)
        assert first.to_json() == second.to_json()
        different = synthesize_trace(num_requests=100, seed=43)
        assert different.to_json() != first.to_json()

    def test_zipf_head_dominates(self):
        trace = synthesize_trace(
            num_requests=500, seed=1, num_keys=32, zipf_alpha=1.2
        )
        counts = {}
        for request in trace.requests:
            for text in request.block_texts:
                counts[text] = counts.get(text, 0) + 1
        top = max(counts.values())
        # With alpha=1.2 over 32 keys the head carries >15% of traffic;
        # a uniform draw would give ~3%.
        assert top / trace.num_blocks > 0.10
        assert len(counts) <= 32

    def test_mean_rate_is_roughly_honored(self):
        trace = synthesize_trace(
            num_requests=2000, seed=9, mean_rate_rps=500.0
        )
        realized = (trace.num_requests - 1) / trace.duration_s
        assert realized == pytest.approx(500.0, rel=0.25)

    def test_explicit_universe_and_metadata(self):
        universe = ["MOV RAX, RBX", "ADD RCX, 4", "SUB RDX, 8"]
        trace = synthesize_trace(
            num_requests=30,
            seed=2,
            block_universe=universe,
            num_keys=3,
            deadline_ms=75.0,
        )
        texts = {text for r in trace.requests for text in r.block_texts}
        assert texts <= set(universe)
        assert all(r.deadline_ms == 75.0 for r in trace.requests)
        assert trace.metadata["source"] == "synthesized"
        assert trace.metadata["seed"] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=0, seed=0)
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=1, seed=0, mean_rate_rps=0.0)
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=1, seed=0, burstiness=0.5)
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=1, seed=0, burst_fraction=1.5)
        with pytest.raises(ValueError):
            synthesize_trace(num_requests=1, seed=0, block_universe=[])


class TestTraceRecorder:
    def test_offsets_are_relative_to_first_record(self):
        recorder = TraceRecorder()
        recorder.record(["A"], now=100.0)
        recorder.record(["B"], now=100.5, priority=int(Priority.INTERACTIVE))
        recorder.record(["C", "D"], now=102.0, model="tiny-queue")
        trace = recorder.trace(note="unit")
        assert [r.offset_s for r in trace.requests] == [0.0, 0.5, 2.0]
        assert trace.requests[1].priority == int(Priority.INTERACTIVE)
        assert trace.requests[2].model == "tiny-queue"
        assert trace.metadata["source"] == "recorded"
        assert trace.metadata["note"] == "unit"
        assert len(recorder) == 3

    def test_capture_is_bounded(self):
        recorder = TraceRecorder(max_requests=2)
        for index in range(5):
            recorder.record(["X"], now=float(index))
        assert len(recorder) == 2
        trace = recorder.trace()
        assert trace.num_requests == 2
        assert trace.metadata["dropped"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_requests=0)


class TestSloPolicy:
    @staticmethod
    def _report(**overrides):
        base = dict(
            num_requests=10,
            completed=10,
            errors=0,
            rejected=0,
            duration_s=1.0,
            offered_rps=10.0,
            speedup=1.0,
            p50_ms=5.0,
            p99_ms=20.0,
            p999_ms=30.0,
            mean_ms=6.0,
            max_ms=30.0,
            jitter_ms=2.0,
            schedule_lag_p99_ms=0.1,
            latencies_ms=tuple(float(v) for v in range(1, 11)),
        )
        base.update(overrides)
        return ReplayReport(**base)

    def test_within_budget_passes(self):
        policy = SloPolicy(p50_ms=10.0, p99_ms=25.0, p999_ms=40.0)
        verdict = policy.check(self._report())
        assert verdict.met and verdict.violations == ()

    def test_over_budget_fails_with_reasons(self):
        policy = SloPolicy(p99_ms=10.0)
        verdict = policy.check(self._report())
        assert not verdict.met
        assert any("p99" in violation for violation in verdict.violations)

    def test_nan_percentiles_never_pass(self):
        nan = float("nan")
        empty = self._report(
            completed=0, p50_ms=nan, p99_ms=nan, p999_ms=nan, latencies_ms=()
        )
        verdict = SloPolicy(p99_ms=1e9).check(empty)
        assert not verdict.met  # measured nothing != met the SLO

    def test_violation_rate_budget(self):
        # 3 of 10 latencies exceed 7ms.
        report = self._report()
        assert report.violation_rate(7.0) == pytest.approx(0.3)
        assert not SloPolicy(budget_ms=7.0, max_violation_rate=0.2).check(report).met
        assert SloPolicy(budget_ms=7.0, max_violation_rate=0.3).check(report).met
        assert math.isnan(self._report(latencies_ms=()).violation_rate(7.0))

    def test_error_rate_budget(self):
        report = self._report(errors=1, rejected=1)
        assert not SloPolicy(max_error_rate=0.1).check(report).met
        assert SloPolicy(max_error_rate=0.2).check(report).met


class TestTraceReplayer:
    def test_replays_against_a_live_service(self):
        trace = synthesize_trace(
            num_requests=30, seed=17, num_keys=8, mean_rate_rps=400.0
        )
        policy = SloPolicy(p50_ms=5_000.0, max_error_rate=0.0)
        with AsyncPredictionService(AsyncOptions(max_latency_ms=2.0)) as service:
            replayer = TraceReplayer(service, speedup=2.0, slo=policy)
            report = replayer.run(trace)
        assert report.num_requests == 30
        assert report.completed == 30
        assert report.errors == 0 and report.rejected == 0
        assert report.p50_ms > 0.0
        assert report.p999_ms >= report.p99_ms >= report.p50_ms
        assert not math.isnan(report.jitter_ms)
        assert report.speedup == 2.0
        assert report.slo is not None and report.slo.met
        wire = report.to_dict()
        assert "latencies_ms" not in wire
        assert wire["slo"]["met"] is True
        assert len(report.to_dict(include_latencies=True)["latencies_ms"]) == 30

    def test_latency_counts_the_wait_behind_a_slow_submit(self):
        """Latency runs from the due time, not from when submit was reached."""

        class SlowSubmitService:
            """Spends 50 ms in every submit, then answers at once."""

            def submit(self, request, priority=None, deadline_ms=None):
                time.sleep(0.05)
                future = Future()
                future.set_result(None)
                return future

        trace = Trace(
            requests=tuple(
                TraceRequest(offset_s=0.0, block_texts=(f"ADD RAX, {index}",))
                for index in range(3)
            )
        )
        report = TraceReplayer(SlowSubmitService()).run(trace)
        assert report.completed == 3
        # All three are due at once; the second and third also wait out the
        # submits ahead of them: ~50 / ~100 / ~150 ms.
        for rank, latency_ms in enumerate(report.latencies_ms, start=1):
            assert latency_ms >= 50.0 * rank - 1.0
        assert report.schedule_lag_p99_ms >= 90.0
        # A service without snapshot() reports no hedges.
        assert report.hedges_issued == 0 and report.hedges_won == 0

    def test_hedge_counts_are_the_snapshot_delta(self):
        class CountingService:
            """Counts one issued hedge per submit and one won per two."""

            def __init__(self):
                self.issued, self.won = 5, 2

            def submit(self, request, priority=None, deadline_ms=None):
                self.issued += 1
                self.won += self.issued % 2
                future = Future()
                future.set_result(None)
                return future

            def snapshot(self):
                return SimpleNamespace(
                    hedge=SimpleNamespace(issued=self.issued, won=self.won)
                )

        trace = Trace(
            requests=tuple(
                TraceRequest(offset_s=0.0, block_texts=(f"ADD RAX, {index}",))
                for index in range(4)
            )
        )
        service = CountingService()
        report = TraceReplayer(service).run(trace)
        assert report.hedges_issued == service.issued - 5 == 4
        assert report.hedges_won == service.won - 2 == 2

    def test_malformed_snapshot_is_not_read_as_zero_hedges(self):
        class FlatSnapshotService:
            """Returns a flat mapping, which has no ``hedge`` attribute."""

            def submit(self, request, priority=None, deadline_ms=None):
                future = Future()
                future.set_result(None)
                return future

            def snapshot(self):
                return {"hedges_issued": 3, "hedges_won": 1}

        trace = Trace(
            requests=(TraceRequest(offset_s=0.0, block_texts=("ADD RAX, 1",)),)
        )
        with pytest.raises(AttributeError):
            TraceReplayer(FlatSnapshotService()).run(trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceReplayer(service=None, speedup=0.0)
        with pytest.raises(ValueError):
            TraceReplayer(service=None, result_timeout_s=0.0)
