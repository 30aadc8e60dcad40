"""The simulator traces into the executors' ``Tracer``, in simulated time."""

from __future__ import annotations

import pytest

from repro.core.stages import STAGE_ORDER
from repro.observability import EntityTrace, Tracer
from repro.parallel import (
    PipelineSimulator,
    ServiceModel,
    SimulatorConfig,
    allocate_processes,
)


def flat_service(mean=1e-4, cv=0.0, spikes=0.0):
    return ServiceModel(
        mean_seconds={s: mean for s in STAGE_ORDER},
        cv=cv,
        spike_probability=spikes,
        spike_factor=20.0,
    )


def simulator(service, processes=8, **cfg):
    return PipelineSimulator(
        allocate_processes(service.mean_seconds, processes),
        service,
        SimulatorConfig(**cfg),
    )


def traced(service, n, **cfg):
    """Run ``n`` items at time zero, tracing every one; (result, tracer)."""
    tracer = Tracer(capacity=n)
    return simulator(service, **cfg).run([0.0] * n, tracer=tracer), tracer


class TestTraceRecording:
    def test_disabled_by_default(self):
        result = simulator(flat_service()).run_batch(5)
        assert not hasattr(result, "trace")  # spans go to a caller's Tracer

    def test_records_every_item_and_stage(self):
        _, tracer = traced(flat_service(), 10)
        traces = tracer.traces()
        assert [trace.seq for trace in traces] == list(range(10))
        for trace in traces:
            assert set(trace.spans) == set(STAGE_ORDER)
            assert trace.completed_at is not None

    def test_service_plus_wait_equals_latency(self):
        result, tracer = traced(flat_service(cv=0.5), 20, comm_overhead=1e-5)
        for item, trace in enumerate(tracer.traces()):
            assert trace.total_latency == pytest.approx(result.latencies[item], rel=1e-12)
            assert sum(trace.breakdown().values()) == pytest.approx(
                result.latencies[item], rel=1e-6
            )

    def test_waits_are_nonnegative(self):
        _, tracer = traced(flat_service(cv=1.0), 30)
        for trace in tracer.traces():
            for span in trace.spans.values():
                assert span.started_at - span.enqueued_at >= -1e-12

    def test_samples_like_every_executor(self):
        tracer = Tracer(every=4)
        simulator(flat_service()).run([0.0] * 10, tracer=tracer)
        assert [trace.seq for trace in tracer.traces()] == [0, 4, 8]


class TestPeakAttribution:
    def test_bottleneck_stage_dominates_waits(self):
        means = {s: 1e-5 for s in STAGE_ORDER}
        means["co"] = 5e-4  # 50× the rest: the queue forms in front of co
        service = ServiceModel(mean_seconds=means, cv=0.0, spike_probability=0.0)
        _, tracer = traced(service, 50)
        waits = tracer.mean_wait_by_stage()
        assert max(waits, key=lambda s: waits[s]) == "co"

    def test_peak_attribution_counts_slow_items(self):
        service = flat_service(cv=0.5, spikes=0.05)
        _, tracer = traced(service, 200)
        attribution = tracer.peak_attribution(quantile=0.95)
        assert attribution
        assert sum(attribution.values()) >= 10  # the slowest 5% of 200

    def test_dominant_stage_of_empty_breakdown(self):
        assert EntityTrace(seq=0).dominant_stage() == ""
        assert Tracer().peak_attribution() == {}
        assert Tracer().mean_wait_by_stage() == {}

    def test_peaks_follow_items_past_dead_letters(self):
        """Each trace carries its own latency, so a dead-lettered item
        cannot shift which item a peak is attributed to."""
        service = ServiceModel(
            mean_seconds={s: 1e-4 for s in STAGE_ORDER}, cv=0.7, failure_probability=0.01
        )
        tracer = Tracer(capacity=500)
        result = simulator(service).run([0.0] * 500, tracer=tracer)
        dead = {item for item, _ in result.dead_letters}
        assert dead
        for trace in tracer.traces():
            assert (trace.seq in dead) == (trace.dead_lettered_at is not None)
            assert (trace.seq in dead) == (trace.completed_at is None)
        slowest = tracer.slowest(5)
        assert all(trace.seq not in dead for trace in slowest)
        assert slowest[0].total_latency == max(result.latencies)
