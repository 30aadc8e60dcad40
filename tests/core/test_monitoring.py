"""Tests for pipeline monitoring."""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.monitoring import PipelineMonitor, Snapshot
from repro.errors import ConfigurationError
from repro.observability import MetricsRegistry
from repro.parallel import MultiprocessERPipeline, ParallelERPipeline
from repro.types import EntityDescription


def make_monitor(interval=10, on_snapshot=None):
    pipeline = StreamERPipeline(
        StreamERConfig(alpha=100, beta=0.1, classifier=ThresholdClassifier(0.5)),
        instrument=False,
    )
    return PipelineMonitor(pipeline, interval=interval, on_snapshot=on_snapshot)


def entities(n):
    return [
        EntityDescription.create(i, {"t": f"token{i % 7} shared words"})
        for i in range(n)
    ]


class TestValidation:
    def test_rejects_bad_interval(self):
        pipeline = StreamERPipeline(instrument=False)
        with pytest.raises(ConfigurationError):
            PipelineMonitor(pipeline, interval=0)

    def test_rejects_tiny_window(self):
        pipeline = StreamERPipeline(instrument=False)
        with pytest.raises(ConfigurationError):
            PipelineMonitor(pipeline, window=1)


class TestSnapshots:
    def test_emitted_on_schedule(self):
        received: list[Snapshot] = []
        monitor = make_monitor(interval=10, on_snapshot=received.append)
        monitor.process_many(entities(35))
        assert len(received) == 3
        assert [s.entities_processed for s in received] == [10, 20, 30]

    def test_manual_snapshot(self):
        monitor = make_monitor(interval=1000)
        monitor.process_many(entities(5))
        snap = monitor.snapshot()
        assert snap.entities_processed == 5
        assert snap.profiles_stored == 5
        assert snap.blocks > 0

    def test_recent_rates_use_previous_snapshot(self):
        monitor = make_monitor(interval=10)
        monitor.process_many(entities(30))
        last = monitor.history[-1]
        assert last.throughput_recent > 0
        assert last.comparisons_per_entity_recent >= 0

    def test_history_bounded(self):
        monitor = make_monitor(interval=1)
        monitor.history = type(monitor.history)(maxlen=5)
        monitor.process_many(entities(20))
        assert len(monitor.history) == 5

    def test_matches_pass_through(self):
        monitor = make_monitor(interval=100)
        out = monitor.process_many(
            [
                EntityDescription.create(1, {"a": "alpha beta gamma"}),
                EntityDescription.create(2, {"a": "alpha beta gamma"}),
            ]
        )
        assert [m.key() for m in out] == [(1, 2)]

    def test_summary_readable(self):
        monitor = make_monitor(interval=1000)
        monitor.process_many(entities(3))
        text = monitor.snapshot().summary()
        assert "3 entities" in text
        assert "blocks" in text


def _snap(entities_processed: int, elapsed: float, executed: int,
          throughput: float = 0.0) -> Snapshot:
    return Snapshot(
        entities_processed=entities_processed,
        elapsed_seconds=elapsed,
        throughput_recent=throughput,
        comparisons_generated=executed,
        comparisons_executed=executed,
        comparisons_per_entity_recent=0.0,
        matches_found=0,
        blocks=0,
        blacklisted_keys=0,
        profiles_stored=0,
    )


class TestRecentRates:
    def test_rates_span_whole_retained_window(self):
        # Regression: the docstring promises rates over the retained
        # window, but the old code diffed against history[-1] (one
        # interval).  Base must be the *oldest* retained snapshot.
        monitor = make_monitor(interval=1000)
        monitor.history.append(_snap(0, 0.0, 0))
        monitor.history.append(_snap(150, 1.0, 0, throughput=150.0))
        throughput, _ = monitor._recent_rates(200, 2.0, 0)
        assert throughput == pytest.approx(100.0)  # (200-0)/(2-0), not 50/s

    def test_zero_time_span_carries_previous_rate(self):
        # Regression: two snapshots inside timer resolution must not
        # report a rate of 0.0 — that reads as a stall.
        monitor = make_monitor(interval=1000)
        monitor.history.append(_snap(100, 1.0, 0, throughput=100.0))
        monitor.history.append(_snap(120, 1.2, 0, throughput=100.0))
        throughput, _ = monitor._recent_rates(120, 1.0, 0)
        assert throughput == pytest.approx(100.0)


def monitored_config():
    return StreamERConfig(alpha=100, beta=0.1, classifier=ThresholdClassifier(0.5))


class TestNonSequentialExecutors:
    """The monitor must read any executor, not poke sequential attributes."""

    def test_thread_parallel_pipeline(self):
        pipeline = ParallelERPipeline(monitored_config(), processes=8)
        pipeline.run(entities(30))
        snap = PipelineMonitor(pipeline, interval=10).snapshot()
        assert snap.entities_processed == 30
        assert snap.profiles_stored == 30
        assert snap.blocks > 0
        assert snap.comparisons_generated > 0

    def test_multiprocess_pipeline(self):
        pipeline = MultiprocessERPipeline(monitored_config(), workers=2)
        pipeline.run(entities(30))
        snap = PipelineMonitor(pipeline, interval=10).snapshot()
        assert snap.entities_processed == 30
        assert snap.profiles_stored == 30
        assert snap.comparisons_executed > 0

    def test_registry_backed_counters(self):
        registry = MetricsRegistry()
        pipeline = ParallelERPipeline(
            monitored_config(), processes=8, registry=registry
        )
        pipeline.run(entities(30))
        monitor = PipelineMonitor(pipeline, interval=10)
        snap = monitor.snapshot()
        assert monitor.registry is registry
        assert snap.comparisons_generated > 0
        assert snap.comparisons_executed > 0
