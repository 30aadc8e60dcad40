"""Tests for the streaming evaluation runners."""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.core.stages import STAGE_ORDER
from repro.errors import ConfigurationError
from repro.parallel import ServiceModel, SimulatorConfig
from repro.streaming import LiveStreamRunner, SimulatedStreamRunner, StreamRunReport
from repro.streaming import source as source_module


def flat_service(mean: float = 1e-4) -> ServiceModel:
    return ServiceModel(
        mean_seconds={s: mean for s in STAGE_ORDER}, cv=0.0, spike_probability=0.0
    )


class TestSimulatedStreamRunner:
    def test_run_produces_report(self):
        runner = SimulatedStreamRunner(flat_service(), processes=19)
        report = runner.run(500, rate=500.0)
        assert isinstance(report, StreamRunReport)
        assert report.entities == 500
        assert report.latency.count == 500
        assert report.throughput

    def test_underload_throughput_tracks_source(self):
        runner = SimulatedStreamRunner(
            flat_service(), processes=19, config=SimulatorConfig(comm_overhead=0.0)
        )
        report = runner.run(2000, rate=400.0, window=1.0)
        assert report.stable_throughput == pytest.approx(400.0, rel=0.2)

    def test_overload_throughput_below_source(self):
        runner = SimulatedStreamRunner(
            flat_service(mean=1e-3), processes=19,
            config=SimulatorConfig(comm_overhead=0.0),
        )
        report = runner.run(2000, rate=1e6, window=0.1)
        assert report.stable_throughput < 1e6 / 2

    def test_calibrated_from_real_run(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        config = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            classifier=ThresholdClassifier(0.9),
        )
        runner = SimulatedStreamRunner.calibrated(
            list(ds.stream())[:100], config, processes=19
        )
        assert runner.service.mean_total() > 0
        report = runner.run(200, rate=1000.0)
        assert report.entities == 200

    def test_calibration_requires_samples(self):
        with pytest.raises(ConfigurationError):
            SimulatedStreamRunner.calibrated([], StreamERConfig())


class TestLiveStreamRunner:
    def test_live_run_small(self, tiny_dirty_dataset, fake_time):
        clock = fake_time(source_module)  # pace without sleeping
        ds = tiny_dirty_dataset
        config = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            classifier=ThresholdClassifier(0.9),
        )
        runner = LiveStreamRunner(config, processes=8)
        report = runner.run(list(ds.stream())[:60], rate=2000.0)
        assert clock.sleeps == pytest.approx([1 / 2000.0] * 59, abs=1e-12)
        assert report.entities == 60
        assert report.latency.count == 60
        assert report.latency.mean > 0


class TestStreamRunReport:
    def test_stable_throughput_ignores_warmup_and_partial_tail(self):
        report = StreamRunReport(
            source_rate=10.0,
            entities=0,
            latency=None,  # type: ignore[arg-type]
            throughput=[(1, 2.0), (2, 9.0), (3, 10.0), (4, 11.0), (5, 3.0)],
        )
        assert report.stable_throughput == pytest.approx(10.5)

    def test_stable_throughput_empty(self):
        report = StreamRunReport(
            source_rate=1.0, entities=0, latency=None, throughput=[]  # type: ignore[arg-type]
        )
        assert report.stable_throughput == 0.0

    def test_stable_throughput_from_completions(self):
        # 11 completions 0.1 s apart: interquartile span (indices 2..8)
        # is 0.6 s for 6 completions → 10/s.
        completions = [i * 0.1 for i in range(11)]
        report = StreamRunReport(
            source_rate=10.0,
            entities=11,
            latency=None,  # type: ignore[arg-type]
            completions=completions,
        )
        assert report.stable_throughput == pytest.approx(10.0)

    def test_identical_completion_times_fall_back_to_windowed_series(self):
        # Regression: >= 8 completions sharing one timestamp (coarse
        # clock / batch drain) used to short-circuit to 0.0 even though a
        # perfectly good windowed series was available.
        report = StreamRunReport(
            source_rate=10.0,
            entities=10,
            latency=None,  # type: ignore[arg-type]
            throughput=[(1, 2.0), (2, 9.0), (3, 10.0), (4, 11.0), (5, 3.0)],
            completions=[5.0] * 10,
        )
        assert report.stable_throughput == pytest.approx(10.5)
