"""Tests for timestamped stream replay."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.streaming import replay as replay_module
from repro.streaming.replay import arrival_times_from_events, replay
from repro.types import EntityDescription


def events(gaps):
    ts = 0.0
    out = []
    for i, gap in enumerate(gaps):
        ts += gap
        out.append((ts, EntityDescription.create(i, {"a": "x"})))
    return out


class TestReplay:
    def test_preserves_order_and_content(self):
        out = list(replay(events([0, 0.001, 0.001]), speed=1000))
        assert [e.eid for e in out] == [0, 1, 2]

    def test_respects_gaps(self, fake_time):
        clock = fake_time(replay_module)
        stream = events([0, 0.05, 0.05])
        list(replay(stream, speed=1.0))
        assert clock.sleeps == pytest.approx([0.05, 0.05], abs=1e-12)

    def test_speed_compresses_gaps(self, fake_time):
        clock = fake_time(replay_module)
        stream = events([0, 0.2, 0.2])
        list(replay(stream, speed=100.0))
        assert clock.sleeps == pytest.approx([0.002, 0.002], abs=1e-12)

    def test_consumer_time_counts_against_the_gap(self, fake_time):
        """Targets are absolute: time the consumer spends on one entity is
        taken off the next sleep, and a late entity is not slept for."""
        clock = fake_time(replay_module)
        for _ in replay(events([0, 0.05, 0.05, 0.0]), speed=1.0):
            clock.now += 0.02
        assert clock.sleeps == pytest.approx([0.03, 0.03], abs=1e-12)

    def test_rejects_out_of_order(self):
        bad = [(1.0, EntityDescription.create(0, {})), (0.5, EntityDescription.create(1, {}))]
        with pytest.raises(ConfigurationError, match="out of order"):
            list(replay(bad, speed=100))

    def test_rejects_bad_speed(self):
        with pytest.raises(ConfigurationError):
            list(replay([], speed=0))


class TestArrivalTimes:
    def test_relative_schedule(self):
        stream = events([5.0, 1.0, 2.0])
        assert arrival_times_from_events(stream) == [0.0, 1.0, 3.0]

    def test_speed_scaling(self):
        stream = events([0.0, 2.0])
        assert arrival_times_from_events(stream, speed=2.0) == [0.0, 1.0]

    def test_empty(self):
        assert arrival_times_from_events([]) == []

    def test_out_of_order_rejected(self):
        bad = [(1.0, EntityDescription.create(0, {})), (0.5, EntityDescription.create(1, {}))]
        with pytest.raises(ConfigurationError):
            arrival_times_from_events(bad)
