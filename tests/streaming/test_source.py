"""Tests for stream sources."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.streaming import RateLimitedSource, arrival_schedule
from repro.streaming import source as source_module
from repro.types import EntityDescription


def entities(n):
    return [EntityDescription.create(i, {"a": "x"}) for i in range(n)]


class TestRateLimitedSource:
    def test_yields_all_in_order(self):
        source = RateLimitedSource(entities(5), rate=1e6)
        assert [e.eid for e in source] == [0, 1, 2, 3, 4]

    def test_paces_emissions(self, fake_time):
        clock = fake_time(source_module)
        source = RateLimitedSource(entities(6), rate=100)  # 10 ms apart
        assert [e.eid for e in source] == [0, 1, 2, 3, 4, 5]
        assert clock.sleeps == pytest.approx([0.01] * 5, abs=1e-12)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            RateLimitedSource(entities(1), rate=0)


class TestArrivalSchedule:
    def test_uniform_spacing(self):
        times = arrival_schedule(4, rate=2.0)
        assert times == [0.0, 0.5, 1.0, 1.5]

    def test_burst_groups_share_timestamps(self):
        times = arrival_schedule(6, rate=2.0, burst=3)
        assert times == [0.0, 0.0, 0.0, 1.5, 1.5, 1.5]

    def test_average_rate_preserved_with_burst(self):
        times = arrival_schedule(100, rate=50.0, burst=10)
        span = times[-1] - times[0]
        assert span == pytest.approx((100 - 10) / 50.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            arrival_schedule(5, rate=-1)
        with pytest.raises(ConfigurationError):
            arrival_schedule(5, rate=1, burst=0)
