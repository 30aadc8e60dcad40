"""A clock the streaming tests drive by hand: pacing is asserted as the
exact sleep schedule a source requests, never as elapsed wall time."""

from __future__ import annotations

import pytest


class FakeClock:
    """Stands in for a module's ``time``: ``perf_counter`` reads a counter
    that only ``sleep`` (or the test) advances, and every requested sleep
    is recorded."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def perf_counter(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def fake_time(monkeypatch):
    """``fake_time(module)`` replaces ``module.time`` with a fresh
    :class:`FakeClock` and returns it."""

    def install(module) -> FakeClock:
        clock = FakeClock()
        monkeypatch.setattr(module, "time", clock)
        return clock

    return install
