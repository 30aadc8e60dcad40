"""Tests for the metrics registry and its instruments."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.observability import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total")
        assert c.value == 0.0
        c.inc()
        c.inc(3)
        assert c.value == 4.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("x_total").inc(-1)

    def test_same_identity_same_object(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", stage="dr")
        b = registry.counter("x_total", stage="dr")
        other = registry.counter("x_total", stage="co")
        assert a is b
        assert a is not other

    def test_label_order_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", a="1", b="2")
        b = registry.counter("x_total", b="2", a="1")
        assert a is b


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4.0


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        # Prometheus "le" semantics: a value exactly on a bound lands in
        # that bucket, not the next one.
        h = MetricsRegistry().histogram("t_seconds", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0):
            h.observe(v)
        cumulative = dict(h.bucket_counts())
        assert cumulative[1.0] == 2  # 0.5, 1.0
        assert cumulative[2.0] == 4  # + 1.5, 2.0
        assert cumulative[4.0] == 6  # + 3.0, 4.0
        assert cumulative[float("inf")] == 7  # + 100.0
        assert h.count == 7
        assert h.sum == pytest.approx(112.0)

    def test_cumulative_counts_monotone(self):
        h = MetricsRegistry().histogram("t_seconds")
        for v in (1e-6, 1e-4, 1e-2, 1.0, 100.0):
            h.observe(v)
        counts = [c for _, c in h.bucket_counts()]
        assert counts == sorted(counts)
        assert counts[-1] == 5
        assert len(counts) == len(DEFAULT_TIME_BUCKETS) + 1

    def test_quantile_estimate(self):
        h = MetricsRegistry().histogram("t_seconds", buckets=(1.0, 2.0, 4.0))
        for _ in range(90):
            h.observe(0.5)
        for _ in range(10):
            h.observe(3.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 4.0

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("t_seconds", buckets=())
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("t_seconds", buckets=(2.0, 1.0))


class TestRegistry:
    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total")

    def test_names_and_value(self):
        registry = MetricsRegistry()
        registry.counter("a_total", stage="dr").inc(2)
        registry.gauge("b_depth").set(7)
        assert registry.names() == {"a_total", "b_depth"}
        assert registry.value("a_total", stage="dr") == 2.0
        assert registry.value("missing") == 0.0

    def test_collect_sorted_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.counter("a_total", stage="co")
        registry.counter("a_total", stage="bb+bp")
        names = [(m.name, m.labels) for m in registry.collect()]
        assert names == sorted(names)

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = MetricsRegistry(enabled=False)
        c = registry.counter("x_total")
        c.inc(100)
        assert c.value == 0.0
        assert registry.names() == set()
        assert list(registry.collect()) == []
        # All instrument kinds share the same do-nothing singleton.
        assert registry.gauge("g") is c
        assert registry.histogram("h") is c

    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False

    def test_instrument_types(self):
        registry = MetricsRegistry()
        assert isinstance(registry.counter("c_total"), Counter)
        assert isinstance(registry.gauge("g"), Gauge)
        assert isinstance(registry.histogram("h_seconds"), Histogram)


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("x_total")
        histogram = registry.histogram("t_seconds", buckets=(0.5, 1.0))
        n_threads, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                counter.inc()
                histogram.observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread
        assert histogram.count == n_threads * per_thread
        assert histogram.bucket_counts()[0][1] == n_threads * per_thread

    def test_concurrent_creation_is_idempotent(self):
        registry = MetricsRegistry()
        seen: list[object] = []

        def create():
            seen.append(registry.counter("x_total", stage="co"))

        threads = [threading.Thread(target=create) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(obj is seen[0] for obj in seen)


class TestStateAndMerge:
    """A registry's state crosses a process boundary and adds into another."""

    def test_counters_add(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.counter("items_total", stage="co").inc(3)
        parent.counter("items_total", stage="co").inc(4)
        worker.counter("fresh_total").inc(2)
        parent.merge(worker.state())
        parent.merge(worker.state())
        assert parent.value("items_total", stage="co") == 10
        assert parent.value("fresh_total") == 4

    def test_histograms_add_exactly(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        bounds = (0.1, 1.0, 10.0)
        for value in (0.05, 0.3, 0.3, 20.0):
            worker.histogram("service_seconds", buckets=bounds, stage="cl").observe(value)
        for value in (0.7, 5.0):
            parent.histogram("service_seconds", buckets=bounds, stage="cl").observe(value)
        parent.merge(worker.state())
        merged = parent.histogram("service_seconds", buckets=bounds, stage="cl")
        assert merged.bucket_counts() == [(0.1, 1), (1.0, 4), (10.0, 5), (float("inf"), 6)]
        assert merged.count == 6
        assert merged.sum == pytest.approx(0.05 + 0.3 + 0.3 + 20.0 + 0.7 + 5.0)

    def test_state_is_plain_data_without_gauges(self):
        import pickle

        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.gauge("depth").set(7)
        registry.histogram("h_seconds").observe(0.5)
        state = registry.state()
        assert pickle.loads(pickle.dumps(state)) == state
        assert {name for name, _, _ in state} == {"a_total", "h_seconds"}

    def test_mismatched_bounds_raise(self):
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.histogram("h_seconds", buckets=(1.0, 2.0)).observe(1.5)
        parent.histogram("h_seconds", buckets=(1.0, 3.0))
        with pytest.raises(ConfigurationError, match="bounds"):
            parent.merge(worker.state())

    def test_disabled_state_merges_as_noop(self):
        disabled = MetricsRegistry(enabled=False)
        disabled.counter("a_total").inc(5)
        disabled.histogram("h_seconds").observe(0.5)
        assert disabled.state() == []
        parent = MetricsRegistry()
        parent.counter("a_total").inc(2)
        parent.merge(disabled.state())
        assert parent.value("a_total") == 2
        assert parent.names() == {"a_total"}

    def test_merge_into_disabled_is_noop(self):
        worker = MetricsRegistry()
        worker.counter("a_total").inc(5)
        worker.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        NULL_REGISTRY.merge(worker.state())
        assert NULL_REGISTRY.names() == set()
