"""A lightweight, thread-safe metrics registry for every executor.

The paper's evaluation (§V, Figs. 11–13) stands on latency and throughput
numbers; this module is the substrate that makes those numbers come from
one instrumented code path instead of ad-hoc ``perf_counter()`` calls
scattered across executors.  Three instrument kinds cover the pipeline's
needs:

* :class:`Counter` — monotonically increasing totals (items per stage,
  comparisons generated/executed, dead letters, retries);
* :class:`Gauge` — last-written values (queue depths sampled at put/get);
* :class:`Histogram` — fixed-bucket distributions (per-stage service
  time, end-to-end latency), cumulative-bucket semantics compatible with
  the Prometheus exposition format.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  A registry constructed with
   ``enabled=False`` (or the shared :data:`NULL_REGISTRY`) hands out
   singleton null instruments whose methods are no-ops, and exposes
   ``enabled`` so the compiled plan can hand out bare stages — the
   disabled path adds no locks, no allocation, no timer reads.
2. **Thread safety.**  Instruments are shared across worker threads in
   the parallel framework; every mutation takes the instrument's lock
   (``+=`` on an attribute is *not* atomic under CPython's bytecode
   interleaving).  Instrument *creation* is idempotent and guarded by the
   registry lock, so two threads requesting the same (name, labels) get
   the same object.
3. **Executor-agnostic.**  Nothing here knows about stages or queues;
   the wiring lives in :mod:`repro.observability.instrument`.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Iterator, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
]

#: Default upper bounds (seconds) for service-time / latency histograms:
#: log-spaced from 10 µs to 10 s, the range spanned by a python stage call
#: on one side and a saturated queue on the other.  ``+Inf`` is implicit.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down; reads return the last write."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution with Prometheus cumulative semantics.

    ``bounds`` are the inclusive upper bounds of the finite buckets, in
    strictly increasing order; an overflow (``+Inf``) bucket is implicit.
    ``observe`` is O(log #buckets) and takes one lock.
    """

    __slots__ = ("name", "labels", "bounds", "_lock", "_bucket_counts", "_count", "_sum")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 = the +Inf bucket
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left: bucket i holds values <= bounds[i] (Prometheus "le").
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative (upper bound, count) pairs, ending with (inf, count)."""
        with self._lock:
            raw = list(self._bucket_counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip((*self.bounds, float("inf")), raw):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the upper bound of the
        bucket containing the q-th observation; inf maps to the last
        finite bound).  Coarse by construction — use raw samples when
        exactness matters; this exists for dashboards."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        for bound, cumulative in self.bucket_counts():
            if cumulative >= rank:
                return bound if bound != float("inf") else self.bounds[-1]
        return self.bounds[-1]


class _NullInstrument:
    """Shared do-nothing stand-in handed out by a disabled registry."""

    __slots__ = ()
    name = ""
    labels: LabelSet = ()
    bounds: tuple[float, ...] = ()
    count = 0
    sum = 0.0
    value = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def bucket_counts(self) -> list[tuple[float, int]]:
        return []

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Owns every instrument of one pipeline run.

    Instruments are identified by ``(name, labels)``; requesting the same
    identity twice returns the same object, so independent call sites
    accumulate into one total.  A name must keep one instrument kind
    (requesting ``counter`` then ``gauge`` under the same name raises).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelSet], Counter | Gauge | Histogram] = {}
        self._kinds: dict[str, type] = {}

    def _get_or_create(self, cls: type, name: str, labels: dict[str, str], **kwargs):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = (name, _label_key(labels))
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind is not cls:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {kind.__name__}, "
                    f"requested {cls.__name__}"
                )
            existing = self._metrics.get(key)
            if existing is not None:
                return existing
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
            self._kinds[name] = cls
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- introspection --------------------------------------------------

    def collect(self) -> Iterator[Counter | Gauge | Histogram]:
        """All instruments, sorted by (name, labels) for stable exports."""
        with self._lock:
            metrics = list(self._metrics.items())
        for _, metric in sorted(metrics, key=lambda kv: kv[0]):
            yield metric

    def names(self) -> set[str]:
        """Distinct metric family names currently registered."""
        with self._lock:
            return {name for name, _ in self._metrics}

    def get(self, name: str, **labels: str) -> Counter | Gauge | Histogram | None:
        """The instrument at (name, labels), or None when never created."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: str) -> float:
        """Counter/gauge value at (name, labels); 0.0 when absent."""
        metric = self.get(name, **labels)
        return metric.value if metric is not None else 0.0

    # -- crossing a process boundary ------------------------------------

    def state(self) -> list[tuple]:
        """The counters and histograms as picklable ``(name, labels,
        value)`` rows — a histogram's value is ``(bounds, bucket counts,
        count, sum)`` — for :meth:`merge` into another process's registry.
        Gauges stay: a gauge is a point-in-time reading of the process that
        set it, not a total to add."""
        rows: list[tuple] = []
        for metric in self.collect():
            if type(metric) is Counter:
                rows.append((metric.name, metric.labels, metric.value))
            elif type(metric) is Histogram:
                with metric._lock:
                    counts = tuple(metric._bucket_counts)
                    value = (metric.bounds, counts, metric._count, metric._sum)
                rows.append((metric.name, metric.labels, value))
        return rows

    def merge(self, state: list[tuple]) -> None:
        """Add another registry's :meth:`state` into this one: counters and
        histogram buckets add.  A histogram's bounds must match the ones
        registered here.  A no-op on a disabled registry."""
        if not self.enabled:
            return
        for name, labels, value in state:
            if type(value) is not tuple:
                self._get_or_create(Counter, name, dict(labels)).inc(value)
                continue
            bounds, counts, count, total = value
            histogram = self._get_or_create(Histogram, name, dict(labels), buckets=bounds)
            if histogram.bounds != bounds:
                raise ConfigurationError(
                    f"histogram {name!r} bounds differ: {histogram.bounds} vs {bounds}"
                )
            with histogram._lock:
                for index, n in enumerate(counts):
                    histogram._bucket_counts[index] += n
                histogram._count += count
                histogram._sum += total


#: The shared disabled registry: every executor defaults to it, so the
#: un-instrumented hot path stays exactly as fast as before this layer.
NULL_REGISTRY = MetricsRegistry(enabled=False)
