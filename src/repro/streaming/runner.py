"""Streaming evaluation harness (§V-D).

Measures per-entity latency and output throughput of the framework under
a rate-controlled source.  Three drivers:

* :class:`LiveStreamRunner` — real wall-clock run of the thread framework
  behind a :class:`~repro.streaming.source.RateLimitedSource`; suitable for
  modest rates on a real box.
* :class:`MultiprocessStreamRunner` — drives *one* persistent
  :class:`~repro.parallel.mp_framework.MultiprocessERPipeline` across a
  sequence of increments (the dynamic-data scenario): the worker pool and
  the shared-memory token columns outlive every increment, so per-increment
  cost is pure scoring, not fork + re-serialization.
* :class:`SimulatedStreamRunner` — calibrates a
  :class:`~repro.parallel.simulator.ServiceModel` from an instrumented
  sequential run over sample data, then drives the discrete-event
  simulator at arbitrary source rates (the paper's 5 000–100 000
  descriptions/s).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.config import StreamERConfig
from repro.evaluation.metrics import LatencySummary, throughput_series
from repro.observability.export import write_json_snapshot
from repro.observability.registry import MetricsRegistry
from repro.parallel.allocation import allocate_processes
from repro.parallel.framework import ParallelERPipeline
from repro.parallel.simulator import (
    PipelineSimulator,
    ServiceModel,
    SimulatorConfig,
)
from repro.streaming.source import RateLimitedSource, arrival_schedule
from repro.types import EntityDescription


@dataclass
class StreamRunReport:
    """Latency and throughput measurements of one streaming run."""

    source_rate: float
    entities: int
    latency: LatencySummary
    latencies: list[float] = field(default_factory=list)
    throughput: list[tuple[float, float]] = field(default_factory=list)
    completions: list[float] = field(default_factory=list)

    @property
    def stable_throughput(self) -> float:
        """Steady-state output rate, robust to warm-up and drain phases.

        Computed over the middle half of the completion timestamps (between
        the 25th and 75th percentile), which excludes both the initial
        buffer-filling burst and the partial final window.  Falls back to
        averaging the second half of the windowed series when raw
        completion times are unavailable (live runs).
        """
        if len(self.completions) >= 8:
            data = sorted(self.completions)
            n = len(data)
            lo_index, hi_index = n // 4, (3 * n) // 4
            span = data[hi_index] - data[lo_index]
            if span > 0.0:
                return (hi_index - lo_index) / span
            # A zero interquartile span (batch completions, coarse clocks:
            # many identical timestamps) is a degenerate sample, not a
            # zero-throughput run — fall through to the windowed series.
        if not self.throughput:
            return 0.0
        half = self.throughput[len(self.throughput) // 2 :]
        # The final window is usually partial; ignore it when possible.
        if len(half) > 1:
            half = half[:-1]
        return sum(v for _, v in half) / len(half)


class LiveStreamRunner:
    """Drive the thread framework from a real rate-limited source.

    With a ``registry``, each run's pipeline emits the shared metric
    vocabulary; ``metrics_path`` additionally writes a JSON snapshot of
    the registry when the run finishes (see
    :func:`repro.observability.export.write_json_snapshot`).
    """

    def __init__(
        self,
        config: StreamERConfig,
        processes: int = 8,
        micro_batch_size: int = 1,
        stage_seconds: dict[str, float] | None = None,
        registry: MetricsRegistry | None = None,
        metrics_path: str | None = None,
    ) -> None:
        self.config = config
        self.processes = processes
        self.micro_batch_size = micro_batch_size
        self.stage_seconds = stage_seconds
        self.registry = registry
        self.metrics_path = metrics_path

    def run(self, entities: Iterable[EntityDescription], rate: float) -> StreamRunReport:
        pipeline = ParallelERPipeline(
            self.config,
            processes=self.processes,
            stage_seconds=self.stage_seconds,
            micro_batch_size=self.micro_batch_size,
            registry=self.registry,
        )
        result = pipeline.run(RateLimitedSource(entities, rate))
        if self.registry is not None and self.metrics_path is not None:
            write_json_snapshot(self.registry, self.metrics_path)
        # Completion timestamps are recoverable from elapsed + latencies
        # only approximately; for live runs report latency stats and the
        # mean output rate.
        mean_rate = (
            result.entities_processed / result.elapsed_seconds
            if result.elapsed_seconds > 0
            else 0.0
        )
        return StreamRunReport(
            source_rate=rate,
            entities=result.entities_processed,
            latency=LatencySummary.from_samples(result.latencies),
            latencies=result.latencies,
            throughput=[(result.elapsed_seconds, mean_rate)],
        )


@dataclass
class IncrementReport:
    """One increment's outcome under :class:`MultiprocessStreamRunner`."""

    entities: int
    matches_found: int
    elapsed_seconds: float
    pool_reused: bool


class MultiprocessStreamRunner:
    """Incremental multiprocess ER with state and workers kept warm.

    The dynamic-data loop the paper targets: increments arrive over time
    and each must be resolved against *all* state accumulated so far.  The
    runner owns one :class:`~repro.core.backends.shm.SharedMemoryBackend`
    (so the shared columns persist across increments) and one
    :class:`~repro.parallel.mp_framework.MultiprocessERPipeline` — the
    worker pool spawns on the first increment and is reused by every
    later one.  Use as a context manager (or call :meth:`close`) to
    release the pool and unlink the shared segments.

    With ``backend=None`` a fresh shared-memory backend is created and
    owned (closed + unlinked) by the runner; pass an explicit backend —
    e.g. ``DurableBackend.open(wal_dir, config,
    inner=SharedMemoryBackend())`` for a durable incremental run, whose
    tails still dispatch to the pool (each increment is logged in the
    parent before it runs) — to manage its lifecycle yourself.

    ``partitioned="auto"`` (default) uses partitioned dispatch when
    the wiring is eligible and otherwise resolves every entity in the
    parent (see :mod:`repro.parallel.mp_framework`); pass ``True`` to fail
    loudly when ineligible.
    """

    def __init__(
        self,
        config: StreamERConfig,
        workers: int = 2,
        backend=None,
        registry: MetricsRegistry | None = None,
        metrics_path: str | None = None,
        partitioned: bool | str = "auto",
    ) -> None:
        from repro.core.backends.shm import SharedMemoryBackend
        from repro.parallel.mp_framework import MultiprocessERPipeline

        self.config = config
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else SharedMemoryBackend()
        self.registry = registry
        self.metrics_path = metrics_path
        self.pipeline = MultiprocessERPipeline(
            config,
            workers=workers,
            backend=self.backend,
            registry=registry,
            partitioned=partitioned,
        )
        self.increments: list[IncrementReport] = []
        self._closed = False

    @property
    def partitioned_dispatch(self) -> bool:
        """Whether entity tails run worker-side (no configuration blockers)."""
        return self.pipeline.partitioned_dispatch

    def process_increment(
        self, entities: Iterable[EntityDescription]
    ) -> IncrementReport:
        """Resolve one increment against all accumulated state."""
        reused_before = self.pipeline.pool_reuses
        start = time.perf_counter()
        result = self.pipeline.run(entities)
        report = IncrementReport(
            entities=result.entities_processed,
            matches_found=len(result.matches),
            elapsed_seconds=time.perf_counter() - start,
            pool_reused=self.pipeline.pool_reuses > reused_before,
        )
        self.increments.append(report)
        return report

    def match_pairs(self) -> set:
        """All matches in the accumulated state, across every increment."""
        return self.backend.matches.pairs()

    def close(self) -> None:
        """Release the worker pool; unlink the backend if we created it."""
        if self._closed:
            return
        self._closed = True
        self.pipeline.close()
        if self.registry is not None and self.metrics_path is not None:
            write_json_snapshot(self.registry, self.metrics_path)
        if self._owns_backend:
            self.backend.unlink()

    def __enter__(self) -> "MultiprocessStreamRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SimulatedStreamRunner:
    """Calibrate from real measurements, then simulate high-rate streams."""

    def __init__(
        self,
        service: ServiceModel,
        processes: int = 25,
        config: SimulatorConfig | None = None,
        registry: MetricsRegistry | None = None,
        metrics_path: str | None = None,
    ) -> None:
        self.service = service
        self.allocation = allocate_processes(service.mean_seconds, processes)
        self.simulator = PipelineSimulator(
            self.allocation, service, config, registry=registry
        )
        self.registry = registry
        self.metrics_path = metrics_path

    @classmethod
    def calibrated(
        cls,
        sample_entities: Sequence[EntityDescription],
        config: StreamERConfig,
        processes: int = 25,
        simulator_config: SimulatorConfig | None = None,
        cv: float = 1.0,
    ) -> "SimulatedStreamRunner":
        """Measure per-stage service times on real data, then build a runner.

        Runs the instrumented sequential pipeline over ``sample_entities``
        and converts per-stage totals into per-entity means (see
        :func:`repro.parallel.calibrate_service_model`).
        """
        from repro.parallel.calibration import (
            calibrate_service_model,
            default_simulator_config,
        )

        service = calibrate_service_model(list(sample_entities), config, cv=cv)
        if simulator_config is None:
            simulator_config = default_simulator_config(service)
        return cls(service, processes=processes, config=simulator_config)

    def run(self, n_items: int, rate: float, window: float = 1.0) -> StreamRunReport:
        """Simulate ``n_items`` arriving at ``rate`` descriptions/second."""
        result = self.simulator.run(arrival_schedule(n_items, rate))
        if self.registry is not None and self.metrics_path is not None:
            write_json_snapshot(self.registry, self.metrics_path)
        return StreamRunReport(
            source_rate=rate,
            entities=len(result.completion_times),
            latency=LatencySummary.from_samples(result.latencies),
            latencies=result.latencies,
            throughput=throughput_series(result.completion_times, window=window),
            completions=list(result.completion_times),
        )
