"""Discrete-event simulation of the task-parallel framework.

The paper evaluates parallel speedup (Fig. 11) and streaming latency /
throughput (Figs. 12–13) on a 16-core server driving up to 100 000
descriptions per second — neither the core count nor the rate is reachable
in wall-clock time on this reproduction box.  The simulator regenerates
those experiments from first principles: it models the exact architecture
of §IV (eight stages, per-stage worker pools, bounded buffers with
backpressure, per-message communication overhead, optional micro-batch
aggregation) on a machine with a fixed number of cores, driven by
*measured* per-stage service times from a real sequential run.

The phenomena of the paper's figures are queueing effects, and all of them
emerge here:

* at P = 8 the pipeline barely beats sequential execution (communication
  overhead + bottleneck stages);
* micro-batching amortizes the overhead and smooths service variability,
  so MPP consistently beats PP;
* speedup peaks once the bottleneck stages are balanced (around P = 19)
  and stagnates when workers exceed the physical cores;
* under overload the output throughput stabilizes near the system's
  service rate while latency stays bounded (ingestion is backpressured).

Determinism: service times are sampled from a lognormal whose RNG is keyed
on (seed, item, stage), so results are independent of event ordering.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.plan import STAGE_ORDER, PipelinePlan
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.observability.instrument import (
    DEAD_LETTERS,
    ENTITIES,
    ENTITY_LATENCY_SECONDS,
    QUEUE_DEPTH,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    declare_pipeline_metrics,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer


@dataclass(frozen=True)
class ServiceModel:
    """Per-stage service-time distributions.

    ``mean_seconds`` maps stage name → mean per-entity service time
    (typically ``measured stage total / number of entities`` from an
    instrumented sequential run).  Times are lognormal with coefficient of
    variation ``cv``; a small fraction of entities (``spike_probability``)
    are ``spike_factor`` times slower — the CPU-intensive stream segments
    behind the paper's latency peaks.

    ``failure_probability`` injects faults: each (item, stage) service
    independently fails with this probability (deterministic in the seed,
    like the service times), and the item is dead-lettered at that stage —
    it consumed the worker for the full sampled service time but is not
    forwarded downstream.  This re-runs the Fig. 11/12 experiments under
    poison-entity conditions; see ``docs/robustness.md``.
    """

    mean_seconds: dict[str, float]
    cv: float = 1.0
    spike_probability: float = 0.005
    spike_factor: float = 12.0
    seed: int = 2021
    failure_probability: float = 0.0

    def __post_init__(self) -> None:
        missing = [s for s in STAGE_ORDER if s not in self.mean_seconds]
        if missing:
            raise ConfigurationError(f"missing service means for stages: {missing}")
        if not 0.0 <= self.failure_probability <= 1.0:
            raise ConfigurationError("failure_probability must be in [0, 1]")

    def fails(self, item: int, stage: str) -> bool:
        """Deterministic fault verdict for (item, stage)."""
        if self.failure_probability <= 0.0:
            return False
        key = zlib.crc32(f"{self.seed}:{item}:{stage}:fault".encode())
        return random.Random(key).random() < self.failure_probability

    def mean_total(self) -> float:
        """Mean end-to-end work per entity (the sequential per-item cost)."""
        return sum(self.mean_seconds[s] for s in STAGE_ORDER)

    def sample(self, item: int, stage: str) -> float:
        """Deterministic lognormal sample for (item, stage)."""
        mean = self.mean_seconds[stage]
        if mean <= 0.0:
            return 0.0
        key = zlib.crc32(f"{self.seed}:{item}:{stage}".encode())
        rng = random.Random(key)
        if self.cv > 0.0:
            sigma2 = math.log(1.0 + self.cv * self.cv)
            mu = math.log(mean) - sigma2 / 2.0
            value = rng.lognormvariate(mu, math.sqrt(sigma2))
        else:
            value = mean
        if rng.random() < self.spike_probability:
            value *= self.spike_factor
        return value

    def sequential_makespan(self, n_items: int) -> float:
        """Exact simulated-sequential runtime over ``n_items`` entities."""
        return sum(
            self.sample(item, stage)
            for item in range(n_items)
            for stage in STAGE_ORDER
        )


@dataclass(frozen=True)
class SimulatorConfig:
    """Machine and framework parameters of the simulation.

    ``comm_overhead`` is the per-message hand-off cost between stages (actor
    mailbox + serialization in the Akka implementation); micro-batching
    pays it once per batch.  ``buffer_capacity`` bounds each inter-stage
    queue (in messages), providing backpressure.  ``micro_batch_size`` = 1
    is the plain parallel pipeline (PP); > 1 enables the aggregation stages
    of the micro-batched variant (MPP), which greedily groups whatever is
    queued, up to the limit — the behaviour of a groupedWithin(100, 10 ms)
    aggregator under load.
    """

    cores: int = 16
    comm_overhead: float = 0.0
    buffer_capacity: int = 8
    micro_batch_size: int = 1

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError("need at least one core")
        if self.buffer_capacity < 1:
            raise ConfigurationError("buffer capacity must be >= 1")
        if self.micro_batch_size < 1:
            raise ConfigurationError("micro batch size must be >= 1")
        if self.comm_overhead < 0:
            raise ConfigurationError("comm overhead cannot be negative")


@dataclass
class SimulationResult:
    """Outcome of one simulated run.

    With a faulty :class:`ServiceModel`, ``dead_letters`` lists
    ``(item, stage)`` for every item dropped mid-pipeline; such items have
    no completion time and no latency.
    """

    makespan: float
    completion_times: list[float]
    latencies: list[float]
    admitted: int
    stage_busy_seconds: dict[str, float] = field(default_factory=dict)
    items_failed: int = 0
    dead_letters: list[tuple[int, str]] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Average completions per second over the whole run."""
        return len(self.completion_times) / self.makespan if self.makespan > 0 else 0.0


class _Stage:
    __slots__ = (
        "name", "workers", "busy", "queue", "capacity",
        "blocked", "busy_seconds", "next",
    )

    def __init__(self, name: str, workers: int, capacity: int) -> None:
        self.name = name
        self.workers = workers
        self.busy = 0
        self.queue: deque[int] = deque()
        self.capacity = capacity
        # Items finished upstream but waiting for queue space here:
        # list of (upstream stage, items) tuples with a blocked worker each.
        self.blocked: deque[tuple["_Stage", list[int]]] = deque()
        self.busy_seconds = 0.0
        self.next: "_Stage | None" = None

    def space(self) -> int:
        return self.capacity - len(self.queue)


class PipelineSimulator:
    """Event-driven simulator of the parallel framework's stage graph.

    The simulated topology comes from a
    :class:`~repro.core.plan.PipelinePlan` — the same declarative graph the
    real executors compile — so disabling an optional stage via the config
    drops its node from the simulation exactly as it does everywhere else.
    Without an explicit ``plan`` the full eight-stage graph is simulated.

    With an enabled metrics ``registry``, runs emit the shared metric
    vocabulary (see ``docs/observability.md``) — service times, item
    counts, queue depths, dead letters and end-to-end latency, all in
    *simulated* seconds.  The comparison/match counters the real stages
    produce stay zero-valued here: the simulator moves abstract items, not
    comparisons.

    With an enabled invariant ``checker``, every run is verified against
    the simulation-scope invariants (item conservation, non-negative
    times) before its result is returned.
    """

    def __init__(
        self,
        allocation: dict[str, int],
        service: ServiceModel,
        config: SimulatorConfig | None = None,
        plan: PipelinePlan | None = None,
        registry: MetricsRegistry | None = None,
        checker: InvariantChecker | None = None,
    ) -> None:
        self.plan = plan
        self.stage_names: tuple[str, ...] = (
            plan.stage_names() if plan is not None else STAGE_ORDER
        )
        missing = [s for s in self.stage_names if s not in allocation]
        if missing:
            raise ConfigurationError(f"allocation missing stages: {missing}")
        self.allocation = dict(allocation)
        self.service = service
        self.config = config or SimulatorConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.checker = checker if (checker is not None and checker.enabled) else None
        if self.registry.enabled:
            declare_pipeline_metrics(self.registry, self.stage_names)

    # The simulation core ------------------------------------------------

    def run(
        self, arrival_times: Sequence[float], tracer: Tracer | None = None
    ) -> SimulationResult:
        """Simulate processing items arriving at the given times.

        For batch runs pass ``[0.0] * n``; for a source of rate λ pass
        ``[i / λ for i in range(n)]``.  Latency is measured from first
        service start (the source is backpressured by the first stage's
        bounded buffer, so under overload admission waits — as in the
        Akka implementation — and per-entity processing latency stays
        meaningful).

        With a ``tracer``, sampled items (``seq`` = item index) get an
        ordinary :class:`~repro.observability.EntityTrace` in *simulated*
        time: created at first service start, a span per stage from the
        moment the item left the upstream stage (a push blocked by a full
        buffer waits here too), and service equal to the item's own share
        of its batch — so the breakdown sums to the item's latency when
        batches hold one item.  The peak analysis of Fig. 12 is then
        :meth:`~repro.observability.Tracer.peak_attribution`, as for the
        real executors.
        """
        cfg = self.config
        stages = [
            _Stage(name, self.allocation[name], cfg.buffer_capacity)
            for name in self.stage_names
        ]
        for a, b in zip(stages, stages[1:]):
            a.next = b
        first = stages[0]

        metrics_on = self.registry.enabled
        if metrics_on:
            service_hist = {
                s.name: self.registry.histogram(STAGE_SERVICE_SECONDS, stage=s.name)
                for s in stages
            }
            items_ctr = {
                s.name: self.registry.counter(STAGE_ITEMS, stage=s.name)
                for s in stages
            }
            depth_gauge = {
                s.name: self.registry.gauge(QUEUE_DEPTH, stage=s.name)
                for s in stages
            }
            entities_ctr = self.registry.counter(ENTITIES)
            latency_hist = self.registry.histogram(ENTITY_LATENCY_SECONDS)

        n = len(arrival_times)
        start_service = [-1.0] * n
        completion = [-1.0] * n
        cores_busy = 0
        clock = 0.0
        # Pending arrivals: consumed into the first stage's queue under
        # backpressure (the "source").
        pending = deque(range(n))
        events: list[tuple[float, int, str, object]] = []
        seq = 0
        traces: list = [None] * n if tracer is not None else []

        def enqueue(stage: _Stage, item: int) -> None:
            stage.queue.append(item)
            if metrics_on:
                depth_gauge[stage.name].set(len(stage.queue))

        def push_event(t: float, kind: str, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (t, seq, kind, payload))
            seq += 1

        # Arrival events just mark items as available to the source.
        available = 0
        for i, t in enumerate(arrival_times):
            push_event(t, "arrive", i)

        def admit() -> None:
            """Move available source items into the first queue (bounded)."""
            nonlocal available
            while available > 0 and first.space() > 0 and pending:
                enqueue(first, pending.popleft())
                available -= 1

        def start_services() -> None:
            """Fixpoint scheduler: start every service that can start."""
            nonlocal cores_busy
            progress = True
            while progress:
                progress = False
                admit()
                for stage in stages:
                    # Resolve blocked upstream pushes first: frees workers.
                    while stage.blocked and stage.space() >= 1:
                        upstream, items = stage.blocked[0]
                        take = min(stage.space(), len(items))
                        for _ in range(take):
                            enqueue(stage, items.pop(0))
                        if not items:
                            stage.blocked.popleft()
                            upstream.busy -= 1
                            progress = True
                    while (
                        stage.queue
                        and stage.busy < stage.workers
                        and cores_busy < cfg.cores
                    ):
                        take = min(cfg.micro_batch_size, len(stage.queue))
                        batch = [stage.queue.popleft() for _ in range(take)]
                        samples = [
                            self.service.sample(item, stage.name) for item in batch
                        ]
                        duration = cfg.comm_overhead + sum(samples)
                        share = cfg.comm_overhead / len(batch)
                        if metrics_on:
                            depth_gauge[stage.name].set(len(stage.queue))
                            items_ctr[stage.name].inc(len(batch))
                            hist = service_hist[stage.name]
                            for sample in samples:
                                hist.observe(sample + share)
                        if tracer is not None:
                            for item, sample in zip(batch, samples):
                                if stage is first:
                                    # Latency is measured from first service
                                    # start; source-side waiting is excluded.
                                    traces[item] = tracer.start(item, item, at=clock)
                                trace = traces[item]
                                if trace is not None:
                                    trace.record_start(stage.name, at=clock)
                                    trace.record_finish(stage.name, at=clock + sample + share)
                        if stage is first:
                            for item in batch:
                                if start_service[item] < 0:
                                    start_service[item] = clock
                        stage.busy += 1
                        cores_busy += 1
                        stage.busy_seconds += duration
                        push_event(clock + duration, "done", (stage, batch))
                        progress = True

        processed = 0
        dead_letters: list[tuple[int, str]] = []
        while events:
            t, _, kind, payload = heapq.heappop(events)
            clock = t
            if kind == "arrive":
                available += 1
            else:  # "done"
                stage, batch = payload  # type: ignore[misc]
                cores_busy -= 1
                if self.service.failure_probability > 0.0:
                    # Failed items consumed their service time but leave the
                    # pipeline here (dead-lettered) instead of moving on.
                    failed = {
                        item for item in batch if self.service.fails(item, stage.name)
                    }
                    if failed:
                        dead_letters.extend(
                            (item, stage.name) for item in batch if item in failed
                        )
                        for item in failed:
                            if tracer is not None and traces[item] is not None:
                                traces[item].dead_letter(stage.name)
                        if metrics_on:
                            self.registry.counter(
                                DEAD_LETTERS, stage=stage.name
                            ).inc(len(failed))
                        batch = [item for item in batch if item not in failed]
                if stage.next is None:
                    stage.busy -= 1
                    for item in batch:
                        completion[item] = clock
                        processed += 1
                        if tracer is not None and traces[item] is not None:
                            traces[item].complete(at=clock)
                        if metrics_on:
                            entities_ctr.inc()
                            if start_service[item] >= 0:
                                latency_hist.observe(clock - start_service[item])
                else:
                    nxt = stage.next
                    if tracer is not None:
                        for item in batch:
                            if traces[item] is not None:
                                traces[item].record_enqueue(nxt.name, at=clock)
                    space = nxt.space()
                    for _ in range(min(space, len(batch))):
                        enqueue(nxt, batch.pop(0))
                    if batch:
                        nxt.blocked.append((stage, batch))  # worker stays busy
                    else:
                        stage.busy -= 1
            start_services()

        latencies = [
            completion[i] - start_service[i] for i in range(n) if completion[i] >= 0
        ]
        completions = [completion[i] for i in range(n) if completion[i] >= 0]
        makespan = (max(completions) - min(arrival_times)) if completions else 0.0
        result = SimulationResult(
            makespan=makespan,
            completion_times=completions,
            latencies=latencies,
            admitted=processed,
            stage_busy_seconds={s.name: s.busy_seconds for s in stages},
            items_failed=len(dead_letters),
            dead_letters=dead_letters,
        )
        if self.checker is not None:
            self.checker.check_simulation(result, n_items=n)
            if self.checker.mode == "raise":
                self.checker.raise_if_violated()
        return result

    # Convenience runners -------------------------------------------------

    def run_batch(self, n_items: int) -> SimulationResult:
        """All items available at time zero (the speedup experiments)."""
        return self.run([0.0] * n_items)

    def run_stream(self, n_items: int, rate: float) -> SimulationResult:
        """Items arriving at a fixed source rate (descriptions/second)."""
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        return self.run([i / rate for i in range(n_items)])


def simulate_speedup(
    service: ServiceModel,
    total_processes: int,
    n_items: int = 2000,
    config: SimulatorConfig | None = None,
    allocation: dict[str, int] | None = None,
) -> tuple[float, SimulationResult]:
    """Speedup of a simulated parallel run vs the simulated sequential run."""
    from repro.parallel.allocation import allocate_processes

    if allocation is None:
        allocation = allocate_processes(service.mean_seconds, total_processes)
    simulator = PipelineSimulator(allocation, service, config)
    result = simulator.run_batch(n_items)
    sequential = service.sequential_makespan(n_items)
    return (sequential / result.makespan if result.makespan > 0 else 0.0), result
