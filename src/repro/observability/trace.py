"""Span-style per-entity tracing across the stage graph.

An :class:`EntityTrace` is a sequence of per-stage spans — enqueue,
service-start, service-end timestamps — recorded as one entity flows the
compiled plan, so a slow entity's end-to-end latency decomposes into
per-stage queue wait and service time, and a latency spike is attributed
to the stage where the entity waited or served longest
(:meth:`Tracer.peak_attribution`).  Every executor records into the same
type, the discrete-event simulator included (in simulated seconds).

A :class:`Tracer` decides *which* entities get a trace (every ``every``-th
submission) and bounds how many finished traces are retained, so tracing a
long stream costs O(capacity) memory, not O(stream).  Executors hold a
``Tracer | None`` and skip all recording when it is ``None`` — like the
metrics registry, the disabled path adds nothing to the hot loop.

Timestamps are ``time.perf_counter()`` values unless the recorder passes
``at=`` (the simulator passes its clock): meaningful as differences
within one run, not as wall-clock epochs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["StageSpan", "EntityTrace", "Tracer"]


@dataclass
class StageSpan:
    """One stage's slice of an entity's journey.

    ``enqueued_at`` is when the entity entered the stage's input queue
    (equal to ``started_at`` in executors without queues), ``started_at``
    when a worker began the stage function, ``finished_at`` when it
    returned.
    """

    stage: str
    enqueued_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def wait_seconds(self) -> float:
        """Queue time ahead of this stage (0 when untracked)."""
        if self.enqueued_at is None or self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.enqueued_at)

    @property
    def service_seconds(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        return max(0.0, self.finished_at - self.started_at)


@dataclass
class EntityTrace:
    """The full span record of one traced entity."""

    seq: int
    eid: object = None
    created_at: float = 0.0
    completed_at: float | None = None
    dead_lettered_at: str | None = None
    spans: dict[str, StageSpan] = field(default_factory=dict)

    def span(self, stage: str) -> StageSpan:
        existing = self.spans.get(stage)
        if existing is None:
            existing = StageSpan(stage=stage)
            self.spans[stage] = existing
        return existing

    # -- recording (executors call these) ------------------------------

    def record_enqueue(self, stage: str, at: float | None = None) -> None:
        self.span(stage).enqueued_at = time.perf_counter() if at is None else at

    def record_start(self, stage: str, at: float | None = None) -> None:
        span = self.span(stage)
        span.started_at = time.perf_counter() if at is None else at
        if span.enqueued_at is None:
            span.enqueued_at = span.started_at

    def record_finish(self, stage: str, at: float | None = None) -> None:
        self.span(stage).finished_at = time.perf_counter() if at is None else at

    def complete(self, at: float | None = None) -> None:
        self.completed_at = time.perf_counter() if at is None else at

    def dead_letter(self, stage: str) -> None:
        """Mark the trace as ending at ``stage`` (item never completed)."""
        self.dead_lettered_at = stage

    # -- analysis ------------------------------------------------------

    @property
    def total_latency(self) -> float:
        if self.completed_at is None:
            return 0.0
        return max(0.0, self.completed_at - self.created_at)

    def breakdown(self) -> dict[str, float]:
        """Stage → wait + service seconds, in recording order."""
        return {
            stage: span.wait_seconds + span.service_seconds
            for stage, span in self.spans.items()
        }

    def dominant_stage(self) -> str:
        """The stage responsible for most of this entity's latency."""
        parts = self.breakdown()
        return max(parts, key=lambda s: parts[s]) if parts else ""

    def to_dict(self) -> dict:
        """A JSON-able view (used by exporters and the CLI)."""
        return {
            "seq": self.seq,
            "eid": list(self.eid) if isinstance(self.eid, tuple) else self.eid,
            "latency_seconds": self.total_latency,
            "dead_lettered_at": self.dead_lettered_at,
            "stages": [
                {
                    "stage": span.stage,
                    "wait_seconds": span.wait_seconds,
                    "service_seconds": span.service_seconds,
                }
                for span in self.spans.values()
            ],
        }


class Tracer:
    """Samples and retains entity traces; thread-safe.

    Parameters
    ----------
    every:
        Trace one in ``every`` submissions (1 = all).  Sampling is by
        submission sequence number, so the traced subset is deterministic
        and identical across executors fed the same stream.
    capacity:
        Maximum number of traces retained; the oldest is evicted first.
    """

    def __init__(self, every: int = 1, capacity: int = 1024) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        self.every = every
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: dict[int, EntityTrace] = {}  # insertion-ordered

    def should_trace(self, seq: int) -> bool:
        return seq % self.every == 0

    def start(self, seq: int, eid: object = None, at: float | None = None) -> EntityTrace | None:
        """Begin a trace for submission ``seq`` (None when not sampled)."""
        if not self.should_trace(seq):
            return None
        trace = EntityTrace(
            seq=seq, eid=eid, created_at=time.perf_counter() if at is None else at
        )
        with self._lock:
            self._traces[seq] = trace
            while len(self._traces) > self.capacity:
                self._traces.pop(next(iter(self._traces)))
        return trace

    def get(self, seq: int) -> EntityTrace | None:
        """The live trace for ``seq`` (None when unsampled or evicted)."""
        with self._lock:
            return self._traces.get(seq)

    def traces(self) -> list[EntityTrace]:
        """All retained traces, oldest first (a copy)."""
        with self._lock:
            return list(self._traces.values())

    def slowest(self, n: int = 10) -> list[EntityTrace]:
        """The n completed traces with the highest end-to-end latency."""
        done = [t for t in self.traces() if t.completed_at is not None]
        return sorted(done, key=lambda t: t.total_latency, reverse=True)[:n]

    def peak_attribution(self, quantile: float = 0.99) -> dict[str, int]:
        """For the slowest ``1 − quantile`` of the completed traces (at
        least one): how many each stage dominates — the Fig. 12 latency
        peaks, attributed."""
        done = [t for t in self.traces() if t.completed_at is not None]
        done.sort(key=lambda t: t.total_latency)
        counts: dict[str, int] = {}
        for trace in done[int(len(done) * quantile) :] or done[-1:]:
            stage = trace.dominant_stage()
            counts[stage] = counts.get(stage, 0) + 1
        return counts

    def mean_wait_by_stage(self) -> dict[str, float]:
        """Average queue wait per stage over the retained traces — where the
        bottleneck's queue forms."""
        traces = self.traces()
        sums: dict[str, float] = {}
        for trace in traces:
            for stage, span in trace.spans.items():
                sums[stage] = sums.get(stage, 0.0) + span.wait_seconds
        return {stage: total / len(traces) for stage, total in sums.items()}
