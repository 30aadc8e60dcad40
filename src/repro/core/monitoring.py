"""Operational monitoring of a running pipeline.

Long-running deployments need visibility: how fast are entities flowing,
how much work does each one cause, how big has the state grown, is
pruning keeping up.  :class:`PipelineMonitor` wraps *any* executor that
exposes the common surface — ``entities_processed``, a ``compiled``
:class:`~repro.core.plan.CompiledPipeline`, its ``backend``, and
optionally a :class:`~repro.observability.MetricsRegistry` — and emits a
:class:`Snapshot` every ``interval`` entities (and on demand), keeping a
bounded history so rates can be computed over the most recent window
rather than the whole run.

The sequential pipeline, the thread framework, and the multiprocess
executor all satisfy that surface.  Counters are read from the metrics
registry when the pipeline runs with one enabled (the only cross-process
truth for the multiprocess executor), and fall back to the compiled
stages' own counters otherwise; state sizes always come from the
:class:`~repro.core.backends.StateBackend`, never from executor-specific
attributes.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.observability.instrument import (
    COMPARISONS_EXECUTED,
    COMPARISONS_GENERATED,
)
from repro.observability.registry import NULL_REGISTRY
from repro.types import EntityDescription, Match


@dataclass(frozen=True)
class Snapshot:
    """One point-in-time view of pipeline health."""

    entities_processed: int
    elapsed_seconds: float
    throughput_recent: float
    comparisons_generated: int
    comparisons_executed: int
    comparisons_per_entity_recent: float
    matches_found: int
    blocks: int
    blacklisted_keys: int
    profiles_stored: int
    items_failed: int = 0
    retries_performed: int = 0

    def summary(self) -> str:
        text = (
            f"{self.entities_processed} entities "
            f"({self.throughput_recent:,.0f}/s recent), "
            f"{self.comparisons_per_entity_recent:.1f} comparisons/entity, "
            f"{self.matches_found} matches, "
            f"{self.blocks} blocks (+{self.blacklisted_keys} blacklisted), "
            f"{self.profiles_stored} profiles"
        )
        if self.items_failed or self.retries_performed:
            text += (
                f", {self.items_failed} dead-lettered "
                f"(+{self.retries_performed} retries)"
            )
        return text


class PipelineMonitor:
    """Wraps a pipeline executor with periodic health snapshots.

    Parameters
    ----------
    pipeline:
        The executor to observe (sequential, thread-parallel, or
        multiprocess); the monitor proxies ``process`` when the executor
        has one — parallel executors are typically snapshotted on demand
        or from their own result callbacks instead.
    interval:
        Emit a snapshot every this many proxied entities.
    on_snapshot:
        Optional callback invoked with each emitted snapshot.
    window:
        Number of recent snapshots retained in ``history``.  The "recent"
        rates span the whole retained window: they are computed between
        the *oldest* retained snapshot and now.
    """

    def __init__(
        self,
        pipeline,
        interval: int = 1000,
        on_snapshot: Callable[[Snapshot], None] | None = None,
        window: int = 60,
    ) -> None:
        if interval < 1:
            raise ConfigurationError("interval must be >= 1")
        if window < 2:
            raise ConfigurationError("window must be >= 2")
        self.pipeline = pipeline
        self.interval = interval
        self.on_snapshot = on_snapshot
        self.history: deque[Snapshot] = deque(maxlen=window)
        self.registry = getattr(pipeline, "registry", NULL_REGISTRY)
        self._start = time.perf_counter()
        self._since_last = 0

    # -- counter sources ----------------------------------------------

    def _comparisons_generated(self) -> int:
        if self.registry.enabled:
            return int(self.registry.value(COMPARISONS_GENERATED))
        cg = self.pipeline.compiled.get("cg")
        return cg.generated if cg is not None else 0

    def _comparisons_executed(self) -> int:
        if self.registry.enabled:
            return int(self.registry.value(COMPARISONS_EXECUTED))
        co = self.pipeline.compiled.get("co")
        executed = co.compared if co is not None else 0
        # The multiprocess executor's parent-side ``co`` only sees the
        # tails it ran inline; the workers' ``co`` examined the rest.
        return (
            executed
            + getattr(self.pipeline, "pairs_dispatched", 0)
            + getattr(self.pipeline, "pairs_prefiltered", 0)
        )

    def _recent_rates(self, now_entities: int, now_seconds: float,
                      now_comparisons: int) -> tuple[float, float]:
        """Rates over the retained window: oldest snapshot → now.

        A zero-length time span (two snapshots within timer resolution)
        carries the previous throughput forward instead of collapsing to
        zero — a monitoring artifact must not look like a stall.
        """
        if not self.history:
            throughput = now_entities / now_seconds if now_seconds > 0 else 0.0
            per_entity = now_comparisons / max(now_entities, 1)
            return throughput, per_entity
        base = self.history[0]
        d_entities = now_entities - base.entities_processed
        d_seconds = now_seconds - base.elapsed_seconds
        d_comparisons = now_comparisons - base.comparisons_executed
        if d_seconds > 0:
            throughput = d_entities / d_seconds
        else:
            throughput = self.history[-1].throughput_recent
        per_entity = d_comparisons / max(d_entities, 1)
        return throughput, per_entity

    def snapshot(self) -> Snapshot:
        """Take (and record) a snapshot right now."""
        p = self.pipeline
        backend = p.backend
        elapsed = time.perf_counter() - self._start
        generated = self._comparisons_generated()
        executed = self._comparisons_executed()
        throughput, per_entity = self._recent_rates(
            p.entities_processed, elapsed, executed
        )
        snap = Snapshot(
            entities_processed=p.entities_processed,
            elapsed_seconds=elapsed,
            throughput_recent=throughput,
            comparisons_generated=generated,
            comparisons_executed=executed,
            comparisons_per_entity_recent=per_entity,
            matches_found=len(backend.matches),
            blocks=len(backend.blocks),
            blacklisted_keys=len(backend.blacklist),
            profiles_stored=len(backend.profiles),
            # Supervised executors expose these; plain pipelines default to 0.
            items_failed=getattr(p, "items_failed", 0),
            retries_performed=getattr(p, "retries_performed", 0),
        )
        self.history.append(snap)
        if self.on_snapshot is not None:
            self.on_snapshot(snap)
        return snap

    def process(self, entity: EntityDescription) -> list[Match]:
        """Proxy one entity through the pipeline, snapshotting on schedule."""
        matches = self.pipeline.process(entity)
        self._since_last += 1
        if self._since_last >= self.interval:
            self._since_last = 0
            self.snapshot()
        return matches

    def process_many(self, entities: Iterable[EntityDescription]) -> list[Match]:
        out: list[Match] = []
        for entity in entities:
            out.extend(self.process(entity))
        return out
