"""The sequential (SEQ) stream ER pipeline.

Compiles the :class:`~repro.core.plan.PipelinePlan` for its configuration
into a single-threaded executor that processes one entity description at a
time, supporting both incremental and streaming use.  Per-stage service
time lives in the metrics registry (``er_stage_service_seconds{stage}``,
read back with :func:`~repro.observability.instrument.stage_seconds`), so
the bottleneck analysis of Figure 6 can be regenerated, and per-stage
counters expose the comparison-reduction numbers of Table III / Figure 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.backends import StateBackend
from repro.core.config import StreamERConfig
from repro.core.plan import PipelinePlan
from repro.core.state import ERState
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.observability.instrument import (
    DEAD_LETTERS,
    ENTITIES,
    ENTITY_LATENCY_SECONDS,
    stage_seconds,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer
from repro.types import DeadLetter, EntityDescription, Match


@dataclass
class ERResult:
    """Summary of a (partial) pipeline run.

    ``items_failed`` / ``retries`` / ``dead_letters`` are populated by
    executors running under supervision (the parallel frameworks, or
    :meth:`StreamERPipeline.process_many` with ``on_error="dead_letter"``);
    they stay at their zero defaults for fail-fast runs.
    """

    entities_processed: int = 0
    matches: list[Match] = field(default_factory=list)
    comparisons_generated: int = 0
    comparisons_after_cleaning: int = 0
    blocks_pruned: int = 0
    keys_ghosted: int = 0
    elapsed_seconds: float = 0.0
    items_failed: int = 0
    retries: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)

    @property
    def match_pairs(self) -> set[tuple]:
        """Canonical pair keys of all matches found."""
        return {m.key() for m in self.matches}

    @property
    def dead_letter_ids(self) -> set:
        """Entity identifiers of all dead-lettered items."""
        return {d.entity_id for d in self.dead_letters}


def lifetime_counters(pipeline) -> dict[str, int]:
    """The :class:`ERResult` counter fields, cumulative over ``pipeline``'s
    lifetime; an executor reports an increment as the difference of two."""
    return {
        "comparisons_generated": pipeline.cg.generated,
        "comparisons_after_cleaning": pipeline.lm.materialized,
        "blocks_pruned": pipeline.bb.pruned_blocks,
        "keys_ghosted": pipeline.bg.ghosted_keys if pipeline.bg is not None else 0,
        "items_failed": pipeline.items_failed,
        "retries": pipeline.retries_performed,
    }


class StreamERPipeline:
    """Sequential end-to-end ER over dynamic data.

    The pipeline keeps all state across calls, so it can be fed one entity
    (:meth:`process`), an increment (:meth:`process_many`), or an unbounded
    stream (:meth:`stream`), and later fed again — the incremental ER fold
    of the functional model.

    Parameters
    ----------
    config:
        Pipeline parameters; see :class:`~repro.core.config.StreamERConfig`.
    instrument:
        Shorthand for "own an enabled
        :class:`~repro.observability.MetricsRegistry`" when ``registry``
        is None, so per-stage service time can be read back with
        :func:`~repro.observability.instrument.stage_seconds`.  Default
        False: the bare stage chain, no timer reads.
    backend:
        Where the ER state lives; defaults to a fresh
        :class:`~repro.core.backends.InMemoryBackend`.  A durable run
        passes :meth:`~repro.core.backends.DurableBackend.open` (see
        ``docs/durability.md``): every :meth:`process` call and every
        :meth:`process_many` increment is logged before it runs, and on a
        resumed backend ``entities_processed`` continues from the
        recovered count.
    registry:
        An optional :class:`~repro.observability.MetricsRegistry`; when
        enabled, the pipeline emits the shared metric vocabulary (see
        ``docs/observability.md``).  Defaults to the disabled
        ``NULL_REGISTRY`` — zero overhead.
    tracer:
        An optional :class:`~repro.observability.Tracer`; sampled
        entities get a span-style per-stage
        :class:`~repro.observability.EntityTrace`.
    checker:
        An optional :class:`~repro.invariants.InvariantChecker`; when
        enabled, stage outputs are verified per message and the
        state-scope invariants run every ``checker.state_every`` entities.
        Defaults to ``None`` — no check, zero overhead.

    The optional-stage attributes (``bg``, ``cc``) are ``None`` when the
    plan dropped those nodes (block/comparison cleaning disabled).
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        instrument: bool = False,
        backend: StateBackend | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        checker: InvariantChecker | None = None,
    ) -> None:
        self.plan = PipelinePlan.from_config(config)
        self.config = self.plan.config
        if registry is None:
            registry = MetricsRegistry() if instrument else NULL_REGISTRY
        self.registry = registry
        self.tracer = tracer
        self.checker = checker if (checker is not None and checker.enabled) else None
        self.compiled = self.plan.compile(
            backend, registry=self.registry, checker=self.checker
        )
        self.backend = self.compiled.backend
        self._entities_metric = self.registry.counter(ENTITIES)
        self._latency_metric = self.registry.histogram(ENTITY_LATENCY_SECONDS)
        self._metrics_on = self.registry.enabled
        self.dr = self.compiled.get("dr")
        self.bb = self.compiled.get("bb+bp")
        self.bg = self.compiled.get("bg")
        self.cg = self.compiled.get("cg")
        self.cc = self.compiled.get("cc")
        self.lm = self.compiled.get("lm")
        self.co = self.compiled.get("co")
        self.cl = self.compiled.get("cl")
        self._named_stages = tuple(self.compiled.ordered())
        self._stages = tuple(stage for _, stage in self._named_stages)
        # A durable backend's log call, resolved once: None on the plain
        # hot path.
        self._log = getattr(self.backend, "log_input", None)
        self._entities_processed = getattr(self.backend, "entities_logged", 0)
        self.items_failed = 0
        self.retries_performed = 0
        self.dead_letters: list[DeadLetter] = []

    def close(self) -> None:
        """Release durable-run resources (fsync + close the live WAL).

        A no-op for plain in-memory runs; safe to call more than once.
        """
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    # -- state access -------------------------------------------------

    @property
    def state(self) -> ERState:
        """A view over the pipeline's distributed state components."""
        return self.backend.state()

    @property
    def entities_processed(self) -> int:
        return self._entities_processed

    # -- execution ----------------------------------------------------

    def process(self, entity: EntityDescription) -> list[Match]:
        """Run one entity end to end; returns the new matches it produced."""
        if self._log is None:
            return self._process(entity)
        self._log((entity,))
        matches = self._process(entity)
        self.backend.checkpoint_if_due()
        return matches

    def _process(self, entity: EntityDescription) -> list[Match]:
        seq = self._entities_processed
        self._entities_processed += 1
        trace = self.tracer.start(seq, entity.eid) if self.tracer is not None else None
        entity_start = time.perf_counter() if self._metrics_on else 0.0
        out: object = entity
        if trace is None:
            for stage in self._stages:
                out = stage(out)
        else:
            for name, stage in self._named_stages:
                # No queues in the sequential executor: a stage's enqueue
                # instant is its service start.
                trace.record_start(name)
                out = stage(out)
                trace.record_finish(name)
            trace.complete()
        if self._metrics_on:
            self._entities_metric.inc()
            self._latency_metric.observe(time.perf_counter() - entity_start)
        if self.checker is not None:
            self.checker.after_entity(self._entities_processed)
        return out  # type: ignore[return-value]

    def process_many(
        self,
        entities: Iterable[EntityDescription],
        on_error: str = "raise",
    ) -> ERResult:
        """Process an increment; returns a summary over just that increment.

        ``on_error="raise"`` (default) propagates any stage exception.
        ``on_error="dead_letter"`` instead records the failing entity as a
        :class:`~repro.types.DeadLetter` and keeps going — the streaming
        posture, where one malformed description must not stop the feed.
        Note the entity may already have mutated shared state (e.g. been
        registered in some blocks) before failing; dead-lettering is a
        survival guarantee, not a transactional rollback.  On a durable
        backend the increment is one admission: it is logged whole before
        its first entity runs.
        """
        if on_error not in ("raise", "dead_letter"):
            raise ConfigurationError(
                f'on_error must be "raise" or "dead_letter", got {on_error!r}'
            )
        start = lifetime_counters(self)
        matches: list[Match] = []
        dead: list[DeadLetter] = []
        count = 0
        wall_start = time.perf_counter()
        if self._log is not None:
            entities = list(entities)
            self._log(entities)
        for entity in entities:
            count += 1
            if on_error == "raise":
                matches.extend(self._process(entity))
                continue
            try:
                matches.extend(self._process(entity))
            except Exception as exc:
                letter = DeadLetter(
                    stage="pipeline", entity_id=entity.eid, error=repr(exc)
                )
                dead.append(letter)
                self.dead_letters.append(letter)
                self.items_failed += 1
                if self._metrics_on:
                    self.registry.counter(DEAD_LETTERS, stage="pipeline").inc()
                if self._log is not None:
                    self.backend.log_dead_letter(
                        self._entities_processed - 1, entity.eid, "pipeline"
                    )
        if self._log is not None:
            self.backend.checkpoint_if_due()
        elapsed = time.perf_counter() - wall_start
        end = lifetime_counters(self)
        return ERResult(
            entities_processed=count,
            matches=matches,
            elapsed_seconds=elapsed,
            dead_letters=dead,
            **{name: end[name] - start[name] for name in end},
        )

    def stream(self, entities: Iterable[EntityDescription]) -> Iterator[tuple[EntityDescription, list[Match]]]:
        """Lazily process a stream, yielding (entity, new matches) pairs."""
        for entity in entities:
            yield entity, self.process(entity)

    # -- statistics ---------------------------------------------------

    def summary(self) -> ERResult:
        """Cumulative summary since pipeline construction.

        ``elapsed_seconds`` is the total stage service time the registry
        recorded (0 without an enabled registry).
        """
        return ERResult(
            entities_processed=self._entities_processed,
            matches=self.cl.matches.matches(),
            comparisons_generated=self.cg.generated,
            comparisons_after_cleaning=self.lm.materialized,
            blocks_pruned=self.bb.pruned_blocks,
            keys_ghosted=self.bg.ghosted_keys if self.bg is not None else 0,
            elapsed_seconds=sum(stage_seconds(self.registry).values()),
            items_failed=self.items_failed,
            dead_letters=list(self.dead_letters),
        )
