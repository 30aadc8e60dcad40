"""Stage-level instrumentation: the one vocabulary every executor speaks.

The point of the observability layer is that the sequential pipeline, the
thread framework (PP/MPP), the multiprocess executor, and the simulator
all emit the *same* metric names for the same concepts, so a dashboard
(or a differential test) built against one executor reads all four.  The
canonical families:

========================================  =========  ======================================
name                                      kind       meaning
========================================  =========  ======================================
``er_stage_items_total{stage}``           counter    items a stage finished processing
``er_stage_service_seconds{stage}``       histogram  per-item stage service time
``er_queue_depth{stage}``                 gauge      stage input-queue depth at last put/get
``er_dead_letters_total{stage}``          counter    items dead-lettered at the stage
``er_retries_total{stage}``               counter    supervised re-executions at the stage
``er_comparisons_generated_total``        counter    candidate pairs out of ``f_cg``
``er_comparisons_executed_total``         counter    pairs ``f_co`` examined (``co.compared``)
``er_entities_total``                     counter    entities admitted into the run
``er_matches_total``                      counter    new matches recorded by ``f_cl``
``er_entity_latency_seconds``             histogram  end-to-end per-entity latency
========================================  =========  ======================================

:func:`declare_pipeline_metrics` pre-registers the full family set for a
plan's active stages, so every export carries the complete vocabulary
(zero-valued where an executor has nothing to report — e.g. queue depth
in the sequential pipeline) and name-set comparisons across executors are
exact.

The stage-labelled families and the comparison/match counters are
recorded at one call site, the per-stage callable
:class:`~repro.core.plan.CompiledPipeline` composes at compile time;
:func:`stage_seconds` reads the per-stage service totals back.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.observability.registry import MetricsRegistry

__all__ = [
    "STAGE_ITEMS",
    "STAGE_SERVICE_SECONDS",
    "QUEUE_DEPTH",
    "DEAD_LETTERS",
    "RETRIES",
    "COMPARISONS_GENERATED",
    "COMPARISONS_EXECUTED",
    "ENTITIES",
    "MATCHES",
    "ENTITY_LATENCY_SECONDS",
    "PIPELINE_METRIC_NAMES",
    "WAL_RECORDS",
    "WAL_BYTES",
    "WAL_SYNCS",
    "CHECKPOINTS",
    "CHECKPOINT_SECONDS",
    "CHECKPOINT_EPOCH",
    "DURABILITY_METRIC_NAMES",
    "SHM_BYTES",
    "SHM_SEGMENTS",
    "SHM_ROWS",
    "POOL_SPAWNS",
    "POOL_REUSES",
    "PARTITIONS_DISPATCHED",
    "PARTITION_PAIRS",
    "PARTITION_METRIC_NAMES",
    "declare_pipeline_metrics",
    "declare_durability_metrics",
    "declare_partition_metrics",
    "stage_seconds",
]

STAGE_ITEMS = "er_stage_items_total"
STAGE_SERVICE_SECONDS = "er_stage_service_seconds"
QUEUE_DEPTH = "er_queue_depth"
DEAD_LETTERS = "er_dead_letters_total"
RETRIES = "er_retries_total"
COMPARISONS_GENERATED = "er_comparisons_generated_total"
COMPARISONS_EXECUTED = "er_comparisons_executed_total"
ENTITIES = "er_entities_total"
MATCHES = "er_matches_total"
ENTITY_LATENCY_SECONDS = "er_entity_latency_seconds"

#: Every family of the shared vocabulary (stage-labelled and global).
PIPELINE_METRIC_NAMES: tuple[str, ...] = (
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    QUEUE_DEPTH,
    DEAD_LETTERS,
    RETRIES,
    COMPARISONS_GENERATED,
    COMPARISONS_EXECUTED,
    ENTITIES,
    MATCHES,
    ENTITY_LATENCY_SECONDS,
)

WAL_RECORDS = "er_wal_records_total"
WAL_BYTES = "er_wal_bytes_total"
WAL_SYNCS = "er_wal_syncs_total"
CHECKPOINTS = "er_checkpoints_total"
CHECKPOINT_SECONDS = "er_checkpoint_seconds"
CHECKPOINT_EPOCH = "er_checkpoint_epoch"

#: The durability families, declared only for durable (WAL-backed) runs —
#: kept out of :data:`PIPELINE_METRIC_NAMES` so the cross-executor
#: name-set comparisons of plain runs stay exact.
DURABILITY_METRIC_NAMES: tuple[str, ...] = (
    WAL_RECORDS,
    WAL_BYTES,
    WAL_SYNCS,
    CHECKPOINTS,
    CHECKPOINT_SECONDS,
    CHECKPOINT_EPOCH,
)

SHM_BYTES = "er_shm_bytes"
SHM_SEGMENTS = "er_shm_segments"
SHM_ROWS = "er_shm_rows"
POOL_SPAWNS = "er_pool_spawns_total"
POOL_REUSES = "er_pool_reuses_total"
PARTITIONS_DISPATCHED = "er_partitions_dispatched_total"
PARTITION_PAIRS = "er_partition_pairs_total"

#: The shared-memory / worker-pool / dispatch families, declared only when
#: the multiprocess executor uses partitioned dispatch (the one condition
#: under which it spawns a pool and touches shared columns) — like
#: :data:`DURABILITY_METRIC_NAMES`, kept out of :data:`PIPELINE_METRIC_NAMES`
#: so plain runs' cross-executor name-set comparisons stay exact.  The
#: counters accumulate across increments.
PARTITION_METRIC_NAMES: tuple[str, ...] = (
    SHM_BYTES,
    SHM_SEGMENTS,
    SHM_ROWS,
    POOL_SPAWNS,
    POOL_REUSES,
    PARTITIONS_DISPATCHED,
    PARTITION_PAIRS,
)


def declare_pipeline_metrics(
    registry: MetricsRegistry, stage_names: Iterable[str]
) -> None:
    """Pre-register the full metric vocabulary for the given stages.

    Idempotent; a no-op on a disabled registry.  Called by
    :class:`~repro.core.plan.CompiledPipeline` (covering the three real
    executors) and by the simulator.
    """
    if not registry.enabled:
        return
    for stage in stage_names:
        registry.counter(STAGE_ITEMS, stage=stage)
        registry.histogram(STAGE_SERVICE_SECONDS, stage=stage)
        registry.gauge(QUEUE_DEPTH, stage=stage)
        registry.counter(DEAD_LETTERS, stage=stage)
        registry.counter(RETRIES, stage=stage)
    registry.counter(COMPARISONS_GENERATED)
    registry.counter(COMPARISONS_EXECUTED)
    registry.counter(ENTITIES)
    registry.counter(MATCHES)
    registry.histogram(ENTITY_LATENCY_SECONDS)


def declare_durability_metrics(registry: MetricsRegistry) -> None:
    """Pre-register the WAL/checkpoint families (durable runs only).

    Idempotent; a no-op on a disabled registry.  Called by
    :class:`~repro.core.backends.durable.DurableBackend`.
    """
    if not registry.enabled:
        return
    registry.counter(WAL_RECORDS)
    registry.counter(WAL_BYTES)
    registry.counter(WAL_SYNCS)
    registry.counter(CHECKPOINTS)
    registry.histogram(CHECKPOINT_SECONDS)
    registry.gauge(CHECKPOINT_EPOCH)


def declare_partition_metrics(registry: MetricsRegistry) -> None:
    """Pre-register the shm/pool/dispatch families (partitioned runs only).

    Idempotent; a no-op on a disabled registry.  Called by
    :class:`~repro.parallel.mp_framework.MultiprocessERPipeline` when the
    wiring is eligible for partitioned dispatch.
    """
    if not registry.enabled:
        return
    registry.gauge(SHM_BYTES)
    registry.gauge(SHM_SEGMENTS)
    registry.gauge(SHM_ROWS)
    registry.counter(POOL_SPAWNS)
    registry.counter(POOL_REUSES)
    registry.counter(PARTITIONS_DISPATCHED)
    registry.counter(PARTITION_PAIRS)


def stage_seconds(registry: MetricsRegistry) -> dict[str, float]:
    """Seconds each stage spent in service: the sums of
    ``er_stage_service_seconds{stage}`` (empty for a disabled registry).

    The one reader of "where did the time go" per stage — a run's total
    stage time is ``sum(stage_seconds(registry).values())``.
    """
    return {
        dict(metric.labels)["stage"]: metric.sum
        for metric in registry.collect()
        if metric.name == STAGE_SERVICE_SECONDS
    }
