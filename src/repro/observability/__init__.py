"""Unified observability: metrics registry, entity traces, exporters.

One instrumentation vocabulary for all four executors (sequential,
thread PP/MPP, multiprocess, simulator) — see
:mod:`repro.observability.instrument` for the metric families,
:mod:`repro.observability.registry` for the instruments,
:mod:`repro.observability.trace` for span-style entity traces, and
:mod:`repro.observability.export` for the Prometheus/JSON exporters.
``docs/observability.md`` is the user-facing guide.
"""

from repro.observability.export import (
    SnapshotFileSink,
    to_json,
    to_prometheus,
    write_json_snapshot,
)
from repro.observability.instrument import (
    COMPARISONS_EXECUTED,
    COMPARISONS_GENERATED,
    DEAD_LETTERS,
    ENTITIES,
    ENTITY_LATENCY_SECONDS,
    MATCHES,
    PIPELINE_METRIC_NAMES,
    QUEUE_DEPTH,
    RETRIES,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    declare_pipeline_metrics,
    stage_seconds,
)
from repro.observability.registry import (
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import EntityTrace, StageSpan, Tracer

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "EntityTrace",
    "StageSpan",
    "Tracer",
    "declare_pipeline_metrics",
    "stage_seconds",
    "PIPELINE_METRIC_NAMES",
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
    "to_prometheus",
    "to_json",
    "write_json_snapshot",
    "SnapshotFileSink",
]
