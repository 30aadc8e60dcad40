"""Exporters: Prometheus text format, JSON snapshots, and file sinks.

Two snapshot formats cover the common consumers:

* :func:`to_prometheus` renders the registry in the Prometheus text
  exposition format (version 0.0.4) — counters and gauges as single
  samples, histograms as cumulative ``_bucket{le=...}`` series plus
  ``_sum``/``_count`` — so a scrape endpoint or a push-gateway shim needs
  no further translation;
* :func:`to_json` renders a structured dict (JSON-able as-is) for ad-hoc
  tooling and the golden tests.

:class:`SnapshotFileSink` is the ``on_snapshot`` callback for
:class:`~repro.core.monitoring.PipelineMonitor`: it appends one JSON line
per snapshot, giving long runs a greppable flight record without holding
anything in memory.  (The streaming runners write their registry once, at
the end of a run, through :func:`write_json_snapshot` and their
``metrics_path``.)
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.observability.registry import Gauge, Histogram, MetricsRegistry

__all__ = [
    "to_prometheus",
    "to_json",
    "write_json_snapshot",
    "SnapshotFileSink",
]


def _format_value(value: float) -> str:
    # Integers render without a trailing ".0" (Prometheus accepts both;
    # the compact form diffs cleanly in golden tests).
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _le_text(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return _format_value(bound)


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()
    for metric in registry.collect():
        if isinstance(metric, Histogram):
            kind = "histogram"
        elif isinstance(metric, Gauge):
            kind = "gauge"
        else:
            kind = "counter"
        if metric.name not in seen_types:
            seen_types.add(metric.name)
            lines.append(f"# TYPE {metric.name} {kind}")
        if isinstance(metric, Histogram):
            for bound, cumulative in metric.bucket_counts():
                labels = _render_labels(metric.labels, (("le", _le_text(bound)),))
                lines.append(f"{metric.name}_bucket{labels} {cumulative}")
            labels = _render_labels(metric.labels)
            lines.append(f"{metric.name}_sum{labels} {_format_value(metric.sum)}")
            lines.append(f"{metric.name}_count{labels} {metric.count}")
        else:
            labels = _render_labels(metric.labels)
            lines.append(f"{metric.name}{labels} {_format_value(metric.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(registry: MetricsRegistry) -> dict:
    """A structured, JSON-able snapshot of every instrument."""
    counters: list[dict] = []
    gauges: list[dict] = []
    histograms: list[dict] = []
    for metric in registry.collect():
        labels = dict(metric.labels)
        if isinstance(metric, Histogram):
            histograms.append(
                {
                    "name": metric.name,
                    "labels": labels,
                    "count": metric.count,
                    "sum": metric.sum,
                    "buckets": [
                        {"le": _le_text(bound), "count": cumulative}
                        for bound, cumulative in metric.bucket_counts()
                    ],
                }
            )
        elif isinstance(metric, Gauge):
            gauges.append({"name": metric.name, "labels": labels, "value": metric.value})
        else:
            counters.append({"name": metric.name, "labels": labels, "value": metric.value})
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def write_json_snapshot(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write :func:`to_json` of the registry to ``path``; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(to_json(registry), indent=2) + "\n", encoding="utf-8")
    return target


class SnapshotFileSink:
    """Append-only JSON-lines sink for monitor snapshots.

    Accepts dataclass instances (e.g. ``monitoring.Snapshot``), objects
    with ``to_dict``, or plain dicts; each call appends one line.  Use as
    ``PipelineMonitor(pipeline, on_snapshot=SnapshotFileSink(path))``.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.written = 0

    def _encode(self, snapshot: object) -> dict:
        if dataclasses.is_dataclass(snapshot) and not isinstance(snapshot, type):
            return dataclasses.asdict(snapshot)
        to_dict = getattr(snapshot, "to_dict", None)
        if callable(to_dict):
            return to_dict()
        if isinstance(snapshot, dict):
            return snapshot
        raise TypeError(f"cannot serialize snapshot of type {type(snapshot).__name__}")

    def __call__(self, snapshot: object) -> None:
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(self._encode(snapshot)) + "\n")
        self.written += 1
