"""Tracing from outside the program: spans, a stage driver, GC pauses, rusage.

Nothing under ``src/`` is edited or patched.  Per-layer numbers come from
timing calls into public functions: the stage callables a
``CompiledPipeline`` hands out via ``ordered()``, the executors' public
methods, ``resource.getrusage`` and ``gc.callbacks``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import time
from pathlib import Path

def stage_key(name: str) -> str:
    """A pipeline stage name as it appears in metric and span names."""
    return name.replace("+", "_")


#: How many items a stage's output message carries.
_OUT_ITEMS = {
    "dr": lambda message: 1,
    "bb+bp": lambda message: len(message.others),
    "bg": lambda message: len(message.others),
    "cg": lambda message: len(message.candidates),
    "cc": lambda message: len(message.candidates),
    "lm": lambda message: len(message.comparisons),
    "co": lambda message: len(message.scored),
    "cl": len,
}

SAMPLE_EVERY = 100


class SpanRecorder:
    """Spans ``{name, start, end, parent, trace}`` kept in memory.

    A span's identifier is its index in ``spans``; ``parent`` is the index
    of the span that caused it (``None`` for the root).  Times are
    ``time.perf_counter()`` seconds.  Extra keys (``busy_s``, ``calls``,
    rusage deltas) ride along on the span.
    """

    def __init__(self, trace: str) -> None:
        self.trace = trace
        self.spans: list[dict] = []

    def open(self, name: str, parent: int | None = None) -> int:
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "trace": self.trace}
        )
        return len(self.spans) - 1

    def close(self, span: int, **attrs: object) -> float:
        """End a span; returns its duration in seconds."""
        record = self.spans[span]
        record["end"] = time.perf_counter()
        record.update(attrs)
        return record["end"] - record["start"]

    def add(self, name: str, start: float, end: float, parent: int | None, **attrs: object) -> None:
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent,
             "trace": self.trace, **attrs}
        )

    def write(self, path: Path, **header: object) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "trace": self.trace, "spans": self.spans}) + "\n",
            encoding="utf-8",
        )


@contextlib.contextmanager
def span(trace: tuple | None, name: str):
    """A span under ``trace`` — a ``(recorder, parent span)`` pair — or nothing
    when ``trace`` is None.  Yields a dict whose items end up on the span."""
    attrs: dict = {}
    if trace is None:
        yield attrs
        return
    recorder, parent = trace
    index = recorder.open(name, parent)
    try:
        yield attrs
    finally:
        recorder.close(index, **attrs)


class StageDriver:
    """Runs entities through a compiled plan's stage callables, timing each call.

    This is the sequential executor's loop (`message = stage(message)` for
    every stage in order) with a clock around every call, so the sum of the
    stages' busy time accounts for the run's wall time.  Per increment it
    records one aggregated span per stage (summed busy time, call count);
    for every ``SAMPLE_EVERY``-th entity it also records one span per stage
    call and keeps the call's duration as a service-time sample.

    With a ``threshold`` it also counts, between ``lm`` and ``co``, the
    pairs the interned kernel's length prefilter will skip — the kernel
    itself keeps no such counter in the sequential executor.
    """

    def __init__(self, recorder: SpanRecorder, stages: list[tuple], threshold: float | None) -> None:
        self.recorder = recorder
        self.stages = [(name, fn, _OUT_ITEMS[name]) for name, fn in stages]
        self.threshold = threshold
        names = [name for name, _ in stages]
        self.busy = dict.fromkeys(names, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self.out_items = dict.fromkeys(names, 0)
        self.samples: dict[str, list[float]] = {name: [] for name in names}
        self.prefiltered = 0
        self.entities = 0

    def feed(self, entities: list, parent: int) -> None:
        """One increment: every entity through every stage, in order."""
        clock = time.perf_counter
        recorder = self.recorder
        threshold = self.threshold
        stages = self.stages
        busy = [0.0] * len(stages)
        items = [0] * len(stages)
        first = [0.0] * len(stages)
        last = [0.0] * len(stages)
        begun = False
        prefiltered = 0
        index = self.entities
        for entity in entities:
            sampled = index % SAMPLE_EVERY == 0
            index += 1
            message = entity
            for k, (name, fn, size_of) in enumerate(stages):
                if threshold is not None and name == "co":
                    prefiltered += _count_prefiltered(message.comparisons, threshold)
                start = clock()
                message = fn(message)
                end = clock()
                busy[k] += end - start
                items[k] += size_of(message)
                if not begun:
                    first[k] = start
                last[k] = end
                if sampled:
                    self.samples[name].append(end - start)
                    recorder.add(
                        f"stage.{stage_key(name)}", start, end, parent, entity=index - 1
                    )
            begun = True
        self.entities = index
        self.prefiltered += prefiltered
        calls = len(entities)
        for k, (name, _, _) in enumerate(stages):
            self.busy[name] += busy[k]
            self.calls[name] += calls
            self.out_items[name] += items[k]
            if calls:
                recorder.add(
                    f"stages.{stage_key(name)}", first[k], last[k], parent,
                    busy_s=busy[k], calls=calls, out_items=items[k],
                )


def _count_prefiltered(comparisons: list, threshold: float) -> int:
    """Pairs the Jaccard length prefilter drops: ``min(|a|,|b|) / max(|a|,|b|) < thr``."""
    dropped = 0
    for comparison in comparisons:
        a = comparison.left.token_ids
        b = comparison.right.token_ids
        if a is None or b is None:
            a = comparison.left.tokens
            b = comparison.right.tokens
        la, lb = len(a), len(b)
        if la > lb:
            la, lb = lb, la
        if lb and la / lb < threshold:
            dropped += 1
    return dropped


def settle() -> None:
    """A full collection between measurements, so that one repetition's
    garbage is not collected on the next one's clock.  Run with the
    ``gc.callbacks`` detached: it is the benchmark's pause, not the program's."""
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        gc.collect()
    finally:
        gc.callbacks.extend(callbacks)


class GcPauses:
    """Collector pauses seen through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self.gen2 = 0
        self._start = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._start)
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self._callback)


def rusage(who: int = resource.RUSAGE_SELF) -> tuple[float, int]:
    """(CPU seconds user+system, voluntary+involuntary context switches)."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime, usage.ru_nvcsw + usage.ru_nivcsw


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
