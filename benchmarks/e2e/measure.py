"""One workload in one process: set-up, repetitions, gates, metrics.

End-to-end numbers come from untraced repetitions.  With ``trace`` on, a
shorter untraced phase is followed by one traced repetition that produces
the per-layer numbers (and ``out/trace-<workload>.json``); the ratio of the
two walls is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads
from repro.core import InMemoryBackend, PipelinePlan, StreamERPipeline
from repro.core.backends import SharedMemoryBackend, active_shm_segments
from repro.evaluation import precision_recall_f1
from repro.observability import MetricsRegistry
from repro.parallel import ParallelERPipeline, plan_partitions
from repro.streaming import MultiprocessStreamRunner

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
#: Share of the measuring window the untraced phase gets in a traced run.
UNTRACED_SHARE_WHEN_TRACING = 0.4
JOIN_TIMEOUT_S = 120.0
FRONT_STAGES = ("dr", "bb+bp", "bg", "cg")

clock = time.perf_counter


def effective_cpus() -> int:
    """CPUs this process may run on (scheduler affinity, not the machine's count)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return len(getaffinity(0))
    return os.cpu_count() or 1


def host_block() -> dict:
    return {
        "effective_cpus": effective_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", ""),
    }


def digest(pairs: set) -> str:
    """Match-set fingerprint: pair count and sha256 of the sorted pairs."""
    body = repr(sorted(pairs)).encode("utf-8")
    return f"{len(pairs)}:{hashlib.sha256(body).hexdigest()}"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def iqr(values: list[float]) -> float:
    """Distance between the first and the third quartile (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def percentile(values: list[float], share: float) -> float:
    """Nearest rank: the ceil(share · n)-th smallest value."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# --------------------------------------------------------------------------
# One repetition of each executor


@dataclass
class Rep:
    """What one repetition measured.

    ``wall_s`` runs from executor construction to the last match out with
    the executor closed.  ``increment_s`` are the update increments (or the
    ``step``-sized windows of an entity-at-a-time run), ``latency_s`` the
    per-entity latencies, ``ref_wall_s`` the sequential reference on the
    same input where one is run.
    """

    wall_s: float
    bulk_s: float
    increment_s: list[float]
    latency_s: list[float]
    digests: list[str]
    attempted: int
    dead_letters: int
    ref_wall_s: float | None = None
    accounting_ok: bool = True
    leaked_segments: int = 0
    layer: dict = field(default_factory=dict)


@dataclass
class SeqRun:
    wall_s: float
    increment_s: list[float]
    pipeline: StreamERPipeline
    driver: spans.StageDriver | None

    def pairs(self) -> set:
        return self.pipeline.cl.matches.pairs()


def accounting_ok(pipeline: StreamERPipeline) -> bool:
    """Every pair ``cc`` kept was materialized by ``lm`` and examined by ``co``."""
    return pipeline.cc.retained == pipeline.lm.materialized == pipeline.co.compared


def sequential(w: workloads.Workload, increments: list[list], trace: tuple | None = None) -> SeqRun:
    """The sequential pipeline over ``increments``.

    With ``trace`` — a ``(recorder, parent span)`` pair — the stage
    callables are driven from outside by a :class:`spans.StageDriver`
    instead of through ``process_many``.
    """
    spans.settle()
    start = clock()
    config = workloads.config(w)
    pipeline = StreamERPipeline(config, instrument=False)
    driver = None
    if trace is not None:
        recorder, parent = trace
        prefilter = getattr(config.comparator, "prefilter", False)
        driver = spans.StageDriver(
            recorder,
            pipeline.compiled.ordered(),
            workloads.THRESHOLD if prefilter else None,
        )
    times: list[float] = []
    for index, increment in enumerate(increments):
        began = clock()
        if driver is None:
            pipeline.process_many(increment)
        else:
            span = recorder.open(f"increment[{index}]", parent)
            driver.feed(increment, span)
            recorder.close(span, entities=len(increment))
        times.append(clock() - began)
    pipeline.close()
    return SeqRun(clock() - start, times, pipeline, driver)


def speedups_vs_seq(reps: list[Rep]) -> list[float]:
    """Sequential reference wall over this executor's wall, one ratio per repetition.

    Where the executor *is* the sequential baseline no reference is run.
    The ratios are then taken per update increment, between the even- and
    the odd-numbered repetitions' medians for that increment: an A/A
    comparison of the same work that reads 1 and shows the noise floor of
    the ratio metric.
    """
    if reps[0].ref_wall_s is not None:
        return [rep.ref_wall_s / rep.wall_s for rep in reps]
    if len(reps) < 2:
        return [1.0]
    even = zip(*(rep.increment_s for rep in reps[0::2]))
    odd = zip(*(rep.increment_s for rep in reps[1::2]))
    return [median(a) / median(b) for a, b in zip(even, odd)]


def increment_latency(times: list[float], increments: list[list]) -> float:
    """Median entity's wait when entities arrive as increments.

    An entity is due when its increment is submitted and its matches are
    out when the increment returns: the median over entities is the time of
    the increment at which half of them have been counted.
    """
    half = sum(len(increment) for increment in increments) / 2.0
    seen = 0
    for seconds, size in sorted(zip(times, map(len, increments))):
        seen += size
        if seen >= half:
            return seconds
    return 0.0


def seq_rep(w: workloads.Workload, data: "Data", index: int, trace: tuple | None) -> Rep:
    run = sequential(w, data.increments, trace)
    return Rep(
        wall_s=run.wall_s,
        bulk_s=run.increment_s[0],
        increment_s=run.increment_s[1:],
        latency_s=[increment_latency(run.increment_s, data.increments)],
        digests=[digest(run.pairs())],
        attempted=len(data.entities),
        dead_letters=len(run.pipeline.dead_letters),
        accounting_ok=accounting_ok(run.pipeline),
        layer=sequential_layers(run, data) if trace else {},
    )


def window_times(done: list[float], start: float, w: workloads.Workload) -> tuple[float, list[float]]:
    """(time to the end of the bulk, times of the ``step`` windows after it).

    ``done[i]`` is the instant entity ``i``'s matches were out.
    """
    marks = list(range(w.bulk - 1, len(done), w.step))
    return done[marks[0]] - start, [
        done[b] - done[a] for a, b in zip(marks, marks[1:])
    ]


def trickle_rep(w: workloads.Workload, data: "Data", index: int, trace: tuple | None) -> Rep:
    if trace is not None:
        return seq_rep(w, data, index, trace)
    spans.settle()
    start = clock()
    pipeline = StreamERPipeline(workloads.config(w), instrument=False)
    process = pipeline.process
    done: list[float] = []
    for entity in data.entities:
        process(entity)
        done.append(clock())
    pipeline.close()
    wall = clock() - start
    bulk_s, windows = window_times(done, start, w)
    latency = [done[0] - start] + [b - a for a, b in zip(done, done[1:])]
    return Rep(
        wall_s=wall,
        bulk_s=bulk_s,
        increment_s=windows,
        latency_s=latency,
        digests=[digest(pipeline.cl.matches.pairs())],
        attempted=len(data.entities),
        dead_letters=len(pipeline.dead_letters),
        accounting_ok=accounting_ok(pipeline),
    )


def mp_rep(w: workloads.Workload, data: "Data", index: int, trace: tuple | None) -> Rep:
    """The multiprocess runner and the sequential reference, order alternating."""
    reference = None
    if index % 2:
        reference = sequential(w, data.increments, trace)
    rep = mp_run(w, data, trace)
    if reference is None:
        reference = sequential(w, data.increments, trace)
    rep.ref_wall_s = reference.wall_s
    rep.digests.append(digest(reference.pairs()))
    rep.attempted += len(data.entities)
    rep.dead_letters += len(reference.pipeline.dead_letters)
    rep.accounting_ok = rep.accounting_ok and accounting_ok(reference.pipeline)
    if trace is not None:
        driver = reference.driver
        rep.accounting_ok = (
            rep.accounting_ok
            and driver.prefiltered == rep.layer["parallel.mp_framework.pairs_prefiltered"]
            and reference.pipeline.cc.retained == rep.layer["core.stages.cc.kept"]
        )
        rep.layer.update(sequential_layers(reference, data))
        rep.layer.update(mp_extra_layers(w, data, reference, trace))
        overhead = median(rep.increment_s) - median(reference.increment_s[1:])
        rep.layer["parallel.mp_framework.increment_overhead_ms"] = overhead * 1e3
    return rep


def mp_run(w: workloads.Workload, data: "Data", trace: tuple | None) -> Rep:
    workers = min(2, effective_cpus())
    spans.settle()
    parent_cpu0, _ = spans.rusage()
    worker_cpu0, _ = spans.rusage(resource.RUSAGE_CHILDREN)
    start = clock()
    with spans.span(trace, "mp.construct"):
        runner = MultiprocessStreamRunner(workloads.config(w), workers=workers, partitioned="auto")
    construct_s = clock() - start
    times: list[float] = []
    try:
        for index, increment in enumerate(data.increments):
            cpu0, _ = spans.rusage()
            began = clock()
            with spans.span(trace, f"mp.increment[{index}]") as attrs:
                runner.process_increment(increment)
                attrs.update(entities=len(increment), parent_cpu_s=spans.rusage()[0] - cpu0)
            times.append(clock() - began)
        running_s = clock() - start
        # State is read with the clock stopped, before close unlinks the columns.
        pipeline = runner.pipeline
        backend = runner.backend
        pairs = runner.match_pairs()
        kept = pipeline.lm.materialized
        layer = {
            "parallel.mp_framework.construct_s": construct_s,
            "parallel.mp_framework.first_increment_s": times[0],
            "parallel.mp_framework.pool_spawns": pipeline.pool_spawns,
            "parallel.mp_framework.pool_reuses": pipeline.pool_reuses,
            "parallel.mp_framework.pairs_dispatched": pipeline.pairs_dispatched,
            "parallel.mp_framework.pairs_prefiltered": pipeline.pairs_prefiltered,
            "parallel.mp_framework.dead_letters": pipeline.items_failed,
            "parallel.mp_framework.retries": pipeline.retries_performed,
            "core.backends.shm.segments": len(backend.segment_names()),
            "core.backends.shm.bytes": backend.shm_bytes(),
            "core.stages.cc.kept": kept,
        }
        accounting_ok = (
            runner.partitioned_dispatch
            and kept == pipeline.pairs_dispatched + pipeline.pairs_prefiltered
        )
    finally:
        began = clock()
        with spans.span(trace, "mp.close") as attrs:
            runner.close()
            # Children are accounted once they have been waited for.
            worker_cpu_s = spans.rusage(resource.RUSAGE_CHILDREN)[0] - worker_cpu0
            attrs.update(worker_cpu_s=worker_cpu_s)
        close_s = clock() - began
    parent_cpu_s = spans.rusage()[0] - parent_cpu0
    leaked = len(active_shm_segments(backend.name))
    layer.update(
        {
            "parallel.mp_framework.close_s": close_s,
            "parallel.mp_framework.parent_cpu_s": parent_cpu_s,
            "parallel.mp_framework.worker_cpu_s": worker_cpu_s,
            "parallel.mp_framework.worker_cpu_share": worker_cpu_s / (parent_cpu_s + worker_cpu_s),
            "core.backends.shm.leaked_segments": leaked,
        }
    )
    return Rep(
        wall_s=running_s + close_s,
        bulk_s=times[0],
        increment_s=times[1:],
        latency_s=[increment_latency(times, data.increments)],
        digests=[digest(pairs)],
        attempted=len(data.entities),
        dead_letters=pipeline.items_failed,
        accounting_ok=accounting_ok,
        leaked_segments=leaked,
        layer=layer,
    )


def pin_to_one_cpu() -> None:
    """Confine this process (and its threads) to one of its CPUs.

    The thread framework is GIL-bound.  Free to use two CPUs, its hand-offs
    flip run to run between same-CPU context switches and cross-CPU wake-ups
    (median latency 0.5 ms or 2 ms, throughput 5.0k/s or 3.8k/s on the same
    input), which no repetition count averages out; on one CPU it is both
    faster and repeatable.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parallel_pipeline(w: workloads.Workload) -> ParallelERPipeline:
    pipeline = ParallelERPipeline(
        workloads.config(w), processes=workloads.PP_PROCESSES, micro_batch_size=1
    )
    if set(pipeline.allocation.values()) != {1}:
        # Completion order equals submission order only with one worker
        # per stage; pairing latencies with due times depends on it.
        raise SystemExit(f"expected one worker per stage, got {dict(pipeline.allocation)}")
    return pipeline


def pp_closed(w: workloads.Workload, data: "Data") -> tuple[float, object]:
    """Closed loop: submit blocks on the bounded input queue, so this is capacity."""
    spans.settle()
    start = clock()
    result = parallel_pipeline(w).run(data.entities, timeout=JOIN_TIMEOUT_S)
    return clock() - start, result


def pp_open(w: workloads.Workload, data: "Data") -> tuple[list[float], list[float], list[float], object]:
    """Open loop at a fixed rate, generated by this thread.

    Returns each entity's latency from its due time (so a late generator
    counts against the pipeline that delayed it), the instant its matches
    were out relative to the first due time, and how late it was submitted.
    """
    spans.settle()
    pipeline = parallel_pipeline(w)
    pipeline.start()
    submit = pipeline.submit
    interval = 1.0 / workloads.OPEN_LOOP_RATE
    lags: list[float] = []
    origin = clock() + 0.01
    for index, entity in enumerate(data.entities):
        due = origin + index * interval
        now = clock()
        while now < due:
            time.sleep(due - now)
            now = clock()
        lags.append(now - due)
        submit(entity)
    result = pipeline.run((), timeout=JOIN_TIMEOUT_S)
    # One worker per stage: latencies come back in submission order.
    latency = [lag + inside for lag, inside in zip(lags, result.latencies)]
    done = [index * interval + late for index, late in enumerate(latency)]
    return latency, done, lags, result


def pp_rep(w: workloads.Workload, data: "Data", index: int, trace: tuple | None) -> Rep:
    """Closed-loop phase, sequential reference, open-loop phase.

    Always in this order: the closed-loop wall depends by about a tenth on
    what ran before it, so alternating would make the median depend on
    whether the number of repetitions is odd.
    """
    cpu0, switches0 = spans.rusage()
    with spans.span(trace, "pp.closed_loop") as attrs:
        wall, closed = pp_closed(w, data)
        cpu1, switches1 = spans.rusage()
        attrs.update(cpu_s=cpu1 - cpu0, ctx_switches=switches1 - switches0)
    reference = sequential(w, [data.entities], trace)
    with spans.span(trace, "pp.open_loop"):
        latency, done, lags, opened = pp_open(w, data)
    # An increment of a stream is ``step`` consecutive arrivals, resolved
    # when the last one's matches are out.
    bulk_s, windows = window_times(done, 0.0, w)
    n = len(data.entities)
    layer = {}
    if trace is not None:
        layer = sequential_layers(reference, data)
        layer.update(
            {
                "parallel.framework.elapsed_s": closed.elapsed_seconds,
                "parallel.framework.cpu_util": (cpu1 - cpu0) / wall,
                "parallel.framework.ctx_switches_per_entity": (switches1 - switches0) / n,
                "parallel.framework.dead_letters": closed.items_failed + opened.items_failed,
                "parallel.framework.retries": closed.retries + opened.retries,
                "streaming.latency_p99_ms": percentile(latency, 0.99) * 1e3,
                "streaming.latency_max_ms": max(latency) * 1e3,
                "streaming.generator_lag_p99_ms": percentile(lags, 0.99) * 1e3,
                "streaming.generator_lag_final_ms": median(lags[-100:]) * 1e3,
                "streaming.offered_eps": workloads.OPEN_LOOP_RATE,
                "streaming.achieved_eps": n / done[-1],
            }
        )
    complete = len(closed.latencies) == n and len(opened.latencies) == n
    return Rep(
        wall_s=wall,
        bulk_s=bulk_s,
        increment_s=windows,
        latency_s=latency,
        digests=[digest(closed.match_pairs), digest(opened.match_pairs), digest(reference.pairs())],
        attempted=3 * n,
        dead_letters=closed.items_failed + opened.items_failed + len(reference.pipeline.dead_letters),
        ref_wall_s=reference.wall_s,
        accounting_ok=complete and accounting_ok(reference.pipeline),
        layer=layer,
    )


# --------------------------------------------------------------------------
# Per-layer numbers of a traced repetition


def sequential_layers(run: SeqRun, data: "Data") -> dict:
    """Stage, work/waste, state and quality numbers of a traced sequential run."""
    driver = run.driver
    pipeline = run.pipeline
    layer: dict = {}
    for name in driver.busy:
        prefix = f"core.stages.{spans.stage_key(name)}"
        layer[f"{prefix}.busy_s"] = driver.busy[name]
        layer[f"{prefix}.calls"] = driver.calls[name]
        layer[f"{prefix}.out_items"] = driver.out_items[name]
        layer[f"{prefix}.service_p50_us"] = median(driver.samples[name]) * 1e6
    pairs = run.pairs()
    precision, recall, _ = precision_recall_f1(pairs, data.truth)
    candidates = pipeline.cg.generated
    kept = pipeline.cc.retained
    backend = pipeline.backend
    interned = driver.threshold is not None
    layer.update(
        {
            "core.stages.bb_bp.blocks_pruned": pipeline.bb.pruned_blocks,
            "core.stages.bg.keys_ghosted": pipeline.bg.ghosted_keys,
            "core.stages.cg.candidates": candidates,
            "core.stages.cc.kept": kept,
            "core.stages.cc.keep_ratio": kept / candidates if candidates else 0.0,
            "comparison.kernel.pairs_scored": pipeline.co.compared - driver.prefiltered,
            "comparison.kernel.pairs_prefiltered": driver.prefiltered,
            "classification.matches": len(pairs),
            "evaluation.recall": recall,
            "evaluation.precision": precision,
            "core.backends.blocks": len(backend.blocks),
            "core.backends.block_members": backend.blocks.total_assignments(),
            "core.backends.profiles": len(backend.profiles),
            "reading.interning.tokens": len(backend.dictionary) if interned else 0,
            "trace.stage_busy_share": sum(driver.busy.values()) / run.wall_s,
        }
    )
    return layer


def front_busy_s(w: workloads.Workload, backend: object, entities: list) -> float:
    """The four front stages, compiled against ``backend`` and driven from outside."""
    compiled = PipelinePlan.from_config(workloads.config(w)).compile(backend)
    front = [fn for name, fn in compiled.ordered() if name in FRONT_STAGES]
    spans.settle()
    busy = 0.0
    for entity in entities:
        began = clock()
        message = entity
        for fn in front:
            message = fn(message)
        busy += clock() - began
    return busy


def mp_extra_layers(w: workloads.Workload, data: "Data", reference: SeqRun, trace: tuple) -> dict:
    """Standalone planner run and the front half on each backend."""
    sizes = reference.pipeline.backend.blocks.sizes()
    costs = {key: size * (size - 1) // 2 for key, size in sizes.items() if size > 1}
    began = clock()
    plan = plan_partitions(costs, min(2, effective_cpus()))
    plan_s = clock() - began
    with spans.span(trace, "front.shm") as attrs, SharedMemoryBackend() as shm:
        on_shm = attrs["busy_s"] = front_busy_s(w, shm, data.entities)
    with spans.span(trace, "front.memory") as attrs:
        in_memory = attrs["busy_s"] = front_busy_s(w, InMemoryBackend(), data.entities)
    return {
        "parallel.allocation.plan_ms": plan_s * 1e3,
        "parallel.allocation.groups": plan.group_count,
        "parallel.allocation.imbalance": plan.imbalance,
        "parallel.allocation.largest_share": plan.largest_share,
        "core.backends.shm.front_busy_s": on_shm,
        "core.backends.memory.front_busy_s": in_memory,
    }


def registry_overhead(w: workloads.Workload, data: "Data", untraced_wall_s: float) -> float:
    """Wall with an enabled ``MetricsRegistry`` over the ``NULL_REGISTRY`` wall."""
    spans.settle()
    start = clock()
    pipeline = StreamERPipeline(workloads.config(w), instrument=False, registry=MetricsRegistry())
    for entity in data.entities:
        pipeline.process(entity)
    pipeline.close()
    return (clock() - start) / untraced_wall_s


# --------------------------------------------------------------------------
# The run


@dataclass
class Data:
    entities: list
    increments: list[list]
    truth: set


def set_up(w: workloads.Workload, seed: int) -> tuple[Data, float]:
    """Generate the input and run the warm-up pass; returns the seconds it took."""
    start = clock()
    generated = workloads.dataset(w, seed)
    entities = generated.entities
    warm = StreamERPipeline(workloads.config(w), instrument=False)
    warm.process_many(entities[: min(workloads.WARMUP_ENTITIES, len(entities) // 4)])
    warm.close()
    data = Data(entities, workloads.increments(w, entities), generated.ground_truth)
    return data, clock() - start


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale: float, import_s: float
) -> dict:
    """Run one workload; returns the result document (see README.md)."""
    w = workloads.by_name(name).scaled(scale)
    host = host_block()
    host["pinned_to_one_cpu"] = w.executor == "pp"
    if w.executor == "pp":
        pin_to_one_cpu()
    setups: list[float] = []
    for _ in range(SETUP_REPEATS):
        data, setup_s = set_up(w, seed)
        setups.append(setup_s)

    repetition = {"seq": seq_rep, "trickle": trickle_rep, "mp": mp_rep, "pp": pp_rep}[w.executor]

    budget = seconds * UNTRACED_SHARE_WHEN_TRACING if trace else seconds
    # Repetitions until another one would overrun the window (at least one).
    reps: list[Rep] = []
    start = clock()
    while True:
        reps.append(repetition(w, data, len(reps), None))
        if len(reps) == 1:
            # After one repetition, as a user's single run would read it:
            # later repetitions only add allocator fragmentation.
            peak_rss_mb = spans.peak_rss_mb()
        elapsed = clock() - start
        if elapsed + elapsed / len(reps) > budget:
            break
    walls = [rep.wall_s for rep in reps]
    pooled_increments = [t for rep in reps for t in rep.increment_s]
    pooled_latency = [t for rep in reps for t in rep.latency_s]
    n = len(data.entities)

    per_layer: dict = {}
    traced: Rep | None = None
    if trace:
        recorder = spans.SpanRecorder(f"{w.name}-{seed}")
        with spans.GcPauses() as pauses:
            root = recorder.open("run")
            traced = repetition(w, data, len(reps), (recorder, root))
            recorder.close(root)
        recorder.write(OUT_DIR / f"trace-{w.name}.json", workload=w.name, seed=seed, scale=scale)
        per_layer = dict(traced.layer)
        per_layer.update(
            {
                "runtime.gc.gen2_collections": pauses.gen2,
                "runtime.gc.pause_max_ms": max(pauses.pauses, default=0.0) * 1e3,
                "runtime.gc.pause_total_s": sum(pauses.pauses),
                "trace.overhead_ratio": traced.wall_s / median(walls),
                "run.wall_s": median(walls),
                "run.wall_iqr_s": iqr(walls),
                "run.bulk_s": median([rep.bulk_s for rep in reps]),
                "run.increment_p75_ms": percentile(pooled_increments, 0.75) * 1e3,
                "run.reps": len(reps),
            }
        )
        if w.executor == "trickle":
            per_layer["observability.registry_overhead_ratio"] = registry_overhead(
                w, data, median(walls)
            )

    every = reps + ([traced] if traced else [])
    digests = {d for rep in every for d in rep.digests}
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    wanted = expected.get(f"seed={seed} scale={scale:g}", {}).get(w.name)
    gates = {
        "digest_identical_across_runs": len(digests) == 1,
        "digest_matches_expected": wanted is None or digests == {wanted},
        "pair_accounting": all(rep.accounting_ok for rep in every),
        "no_leaked_shm_segments": not any(rep.leaked_segments for rep in every),
        "no_dead_letters": not any(rep.dead_letters for rep in every),
    }
    digest_ok = gates["digest_identical_across_runs"] and gates["digest_matches_expected"]
    attempted = sum(rep.attempted for rep in every)
    failed = sum(rep.dead_letters for rep in every) if digest_ok else attempted

    speedups = speedups_vs_seq(reps)
    end_to_end = {
        "setup_s": (import_s + median(setups), [import_s + setup_s for setup_s in setups]),
        "entities_per_s": (n / median(walls), [n / wall for wall in walls]),
        "increment_p50_ms": (
            median(pooled_increments) * 1e3,
            [median(rep.increment_s) * 1e3 for rep in reps],
        ),
        "speedup_vs_seq": (median(speedups), speedups),
        "latency_p50_ms": (
            median(pooled_latency) * 1e3,
            [median(rep.latency_s) * 1e3 for rep in reps],
        ),
        "peak_rss_mb": (peak_rss_mb, [peak_rss_mb]),
    }
    return {
        "workload": w.name,
        "seed": seed,
        "scale": scale,
        "sizes": {"entities": w.entities, "bulk": w.bulk, "step": w.step, "reps": len(reps)},
        "host": host,
        "correct": all(gates.values()),
        "gates": gates,
        "digest": sorted(digests),
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            key: {"value": value, "samples": samples}
            for key, (value, samples) in end_to_end.items()
        },
        "per_layer": per_layer,
    }


def main(argv: list[str]) -> None:
    name, seed, seconds, trace, scale, import_s = argv
    document = measure(name, int(seed), float(seconds), trace == "1", float(scale), float(import_s))
    sys.stdout.write(json.dumps(document) + "\n")
