"""The task-parallel framework, executable on real threads.

This is the architecture of Figure 5 made concrete: every stage runs on
its own worker pool, connected by bounded queues (backpressure), with the
allocation of workers to stages solved by
:func:`repro.parallel.allocation.allocate_processes`.  Each queue is a
:class:`_Channel` of two C ``queue.SimpleQueue``s (messages, free-slot
credits): both ends of a hand-off block in C, and the bound is exact.
Micro-batching (the MPP variant) greedily aggregates queued items up to a
batch size / delay bound before each stage.

Correctness under reordering: the block-building stage is the pipeline's
serial stage (``FIXED_STAGES`` in :mod:`repro.parallel.allocation`), and
it registers each profile in the shared profile store before the entity
joins any block — therefore every partner id a comparison references is
resolvable by the time load management looks it up, no matter how
replicated stages interleave.  The serializer consumes entities through a
:class:`_ReorderBuffer`: replicated ``f_dr`` workers may overtake each
other, and block-pruning verdicts depend on arrival history, so without
re-sequencing the final match set would depend on thread scheduling.
Items dead-lettered upstream are declared as sequence holes so the
serializer never waits for them.

On CPython the GIL serializes pure-Python compute, so this executor
demonstrates architecture and correctness rather than wall-clock speedup;
the multi-core performance experiments run on the calibrated
discrete-event simulator (:mod:`repro.parallel.simulator`).

Robustness: every worker executes items under a
:class:`~repro.parallel.supervision.Supervisor` — a raising stage function
no longer kills the worker; the item is retried per the
:class:`~repro.core.config.SupervisionPolicy` and then routed to the
dead-letter queue surfaced on :class:`ParallelRunResult`.  Worker loops
shut down via ``try/finally``, so even a catastrophic worker death still
decrements the pool's active count and forwards the ``_STOP`` sentinels
downstream instead of deadlocking ``join()``.  ``close()``/``join()``
accept a timeout and raise :class:`~repro.errors.PipelineStoppedError`
with a per-stage liveness report when the pipeline fails to drain.  See
``docs/robustness.md``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.backends import StateBackend
from repro.core.config import StreamERConfig, SupervisionPolicy
from repro.core.plan import PipelinePlan
from repro.errors import PipelineStoppedError
from repro.invariants.checker import InvariantChecker
from repro.observability.instrument import (
    ENTITIES,
    ENTITY_LATENCY_SECONDS,
    QUEUE_DEPTH,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer
from repro.parallel.allocation import (
    FIXED_STAGES,
    allocate_processes,
    paper_example_times,
)
from repro.parallel.faults import FaultInjector, FaultPlan, wrap_stages
from repro.parallel.supervision import Supervisor, extract_entity_id, format_liveness
from repro.types import DeadLetter, EntityDescription, Match

_STOP = object()


class _Channel:
    """A bounded FIFO hand-off whose two ends block in C, GIL released.

    One ``queue.SimpleQueue`` carries the messages, another the free-slot
    credits: ``put`` takes a credit and ``get`` returns one, so at most
    ``maxsize`` messages are queued (``maxsize <= 0``: no bound).  Credits
    are minted lazily, only while none is waiting, so a huge bound costs
    nothing up front.  Timeouts raise ``queue.Full`` / ``queue.Empty``.  A
    ``gauge`` is set to the depth at every put/get.
    """

    def __init__(self, maxsize: int, gauge=None) -> None:
        self._items = queue.SimpleQueue()
        self._credits = queue.SimpleQueue()
        self._maxsize = maxsize if maxsize > 0 else float("inf")
        self._minted = 0
        self._mint_lock = threading.Lock()
        self._gauge = gauge
        self.qsize = self._items.qsize

    def put(self, item, block: bool = True, timeout: float | None = None) -> None:
        credits = self._credits
        while self._minted < self._maxsize:
            if not credits.qsize():
                with self._mint_lock:
                    if self._minted < self._maxsize:
                        self._minted += 1
                        break
            try:
                credits.get(False)
                break
            except queue.Empty:  # a racing put took the waiting credit
                pass
        else:  # every credit is minted: wait for one to come back
            try:
                credits.get(block, timeout)
            except queue.Empty:
                raise queue.Full from None
        self._items.put(item)
        if self._gauge is not None:
            self._gauge.set(self._items.qsize())

    def get(self, block: bool = True, timeout: float | None = None):
        item = self._items.get(block, timeout)
        self._credits.put(None)
        if self._gauge is not None:
            self._gauge.set(self._items.qsize())
        return item


class _ReorderBuffer:
    """Restores submission order in front of the serial stage.

    Replicated upstream stages (``dr`` may run on several workers) can
    deliver entities to the serializer out of submission order, and the
    match set is *not* invariant to the order the block index sees —
    pruning verdicts depend on arrival history.  The buffer holds early
    arrivals until every predecessor has either arrived or been declared a
    ``hole`` (dead-lettered upstream, so it will never arrive), making the
    serializer's processing order equal to submission order deterministically
    rather than by scheduling luck.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: dict[int, tuple] = {}
        self._holes: set[int] = set()
        self._next = 0

    def hole(self, seq: int) -> None:
        """Declare that ``seq`` died upstream and will never arrive."""
        with self._lock:
            self._holes.add(seq)

    def admit(self, seq: int, item: tuple) -> list[tuple]:
        """Buffer one arrival; return every item now ready, in order."""
        with self._lock:
            self._pending[seq] = item
            return self._drain_locked()

    def drain_ready(self) -> list[tuple]:
        """Items that became ready since the last call (holes filled in)."""
        with self._lock:
            return self._drain_locked()

    def _drain_locked(self) -> list[tuple]:
        ready: list[tuple] = []
        while True:
            if self._next in self._holes:
                self._holes.discard(self._next)
                self._next += 1
                continue
            item = self._pending.pop(self._next, None)
            if item is None:
                return ready
            ready.append(item)
            self._next += 1

    def pending_count(self) -> int:
        """Buffered arrivals plus undrained holes (0 after a clean drain)."""
        with self._lock:
            return len(self._pending) + len(self._holes)


@dataclass
class ParallelRunResult:
    """Outcome of a parallel run.

    ``entities_processed`` counts every submitted entity, including the
    ``items_failed`` that exhausted supervision and landed in
    ``dead_letters`` (one record per failed item, in failure order);
    ``retries`` is the total number of supervised re-executions performed.
    """

    entities_processed: int
    matches: list[Match]
    elapsed_seconds: float
    latencies: list[float] = field(default_factory=list)
    items_failed: int = 0
    retries: int = 0
    dead_letters: list[DeadLetter] = field(default_factory=list)

    @property
    def match_pairs(self) -> set[tuple]:
        return {m.key() for m in self.matches}

    @property
    def dead_letter_ids(self) -> set:
        """Entity identifiers of all dead-lettered items."""
        return {d.entity_id for d in self.dead_letters}


class _StageRunner:
    """Worker pool for one stage, reading one queue and writing the next."""

    def __init__(
        self,
        name: str,
        fn,
        workers: int,
        in_queue: _Channel,
        out_queue: _Channel | None,
        batch_size: int,
        batch_delay: float,
        downstream_workers: int,
        supervisor: Supervisor,
        on_result=None,
        reorder: "_ReorderBuffer | None" = None,
        hole_sink: "_ReorderBuffer | None" = None,
        tracer: "Tracer | None" = None,
        downstream_name: str | None = None,
        log_dead_letter=None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.workers = workers
        self.in_queue = in_queue
        self.out_queue = out_queue
        self.batch_size = batch_size
        self.batch_delay = batch_delay
        self.downstream_workers = downstream_workers
        self.supervisor = supervisor
        self.on_result = on_result
        self.reorder = reorder
        self.hole_sink = hole_sink
        self.tracer = tracer
        self.downstream_name = downstream_name
        self.log_dead_letter = log_dead_letter
        self._active = workers
        self._lock = threading.Lock()
        self.threads = [
            threading.Thread(target=self._run, name=f"er-{name}-{i}", daemon=True)
            for i in range(workers)
        ]

    def start(self) -> None:
        for thread in self.threads:
            thread.start()

    def _collect_batch(self) -> tuple[list, bool]:
        """Get a batch of messages; returns (batch, saw_stop)."""
        first = self.in_queue.get()
        if first is _STOP:
            return [], True
        batch = [first]
        if self.batch_size > 1:
            deadline = time.perf_counter() + self.batch_delay
            while len(batch) < self.batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    item = self.in_queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _STOP:
                    return batch, True
                batch.append(item)
        return batch, False

    def _execute(self, enqueue_time: float, seq: int, payload) -> None:
        trace = self.tracer.get(seq) if self.tracer is not None else None
        if trace is not None:
            trace.record_start(self.name)
        ok, result = self.supervisor.execute(self.name, self.fn, payload)
        if not ok:
            # Dead-lettered; surviving items flow on.  A death upstream of
            # the serial stage is a permanent gap in the sequence —
            # tell the serializer's reorder buffer not to wait for it.
            if trace is not None:
                trace.dead_letter(self.name)
            if self.log_dead_letter is not None:
                self.log_dead_letter(seq, payload, self.name)
            if self.hole_sink is not None:
                self.hole_sink.hole(seq)
            return
        if trace is not None:
            trace.record_finish(self.name)
        if self.out_queue is not None:
            if trace is not None and self.downstream_name is not None:
                trace.record_enqueue(self.downstream_name)
            self.out_queue.put((enqueue_time, seq, result))
        elif self.on_result is not None:
            self.on_result(enqueue_time, result)
            if trace is not None:
                trace.complete()

    def _run(self) -> None:
        # The finally is the anti-deadlock guarantee: no matter how this
        # worker exits — clean _STOP, or an exception escaping the
        # supervisor's own machinery — _active is decremented and the
        # downstream sentinels are forwarded by whichever worker is last.
        try:
            while True:
                batch, saw_stop = self._collect_batch()
                for item in batch:
                    if self.reorder is None:
                        self._execute(*item)
                        continue
                    enqueue_time, seq, payload = item
                    for ready in self.reorder.admit(seq, item):
                        self._execute(*ready)
                if self.reorder is not None:
                    # Upstream holes are declared out of band; anything they
                    # unblocked since the last arrival is runnable now.
                    for ready in self.reorder.drain_ready():
                        self._execute(*ready)
                if saw_stop:
                    return
        finally:
            self._shutdown()

    def _shutdown(self) -> None:
        with self._lock:
            self._active -= 1
            last = self._active == 0
        if last and self.out_queue is not None:
            for _ in range(self.downstream_workers):
                self.out_queue.put(_STOP)

    def alive(self) -> int:
        return sum(1 for thread in self.threads if thread.is_alive())

    def join(self, deadline: float | None = None) -> None:
        for thread in self.threads:
            if deadline is None:
                thread.join()
            else:
                thread.join(max(0.0, deadline - time.perf_counter()))


class ParallelERPipeline:
    """The optimized parallel framework (PP / MPP) on threads.

    Parameters
    ----------
    config:
        The usual stream-ER configuration.
    processes:
        Total worker budget P (≥ 8); distributed over stages by the
        allocation solver using ``stage_seconds`` (or the paper's measured
        dbpedia ratios when none are given).
    stage_seconds:
        Optional measured per-stage times from a sequential run, used to
        solve the allocation.
    micro_batch_size / micro_batch_delay:
        Batch bound of the aggregation performed before every stage;
        ``micro_batch_size=1`` is the plain parallel pipeline (PP), the
        paper's MPP uses (100, 10 ms).
    queue_capacity:
        Bound of every inter-stage queue (backpressure: a ``put`` blocks
        while that many messages are queued); ``<= 0`` means unbounded.
    supervision:
        Retry/dead-letter policy applied to every stage (default:
        :class:`~repro.core.config.SupervisionPolicy` with 2 retries and
        no retry for ``bb+bp``).
    faults:
        Optional fault-injection plan (stage name →
        :class:`~repro.parallel.faults.FaultSpec`); the wrapped injectors
        are exposed as ``fault_injectors`` for inspection.
    backend:
        Where the ER state lives (default: a fresh in-memory backend).  On
        a durable backend every :meth:`submit` is logged before the entity
        is queued, every dead letter is logged, and :meth:`join` checkpoints
        once the workers have exited.
    registry:
        Optional :class:`~repro.observability.MetricsRegistry`; when
        enabled, the framework emits the shared metric vocabulary —
        per-stage service histograms and item counts (via the compiled
        plan), queue-depth gauges sampled at every put/get, dead-letter
        and retry counters (via the supervisor), and end-to-end latency.
    tracer:
        Optional :class:`~repro.observability.Tracer`; sampled entities
        carry an :class:`~repro.observability.EntityTrace` recording
        per-stage enqueue/start/finish timestamps across the worker pools.
    checker:
        Optional :class:`~repro.invariants.InvariantChecker`.  Stage-scope
        invariants run inside the workers (recording only — a raise inside
        a supervised worker would become a dead letter); state- and
        run-scope invariants run in :meth:`run` after all workers join,
        where a raise-mode checker then raises.
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        processes: int = 8,
        stage_seconds: dict[str, float] | None = None,
        micro_batch_size: int = 1,
        micro_batch_delay: float = 0.01,
        queue_capacity: int = 1024,
        supervision: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
        backend: StateBackend | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        checker: InvariantChecker | None = None,
    ) -> None:
        self.plan = PipelinePlan.from_config(config)
        self.config = self.plan.config
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        self.supervisor = Supervisor(supervision, registry=self.registry)
        self.checker = checker if (checker is not None and checker.enabled) else None
        if self.checker is not None:
            # Stage checks run on worker threads; a raise there would be
            # swallowed into the dead-letter queue by supervision.
            self.checker.concurrent = True
        names = self.plan.stage_names()
        self.allocation = allocate_processes(
            stage_seconds or paper_example_times(), processes, stages=names
        )
        self.compiled = self.plan.compile(
            backend, registry=self.registry, checker=self.checker
        )
        self.backend = self.compiled.backend
        self._cl_lock = threading.Lock()
        # A durable backend's log call, resolved once: None on the plain
        # hot path.  Submissions are its only admissions while this
        # pipeline runs, so an entity's log position is base + sequence.
        self._log = getattr(self.backend, "log_input", None)
        self._log_base = getattr(self.backend, "entities_logged", 0)

        stage_fns = self.compiled.stage_functions()
        cl_stage = stage_fns["cl"]

        def classify_locked(scored):
            # The allocation may replicate ``cl``; the match-store owner
            # stays correct under a single lock.
            with self._cl_lock:
                return cl_stage(scored)

        stage_fns["cl"] = classify_locked
        self.fault_injectors: dict[str, FaultInjector] = wrap_stages(
            stage_fns, faults
        )

        self._results_lock = threading.Lock()
        self._matches: list[Match] = []
        self._latencies: list[float] = []
        self._entities_in = 0
        metrics_on = self.registry.enabled
        entities_metric = self.registry.counter(ENTITIES)
        latency_metric = self.registry.histogram(ENTITY_LATENCY_SECONDS)

        def on_final(enqueue_time: float, matches: list[Match]) -> None:
            latency = time.perf_counter() - enqueue_time
            with self._results_lock:
                self._matches.extend(matches)
                self._latencies.append(latency)
            if metrics_on:
                entities_metric.inc()
                latency_metric.observe(latency)

        # Deterministic ordering at the serial stage: replicated upstream
        # workers may overtake each other, so the serializer pulls arrivals
        # through a reorder buffer keyed by submission sequence, and
        # upstream dead letters are declared as holes.
        serial = next(name for name in names if name in FIXED_STAGES)
        self._sequencer = _ReorderBuffer()
        pre_serial = set(names[: names.index(serial)])

        # Queue i feeds stage names[i]; its depth is that stage's gauge.
        gauge = self.registry.gauge
        queues = [
            _Channel(queue_capacity, gauge(QUEUE_DEPTH, stage=name) if metrics_on else None)
            for name in names
        ]
        self._input = queues[0]
        self._seq = 0
        self._runners: list[_StageRunner] = []
        for index, name in enumerate(names):
            out_queue = queues[index + 1] if index + 1 < len(names) else None
            downstream = (
                self.allocation[names[index + 1]]
                if index + 1 < len(names)
                else 0
            )
            self._runners.append(
                _StageRunner(
                    name=name,
                    fn=stage_fns[name],
                    workers=self.allocation[name],
                    in_queue=queues[index],
                    out_queue=out_queue,
                    batch_size=micro_batch_size,
                    batch_delay=micro_batch_delay,
                    downstream_workers=downstream,
                    supervisor=self.supervisor,
                    on_result=on_final if out_queue is None else None,
                    reorder=self._sequencer if name == serial else None,
                    hole_sink=self._sequencer if name in pre_serial else None,
                    tracer=tracer,
                    downstream_name=names[index + 1] if index + 1 < len(names) else None,
                    log_dead_letter=self._log_dead_letter if self._log is not None else None,
                )
            )
        self._started = False
        self._closed = False

    def _log_dead_letter(self, seq: int, payload: object, stage: str) -> None:
        self.backend.log_dead_letter(
            self._log_base + seq, extract_entity_id(payload), stage
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            for runner in self._runners:
                runner.start()
            self._started = True

    def submit(self, entity: EntityDescription) -> None:
        """Feed one entity (blocks when the framework is saturated)."""
        if self._closed:
            raise PipelineStoppedError("pipeline already closed")
        self.start()
        if self._log is not None:
            self._log((entity,))
        seq = self._seq
        self._seq += 1
        self._entities_in += 1
        now = time.perf_counter()
        if self.tracer is not None:
            trace = self.tracer.start(seq, entity.eid, at=now)
            if trace is not None:
                trace.record_enqueue(self.plan.stage_names()[0], at=now)
        self._input.put((now, seq, entity))

    def close(self, timeout: float | None = None) -> None:
        """Signal end of input; idempotent.

        With a ``timeout``, a saturated input queue (e.g. every first-stage
        worker wedged on a pathological item) raises
        :class:`PipelineStoppedError` with a liveness report instead of
        blocking forever.
        """
        if self._closed:
            return
        self._closed = True
        self.start()
        for _ in range(self._runners[0].workers):
            try:
                self._input.put(_STOP, timeout=timeout)
            except queue.Full:
                raise PipelineStoppedError(
                    f"close() could not deliver stop sentinels within "
                    f"{timeout}s; stage liveness:\n"
                    + format_liveness(self.liveness_report())
                ) from None

    def join(self, timeout: float | None = None) -> None:
        """Wait for all workers to drain and exit.

        With a ``timeout`` (seconds, end to end), raises
        :class:`PipelineStoppedError` carrying a per-stage liveness report
        if any worker is still alive when it expires — the diagnosis a
        silently deadlocked pipeline used to withhold.
        """
        if timeout is None:
            for runner in self._runners:
                runner.join()
        else:
            deadline = time.perf_counter() + timeout
            for runner in self._runners:
                runner.join(deadline)
            stuck = [r.name for r in self._runners if r.alive() > 0]
            if stuck:
                raise PipelineStoppedError(
                    f"join() timed out after {timeout}s with live stages "
                    f"{stuck}; stage liveness:\n"
                    + format_liveness(self.liveness_report())
                )
        if self._log is not None:
            # Every worker has exited: the state is quiescent.
            self.backend.checkpoint_if_due()

    # -- observability ----------------------------------------------------

    def liveness_report(self) -> dict[str, dict[str, int]]:
        """Per-stage snapshot: thread counts, shutdown state, queue depth."""
        return {
            runner.name: {
                "workers": runner.workers,
                "alive": runner.alive(),
                "active": max(runner._active, 0),
                "queued": runner.in_queue.qsize(),
            }
            for runner in self._runners
        }

    @property
    def entities_processed(self) -> int:
        """Entities submitted so far (monitoring reads this)."""
        return self._entities_in

    @property
    def items_failed(self) -> int:
        return self.supervisor.items_failed

    @property
    def retries_performed(self) -> int:
        return self.supervisor.retries_performed

    @property
    def dead_letters(self) -> list[DeadLetter]:
        return list(self.supervisor.dead_letters)

    # -- one-shot convenience --------------------------------------------

    def run(
        self,
        entities: Iterable[EntityDescription],
        timeout: float | None = None,
    ) -> ParallelRunResult:
        """Process a finite input end to end and wait for completion.

        ``timeout`` bounds the shutdown (applied to both ``close`` and
        ``join``); a pipeline that cannot drain raises
        :class:`PipelineStoppedError` instead of hanging the caller.
        """
        start = time.perf_counter()
        for entity in entities:
            self.submit(entity)
        self.close(timeout=timeout)
        self.join(timeout=timeout)
        elapsed = time.perf_counter() - start
        result = ParallelRunResult(
            entities_processed=self._entities_in,
            matches=list(self._matches),
            elapsed_seconds=elapsed,
            latencies=list(self._latencies),
            items_failed=self.supervisor.items_failed,
            retries=self.supervisor.retries_performed,
            dead_letters=list(self.supervisor.dead_letters),
        )
        if self.checker is not None:
            # Workers have joined: stores are quiescent, and the ENTITIES
            # metric counted completions (entities in minus dead letters).
            self.checker.finalize(
                result,
                expected_entities=self._entities_in - result.items_failed,
                sequencer=self._sequencer,
            )
        return result
