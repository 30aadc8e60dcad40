"""Multiprocess execution: true CPU parallelism for the comparison tail.

CPython threads share the GIL, so the thread framework in
:mod:`repro.parallel.framework` demonstrates the architecture but cannot
speed up pure-Python compute.  This module is the complementary
executor, and it has exactly one dispatch path and one decision.

The state-bearing front (``f_dr → f_bb+bp → f_bg → f_cg``) always runs in
the parent — block building is inherently serial.  An entity's tail
(``f_cc → f_lm → f_co → f_cl``) then runs in one of two places:

**In a worker, via streamed dispatch.**  The entity's candidate list is
resolved at arrival time to rows of the backend's shared *profile*
column: the shm profile map keeps an eid → current-row map as
``f_bb+bp`` writes it, so that is one dict probe per partner.  The record
``[own_row, partner_row, ...]`` is appended, by value, to a pending
descriptor — a flat ``uint64`` array of rows plus one length per entity —
and every :data:`_DISPATCH_ENTITIES` entities the descriptor goes to the
pool's task queue while the parent keeps running the front for later
entities.  An idle worker takes the next descriptor: many small tasks on
one shared queue balance the load (the move of Kolb/Thor/Rahm's MapReduce
blocking) without a planner.  A worker compiles the plan's ``cc → lm →
co → cl`` tail per descriptor through :meth:`PipelinePlan.compile`, as
every executor compiles its plan — the same stage classes and the same
per-stage calls, against a worker backend whose profile store is a read
view over the profile column and, while the parent's registry is
enabled, a fresh registry of its own.  An entity's tail reads nothing
but its own record, so per-entity cleaning semantics hold however
entities are dealt.  At the end of the increment the parent merges the
results in dispatch order: the matches into its store (the sole owner of
*M*), the stage counters into its stage objects, and each descriptor's
registry state into its registry.

**In the parent, via the compiled plan's own per-stage callables** under
the supervisor — sequential semantics, no pool.  ``self.lm`` / ``self.cc``
are the plan's stage objects themselves, so the counters the workers
report are folded straight into them.

Which of the two is resolved *once*, at construction, against the three
configuration blockers (:attr:`MultiprocessERPipeline.partition_blockers`:
non-interned comparator, backend without a shared profile column,
classifier that may need more than token ids); an ineligible wiring never
spawns a pool.
Durable state is no blocker: a
:class:`~repro.core.backends.DurableBackend` over a
:class:`~repro.core.backends.SharedMemoryBackend` logs each run's input
in the parent before any entity of it runs, so the workers need no hook.
On an eligible wiring, an entity still runs in the parent when it has no
candidates (nothing to dispatch) or it or a partner has no interned token
ids (no row to hand a worker).

The pool is spawned on the first :meth:`MultiprocessERPipeline.run` and
reused by every later one (the streaming increments of dynamic ER), so
fork and shm attachment are paid once per pipeline.  ``close()`` (or the
context manager) releases the workers; a GC/exit finalizer covers the rest.

Results are identical to the sequential pipeline; the differential suite
asserts this for eligible wirings and for every blocker.  Robustness is
the thread framework's: every stage call, parent- or worker-side, runs
under a :class:`~repro.parallel.supervision.Supervisor` with the
pipeline's policy, fault specs are entity-keyed everywhere, and workers
report dead letters and retries back as data — one poison entity cannot
fail a descriptor's task.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import time
import weakref
from array import array
from types import SimpleNamespace
from typing import Callable, Iterable

from repro.classification.classifiers import OracleClassifier, ThresholdClassifier
from repro.comparison.kernel import InternedComparator
from repro.core.backends import StateBackend
from repro.core.backends.shm import SharedColumnReader, decode_profile_row
from repro.core.config import StreamERConfig, SupervisionPolicy
from repro.core.pipeline import ERResult, lifetime_counters
from repro.core.plan import PipelinePlan
from repro.core.stages import CandidateComparisons
from repro.core.state import MatchStore
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.observability.instrument import (
    ENTITIES,
    MATCHES,
    PARTITION_PAIRS,
    PARTITIONS_DISPATCHED,
    POOL_REUSES,
    POOL_SPAWNS,
    SHM_BYTES,
    SHM_ROWS,
    SHM_SEGMENTS,
    declare_partition_metrics,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer
from repro.parallel.faults import FaultInjector, FaultPlan, wrap_stages
from repro.parallel.supervision import Supervisor
from repro.types import DeadLetter, EntityDescription, Match, Profile

#: Classifier types known to decide from the scored pair's ids and
#: similarity alone — all a worker's profiles carry.  Exact-type checks: a
#: subclass may read tokens or attributes, or consult the match store.
_PARTITIONABLE_CLASSIFIERS = (ThresholdClassifier, OracleClassifier)

#: Bound on the worker-side row → profile cache.  Entities recur across
#: increments (that is the point of shared columns), so the hit rate is
#: high; the bound only guards pathological vocabularies.
_ROW_CACHE_LIMIT = 1 << 16

#: Entities per descriptor.  Small enough that the first descriptor
#: leaves while the parent is still running the front and the workers
#: share the tail evenly; large enough that per-task IPC stays negligible.
#: A sweep of 128/256/512 on ``mp_bulk_updates_20k`` (docs/performance.md)
#: picked this value.
_DISPATCH_ENTITIES = 256


class _RowProfiles:
    """The worker's profile store: a read view over the shared profile
    column, keyed by row.

    Inside one entity's record rows stand in for entity ids (an eid has
    exactly one current row at publish time: a bijection), which lets
    ``f_cc`` and ``f_lm`` run unmodified on row numbers.  The profiles
    carry the *decoded* entity id — injectors, dead letters, the classifier
    and the matches all see real ids — and the token ids, nothing else:
    the sorted id tuple off the row, the stored form the parent's profile
    map holds (a cached ``frozenset`` per row costs ~6 % peak RSS).  The
    kernel makes a set of the arriving entity's ids once per call, which
    is all its ``a.intersection(b)`` needs.
    """

    def __init__(self, column: SharedColumnReader) -> None:
        self.column = column
        self._cache: dict[int, Profile] = {}

    def get(self, row: int) -> Profile:
        profile = self._cache.get(row)
        if profile is None:
            eid, token_ids = decode_profile_row(self.column.record(row))
            profile = Profile(eid=eid, attributes=(), tokens=(), token_ids=token_ids)
            if len(self._cache) >= _ROW_CACHE_LIMIT:
                self._cache.clear()
            self._cache[row] = profile
        return profile


class _Worker:
    """One pool worker's state: the profile column's reader, the plan's
    tail, the tail's fault injectors and the supervision policy."""

    def __init__(
        self,
        tail: PipelinePlan,
        faults: FaultPlan,
        policy: SupervisionPolicy,
        layout: str,
        timed: bool,
    ) -> None:
        # Attach to the parent's profile column exactly once, here; every
        # descriptor afterwards carries row numbers, not data.
        self.profiles = _RowProfiles(SharedColumnReader(layout))
        self.tail = tail
        self.timed = timed
        #: The ordinary entity-keyed injectors (hash-keyed verdicts agree
        #: however descriptors are dealt), built over placeholders.  Like
        #: the parent's they live as long as the worker — their attempt
        #: counts are per entity — and each descriptor's compile binds them
        #: to its fresh stage calls.
        self.injectors = wrap_stages(dict.fromkeys(tail.stage_names()), faults)
        self.policy = policy

    def close(self) -> None:
        self.profiles.column.close()


#: Installed once per worker process by the pool initializer — never
#: lazily: ``fork`` inherits module globals, so state built on first use
#: by an in-process caller would leak into every later pool.
_worker: _Worker | None = None


def _init_worker(*args) -> None:
    global _worker
    _worker = _Worker(*args)


def _run_partition(
    rows: array, lengths: array
) -> tuple[list[Match], list[tuple[int, DeadLetter]], dict, dict, list]:
    """Run the plan's tail over one descriptor, inside a worker.

    The descriptor is ``rows``, the entities' records laid end to end, and
    ``lengths``, each record's length.  A record is ``[own_row,
    partner_row, ...]`` — one entity's candidate list with multiplicity:
    ``f_cg``'s output message with profile rows for ids.  It flows through
    the tail's stage calls, each under a :class:`Supervisor` with the
    pipeline's policy, so failures travel back as data.  Returns
    ``(matches, dead_letters, retries, counters, state)``: what ``f_cl``
    emitted, the supervisor's dead letters — each paired with the index of
    its entity's record in ``lengths`` — and per-stage retry counts, the
    descriptor's stage counters, and its registry's
    :meth:`~repro.observability.MetricsRegistry.state` (empty unless the
    parent's registry is enabled) without ``er_matches_total``, which the
    parent counts where a match enters its store: a re-arrived pair is new
    to the scratch store, not to *M*.
    """
    worker = _worker
    assert worker is not None, "worker not initialized"
    # The tail compiled afresh, as every executor compiles its plan: stage
    # counters and the registry start at zero, and f_cl records into a
    # scratch match store (the parent's store has the last word).
    compiled = worker.tail.compile(
        SimpleNamespace(profiles=worker.profiles, matches=MatchStore()),
        registry=MetricsRegistry() if worker.timed else NULL_REGISTRY,
    )
    fns = compiled.stage_functions()
    for name, injector in worker.injectors.items():
        injector.fn, fns[name] = fns[name], injector
    supervisor = Supervisor(worker.policy)
    matches: list[Match] = []
    failed: list[int] = []
    end = 0
    for slot, length in enumerate(lengths):
        start, end = end, end + length
        message: object = CandidateComparisons(
            profile=worker.profiles.get(rows[start]),
            candidates=rows[start + 1 : end].tolist(),
        )
        for name, fn in fns.items():
            ok, message = supervisor.execute(name, fn, message)
            if not ok:
                failed.append(slot)
                break
        else:
            matches.extend(message)  # type: ignore[arg-type]
    cc, lm, co = (compiled.get(name) for name in ("cc", "lm", "co"))
    counters = {
        "retained": cc.retained if cc is not None else 0,
        "materialized": lm.materialized,
        "compared": co.compared,
        "prefiltered": co.prefiltered,
    }
    state = [row for row in compiled.registry.state() if row[0] != MATCHES]
    return (
        matches,
        list(zip(failed, supervisor.dead_letters)),
        supervisor.retries_by_stage,
        counters,
        state,
    )


def _terminate_pool(pool) -> None:
    """Finalizer hook: module-level so ``weakref.finalize`` stays cycle-free."""
    pool.terminate()
    pool.join()


class MultiprocessERPipeline:
    """Stream ER with each entity's ``cc → lm → co → cl`` tail on a process
    pool when the wiring is eligible, in the parent when it is not.

    Parameters
    ----------
    config:
        The usual stream-ER configuration (it reaches the workers once,
        inside the plan, at pool start).
    workers:
        Number of worker processes (≥ 1).
    supervision:
        Retry/dead-letter policy, applied to every stage call wherever it
        runs: a stage that keeps failing dead-letters the *entity* at that
        stage, in the parent and in a worker alike, so one fault plan and
        one policy give one dead-letter set under every executor.
    faults:
        Optional fault-injection plan, entity-keyed.  Every spec wraps the
        parent-side stage callable (:attr:`fault_injectors`); under
        partitioned dispatch the tail stages' specs also go to the workers,
        which wrap their own stage objects the same way (so a ``corrupt``
        callable must be picklable on platforms without ``fork``).
    backend:
        Where the parent-side ER state lives (default: a fresh in-memory
        backend, which is not eligible for partitioned dispatch; pass a
        :class:`~repro.core.backends.shm.SharedMemoryBackend`, bare or
        inside a :class:`~repro.core.backends.DurableBackend`).  On a
        durable backend each :meth:`run` is logged whole before its first
        entity runs, and its dead letters are logged at its end.
    registry:
        An optional :class:`~repro.observability.MetricsRegistry`.  Every
        stage call records metrics through the compiled plan's per-stage
        callables, as in every executor: a worker compiles its tail with
        a registry of its own while this one is enabled and returns its
        state, which is merged here (``er_matches_total`` excepted: it is
        counted where a match enters this pipeline's store).
    tracer:
        An optional :class:`~repro.observability.Tracer`; sampled entities
        get spans for every stage the parent runs (worker-side stages
        resolve entity-mixed partitions: no per-entity span).
    checker:
        Optional :class:`~repro.invariants.InvariantChecker`.  Stage calls
        run under the supervisor (which would turn a raise into a dead
        letter), so stage-scope checks record only; state- and run-scope
        invariants run at the end of :meth:`run`, where a raise-mode
        checker raises.
    partitioned:
        ``"auto"`` (default) uses partitioned dispatch when the wiring is
        eligible and otherwise runs every tail in the parent, recording
        why on :attr:`partition_blockers`.  ``True`` raises
        :class:`~repro.errors.ConfigurationError` naming the blockers
        instead of falling back.

    After a run, ``pairs_prefiltered`` and ``pairs_dispatched`` are the sums
    of the workers' ``co.prefiltered`` and ``co.compared - co.prefiltered``.
    The accounting identity, for both sides of the decision at once:
    ``lm.materialized == pairs_dispatched + pairs_prefiltered +
    co.compared`` (the parent's ``co``) — exact on a fault-free run, and
    otherwise exact after subtracting the materialized pairs of entities
    dead-lettered at ``co`` (``lm`` counted them, ``co`` never finished
    them).  ``pool_spawns`` / ``pool_reuses`` count pool creations vs. runs
    that reused a live pool (both 0 on an ineligible wiring).
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        workers: int = 2,
        supervision: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
        backend: StateBackend | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        checker: InvariantChecker | None = None,
        partitioned: bool | str = "auto",
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if partitioned is not True and partitioned != "auto":
            raise ConfigurationError(
                f"partitioned must be True or 'auto', got {partitioned!r}"
            )
        self.plan = PipelinePlan.from_config(config)
        self.config = self.plan.config
        self.workers = workers
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        self.supervisor = Supervisor(supervision, registry=self.registry)
        self.checker = checker if (checker is not None and checker.enabled) else None
        if self.checker is not None:
            self.checker.concurrent = True  # defer raises to finalize()
        self.compiled = self.plan.compile(
            backend, registry=self.registry, checker=self.checker
        )
        self.backend = self.compiled.backend
        # A durable backend's log call, resolved once: None on the plain
        # hot path.
        self._log = getattr(self.backend, "log_input", None)
        self.entities_processed = 0
        self._trace_seq = 0
        # The stage objects (optional nodes the plan dropped are None);
        # worker counters are folded straight into them.
        self.dr = self.compiled.get("dr")
        self.bb = self.compiled.get("bb+bp")
        self.bg = self.compiled.get("bg")
        self.cg = self.compiled.get("cg")
        self.cc = self.compiled.get("cc")
        self.lm = self.compiled.get("lm")
        self.co = self.compiled.get("co")
        self.cl = self.compiled.get("cl")
        self._fns: dict[str, Callable] = self.compiled.stage_functions()
        names = self.plan.stage_names()
        split = names.index("cg") + 1
        self._front, self._tail = names[:split], names[split:]
        self.pairs_prefiltered = 0
        self.pairs_dispatched = 0
        self.pool_spawns = 0
        self.pool_reuses = 0
        self._pool = None
        self._pool_finalizer: weakref.finalize | None = None

        faults = dict(faults or {})
        self._blockers = self._find_blockers()
        if self._blockers and partitioned is True:
            raise ConfigurationError(
                "partitioned dispatch unavailable: " + "; ".join(self._blockers)
            )
        self.partitioned_dispatch = not self._blockers
        if self.partitioned_dispatch:
            self._rows = self.backend.profiles.rows
            self._ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            self._pool_initargs = (
                dataclasses.replace(self.plan, specs=self.plan.specs[split:]),
                {name: faults[name] for name in self._tail if name in faults},
                self.supervisor.policy,
                self.backend.layout(),
                self.registry.enabled,
            )
            declare_partition_metrics(self.registry)
        #: Parent-side injectors only; workers build their own.
        self.fault_injectors: dict[str, FaultInjector] = wrap_stages(self._fns, faults)

    def _find_blockers(self) -> tuple[str, ...]:
        """Why this wiring cannot use partitioned dispatch (empty: it can)."""
        blockers: list[str] = []
        if type(self.config.comparator) is not InternedComparator:
            blockers.append(
                "comparator is not the interned kernel (workers score id rows)"
            )
        if not hasattr(self.backend, "layout"):
            blockers.append("backend does not publish shared-memory columns")
        if type(self.config.classifier) not in _PARTITIONABLE_CLASSIFIERS:
            blockers.append(
                "classifier may be stateful or read attributes (not an exact "
                "threshold/oracle classifier; workers hold token ids only)"
            )
        return tuple(blockers)

    @property
    def partition_blockers(self) -> tuple[str, ...]:
        """The configuration blockers that keep every tail in the parent
        (empty exactly when :attr:`partitioned_dispatch` is true)."""
        return self._blockers

    @property
    def items_failed(self) -> int:
        return self.supervisor.items_failed

    @property
    def retries_performed(self) -> int:
        return self.supervisor.retries_performed

    # -- pool lifecycle ------------------------------------------------

    def _acquire_pool(self):
        """The live worker pool, spawning one on first use (or after close)."""
        if self._pool is not None:
            self.pool_reuses += 1
            if self.registry.enabled:
                self.registry.counter(POOL_REUSES).inc()
            return self._pool
        self._pool = self._ctx.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=self._pool_initargs,
        )
        self.pool_spawns += 1
        if self.registry.enabled:
            self.registry.counter(POOL_SPAWNS).inc()
        # GC / interpreter exit must not strand worker processes; detach()d
        # by the graceful shutdown paths.
        self._pool_finalizer = weakref.finalize(self, _terminate_pool, self._pool)
        return self._pool

    def _release_pool(self, graceful: bool) -> None:
        """Let workers finish and exit (``graceful``), or drop their tasks."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self._pool_finalizer.detach()  # type: ignore[union-attr]
        self._pool_finalizer = None
        if graceful:
            pool.close()
        else:
            pool.terminate()
        pool.join()

    def close(self) -> None:
        """Release the worker pool.  The backend is caller-owned and *not*
        touched (unlink a shm backend via its own lifecycle)."""
        self._release_pool(graceful=True)

    def __enter__(self) -> "MultiprocessERPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the run loop --------------------------------------------------

    def run(self, entities: Iterable[EntityDescription]) -> ERResult:
        """Process one finite input (an increment) end to end.

        Every entity runs ``dr``..``cg`` in the parent under the
        supervisor (a poison entity is dead-lettered at the stage that
        rejected it and the stream keeps flowing), then takes the one
        decision: publish its tail to the workers, or run it inline.
        Published tails leave in descriptors of :data:`_DISPATCH_ENTITIES`
        while the front keeps running; their results are merged at the end.
        """
        start = time.perf_counter()
        log = self._log
        if log is not None:
            entities = list(entities)
            base = log(entities)
        counters_before = lifetime_counters(self)
        matches: list[Match] = []
        count_in = 0
        metrics_on = self.registry.enabled
        if metrics_on:
            entities_metric = self.registry.counter(ENTITIES)
        tracer = self.tracer
        # The pending descriptor (see _run_partition) and the indices in
        # this run of the entities it holds.
        rows, lengths, slots = array("Q"), array("I"), array("Q")
        # (AsyncResult, slots) per descriptor, in dispatch order.
        dispatched: list[tuple] = []
        failed: list[int] = []  # indices of the entities dead-lettered here
        worker_failed: list[tuple[int, DeadLetter]] = []
        pool = self._acquire_pool() if self.partitioned_dispatch else None
        try:
            for entity in entities:
                count_in += 1
                self.entities_processed += 1
                if metrics_on:
                    entities_metric.inc()
                trace = None
                if tracer is not None:
                    trace = tracer.start(self._trace_seq, entity.eid)
                    self._trace_seq += 1
                message: object = entity
                for name in self._front:
                    ok, message = self._step(name, message, trace)
                    if not ok:
                        failed.append(count_in - 1)
                        break
                else:
                    if pool is not None and self._publish(message, rows, lengths):
                        slots.append(count_in - 1)
                        if len(slots) >= _DISPATCH_ENTITIES:
                            dispatched.append(
                                (pool.apply_async(_run_partition, (rows, lengths)), slots)
                            )
                            rows, lengths, slots = array("Q"), array("I"), array("Q")
                        if trace is not None:
                            trace.complete()
                    else:
                        tail = self._run_inline_tail(message, trace)
                        if tail is None:
                            failed.append(count_in - 1)
                        else:
                            matches.extend(tail)
            if pool is not None:
                if slots:
                    dispatched.append((pool.apply_async(_run_partition, (rows, lengths)), slots))
                worker_failed = self._merge(dispatched, matches)
        except BaseException:
            # A mid-run failure can leave tasks queued on the pool; a
            # reused pool would interleave their late results into the
            # next run, so discard the workers and respawn on next use.
            self._release_pool(graceful=False)
            raise
        # This run's increment, like StreamERPipeline.process_many.
        counters = lifetime_counters(self)
        letters = self.supervisor.dead_letters[counters_before["items_failed"] :]
        if log is not None:
            # The parent's letters were recorded before the workers' were
            # absorbed, one per failed index.
            for index, letter in [*zip(failed, letters), *worker_failed]:
                self.backend.log_dead_letter(base + index, letter.entity_id, letter.stage)
            self.backend.checkpoint_if_due()
        result = ERResult(
            entities_processed=count_in,
            matches=matches,
            elapsed_seconds=time.perf_counter() - start,
            dead_letters=letters,
            **{name: counters[name] - counters_before[name] for name in counters},
        )
        if self.checker is not None:
            # ENTITIES counts admissions over the pipeline's lifetime.
            self.checker.finalize(result, expected_entities=self.entities_processed)
        return result

    def _step(self, name: str, message: object, trace) -> tuple[bool, object]:
        """One supervised parent-side stage call, with its trace span."""
        if trace is not None:
            trace.record_start(name)
        ok, out = self.supervisor.execute(name, self._fns[name], message)
        if trace is not None:
            (trace.record_finish if ok else trace.dead_letter)(name)
        return ok, out

    def _run_inline_tail(self, generated, trace=None) -> list[Match] | None:
        """cc → lm → co → cl in the parent for one entity; None when the
        entity was dead-lettered.

        Runs the real compiled stages under the supervisor, so counters,
        instrumentation, fault specs and dead-lettering behave exactly as
        in the sequential pipeline.
        """
        message: object = generated
        for name in self._tail:
            ok, message = self._step(name, message, trace)
            if not ok:
                return None
        if trace is not None:
            trace.complete()
        return message  # type: ignore[return-value]

    # -- partitioned dispatch ------------------------------------------

    def _publish(self, generated, rows: array, lengths: array) -> bool:
        """Append one entity's record ``[own_row, partner_row, ...]`` to the
        pending descriptor; False when it has no candidates or cannot ride
        the profile column (the caller then runs the tail inline).

        The candidate list is resolved to profile rows *at arrival time*,
        exactly when the sequential pipeline would materialize the
        partners — so a partner that re-arrives later in the increment with
        changed tokens is compared as it was when this entity arrived.  An
        eid missing from the row map has no interned ids, and ``cc`` counts
        per entity, so the whole entity goes inline.
        """
        candidates = generated.candidates
        if not candidates:
            return False
        row_of = self._rows
        mark = len(rows)
        try:
            rows.append(row_of[generated.profile.eid])
            rows.extend(map(row_of.__getitem__, candidates))
        except KeyError:
            del rows[mark:]
            return False
        lengths.append(len(rows) - mark)
        if self.registry.enabled:
            self.registry.counter(PARTITION_PAIRS).inc(len(candidates))
        return True

    def _merge(self, dispatched: list, matches: list[Match]) -> list[tuple[int, DeadLetter]]:
        """Fold the workers' results into this pipeline, in dispatch order,
        and their new matches into ``matches``; returns the workers' dead
        letters, each with its entity's index in the run."""
        metrics_on = self.registry.enabled
        registry = self.registry
        if metrics_on:
            matches_metric = registry.counter(MATCHES)
            registry.counter(PARTITIONS_DISPATCHED).inc(len(dispatched))
        match_store = self.backend.matches
        lm, cc = self.lm, self.cc
        failed: list[tuple[int, DeadLetter]] = []
        for result, slots in dispatched:
            found, dead_letters, retries, counters, state = result.get()
            registry.merge(state)
            self.supervisor.absorb([letter for _, letter in dead_letters], retries)
            failed.extend((slots[slot], letter) for slot, letter in dead_letters)
            # Fold the workers' stage counters into the canonical ones —
            # except co.compared: each side of the decision stays accountable.
            self.pairs_dispatched += counters["compared"] - counters["prefiltered"]
            self.pairs_prefiltered += counters["prefiltered"]
            lm.materialized += counters["materialized"]
            if cc is not None:
                cc.retained += counters["retained"]
            for match in found:
                if match_store.add(match):
                    matches.append(match)
                    if metrics_on:
                        matches_metric.inc()
        if metrics_on:
            backend = self.backend
            registry.gauge(SHM_BYTES).set(backend.shm_bytes())
            registry.gauge(SHM_SEGMENTS).set(len(backend.segment_names()))
            registry.gauge(SHM_ROWS).set(len(backend.profiles.column))
        return failed
