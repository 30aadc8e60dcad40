"""Multiprocess execution: true CPU parallelism for the comparison tail.

CPython threads share the GIL, so the thread framework in
:mod:`repro.parallel.framework` demonstrates the architecture but cannot
speed up pure-Python compute.  This module is the complementary
executor, and it has exactly one dispatch path and one decision.

The state-bearing front (``f_dr → f_bb+bp → f_bg → f_cg``) always runs in
the parent — block building is inherently serial.  An entity's tail
(``f_cc → f_lm → f_co → f_cl``) then runs in one of two places:

**In a worker, via block-partitioned dispatch.**  The entity's candidate
list is published once to the backend's shared *membership* column (in
token-column rows, resolved at arrival time), entities are grouped by
their smallest blocking key, and at the end of the increment the groups
are bin-packed onto the workers by comparison count
(:func:`~repro.parallel.allocation.plan_partitions` — the load-balancing
move of Kolb/Thor/Rahm's MapReduce sorted-neighborhood blocking).  Each
worker receives one descriptor per increment — a flat ``uint64`` array of
membership rows — and performs the I-WNP cleaning count filter, the
length prefilter, kernel scoring *and* the ``f_cl`` decision locally
against the shared columns.  The parent only merges matches (the match
store de-duplicates) and heals failures.  Keys never span workers, so
the per-entity cleaning semantics are preserved exactly.

**In the parent, via the compiled plan's own stages** under the
supervisor — sequential semantics, no pool.

Which of the two is resolved *once*, at construction, against the
configuration blockers listed on :attr:`MultiprocessERPipeline.
partition_blockers` (non-interned comparator, backend without shared
columns, stateful classifier, durable per-entity commit hook, fault
specs on ``cc``/``lm``/``cl``); an ineligible wiring never spawns a pool.
On an eligible wiring, an individual entity still falls back to the
parent when it or a partner has no interned token ids (no shared-column
row to hand a worker).

The pool is spawned on the first :meth:`MultiprocessERPipeline.run` and
reused by every later one (the streaming increments of dynamic ER), so
fork cost and worker shm attachment are paid once per pipeline.  Call
:meth:`~MultiprocessERPipeline.close` (or use the pipeline as a context
manager) to release the workers; a GC/exit finalizer covers the rest.

Results are identical to the sequential pipeline; the differential suite
asserts this for eligible wirings and for every blocker.  Robustness
mirrors the thread framework: every parent-side stage call runs under a
:class:`~repro.parallel.supervision.Supervisor`, and workers guard every
pair individually and report failures back as data (see ``supervision``
and ``faults`` on :class:`MultiprocessERPipeline`).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import weakref
from array import array
from typing import Callable, Iterable

from repro.classification.classifiers import OracleClassifier, ThresholdClassifier
from repro.comparison.kernel import (
    InternedComparator,
    intersect_size,
    similarity_from_intersection,
)
from repro.core.backends import StateBackend
from repro.core.backends.shm import (
    SharedColumnReader,
    SharedMemoryBackend,
    decode_membership,
    decode_packed,
)
from repro.core.config import StreamERConfig, SupervisionPolicy
from repro.core.pipeline import ERResult
from repro.core.plan import PipelinePlan
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.observability.instrument import (
    COMPARISONS_EXECUTED,
    ENTITIES,
    MATCHES,
    PARTITION_GROUPS,
    PARTITION_IMBALANCE,
    PARTITION_LARGEST_SHARE,
    PARTITION_PAIRS,
    PARTITIONS_DISPATCHED,
    POOL_REUSES,
    POOL_SPAWNS,
    SHM_BYTES,
    SHM_ROWS,
    SHM_SEGMENTS,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    declare_partition_metrics,
)
from repro.parallel.allocation import plan_partitions
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.observability.trace import Tracer
from repro.parallel.faults import FaultInjector, FaultPlan, FaultSpec
from repro.parallel.supervision import Supervisor
from repro.types import (
    Comparison,
    EntityDescription,
    EntityId,
    Match,
    ScoredComparison,
    pair_key,
)

#: Classifier types whose decision is a pure function of the scored pair —
#: what a worker can decide without the match store.  Exact-type checks:
#: a subclass may consult state the workers lack.
_PARTITIONABLE_CLASSIFIERS = (ThresholdClassifier, OracleClassifier)

#: The stages whose semantics move into the workers under partitioned
#: dispatch; ``co`` is the fourth, and the one the workers exist for.
_WORKER_SIDE_STAGES = ("cc", "lm", "cl")


# Worker-process state, installed once per worker by the pool initializer.
_worker_comparator = None
_worker_classifier = None
_worker_scorer: Callable | None = None
_worker_tokens: SharedColumnReader | None = None
_worker_membership: SharedColumnReader | None = None
_worker_entities: SharedColumnReader | None = None
_worker_row_cache: dict = {}
_worker_eid_cache: dict = {}
_worker_cc_enabled: bool = True
_worker_prefilter: bool = False

#: Bound on the worker-side row → decoded-array cache.  Entities recur
#: across increments (that is the point of shared columns), so the hit
#: rate is high; the bound only guards pathological vocabularies.
_ROW_CACHE_LIMIT = 1 << 16


def _score_id_pair(item: tuple) -> float:
    # item = (eid_i, eid_j, ids_i, ids_j); the entity ids ride along only
    # so the fault injector can key its decision by the canonical pair.
    a, b = item[2], item[3]
    return similarity_from_intersection(
        _worker_comparator.measure, intersect_size(a, b), len(a), len(b)  # type: ignore[union-attr]
    )


def _worker_row_ids(row: int) -> array:
    """Decode (and cache) the packed id array behind a shared-column row."""
    ids = _worker_row_cache.get(row)
    if ids is None:
        ids = decode_packed(_worker_tokens.record(row))  # type: ignore[union-attr]
        if len(_worker_row_cache) >= _ROW_CACHE_LIMIT:
            _worker_row_cache.clear()
        _worker_row_cache[row] = ids
    return ids


def _worker_row_eid(row: int):
    """Decode (and cache) the entity id behind a shared-column row."""
    eid = _worker_eid_cache.get(row)
    if eid is None:
        eid = pickle.loads(bytes(_worker_entities.record(row)))  # type: ignore[union-attr]
        if len(_worker_eid_cache) >= _ROW_CACHE_LIMIT:
            _worker_eid_cache.clear()
        _worker_eid_cache[row] = eid
    return eid


def _init_worker(
    comparator: InternedComparator,
    fault_spec: FaultSpec | None,
    shm_layout: dict,
    cc_enabled: bool,
    prefilter: bool,
    classifier: ThresholdClassifier | OracleClassifier,
) -> None:
    global _worker_comparator, _worker_classifier, _worker_scorer
    global _worker_tokens, _worker_membership, _worker_entities
    global _worker_row_cache, _worker_eid_cache
    global _worker_cc_enabled, _worker_prefilter
    _worker_comparator = comparator
    _worker_classifier = classifier
    # Attach to the parent's shared columns exactly once, here; every
    # descriptor afterwards carries row numbers, not data.
    _worker_tokens = SharedColumnReader(shm_layout["tokens"])
    _worker_membership = SharedColumnReader(shm_layout["membership"])
    _worker_entities = SharedColumnReader(shm_layout["entities"])
    _worker_row_cache = {}
    _worker_eid_cache = {}
    _worker_cc_enabled = cc_enabled
    _worker_prefilter = prefilter
    if fault_spec is None:
        _worker_scorer = _score_id_pair
    else:
        # Built inside the worker, so the lambda never crosses the process
        # boundary; decisions hash the canonical pair key, hence agree in
        # every worker however partitions are distributed.
        _worker_scorer = FaultInjector(
            _score_id_pair,
            fault_spec,
            stage="co",
            key_fn=lambda item: pair_key(item[0], item[1]),
        )


def _score_partition(rows: array) -> tuple[list, list, dict]:
    """Resolve one partition descriptor entirely inside a worker.

    The descriptor is a flat ``uint64`` array of membership rows.  Each row
    decodes to ``[own_row, partner_row, ...]`` — one entity's candidate
    list with multiplicity, in shared token-column rows.  The worker then
    replays the sequential tail for that entity: the I-WNP count filter
    (partner kept when its block co-occurrence count is at least the
    average — or plain dedup when cleaning is disabled), the kernel
    length prefilter, scoring, threshold verification, and the ``f_cl``
    decision.  Returns ``(matches, failures, stats)``: matched triples
    ``(left, right, score)``, failed triples ``(left, right, error)`` —
    every pair is guarded individually, so failures travel back as data
    and one poison pair cannot tear down ``pool.imap`` — and the
    cleaned/prefiltered counts the parent folds into its accounting.
    Row ↔ entity-id maps are bijective within one record (every eid
    resolves to exactly one current row at publish time), so counting by
    row is counting by partner.
    """
    scorer = _worker_scorer
    assert scorer is not None, "worker not initialized"
    thr = _worker_comparator.threshold  # type: ignore[union-attr]
    classifier = _worker_classifier
    truth = classifier.truth if type(classifier) is OracleClassifier else None
    cl_thr = classifier.threshold if truth is None else None
    prefilter = _worker_prefilter
    bound = _worker_comparator.bound if prefilter else None  # type: ignore[union-attr]
    matches: list[tuple] = []
    failures: list[tuple] = []
    cleaned = 0
    prefiltered = 0
    for membership_row in rows:
        record = decode_membership(
            _worker_membership.record(membership_row)  # type: ignore[union-attr]
        )
        own = int(record[0])
        counts: dict[int, int] = {}
        get = counts.get
        for partner_row in record[1:]:
            partner = int(partner_row)
            counts[partner] = get(partner, 0) + 1
        if not counts:
            continue
        if _worker_cc_enabled:
            avg = (len(record) - 1) / len(counts)
            survivors = [row for row, count in counts.items() if count >= avg]
        else:
            survivors = list(counts)
        cleaned += len(survivors)
        a = _worker_row_ids(own)
        la = len(a)
        left = _worker_row_eid(own)
        for row in survivors:
            b = _worker_row_ids(row)
            lb = len(b)
            if prefilter:
                # Exactly one empty side scores identically 0, below any
                # positive threshold — droppable.  Both-empty pairs must
                # still be scored: jaccard on two empty sets is 1.0,
                # which can classify as a match.
                if (la == 0) != (lb == 0):
                    prefiltered += 1
                    continue
                if la and bound(la, lb) < thr:  # type: ignore[misc]
                    prefiltered += 1
                    continue
            right = _worker_row_eid(row)
            try:
                score = scorer((left, right, a, b))
            except Exception as exc:
                failures.append((left, right, repr(exc)))
                continue
            if thr is not None and score < thr:
                continue  # kernel-verified non-match
            if truth is not None:
                if pair_key(left, right) in truth:
                    matches.append((left, right, score))
            elif score >= cl_thr:  # type: ignore[operator]
                matches.append((left, right, score))
    return matches, failures, {"cleaned": cleaned, "prefiltered": prefiltered}


def _terminate_pool(pool) -> None:
    """Finalizer hook: module-level so ``weakref.finalize`` stays cycle-free."""
    pool.terminate()
    pool.join()


def _unwrap(stage):
    """The bare stage object behind Instrumented/Checked decorators.

    The wrappers use ``__slots__`` with read-only delegation, so stats the
    partitioned path maintains on the workers' behalf (``cc.retained``,
    ``lm.materialized``) must be written to the innermost object.
    """
    inner = stage
    while True:
        next_inner = getattr(inner, "inner", None)
        if next_inner is None:
            return inner
        inner = next_inner


class MultiprocessERPipeline:
    """Stream ER with each entity's ``cc → lm → co → cl`` tail on a process
    pool when the wiring is eligible, in the parent when it is not.

    Parameters
    ----------
    config:
        The usual stream-ER configuration (the comparator is shipped to
        the workers once, at pool start).
    workers:
        Number of worker processes (≥ 1).
    supervision:
        Retry/dead-letter policy.  Parent-side stage failures dead-letter
        the entity; worker-side scoring failures are retried *in the
        parent* (with the parent's uninjected comparator) and then
        dead-letter the pair.
    faults:
        Optional fault-injection plan.  Under partitioned dispatch a spec
        for ``"co"`` is shipped to the workers (it must stay picklable)
        and keyed by the canonical pair key, so the same seeded faults hit
        the same pairs however partitions are distributed; every other
        spec — and ``"co"`` too on an ineligible wiring — wraps the
        parent-side stage callable.
    backend:
        Where the parent-side ER state lives (default: a fresh in-memory
        backend, which is not eligible for partitioned dispatch; pass a
        :class:`~repro.core.backends.shm.SharedMemoryBackend`).
    plan:
        A pre-built :class:`~repro.core.plan.PipelinePlan` to compile; by
        default one is derived from ``config``.
    registry:
        An optional :class:`~repro.observability.MetricsRegistry`.  Stages
        the parent runs are instrumented like everywhere else; worker-side
        scoring is observed from the parent (per-partition turnaround into
        ``er_stage_service_seconds{stage="co"}``).
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

    After a run, ``pairs_prefiltered`` counts the comparisons the workers
    dropped by the length prefilter and ``pairs_dispatched`` those they
    scored; with the parent-side ``co.compared`` they always sum to the
    after-cleaning count ``lm.materialized``.  ``pool_spawns`` /
    ``pool_reuses`` count pool creations vs. runs that reused a live pool
    (both stay 0 on an ineligible wiring); ``last_partition_plan`` holds
    the most recent :class:`~repro.parallel.allocation.PartitionPlan`.
    """

    def __init__(
        self,
        config: StreamERConfig | None = None,
        workers: int = 2,
        supervision: SupervisionPolicy | None = None,
        faults: FaultPlan | None = None,
        backend: StateBackend | None = None,
        plan: PipelinePlan | None = None,
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
        self.plan = plan if plan is not None else PipelinePlan.from_config(config)
        self.config = self.plan.config
        self.workers = workers
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.tracer = tracer
        self.supervisor = Supervisor(supervision, registry=self.registry)
        self.checker = checker if (checker is not None and checker.enabled) else None
        if self.checker is not None:
            self.checker.concurrent = True  # defer raises to finalize()
            self.checker.exempt_provider = lambda: {
                d.entity_id for d in self.supervisor.dead_letters
            }
        self.compiled = self.plan.compile(
            backend, registry=self.registry, checker=self.checker
        )
        self.backend = self.compiled.backend
        self.entities_processed = 0
        self._trace_seq = 0
        # Optional nodes the plan dropped are simply absent.
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
        self.last_partition_plan = None
        self._pool = None
        self._pool_finalizer: weakref.finalize | None = None

        faults = dict(faults) if faults else {}
        unknown = [name for name in faults if name not in self._fns]
        if unknown:
            raise ConfigurationError(f"fault plan names unknown stages {unknown}")
        self._blockers = self._find_blockers(faults)
        if self._blockers and partitioned is True:
            raise ConfigurationError(
                "partitioned dispatch unavailable: " + "; ".join(self._blockers)
            )
        self.partitioned_dispatch = not self._blockers
        if self.partitioned_dispatch:
            self._init_partitioned(faults.pop("co", None))
        self.fault_injectors: dict[str, FaultInjector] = {}
        for name, spec in faults.items():
            injector = FaultInjector(self._fns[name], spec, stage=name)
            self._fns[name] = injector
            self.fault_injectors[name] = injector

    def _find_blockers(self, faults: dict) -> tuple[str, ...]:
        """Why this wiring cannot use partitioned dispatch (empty: it can)."""
        blockers: list[str] = []
        if type(self.config.comparator) is not InternedComparator:
            blockers.append(
                "comparator is not the interned kernel (workers score "
                "packed token-id rows)"
            )
        if SharedMemoryBackend.PARTITION_COLUMNS not in self.compiled.capabilities:
            blockers.append("backend does not publish shared-memory columns")
        if type(self.config.classifier) not in _PARTITIONABLE_CLASSIFIERS:
            blockers.append(
                "classifier is stateful (not an exact threshold/oracle "
                "classifier)"
            )
        if hasattr(self.backend, "commit_entity"):
            # A durable backend commits per entity through the cl stage
            # wrapper; worker-side cl would bypass it and the WAL would
            # silently miss matches.
            blockers.append("durable backends commit per-entity through cl")
        moved = [name for name in faults if name in _WORKER_SIDE_STAGES]
        if moved:
            blockers.append(
                f"fault specs on {moved} target stages that run worker-side "
                "under partitioned dispatch"
            )
        return tuple(blockers)

    def _init_partitioned(self, worker_fault_spec: FaultSpec | None) -> None:
        comparator = self.config.comparator
        self._token_store = self.backend.token_store
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._pool_initargs = (
            comparator,
            worker_fault_spec,
            self.backend.layout(),
            self.cc is not None and bool(_unwrap(self.cc).enabled),
            bool(comparator.prefilter and (comparator.threshold or 0.0) > 0.0),
            self.config.classifier,
        )
        declare_partition_metrics(self.registry)

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
        """Let workers finish queued tasks and exit (``graceful``), or drop
        in-flight tasks after a failed run."""
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
        """Release the worker pool.  The backend is caller-owned state and
        is *not* touched (a shm backend keeps serving other executors or a
        later pipeline; unlink it via its own lifecycle)."""
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
        Published tails are planned, dispatched and merged once, after
        the last entity of the increment.
        """
        start = time.perf_counter()
        matches: list[Match] = []
        count_in = 0
        metrics_on = self.registry.enabled
        if metrics_on:
            entities_metric = self.registry.counter(ENTITIES)
        tracer = self.tracer
        #: blocking key → membership rows / summed comparison count.
        groups: dict[str, array] = {}
        group_costs: dict[str, int] = {}
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
                    blocked = message  # after the loop: cg's input
                    ok, message = self._step(name, message, trace)
                    if not ok:
                        break
                else:
                    if pool is not None and self._publish(
                        blocked, message, groups, group_costs
                    ):
                        if trace is not None:
                            trace.complete()
                    else:
                        matches.extend(self._run_inline_tail(message, trace))
            if pool is not None:
                self._score_partitions(pool, groups, group_costs, matches)
        except BaseException:
            # A mid-run failure can leave tasks queued on the pool; a
            # reused pool would interleave their late results into the
            # next run, so discard the workers and respawn on next use.
            self._release_pool(graceful=False)
            raise
        result = ERResult(
            entities_processed=count_in,
            matches=matches,
            comparisons_generated=self.cg.generated,
            comparisons_after_cleaning=self.lm.materialized,
            blocks_pruned=self.bb.pruned_blocks,
            keys_ghosted=self.bg.ghosted_keys if self.bg is not None else 0,
            elapsed_seconds=time.perf_counter() - start,
            items_failed=self.supervisor.items_failed,
            retries=self.supervisor.retries_performed,
            dead_letters=list(self.supervisor.dead_letters),
        )
        if self.checker is not None:
            # ENTITIES counted admissions here, so expected == count_in.
            self.checker.finalize(result, expected_entities=count_in)
        return result

    def _step(self, name: str, message: object, trace) -> tuple[bool, object]:
        """One supervised parent-side stage call, with its trace span."""
        if trace is not None:
            trace.record_start(name)
        ok, out = self.supervisor.execute(name, self._fns[name], message)
        if trace is not None:
            (trace.record_finish if ok else trace.dead_letter)(name)
        return ok, out

    def _run_inline_tail(self, generated, trace=None) -> list[Match]:
        """cc → lm → co → cl in the parent for one entity.

        Runs the real compiled stages under the supervisor, so counters,
        instrumentation, fault specs and dead-lettering behave exactly as
        in the sequential pipeline.
        """
        message: object = generated
        for name in self._tail:
            ok, message = self._step(name, message, trace)
            if not ok:
                return []
        if trace is not None:
            trace.complete()
        return message  # type: ignore[return-value]

    # -- partitioned dispatch ------------------------------------------

    def _publish(self, blocked, generated, groups: dict, group_costs: dict) -> bool:
        """Hand one entity's tail to the workers; False when it cannot ride
        the shared columns (the caller then runs the tail inline).

        The candidate list is resolved to token-column rows *at arrival
        time*, exactly when the sequential pipeline would materialize the
        partners — so a partner that re-arrives later in the same
        increment with changed tokens is compared against the version
        that was current when this entity arrived.
        """
        profiles = self.backend.profiles
        row_for = self._token_store.row_for
        profile = generated.profile
        # lm's state duty (register the profile before lookups) stays in
        # the parent, as does publishing the entity's token row so later
        # arrivals can reference it.
        profiles.put(profile)
        candidates = generated.candidates
        if profile.token_ids is None:
            return not candidates  # nothing to compare: nothing to run inline
        record = array("Q", (row_for(profile.eid, profile.token_ids),))
        if not candidates:
            return True
        for j in candidates:
            other = profiles.get(j)
            if other is None or other.token_ids is None:
                # cc counts per entity, so the whole entity goes inline.
                return False
            record.append(row_for(j, other.token_ids))
        if self.cc is not None:
            # The cc stage's tally, maintained on its behalf.
            self.backend.cooccurrence.pairs_counted += len(candidates)
        # The partition anchor: the entity's smallest block (fewest
        # co-members, key as tiebreak).  Any deterministic choice works —
        # correctness needs only that the whole entity lands in exactly
        # one group.
        others = blocked.others
        anchor = min(others, key=lambda key: (len(others[key]), key))
        rows_of = groups.get(anchor)
        if rows_of is None:
            rows_of = groups[anchor] = array("Q")
        rows_of.append(self.backend.publish_membership(record))
        group_costs[anchor] = group_costs.get(anchor, 0) + len(candidates)
        return True

    def _score_partitions(
        self, pool, groups: dict, group_costs: dict, matches: list[Match]
    ) -> None:
        """Bin-pack the increment's groups onto the workers, dispatch one
        descriptor each, and merge what comes back into ``matches``."""
        metrics_on = self.registry.enabled
        registry = self.registry
        plan = plan_partitions(group_costs, self.workers)
        self.last_partition_plan = plan
        descriptors: list[array] = []
        for bin_keys in plan.bins:
            descriptor = array("Q")
            for key in bin_keys:
                descriptor.extend(groups[key])
            if descriptor:
                descriptors.append(descriptor)
        if metrics_on:
            matches_metric = registry.counter(MATCHES)
            co_service = registry.histogram(STAGE_SERVICE_SECONDS, stage="co")
            co_items = registry.counter(STAGE_ITEMS, stage="co")
            executed_metric = registry.counter(COMPARISONS_EXECUTED)
            registry.counter(PARTITIONS_DISPATCHED).inc(len(descriptors))
            registry.counter(PARTITION_PAIRS).inc(plan.total_cost)
            registry.gauge(PARTITION_GROUPS).set(plan.group_count)
            registry.gauge(PARTITION_IMBALANCE).set(plan.imbalance)
            registry.gauge(PARTITION_LARGEST_SHARE).set(plan.largest_share)
        match_store = self.backend.matches
        cleaned_total = 0
        last_yield = time.perf_counter()
        for partition_matches, failures, stats in pool.imap(_score_partition, descriptors):
            scored_here = stats["cleaned"] - stats["prefiltered"]
            if metrics_on:
                # Worker-side scoring is observed from the parent: the
                # turnaround between successive result arrivals is the
                # closest analogue of per-partition service time here.
                now = time.perf_counter()
                co_service.observe(now - last_yield)
                last_yield = now
                co_items.inc(scored_here)
                executed_metric.inc(scored_here)
            cleaned_total += stats["cleaned"]
            self.pairs_dispatched += scored_here
            self.pairs_prefiltered += stats["prefiltered"]
            found = [
                Match(left=left, right=right, similarity=score)
                for left, right, score in partition_matches
            ]
            found.extend(
                filter(None, (self._heal_pair(*failure) for failure in failures))
            )
            for match in found:
                if match_store.add(match):
                    matches.append(match)
                    if metrics_on:
                        matches_metric.inc()
        # The cleaning/materialization the workers performed on the
        # stages' behalf, folded back into the canonical stage counters.
        if cleaned_total:
            _unwrap(self.lm).materialized += cleaned_total
            if self.cc is not None:
                _unwrap(self.cc).retained += cleaned_total
        if metrics_on:
            backend = self.backend
            registry.gauge(SHM_BYTES).set(backend.shm_bytes())
            registry.gauge(SHM_SEGMENTS).set(len(backend.segment_names()))
            registry.gauge(SHM_ROWS).set(len(self._token_store))

    def _heal_pair(self, left: EntityId, right: EntityId, error: str) -> Match | None:
        """Parent-side rescue of a worker-failed pair.

        Rebuild the comparison from the profile store (both sides were
        registered before their rows were published), retry with the
        parent's uninjected comparator — transient worker trouble heals
        here, genuinely poison pairs fail again and are dead-lettered —
        then re-verify against the kernel threshold and classify with the
        real classifier.
        """
        comparison = Comparison(
            left=self.backend.profiles.get(left),
            right=self.backend.profiles.get(right),
        )
        attempts = 1
        for _ in range(self.supervisor.policy.retries_for("co")):
            self.supervisor.record_retry("co")
            attempts += 1
            try:
                score = self.config.comparator.score(comparison.left, comparison.right)
            except Exception as exc:
                error = repr(exc)
                continue
            threshold = self.config.comparator.threshold
            if threshold is not None and score < threshold:
                return None
            return self.config.classifier.classify(
                ScoredComparison(comparison=comparison, similarity=score)
            )
        self.supervisor.record_failure("co", comparison, error, attempts)
        return None
