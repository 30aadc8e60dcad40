"""Differential correctness: SEQ vs PP vs MPP, with and without faults.

The same seeded entity stream is run through the sequential
``StreamERPipeline``, the thread-parallel ``ParallelERPipeline`` (PP with
``micro_batch_size=1``, MPP with larger batches), and the
``MultiprocessERPipeline``; the harness asserts match-set equivalence —
exactly, when no faults are injected, and *modulo the dead-lettered items*
under fault injection:

* faults at the ingest stage (``dr``) fire before the entity touches any
  shared state, so the parallel run must equal a sequential run over just
  the surviving entities;
* faults at the comparison stage (``co``) lose exactly the matches whose
  *later-arriving* member was dead-lettered (a match is always discovered
  while processing the later entity of the pair), so the expected set is
  computable from the sequential run plus the dead-letter ids.

Every parallel run carries a timeout so a shutdown regression fails fast.
"""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, SupervisionPolicy
from repro.core.backends import SharedMemoryBackend, active_shm_segments
from repro.core.plan import STAGE_ORDER
from repro.datasets import DatasetSpec, generate
from repro.observability import (
    COMPARISONS_EXECUTED,
    COMPARISONS_GENERATED,
    ENTITIES,
    MATCHES,
    PIPELINE_METRIC_NAMES,
    STAGE_ITEMS,
    MetricsRegistry,
    Tracer,
)
from repro.invariants import InvariantChecker
from repro.observability.instrument import PARTITION_METRIC_NAMES
from repro.parallel import FaultSpec, MultiprocessERPipeline, ParallelERPipeline
from repro.parallel.faults import wrap_stages

RUN_TIMEOUT = 120.0


def config_for(dataset) -> StreamERConfig:
    return StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )


def interned_config_for(dataset) -> StreamERConfig:
    return StreamERConfig.interned(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )


def run_mp(dataset, *, shared: bool, entities=None, **kwargs):
    """One multiprocess run; returns (pipeline, result).

    ``shared=True`` is the eligible wiring — interned kernel on a
    :class:`SharedMemoryBackend`, so every tail runs worker-side under
    partitioned dispatch; ``shared=False`` is the string comparator on the
    default in-memory backend, where every tail runs inline in the parent.
    """
    backend = SharedMemoryBackend() if shared else None
    config = interned_config_for(dataset) if shared else config_for(dataset)
    try:
        with MultiprocessERPipeline(
            config, workers=2, backend=backend, **kwargs
        ) as mp:
            assert mp.partitioned_dispatch is shared
            result = mp.run(dataset.stream() if entities is None else entities)
    finally:
        if shared:
            prefix = backend.name
            backend.unlink()
            assert active_shm_segments(prefix) == []
    assert mp.pool_spawns == (1 if shared else 0)
    return mp, result


#: The three places an entity's tail can run under supervision.
EXECUTORS = ("thread", "mp-inline", "mp-partitioned")


def run_faulty(dataset, executor: str, **kwargs):
    """(pipeline, result) of one supervised run on the named executor."""
    if executor == "thread":
        pipeline = ParallelERPipeline(config_for(dataset), processes=12, **kwargs)
        return pipeline, pipeline.run(dataset.stream(), timeout=RUN_TIMEOUT)
    return run_mp(dataset, shared=executor == "mp-partitioned", **kwargs)


def assert_pair_accounting(mp: MultiprocessERPipeline, lost: int = 0) -> None:
    """The accounting identity, for both sides of the decision at once:
    every pair ``lm`` materialized was examined by exactly one ``co`` — a
    worker's (dispatched or prefiltered) or the parent's.  Exact on
    fault-free runs; ``lost`` is the materialized pairs of entities
    dead-lettered at ``co``."""
    assert mp.lm.materialized - lost == (
        mp.pairs_dispatched + mp.pairs_prefiltered + mp.co.compared
    )


def materialized_per_entity(dataset) -> dict:
    """Entity id → comparisons ``lm`` materializes for it (fault-free; a
    ``co`` fault changes nothing upstream of ``co``)."""
    pipeline = StreamERPipeline(config_for(dataset), instrument=False)
    sizes = {}
    for entity in dataset.stream():
        before = pipeline.lm.materialized
        pipeline.process(entity)
        sizes[entity.eid] = pipeline.lm.materialized - before
    return sizes


def sequential_pairs(dataset, entities=None) -> set:
    pipeline = StreamERPipeline(config_for(dataset), instrument=False)
    pipeline.process_many(dataset.stream() if entities is None else entities)
    return pipeline.cl.matches.pairs()


@pytest.fixture(scope="module", params=[7, 21])
def seeded_dirty(request):
    spec = DatasetSpec(
        name=f"diff-dirty-{request.param}", kind="dirty", size=150, matches=90,
        avg_attributes=4.0, heterogeneity=0.3, vocab_rare=2000, seed=request.param,
    )
    return generate(spec)


@pytest.fixture(scope="module")
def seeded_clean():
    spec = DatasetSpec(
        name="diff-clean", kind="clean-clean", size=(80, 90), matches=60,
        avg_attributes=4.0, heterogeneity=0.4, vocab_rare=2000, seed=13,
    )
    return generate(spec)


class TestFaultFreeEquivalence:
    """SEQ == PP == MPP == multiprocess on identical seeded streams."""

    @pytest.mark.parametrize("micro_batch_size", [1, 25, 100])
    @pytest.mark.parametrize("processes", [8, 16])
    def test_thread_framework_dirty(self, seeded_dirty, micro_batch_size, processes):
        expected = sequential_pairs(seeded_dirty)
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=processes,
            micro_batch_size=micro_batch_size,
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.match_pairs == expected
        assert result.items_failed == 0
        assert result.entities_processed == len(seeded_dirty)

    @pytest.mark.parametrize("micro_batch_size", [1, 50])
    def test_thread_framework_clean_clean(self, seeded_clean, micro_batch_size):
        expected = sequential_pairs(seeded_clean)
        parallel = ParallelERPipeline(
            config_for(seeded_clean), processes=12, micro_batch_size=micro_batch_size
        )
        result = parallel.run(seeded_clean.stream(), timeout=RUN_TIMEOUT)
        assert result.match_pairs == expected

    @pytest.mark.parametrize("shared", [True, False], ids=["workers", "inline"])
    def test_multiprocess_framework(self, seeded_dirty, shared):
        expected = sequential_pairs(seeded_dirty)
        _, result = run_mp(seeded_dirty, shared=shared)
        assert result.match_pairs == expected
        assert result.items_failed == 0


class TestFaultsAtIngest:
    """Dead letters at ``dr`` never touch shared state: the surviving items
    must resolve exactly as a sequential run over the surviving stream."""

    @pytest.mark.parametrize("micro_batch_size", [1, 25])
    @pytest.mark.parametrize("processes", [8, 16])
    def test_thread_framework(self, seeded_dirty, micro_batch_size, processes):
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=processes,
            micro_batch_size=micro_batch_size,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=0.2, seed=99)},
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        dead = result.dead_letter_ids
        assert 0 < len(dead) < len(seeded_dirty)
        survivors = [e for e in seeded_dirty.stream() if e.eid not in dead]
        assert result.match_pairs == sequential_pairs(seeded_dirty, survivors)

    def test_thread_framework_clean_clean(self, seeded_clean):
        parallel = ParallelERPipeline(
            config_for(seeded_clean),
            processes=12,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=0.2, seed=4)},
        )
        result = parallel.run(seeded_clean.stream(), timeout=RUN_TIMEOUT)
        dead = result.dead_letter_ids
        assert dead
        survivors = [e for e in seeded_clean.stream() if e.eid not in dead]
        assert result.match_pairs == sequential_pairs(seeded_clean, survivors)

    @pytest.mark.parametrize("shared", [True, False], ids=["workers", "inline"])
    def test_multiprocess_framework(self, seeded_dirty, shared):
        _, result = run_mp(
            seeded_dirty,
            shared=shared,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=0.2, seed=99)},
        )
        dead = result.dead_letter_ids
        assert dead
        survivors = [e for e in seeded_dirty.stream() if e.eid not in dead]
        assert result.match_pairs == sequential_pairs(seeded_dirty, survivors)

    def test_same_seed_same_dead_set_across_variants(self, seeded_dirty):
        """Injection is keyed on (seed, stage, entity), not on scheduling."""
        def dead_ids(micro_batch_size, processes):
            pipeline = ParallelERPipeline(
                config_for(seeded_dirty),
                processes=processes,
                micro_batch_size=micro_batch_size,
                supervision=SupervisionPolicy.none(),
                faults={"dr": FaultSpec(probability=0.25, seed=42)},
            )
            return pipeline.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT).dead_letter_ids

        assert dead_ids(1, 8) == dead_ids(25, 16)


class TestFaultsAtComparison:
    """An entity dead-lettered at any stage after ``bb+bp`` already
    registered its profile and its blocks there, so other entities still
    resolve against it; only the matches anchored at the dead entity (its
    pairings with *earlier* arrivals) are lost."""

    def _expected(self, dataset, dead: set) -> set:
        arrival = {e.eid: i for i, e in enumerate(dataset.stream())}
        expected = set()
        for pair in sequential_pairs(dataset):
            later = max(pair, key=lambda eid: arrival[eid])
            if later not in dead:
                expected.add(pair)
        return expected

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("stage", ["bg", "cg", "cc", "co"])
    def test_fault_after_block_building_loses_only_the_victims(
        self, seeded_dirty, stage, executor
    ):
        """One fault plan, one policy, one dead-letter set under every
        executor, wherever after ``bb+bp`` the fault fires: no partner of a
        victim fails later at ``lm``."""
        spec = FaultSpec(probability=0.3, seed=17)
        victims = {e.eid for e in seeded_dirty.stream() if spec.decide(stage, e.eid)}
        assert victims
        _, result = run_faulty(
            seeded_dirty,
            executor,
            supervision=SupervisionPolicy.none(),
            faults={stage: spec},
        )
        assert result.dead_letter_ids == victims
        assert all(d.stage == stage for d in result.dead_letters)
        assert result.match_pairs == self._expected(seeded_dirty, victims)

    @pytest.mark.parametrize("stage", ["bg", "cg", "cc", "co"])
    def test_sequential_dead_letter_mode(self, seeded_dirty, stage):
        """SEQ's ``on_error="dead_letter"`` loses what the executors lose."""
        spec = FaultSpec(probability=0.3, seed=17)
        victims = {e.eid for e in seeded_dirty.stream() if spec.decide(stage, e.eid)}
        pipeline = StreamERPipeline(config_for(seeded_dirty), instrument=False)
        fns = pipeline.compiled.stage_functions()
        wrap_stages(fns, {stage: spec})
        # process() walks _stages untraced and _named_stages traced:
        # inject into both so neither loop can bypass the fault.
        pipeline._named_stages = tuple(fns.items())
        pipeline._stages = tuple(fns.values())
        result = pipeline.process_many(seeded_dirty.stream(), on_error="dead_letter")
        assert result.dead_letter_ids == victims
        assert pipeline.cl.matches.pairs() == self._expected(seeded_dirty, victims)

    @pytest.mark.parametrize("micro_batch_size", [1, 25])
    def test_thread_framework(self, seeded_dirty, micro_batch_size):
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=12,
            micro_batch_size=micro_batch_size,
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(probability=0.3, seed=17)},
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        dead = result.dead_letter_ids
        assert dead
        assert all(d.stage == "co" for d in result.dead_letters)
        assert result.match_pairs == self._expected(seeded_dirty, dead)

    @pytest.mark.parametrize(
        "policy", [SupervisionPolicy.none(), None], ids=["no-retries", "default-policy"]
    )
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_one_plan_one_policy_one_dead_letter_set(
        self, seeded_dirty, executor, policy
    ):
        """A permanent ``co`` spec dead-letters exactly the seeded
        *entities* — whichever executor runs the stage, in whichever
        process, with or without a retry budget — and loses exactly the
        matches anchored at them."""
        spec = FaultSpec(probability=0.3, seed=17)
        victims = {e.eid for e in seeded_dirty.stream() if spec.decide("co", e.eid)}
        assert victims
        pipeline, result = run_faulty(
            seeded_dirty, executor, supervision=policy, faults={"co": spec}
        )
        assert result.dead_letter_ids == victims
        assert all(d.stage == "co" for d in result.dead_letters)
        assert result.match_pairs == self._expected(seeded_dirty, victims)
        budget = 0 if policy is not None else SupervisionPolicy().max_retries
        assert result.retries == budget * len(victims)
        if executor != "thread":
            # The pair-accounting identity under faults: lm counted the
            # victims' pairs, co never finished them.
            lost = materialized_per_entity(seeded_dirty)
            assert_pair_accounting(pipeline, lost=sum(lost[eid] for eid in victims))

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_transient_co_fault_heals_everywhere(self, seeded_dirty, executor):
        spec = FaultSpec(probability=0.3, seed=17, transient_attempts=1)
        victims = {e.eid for e in seeded_dirty.stream() if spec.decide("co", e.eid)}
        pipeline, result = run_faulty(seeded_dirty, executor, faults={"co": spec})
        assert result.items_failed == 0
        assert result.retries == len(victims)
        assert result.match_pairs == sequential_pairs(seeded_dirty)
        if executor != "thread":
            assert_pair_accounting(pipeline)

    def test_lm_fault_spec_dispatches_worker_side(self, seeded_dirty):
        """Fault specs on ``cc``/``lm``/``cl`` are no dispatch blocker
        (``run_mp`` asserts ``partitioned_dispatch``): the workers
        dead-letter the thread framework's victims."""
        kwargs = dict(
            supervision=SupervisionPolicy.none(),
            faults={"lm": FaultSpec(probability=0.3, seed=23)},
        )
        _, threads = run_faulty(seeded_dirty, "thread", **kwargs)
        pipeline, result = run_faulty(seeded_dirty, "mp-partitioned", **kwargs)
        assert result.dead_letter_ids == threads.dead_letter_ids != set()
        assert all(d.stage == "lm" for d in result.dead_letters)
        assert result.match_pairs == threads.match_pairs
        assert_pair_accounting(pipeline)  # lm never counted the victims


class TestRetriesPreserveEquivalence:
    """Transient faults healed by retries must leave results untouched."""

    def test_transient_faults_full_equivalence(self, seeded_dirty):
        expected = sequential_pairs(seeded_dirty)
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=12,
            micro_batch_size=25,
            supervision=SupervisionPolicy(max_retries=2),
            faults={"co": FaultSpec(probability=0.5, seed=3, transient_attempts=1)},
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.items_failed == 0
        assert result.retries > 0
        assert result.match_pairs == expected


class TestInvariantCheckedEquivalence:
    """Runtime invariant checking enabled on every executor: no violation
    fires on healthy runs, and the match sets do not move by one pair."""

    def test_sequential_checked(self, seeded_dirty):
        expected = sequential_pairs(seeded_dirty)
        checker = InvariantChecker(mode="raise", state_every=25)
        pipeline = StreamERPipeline(
            config_for(seeded_dirty), instrument=False, checker=checker
        )
        pipeline.process_many(seeded_dirty.stream())
        checker.finalize(
            pipeline.summary(), expected_entities=pipeline.entities_processed
        )
        assert pipeline.cl.matches.pairs() == expected
        assert not checker.violations
        assert checker.checks_performed > 0

    @pytest.mark.parametrize("micro_batch_size", [1, 25])
    def test_thread_framework_checked(self, seeded_dirty, micro_batch_size):
        expected = sequential_pairs(seeded_dirty)
        checker = InvariantChecker(mode="raise")
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=8,
            micro_batch_size=micro_batch_size,
            checker=checker,
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.match_pairs == expected
        assert result.items_failed == 0
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_thread_framework_checked_clean_clean(self, seeded_clean):
        expected = sequential_pairs(seeded_clean)
        checker = InvariantChecker(mode="raise")
        parallel = ParallelERPipeline(
            config_for(seeded_clean), processes=12, checker=checker
        )
        result = parallel.run(seeded_clean.stream(), timeout=RUN_TIMEOUT)
        assert result.match_pairs == expected
        assert not checker.violations

    @pytest.mark.parametrize("shared", [True, False], ids=["workers", "inline"])
    def test_multiprocess_framework_checked(self, seeded_dirty, shared):
        expected = sequential_pairs(seeded_dirty)
        checker = InvariantChecker(mode="raise")
        _, result = run_mp(seeded_dirty, shared=shared, checker=checker)
        assert result.match_pairs == expected
        assert result.items_failed == 0
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_simulator_checked(self):
        from repro.parallel import PipelineSimulator, ServiceModel

        checker = InvariantChecker(mode="raise")
        service = ServiceModel(
            mean_seconds={s: 1e-4 for s in STAGE_ORDER},
            cv=0.0,
            spike_probability=0.0,
        )
        simulator = PipelineSimulator(
            {s: 2 for s in STAGE_ORDER}, service, checker=checker
        )
        result = simulator.run_batch(50)
        assert result.admitted == 50
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_checked_run_with_dead_letters_uses_exemptions(self, seeded_dirty):
        """Dead-lettered entities may leave partial state behind; the
        checker still validates everything, exempting no entity."""
        checker = InvariantChecker(mode="raise")
        parallel = ParallelERPipeline(
            config_for(seeded_dirty),
            processes=8,
            micro_batch_size=25,
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(probability=0.3, seed=17)},
            checker=checker,
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.items_failed > 0
        assert not checker.violations

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_checked_run_with_cg_fault_holds_every_invariant(
        self, seeded_dirty, executor
    ):
        """A ``cg`` victim sits in blocks it joined at ``bb+bp`` — with its
        profile, so ``blocked-entities-have-profiles`` holds unexempted."""
        checker = InvariantChecker(mode="raise")
        _, result = run_faulty(
            seeded_dirty,
            executor,
            supervision=SupervisionPolicy.none(),
            faults={"cg": FaultSpec(probability=0.3, seed=17)},
            checker=checker,
        )
        assert result.items_failed > 0
        assert not checker.violations
        assert checker.checks_performed > 0


class TestObservabilityAcrossExecutors:
    """All four executors must emit the same metric vocabulary, and
    enabling metrics must not change a single match."""

    @staticmethod
    def _simulator_registry() -> "MetricsRegistry":
        from repro.parallel import PipelineSimulator, ServiceModel

        registry = MetricsRegistry()
        service = ServiceModel(
            mean_seconds={s: 1e-4 for s in STAGE_ORDER},
            cv=0.0,
            spike_probability=0.0,
        )
        PipelineSimulator(
            {s: 2 for s in STAGE_ORDER}, service, registry=registry
        ).run_batch(50)
        return registry

    def test_metric_names_identical_across_executors(self, seeded_dirty):
        config = config_for(seeded_dirty)
        registries = {"simulator": self._simulator_registry()}

        registries["seq"] = MetricsRegistry()
        StreamERPipeline(
            config, instrument=False, registry=registries["seq"]
        ).process_many(seeded_dirty.stream())

        registries["thread"] = MetricsRegistry()
        ParallelERPipeline(
            config, processes=8, registry=registries["thread"]
        ).run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)

        registries["mp"] = MetricsRegistry()
        run_mp(seeded_dirty, shared=False, registry=registries["mp"])

        name_sets = {label: r.names() for label, r in registries.items()}
        assert name_sets["seq"] == set(PIPELINE_METRIC_NAMES)
        for label, names in name_sets.items():
            assert names == name_sets["seq"], f"{label} diverges"

        # Worker-side runs add exactly the shm/pool/partition families…
        on_workers = MetricsRegistry()
        run_mp(seeded_dirty, shared=True, registry=on_workers)
        assert on_workers.names() == name_sets["seq"] | set(PARTITION_METRIC_NAMES)
        # …and the shared families *mean* the same there: every stage
        # counts the entities that finished it, whichever process ran it.
        seq = registries["seq"]
        for stage in STAGE_ORDER:
            assert (
                on_workers.value(STAGE_ITEMS, stage=stage)
                == seq.value(STAGE_ITEMS, stage=stage)
                == len(seeded_dirty)
            )
        for family in (COMPARISONS_GENERATED, COMPARISONS_EXECUTED, MATCHES):
            assert on_workers.value(family) == seq.value(family) > 0

    def test_enabling_metrics_changes_no_matches(self, seeded_dirty):
        expected = sequential_pairs(seeded_dirty)

        registry = MetricsRegistry()
        plain = StreamERPipeline(
            config_for(seeded_dirty), instrument=False, registry=registry
        )
        plain.process_many(seeded_dirty.stream())
        assert plain.cl.matches.pairs() == expected
        assert registry.value(ENTITIES) == len(seeded_dirty)
        assert registry.value(MATCHES) == len(expected)

        thread_registry = MetricsRegistry()
        parallel = ParallelERPipeline(
            config_for(seeded_dirty), processes=8, registry=thread_registry
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.match_pairs == expected
        assert thread_registry.value(ENTITIES) == len(seeded_dirty)

        for shared in (True, False):
            mp_registry = MetricsRegistry()
            _, mp_result = run_mp(seeded_dirty, shared=shared, registry=mp_registry)
            assert mp_result.match_pairs == expected
            assert mp_registry.value(ENTITIES) == len(seeded_dirty)
            assert mp_registry.value(MATCHES) == len(expected)
            assert mp_registry.value(COMPARISONS_EXECUTED) > 0

    def test_thread_framework_stage_metrics_populate(self, seeded_dirty):
        registry = MetricsRegistry()
        tracer = Tracer(every=10)
        parallel = ParallelERPipeline(
            config_for(seeded_dirty), processes=8,
            registry=registry, tracer=tracer,
        )
        parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        for stage in parallel.plan.stage_names():
            assert registry.value("er_stage_items_total", stage=stage) > 0
            hist = registry.get("er_stage_service_seconds", stage=stage)
            assert hist is not None and hist.count > 0
        latency = registry.get("er_entity_latency_seconds")
        assert latency.count == len(seeded_dirty)
        traces = tracer.traces()
        assert traces and all(t.seq % 10 == 0 for t in traces)
        completed = [t for t in traces if t.completed_at is not None]
        assert completed
        assert all(t.spans for t in completed)

    def test_dead_letters_counted_in_registry(self, seeded_dirty):
        registry = MetricsRegistry()
        parallel = ParallelERPipeline(
            config_for(seeded_dirty), processes=8, registry=registry,
            faults={"dr": FaultSpec(probability=0.2, seed=5)},
        )
        result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
        assert result.items_failed > 0
        assert registry.value("er_dead_letters_total", stage="dr") == result.items_failed


class TestSharedMemoryBackendEquivalence:
    """Shared-memory token columns are a pure representation change: every
    executor must produce bit-identical match sets to the in-memory
    backend — on dirty and clean-clean data, with the interned comparator
    (which makes the multiprocess executor run tails worker-side) and
    with faults.  Every test also asserts segment hygiene:
    the run leaves nothing behind in ``/dev/shm``."""

    def _interned_expected(self, dataset) -> set:
        pipeline = StreamERPipeline(interned_config_for(dataset), instrument=False)
        pipeline.process_many(dataset.stream())
        return pipeline.cl.matches.pairs()

    def test_sequential_dirty(self, seeded_dirty):
        expected = self._interned_expected(seeded_dirty)
        with SharedMemoryBackend() as backend:
            prefix = backend.name
            shm = StreamERPipeline(
                interned_config_for(seeded_dirty), instrument=False, backend=backend
            )
            shm.process_many(seeded_dirty.stream())
            assert shm.cl.matches.pairs() == expected
        assert active_shm_segments(prefix) == []

    def test_sequential_clean_clean(self, seeded_clean):
        expected = self._interned_expected(seeded_clean)
        with SharedMemoryBackend() as backend:
            shm = StreamERPipeline(
                interned_config_for(seeded_clean), instrument=False, backend=backend
            )
            shm.process_many(seeded_clean.stream())
            assert shm.cl.matches.pairs() == expected

    @pytest.mark.parametrize("micro_batch_size", [1, 25])
    def test_thread_framework_dirty(self, seeded_dirty, micro_batch_size):
        expected = self._interned_expected(seeded_dirty)
        with SharedMemoryBackend() as backend:
            parallel = ParallelERPipeline(
                interned_config_for(seeded_dirty),
                processes=12,
                micro_batch_size=micro_batch_size,
                backend=backend,
            )
            result = parallel.run(seeded_dirty.stream(), timeout=RUN_TIMEOUT)
            assert result.match_pairs == expected
            assert result.items_failed == 0

    def test_thread_framework_clean_clean(self, seeded_clean):
        expected = self._interned_expected(seeded_clean)
        with SharedMemoryBackend() as backend:
            parallel = ParallelERPipeline(
                interned_config_for(seeded_clean), processes=12, backend=backend
            )
            result = parallel.run(seeded_clean.stream(), timeout=RUN_TIMEOUT)
            assert result.match_pairs == expected

    def test_multiprocess_dirty(self, seeded_dirty):
        expected = self._interned_expected(seeded_dirty)
        mp, result = run_mp(seeded_dirty, shared=True)
        assert result.match_pairs == expected
        assert result.items_failed == 0
        assert mp.co.compared == 0  # no tail with candidates ran inline
        assert_pair_accounting(mp)

    def test_multiprocess_pair_counters_equal_sequential(self, seeded_dirty):
        """Workers run the kernel SEQ runs, so their summed counters are
        SEQ's (a threshold classifier, so the length prefilter is live)."""
        config = StreamERConfig.interned(
            alpha=StreamERConfig.alpha_for(len(seeded_dirty), 0.05),
            beta=0.05,
            classifier=ThresholdClassifier(0.8),
        )
        seq = StreamERPipeline(config, instrument=False)
        seq.process_many(seeded_dirty.stream())
        with SharedMemoryBackend() as backend, MultiprocessERPipeline(
            config, workers=2, backend=backend, partitioned=True
        ) as mp:
            mp.run(seeded_dirty.stream())
            assert backend.matches.pairs() == seq.cl.matches.pairs()
        assert seq.co.prefiltered > 0
        assert seq.co.prefiltered == mp.pairs_prefiltered
        assert seq.co.compared - seq.co.prefiltered == mp.pairs_dispatched

    def test_multiprocess_clean_clean(self, seeded_clean):
        expected = self._interned_expected(seeded_clean)
        _, result = run_mp(seeded_clean, shared=True)
        assert result.match_pairs == expected

    def test_multiprocess_plain_comparator_runs_inline(self, seeded_dirty):
        """Without the interned comparator the backend still works — the
        executor just keeps every tail in the parent, and says why."""
        expected = sequential_pairs(seeded_dirty)
        with SharedMemoryBackend() as backend:
            mp = MultiprocessERPipeline(
                config_for(seeded_dirty), workers=2, backend=backend
            )
            result = mp.run(seeded_dirty.stream())
            assert not mp.partitioned_dispatch
            assert "interned" in mp.partition_blockers[0]
            assert mp.pool_spawns == 0
            assert result.match_pairs == expected

    def test_persistent_pool_across_increments(self, seeded_dirty):
        """Increment-by-increment processing with one warm pool equals the
        one-shot sequential run; the pool spawns exactly once."""
        expected = self._interned_expected(seeded_dirty)
        entities = list(seeded_dirty.stream())
        increments = [entities[i : i + 50] for i in range(0, len(entities), 50)]
        with SharedMemoryBackend() as backend:
            mp = MultiprocessERPipeline(
                interned_config_for(seeded_dirty),
                workers=2,
                backend=backend,
                partitioned=True,
            )
            for increment in increments:
                mp.run(increment)
            assert backend.matches.pairs() == expected
            assert mp.pool_spawns == 1
            assert mp.pool_reuses == len(increments) - 1
            mp.close()

    def test_increment_results_equal_sequential(self, seeded_dirty):
        """Each run() reports its own increment, as process_many does —
        not the pipeline's lifetime counters — and the run invariants hold
        on every increment, not just the first."""
        config = interned_config_for(seeded_dirty)
        entities = list(seeded_dirty.stream())
        increments = [entities[:100], entities[100:]]
        seq = StreamERPipeline(config, instrument=False)
        checker = InvariantChecker(mode="raise")
        with SharedMemoryBackend() as backend, MultiprocessERPipeline(
            config,
            workers=2,
            backend=backend,
            partitioned=True,
            registry=MetricsRegistry(),
            checker=checker,
        ) as mp:
            for increment in increments:
                expected = seq.process_many(increment)
                result = mp.run(increment)
                for field in (
                    "entities_processed",
                    "comparisons_generated",
                    "comparisons_after_cleaning",
                    "blocks_pruned",
                    "keys_ghosted",
                    "items_failed",
                    "retries",
                ):
                    assert getattr(result, field) == getattr(expected, field), field
                assert result.dead_letters == expected.dead_letters == []
                assert result.match_pairs == expected.match_pairs
        assert expected.comparisons_generated > 0
        assert not checker.violations
