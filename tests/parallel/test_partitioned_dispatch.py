"""The multiprocess executor's one decision: worker-side or inline.

An entity's ``cc → lm → co → cl`` tail runs in a worker (partitioned
dispatch on shared columns, descriptors streamed to the pool while the
front runs) when the wiring is eligible, in the parent when it is not.
Either way the choice must be *invisible* in every output: match sets
bit-identical to the sequential pipeline, the same (entity-level) dead
letters under seeded faults, and the pair accounting
identity ``lm.materialized == pairs_dispatched + pairs_prefiltered +
co.compared`` (exact on fault-free runs; the differential suite checks its
form under ``co`` faults).
The planner (only the end-to-end benchmark still calls it) is pinned as a
deterministic LPT bin-packer, and eligibility must refuse loudly
(``partitioned=True``) or fall back with the reason recorded (``"auto"`` →
``partition_blockers``) on ineligible wirings.
"""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, SupervisionPolicy
from repro.core.backends import (
    InMemoryBackend,
    SharedMemoryBackend,
    active_shm_segments,
)
from repro.errors import ConfigurationError
from repro.observability import MATCHES, STAGE_ITEMS, STAGE_SERVICE_SECONDS, MetricsRegistry
from repro.parallel import (
    FaultSpec,
    MultiprocessERPipeline,
    ParallelERPipeline,
    mp_framework,
    plan_partitions,
)
from repro.streaming import MultiprocessStreamRunner
from repro.types import EntityDescription, Profile

RUN_TIMEOUT = 120.0

_WORDS = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]


def make_entities(n: int):
    return [
        EntityDescription.create(
            i, {"title": " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(3))}
        )
        for i in range(n)
    ]


def threshold_config(**overrides) -> StreamERConfig:
    kwargs = dict(alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4))
    kwargs.update(overrides)
    return StreamERConfig.interned(**kwargs)


def dataset_config(dataset) -> StreamERConfig:
    """Interned oracle config for a generated dataset (eligible wiring)."""
    return StreamERConfig.interned(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )


def sequential_pairs(config: StreamERConfig, entities) -> set:
    pipeline = StreamERPipeline(config, instrument=False)
    pipeline.process_many(entities)
    return pipeline.cl.matches.pairs()


def assert_pair_accounting(pipeline: MultiprocessERPipeline) -> None:
    """Every cleaned pair was resolved exactly once, worker- or parent-side
    (exact unless an entity is dead-lettered at ``co``, after ``lm`` counted
    its pairs; no test here injects that)."""
    assert pipeline.lm.materialized == (
        pipeline.pairs_dispatched
        + pipeline.pairs_prefiltered
        + pipeline.co.compared
    )


def mp_run(config: StreamERConfig, entities, *, wrap=None, **kwargs):
    """One multiprocess run on a fresh shm backend; returns
    (pipeline, result, pairs).

    The backend is unlinked before returning — pair sets and counters are
    extracted first — so no test leaks ``/dev/shm`` segments on failure.
    ``wrap`` decorates (or replaces) the backend the pipeline sees.
    """
    backend = SharedMemoryBackend()
    prefix = backend.name
    try:
        pipeline = MultiprocessERPipeline(
            config,
            workers=2,
            backend=wrap(backend) if wrap is not None else backend,
            **kwargs,
        )
        result = pipeline.run(entities)
        pairs = pipeline.backend.matches.pairs()
        pipeline.close()
    finally:
        backend.unlink()
    assert active_shm_segments(prefix) == []
    assert_pair_accounting(pipeline)
    return pipeline, result, pairs


class TestPartitionPlanner:
    def test_deterministic_across_insertion_order(self):
        costs = {"roof": 7, "wood": 3, "glass": 9, "door": 1, "panel": 3}
        shuffled = dict(sorted(costs.items(), reverse=True))
        assert plan_partitions(costs, 3) == plan_partitions(shuffled, 3)

    def test_lpt_balances_known_instance(self):
        plan = plan_partitions({"a": 5, "b": 4, "c": 3, "d": 3, "e": 2, "f": 1}, 2)
        assert plan.total_cost == 18
        assert sorted(plan.bin_costs) == [9, 9]
        assert plan.imbalance == 1.0

    def test_bins_cover_keys_exactly_once(self):
        costs = {f"key-{i}": (i * 7) % 11 + 1 for i in range(40)}
        plan = plan_partitions(costs, 4)
        assigned = [key for bin_keys in plan.bins for key in bin_keys]
        assert sorted(assigned, key=repr) == sorted(costs, key=repr)
        assert plan.group_count == len(costs)
        for bin_keys, cost in zip(plan.bins, plan.bin_costs):
            assert cost == sum(costs[k] for k in bin_keys)

    def test_fewer_groups_than_bins(self):
        plan = plan_partitions({"a": 2, "b": 5}, 4)
        assert plan.used_bins == 2
        assert len(plan.bins) == 4
        assert plan.largest_share == 5 / 7

    def test_empty_costs(self):
        plan = plan_partitions({}, 2)
        assert plan.used_bins == 0
        assert plan.total_cost == 0
        assert plan.imbalance == 1.0
        assert plan.largest_share == 0.0

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ConfigurationError):
            plan_partitions({"a": 1}, 0)


class _StatefulThreshold(ThresholdClassifier):
    """A subclass may consult state the workers lack: exact-type check."""


def _string_config() -> StreamERConfig:
    return StreamERConfig(alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4))


#: Each configuration blocker alone on an otherwise eligible wiring:
#: (config, backend wrapper, faults, substring naming the blocker).
BLOCKERS = {
    "non-interned-comparator": (_string_config, None, None, "interned"),
    "backend-without-columns": (
        threshold_config, lambda shm: InMemoryBackend(), None, "shared-memory",
    ),
    "stateful-classifier": (
        lambda: threshold_config(classifier=_StatefulThreshold(0.4)),
        None, None, "stateful",
    ),
}


class TestTheOneDecision:
    def test_eligible_wiring_runs_worker_side(self):
        entities = make_entities(90)
        pipeline, result, pairs = mp_run(threshold_config(), entities)
        assert pipeline.partitioned_dispatch
        assert pipeline.partition_blockers == ()
        assert pipeline.pool_spawns == 1
        assert pipeline.pairs_dispatched > 0
        assert pipeline.co.compared == 0  # no tail ran in the parent
        assert pairs == sequential_pairs(threshold_config(), entities)

    @pytest.mark.parametrize("blocker", sorted(BLOCKERS))
    def test_each_blocker_alone_keeps_every_tail_inline(self, blocker):
        make_config, wrap, faults, names_it = BLOCKERS[blocker]
        entities = make_entities(90)
        reference = sequential_pairs(make_config(), entities)
        assert reference  # a vacuous equivalence proves nothing

        pipeline, _, pairs = mp_run(make_config(), entities, wrap=wrap, faults=faults)
        assert pipeline.partitioned_dispatch is False
        assert len(pipeline.partition_blockers) == 1
        assert names_it in pipeline.partition_blockers[0]
        assert pipeline.pool_spawns == 0 and pipeline.pool_reuses == 0
        assert pipeline.pairs_dispatched == pipeline.pairs_prefiltered == 0
        assert pipeline.co.compared == pipeline.lm.materialized > 0
        assert pairs == reference

        with pytest.raises(ConfigurationError, match=names_it):
            mp_run(make_config(), [], wrap=wrap, faults=faults, partitioned=True)

    @pytest.mark.parametrize("stage", ["cc", "lm", "cl"])
    def test_tail_fault_specs_dispatch_worker_side(self, stage):
        """A fault spec on a tail stage is no blocker: the workers wrap
        their own copy of the stage with the same entity-keyed injector."""
        entities = make_entities(90)
        spec = FaultSpec(probability=0.3, seed=11)
        pipeline, result, _ = mp_run(
            threshold_config(),
            entities,
            partitioned=True,
            supervision=SupervisionPolicy.none(),
            faults={stage: spec},
        )
        assert pipeline.partitioned_dispatch
        assert pipeline.pool_spawns == 1 and pipeline.pairs_dispatched > 0
        assert result.dead_letter_ids == {
            e.eid for e in entities if spec.decide(stage, e.eid)
        }
        assert {letter.stage for letter in result.dead_letters} == {stage}

    def test_blockers_are_read_only(self):
        pipeline = MultiprocessERPipeline(threshold_config(), workers=2)
        assert isinstance(pipeline.partition_blockers, tuple)
        with pytest.raises(AttributeError):
            pipeline.partition_blockers = ()

    def test_mixed_stream_splits_per_entity(self):
        """Profiles without token ids ride the parent; the rest, workers."""
        entities = make_entities(90)
        reference = sequential_pairs(threshold_config(), entities)

        def strip_every_fifth(dr):
            def reader(entity) -> Profile:
                profile = dr(entity)
                if entity.eid % 5 == 0:
                    return Profile(
                        eid=profile.eid,
                        attributes=profile.attributes,
                        tokens=profile.tokens,
                    )
                return profile

            return reader

        backend = SharedMemoryBackend()
        try:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=2, backend=backend, partitioned=True
            )
            pipeline._fns["dr"] = strip_every_fifth(pipeline._fns["dr"])
            result = pipeline.run(entities)
            pairs = backend.matches.pairs()
            pipeline.close()
        finally:
            backend.unlink()
        assert pipeline.partitioned_dispatch
        assert result.items_failed == 0
        # Both sides of the decision really ran.
        assert pipeline.pairs_dispatched > 0
        assert pipeline.co.compared > 0
        assert_pair_accounting(pipeline)
        assert pairs == reference

    @pytest.mark.parametrize("value", [False, "yes", None])
    def test_removed_and_invalid_values_raise(self, value):
        with pytest.raises(ConfigurationError, match="partitioned"):
            MultiprocessERPipeline(threshold_config(), partitioned=value)

    @pytest.mark.parametrize("option", ["chunk_size", "persistent_pool"])
    def test_removed_options_raise(self, option):
        with pytest.raises(TypeError, match=option):
            MultiprocessERPipeline(threshold_config(), **{option: 1})
        with pytest.raises(TypeError, match="chunk_size"):
            MultiprocessStreamRunner(threshold_config(), chunk_size=64)


class TestPartitionedDispatchEquivalence:
    """Partitioned dispatch is invisible in every output."""

    def test_all_executors_agree_dirty(self, tiny_dirty_dataset):
        config = dataset_config(tiny_dirty_dataset)
        entities = list(tiny_dirty_dataset.entities)
        reference = sequential_pairs(config, entities)
        assert reference  # a vacuous equivalence proves nothing

        for micro_batch_size in (1, 16):  # PP and MPP
            framework = ParallelERPipeline(
                config, processes=8, micro_batch_size=micro_batch_size
            )
            result = framework.run(entities, timeout=RUN_TIMEOUT)
            assert result.items_failed == 0
            assert result.match_pairs == reference

        partitioned, result, pairs = mp_run(config, entities, partitioned=True)
        assert partitioned.partitioned_dispatch
        assert pairs == reference
        assert partitioned.pairs_dispatched > 0
        assert (
            partitioned.pairs_dispatched + partitioned.pairs_prefiltered
            == result.comparisons_after_cleaning
        )

    def test_partitioned_matches_sequential_clean_clean(self, tiny_clean_dataset):
        config = dataset_config(tiny_clean_dataset)
        entities = list(tiny_clean_dataset.entities)
        reference = sequential_pairs(config, entities)
        assert reference
        pipeline, result, pairs = mp_run(config, entities, partitioned=True)
        assert pipeline.partitioned_dispatch
        assert pairs == reference
        for left, right in pairs:  # clean-clean never matches within a source
            assert left[0] != right[0]

    def test_inline_co_fault_wraps_the_compiled_stage(self):
        """On an ineligible wiring a co spec is a stage spec like any
        other: it dead-letters entities at co, exactly as under SEQ-style
        supervision, and no pool exists to ship it to."""
        entities = make_entities(60)
        pipeline = MultiprocessERPipeline(
            threshold_config(),
            workers=2,
            backend=InMemoryBackend(),
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(probability=0.3, seed=5)},
        )
        result = pipeline.run(entities)
        assert pipeline.pool_spawns == 0
        injector = pipeline.fault_injectors["co"]
        assert injector.faults_injected > 0
        assert result.items_failed == injector.faults_injected
        assert result.dead_letter_ids == injector.faulted_keys
        assert all(letter.stage == "co" for letter in result.dead_letters)

    @pytest.mark.parametrize(
        "dispatch_entities", [1, mp_framework._DISPATCH_ENTITIES, 10_000]
    )
    def test_pool_survives_increments_and_equals_one_shot(
        self, monkeypatch, dispatch_entities
    ):
        monkeypatch.setattr(mp_framework, "_DISPATCH_ENTITIES", dispatch_entities)
        entities = make_entities(90)
        one_shot, _, reference = mp_run(
            threshold_config(), entities, partitioned=True
        )
        assert one_shot.partitioned_dispatch

        with MultiprocessStreamRunner(threshold_config(), workers=2) as runner:
            assert runner.partitioned_dispatch
            for start in range(0, len(entities), 30):
                runner.process_increment(entities[start : start + 30])
            assert runner.match_pairs() == reference
            assert len(runner.increments) == 3
            assert runner.increments[-1].pool_reused
            assert runner.pipeline.pool_spawns == 1
            assert runner.pipeline.pool_reuses == 2


class TestStreamedDispatch:
    """Descriptors leave while the parent is still running the front."""

    def test_rearrival_while_descriptors_in_flight(self, monkeypatch):
        """Ids 5 and 9 re-arrive with changed tokens after every earlier
        descriptor naming them has gone to the pool: those descriptors must
        still score the old token sets (rows are resolved at arrival time
        and never overwritten), later ones the new."""
        monkeypatch.setattr(mp_framework, "_DISPATCH_ENTITIES", 1)
        entities = make_entities(60)
        changed = [
            EntityDescription.create(eid, {"title": "roof steel panel glass"})
            for eid in (5, 9)
        ]
        stream = entities[:40] + changed + entities[40:]
        reference = sequential_pairs(threshold_config(), stream)
        assert reference

        pipeline, result, pairs = mp_run(threshold_config(), stream, partitioned=True)
        assert result.items_failed == 0
        assert pipeline.co.compared == 0  # every tail went to a worker
        assert pairs == reference

    def test_workers_read_while_columns_grow(self, monkeypatch):
        """More workers than cores, one entity per descriptor, and the
        profile column seeded tiny so new generations appear while workers
        are reading:
        every descriptor must still see its rows (a torn or missed read
        would change the match set or the pair accounting)."""
        monkeypatch.setattr(mp_framework, "_DISPATCH_ENTITIES", 1)
        entities = make_entities(120)
        reference = sequential_pairs(threshold_config(), entities)
        backend = SharedMemoryBackend(data_bytes=64, dir_rows=4)
        prefix = backend.name
        try:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=4, backend=backend, partitioned=True
            )
            result = pipeline.run(entities)
            pairs = backend.matches.pairs()
            generations = len(backend.segment_names())
            pipeline.close()
        finally:
            backend.unlink()
        assert active_shm_segments(prefix) == []
        assert generations > 3  # the column grew past its first generations
        assert result.items_failed == 0
        assert pipeline.co.compared == 0
        assert_pair_accounting(pipeline)
        assert pairs == reference

    def test_worker_stage_seconds_count_entities(self):
        """Worker-side tail stages are timed per entity, so each histogram's
        count is the stage's item count, as under every other executor."""
        entities = make_entities(90)
        registry = MetricsRegistry()
        pipeline, _, _ = mp_run(
            threshold_config(), entities, partitioned=True, registry=registry
        )
        assert pipeline.pairs_dispatched > 0
        for stage in ("cc", "lm", "co", "cl"):
            items = registry.value(STAGE_ITEMS, stage=stage)
            histogram = registry.get(STAGE_SERVICE_SECONDS, stage=stage)
            assert items > 0
            assert histogram.count == items
            assert histogram.sum > 0

    def test_rearrived_match_counted_once(self):
        """An entity re-admitted in a second increment lands in a new
        descriptor, whose scratch match store finds its old matches new
        again; ``er_matches_total`` must still count *M*, as under SEQ
        (which re-materializes the pair and emits nothing)."""
        entities = make_entities(60)
        increments = (entities, [entities[5]])
        seq_registry = MetricsRegistry()
        seq = StreamERPipeline(threshold_config(), registry=seq_registry)
        for increment in increments:
            seq.process_many(increment)
        assert any(5 in pair for pair in seq.cl.matches.pairs())

        registry = MetricsRegistry()
        backend = SharedMemoryBackend()
        prefix = backend.name
        try:
            with MultiprocessERPipeline(
                threshold_config(), workers=2, backend=backend,
                registry=registry, partitioned=True,
            ) as pipeline:
                for increment in increments:
                    pipeline.run(increment)
            matches = len(backend.matches)
        finally:
            backend.unlink()
        assert active_shm_segments(prefix) == []
        assert pipeline.co.compared == 0  # both increments ran on workers
        assert registry.value(MATCHES) == matches == seq_registry.value(MATCHES) > 0


class TestWorkerFunctionInProcess:
    """The worker function is the plan's tail over a partition descriptor.

    Blocking keys come from tokens, so no stream can put an empty profile
    into a block: drive the worker function directly, in this process,
    against hand-written profile rows.  The zero-token cases are the regression
    of a hand-copied prefilter that once lived here (the kernel-level
    twin is ``tests/comparison/test_kernel.py``): exactly one empty side
    is droppable, two empty sides score jaccard 1.0 and must be scored.
    """

    def test_one_sided_empty_dropped_both_empty_scored(self):
        from array import array

        from repro.parallel import mp_framework as worker

        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                threshold_config(), workers=1, backend=backend, partitioned=True
            )
            for eid, ids in ((1, ()), (2, ()), (3, (0, 1)), (4, (0, 1))):
                backend.profiles.put(
                    Profile(eid=eid, attributes=(), tokens=frozenset(), token_ids=ids)
                )
            row = backend.profiles.rows
            # Two entities' records by value: 1 with partners 2 and 3, then
            # 3 with partner 4.
            rows = array("Q", [row[1], row[2], row[3], row[3], row[4]])
            lengths = array("I", [3, 2])
            # Initialized timed, as under an enabled parent registry.
            worker._init_worker(*pipeline._pool_initargs[:-1], True)
            try:
                matches, dead_letters, retries, counters, state = (
                    worker._run_partition(rows, lengths)
                )
            finally:
                # fork inherits module globals: leave none behind.
                worker._worker.close()
                worker._worker = None
        assert dead_letters == [] and retries == {}
        registry = MetricsRegistry()
        registry.merge(state)
        items = {
            stage: registry.value(STAGE_ITEMS, stage=stage)
            for stage in ("cc", "lm", "co", "cl")
        }
        assert items == {"cc": 2, "lm": 2, "co": 2, "cl": 2}  # entities per stage
        assert counters == {
            "retained": 3,
            "materialized": 3,
            "compared": 3,
            "prefiltered": 1,  # (1, 3) dropped
        }
        # Why both-empty must be scored: the kernel says it is a match.
        assert [(m.left, m.right, m.similarity) for m in matches] == [
            (1, 2, 1.0),
            (3, 4, 1.0),
        ]
