"""Fault-injection harness: determinism, retries, dead-letter routing.

Every parallel run here is guarded with ``run(..., timeout=...)`` so a
reintroduced shutdown bug fails the test instead of hanging the suite.
"""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, SupervisionPolicy
from repro.core.monitoring import PipelineMonitor
from repro.core.stages import STAGE_ORDER
from repro.errors import ConfigurationError, InjectedFault
from repro.parallel import (
    FaultInjector,
    FaultSpec,
    MultiprocessERPipeline,
    ParallelERPipeline,
    PipelineSimulator,
    ServiceModel,
)

RUN_TIMEOUT = 60.0

_WORDS = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]


def make_entities(n: int):
    from repro.types import EntityDescription

    return [
        EntityDescription.create(
            i, {"title": " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(3))}
        )
        for i in range(n)
    ]


def config():
    return StreamERConfig(alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4))


class TestInjectorDeterminism:
    def _faulted(self, order):
        inj = FaultInjector(
            lambda p: p, FaultSpec(probability=0.4, seed=7), stage="co",
            key_fn=lambda p: p,
        )
        for item in order:
            try:
                inj(item)
            except InjectedFault:
                pass
        return inj.faulted_keys

    def test_same_keys_regardless_of_call_order(self):
        keys = list(range(300))
        forward = self._faulted(keys)
        backward = self._faulted(list(reversed(keys)))
        assert forward == backward
        # roughly the requested fraction, and neither empty nor everything
        assert 60 <= len(forward) <= 180

    def test_different_seeds_fault_different_items(self):
        def run(seed):
            inj = FaultInjector(
                lambda p: p, FaultSpec(probability=0.5, seed=seed), stage="co",
                key_fn=lambda p: p,
            )
            for item in range(200):
                try:
                    inj(item)
                except InjectedFault:
                    pass
            return inj.faulted_keys

        assert run(1) != run(2)

    def test_every_n_faults_exact_count(self):
        inj = FaultInjector(
            lambda p: p, FaultSpec(every_n=3), stage="co", key_fn=lambda p: p
        )
        failures = 0
        for item in range(30):
            try:
                inj(item)
            except InjectedFault:
                failures += 1
        assert failures == 10
        assert inj.calls == 30
        assert inj.faults_injected == 10

    def test_memoized_decision_is_stable_across_retries(self):
        inj = FaultInjector(
            lambda p: p, FaultSpec(probability=0.5, seed=3), stage="co",
            key_fn=lambda p: p,
        )
        for item in range(50):
            outcomes = []
            for _attempt in range(3):
                try:
                    inj(item)
                    outcomes.append(True)
                except InjectedFault:
                    outcomes.append(False)
            assert len(set(outcomes)) == 1  # permanent fault or permanently fine


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"mode": "explode"},
            {"delay_seconds": -1.0},
            {"transient_attempts": -1},
            {"every_n": 0},
        ],
    )
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultSpec(**kwargs)

    def test_unknown_stage_in_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelERPipeline(config(), faults={"nope": FaultSpec()})
        with pytest.raises(ConfigurationError):
            MultiprocessERPipeline(config(), faults={"nope": FaultSpec()})


class TestSupervisionPolicy:
    def test_backoff_schedule_capped(self):
        policy = SupervisionPolicy(
            backoff_seconds=0.01, backoff_multiplier=2.0, max_backoff_seconds=0.03
        )
        assert policy.backoff_for(1) == pytest.approx(0.01)
        assert policy.backoff_for(2) == pytest.approx(0.02)
        assert policy.backoff_for(3) == pytest.approx(0.03)
        assert policy.backoff_for(4) == pytest.approx(0.03)

    def test_non_idempotent_stage_never_retried(self):
        policy = SupervisionPolicy(max_retries=5)
        assert policy.retries_for("bb+bp") == 0
        assert policy.retries_for("co") == 5

    def test_rejects_bad_policy(self):
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            SupervisionPolicy(backoff_multiplier=0.5)


class TestRetriesAndDeadLetters:
    def test_transient_fault_healed_by_retry(self):
        entities = make_entities(40)
        sequential = StreamERPipeline(config(), instrument=False)
        sequential.process_many(entities)

        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy(max_retries=2),
            faults={"co": FaultSpec(probability=1.0, transient_attempts=1)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed == 0
        assert result.retries == len(entities)  # each item faulted exactly once
        assert result.match_pairs == sequential.cl.matches.pairs()

    def test_permanent_faults_exhaust_retry_budget(self):
        entities = make_entities(30)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy(max_retries=2),
            faults={"dr": FaultSpec(probability=0.5, seed=3)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed > 0
        assert result.retries == 2 * result.items_failed
        for letter in result.dead_letters:
            assert letter.stage == "dr"
            assert letter.attempts == 3
            assert "InjectedFault" in letter.error

    def test_dead_letter_routing(self):
        entities = make_entities(40)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=0.4, seed=11)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        input_ids = {e.eid for e in entities}
        assert result.entities_processed == len(entities)
        assert 0 < result.items_failed < len(entities)
        assert result.items_failed == len(result.dead_letters)
        assert result.dead_letter_ids <= input_ids
        # pipeline-level counters match the result (monitoring hooks)
        assert pipeline.items_failed == result.items_failed
        assert pipeline.supervisor.failures_by_stage == {"dr": result.items_failed}

    def test_corrupted_payload_is_dead_lettered_not_fatal(self):
        entities = make_entities(25)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy.none(),
            faults={"cg": FaultSpec(probability=0.3, seed=2, mode="corrupt")},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed > 0
        for letter in result.dead_letters:
            assert letter.stage == "cg"

    def test_delay_faults_do_not_change_results(self):
        entities = make_entities(30)
        sequential = StreamERPipeline(config(), instrument=False)
        sequential.process_many(entities)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            faults={"lm": FaultSpec(probability=1.0, mode="delay", delay_seconds=0.001)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed == 0
        assert result.match_pairs == sequential.cl.matches.pairs()


class TestTotalFailureRegression:
    """A 100%-failing stage must not hang ``run()`` — the seed deadlock."""

    def test_all_items_fail_at_first_stage(self):
        entities = make_entities(50)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=1.0)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.entities_processed == len(entities)
        assert result.items_failed == len(entities)
        assert result.matches == []

    def test_all_items_fail_at_comparison_stage(self):
        entities = make_entities(50)
        pipeline = ParallelERPipeline(
            config(),
            processes=12,
            micro_batch_size=10,
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(probability=1.0)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed == len(entities)
        assert result.matches == []

    def test_every_nth_item_raising_completes(self):
        entities = make_entities(40)
        pipeline = ParallelERPipeline(
            config(),
            processes=8,
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(every_n=4)},
        )
        result = pipeline.run(entities, timeout=RUN_TIMEOUT)
        assert result.items_failed == len(entities) // 4
        assert all(d.stage == "co" for d in result.dead_letters)


class TestMultiprocessFaults:
    def test_inline_co_fault_dead_letters_entities(self):
        """No shared columns → the co spec wraps the parent's compiled co."""
        entities = make_entities(40)
        pipeline = MultiprocessERPipeline(
            config(),
            workers=2,
            supervision=SupervisionPolicy.none(),
            faults={"co": FaultSpec(probability=0.3, seed=5)},
        )
        result = pipeline.run(entities)
        assert pipeline.pool_spawns == 0
        assert 0 < result.items_failed < len(entities)
        assert all(letter.stage == "co" for letter in result.dead_letters)
        assert result.dead_letter_ids <= {e.eid for e in entities}

    def test_front_fault_injection_dead_letters_entities(self):
        entities = make_entities(40)
        pipeline = MultiprocessERPipeline(
            config(),
            workers=2,
            supervision=SupervisionPolicy.none(),
            faults={"dr": FaultSpec(probability=0.4, seed=9)},
        )
        result = pipeline.run(entities)
        assert result.entities_processed == len(entities)
        assert 0 < result.items_failed < len(entities)
        assert result.dead_letter_ids <= {e.eid for e in entities}


class TestSimulatorFaults:
    def _model(self, probability):
        return ServiceModel(
            mean_seconds={s: 0.001 for s in STAGE_ORDER},
            failure_probability=probability,
            seed=1,
        )

    def test_failure_probability_validated(self):
        with pytest.raises(ConfigurationError):
            self._model(1.5)

    def test_no_faults_by_default(self):
        result = PipelineSimulator(
            {s: 2 for s in STAGE_ORDER}, self._model(0.0)
        ).run_batch(100)
        assert result.items_failed == 0
        assert result.dead_letters == []
        assert len(result.completion_times) == 100

    def test_failed_items_are_dead_lettered_deterministically(self):
        allocation = {s: 2 for s in STAGE_ORDER}
        first = PipelineSimulator(allocation, self._model(0.1)).run_batch(200)
        second = PipelineSimulator(allocation, self._model(0.1)).run_batch(200)
        assert first.items_failed > 0
        assert first.items_failed + len(first.completion_times) == 200
        assert sorted(first.dead_letters) == sorted(second.dead_letters)
        assert all(stage in STAGE_ORDER for _, stage in first.dead_letters)

    def test_total_failure_completes_with_zero_output(self):
        result = PipelineSimulator(
            {s: 2 for s in STAGE_ORDER}, self._model(1.0)
        ).run_batch(50)
        assert result.items_failed == 50
        assert result.completion_times == []


class TestSequentialDeadLetterMode:
    def _poisoned(self, n, bad_every):
        entities = make_entities(n)
        # Malform every k-th entity so the data-reading stage raises on it.
        out = []
        for i, entity in enumerate(entities):
            if i % bad_every == 0:
                out.append(
                    type(entity)(eid=entity.eid, attributes=((1, 2),))  # type: ignore[arg-type]
                )
            else:
                out.append(entity)
        return out

    def test_raise_mode_propagates(self):
        pipeline = StreamERPipeline(config(), instrument=False)
        with pytest.raises(Exception):
            pipeline.process_many(self._poisoned(10, 1))

    def test_dead_letter_mode_survives_poison_entities(self):
        entities = self._poisoned(30, 5)
        pipeline = StreamERPipeline(config(), instrument=False)
        result = pipeline.process_many(entities, on_error="dead_letter")
        assert result.entities_processed == 30
        assert result.items_failed == 6
        assert result.dead_letter_ids == {e.eid for i, e in enumerate(entities) if i % 5 == 0}
        assert pipeline.items_failed == 6

    def test_invalid_on_error_rejected(self):
        pipeline = StreamERPipeline(config(), instrument=False)
        with pytest.raises(ConfigurationError):
            pipeline.process_many([], on_error="ignore")

    def test_monitor_snapshot_exposes_failure_counters(self):
        entities = self._poisoned(20, 4)
        pipeline = StreamERPipeline(config(), instrument=False)
        pipeline.process_many(entities, on_error="dead_letter")
        snap = PipelineMonitor(pipeline, interval=1000).snapshot()
        assert snap.items_failed == 5
        assert "dead-lettered" in snap.summary()
