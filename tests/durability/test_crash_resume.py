"""Crash-injection harness: kill the run at seeded WAL appends, resume,
and demand the final state is bit-identical to an uninterrupted run.

Entities are admitted in increments of one to four, so the log holds
``input`` records of several sizes and the checkpoints fall between
them.  The sweep covers clean crashes (between records) and torn writes
(a record cut mid-frame on disk), crashes during the resumed run itself,
and the cooperating machinery: checkpoint retention, configuration
fingerprints, and the durability invariants.  The seeded-random sweep
with shrinking lives in the ``resume-equals-uninterrupted`` metamorphic
relation, exercised here at a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.classification import OracleClassifier
from repro.core import (
    DurableBackend,
    InMemoryBackend,
    StreamERConfig,
    StreamERPipeline,
    SupervisionPolicy,
)
from repro.datasets import DatasetSpec, generate
from repro.durability.codec import state_digest
from repro.durability.recovery import recover
from repro.durability.snapshot import list_snapshots
from repro.durability.wal import segment_path
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    RecoveryError,
    SimulatedCrash,
)
from repro.invariants import InvariantChecker
from repro.invariants.checks import StateView, check_durability_layout
from repro.parallel import ParallelERPipeline
from repro.parallel.faults import CrashPoint, FaultSpec
from repro.proptest import run_suite
from repro.types import EntityDescription

CHECKPOINT_EVERY = 13
SEED = 2021


def match_set(pipeline) -> set:
    return {(m.key(), m.similarity) for m in pipeline.backend.matches.matches()}


def feed(pipeline, entities, **kwargs) -> None:
    """``process_many`` in increments of 1, 2, 3, 4, 1, 2, ... entities."""
    start, size = 0, 1
    while start < len(entities):
        pipeline.process_many(entities[start : start + size], **kwargs)
        start += size
        size = size % 4 + 1


def durable_pipeline(config, wal_dir, checker=None, **open_kwargs):
    """A sequential pipeline on ``DurableBackend.open(wal_dir, config, ...)``."""
    return StreamERPipeline(
        config,
        instrument=False,
        checker=checker,
        backend=DurableBackend.open(wal_dir, config, **open_kwargs),
    )


@dataclass
class Baseline:
    config: StreamERConfig
    entities: list
    matches: set
    digest: str
    total_records: int


@pytest.fixture(scope="module")
def baseline(tmp_path_factory) -> Baseline:
    dataset = generate(
        DatasetSpec(
            name="crash-sweep", kind="dirty", size=60, matches=45,
            avg_attributes=4.0, heterogeneity=0.2, vocab_rare=2000, seed=11,
        )
    )
    entities = list(dataset.stream())
    config = StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(entities), 0.05),
        beta=0.05,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )
    plain = StreamERPipeline(config, instrument=False)
    plain.process_many(entities)

    wal_dir = tmp_path_factory.mktemp("uninterrupted")
    durable = durable_pipeline(config, wal_dir, checkpoint_every=CHECKPOINT_EVERY)
    feed(durable, entities)
    durable.close()
    assert match_set(durable) == match_set(plain)
    return Baseline(
        config=config,
        entities=entities,
        matches=match_set(plain),
        digest=state_digest(durable.backend.inner),
        total_records=durable.backend.wal_records_seen,
    )


def crash_run(baseline: Baseline, wal_dir, at_record, torn_bytes=None):
    pipeline = durable_pipeline(
        baseline.config,
        wal_dir,
        checkpoint_every=CHECKPOINT_EVERY,
        crash_point=CrashPoint(at_record=at_record, torn_bytes=torn_bytes),
    )
    with pytest.raises(SimulatedCrash):
        feed(pipeline, baseline.entities)
    return pipeline


def resume_and_finish(baseline: Baseline, wal_dir):
    resumed = durable_pipeline(baseline.config, wal_dir, resume=True)
    skip = resumed.entities_processed
    feed(resumed, baseline.entities[skip:])
    resumed.close()
    return resumed


class TestCrashSweep:
    def test_crash_at_seeded_points_resumes_bit_identical(self, baseline, tmp_path):
        total = baseline.total_records
        scenarios = sorted(
            {(1, None), (2, None), (total // 4, None), (total // 2, None),
             (total - 1, None), (total, None),
             (total // 3, 1), (total // 2, 3), (total, 6)},
            key=lambda s: (s[0], s[1] or 0),
        )
        for index, (at_record, torn_bytes) in enumerate(scenarios):
            wal_dir = tmp_path / f"crash-{index}"
            crash_run(baseline, wal_dir, at_record, torn_bytes)
            resumed = resume_and_finish(baseline, wal_dir)
            label = f"crash at record {at_record} (torn_bytes={torn_bytes})"
            assert match_set(resumed) == baseline.matches, label
            assert state_digest(resumed.backend.inner) == baseline.digest, label

    def test_crash_during_the_resumed_run_survives_too(self, baseline, tmp_path):
        wal_dir = tmp_path / "double-crash"
        crash_run(baseline, wal_dir, baseline.total_records // 2, torn_bytes=2)
        # The resumed run dies as well, mid-write, before finishing (the
        # crash index counts the resumed run's own appends).
        resumed = durable_pipeline(
            baseline.config,
            wal_dir,
            resume=True,
            crash_point=CrashPoint(at_record=baseline.total_records // 4, torn_bytes=4),
        )
        skip = resumed.entities_processed
        with pytest.raises(SimulatedCrash):
            feed(resumed, baseline.entities[skip:])
        final = resume_and_finish(baseline, wal_dir)
        assert match_set(final) == baseline.matches
        assert state_digest(final.backend.inner) == baseline.digest

    def test_pipeline_is_dead_after_the_injected_crash(self, baseline, tmp_path):
        pipeline = crash_run(
            baseline, tmp_path / "dead", at_record=baseline.total_records // 2
        )
        with pytest.raises(SimulatedCrash, match="dead"):
            pipeline.process(baseline.entities[-1])

    def test_resume_after_clean_shutdown_is_a_no_op_replay(self, baseline, tmp_path):
        wal_dir = tmp_path / "clean"
        durable = durable_pipeline(
            baseline.config, wal_dir, checkpoint_every=CHECKPOINT_EVERY
        )
        feed(durable, baseline.entities)
        durable.close()
        resumed = durable_pipeline(baseline.config, wal_dir, resume=True)
        assert resumed.entities_processed == len(baseline.entities)
        assert match_set(resumed) == baseline.matches
        assert state_digest(resumed.backend.inner) == baseline.digest
        resumed.close()


class TestThreadFramework:
    def test_fault_free_run_recovers_the_live_state(self, baseline, tmp_path):
        # processes=8 gives f_dr one worker, so token ids are assigned in
        # submission order and the replay reproduces them too.
        wal_dir = tmp_path / "threads"
        backend = DurableBackend.open(wal_dir, baseline.config)
        pipeline = ParallelERPipeline(baseline.config, processes=8, backend=backend)
        result = pipeline.run(baseline.entities, timeout=60)
        backend.close()
        assert result.items_failed == 0
        assert result.match_pairs == {pair for pair, _ in baseline.matches}
        assert backend.entities_logged == len(baseline.entities)
        recovered = recover(wal_dir, baseline.config)
        assert state_digest(recovered.backend) == state_digest(backend.inner)

    @pytest.mark.parametrize("stage", ["dr", "cg", "co"])
    def test_dead_letters_recover_to_the_live_state(self, baseline, tmp_path, stage):
        """Supervised faults before, at and after the serial stage: each
        logged letter stops its entity at the same stage on replay."""
        wal_dir = tmp_path / f"threads-{stage}"
        backend = DurableBackend.open(wal_dir, baseline.config)
        pipeline = ParallelERPipeline(
            baseline.config,
            processes=8,
            backend=backend,
            supervision=SupervisionPolicy.none(),
            faults={stage: FaultSpec(probability=0.2, seed=3)},
        )
        result = pipeline.run(baseline.entities, timeout=60)
        backend.close()
        assert result.items_failed > 0
        recovered = recover(wal_dir, baseline.config)
        assert state_digest(recovered.backend) == state_digest(backend)

    def test_checkpointed_runs_recover_exactly(self, baseline, tmp_path):
        """Two thread runs on one durable backend: the first checkpoints
        at its join, the second is re-run from the log on top of it."""
        wal_dir = tmp_path / "threads-checkpointed"
        backend = DurableBackend.open(
            wal_dir, baseline.config, checkpoint_every=CHECKPOINT_EVERY
        )
        half = len(baseline.entities) // 2
        for part in (baseline.entities[:half], baseline.entities[half:]):
            ParallelERPipeline(baseline.config, processes=8, backend=backend).run(
                part, timeout=60
            )
        backend.close()
        assert {(m.key(), m.similarity) for m in backend.matches.matches()} == (
            baseline.matches
        )
        recovered = recover(wal_dir, baseline.config)
        assert recovered.epoch == 2  # one checkpoint per join
        assert recovered.entities_replayed == 0
        assert state_digest(recovered.backend) == baseline.digest
        # The second run's entities come off the log when its checkpoint
        # is gone.
        list_snapshots(wal_dir)[-1][1].unlink()
        segment_path(wal_dir, 2).unlink()
        recovered = recover(wal_dir, baseline.config)
        assert recovered.entities_replayed == len(baseline.entities) - half
        assert state_digest(recovered.backend) == baseline.digest


class TestProptestSweep:
    def test_relation_sweep_at_fixed_seed(self):
        report = run_suite(
            seed=SEED, examples=2, names=["resume-equals-uninterrupted"]
        )
        assert report.ok, [f.describe() for f in report.failures()]


class TestRunDirectoryDiscipline:
    def test_fresh_run_refuses_an_existing_run_directory(self, baseline, tmp_path):
        wal_dir = tmp_path / "occupied"
        crash_run(baseline, wal_dir, at_record=10)
        with pytest.raises(ConfigurationError, match="already holds"):
            DurableBackend.open(wal_dir, baseline.config)

    def test_resume_refuses_a_callers_backend(self, baseline, tmp_path):
        # Recovery always rebuilds in memory; silently dropping the
        # caller's backend would leave it empty while the run goes on.
        wal_dir = tmp_path / "inner"
        crash_run(baseline, wal_dir, at_record=baseline.total_records // 2)
        with pytest.raises(ConfigurationError, match="inner"):
            DurableBackend.open(
                wal_dir, baseline.config, inner=InMemoryBackend(), resume=True
            )

    def test_fingerprint_mismatch_refuses_to_resume(self, baseline, tmp_path):
        wal_dir = tmp_path / "pinned"
        crash_run(baseline, wal_dir, at_record=baseline.total_records // 2)
        other = StreamERConfig(
            alpha=baseline.config.alpha + 5,
            beta=baseline.config.beta,
            classifier=baseline.config.classifier,
        )
        with pytest.raises(RecoveryError, match="fingerprint"):
            DurableBackend.open(wal_dir, other, resume=True)

    def test_checkpoint_retention_bounds_the_directory(self, baseline, tmp_path):
        wal_dir = tmp_path / "retention"
        durable = durable_pipeline(baseline.config, wal_dir, checkpoint_every=10)
        feed(durable, baseline.entities)
        durable.close()
        epochs = [epoch for epoch, _ in list_snapshots(wal_dir)]
        assert len(epochs) == 2  # KEEP_SNAPSHOTS
        assert epochs[-1] == durable.backend.epoch
        segments = sorted(
            int(p.stem.removeprefix("wal-")) for p in wal_dir.glob("wal-*.log")
        )
        assert segments == list(range(epochs[0], epochs[-1] + 1))
        # And the bounded directory still recovers the full state.
        assert state_digest(recover(wal_dir, baseline.config).backend) == baseline.digest


class TestDurabilityInvariants:
    def test_checked_durable_run_is_violation_free(self, baseline, tmp_path):
        checker = InvariantChecker(mode="raise", state_every=20)
        durable = durable_pipeline(
            baseline.config,
            tmp_path / "checked",
            checker=checker,
            checkpoint_every=CHECKPOINT_EVERY,
        )
        durable.process_many(baseline.entities)  # raises on any violation
        durable.close()

    def test_dead_letters_replay_exactly_mid_increment(self, baseline, tmp_path):
        """A poison entity mid-stream is dead-lettered and logged; every
        replay-digest check — most of them inside the increment — holds."""
        poison = EntityDescription(eid="poison", attributes=((1, 2),))
        entities = list(baseline.entities)
        entities.insert(len(entities) // 2, poison)
        wal_dir = tmp_path / "poisoned"
        checker = InvariantChecker(mode="raise", state_every=5)
        # No checkpoint: every replay, the final one included, re-runs
        # the poison entity.
        durable = durable_pipeline(baseline.config, wal_dir, checker=checker)
        result = durable.process_many(entities, on_error="dead_letter")
        durable.close()
        assert result.dead_letter_ids == {"poison"}
        assert not checker.violations
        assert checker.checks_performed > 0
        recovered = recover(wal_dir, baseline.config)
        assert recovered.entities_processed == len(entities)
        assert recovered.entities_failed == 1  # the poison fails again
        assert state_digest(recovered.backend) == state_digest(durable.backend)

    def test_layout_invariant_catches_a_missing_segment(self, baseline, tmp_path):
        wal_dir = tmp_path / "holey"
        durable = durable_pipeline(baseline.config, wal_dir, checkpoint_every=10)
        feed(durable, baseline.entities)
        segment_path(wal_dir, durable.backend.epoch).unlink()
        view = StateView(config=baseline.config, backend=durable.backend)
        with pytest.raises(InvariantViolation, match="missing"):
            check_durability_layout(view)
        durable.close()
