"""Durability over shared memory:
``DurableBackend.open(wal_dir, config, inner=SharedMemoryBackend())``.

Durability is the *outer* decorator — it logs what the executors admit
and hands the stages the inner stores unchanged, so where the token
columns physically live is invisible to the WAL.  These tests pin that
composition: the shm-only surface stays reachable through the decorator,
the multiprocess executor dispatches tails to its workers on durable
state exactly as on bare shm (same match set, and the log re-runs to the
live state, dead letters included), a crashed run resumes to the exact
match set, and the shared segments never leak — crash included.

Recovery rebuilds into an :class:`~repro.core.backends.InMemoryBackend`
(the WAL is the source of truth, not the segments, which die with the
crashed process); the resumed run may continue on plain memory or on a
fresh shm backend — state content, not representation, is what resumes.
"""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier
from repro.core import StreamERConfig, StreamERPipeline, SupervisionPolicy
from repro.core.backends import (
    InMemoryBackend,
    SharedMemoryBackend,
    active_shm_segments,
)
from repro.core.backends.durable import DurableBackend
from repro.datasets import DatasetSpec, generate
from repro.durability.codec import state_digest
from repro.durability.recovery import recover
from repro.durability.snapshot import snapshot_path
from repro.errors import SimulatedCrash
from repro.parallel import MultiprocessERPipeline
from repro.parallel.faults import CrashPoint, FaultSpec


@pytest.fixture(scope="module")
def dataset():
    return generate(
        DatasetSpec(
            name="durable-shm", kind="dirty", size=80, matches=55,
            avg_attributes=4.0, heterogeneity=0.2, vocab_rare=2000, seed=11,
        )
    )


def interned_config(dataset) -> StreamERConfig:
    return StreamERConfig.interned(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=OracleClassifier.from_pairs(dataset.ground_truth),
    )


def match_set(backend) -> set:
    return {(m.key(), m.similarity) for m in backend.matches.matches()}


class TestComposition:
    def test_partition_blockers_per_backend(self, dataset, tmp_path):
        config = interned_config(dataset)
        with MultiprocessERPipeline(config, backend=InMemoryBackend()) as mp:
            assert mp.partition_blockers == (
                "backend does not publish shared-memory columns",
            )
        with SharedMemoryBackend() as inner:
            with MultiprocessERPipeline(config, backend=inner) as mp:
                assert mp.partition_blockers == ()
            durable = DurableBackend.open(tmp_path / "wal", config, inner=inner)
            # The shm surface reaches through the decorator, and durable
            # state blocks nothing.
            assert durable.layout() == inner.layout()
            assert durable.shm_bytes() == inner.shm_bytes()
            with MultiprocessERPipeline(config, backend=durable) as mp:
                assert mp.partition_blockers == ()
            durable.close()

    def test_sequential_journal_over_shm(self, dataset, tmp_path):
        plain = StreamERPipeline(interned_config(dataset), instrument=False)
        plain.process_many(dataset.stream())

        inner = SharedMemoryBackend()
        prefix = inner.name
        config = interned_config(dataset)
        durable = StreamERPipeline(
            config,
            instrument=False,
            backend=DurableBackend.open(
                tmp_path / "wal", config, inner=inner, checkpoint_every=13
            ),
        )
        durable.process_many(dataset.stream())
        durable.close()
        assert match_set(durable.backend) == match_set(plain.backend)
        assert durable.backend.wal_records_seen == 1  # one admission
        # The stages intern into the shared dictionary: every token the
        # run interned is decodable from the shm column.
        assert durable.backend.dictionary is inner.dictionary
        inner.unlink()
        assert active_shm_segments(prefix) == []

    @pytest.mark.parametrize("fault_stage", [None, "cg", "co"])
    def test_multiprocess_dispatches_to_workers_on_durable_state(
        self, dataset, tmp_path, fault_stage
    ):
        """The same config on bare and on durable shm: both dispatch tails
        to the pool, their match sets agree, and re-running the log
        reproduces the live state — with dead letters in the parent
        (``cg``) or in the workers (``co``) logged by position."""
        faults = {fault_stage: FaultSpec(probability=0.2, seed=5)} if fault_stage else {}
        entities = list(dataset.stream())
        increments = [entities[:50], entities[50:]]

        def run(backend):
            mp = MultiprocessERPipeline(
                interned_config(dataset), workers=2, backend=backend,
                supervision=SupervisionPolicy.none(), faults=faults,
            )
            letters = [mp.run(increment).dead_letter_ids for increment in increments]
            mp.close()
            return mp, set().union(*letters)

        with SharedMemoryBackend() as bare:
            reference, expected_letters = run(bare)
            expected = match_set(bare)
        assert reference.partitioned_dispatch

        with SharedMemoryBackend() as inner:
            config = interned_config(dataset)
            wal_dir = tmp_path / "wal"
            durable = DurableBackend.open(wal_dir, config, inner=inner, checkpoint_every=40)
            mp, letters = run(durable)
            durable.close()
            assert mp.partition_blockers == ()
            assert mp.pool_spawns == 1 and mp.pairs_dispatched > 0
            assert match_set(durable) == expected
            assert letters == expected_letters
            assert bool(letters) == (fault_stage is not None)
            live = state_digest(durable)
            # The first run checkpoints; the second is re-run on top.
            recovered = recover(wal_dir, config)
            assert (recovered.epoch, recovered.entities_replayed) == (1, 30)
            assert state_digest(recovered.backend) == live
            # Without the checkpoint, both runs are re-run from the log.
            snapshot_path(wal_dir, 1).unlink()
            recovered = recover(wal_dir, config)
            assert recovered.entities_replayed == len(entities)
            assert state_digest(recovered.backend) == live


class TestCrashResume:
    def test_resume_equals_uninterrupted(self, dataset, tmp_path):
        entities = list(dataset.stream())
        uninterrupted = StreamERPipeline(interned_config(dataset), instrument=False)
        uninterrupted.process_many(entities)
        expected = match_set(uninterrupted.backend)

        inner = SharedMemoryBackend()
        prefix = inner.name
        wal_dir = tmp_path / "crash"
        config = interned_config(dataset)
        crashing = StreamERPipeline(
            config,
            instrument=False,
            backend=DurableBackend.open(
                wal_dir,
                config,
                inner=inner,
                checkpoint_every=13,
                crash_point=CrashPoint(at_record=12),
            ),
        )
        with pytest.raises(SimulatedCrash):
            for start in range(0, len(entities), 4):
                crashing.process_many(entities[start : start + 4])
        # The crashed creator's segments are reclaimed; the WAL is the
        # durable copy.
        inner.unlink()
        assert active_shm_segments(prefix) == []

        resumed = StreamERPipeline(
            config,
            instrument=False,
            backend=DurableBackend.open(wal_dir, config, resume=True),
        )
        skip = resumed.entities_processed
        assert 0 < skip < len(entities)
        resumed.process_many(entities[skip:])
        resumed.close()
        assert match_set(resumed.backend) == expected
