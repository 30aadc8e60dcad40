"""Durability over shared memory:
``DurableBackend.open(wal_dir, config, inner=SharedMemoryBackend())``.

Durability is the *outer* decorator — its logging proxies journal every
mutation and call straight through to the inner stores, so where the
token columns physically live is invisible to the WAL.  These tests pin
that composition: the shm-only surface stays reachable through the
decorator, the multiprocess executor runs every tail in the parent (the
per-entity commit hook is a partitioned-dispatch blocker) with the same
match set as worker-side execution, journaling is unaffected, a crashed run resumes to the exact
match set, and the shared segments never leak — crash included.

Recovery rebuilds into an :class:`~repro.core.backends.InMemoryBackend`
(the WAL is the source of truth, not the segments, which die with the
crashed process); the resumed run may continue on plain memory or on a
fresh shm backend — state content, not representation, is what resumes.
"""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import (
    InMemoryBackend,
    SharedMemoryBackend,
    active_shm_segments,
)
from repro.core.backends.durable import DurableBackend
from repro.datasets import DatasetSpec, generate
from repro.errors import SimulatedCrash
from repro.parallel import MultiprocessERPipeline
from repro.parallel.faults import CrashPoint


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
            # The shm surface reaches through the decorator; only the
            # per-entity commit keeps the tails in the parent.
            assert durable.layout() == inner.layout()
            assert durable.shm_bytes() == inner.shm_bytes()
            with MultiprocessERPipeline(config, backend=durable) as mp:
                assert mp.partition_blockers == (
                    "durable backends commit per-entity through cl",
                )
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
        assert durable.backend.wal_records_seen > 0
        # The journaled dictionary proxies to the shared one: every token
        # the run interned is decodable from the shm column.
        assert len(durable.backend.dictionary) == len(inner.dictionary)
        inner.unlink()
        assert active_shm_segments(prefix) == []

    def test_multiprocess_commits_through_cl_in_the_parent(self, dataset, tmp_path):
        """A durable backend commits per entity through the ``cl`` wrapper,
        so the executor keeps every tail in the parent — and says so —
        while the same config on the bare shm backend runs worker-side;
        the two match sets are identical and the WAL sees the run."""
        with SharedMemoryBackend() as bare:
            reference = MultiprocessERPipeline(
                interned_config(dataset), workers=2, backend=bare
            )
            reference.run(dataset.stream())
            assert reference.partitioned_dispatch
            expected = match_set(bare)
            reference.close()

        with SharedMemoryBackend() as inner:
            config = interned_config(dataset)
            durable = DurableBackend.open(tmp_path / "wal", config, inner=inner)
            mp = MultiprocessERPipeline(config, workers=2, backend=durable)
            result = mp.run(dataset.stream())
            assert not mp.partitioned_dispatch
            assert len(mp.partition_blockers) == 1
            assert "durable" in mp.partition_blockers[0]
            assert mp.pool_spawns == 0
            assert match_set(durable) == expected
            assert result.items_failed == 0
            assert durable.wal_records_seen > 0
            mp.close()
            durable.close()


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
                crash_point=CrashPoint(at_record=120),
            ),
        )
        with pytest.raises(SimulatedCrash):
            crashing.process_many(entities)
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
