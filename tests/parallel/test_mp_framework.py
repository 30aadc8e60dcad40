"""Tests for the multiprocess executor (worker-side and inline tails)."""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import SharedMemoryBackend
from repro.errors import ConfigurationError
from repro.parallel import MultiprocessERPipeline
from repro.types import EntityDescription


def config_for(dataset, threshold=None):
    classifier = (
        ThresholdClassifier(threshold)
        if threshold is not None
        else OracleClassifier.from_pairs(dataset.ground_truth)
    )
    return StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=classifier,
    )


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            MultiprocessERPipeline(workers=0)


class TestCorrectness:
    def test_same_matches_as_sequential(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())

        mp_pipeline = MultiprocessERPipeline(config_for(ds), workers=2)
        result = mp_pipeline.run(ds.stream())

        assert result.match_pairs == sequential.cl.matches.pairs()
        assert result.entities_processed == len(ds)
        assert result.comparisons_after_cleaning == (
            sequential.cc.retained
        )

    def test_clean_clean(self, tiny_clean_dataset):
        ds = tiny_clean_dataset
        mp_pipeline = MultiprocessERPipeline(config_for(ds), workers=2)
        result = mp_pipeline.run(ds.stream())
        for i, j in result.match_pairs:
            assert i[0] != j[0]

    def test_single_worker(self, paper_entities):
        config = StreamERConfig(
            alpha=5, beta=0.6, classifier=ThresholdClassifier(0.3)
        )
        sequential = StreamERPipeline(
            StreamERConfig(alpha=5, beta=0.6, classifier=ThresholdClassifier(0.3)),
            instrument=False,
        )
        sequential.process_many(paper_entities)
        mp_pipeline = MultiprocessERPipeline(config, workers=1)
        result = mp_pipeline.run(paper_entities)
        assert result.match_pairs == sequential.cl.matches.pairs()

    def test_empty_input(self):
        mp_pipeline = MultiprocessERPipeline(
            StreamERConfig(classifier=ThresholdClassifier(0.5)), workers=1
        )
        result = mp_pipeline.run([])
        assert result.entities_processed == 0
        assert result.matches == []

    def test_no_comparisons_at_all(self):
        mp_pipeline = MultiprocessERPipeline(
            StreamERConfig(classifier=ThresholdClassifier(0.5)), workers=1
        )
        entities = [
            EntityDescription.create(i, {"a": f"unique{i}"}) for i in range(5)
        ]
        result = mp_pipeline.run(entities)
        assert result.matches == []
        assert result.entities_processed == 5


def interned_config(ds, classifier=None):
    return StreamERConfig.interned(
        alpha=StreamERConfig.alpha_for(len(ds), 0.05),
        beta=0.05,
        clean_clean=ds.clean_clean,
        classifier=classifier or ThresholdClassifier(0.5),
    )


class TestWorkerSide:
    """The eligible wiring: interned kernel on a shared-memory backend."""

    def test_threshold_classifier_prefilters_and_accounts(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        with SharedMemoryBackend() as backend:
            mp_pipeline = MultiprocessERPipeline(
                interned_config(ds), workers=2, backend=backend, partitioned=True
            )
            result = mp_pipeline.run(ds.stream())
            mp_pipeline.close()
        sequential = StreamERPipeline(config_for(ds, threshold=0.5), instrument=False)
        sequential.process_many(ds.stream())
        assert result.match_pairs == sequential.cl.matches.pairs()
        dispatched = mp_pipeline.pairs_dispatched
        prefiltered = mp_pipeline.pairs_prefiltered
        assert dispatched + prefiltered == result.comparisons_after_cleaning
        assert dispatched > 0 and prefiltered > 0
        assert result.comparisons_after_cleaning == sequential.cc.retained

    def test_oracle_classifier_disables_verification(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        config = interned_config(
            ds, classifier=OracleClassifier.from_pairs(ds.ground_truth)
        )
        with SharedMemoryBackend() as backend:
            mp_pipeline = MultiprocessERPipeline(
                config, workers=2, backend=backend, partitioned=True
            )
            result = mp_pipeline.run(ds.stream())
            mp_pipeline.close()
        assert mp_pipeline.pairs_prefiltered == 0  # no threshold, no bound
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())
        assert result.match_pairs == sequential.cl.matches.pairs()


class TestPoolLifecycle:
    def test_pool_reused_across_runs(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        entities = list(ds.stream())
        with SharedMemoryBackend() as backend:
            mp_pipeline = MultiprocessERPipeline(
                interned_config(ds), workers=2, backend=backend
            )
            mp_pipeline.run(entities[:100])
            mp_pipeline.run(entities[100:200])
            mp_pipeline.run(entities[200:])
            assert mp_pipeline.pool_spawns == 1
            assert mp_pipeline.pool_reuses == 2
            mp_pipeline.close()
            # close() releases the workers; the next run respawns.
            mp_pipeline.run([])
            assert mp_pipeline.pool_spawns == 2
            mp_pipeline.close()

    def test_no_pool_without_shared_columns(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        mp_pipeline = MultiprocessERPipeline(interned_config(ds), workers=2)
        mp_pipeline.run(ds.stream())
        assert not mp_pipeline.partitioned_dispatch
        assert mp_pipeline.pool_spawns == 0 and mp_pipeline.pool_reuses == 0

    def test_close_is_idempotent_and_context_manager(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        with SharedMemoryBackend() as backend:
            with MultiprocessERPipeline(
                interned_config(ds), workers=2, backend=backend
            ) as mp_pipeline:
                mp_pipeline.run(ds.stream())
            mp_pipeline.close()
            mp_pipeline.close()

    @pytest.mark.parametrize("shared", [True, False], ids=["workers", "inline"])
    def test_incremental_equals_one_shot(self, tiny_dirty_dataset, shared):
        ds = tiny_dirty_dataset
        entities = list(ds.stream())
        one_shot = StreamERPipeline(config_for(ds, threshold=0.5), instrument=False)
        one_shot.process_many(entities)

        backend = SharedMemoryBackend() if shared else None
        try:
            mp_pipeline = MultiprocessERPipeline(
                interned_config(ds), workers=2, backend=backend
            )
            assert mp_pipeline.partitioned_dispatch is shared
            for i in range(0, len(entities), 75):
                mp_pipeline.run(entities[i : i + 75])
            assert mp_pipeline.backend.matches.pairs() == one_shot.cl.matches.pairs()
            mp_pipeline.close()
        finally:
            if backend is not None:
                backend.unlink()


class TestShmMetrics:
    def test_shm_gauges_and_pool_counters(self, tiny_dirty_dataset):
        from repro.observability import MetricsRegistry
        from repro.observability.instrument import (
            POOL_REUSES,
            POOL_SPAWNS,
            SHM_BYTES,
            SHM_ROWS,
            SHM_SEGMENTS,
        )

        ds = tiny_dirty_dataset
        config = interned_config(ds)
        registry = MetricsRegistry()
        entities = list(ds.stream())
        with SharedMemoryBackend() as backend:
            mp_pipeline = MultiprocessERPipeline(
                config, workers=2, backend=backend, registry=registry
            )
            mp_pipeline.run(entities[:150])
            mp_pipeline.run(entities[150:])
            assert registry.value(SHM_BYTES) == backend.shm_bytes()
            assert registry.value(SHM_SEGMENTS) == len(backend.segment_names())
            assert registry.value(SHM_ROWS) > 0
            assert registry.value(POOL_SPAWNS) == 1
            assert registry.value(POOL_REUSES) == 1
            mp_pipeline.close()
