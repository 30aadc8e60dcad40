"""Unit and behavioural tests for the sequential stream pipeline."""

from __future__ import annotations

import copy

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.stages import STAGE_ORDER
from repro.observability import NULL_REGISTRY, STAGE_SERVICE_SECONDS, stage_seconds
from repro.types import EntityDescription, pair_key


class TestProcess:
    def test_returns_matches_involving_current_entity(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        for entity in paper_entities[:2]:
            pipeline.process(entity)
        matches = pipeline.process(paper_entities[2])  # e3 matches e1
        assert any(m.key() == (1, 3) for m in matches)

    def test_state_grows_across_calls(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        for entity in paper_entities:
            pipeline.process(entity)
        assert pipeline.entities_processed == 5
        assert len(pipeline.state.profiles) == 5
        assert len(pipeline.state.blocks) > 0

    def test_timings_cover_all_stages(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config, instrument=True)
        pipeline.process(paper_entities[0])
        assert set(stage_seconds(pipeline.registry)) == set(STAGE_ORDER)

    def test_uninstrumented_pipeline_has_no_timings(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config, instrument=False)
        pipeline.process(paper_entities[0])
        assert pipeline.registry is NULL_REGISTRY
        assert stage_seconds(pipeline.registry) == {}
        assert pipeline.summary().elapsed_seconds == 0

    def test_instrumentation_does_not_change_results(self, paper_entities, paper_config):
        timed = StreamERPipeline(paper_config, instrument=True)
        plain = StreamERPipeline(paper_config, instrument=False)
        timed_matches = [m.key() for e in paper_entities for m in timed.process(e)]
        plain_matches = [m.key() for e in paper_entities for m in plain.process(e)]
        assert timed_matches == plain_matches


class TestProcessMany:
    def test_summary_counts(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        result = pipeline.process_many(paper_entities)
        assert result.entities_processed == 5
        assert result.comparisons_generated >= result.comparisons_after_cleaning
        assert result.elapsed_seconds > 0

    def test_incremental_counts_are_deltas(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        first = pipeline.process_many(paper_entities[:3])
        second = pipeline.process_many(paper_entities[3:])
        total = pipeline.summary()
        assert first.comparisons_generated + second.comparisons_generated == (
            total.comparisons_generated
        )

    def test_increment_results_do_not_alias_cumulative_state(
        self, paper_entities, paper_config
    ):
        pipeline = StreamERPipeline(paper_config, instrument=True)
        first = pipeline.process_many(paper_entities[:3])
        before = copy.deepcopy(first)
        pipeline.process_many(paper_entities[3:])
        assert first == before
        # The registry, not the results, holds the cumulative stage clock.
        for stage in STAGE_ORDER:
            service = pipeline.registry.get(STAGE_SERVICE_SECONDS, stage=stage)
            assert service.count == len(paper_entities)
        total = sum(stage_seconds(pipeline.registry).values())
        assert total > 0
        assert pipeline.summary().elapsed_seconds == total

    def test_incremental_equals_single_pass(self, paper_entities, paper_config):
        together = StreamERPipeline(paper_config)
        together.process_many(paper_entities)
        split = StreamERPipeline(paper_config)
        split.process_many(paper_entities[:2])
        split.process_many(paper_entities[2:])
        assert together.cl.matches.pairs() == split.cl.matches.pairs()


class TestStream:
    def test_stream_is_lazy(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        stream = pipeline.stream(iter(paper_entities))
        entity, matches = next(stream)
        assert entity.eid == 1
        assert pipeline.entities_processed == 1

    def test_stream_processes_all(self, paper_entities, paper_config):
        pipeline = StreamERPipeline(paper_config)
        out = list(pipeline.stream(paper_entities))
        assert len(out) == 5


class TestQuality:
    def test_oracle_classifier_on_synthetic_data(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        cfg = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            classifier=OracleClassifier.from_pairs(ds.ground_truth),
        )
        pipeline = StreamERPipeline(cfg)
        result = pipeline.process_many(ds.stream())
        pc = len(result.match_pairs) / len(ds.ground_truth)
        assert pc > 0.6  # blocking keeps most true matches comparable
        assert result.match_pairs <= {pair_key(*p) for p in ds.ground_truth}

    def test_clean_clean_never_matches_within_source(self, tiny_clean_dataset):
        ds = tiny_clean_dataset
        cfg = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.1),
            beta=0.05,
            clean_clean=True,
            classifier=ThresholdClassifier(0.2),
        )
        pipeline = StreamERPipeline(cfg)
        result = pipeline.process_many(ds.stream())
        for i, j in result.match_pairs:
            assert i[0] != j[0]

    def test_cleaning_reduces_comparisons(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        cfg = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            classifier=ThresholdClassifier(0.99),
        )
        pipeline = StreamERPipeline(cfg)
        result = pipeline.process_many(ds.stream())
        assert result.comparisons_after_cleaning < result.comparisons_generated

    def test_no_bc_no_cc_sees_strictly_more_comparisons(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset

        def run(enable_bc: bool, enable_cc: bool) -> int:
            cfg = StreamERConfig(
                alpha=StreamERConfig.alpha_for(len(ds), 0.05),
                beta=0.05,
                enable_block_cleaning=enable_bc,
                enable_comparison_cleaning=enable_cc,
                classifier=ThresholdClassifier(0.99),
            )
            pipeline = StreamERPipeline(cfg, instrument=False)
            return pipeline.process_many(ds.stream()).comparisons_after_cleaning

        full = run(True, True)
        no_bc = run(False, True)
        no_cc = run(True, False)
        assert no_bc > full
        assert no_cc > full
