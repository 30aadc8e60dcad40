"""Integration tests: the full system on realistic synthetic workloads."""

from __future__ import annotations

import pytest

from repro.batch import BatchERConfig, BatchERPipeline
from repro.classification import OracleClassifier, ThresholdClassifier
from repro.clustering import IncrementalClusterer
from repro.core import StreamERConfig, StreamERPipeline, combine
from repro.datasets import DatasetSpec, generate
from repro.evaluation import pair_completeness
from repro.incremental import run_incremental_comparison
from repro.parallel import ParallelERPipeline
from repro.piblock import PIBlockConfig, PIBlockER


@pytest.fixture(scope="module")
def dirty():
    return generate(
        DatasetSpec(
            name="e2e-dirty", kind="dirty", size=600, matches=500,
            avg_attributes=5.0, heterogeneity=0.2, vocab_rare=5000, seed=77,
        )
    )


@pytest.fixture(scope="module")
def cleanclean():
    return generate(
        DatasetSpec(
            name="e2e-clean", kind="clean-clean", size=(250, 280), matches=200,
            avg_attributes=5.0, heterogeneity=0.5, vocab_rare=5000, seed=78,
        )
    )


def stream_config(ds, classifier):
    return StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(ds), 0.05),
        beta=0.05,
        clean_clean=ds.clean_clean,
        classifier=classifier,
    )


class TestStreamVsBatchQuality:
    def test_both_reach_good_pair_completeness(self, dirty):
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        stream = StreamERPipeline(stream_config(dirty, oracle), instrument=False)
        stream_result = stream.process_many(dirty.stream())
        stream_pc = pair_completeness(stream_result.match_pairs, dirty.ground_truth)

        batch = BatchERPipeline(BatchERConfig(r=0.05, s=0.8, classifier=oracle))
        batch_result = batch.run(dirty.entities)
        batch_pc = pair_completeness(batch_result.match_pairs, dirty.ground_truth)

        assert stream_pc > 0.6
        assert batch_pc > 0.5

    def test_stream_output_consistent_with_candidates(self, dirty):
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        pipeline = StreamERPipeline(stream_config(dirty, oracle), instrument=False)
        result = pipeline.process_many(dirty.stream())
        # Oracle classification ⇒ precision 1: every match is in the truth.
        assert result.match_pairs <= {
            tuple(sorted(p)) for p in dirty.ground_truth
        }


class TestCleanCleanEndToEnd:
    def test_combined_stream_resolves_across_sources(self, cleanclean):
        ds = cleanclean
        oracle = OracleClassifier.from_pairs(ds.ground_truth)
        pipeline = StreamERPipeline(stream_config(ds, oracle), instrument=False)
        result = pipeline.process_many(ds.stream())
        pc = pair_completeness(result.match_pairs, ds.ground_truth)
        assert pc > 0.6
        for i, j in result.match_pairs:
            assert i[0] != j[0]

    def test_combine_function_feeds_pipeline(self):
        left = generate(
            DatasetSpec(name="l", kind="dirty", size=40, matches=0, vocab_rare=500, seed=1)
        ).entities
        right = generate(
            DatasetSpec(name="r", kind="dirty", size=40, matches=0, vocab_rare=500, seed=2)
        ).entities
        stream = list(combine(left, right))
        assert len(stream) == 80
        cfg = StreamERConfig(
            alpha=20, beta=0.1, clean_clean=True, classifier=ThresholdClassifier(0.95)
        )
        pipeline = StreamERPipeline(cfg, instrument=False)
        pipeline.process_many(stream)  # must not raise


class TestParallelConsistency:
    def test_parallel_equals_sequential_on_both_kinds(self, dirty, cleanclean):
        for ds in (dirty, cleanclean):
            oracle = OracleClassifier.from_pairs(ds.ground_truth)
            seq = StreamERPipeline(stream_config(ds, oracle), instrument=False)
            seq.process_many(ds.stream())
            par = ParallelERPipeline(stream_config(ds, oracle), processes=10)
            result = par.run(ds.stream())
            assert result.match_pairs == seq.cl.matches.pairs()


class TestIncrementalScenario:
    def test_stream_is_increment_order_sensitive_but_complete(self, dirty):
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        one_shot = StreamERPipeline(stream_config(dirty, oracle), instrument=False)
        one_shot.process_many(dirty.stream())
        incremental = StreamERPipeline(stream_config(dirty, oracle), instrument=False)
        for inc in dirty.increments(5):
            incremental.process_many(inc)
        assert incremental.cl.matches.pairs() == one_shot.cl.matches.pairs()

    def test_figure10_ordering_on_small_data(self, dirty):
        """Block cleaning is what buys Figure 10's runtime ordering; what a
        test can pin is that it buys it for free — same matches, same pair
        completeness as without it, and within one match of the no-cleaning
        baseline.  The runtime ordering itself is wall clock and lives in
        ``benchmarks/bench_fig10_incremental.py``."""
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        runs = {
            r.approach: r
            for r in run_incremental_comparison(
                dirty, 4, oracle, approaches=("I-WNP", "I-WNP (No BC)", "PI-Block")
            )
        }
        ours, no_bc, pi_block = (
            runs[name] for name in ("I-WNP", "I-WNP (No BC)", "PI-Block")
        )
        assert ours.matches_found == no_bc.matches_found > 0
        assert ours.pair_completeness == no_bc.pair_completeness
        assert ours.matches_found <= pi_block.matches_found <= ours.matches_found + 1
        assert ours.pair_completeness <= pi_block.pair_completeness


class TestDownstreamClustering:
    def test_match_stream_feeds_clusterer(self, dirty):
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        pipeline = StreamERPipeline(stream_config(dirty, oracle), instrument=False)
        clusterer = IncrementalClusterer()
        for _, matches in pipeline.stream(dirty.stream()):
            clusterer.add_matches(matches)
        clusters = clusterer.clusters()
        assert clusters  # duplicates exist
        # Every cluster member pair must be reachable through true matches,
        # because oracle precision is 1 and clustering is transitive closure.
        truth_clusterer = IncrementalClusterer()
        truth_clusterer.add_matches(dirty.ground_truth)
        for cluster in clusters:
            members = sorted(cluster)
            for a, b in zip(members, members[1:]):
                assert truth_clusterer.same_entity(a, b)


class TestPIBlockIntegration:
    def test_piblock_runs_full_dataset(self, dirty):
        oracle = OracleClassifier.from_pairs(dirty.ground_truth)
        runner = PIBlockER(PIBlockConfig(classifier=oracle))
        for inc in dirty.increments(3):
            runner.process_increment(inc)
        pc = pair_completeness(runner.match_pairs, dirty.ground_truth)
        assert pc > 0.8  # no block cleaning → very high completeness
