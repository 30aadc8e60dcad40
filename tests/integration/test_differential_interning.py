"""Differential correctness of the interned kernel, end to end.

The interning layer (token dictionary at ``f_dr``, id-set kernel at
``f_co``, shared-column multiprocess dispatch) is an execution strategy, not a
semantic change: on the same stream, every interned configuration must
produce *exactly* the match set of the string-set baseline.  This suite
pins that across

* dirty and clean-clean ER,
* the length prefilter on and off,
* threshold and oracle classification (oracle disables verification, so
  the kernel runs in emit-everything mode), and
* sequential versus multiprocess execution, worker-side and inline.

plus the state-persistence round trip, where token ids are deliberately
*not* serialized (they are dictionary-relative) and must be re-interned on
load.
"""

from __future__ import annotations

import io

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, dump_state, load_state
from repro.core.backends import SharedMemoryBackend
from repro.datasets import DatasetSpec, generate
from repro.parallel import MultiprocessERPipeline

THRESHOLD = 0.5


@pytest.fixture(scope="module", params=["dirty", "clean-clean"])
def dataset(request):
    if request.param == "dirty":
        spec = DatasetSpec(
            name="interning-dirty", kind="dirty", size=200, matches=120,
            avg_attributes=4.0, heterogeneity=0.4, vocab_rare=2500, seed=11,
        )
    else:
        spec = DatasetSpec(
            name="interning-clean", kind="clean-clean", size=(90, 110),
            matches=70, avg_attributes=4.0, heterogeneity=0.4,
            vocab_rare=2500, seed=12,
        )
    return generate(spec)


def base_kwargs(dataset, classifier):
    return {
        "alpha": StreamERConfig.alpha_for(len(dataset), 0.05),
        "beta": 0.05,
        "clean_clean": dataset.clean_clean,
        "classifier": classifier,
    }


def run_sequential(config, dataset):
    pipeline = StreamERPipeline(config, instrument=False)
    pipeline.process_many(dataset.stream())
    return pipeline.cl.matches.pairs()


class TestSequentialEquivalence:
    def test_interned_equals_string_with_threshold(self, dataset):
        classifier = ThresholdClassifier(THRESHOLD)
        expected = run_sequential(
            StreamERConfig(**base_kwargs(dataset, classifier)), dataset
        )
        assert expected  # a vacuous equivalence would prove nothing
        interned = run_sequential(
            StreamERConfig.interned(**base_kwargs(dataset, classifier)), dataset
        )
        assert interned == expected

    def test_prefilter_changes_nothing(self, dataset):
        classifier = ThresholdClassifier(THRESHOLD)
        with_filter = run_sequential(
            StreamERConfig.interned(**base_kwargs(dataset, classifier)), dataset
        )
        without_filter = run_sequential(
            StreamERConfig.interned(
                prefilter=False, **base_kwargs(dataset, classifier)
            ),
            dataset,
        )
        assert with_filter == without_filter

    def test_interned_equals_string_with_oracle(self, dataset):
        classifier = OracleClassifier.from_pairs(dataset.ground_truth)
        expected = run_sequential(
            StreamERConfig(**base_kwargs(dataset, classifier)), dataset
        )
        interned = run_sequential(
            StreamERConfig.interned(**base_kwargs(dataset, classifier)), dataset
        )
        assert interned == expected

    @pytest.mark.parametrize("measure", ["jaccard", "dice", "cosine", "overlap"])
    def test_every_measure_is_answer_preserving(self, dataset, measure):
        classifier = ThresholdClassifier(THRESHOLD)
        from repro.comparison import TokenSetComparator

        expected = run_sequential(
            StreamERConfig(
                comparator=TokenSetComparator.named(measure),
                **base_kwargs(dataset, classifier),
            ),
            dataset,
        )
        interned = run_sequential(
            StreamERConfig.interned(
                measure=measure, **base_kwargs(dataset, classifier)
            ),
            dataset,
        )
        assert interned == expected


class TestMultiprocessEquivalence:
    @pytest.mark.parametrize("shared", [True, False], ids=["workers", "inline"])
    def test_interned_multiprocess_equals_sequential_string(self, dataset, shared):
        """The interned kernel scored worker-side off shared columns, and
        inline in the parent, both equal the sequential string path."""
        classifier = ThresholdClassifier(THRESHOLD)
        expected = run_sequential(
            StreamERConfig(**base_kwargs(dataset, classifier)), dataset
        )
        backend = SharedMemoryBackend() if shared else None
        try:
            with MultiprocessERPipeline(
                StreamERConfig.interned(**base_kwargs(dataset, classifier)),
                workers=2,
                backend=backend,
            ) as mp_pipeline:
                result = mp_pipeline.run(dataset.stream())
        finally:
            if shared:
                backend.unlink()
        assert mp_pipeline.partitioned_dispatch is shared
        assert result.match_pairs == expected


class TestPersistenceRoundTrip:
    def test_loaded_profiles_are_reinterned(self, dataset):
        classifier = ThresholdClassifier(THRESHOLD)
        config = StreamERConfig.interned(**base_kwargs(dataset, classifier))
        first = StreamERPipeline(config, instrument=False)
        entities = list(dataset.stream())
        midpoint = len(entities) // 2
        first.process_many(entities[:midpoint])

        buffer = io.StringIO()
        dump_state(first, buffer)
        buffer.seek(0)

        resumed = StreamERPipeline(
            StreamERConfig.interned(**base_kwargs(dataset, classifier)),
            instrument=False,
        )
        load_state(resumed, buffer)
        for profile in resumed.lm.profiles.values():
            assert profile.token_ids is not None
            dictionary = resumed.dr.builder.dictionary
            assert dictionary.decode_set(profile.token_ids) == frozenset(profile.tokens)
        resumed.process_many(entities[midpoint:])

        whole = StreamERPipeline(
            StreamERConfig.interned(**base_kwargs(dataset, classifier)),
            instrument=False,
        )
        whole.process_many(entities)
        assert resumed.cl.matches.pairs() == whole.cl.matches.pairs()
