"""Tests for the incremental TF-IDF comparator."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.comparison import IncrementalTfIdfComparator
from repro.core.state import stored_form
from repro.reading import TokenDictionary
from repro.types import Comparison, Profile


def profile(eid, tokens):
    return Profile(eid=eid, attributes=(), tokens=frozenset(tokens))


class TestObservation:
    def test_observe_is_idempotent(self):
        comparator = IncrementalTfIdfComparator()
        p = profile(1, {"a", "b"})
        comparator.observe(p)
        comparator.observe(p)
        assert comparator.documents == 1

    def test_compare_observes_both_sides(self):
        comparator = IncrementalTfIdfComparator()
        comparator.compare(Comparison(profile(1, {"a"}), profile(2, {"b"})))
        assert comparator.documents == 2


class TestScoring:
    def test_identical_profiles_score_one(self):
        comparator = IncrementalTfIdfComparator()
        assert comparator.score(profile(1, {"a", "b"}), profile(2, {"a", "b"})) == 1.0

    def test_disjoint_profiles_score_zero(self):
        comparator = IncrementalTfIdfComparator()
        assert comparator.score(profile(1, {"a"}), profile(2, {"b"})) == 0.0

    def test_empty_profiles_score_one(self):
        comparator = IncrementalTfIdfComparator()
        assert comparator.score(profile(1, set()), profile(2, set())) == 1.0

    @pytest.mark.parametrize(
        "left, right",
        [(set(), set()), ({"a"}, {"b"}), ({"a", "b", "c"}, {"b", "c", "d"}), ({"a"}, set())],
        ids=["both-empty", "disjoint", "overlapping", "one-empty"],
    )
    def test_stored_partner_scores_like_a_set(self, left, right):
        """A profile-map partner carries its tokens as a tuple (and packed
        ids); the score must not depend on that form."""
        dictionary = TokenDictionary()
        right_profile = profile(2, right)
        stored = stored_form(
            replace(right_profile, token_ids=dictionary.intern_set(right_profile.tokens))
        )
        assert type(stored.tokens) is tuple
        on_sets = IncrementalTfIdfComparator()
        on_stored = IncrementalTfIdfComparator()
        for comparator in (on_sets, on_stored):
            comparator.observe(profile(3, {"a", "z"}))
        expected = on_sets.score(profile(1, left), right_profile)
        assert on_stored.score(profile(1, left), stored) == expected
        assert on_stored.score(stored, profile(1, left)) == on_sets.score(
            right_profile, profile(1, left)
        )

    def test_rare_shared_token_outweighs_common_one(self):
        comparator = IncrementalTfIdfComparator()
        # Make "common" appear in many documents, "rare" in few.
        for i in range(50):
            comparator.observe(profile(100 + i, {"common", f"noise{i}"}))
        share_rare = comparator.score(
            profile(1, {"rare", "x"}), profile(2, {"rare", "y"})
        )
        share_common = comparator.score(
            profile(3, {"common", "x2"}), profile(4, {"common", "y2"})
        )
        assert share_rare > share_common

    def test_symmetric(self):
        comparator = IncrementalTfIdfComparator()
        a, b = profile(1, {"a", "b", "c"}), profile(2, {"b", "c", "d"})
        assert comparator.score(a, b) == pytest.approx(comparator.score(b, a))

    def test_bounded_unit_interval(self):
        comparator = IncrementalTfIdfComparator()
        for i in range(10):
            comparator.observe(profile(i, {f"t{i}", "shared"}))
        s = comparator.score(profile(90, {"shared", "t1"}), profile(91, {"shared"}))
        assert 0.0 <= s <= 1.0

    def test_matches_closed_form(self):
        import math

        comparator = IncrementalTfIdfComparator()
        a, b = profile(1, {"a", "b"}), profile(2, {"b", "c"})
        # Two documents: df(a)=df(c)=1, df(b)=2, N=2.
        idf_rare = math.log(1 + 2 / 1)
        idf_shared = math.log(1 + 2 / 2)
        expected = idf_shared / (idf_shared + 2 * idf_rare)
        assert comparator.score(a, b) == pytest.approx(expected)


class TestPipelineIntegration:
    def test_usable_as_pipeline_comparator(self, tiny_dirty_dataset):
        from repro.classification import ThresholdClassifier
        from repro.core import StreamERConfig, StreamERPipeline

        ds = tiny_dirty_dataset
        config = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            comparator=IncrementalTfIdfComparator(),  # type: ignore[arg-type]
            classifier=ThresholdClassifier(0.5),
        )
        pipeline = StreamERPipeline(config, instrument=False)
        result = pipeline.process_many(ds.stream())
        assert result.matches
