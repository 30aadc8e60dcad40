"""Tests for the learned match classifier."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.classification import (
    FEATURE_NAMES,
    LearnedClassifier,
    LogisticMatcher,
    ThresholdClassifier,
    pair_features,
)
from repro.core.state import stored_form
from repro.errors import ConfigurationError
from repro.reading import TokenDictionary
from repro.reading.profiles import ProfileBuilder
from repro.types import Comparison, Profile, ScoredComparison


def profile(eid, tokens, attrs=()):
    return Profile(eid=eid, attributes=tuple(attrs), tokens=frozenset(tokens))


def labeled_training_data(n_pairs=150, seed=3):
    """Synthetic labeled pairs: matches share most tokens, others few."""
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(300)]
    triples = []
    for index in range(n_pairs):
        base = set(rng.sample(vocab, 8))
        if index % 2 == 0:  # match: perturb lightly
            other = set(base)
            other.discard(next(iter(other)))
            other.add(rng.choice(vocab))
            triples.append((profile(f"a{index}", base), profile(f"b{index}", other), True))
        else:  # non-match: small random overlap
            other = set(rng.sample(vocab, 8))
            triples.append((profile(f"a{index}", base), profile(f"b{index}", other), False))
    return triples


class TestPairFeatures:
    def test_shape_and_names_agree(self):
        features = pair_features(profile(1, {"a"}), profile(2, {"a", "b"}))
        assert features.shape == (len(FEATURE_NAMES),)

    def test_identical_profiles_strong_signal(self):
        a = profile(1, {"x", "y", "z"})
        b = profile(2, {"x", "y", "z"})
        features = pair_features(a, b)
        assert features[0] == 1.0  # jaccard
        assert features[5] == 1.0  # size ratio

    def test_disjoint_profiles_weak_signal(self):
        features = pair_features(profile(1, {"x"}), profile(2, {"y"}))
        assert features[0] == 0.0
        assert features[6] == 0.0  # log1p(0)

    @pytest.mark.parametrize(
        "left, right",
        [
            (set(), set()),  # both empty: size ratio 1.0
            ({"x"}, {"y"}),  # disjoint
            ({"x", "y", "z"}, {"y", "z", "w"}),
            ({"x"}, set()),
        ],
        ids=["both-empty", "disjoint", "overlapping", "one-empty"],
    )
    def test_stored_partner_gives_the_same_features(self, left, right):
        """A profile-map partner carries its tokens as a tuple (and packed
        ids); the features must not depend on that form."""
        dictionary = TokenDictionary()
        a = profile(1, left, [("t", " ".join(sorted(left)))])
        b = profile(2, right, [("t", " ".join(sorted(right)))])
        b_interned = replace(b, token_ids=dictionary.intern_set(b.tokens))
        stored = stored_form(b_interned)
        assert type(stored.tokens) is tuple
        expected = pair_features(a, b)
        assert pair_features(a, stored).tolist() == expected.tolist()
        assert pair_features(stored, a).tolist() == pair_features(b, a).tolist()
        if not left and not right:
            assert expected[5] == 1.0


class TestLogisticMatcher:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LogisticMatcher(learning_rate=0)
        with pytest.raises(ConfigurationError):
            LogisticMatcher(epochs=0)
        with pytest.raises(ConfigurationError):
            LogisticMatcher(l2=-1)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ConfigurationError, match="not trained"):
            LogisticMatcher().predict_proba(np.zeros((1, 7)))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).random((10, 3))
        with pytest.raises(ConfigurationError, match="both classes"):
            LogisticMatcher().fit(X, [1] * 10)

    def test_learns_linearly_separable_data(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        matcher = LogisticMatcher(epochs=500).fit(X, y)
        predictions = (matcher.predict_proba(X) > 0.5).astype(int)
        assert (predictions == y).mean() > 0.95


class TestLearnedClassifier:
    def test_train_requires_data(self):
        with pytest.raises(ConfigurationError):
            LearnedClassifier.train([])

    def test_separates_matches_from_non_matches(self):
        triples = labeled_training_data()
        classifier = LearnedClassifier.train(triples)
        correct = 0
        for left, right, is_match in triples:
            scored = ScoredComparison(Comparison(left, right), similarity=0.0)
            predicted = classifier.classify(scored) is not None
            correct += predicted == is_match
        assert correct / len(triples) > 0.9

    def test_match_similarity_is_probability(self):
        classifier = LearnedClassifier.train(labeled_training_data())
        a = profile("x", {"tok1", "tok2", "tok3"})
        scored = ScoredComparison(Comparison(a, profile("y", {"tok1", "tok2", "tok3"})), 0.0)
        match = classifier.classify(scored)
        assert match is not None
        assert 0.5 <= match.similarity <= 1.0

    def test_usable_in_pipeline(self, tiny_dirty_dataset):
        from repro.core import StreamERConfig, StreamERPipeline

        ds = tiny_dirty_dataset
        builder = ProfileBuilder()
        by_id = {e.eid: builder.build(e) for e in ds.entities}
        truth = set(ds.ground_truth)
        # Label a small training sample: true pairs + random negatives.
        rng = random.Random(5)
        ids = sorted(by_id)
        positives = [
            (by_id[i], by_id[j], True) for i, j in list(truth)[:80]
        ]
        negatives = []
        while len(negatives) < 80:
            i, j = rng.sample(ids, 2)
            if tuple(sorted((i, j))) not in truth:
                negatives.append((by_id[i], by_id[j], False))
        classifier = LearnedClassifier.train(positives + negatives)

        pipeline = StreamERPipeline(
            StreamERConfig(
                alpha=StreamERConfig.alpha_for(len(ds), 0.05),
                beta=0.05,
                classifier=classifier,
            ),
            instrument=False,
        )
        result = pipeline.process_many(ds.stream())
        found = result.match_pairs
        assert found  # the learned model finds duplicates
        precision = len(found & {tuple(sorted(p)) for p in truth}) / len(found)
        assert precision > 0.8
