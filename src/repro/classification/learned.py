"""A learned match classifier: logistic regression over similarity features.

The paper treats classification as a pluggable final step and evaluates
with a ground-truth oracle; production systems typically use a learned
model over several similarity signals.  This module provides exactly
that, self-contained (numpy only):

* :func:`pair_features` — a feature vector per profile pair: four set
  similarities over tokens, attribute-weighted similarity, and size
  signals;
* :class:`LogisticMatcher` — L2-regularized logistic regression trained
  by batch gradient descent on labeled pairs;
* :class:`LearnedClassifier` — the pipeline-facing adapter implementing
  the :class:`~repro.classification.classifiers.Classifier` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.comparison.comparator import AttributeWeightedComparator
from repro.comparison.similarity import cosine, dice, jaccard, overlap
from repro.errors import ConfigurationError
from repro.types import Match, Profile, ScoredComparison

FEATURE_NAMES: tuple[str, ...] = (
    "jaccard",
    "dice",
    "overlap",
    "cosine",
    "attribute_weighted",
    "size_ratio",
    "log_common_tokens",
)


def pair_features(left: Profile, right: Profile) -> np.ndarray:
    """The fixed feature vector of a profile pair (see FEATURE_NAMES).

    Either side may be a profile-map partner, whose tokens are a tuple;
    both are taken as sets, so ``a == b`` compares contents.
    """
    a, b = frozenset(left.tokens), frozenset(right.tokens)
    common = len(a & b)
    size_ratio = (
        min(len(a), len(b)) / max(len(a), len(b)) if a and b else float(a == b)
    )
    return np.array(
        [
            jaccard(a, b),
            dice(a, b),
            overlap(a, b),
            cosine(a, b),
            AttributeWeightedComparator().score(left, right),
            size_ratio,
            np.log1p(common),
        ],
        dtype=np.float64,
    )


@dataclass
class LogisticMatcher:
    """L2-regularized logistic regression, batch gradient descent.

    Small and dependency-free on purpose: the training sets here are
    thousands of pairs, where a closed-loop GD converges in milliseconds.
    """

    learning_rate: float = 0.5
    epochs: int = 300
    l2: float = 1e-3
    weights: np.ndarray | None = field(default=None, repr=False)
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be non-negative")

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))

    def fit(self, features: np.ndarray, labels: Sequence[int]) -> "LogisticMatcher":
        """Train on an (n, d) feature matrix and binary labels."""
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ConfigurationError("features must be (n, d) aligned with labels")
        if len(np.unique(y)) < 2:
            raise ConfigurationError("training data needs both classes")
        n, d = X.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.epochs):
            p = self._sigmoid(X @ w + b)
            error = p - y
            w -= self.learning_rate * ((X.T @ error) / n + self.l2 * w)
            b -= self.learning_rate * float(error.mean())
        self.weights = w
        self.bias = b
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Match probabilities for an (n, d) feature matrix."""
        if self.weights is None:
            raise ConfigurationError("matcher is not trained")
        X = np.asarray(features, dtype=np.float64)
        return self._sigmoid(X @ self.weights + self.bias)

    def probability(self, left: Profile, right: Profile) -> float:
        """Match probability of one profile pair."""
        return float(self.predict_proba(pair_features(left, right)[None, :])[0])


@dataclass
class LearnedClassifier:
    """Pipeline classifier backed by a trained :class:`LogisticMatcher`.

    Classifies a pair as a match when the model's probability clears
    ``threshold``; the reported match similarity is the probability.
    """

    matcher: LogisticMatcher
    threshold: float = 0.5

    @classmethod
    def train(
        cls,
        labeled_pairs: Iterable[tuple[Profile, Profile, bool]],
        threshold: float = 0.5,
        matcher: LogisticMatcher | None = None,
    ) -> "LearnedClassifier":
        """Fit from (left profile, right profile, is_match) triples."""
        triples = list(labeled_pairs)
        if not triples:
            raise ConfigurationError("need labeled pairs to train")
        X = np.stack([pair_features(l, r) for l, r, _ in triples])
        y = [1 if is_match else 0 for _, _, is_match in triples]
        matcher = matcher or LogisticMatcher()
        matcher.fit(X, y)
        return cls(matcher=matcher, threshold=threshold)

    def classify(self, scored: ScoredComparison) -> Match | None:
        left = scored.comparison.left
        right = scored.comparison.right
        probability = self.matcher.probability(left, right)
        if probability >= self.threshold:
            return Match(left=left.eid, right=right.eid, similarity=probability)
        return None
