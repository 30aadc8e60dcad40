"""Incrementally maintained TF-IDF weighted similarity.

An extension comparator for the comparison stage: instead of plain Jaccard
over token sets, weigh each token by its inverse document frequency so
that sharing a rare token counts far more than sharing a stop-word-ish
one.  Document frequencies are maintained *incrementally* as profiles flow
through the stage — no second pass over the data, matching the dynamic-
data setting.

The measure is the soft (weighted) Jaccard

    sim(a, b) = Σ_{t ∈ a∩b} idf(t) / Σ_{t ∈ a∪b} idf(t)

with idf(t) = log(1 + N / df(t)).  It is symmetric, in [0, 1], and reduces
to plain Jaccard when all tokens are equally frequent.
"""

from __future__ import annotations

import math

from repro.types import Comparison, EntityId, Profile, ScoredComparison


class IncrementalTfIdfComparator:
    """Weighted-Jaccard comparator with online document frequencies.

    Each distinct profile is counted once into the document-frequency
    table the first time the comparator sees it (either side of a
    comparison), so the statistics track exactly the profiles the pipeline
    has processed so far.
    """

    def __init__(self) -> None:
        self._df: dict[str, int] = {}
        self._documents = 0
        self._seen: set[EntityId] = set()

    @property
    def documents(self) -> int:
        """Number of distinct profiles folded into the statistics."""
        return self._documents

    def observe(self, profile: Profile) -> None:
        """Count a profile into the document frequencies (idempotent)."""
        if profile.eid in self._seen:
            return
        self._seen.add(profile.eid)
        self._documents += 1
        for token in profile.tokens:
            self._df[token] = self._df.get(token, 0) + 1

    def idf(self, token: str) -> float:
        """log(1 + N/df); unseen tokens get the maximum weight."""
        df = self._df.get(token, 0)
        if df == 0:
            return math.log(1.0 + max(self._documents, 1))
        return math.log(1.0 + self._documents / df)

    def score(self, left: Profile, right: Profile) -> float:
        self.observe(left)
        self.observe(right)
        # A profile-map partner's tokens are a tuple: take both as sets.
        a, b = frozenset(left.tokens), frozenset(right.tokens)
        union = a | b
        if not union:
            return 1.0
        inter = a & b
        union_weight = sum(self.idf(t) for t in union)
        if union_weight <= 0.0:
            return 0.0
        return sum(self.idf(t) for t in inter) / union_weight

    def compare(self, comparison: Comparison) -> ScoredComparison:
        sim = self.score(comparison.left, comparison.right)
        return ScoredComparison(comparison=comparison, similarity=sim)
