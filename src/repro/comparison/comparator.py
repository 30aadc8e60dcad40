"""Profile comparators: turn a pair of profiles into a similarity score.

The default comparator follows the paper's evaluation setup — Jaccard
similarity over the standardized token sets of the two profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comparison.similarity import SetSimilarity, get_set_similarity, jaccard
from repro.types import Comparison, Profile, ScoredComparison


@dataclass(frozen=True)
class TokenSetComparator:
    """Similarity over profile token sets (Jaccard by default)."""

    similarity: SetSimilarity = field(default=jaccard)

    @classmethod
    def named(cls, name: str) -> "TokenSetComparator":
        """Construct with a named similarity ('jaccard', 'dice', ...)."""
        return cls(similarity=get_set_similarity(name))

    def score(self, left: Profile, right: Profile) -> float:
        # An interned profile's tokens are a tuple (its stored form); a
        # set of the left side is all the intersection needs, and costs
        # nothing on the string path, where it already is one.
        return self.similarity(frozenset(left.tokens), right.tokens)

    def compare(self, comparison: Comparison) -> ScoredComparison:
        """Score a comparison tuple, preserving its identity."""
        sim = self.score(comparison.left, comparison.right)
        return ScoredComparison(comparison=comparison, similarity=sim)


@dataclass(frozen=True)
class AttributeWeightedComparator:
    """Average of per-attribute token similarities over shared attribute names.

    Falls back to whole-profile token similarity when the two profiles share
    no attribute names (the common case with heterogeneous data).

    The per-profile attribute index (name → token set) is memoized: a
    profile is compared against every candidate partner it shares a block
    with, so rebuilding the index on each call did the same splitting work
    dozens of times per entity.  The cache is keyed by object identity and
    pins the profile object itself, so an entry can never be confused with
    a different profile that happens to reuse a freed id; it is bounded and
    cleared wholesale when full (the streaming posture: recent profiles are
    the ones being compared).
    """

    similarity: SetSimilarity = field(default=jaccard)
    cache_size: int = 8192
    _index_cache: dict[int, tuple[Profile, dict[str, set[str]]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _attribute_index(self, profile: Profile) -> dict[str, set[str]]:
        entry = self._index_cache.get(id(profile))
        if entry is not None and entry[0] is profile:
            return entry[1]
        by_name: dict[str, set[str]] = {}
        for name, value in profile.attributes:
            by_name.setdefault(name, set()).update(value.split())
        if len(self._index_cache) >= self.cache_size:
            self._index_cache.clear()
        self._index_cache[id(profile)] = (profile, by_name)
        return by_name

    def score(self, left: Profile, right: Profile) -> float:
        left_by_name = self._attribute_index(left)
        right_by_name = self._attribute_index(right)
        shared = set(left_by_name) & set(right_by_name)
        if not shared:
            return self.similarity(frozenset(left.tokens), right.tokens)
        total = sum(
            self.similarity(left_by_name[name], right_by_name[name]) for name in shared
        )
        return total / len(shared)

    def compare(self, comparison: Comparison) -> ScoredComparison:
        sim = self.score(comparison.left, comparison.right)
        return ScoredComparison(comparison=comparison, similarity=sim)
