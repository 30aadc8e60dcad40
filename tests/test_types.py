"""Unit tests for the core value types."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types import (
    Comparison,
    EntityDescription,
    Match,
    Profile,
    ScoredComparison,
    pair_key,
)


class TestEntityDescription:
    def test_create_from_mapping(self):
        e = EntityDescription.create(1, {"a": "x", "b": "y"})
        assert e.eid == 1
        assert e.attributes == (("a", "x"), ("b", "y"))

    def test_create_from_pairs_preserves_order_and_duplicates(self):
        pairs = [("name", "x"), ("name", "y"), ("z", "1")]
        e = EntityDescription.create("id", pairs)
        assert e.attributes == (("name", "x"), ("name", "y"), ("z", "1"))

    def test_values(self):
        e = EntityDescription.create(1, [("a", "x"), ("b", "y")])
        assert e.values() == ("x", "y")

    def test_is_hashable_and_frozen(self):
        e = EntityDescription.create(1, {"a": "x"})
        assert hash(e) == hash(EntityDescription.create(1, {"a": "x"}))
        with pytest.raises(AttributeError):
            e.eid = 2  # type: ignore[misc]

    def test_create_coerces_non_string_values(self):
        e = EntityDescription.create(1, [("year", 1999)])  # type: ignore[list-item]
        assert e.attributes == (("year", "1999"),)


class TestPairKey:
    def test_orders_ints(self):
        assert pair_key(3, 1) == (1, 3)
        assert pair_key(1, 3) == (1, 3)

    def test_orders_tuples(self):
        assert pair_key(("y", 1), ("x", 2)) == (("x", 2), ("y", 1))

    def test_mixed_unorderable_types_fall_back_to_repr(self):
        a, b = 1, ("x", 2)
        assert pair_key(a, b) == pair_key(b, a)

    @given(st.integers(), st.integers())
    def test_symmetric_for_any_ints(self, a, b):
        assert pair_key(a, b) == pair_key(b, a)


class TestComparisonAndMatch:
    def _profiles(self):
        p1 = Profile(eid=1, attributes=(("a", "x"),), tokens=frozenset({"x"}))
        p2 = Profile(eid=2, attributes=(("a", "y"),), tokens=frozenset({"y"}))
        return p1, p2

    def test_comparison_ids_and_key(self):
        p1, p2 = self._profiles()
        c = Comparison(left=p2, right=p1)
        assert c.ids == (2, 1)
        assert c.key() == (1, 2)

    def test_scored_comparison_carries_similarity(self):
        p1, p2 = self._profiles()
        s = ScoredComparison(comparison=Comparison(left=p1, right=p2), similarity=0.75)
        assert s.similarity == 0.75

    def test_match_key_is_canonical(self):
        assert Match(left=9, right=2).key() == (2, 9)

