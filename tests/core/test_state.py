"""Unit tests for the ER state components."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.core import StreamERConfig
from repro.core.backends import DurableBackend
from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
)
from repro.types import Match, Profile


class TestBlockCollection:
    def test_add_creates_block_and_returns_it(self):
        blocks = BlockCollection()
        assert blocks.add("panel", 1) == [1]
        block = blocks.add("panel", 2)
        assert block == [1, 2] and len(block) == 2
        assert block is blocks.block("panel")

    def test_remove_block(self):
        blocks = BlockCollection()
        blocks.add("panel", 1)
        blocks.remove_block("panel")
        assert "panel" not in blocks
        blocks.remove_block("missing")  # no error

    def test_membership_and_len(self):
        blocks = BlockCollection()
        blocks.add("a", 1)
        blocks.add("b", 1)
        assert "a" in blocks
        assert len(blocks) == 2

    def test_sizes_and_assignments(self):
        blocks = BlockCollection()
        for eid in (1, 2, 3):
            blocks.add("a", eid)
        blocks.add("b", 1)
        assert blocks.sizes() == {"a": 3, "b": 1}
        assert blocks.total_assignments() == 4

    def test_total_comparisons(self):
        blocks = BlockCollection()
        for eid in (1, 2, 3):
            blocks.add("a", eid)  # 3 comparisons
        blocks.add("b", 1)  # 0 comparisons
        assert blocks.total_comparisons() == 3

    def test_block_of_missing_key_is_empty(self):
        assert BlockCollection().block("nope") == []

    def test_insertion_order_preserved(self):
        blocks = BlockCollection()
        for eid in (5, 3, 9):
            blocks.add("k", eid)
        assert blocks.block("k") == [5, 3, 9]


class TestBlockPrefix:
    """``f_bb+bp`` snapshots a block as ``(block, n)``: the list itself and
    the prefix length ``n`` it saw.  What the prefix reads never changes."""

    def test_add_all_appends_to_every_key_and_returns_the_blocks(self):
        blocks = BlockCollection()
        blocks.add("a", 1)
        got = blocks.add_all(["a", "b", "c"], 2)
        assert got == [[1, 2], [2], [2]]
        assert got[0] is blocks.block("a") and got[1] is blocks.block("b")
        assert blocks.add_all([], 3) == []
        assert dict(blocks.sizes()) == {"a": 2, "b": 1, "c": 1}
        assert blocks.total_assignments() == 4
        assert blocks.total_comparisons() == 1

    def test_later_appends_do_not_show(self):
        blocks = BlockCollection()
        blocks.add("k", 1)
        block = blocks.add("k", 2)
        prefix = (block, len(block) - 1)
        blocks.add_all(["k"], 3)
        assert prefix[0][: prefix[1]] == [1]
        assert prefix[0] is blocks.block("k")  # a snapshot, not a copy

    @pytest.fixture(params=["memory", "durable"])
    def blocks(self, request, tmp_path):
        if request.param == "memory":
            yield BlockCollection()
        else:
            backend = DurableBackend.open(tmp_path / "wal", StreamERConfig())
            yield backend.blocks
            backend.close()

    def test_discard_rebinds_instead_of_mutating_a_viewed_list(self, blocks):
        for eid in (1, 2, 3, 4):
            blocks.add("k", eid)
        blocks.add("other", 9)
        block, n = blocks.block("k"), 3
        assert blocks.discard("k", 2) is True
        assert block[:n] == [1, 2, 3]  # the snapshot still reads what it saw
        assert blocks.block("k") == [1, 3, 4]
        assert blocks.discard("k", 2) is False
        assert block[:n] == [1, 2, 3]
        # ... and the O(1) counters are still exact.
        assert dict(blocks.sizes()) == {"k": 3, "other": 1}
        assert blocks.total_assignments() == 4
        assert blocks.total_comparisons() == 3
        for eid in (1, 3, 4):
            assert blocks.discard("k", eid) is True
        assert "k" not in blocks
        assert block[:n] == [1, 2, 3]
        assert blocks.total_assignments() == 1
        assert blocks.total_comparisons() == 0

    def test_remove_block_detaches_a_viewed_list(self, blocks):
        for eid in (1, 2, 3):
            blocks.add("k", eid)
        block, n = blocks.block("k"), 2
        blocks.remove_block("k")
        blocks.add("k", 7)  # a new list under the same key
        assert block[:n] == [1, 2]
        assert blocks.block("k") == [7]


class TestBlacklist:
    def test_add_and_contains(self):
        bl = Blacklist()
        bl.add("pavilion")
        assert "pavilion" in bl
        assert "panel" not in bl
        assert len(bl) == 1


class TestProfileStore:
    def _profile(self, eid):
        return Profile(eid=eid, attributes=(), tokens=frozenset())

    def test_put_and_get(self):
        store = ProfileStore()
        p = self._profile(1)
        store.put(p)
        assert store.get(1) is p
        assert 1 in store
        assert len(store) == 1

    def test_get_missing_returns_none(self):
        assert ProfileStore().get(42) is None

    def test_put_overwrites(self):
        store = ProfileStore()
        store.put(self._profile(1))
        newer = self._profile(1)
        store.put(newer)
        assert store.get(1) is newer
        assert len(store) == 1

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
    def test_a_copy_reads_its_own_profiles(self, clone):
        store = ProfileStore()
        store.put(self._profile(1))
        copied = clone(store)
        copied.put(self._profile(2))
        assert copied.get(2) is not None and copied.get(1) is not None
        assert store.get(2) is None and len(store) == 1


class TestMatchStore:
    def test_add_deduplicates_symmetric_pairs(self):
        store = MatchStore()
        assert store.add(Match(left=1, right=2)) is True
        assert store.add(Match(left=2, right=1)) is False
        assert len(store) == 1

    def test_contains_pair_either_order(self):
        store = MatchStore()
        store.add(Match(left=1, right=2))
        assert (1, 2) in store
        assert (2, 1) in store

    def test_matches_returns_copy_in_order(self):
        store = MatchStore()
        store.add(Match(left=3, right=4))
        store.add(Match(left=1, right=2))
        matches = store.matches()
        assert [m.key() for m in matches] == [(3, 4), (1, 2)]
        matches.clear()
        assert len(store) == 2

    def test_pairs_is_canonical(self):
        store = MatchStore()
        store.add(Match(left=9, right=2))
        assert store.pairs() == {(2, 9)}


def test_erstate_default_components_are_fresh():
    a, b = ERState(), ERState()
    a.blocks.add("k", 1)
    assert len(b.blocks) == 0
