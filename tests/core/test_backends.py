"""State backends: the protocol, the state view, and the O(1) size
accounting of :class:`BlockCollection`.

The differential suite proves end-to-end equivalence across executors and
backends; these tests pin the store-level contracts.
"""

from __future__ import annotations

from repro.core.backends import InMemoryBackend, SharedMemoryBackend, StateBackend
from repro.core.state import BlockCollection, ERState
from repro.types import Match


class TestBlockCollectionCounters:
    """sizes()/total_assignments()/total_comparisons() are O(1) counters;
    they must track add/remove_block/discard exactly."""

    def test_add_and_sizes(self):
        blocks = BlockCollection()
        first = blocks.add("k", 1)
        assert first == [1]
        assert blocks.add("k", 2) is first and first == [1, 2]
        assert blocks.add("other", 3) == [3]
        assert dict(blocks.sizes()) == {"k": 2, "other": 1}
        assert blocks.total_assignments() == 3
        assert blocks.total_comparisons() == 1

    def test_remove_block_updates_counters(self):
        blocks = BlockCollection()
        for eid in (1, 2, 3):
            blocks.add("k", eid)
        blocks.add("other", 4)
        blocks.remove_block("k")
        assert "k" not in blocks
        assert dict(blocks.sizes()) == {"other": 1}
        assert blocks.total_assignments() == 1
        assert blocks.total_comparisons() == 0

    def test_discard_updates_counters_and_drops_empty_blocks(self):
        blocks = BlockCollection()
        blocks.add("k", 1)
        blocks.add("k", 2)
        assert blocks.discard("k", 1) is True
        assert dict(blocks.sizes()) == {"k": 1}
        assert blocks.total_assignments() == 1
        assert blocks.total_comparisons() == 0
        assert blocks.discard("k", 99) is False
        assert blocks.discard("k", 2) is True
        assert "k" not in blocks
        assert dict(blocks.sizes()) == {}

    def test_counters_match_recount_after_mixed_operations(self):
        blocks = BlockCollection()
        for i in range(20):
            blocks.add(f"k{i % 4}", i)
        blocks.remove_block("k0")
        blocks.discard("k1", 1)
        recount_assignments = sum(len(b) for _, b in blocks.items())
        recount_comparisons = sum(
            len(b) * (len(b) - 1) // 2 for _, b in blocks.items()
        )
        assert blocks.total_assignments() == recount_assignments
        assert blocks.total_comparisons() == recount_comparisons
        assert dict(blocks.sizes()) == {k: len(b) for k, b in blocks.items()}


class TestBackends:
    def test_both_satisfy_the_protocol(self):
        assert isinstance(InMemoryBackend(), StateBackend)
        with SharedMemoryBackend() as backend:
            assert isinstance(backend, StateBackend)

    def test_state_view_shares_the_stores(self):
        backend = InMemoryBackend()
        backend.matches.add(Match(1, 2))
        state = backend.state()
        assert isinstance(state, ERState)
        assert state.blocks is backend.blocks
        assert state.matches.pairs() == {(1, 2)}
