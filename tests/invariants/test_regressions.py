"""Shrunk regression cases for state-drift bugs the invariant checker found.

The sliding-window pipeline mishandled *re-arrivals*: an identifier seen
again while still inside the window got a second slot in the eviction
queue while ``_keys_of`` was overwritten.  Evicting the first slot then
retired the live entity's profile and block memberships — later arrivals
sharing a block with it hit ``UnknownProfileError``, and in other
interleavings the state kept stale block memberships that
``blocked-entities-have-profiles`` flags.  The cases below are the
minimal streams that reproduced it.
"""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.errors import InvariantViolation
from repro.invariants import InvariantChecker
from repro.streaming import SlidingWindowERPipeline, UpdateAwareERPipeline
from repro.types import EntityDescription


def config() -> StreamERConfig:
    return StreamERConfig(alpha=1000, beta=0.3, classifier=ThresholdClassifier(0.3))


def check_state_of(pipeline: StreamERPipeline) -> InvariantChecker:
    checker = InvariantChecker(mode="raise")
    checker.bind(pipeline.config, pipeline.backend)
    checker.check_state()
    return checker


class TestWindowReArrivalRegression:
    """Minimal counterexample: window=2, stream e1 e2 e1' e3 e4.

    Pre-fix, e1's re-arrival left two queue slots for id 1; e3's arrival
    evicted the first slot and with it the *live* profile and blocks of 1,
    so e4 (sharing a block with 1) failed with ``UnknownProfileError``.
    """

    STREAM = [
        EntityDescription.create(1, {"desc": "glass roof"}),
        EntityDescription.create(2, {"desc": "steel frame"}),
        EntityDescription.create(1, {"desc": "glass roof panel"}),
        EntityDescription.create(3, {"desc": "wood door"}),
        EntityDescription.create(4, {"desc": "glass roof panel"}),
    ]

    def test_rearrival_does_not_corrupt_the_window(self):
        window = SlidingWindowERPipeline(config(), window=2)
        matches = window.process_many(self.STREAM)
        assert {m.key() for m in matches} == {(1, 4)}
        assert window.current_window == [3, 4]

    def test_rearrival_gets_a_fresh_slot_not_a_second_one(self):
        window = SlidingWindowERPipeline(config(), window=3)
        for entity in self.STREAM[:3]:
            window.process(entity)
        assert window.current_window == [2, 1]
        assert window.stats.evicted_entities == 0

    def test_state_invariants_hold_after_rearrivals(self):
        window = SlidingWindowERPipeline(config(), window=2)
        window.process_many(self.STREAM)
        checker = check_state_of(window.pipeline)
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_invariant_catches_the_prefix_corruption_pattern(self):
        """The bug's signature — a blocked id with no profile — is exactly
        what ``blocked-entities-have-profiles`` rejects."""
        window = SlidingWindowERPipeline(config(), window=2)
        window.process_many(self.STREAM)
        # Reproduce the pre-fix effect by hand: drop a live profile while
        # its block memberships survive.
        live = window.current_window[0]
        window.pipeline.lm.profiles.remove(live)
        with pytest.raises(InvariantViolation) as excinfo:
            check_state_of(window.pipeline)
        assert excinfo.value.invariant == "blocked-entities-have-profiles"

    def test_eviction_stats_distinguish_retire_from_evict(self):
        """A re-arrival retires old state but is not a window eviction."""
        window = SlidingWindowERPipeline(config(), window=10)
        window.process_many(self.STREAM[:3])  # e1 e2 e1'
        assert window.stats.evicted_entities == 0
        assert window.stats.removed_assignments > 0  # e1's old blocks


class TestReArrivalLeavesHeldViewsAlone:
    """Retiring an entity shrinks blocks through ``discard``.  A message
    still in flight may hold ``(block, n)`` snapshots of those blocks, so
    the shrink must never show through a snapshot taken before it."""

    STREAM = TestWindowReArrivalRegression.STREAM + [
        EntityDescription.create(2, {"desc": "glass roof frame"}),
        EntityDescription.create(4, {"desc": "steel frame"}),
        EntityDescription.create(5, {"desc": "glass roof panel"}),
    ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SlidingWindowERPipeline(config(), window=2),
            lambda: SlidingWindowERPipeline(config(), window=100),
            lambda: UpdateAwareERPipeline(config()),
        ],
        ids=["window-2", "window-100", "update-aware"],
    )
    def test_views_taken_before_a_retire_still_read_the_same(self, make):
        wrapper = make()
        blocks = wrapper.pipeline.bb.blocks
        held: list[tuple[str, tuple[list, int], list]] = []
        for entity in self.STREAM:
            wrapper.process(entity)
            profile = wrapper.pipeline.lm.profiles.get(entity.eid)
            for key in profile.tokens:
                members = blocks.block(key)
                if members:
                    held.append((key, (members, len(members)), members.copy()))
        # The scenario is live: some viewed block was shrunk after the view.
        assert any(blocks.block(key) is not view[0] for key, view, _ in held)
        for _, (block, n), seen in held:
            assert block[:n] == seen
        assert not check_state_of(wrapper.pipeline).violations


class TestBlockCounterDrift:
    """The O(1) counters must survive any interleaving of the three
    sanctioned mutations (add / discard / remove_block) — the recounting
    invariant is the oracle."""

    def test_randomized_mutation_sequence_keeps_counters_exact(self):
        import random

        from repro.core.state import BlockCollection
        from repro.invariants import StateView, get_invariant

        rng = random.Random(2021)
        blocks = BlockCollection()
        keys = [f"k{i}" for i in range(6)]
        check = get_invariant("block-counters-consistent").check
        for step in range(300):
            op = rng.random()
            key = rng.choice(keys)
            if op < 0.3:
                blocks.add(key, rng.randrange(20))
            elif op < 0.6:
                blocks.add_all(rng.sample(keys, rng.randrange(4)), rng.randrange(20))
            elif op < 0.9:
                members = blocks.block(key)
                eid = rng.choice(members) if members else rng.randrange(20)
                blocks.discard(key, eid)
            else:
                blocks.remove_block(key)
            if step % 25 == 0:
                view = StateView(
                    config=None,
                    backend=type("B", (), {"blocks": blocks})(),
                )
                check(view)  # raises InvariantViolation on drift

    def test_windowed_eviction_keeps_counters_exact(self):
        vocab = ["glass", "panel", "wood", "roof", "steel", "frame"]
        stream = [
            EntityDescription.create(
                i, {"desc": f"{vocab[i % 6]} {vocab[(i + 2) % 6]}"}
            )
            for i in range(30)
        ]
        window = SlidingWindowERPipeline(config(), window=5)
        window.process_many(stream)
        assert window.stats.evicted_entities == 25
        checker = check_state_of(window.pipeline)
        assert not checker.violations
