"""Unit tests for the pipeline stages, including the paper's worked example
of Figure 4 (block pruning with α=5 and block ghosting with β=0.6)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.stages import (
    BlockBuildingStage,
    BlockGhostingStage,
    BlockedEntity,
    CandidateComparisons,
    ClassificationStage,
    CleanedComparisons,
    ComparisonCleaningStage,
    ComparisonGenerationStage,
    ComparisonStage,
    DataReadingStage,
    LoadManagementStage,
    MaterializedComparisons,
)
from repro.classification import ThresholdClassifier
from repro.core.state import Blacklist, BlockCollection, ProfileStore
from repro.errors import UnknownProfileError
from repro.types import Comparison, Profile, ScoredComparison


def view(*ids):
    """A ``(block, n)`` snapshot of exactly ``ids`` (what ``f_bb+bp`` hands out)."""
    return list(ids), len(ids)


def snapshot(blocked):
    """``B_ei`` with every snapshot materialized, for equality assertions."""
    return {key: block[:n] for key, (block, n) in blocked.others.items()}


def make_profile(eid, tokens, source=None):
    return Profile(
        eid=eid,
        attributes=(("v", " ".join(sorted(tokens))),),
        tokens=frozenset(tokens),
        source=source,
    )


class TestDataReadingStage:
    def test_produces_profile_with_keys(self, paper_entities):
        stage = DataReadingStage()
        p1 = stage(paper_entities[0])
        assert p1.eid == 1
        assert {"wood", "top", "panel", "pavilion", "john"} <= p1.tokens


class TestBlockBuildingStage:
    def test_registers_profile_before_joining_blocks(self):
        log = []

        class Profiles(ProfileStore):
            def put(self, profile):
                log.append(("put", profile.eid))
                super().put(profile)

        class Blocks(BlockCollection):
            def add_all(self, keys, eid):
                log.extend(("add", eid) for _ in keys)
                return super().add_all(keys, eid)

        backend = SimpleNamespace(
            profiles=Profiles(), blocks=Blocks(), blacklist=Blacklist()
        )
        stage = BlockBuildingStage(alpha=10, backend=backend)
        p1 = make_profile(1, {"a", "b"})
        stage(p1)
        assert log == [("put", 1), ("add", 1), ("add", 1)]
        assert backend.profiles.get(1) is p1

    def test_adds_entity_to_all_key_blocks(self):
        stage = BlockBuildingStage(alpha=10)
        stage(make_profile(1, {"a", "b"}))
        assert stage.blocks.block("a") == [1]
        assert stage.blocks.block("b") == [1]

    def test_singletons_removed_from_snapshot_but_kept_globally(self):
        stage = BlockBuildingStage(alpha=10)
        out = stage(make_profile(1, {"a"}))
        assert out.others == {}          # snapshot: no partner yet
        assert stage.blocks.block("a") == [1]  # global: kept (may grow)

    def test_snapshot_contains_earlier_members(self):
        stage = BlockBuildingStage(alpha=10)
        stage(make_profile(1, {"a"}))
        out = stage(make_profile(2, {"a"}))
        assert snapshot(out) == {"a": [1]}
        assert out.block_size("a") == 2

    def test_snapshot_is_a_view_that_later_arrivals_do_not_change(self):
        stage = BlockBuildingStage(alpha=10)
        stage(make_profile(1, {"a"}))
        out = stage(make_profile(2, {"a"}))
        members = stage.blocks.block("a")
        assert out.others["a"][0] is members  # nothing was copied
        stage(make_profile(3, {"a"}))
        assert members == [1, 2, 3]
        assert out.others["a"][1] == 1
        assert snapshot(out) == {"a": [1]}

    def test_snapshot_survives_pruning_of_its_block(self):
        stage = BlockBuildingStage(alpha=4)
        stage(make_profile(1, {"k"}))
        stage(make_profile(2, {"k"}))
        held = stage(make_profile(3, {"k"}))
        stage(make_profile(4, {"k"}))  # reaches α: the block is detached
        assert "k" not in stage.blocks and "k" in stage.blacklist
        stage(make_profile(5, {"k"}))  # blacklisted: the old list stays as is
        assert snapshot(held) == {"k": [1, 2]}

    def test_snapshot_survives_discard_from_its_block(self):
        stage = BlockBuildingStage(alpha=10)
        for eid in (1, 2, 3):
            held = stage(make_profile(eid, {"k"}))
        assert stage.blocks.discard("k", 1)
        assert stage.blocks.block("k") == [2, 3]
        assert snapshot(held) == {"k": [1, 2]}

    def test_block_pruning_at_alpha(self):
        stage = BlockBuildingStage(alpha=3)
        stage(make_profile(1, {"k"}))
        stage(make_profile(2, {"k"}))
        out = stage(make_profile(3, {"k"}))  # reaches size 3 = α → pruned
        assert "k" not in stage.blocks
        assert "k" in stage.blacklist
        assert out.others == {}
        assert stage.pruned_blocks == 1

    def test_blacklisted_key_is_skipped_for_later_entities(self):
        stage = BlockBuildingStage(alpha=2)
        stage(make_profile(1, {"k"}))
        stage(make_profile(2, {"k"}))  # prunes and blacklists "k"
        out = stage(make_profile(3, {"k"}))
        assert "k" not in stage.blocks
        assert out.others == {}

    def test_disabled_pruning_keeps_oversized_blocks(self):
        stage = BlockBuildingStage(alpha=2, enabled=False)
        for eid in range(5):
            out = stage(make_profile(eid, {"k"}))
        assert len(stage.blocks.block("k")) == 5
        assert snapshot(out) == {"k": [0, 1, 2, 3]}

    def test_paper_example_pavilion_pruned_at_e5(self, paper_entities):
        dr = DataReadingStage()
        bb = BlockBuildingStage(alpha=5)
        outputs = [bb(dr(e)) for e in paper_entities]
        # Processing e5 makes "pavilion" reach size 5 = α → pruned (the
        # paper's narrative; faithfully applying Algorithm 1 also prunes
        # "panel", which reaches size 5 with e5 as well).
        assert "pavilion" in bb.blacklist
        assert "panel" in bb.blacklist
        assert "pavilion" not in bb.blocks
        assert "pavilion" not in outputs[-1].others
        # The singleton "side" block is not part of e5's snapshot either.
        assert "side" not in outputs[-1].others
        # Surviving snapshot: the "wood" block (e1's "wooden" and e5's
        # "timber" both standardized to "wood", as in Figure 2).
        assert set(outputs[-1].others) == {"wood"}
        assert set(snapshot(outputs[-1])["wood"]) == {1, 3}


class TestBlockGhostingStage:
    def test_keeps_all_when_within_threshold(self):
        stage = BlockGhostingStage(beta=0.5)
        blocked = BlockedEntity(
            profile=make_profile(9, {"a", "b"}),
            others={"a": view(1), "b": view(2, 3)},
        )
        out = stage(blocked)
        assert set(out.others) == {"a", "b"}
        assert stage.ghosted_keys == 0

    def test_ghosts_keys_of_general_blocks(self):
        stage = BlockGhostingStage(beta=0.6)
        # b_min = 2, threshold = 2/0.6 ≈ 3.33 → the size-4 block is ghosted.
        blocked = BlockedEntity(
            profile=make_profile(9, set("ab")),
            others={"small": view(1), "big": view(1, 2, 3)},
        )
        out = stage(blocked)
        assert set(out.others) == {"small"}
        assert stage.ghosted_keys == 1

    def test_smallest_block_never_ghosted(self):
        stage = BlockGhostingStage(beta=0.01)
        blocked = BlockedEntity(
            profile=make_profile(9, {"a"}), others={"only": view(1, 2, 3, 4)}
        )
        out = stage(blocked)
        assert set(out.others) == {"only"}

    def test_empty_snapshot_is_noop(self):
        stage = BlockGhostingStage(beta=0.5)
        blocked = BlockedEntity(profile=make_profile(9, set()), others={})
        assert stage(blocked).others == {}

    def test_paper_example_e4_pavilion_ghosted(self, paper_entities):
        """At e4, b_min = 2 ("fibre"), pavilion has size 4 > 2/0.6 → ghosted.

        The paper walks through exactly this pruning for "pavilion"; with
        all five entities sharing "panel" that block is size 4 at e4 too,
        so Algorithm 2 ghosts it as well — the surviving snapshot is the
        two discriminative blocks "fibre" and "glass".
        """
        dr = DataReadingStage()
        bb = BlockBuildingStage(alpha=5)
        bg = BlockGhostingStage(beta=0.6)
        out = None
        for e in paper_entities[:4]:
            out = bg(bb(dr(e)))
        assert out is not None
        assert "pavilion" not in out.others
        assert set(out.others) == {"fibre", "glass"}
        assert set(snapshot(out)["fibre"]) == {2}


class TestComparisonGenerationStage:
    def test_emits_partner_per_shared_block(self):
        stage = ComparisonGenerationStage()
        blocked = BlockedEntity(
            profile=make_profile(9, set()),
            others={"a": view(1, 2), "b": view(2)},
        )
        out = stage(blocked)
        assert sorted(out.candidates, key=repr) == [1, 2, 2]
        assert stage.generated == 3

    def test_clean_clean_skips_same_source(self):
        stage = ComparisonGenerationStage(clean_clean=True)
        blocked = BlockedEntity(
            profile=make_profile(("x", 9), set()),
            others={"a": view(("x", 1), ("y", 2))},
        )
        out = stage(blocked)
        assert out.candidates == [("y", 2)]

    def test_skips_self(self):
        stage = ComparisonGenerationStage()
        blocked = BlockedEntity(profile=make_profile(9, set()), others={"a": view(9, 1)})
        assert stage(blocked).candidates == [1]


class TestComparisonCleaningStage:
    def test_keeps_counts_at_or_above_average(self):
        stage = ComparisonCleaningStage()
        generated = CandidateComparisons(
            profile=make_profile(4, set()), candidates=[1, 2, 2]
        )
        out = stage(generated)
        # counts: 1→1, 2→2; avg = 1.5 → only 2 survives (the paper's C'_4).
        assert out.candidates == [2]

    def test_all_equal_counts_all_survive(self):
        stage = ComparisonCleaningStage()
        generated = CandidateComparisons(
            profile=make_profile(4, set()), candidates=[1, 2, 3]
        )
        assert sorted(stage(generated).candidates) == [1, 2, 3]

    def test_empty_input(self):
        stage = ComparisonCleaningStage()
        generated = CandidateComparisons(profile=make_profile(4, set()), candidates=[])
        assert stage(generated).candidates == []

    def test_counts_with_multiplicity(self):
        stage = ComparisonCleaningStage()
        generated = CandidateComparisons(
            profile=make_profile(4, set()), candidates=["b", "a", "b", "c", "b"]
        )
        # counts: b→3, a→1, c→1; avg = 5/3 → only b survives.
        assert stage(generated).candidates == ["b"]
        assert stage.retained == 1

    def test_first_occurrence_order(self):
        stage = ComparisonCleaningStage()
        generated = CandidateComparisons(
            profile=make_profile(4, set()), candidates=["z", "a", "m", "z", "a", "m"]
        )
        assert stage(generated).candidates == ["z", "a", "m"]


class TestLoadManagementStage:
    def test_resolves_without_writing(self):
        profiles = ProfileStore()
        p1 = make_profile(1, {"a"})
        profiles.put(p1)
        stage = LoadManagementStage(backend=SimpleNamespace(profiles=profiles))
        p2 = make_profile(2, {"a"})
        out = stage(CleanedComparisons(profile=p2, candidates=[1]))
        assert out.partners == [p1]
        assert out.partners[0] is p1  # a non-interned profile is stored as is
        assert 2 not in profiles and len(profiles) == 1

    def test_unknown_partner_raises(self):
        stage = LoadManagementStage()
        with pytest.raises(UnknownProfileError):
            stage(CleanedComparisons(profile=make_profile(2, set()), candidates=[99]))


class TestComparisonStage:
    def test_scores_jaccard(self):
        stage = ComparisonStage()
        a, b = make_profile(1, {"x", "y"}), make_profile(2, {"y", "z"})
        out = stage(MaterializedComparisons(profile=a, partners=[b]))
        assert out.scored[0].similarity == pytest.approx(1 / 3)
        assert stage.compared == 1


class TestClassificationStage:
    def test_collects_new_matches_only(self):
        stage = ClassificationStage(ThresholdClassifier(0.5))
        a, b = make_profile(1, {"x"}), make_profile(2, {"x"})
        scored = ScoredComparison(Comparison(a, b), similarity=1.0)
        from repro.core.stages import ScoredComparisons

        first = stage(ScoredComparisons(profile=a, scored=[scored]))
        second = stage(ScoredComparisons(profile=a, scored=[scored]))
        assert len(first) == 1
        assert second == []  # duplicate pair not re-reported
        assert len(stage.matches) == 1
