"""The invariant checker: registry, enforcement modes, executor wiring."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.stages import (
    BlockedEntity,
    CandidateComparisons,
    ComparisonGenerationStage,
    MaterializedComparisons,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.invariants import (
    InvariantChecker,
    get_invariant,
    invariant_names,
    invariants_for,
)
from repro.types import EntityDescription, Match, Profile


def small_config(**overrides) -> StreamERConfig:
    kwargs = dict(alpha=1000, beta=0.3, classifier=ThresholdClassifier(0.3))
    kwargs.update(overrides)
    return StreamERConfig(**kwargs)


def small_stream(n: int = 8) -> list[EntityDescription]:
    vocab = ["glass", "panel", "wood", "roof", "steel"]
    return [
        EntityDescription.create(
            i, {"title": f"{vocab[i % len(vocab)]} {vocab[(i + 1) % len(vocab)]}"}
        )
        for i in range(n)
    ]


class TestRegistry:
    def test_every_scope_is_populated(self):
        scopes = {get_invariant(name).scope for name in invariant_names()}
        assert scopes == {"state", "stage", "run", "simulation"}

    def test_expected_invariants_registered(self):
        names = set(invariant_names())
        assert {
            "block-counters-consistent",
            "block-sizes-bounded",
            "blacklist-excludes-blocks",
            "dictionary-bijective",
            "blocked-entities-have-profiles",
            "match-store-consistent",
            "bb-snapshot-wellformed",
            "cg-no-self-pairs",
            "cg-multiplicity-conserved",
            "cl-no-self-matches",
            "run-failure-accounting",
            "sim-item-conservation",
        } <= names

    def test_stage_scope_filtering(self):
        assert invariants_for("stage", "cg")
        assert not invariants_for("stage", "no-such-stage")
        assert all(inv.scope == "state" for inv in invariants_for("state"))

    def test_descriptions_present(self):
        for name in invariant_names():
            assert get_invariant(name).description


class TestCheckerConstruction:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            InvariantChecker(mode="audit")

    def test_rejects_nonpositive_state_every(self):
        with pytest.raises(ConfigurationError):
            InvariantChecker(state_every=0)

    def test_unbound_checker_is_inert(self):
        checker = InvariantChecker()
        checker.check_state()
        checker.check_result(object())
        assert checker.checks_performed == 0


class TestSequentialEnforcement:
    def test_clean_run_has_no_violations(self):
        checker = InvariantChecker(mode="raise", state_every=2)
        pipeline = StreamERPipeline(small_config(), checker=checker)
        pipeline.process_many(small_stream())
        checker.finalize(
            pipeline.summary(), expected_entities=pipeline.entities_processed
        )
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_corrupted_counter_raises(self):
        checker = InvariantChecker(mode="raise")
        pipeline = StreamERPipeline(small_config(), checker=checker)
        pipeline.process_many(small_stream())
        # Simulate counter drift: bump a size without touching the block.
        blocks = pipeline.backend.blocks
        key = next(iter(blocks.keys()))
        blocks._sizes[key] += 1
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_state()
        assert excinfo.value.invariant == "block-counters-consistent"

    def test_stale_block_membership_raises(self):
        checker = InvariantChecker(mode="raise")
        pipeline = StreamERPipeline(small_config(), checker=checker)
        pipeline.process_many(small_stream())
        # The pre-fix windowing corruption pattern: a blocked identifier
        # whose profile has been dropped.
        pipeline.backend.blocks.add("glass", 999)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check_state()
        assert excinfo.value.invariant == "blocked-entities-have-profiles"
        assert "999" in excinfo.value.detail

    def test_record_mode_accumulates_without_raising(self):
        checker = InvariantChecker(mode="record")
        pipeline = StreamERPipeline(small_config(), checker=checker)
        pipeline.process_many(small_stream())
        blocks = pipeline.backend.blocks
        blocks.add("glass", 999)  # stale membership: no profile for 999
        blocks._sizes[next(iter(blocks.keys()))] += 1  # counter drift
        checker.check_state()
        assert {v.invariant for v in checker.violations} >= {
            "blocked-entities-have-profiles",
            "block-counters-consistent",
        }
        assert "invariant violation" in checker.report()
        with pytest.raises(InvariantViolation):
            checker.raise_if_violated()

    def test_oversized_block_violates_alpha_bound(self):
        checker = InvariantChecker(mode="record")
        config = small_config(alpha=3, enable_block_cleaning=True)
        pipeline = StreamERPipeline(config, checker=checker)
        pipeline.process_many(small_stream(4))
        for eid in range(100, 105):
            pipeline.backend.profiles.put(
                Profile(eid=eid, attributes=(), tokens=frozenset({"glass"}))
            )
            pipeline.backend.blocks.add("glass", eid)
        checker.check_state()
        assert any(
            v.invariant == "block-sizes-bounded" for v in checker.violations
        )


class TestStageEnforcement:
    def test_self_match_in_cl_output_detected(self):
        checker = InvariantChecker(mode="record")
        checker.bind(small_config(), backend=object())
        checker.observe_stage("cl", [Match(left=1, right=1, similarity=1.0)])
        assert [v.invariant for v in checker.violations] == ["cl-no-self-matches"]
        assert checker.violations[0].stage == "cl"

    @staticmethod
    def blocked(eid, **others) -> BlockedEntity:
        profile = Profile(eid=eid, attributes=(), tokens=frozenset(others))
        return BlockedEntity(profile=profile, others=others)

    def observe(self, stage, payload, source=None, **config):
        checker = InvariantChecker(mode="record")
        checker.bind(small_config(**config), backend=object())
        checker.observe_stage(stage, payload, source)
        return [v.invariant for v in checker.violations]

    def test_wellformed_views_pass_bb_check(self):
        members = [1, 2, 3]
        blocked = self.blocked(
            4, a=(members, 3), b=(members, 1)
        )
        assert self.observe("bb+bp", blocked, alpha=5) == []

    @pytest.mark.parametrize(
        "view",
        [
            ([1, 2], 0),  # a singleton block made it into B_ei
            ([1, 2], 3),  # longer than the list it views
            ([1, 2, 3, 4, 5], 4),  # |b| = 5 = α survived the purge
        ],
        ids=["empty", "overlong", "oversized"],
    )
    def test_malformed_view_fails_bb_check(self, view):
        violations = self.observe("bb+bp", self.blocked(9, k=view), alpha=5)
        assert violations == ["bb-snapshot-wellformed"]

    def test_cg_multiplicity_is_conserved(self):
        blocked = self.blocked(
            9, a=([1, 2, 5], 2), b=([2, 9, 3], 3)
        )
        good = CandidateComparisons(profile=blocked.profile, candidates=[1, 2, 2, 3])
        assert self.observe("cg", good, blocked) == []
        # A member dropped, and a member read past the view's end.
        for candidates in ([1, 2, 3], [1, 2, 5, 2, 3]):
            bad = CandidateComparisons(profile=blocked.profile, candidates=candidates)
            assert self.observe("cg", bad, blocked) == ["cg-multiplicity-conserved"]

    def test_cg_multiplicity_needs_the_input_and_dirty_er(self):
        blocked = self.blocked(("x", 9), a=([("x", 1), ("y", 2)], 2))
        out = CandidateComparisons(profile=blocked.profile, candidates=[("y", 2)])
        assert self.observe("cg", out, blocked, clean_clean=True) == []
        assert self.observe("cg", out) == []  # no source message: nothing to relate

    def test_lm_partners_are_distinct_and_non_self(self):
        def profile(eid):
            return Profile(eid=eid, attributes=(), tokens=frozenset())

        def materialized(*partners):
            return MaterializedComparisons(
                profile=profile(9), partners=[profile(j) for j in partners]
            )

        assert self.observe("lm", materialized(1, 2, 3)) == []
        assert self.observe("lm", materialized(1, 2, 1)) == ["lm-materialization-wellformed"]
        assert self.observe("lm", materialized(1, 9)) == ["lm-materialization-wellformed"]

    def test_stage_without_invariants_checks_nothing(self):
        checker = InvariantChecker(mode="raise")
        checker.bind(small_config(), backend=object())
        checker.observe_stage("no-such-stage", object())
        assert checker.checks_performed == 0


class TestBlockSnapshots:
    """``B_ei`` holds plain ``(block, n)`` pairs; hand-built bad ones must
    still be caught, at ``bb+bp`` and, through the real ``f_cg``, at ``cg``."""

    BAD = {
        "singleton": ([1, 2], 0),
        "past-end": ([1, 2], 3),
        "at-alpha": ([1, 2, 3, 4, 5], 4),
    }

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_bad_snapshot_fails_bb_and_what_cg_makes_of_it_is_checked(self, name):
        blocked = TestStageEnforcement.blocked(9, k=self.BAD[name], ok=([1, 3], 2))
        checker = InvariantChecker(mode="record")
        checker.bind(small_config(alpha=5), backend=object())
        checker.observe_stage("bb+bp", blocked)
        generated = ComparisonGenerationStage()(blocked)
        checker.observe_stage("cg", generated, blocked)
        violations = [v.invariant for v in checker.violations]
        # Only the past-end snapshot loses members when f_cg slices it.
        cg = ["cg-multiplicity-conserved"] if name == "past-end" else []
        assert violations == ["bb-snapshot-wellformed", *cg]


class TestCompilation:
    @staticmethod
    def bare(pipeline: StreamERPipeline) -> bool:
        """Every compiled stage callable is the stage object itself."""
        compiled = pipeline.compiled
        return all(fn is compiled.stage(name) for name, fn in compiled.ordered())

    def test_disabled_checker_leaves_stages_unwrapped(self):
        checker = InvariantChecker(enabled=False)
        pipeline = StreamERPipeline(small_config(), checker=checker)
        assert pipeline.checker is None
        assert self.bare(pipeline)

    def test_no_checker_by_default(self):
        pipeline = StreamERPipeline(small_config())
        assert pipeline.checker is None
        assert self.bare(pipeline)

    def test_checked_run_produces_identical_matches(self):
        entities = small_stream(12)
        plain = StreamERPipeline(small_config())
        plain.process_many(entities)
        checked = StreamERPipeline(
            small_config(), checker=InvariantChecker(mode="raise", state_every=3)
        )
        checked.process_many(entities)
        assert checked.cl.matches.pairs() == plain.cl.matches.pairs()


class TestConcurrentDeferral:
    def test_raise_is_deferred_to_finalize(self):
        checker = InvariantChecker(mode="raise", concurrent=True)
        checker.bind(small_config(), backend=object())
        # Inside a worker a raise would be swallowed into the dead-letter
        # queue; concurrent mode records instead...
        checker.observe_stage("cl", [Match(left=2, right=2, similarity=1.0)])
        assert checker.violations
        # ...and finalize (called after workers join) re-raises it.
        with pytest.raises(InvariantViolation) as excinfo:
            checker.raise_if_violated()
        assert excinfo.value.invariant == "cl-no-self-matches"


class TestSimulationScope:
    def test_item_conservation_violation(self):
        checker = InvariantChecker(mode="record")
        result = SimpleNamespace(
            admitted=5,
            items_failed=0,
            completion_times=[1.0] * 5,
            latencies=[0.1] * 5,
            stage_busy_seconds={"dr": 1.0},
            makespan=2.0,
        )
        checker.check_simulation(result, n_items=6)
        assert [v.invariant for v in checker.violations] == ["sim-item-conservation"]

    def test_consistent_simulation_passes(self):
        checker = InvariantChecker(mode="raise")
        result = SimpleNamespace(
            admitted=6,
            items_failed=0,
            completion_times=[1.0] * 6,
            latencies=[0.1] * 6,
            stage_busy_seconds={"dr": 1.0},
            makespan=2.0,
        )
        checker.check_simulation(result, n_items=6)
        assert not checker.violations

