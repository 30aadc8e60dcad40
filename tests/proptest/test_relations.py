"""The metamorphic relation suite: every oracle holds on seeded streams,
and the harness demonstrably fails, shrinks and replays when one is false."""

from __future__ import annotations

import pytest

from repro.proptest import (
    METAMORPHIC_RELATIONS,
    relation_names,
    replay_command,
    run_suite,
    self_test_relation,
)

SEED = 2021

LIGHT_RELATIONS = [r.name for r in METAMORPHIC_RELATIONS if not r.heavy]
HEAVY_RELATIONS = [r.name for r in METAMORPHIC_RELATIONS if r.heavy]


class TestSuiteComposition:
    def test_relation_names(self):
        assert relation_names() == (
            "incremental-equals-batch",
            "order-invariance-no-cleaning",
            "alpha-monotone",
            "beta-monotone",
            "dirty-self-consistency",
            "clean-clean-cross-source",
            "executors-agree",
            "interned-equals-string",
            "resume-equals-uninterrupted",
            "invariants-hold",
        )

    def test_unknown_name_raises_instead_of_passing_silently(self):
        with pytest.raises(KeyError, match="no-such-relation"):
            run_suite(SEED, examples=1, names=["no-such-relation"])

    def test_heavy_relations_get_half_the_budget(self):
        report = run_suite(SEED, examples=4, names=["alpha-monotone"])
        assert report.reports[0].examples == 2

    def test_every_relation_is_described(self):
        assert all(r.description for r in METAMORPHIC_RELATIONS)


class TestRelationsHold:
    """The real oracles on a fixed seed — small budgets, this is tier 1;
    CI's proptest job runs the same suite with a bigger budget."""

    @pytest.mark.parametrize("name", LIGHT_RELATIONS)
    def test_light_relation_holds(self, name):
        report = run_suite(SEED, examples=3, names=[name])
        failures = report.failures()
        assert report.ok, failures[0].describe() if failures else ""

    @pytest.mark.parametrize("name", ["alpha-monotone", "beta-monotone"])
    def test_monotonicity_relation_holds(self, name):
        report = run_suite(SEED, examples=2, names=[name])
        failures = report.failures()
        assert report.ok, failures[0].describe() if failures else ""

    def test_executors_agree_holds(self):
        report = run_suite(SEED, examples=2, names=["executors-agree"])
        failures = report.failures()
        assert report.ok, failures[0].describe() if failures else ""


class TestFailurePath:
    """The acceptance demonstration: an intentionally false relation must
    fail, shrink to a one-entity counterexample and print a replay line."""

    def test_self_test_relation_fails_and_shrinks(self):
        report = run_suite(
            SEED,
            examples=3,
            names=["self-test-failure"],
            extra_relations=[self_test_relation()],
            shrink_budget=120,
        )
        assert not report.ok
        failure = report.failures()[0]
        shrunk = failure.minimal()
        # Any single one-attribute entity builds a block: the true minimum.
        assert len(shrunk.entities) == 1
        assert len(shrunk.entities[0].attributes) == 1
        assert "intentional" in failure.describe()

    def test_replay_line_points_back_at_the_cli(self):
        line = replay_command("self-test-failure", SEED, 3)
        assert line == (
            "repro-er check --seed 2021 --examples 3 "
            "--property self-test-failure"
        )
