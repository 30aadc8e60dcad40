"""The metamorphic relation library: the paper's algebra as executable oracles.

Entity resolution has no cheap ground truth, but the functional model
``f_er = f_cl ∘ f_co ∘ ... ∘ f_dr`` implies *relations between runs* that
must hold for every input — metamorphic oracles:

``incremental-equals-batch``
    folding the stream increment by increment (any partitioning) yields
    the same final match set as one batch application — the paper's
    incremental-ER claim (§III);
``order-invariance-no-cleaning``
    with both cleaning mechanisms disabled the blocking graph is
    arrival-order independent, so the final match set is invariant under
    stream permutation (with cleaning *enabled* pruning verdicts depend on
    arrival history, which is exactly why ``f_bb+bp`` runs serially and
    the thread framework re-sequences arrivals in front of it);
``alpha-monotone`` / ``beta-monotone``
    a more permissive block purge (larger α) can only generate more
    comparisons; a more aggressive ghost threshold (larger β) can only
    generate fewer (Algorithms 1–2);
``dirty-self-consistency`` / ``clean-clean-cross-source``
    structural soundness of the match set for each ER variant;
``executors-agree``
    SEQ, PP, MPP and the multiprocess executor (partitioned dispatch on
    a shared-memory backend, so the run really crosses the process
    boundary) produce identical match sets modulo dead letters (none are
    injected here, so: identical), each verified against the runtime
    invariants while it runs; the multiprocess leg additionally keeps
    the ``dispatched + prefiltered + parent-side compared == cleaned``
    pair accounting;
``interned-equals-string``
    the integer-interned comparison kernel is score-equivalent to the
    string token path;
``resume-equals-uninterrupted``
    a durable (WAL-backed) run killed at a seeded record — cleanly
    between records or mid-record — recovers and resumes to the exact
    match set of an uninterrupted run (resume-after-crash is just
    another increment cut; see ``docs/durability.md``);
``invariants-hold``
    an incremental sequential run passes every state/stage/run invariant
    in :mod:`repro.invariants`.

Every relation couples a case generator with a check that raises
:class:`~repro.proptest.runner.CheckFailed` on violation, so the runner
can shrink its counterexamples like any other property.  The suite behind
``repro-er check`` is :func:`run_suite`; :func:`self_test_relation` is an
intentionally false relation proving the harness *can* fail, shrink and
print a replay command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.core.pipeline import StreamERPipeline
from repro.invariants.checker import InvariantChecker
from repro.proptest.generators import Gen, er_cases
from repro.proptest.runner import (
    CheckFailed,
    Property,
    SuiteReport,
    run_property,
)
from repro.proptest.shrinking import ERCase

__all__ = [
    "Relation",
    "METAMORPHIC_RELATIONS",
    "relation_names",
    "run_suite",
    "self_test_relation",
]


@dataclass(frozen=True)
class Relation:
    """One metamorphic relation: a case generator plus a violation check.

    ``heavy`` marks relations that execute the case several times (or on
    several executors); :func:`run_suite` halves their example budget so
    the default suite stays quick.
    """

    name: str
    description: str
    gen: Gen
    check: Callable[[ERCase], None]
    heavy: bool = False

    def to_property(self) -> Property:
        return Property(name=self.name, gen=self.gen, check=self.check)


# --------------------------------------------------------------------------
# Shared plumbing


def _run_batch(
    case: ERCase,
    entities: Sequence | None = None,
    interned: bool = False,
    checker: InvariantChecker | None = None,
) -> StreamERPipeline:
    pipeline = StreamERPipeline(
        case.config(interned=interned), instrument=False, checker=checker
    )
    pipeline.process_many(list(entities if entities is not None else case.entities))
    return pipeline


def _match_pairs(case: ERCase, **kwargs) -> set[tuple]:
    return _run_batch(case, **kwargs).summary().match_pairs


def _fail_diff(what: str, left_name: str, left: set, right_name: str, right: set) -> None:
    only_left = sorted(map(repr, left - right))[:4]
    only_right = sorted(map(repr, right - left))[:4]
    raise CheckFailed(
        f"{what}: {left_name} found {len(left)} pairs, {right_name} {len(right)}; "
        f"only in {left_name}: {only_left}; only in {right_name}: {only_right}"
    )


def _generated(case: ERCase, **config_overrides) -> int:
    pipeline = StreamERPipeline(case.config(**config_overrides), instrument=False)
    pipeline.process_many(list(case.entities))
    return pipeline.cg.generated


# --------------------------------------------------------------------------
# The relations


def _check_incremental_equals_batch(case: ERCase) -> None:
    batch = _match_pairs(case)
    pipeline = StreamERPipeline(case.config(), instrument=False)
    for increment in case.increments():
        pipeline.process_many(increment)
    incremental = pipeline.summary().match_pairs
    if incremental != batch:
        _fail_diff(
            f"incremental fold over cuts {case.cuts} diverged from batch",
            "incremental", incremental, "batch", batch,
        )


def _check_order_invariance(case: ERCase) -> None:
    baseline = _match_pairs(case)
    shuffled = list(case.entities)
    random.Random(case.salt).shuffle(shuffled)
    permuted = _match_pairs(case, entities=shuffled)
    if permuted != baseline:
        _fail_diff(
            "match set changed under stream permutation with cleaning disabled",
            "permuted", permuted, "original", baseline,
        )


def _check_alpha_monotone(case: ERCase) -> None:
    # Ghosting is neutralized (tiny β ⇒ astronomically high ghost
    # threshold) so the only mechanism varying is the α purge.
    counts = [
        _generated(case, alpha=alpha, beta=0.001, enable_block_cleaning=True)
        for alpha in (3, 8, 1000)
    ]
    if not (counts[0] <= counts[1] <= counts[2]):
        raise CheckFailed(
            f"comparisons generated not monotone in alpha: "
            f"alpha 3/8/1000 -> {counts}"
        )


def _check_beta_monotone(case: ERCase) -> None:
    # α is neutralized (no block on these stream sizes ever reaches 1000)
    # so the only mechanism varying is the ghost threshold |b_min|/β.
    counts = [
        _generated(case, alpha=1000, beta=beta, enable_block_cleaning=True)
        for beta in (0.1, 0.3, 0.9)
    ]
    if not (counts[0] >= counts[1] >= counts[2]):
        raise CheckFailed(
            f"comparisons generated not antitone in beta: "
            f"beta 0.1/0.3/0.9 -> {counts}"
        )


def _check_dirty_self_consistency(case: ERCase) -> None:
    pipeline = _run_batch(case)
    pairs = pipeline.summary().match_pairs
    eids = {entity.eid for entity in case.entities}
    for a, b in pairs:
        if a == b:
            raise CheckFailed(f"self-match {a!r} in the final match set")
        if a not in eids or b not in eids:
            raise CheckFailed(f"match ({a!r}, {b!r}) references an unseen entity")
    stored = pipeline.backend.matches.pairs()
    if pairs != stored:
        _fail_diff(
            "result matches diverged from the backend match store",
            "result", pairs, "store", stored,
        )


def _check_clean_clean_cross_source(case: ERCase) -> None:
    pairs = _match_pairs(case)
    for a, b in pairs:
        if a[0] == b[0]:
            raise CheckFailed(
                f"clean-clean match ({a!r}, {b!r}) pairs two entities "
                f"of the same source {a[0]!r}"
            )


def _check_executors_agree(case: ERCase) -> None:
    # Imported lazily: the executors import the plan module, which imports
    # the invariants package — keeping proptest importable on its own.
    from repro.core.backends.shm import SharedMemoryBackend
    from repro.parallel.framework import ParallelERPipeline
    from repro.parallel.mp_framework import MultiprocessERPipeline

    entities = list(case.entities)
    checkers = {"SEQ": InvariantChecker(mode="record", state_every=8)}
    reference = _match_pairs(case, checker=checkers["SEQ"])

    runs: list[tuple[str, set, int]] = []
    for name, kwargs in (
        ("PP", dict(micro_batch_size=1)),
        ("MPP", dict(micro_batch_size=16, micro_batch_delay=0.001)),
    ):
        checkers[name] = InvariantChecker(mode="record")
        framework = ParallelERPipeline(
            case.config(), processes=8, checker=checkers[name], **kwargs
        )
        result = framework.run(entities, timeout=120)
        runs.append((name, result.match_pairs, result.items_failed))

    checkers["mp"] = InvariantChecker(mode="record")
    with SharedMemoryBackend() as backend, MultiprocessERPipeline(
        case.config(interned=True),
        workers=2,
        backend=backend,
        checker=checkers["mp"],
        partitioned=True,
    ) as mp:
        mp_result = mp.run(entities)
    runs.append(("mp", mp_result.match_pairs, mp_result.items_failed))
    accounted = mp.pairs_dispatched + mp.pairs_prefiltered + mp.co.compared
    if accounted != mp_result.comparisons_after_cleaning:
        raise CheckFailed(
            f"mp pair accounting broke: dispatched {mp.pairs_dispatched} + "
            f"prefiltered {mp.pairs_prefiltered} + parent-side "
            f"{mp.co.compared} != cleaned {mp_result.comparisons_after_cleaning}"
        )

    for name, pairs, failed in runs:
        if failed:
            raise CheckFailed(
                f"executor {name} dead-lettered {failed} item(s) with no "
                f"faults injected"
            )
        if pairs != reference:
            _fail_diff(
                f"executor {name} diverged from SEQ", name, pairs, "SEQ", reference
            )
    for name, checker in checkers.items():
        if checker.violations:
            raise CheckFailed(
                f"invariants violated under executor {name}: {checker.report()}"
            )


def _check_interned_equals_string(case: ERCase) -> None:
    string_pairs = _match_pairs(case)
    interned_pairs = _match_pairs(case, interned=True)
    if interned_pairs != string_pairs:
        _fail_diff(
            "interned comparison kernel diverged from the string token path",
            "interned", interned_pairs, "string", string_pairs,
        )


def _check_invariants_hold(case: ERCase) -> None:
    checker = InvariantChecker(mode="record", state_every=4)
    pipeline = StreamERPipeline(case.config(), instrument=False, checker=checker)
    for increment in case.increments():
        pipeline.process_many(increment)
    checker.finalize(
        pipeline.summary(), expected_entities=pipeline.entities_processed
    )
    if checker.violations:
        raise CheckFailed(checker.report())


def _check_resume_equals_uninterrupted(case: ERCase) -> None:
    # Resume-after-crash is just another increment cut of the incremental
    # fold: kill a durable run at a seeded WAL record (clean or torn),
    # recover, re-feed the unlogged suffix, and the final match set —
    # pairs *and* similarities — must equal an uninterrupted run's.  The
    # stream is admitted in seeded increments of one to four entities, so
    # the log holds several input records to crash into.
    import tempfile
    from pathlib import Path

    from repro.core.backends import DurableBackend
    from repro.durability.wal import CrashPoint
    from repro.errors import SimulatedCrash

    config = case.config()
    entities = list(case.entities)
    reference = _run_batch(case)
    baseline = {
        (m.key(), m.similarity) for m in reference.backend.matches.matches()
    }
    rng = random.Random(f"{case.salt}:resume")
    sizes = [rng.randint(1, 4) for _ in entities]

    def feed(pipeline: StreamERPipeline, start: int = 0) -> None:
        for size in sizes:
            if start >= len(entities):
                return
            pipeline.process_many(entities[start : start + size])
            start += size

    with tempfile.TemporaryDirectory(prefix="repro-resume-") as root:
        probe = StreamERPipeline(
            config,
            instrument=False,
            backend=DurableBackend.open(
                Path(root) / "probe", config, checkpoint_every=5
            ),
        )
        feed(probe)
        probe.close()
        total = probe.backend.wal_records_seen
        if not total:
            return  # nothing was ever logged; nothing to crash into
        scenarios = [
            (1, None),  # the very first record
            (rng.randint(1, total), None),  # a clean mid-run crash
            (rng.randint(1, total), rng.randint(1, 7)),  # a torn write
        ]
        for index, (at_record, torn_bytes) in enumerate(scenarios):
            wal_dir = Path(root) / f"crash-{index}"
            crashed = StreamERPipeline(
                config,
                instrument=False,
                backend=DurableBackend.open(
                    wal_dir,
                    config,
                    checkpoint_every=5,
                    crash_point=CrashPoint(at_record=at_record, torn_bytes=torn_bytes),
                ),
            )
            try:
                feed(crashed)
            except SimulatedCrash:
                pass
            resumed = StreamERPipeline(
                config,
                instrument=False,
                backend=DurableBackend.open(
                    wal_dir, config, resume=True, checkpoint_every=5
                ),
            )
            feed(resumed, resumed.entities_processed)
            resumed.close()
            pairs = {
                (m.key(), m.similarity)
                for m in resumed.backend.matches.matches()
            }
            if pairs != baseline:
                _fail_diff(
                    f"crash at WAL record {at_record} "
                    f"(torn_bytes={torn_bytes}) did not resume bit-identical",
                    "resumed",
                    pairs,
                    "uninterrupted",
                    baseline,
                )


def _without_cleaning(case: ERCase) -> ERCase:
    return replace(case, block_cleaning=False, comparison_cleaning=False)


METAMORPHIC_RELATIONS: tuple[Relation, ...] = (
    Relation(
        name="incremental-equals-batch",
        description="Folding any increment partitioning equals one batch run.",
        gen=er_cases(),
        check=_check_incremental_equals_batch,
    ),
    Relation(
        name="order-invariance-no-cleaning",
        description=(
            "With block and comparison cleaning disabled, the match set is "
            "invariant under stream permutation."
        ),
        gen=er_cases().map(_without_cleaning),
        check=_check_order_invariance,
    ),
    Relation(
        name="alpha-monotone",
        description="Comparisons generated are non-decreasing in alpha.",
        gen=er_cases(),
        check=_check_alpha_monotone,
        heavy=True,
    ),
    Relation(
        name="beta-monotone",
        description="Comparisons generated are non-increasing in beta.",
        gen=er_cases(),
        check=_check_beta_monotone,
        heavy=True,
    ),
    Relation(
        name="dirty-self-consistency",
        description=(
            "Dirty-ER matches are irreflexive, reference only seen entities "
            "and agree with the backend match store."
        ),
        gen=er_cases(),
        check=_check_dirty_self_consistency,
    ),
    Relation(
        name="clean-clean-cross-source",
        description="Clean-clean matches always pair entities across sources.",
        gen=er_cases(clean_clean=True),
        check=_check_clean_clean_cross_source,
    ),
    Relation(
        name="executors-agree",
        description=(
            "SEQ, PP, MPP and the multiprocess executor (partitioned, on "
            "shared memory) produce the same match set (no dead letters), "
            "with runtime invariants checked on every executor."
        ),
        gen=er_cases(),
        check=_check_executors_agree,
        heavy=True,
    ),
    Relation(
        name="interned-equals-string",
        description="The interned comparison kernel matches the string path.",
        gen=er_cases(),
        check=_check_interned_equals_string,
    ),
    Relation(
        name="resume-equals-uninterrupted",
        description=(
            "A durable run killed at a seeded WAL record (clean or torn) "
            "resumes to the exact match set of an uninterrupted run."
        ),
        gen=er_cases(),
        check=_check_resume_equals_uninterrupted,
        heavy=True,
    ),
    Relation(
        name="invariants-hold",
        description=(
            "An incremental sequential run passes every registered "
            "state/stage/run invariant."
        ),
        gen=er_cases(),
        check=_check_invariants_hold,
    ),
)


def relation_names() -> tuple[str, ...]:
    return tuple(relation.name for relation in METAMORPHIC_RELATIONS)


def _check_self_test(case: ERCase) -> None:
    pipeline = _run_batch(case)
    assignments = pipeline.backend.blocks.total_assignments()
    if assignments:
        raise CheckFailed(
            f"(intentional) claimed no stream ever builds a block, but "
            f"{assignments} block assignment(s) exist"
        )


def self_test_relation() -> Relation:
    """An intentionally false relation for demonstrating failure handling.

    Claims no stream ever produces a block assignment — falsified by any
    entity with one token, so the harness's failure path (non-zero exit,
    shrinking down to a single one-attribute entity, replay command) can
    be demonstrated end to end without breaking real code.
    """
    return Relation(
        name="self-test-failure",
        description="Intentionally false claim used to prove failures surface.",
        gen=er_cases(),
        check=_check_self_test,
    )


def run_suite(
    seed: int,
    examples: int = 6,
    names: Iterable[str] | None = None,
    extra_relations: Sequence[Relation] = (),
    shrink_budget: int = 200,
) -> SuiteReport:
    """Run the metamorphic + invariant oracle suite for one seed.

    ``names`` restricts the run to a subset (unknown names raise
    ``KeyError`` so a typo cannot silently pass CI); ``extra_relations``
    appends ad-hoc relations (the CLI's self-test uses this).  Heavy
    relations get half the example budget.  Failures shrink within
    ``shrink_budget`` predicate evaluations each.
    """
    relations = list(METAMORPHIC_RELATIONS) + list(extra_relations)
    if names is not None:
        by_name = {relation.name: relation for relation in relations}
        missing = [name for name in names if name not in by_name]
        if missing:
            raise KeyError(
                f"unknown relation(s) {missing}; known: {sorted(by_name)}"
            )
        relations = [by_name[name] for name in names]
    report = SuiteReport(seed=seed)
    for relation in relations:
        budget = max(1, examples // 2) if relation.heavy else examples
        report.reports.append(
            run_property(
                relation.to_property(),
                seed=seed,
                examples=budget,
                shrink_budget=shrink_budget,
            )
        )
    return report
