"""Concrete implementations of the pipeline stages (Algorithms 1–3).

Stage classes correspond one-to-one to the boxes in Figure 3 of the paper:

* :class:`DataReadingStage` — ``f_dr``
* :class:`BlockBuildingStage` — ``f_bb+bp`` (Algorithm 1: block building +
  block pruning + singleton removal); sole writer of the profile map and
  the block collection.
* :class:`BlockGhostingStage` — ``f_bg`` (Algorithm 2).
* :class:`ComparisonGenerationStage` — ``f_cg``.
* :class:`ComparisonCleaningStage` — ``f_cc`` (Algorithm 3, I-WNP).
* :class:`LoadManagementStage` — ``f_lm`` (profile-map lookups).
* :class:`ComparisonStage` — ``f_co``.
* :class:`ClassificationStage` — ``f_cl``; sole owner of the match store.

Each stage is a callable taking the previous stage's message and returning
the next one, so the sequential pipeline is literally their composition and
the parallel framework can put each behind its own worker pool.

Stateful stages take their stores from a ``backend`` (a
:class:`~repro.core.backends.StateBackend`; a fresh
:class:`~repro.core.backends.InMemoryBackend` without one).  Every store
has exactly one writing stage: ``f_bb+bp`` writes the profile map, the
block collection and the blacklist; ``f_cl`` writes the match store;
``f_lm`` only reads.  Executors compile a
:class:`~repro.core.plan.PipelinePlan`, which threads one backend through
every factory.
"""

from __future__ import annotations

from collections import _count_elements  # the C counter behind ``Counter``
from dataclasses import dataclass
from itertools import compress

from repro.classification.classifiers import Classifier, ThresholdClassifier
from repro.comparison.comparator import TokenSetComparator
from repro.core.backends.base import StateBackend
from repro.core.backends.memory import InMemoryBackend
from repro.errors import UnknownProfileError
from repro.reading.profiles import ProfileBuilder
from repro.types import (
    Comparison,
    EntityDescription,
    EntityId,
    Match,
    Profile,
    ScoredComparison,
)

# --------------------------------------------------------------------------
# Inter-stage messages


@dataclass(slots=True)
class BlockedEntity:
    """Output of ``f_bb+bp``: the per-entity block snapshot ``B_ei``.

    ``others[k]`` is a ``(block, n)`` pair: the block list of ``b_k``
    itself and the number ``n ≥ 1`` of identifiers it held before the
    entity joined, so ``|b_k| = n + 1`` and the co-members are
    ``block[:n]``.  Nothing is copied: ``f_bg`` filters on ``n`` alone and
    only ``f_cg`` slices members, of the keys that survived ghosting.
    Singleton blocks have already been removed.
    """

    profile: Profile
    others: dict[str, tuple[list[EntityId], int]]

    def block_size(self, key: str) -> int:
        return self.others[key][1] + 1

    def keys(self) -> list[str]:
        return list(self.others)


@dataclass(slots=True)
class CandidateComparisons:
    """Output of ``f_cg``: candidate partner ids *with multiplicity*.

    An id appears once per block it co-occurs in with the current entity —
    the multiplicity is exactly the CBS weight that I-WNP counts.
    """

    profile: Profile
    candidates: list[EntityId]


@dataclass(slots=True)
class CleanedComparisons:
    """Output of ``f_cc``: distinct surviving partner ids."""

    profile: Profile
    candidates: list[EntityId]


@dataclass(slots=True)
class MaterializedComparisons:
    """Output of ``f_lm``: the partners' stored profiles re-attached.

    Every pair is ``(profile, partner)``, so the message carries the left
    side once and the stored partner profiles in first-occurrence order;
    ``f_co`` builds a :class:`~repro.types.Comparison` only for a pair it
    emits.
    """

    profile: Profile
    partners: list[Profile]

    @property
    def comparisons(self) -> list[Comparison]:
        """The pairs as ``Comparison`` objects, built on every read.

        A read-only view for code outside the pipeline that wants pair
        objects; no stage reads it.
        """
        profile = self.profile
        return [Comparison(profile, partner) for partner in self.partners]


@dataclass(slots=True)
class ScoredComparisons:
    """Output of ``f_co``: the similarity-scored comparisons ``S_i``."""

    profile: Profile
    scored: list[ScoredComparison]


# --------------------------------------------------------------------------
# Stages


class DataReadingStage:
    """``f_dr``: standardize the description and extract blocking keys.

    When the builder carries a :class:`~repro.reading.interning.
    TokenDictionary`, tokens are interned here — at the single point every
    entity flows through — so every downstream consumer sees profiles with
    the integer token view already attached.
    """

    name = "dr"

    def __init__(self, builder: ProfileBuilder | None = None) -> None:
        self.builder = builder or ProfileBuilder()

    def __call__(self, entity: EntityDescription) -> Profile:
        return self.builder.build(entity)


class BlockBuildingStage:
    """``f_bb+bp`` (Algorithm 1): incremental token blocking + block pruning.

    The stage is the sole writer of the profile map, the global block
    collection and the blacklist of pruned keys.  For every incoming
    profile it

    1. registers the profile, before any block can reference the entity,
    2. skips blacklisted keys,
    3. appends the entity to each remaining block,
    4. prunes (and blacklists) blocks reaching size ``alpha``,
    5. snapshots the surviving, non-singleton blocks into ``B_ei``.

    It is the serial stage under every executor, so whatever happens to an
    entity downstream, every id in a block resolves in the profile map.

    When ``enabled`` is False, pruning is skipped entirely (the "No BC"
    degraded variant); singleton removal still applies because singleton
    blocks cannot produce comparisons.
    """

    name = "bb+bp"

    def __init__(
        self,
        alpha: int,
        enabled: bool = True,
        backend: StateBackend | None = None,
    ) -> None:
        self.alpha = alpha
        self.enabled = enabled
        backend = backend if backend is not None else InMemoryBackend()
        self.profiles = backend.profiles
        self.blocks = backend.blocks
        self.blacklist = backend.blacklist
        self.pruned_blocks = 0

    def __call__(self, profile: Profile) -> BlockedEntity:
        self.profiles.put(profile)
        enabled = self.enabled
        # The blacklist's key set itself: ``in`` on it is a C lookup, where
        # ``key in self.blacklist`` would call ``__contains__`` per key.
        pruned = self.blacklist.keys if enabled else ()
        keys = [key for key in profile.tokens if key not in pruned]
        others: dict[str, tuple[list[EntityId], int]] = {}
        for key, block in zip(keys, self.blocks.add_all(keys, profile.eid)):
            size = len(block)
            if enabled and size >= self.alpha:
                self.blocks.remove_block(key)
                self.blacklist.add(key)
                self.pruned_blocks += 1
            elif size > 1:  # removeSingletons: only blocks with co-members
                others[key] = (block, size - 1)
        return BlockedEntity(profile=profile, others=others)


class BlockGhostingStage:
    """``f_bg`` (Algorithm 2): ignore keys whose block is too general.

    Keeps all identifiers in the global collection (nothing is deleted) but
    drops from ``B_ei`` every key whose block size exceeds ``|b_min| / beta``,
    where ``b_min`` is the smallest block in ``B_ei``.
    """

    name = "bg"

    def __init__(self, beta: float) -> None:
        self.beta = beta
        self.ghosted_keys = 0

    def __call__(self, blocked: BlockedEntity) -> BlockedEntity:
        if not blocked.others:
            return blocked
        threshold = (min([n for _, n in blocked.others.values()]) + 1) / self.beta
        survivors = {
            key: snapshot
            for key, snapshot in blocked.others.items()
            if snapshot[1] + 1 <= threshold
        }
        self.ghosted_keys += len(blocked.others) - len(survivors)
        blocked.others = survivors
        return blocked


class ComparisonGenerationStage:
    """``f_cg``: emit candidate pairs from the per-entity blocks.

    For clean-clean ER (``clean_clean=True``) identifiers must be
    ``(source, local_id)`` tuples (see ``repro.core.cleanclean``) and
    partners from the same source are skipped.
    """

    name = "cg"

    def __init__(self, clean_clean: bool = False) -> None:
        self.clean_clean = clean_clean
        self.generated = 0

    def __call__(self, blocked: BlockedEntity) -> CandidateComparisons:
        eid = blocked.profile.eid
        candidates: list[EntityId] = []
        for block, n in blocked.others.values():
            candidates += block[:n]
        if self.clean_clean:
            # Same source includes the entity itself.
            my_source = eid[0]  # type: ignore[index]
            candidates = [j for j in candidates if j[0] != my_source]  # type: ignore[index]
        elif eid in candidates:
            # Only a re-arrived identifier can already sit in its own blocks.
            candidates = [j for j in candidates if j != eid]
        self.generated += len(candidates)
        return CandidateComparisons(profile=blocked.profile, candidates=candidates)


class ComparisonCleaningStage:
    """``f_cc`` (Algorithm 3): the incremental WNP variant, I-WNP.

    Groups the candidates by partner id, counts block co-occurrences (the
    CBS weight), computes the average count, and keeps only partners whose
    count is at least the average.  Grouping alone removes redundant
    comparisons; the threshold removes superfluous ones.
    """

    name = "cc"

    def __init__(self) -> None:
        self.retained = 0

    def __call__(self, generated: CandidateComparisons) -> CleanedComparisons:
        # Partner id -> number of shared blocks, in first-occurrence order.
        counts: dict[EntityId, int] = {}
        _count_elements(counts, generated.candidates)
        if not counts:
            return CleanedComparisons(profile=generated.profile, candidates=[])
        avg = len(generated.candidates) / len(counts)
        survivors = list(compress(counts, map(avg.__le__, counts.values())))
        self.retained += len(survivors)
        return CleanedComparisons(profile=generated.profile, candidates=survivors)


class LoadManagementStage:
    """``f_lm``: profile-map lookups that re-attach full profiles.

    Each surviving partner id is resolved to its stored profile.  The map
    is read-only here: ``f_bb+bp`` registered every partner before the
    partner could sit in a block, so lookups cannot fail; a missing profile
    indicates a wiring bug and raises :class:`UnknownProfileError`.

    ``f_cc``'s survivors are already distinct (``cc-survivors-distinct``),
    so only a :class:`CandidateComparisons` is deduplicated here
    (first-occurrence order): that is what arrives when the plan drops the
    ``cc`` node (``enable_comparison_cleaning=False``) and ``f_cg``'s
    multiplicity-carrying candidates flow here directly.  ``materialized``
    counts the partners actually emitted, which is therefore the
    "after cleaning" figure regardless of which optional nodes are active.
    """

    name = "lm"

    def __init__(self, backend: StateBackend | None = None) -> None:
        backend = backend if backend is not None else InMemoryBackend()
        self.profiles = backend.profiles
        self.materialized = 0

    def __call__(
        self, cleaned: CleanedComparisons | CandidateComparisons
    ) -> MaterializedComparisons:
        ids = cleaned.candidates
        if type(cleaned) is CandidateComparisons:
            ids = list(dict.fromkeys(ids))
        partners = list(map(self.profiles.get, ids))
        # A stored profile is never falsy, so ``all`` finds a missing one
        # without calling the dataclass ``__eq__`` once per partner.
        if not all(partners):
            missing = next(j for j, p in zip(ids, partners) if p is None)
            raise UnknownProfileError(f"profile of {missing!r} was never registered")
        self.materialized += len(partners)
        return MaterializedComparisons(profile=cleaned.profile, partners=partners)


class ComparisonStage:
    """``f_co``: score every surviving comparison with the similarity.

    Comparators exposing ``compare_batch(left, partners, tally)`` (the
    interned kernel) score the whole per-entity batch in one call;
    threshold-aware comparators may emit *fewer* scored comparisons than
    they were given — exactly the pairs that can still classify as matches
    — so ``compared`` counts the pairs examined, not the pairs emitted.
    A per-pair comparator gets one ``Comparison(profile, partner)`` per
    partner.  ``prefiltered`` is the part of ``compared`` the kernel's
    length prefilter skipped without intersecting (the kernel reports it;
    0 for per-pair comparators).
    """

    name = "co"

    def __init__(self, comparator: TokenSetComparator | None = None) -> None:
        self.comparator = comparator or TokenSetComparator()
        self.compared = 0
        self.prefiltered = 0
        self._batch = getattr(self.comparator, "compare_batch", None)

    def __call__(self, materialized: MaterializedComparisons) -> ScoredComparisons:
        profile = materialized.profile
        partners = materialized.partners
        if self._batch is not None:
            scored = self._batch(profile, partners, self)
        else:
            compare = self.comparator.compare
            scored = [compare(Comparison(profile, partner)) for partner in partners]
        self.compared += len(partners)
        return ScoredComparisons(profile=profile, scored=scored)


class ClassificationStage:
    """``f_cl``: classify scored pairs and update the match store.

    Returns the matches that involve the just-processed entity, i.e. the
    per-entity slice of the output stream ``[M_1, M_2, ...]``.
    """

    name = "cl"

    def __init__(
        self,
        classifier: Classifier | None = None,
        backend: StateBackend | None = None,
    ) -> None:
        self.classifier = classifier or ThresholdClassifier()
        backend = backend if backend is not None else InMemoryBackend()
        self.matches = backend.matches

    def __call__(self, scored: ScoredComparisons) -> list[Match]:
        found: list[Match] = []
        for item in scored.scored:
            match = self.classifier.classify(item)
            if match is not None and self.matches.add(match):
                found.append(match)
        return found


#: Stage names in pipeline order; shared by instrumentation and the
#: parallel framework's allocation logic.
STAGE_ORDER: tuple[str, ...] = ("dr", "bb+bp", "bg", "cg", "cc", "lm", "co", "cl")
