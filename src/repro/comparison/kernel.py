"""The interned comparison kernel: batched, prefiltered, threshold-aware.

``f_co`` dominates the pipeline's runtime (Figure 6), and the profiling of
the string-set path shows *where* the time goes: per-pair method dispatch
through ``comparator.compare``, a :class:`~repro.types.ScoredComparison`
allocation for every candidate — match or not — and the set intersection
itself.  This module applies the three standard levers of the
set-similarity-join literature end to end:

1. **Integer interning** — profiles carry ``token_ids`` (dense int sets
   produced by the :class:`~repro.reading.interning.TokenDictionary` at
   ``f_dr``), so similarity math runs on compact int sets and multiprocess
   payloads shrink from kilobytes of pickled strings to a few dozen bytes
   of machine integers.
2. **Length prefiltering** — for every cardinality-based measure there is a
   closed-form upper bound on the achievable similarity given only the two
   set sizes (e.g. ``min/max`` for Jaccard).  Pairs whose bound is already
   below the classification threshold are skipped *before* any
   intersection is computed.  The bound is exact algebra, not a heuristic,
   so the surviving match set is provably identical.
3. **Threshold-aware verification** — when the classification threshold is
   known, pairs whose *computed* similarity falls below it are dropped
   inside the kernel: no ``ScoredComparison`` is allocated and ``f_cl``
   never iterates them.  Since a threshold classifier rejects exactly
   those pairs, the match set is again byte-identical; only the
   non-match bookkeeping disappears.

Every executor scores through this one kernel, one arriving entity against
its partners per call.  The hot loop intersects with ``a.intersection(b)``
— a C loop — whose right operand may be any iterable of ids: partners
come as the profile map stores them, with the sorted id *tuple* of
:func:`~repro.reading.interning.pack_ids` (the object ``f_dr`` built, or
decoded off the shared column in a pool worker), whose ints the
intersection hashes without boxing anything.  Only the arriving entity is
turned into a set, once per call.

Safety argument for the prefilter (``docs/performance.md`` repeats this
with the full derivation): with ``m = min(|a|, |b|)``, ``M = max(|a|, |b|)``
and ``i = |a ∩ b| ≤ m``,

* Jaccard ``i / (|a|+|b|-i)`` is increasing in ``i``, so ≤ ``m / M``;
* Dice ``2i / (|a|+|b|)`` ≤ ``2m / (|a|+|b|)``;
* Cosine ``i / sqrt(|a|·|b|)`` ≤ ``m / sqrt(mM) = sqrt(m/M)``;
* Overlap ``i / m`` ≤ 1 — no length bound exists, the prefilter never
  fires for it.

A pair skipped by the prefilter therefore *cannot* reach the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.comparison.similarity import SET_SIMILARITIES
from repro.errors import ConfigurationError
from repro.types import Comparison, Profile, ScoredComparison

__all__ = ["InternedComparator", "similarity_bound"]

# --------------------------------------------------------------------------
# Length-based similarity bounds


def _jaccard_bound(la: int, lb: int) -> float:
    return (la / lb) if la <= lb else (lb / la)


def _dice_bound(la: int, lb: int) -> float:
    return 2.0 * min(la, lb) / (la + lb)


def _cosine_bound(la: int, lb: int) -> float:
    return math.sqrt(_jaccard_bound(la, lb))


def _overlap_bound(la: int, lb: int) -> float:
    return 1.0


_BOUNDS: dict[str, Callable[[int, int], float]] = {
    "jaccard": _jaccard_bound,
    "dice": _dice_bound,
    "cosine": _cosine_bound,
    "overlap": _overlap_bound,
}


def similarity_bound(measure: str, la: int, lb: int) -> float:
    """Upper bound on ``measure`` given only the two (nonzero) set sizes."""
    return _BOUNDS[measure](la, lb)


# --------------------------------------------------------------------------
# The comparator


@dataclass(frozen=True)
class InternedComparator:
    """Token-set similarity on interned integer ids, with filter + verify.

    Drop-in replacement for :class:`~repro.comparison.comparator.
    TokenSetComparator` restricted to the named cardinality measures
    (``jaccard``, ``dice``, ``overlap``, ``cosine``) — exactly the measures
    whose value depends only on set cardinalities, which is what makes
    scoring interned ids instead of strings *provably* answer-preserving.

    Parameters
    ----------
    measure:
        Name of the set similarity (see ``SET_SIMILARITIES``).
    threshold:
        The classification threshold, when known.  Enables threshold-aware
        verification: :meth:`compare_batch` emits only pairs whose
        similarity can still produce a match.  ``None`` (e.g. with an
        oracle classifier) emits every pair, exactly like the string path.
    prefilter:
        Whether the length prefilter may skip intersections (only
        meaningful with a ``threshold``; the emitted match set is identical
        either way — the prefilter only saves work, never changes answers).

    Profiles without ``token_ids`` (built without a dictionary, or loaded
    from an old state dump) transparently fall back to their string token
    sets; a mixed pair is scored on strings for both sides, so the measure
    always compares like with like.
    """

    measure: str = "jaccard"
    threshold: float | None = None
    prefilter: bool = True

    def __post_init__(self) -> None:
        if self.measure not in SET_SIMILARITIES:
            known = ", ".join(sorted(SET_SIMILARITIES))
            raise ConfigurationError(
                f"unknown measure {self.measure!r}; expected one of: {known}"
            )
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in [0, 1] or None, got {self.threshold}"
            )

    # -- single-pair API (parity with TokenSetComparator) --------------

    def score(self, left: Profile, right: Profile) -> float:
        """The full similarity of one pair (never filtered or dropped).

        Either side may be in stored form (tuples): the left one is made a
        set, which costs nothing when it already is one.
        """
        a = left.token_ids
        b = right.token_ids
        sim = SET_SIMILARITIES[self.measure]
        if a is None or b is None:
            return sim(frozenset(left.tokens), right.tokens)  # type: ignore[arg-type]
        return sim(frozenset(a), b)  # type: ignore[arg-type]

    def compare(self, comparison: Comparison) -> ScoredComparison:
        """Score a comparison tuple, preserving its identity."""
        sim = self.score(comparison.left, comparison.right)
        return ScoredComparison(comparison=comparison, similarity=sim)

    # -- batched kernel ------------------------------------------------

    def compare_batch(
        self, left: Profile, partners: list[Profile], tally=None
    ) -> list[ScoredComparison]:
        """Score ``left`` against every partner; with a threshold, emit only
        potential matches.

        Without a ``threshold`` this returns one :class:`ScoredComparison`
        per partner, in order, exactly like the per-pair path.  With one,
        pairs that provably cannot match are skipped (length prefilter) or
        dropped after scoring (verification), so the result contains
        exactly the pairs a :class:`~repro.classification.classifiers.
        ThresholdClassifier` at that threshold would accept.  A
        :class:`~repro.types.Comparison` is built only for an emitted pair.

        The left side is turned into a set once per call; a partner's ids
        (or tokens) may be any sized iterable — a set, or the stored
        profile's sorted tuple.  A pair where either side has no interned
        ids is scored on the two token sets.

        ``tally`` (``f_co`` passes itself) has its ``prefiltered`` attribute
        raised, once per call, by the number of pairs the length prefilter
        skipped.
        """
        out: list[ScoredComparison] = []
        append = out.append
        skipped = 0
        thr = self.threshold
        ids = left.token_ids
        if ids is not None:
            ids = frozenset(ids)
        strings = None  # left.tokens as a set, built on the first mixed pair
        if self.measure == "jaccard" and thr is not None and thr > 0.0:
            # Specialized hot loop for the default configuration (Jaccard
            # under a positive threshold): the ratio reuses the intersection
            # size for the union and sub-threshold pairs exit before any
            # allocation.
            #
            # The prefilter test is the *division* form ``la / lb < thr``
            # deliberately: it evaluates the exact float expression the
            # score reaches at maximal overlap (``inter == la`` makes
            # ``inter / (la + lb - inter)`` collapse to ``la / lb``, the
            # integer arithmetic being exact), and IEEE rounding is
            # monotone, so a dropped pair provably cannot score >= thr even
            # at the last ulp.  A multiply form ``la < thr * lb`` has no
            # such guarantee.
            #
            # Empty sets: a one-sided empty set is prefiltered (0/n < thr)
            # or scores 0.0 via the zero intersection; two empty sets are
            # the only way the prefilter ratio divides by zero, which the
            # (cost-free on 3.11+) except block turns into the 1.0 that
            # ``similarity.jaccard`` defines for them.
            prefilter = self.prefilter
            for partner in partners:
                b = partner.token_ids
                if b is None or ids is None:
                    if strings is None:
                        strings = frozenset(left.tokens)
                    a, b = strings, partner.tokens
                else:
                    a = ids
                la = len(a)
                lb = len(b)
                if prefilter:
                    if la <= lb:
                        try:
                            if la / lb < thr:
                                skipped += 1
                                continue
                        except ZeroDivisionError:
                            # la == lb == 0: two empty sets score 1.0 and
                            # 1.0 >= thr always holds for thr in (0, 1].
                            append(ScoredComparison(Comparison(left, partner), 1.0))
                            continue
                    elif lb / la < thr:  # la > lb, so la >= 1: never raises
                        skipped += 1
                        continue
                inter = len(a.intersection(b))
                denom = la + lb - inter
                s = inter / denom if denom else 1.0
                if s >= thr:
                    append(ScoredComparison(Comparison(left, partner), s))
        else:
            sim = SET_SIMILARITIES[self.measure]
            pre = self.prefilter and thr is not None and thr > 0.0
            bound = _BOUNDS[self.measure]
            for partner in partners:
                b = partner.token_ids
                if b is None or ids is None:
                    if strings is None:
                        strings = frozenset(left.tokens)
                    a, b = strings, partner.tokens
                else:
                    a = ids
                la = len(a)
                lb = len(b)
                if not la or not lb:
                    s = 1.0 if la == lb else 0.0
                else:
                    if pre and bound(la, lb) < thr:  # type: ignore[operator]
                        skipped += 1
                        continue
                    s = sim(a, b)  # type: ignore[arg-type]
                if thr is None or s >= thr:
                    append(ScoredComparison(Comparison(left, partner), s))
        if tally is not None:
            tally.prefiltered += skipped
        return out
