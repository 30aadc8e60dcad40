"""Randomized equivalence: InternedComparator.compare_batch vs a naive
reference comparator, including the threshold-boundary edges.

The generated batches share their left profile in runs, like the
streaming front; the kernel is called once per run
(``compare_batch(left, partners)``).

The kernel's claim is exact: with a threshold, ``compare_batch`` emits
*precisely* the pairs a ``ThresholdClassifier`` at that threshold would
accept, and every emitted similarity equals the naive per-pair score
bit-for-bit.  The reference below computes every pair's similarity with
the plain set functions and filters with ``>= threshold`` — no prefilter,
no batching — so any divergence (a prefilter that is too eager at the
float boundary, a verification off-by-one ulp) shows up as a set diff.
"""

from __future__ import annotations

import random

import pytest

from repro.comparison.kernel import InternedComparator, similarity_bound
from repro.comparison.similarity import SET_SIMILARITIES
from repro.core.state import stored_form
from repro.proptest import example_rng
from repro.types import Comparison, Profile

MEASURES = ("jaccard", "dice", "cosine", "overlap")


def profile(eid: int, ids: set[int], interned: bool = True) -> Profile:
    tokens = frozenset(f"t{i}" for i in ids)
    return Profile(
        eid=eid,
        attributes=(("a", " ".join(sorted(tokens))),),
        tokens=tokens,
        token_ids=frozenset(ids) if interned else None,
    )


def random_batch(
    rng: random.Random, n_pairs: int, universe: int = 12, interned: bool = True
) -> list[Comparison]:
    """Batches share their left profile in runs, like the streaming front."""
    out: list[Comparison] = []
    eid = 0
    while len(out) < n_pairs:
        run = rng.randint(1, 4)
        left = profile(eid, set(rng.sample(range(universe), rng.randint(0, 6))),
                       interned=interned)
        eid += 1
        for _ in range(min(run, n_pairs - len(out))):
            right = profile(
                eid, set(rng.sample(range(universe), rng.randint(0, 6))),
                interned=interned and rng.random() < 0.9,
            )
            eid += 1
            out.append(Comparison(left=left, right=right))
    return out


def reference(measure: str, batch, threshold):
    """The naive oracle: score every pair, filter with >= threshold."""
    sim = SET_SIMILARITIES[measure]

    def score(c: Comparison) -> float:
        a, b = c.left.token_ids, c.right.token_ids
        if a is None or b is None:
            return sim(c.left.tokens, c.right.tokens)
        return sim(a, b)

    scored = {c.key(): score(c) for c in batch}
    if threshold is None:
        return scored
    return {k: s for k, s in scored.items() if s >= threshold}


def compare_runs(comparator: InternedComparator, batch, stored: bool = False):
    """One ``compare_batch(left, partners)`` call per run of pairs sharing
    a left profile; with ``stored``, both sides in the stored form: the
    arriving profile as ``f_dr`` builds it, the partners as the profile
    map keeps them."""
    out = []
    start = 0
    while start < len(batch):
        left = batch[start].left
        end = start
        while end < len(batch) and batch[end].left is left:
            end += 1
        partners = [c.right for c in batch[start:end]]
        if stored:
            left = stored_form(left)
            partners = [stored_form(p) for p in partners]
        out.extend(comparator.compare_batch(left, partners))
        start = end
    return out


def emitted(comparator: InternedComparator, batch, stored: bool = False):
    return {
        sc.comparison.key(): sc.similarity
        for sc in compare_runs(comparator, batch, stored)
    }


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("threshold", [None, 0.0, 0.25, 0.5, 1.0])
    def test_batch_equals_reference(self, measure, threshold):
        for index in range(15):
            rng = example_rng(2021, f"kernel:{measure}:{threshold}", index)
            batch = random_batch(rng, rng.randint(0, 40))
            comparator = InternedComparator(measure=measure, threshold=threshold)
            assert emitted(comparator, batch) == reference(
                measure, batch, threshold
            ), f"diverged on example {index}"

    @pytest.mark.parametrize("measure", MEASURES)
    @pytest.mark.parametrize("threshold", [None, 0.0, 0.5, 1.0])
    def test_stored_partners_equal_reference(self, measure, threshold):
        """Partners as the profile map stores them (tuple tokens, packed
        ids) against the oracle on the original profiles."""
        for index in range(15):
            rng = example_rng(2021, f"stored:{measure}:{threshold}", index)
            batch = random_batch(rng, rng.randint(0, 40))
            comparator = InternedComparator(measure=measure, threshold=threshold)
            assert emitted(comparator, batch, stored=True) == reference(
                measure, batch, threshold
            ), f"diverged on example {index}"

    @pytest.mark.parametrize("measure", MEASURES)
    def test_prefilter_never_changes_the_answer(self, measure):
        for index in range(10):
            rng = example_rng(7, f"prefilter:{measure}", index)
            batch = random_batch(rng, 30)
            with_filter = InternedComparator(
                measure=measure, threshold=0.4, prefilter=True
            )
            without = InternedComparator(
                measure=measure, threshold=0.4, prefilter=False
            )
            assert emitted(with_filter, batch) == emitted(without, batch)

    @pytest.mark.parametrize("measure", MEASURES)
    def test_string_fallback_equals_reference(self, measure):
        for index in range(8):
            rng = example_rng(3, f"strings:{measure}", index)
            batch = random_batch(rng, 25, interned=False)
            comparator = InternedComparator(measure=measure, threshold=0.3)
            assert emitted(comparator, batch) == reference(measure, batch, 0.3)


class TestThresholdBoundary:
    """The edges where an off-by-one-ulp kernel would diverge."""

    def test_score_exactly_at_threshold_is_emitted(self):
        # |a ∩ b| = 1, |a| = 1, |b| = 2 → jaccard = 1/2 exactly.
        batch = [Comparison(left=profile(0, {1}), right=profile(1, {1, 2}))]
        comparator = InternedComparator(measure="jaccard", threshold=0.5)
        assert emitted(comparator, batch) == {(0, 1): 0.5}

    def test_score_one_ulp_below_threshold_is_dropped(self):
        batch = [Comparison(left=profile(0, {1}), right=profile(1, {1, 2}))]
        thr = 0.5 + 2 ** -53
        comparator = InternedComparator(measure="jaccard", threshold=thr)
        assert emitted(comparator, batch) == {}

    def test_prefilter_bound_exactly_at_threshold_keeps_the_pair(self):
        # la=1, lb=3: the bound la/lb is exactly the score at maximal
        # overlap.  threshold = 1/3 (the same float) must NOT prefilter
        # the pair away — inter == la reaches the bound.
        thr = 1 / 3
        batch = [Comparison(left=profile(0, {1}), right=profile(1, {1, 2, 3}))]
        comparator = InternedComparator(measure="jaccard", threshold=thr)
        assert emitted(comparator, batch) == {(0, 1): thr}
        assert similarity_bound("jaccard", 1, 3) == thr

    def test_division_form_prefilter_is_exact_for_awkward_ratios(self):
        # For every (la, lb) the pair with full overlap scores exactly
        # la/lb; thresholding at that float must keep it, for ratios where
        # a multiply-form test (la < thr * lb) could round the wrong way.
        for la, lb in [(1, 3), (2, 3), (3, 7), (5, 9), (7, 11)]:
            small = set(range(la))
            big = set(range(lb))
            thr = la / lb
            batch = [Comparison(left=profile(0, small), right=profile(1, big))]
            comparator = InternedComparator(measure="jaccard", threshold=thr)
            result = emitted(comparator, batch)
            assert result == {(0, 1): thr}, f"dropped at la={la}, lb={lb}"

    def test_two_empty_sets_score_one(self):
        batch = [Comparison(left=profile(0, set()), right=profile(1, set()))]
        for threshold in (None, 0.3, 1.0):
            comparator = InternedComparator(measure="jaccard", threshold=threshold)
            assert emitted(comparator, batch) == {(0, 1): 1.0}

    def test_one_sided_empty_set_scores_zero(self):
        batch = [Comparison(left=profile(0, set()), right=profile(1, {1}))]
        assert emitted(
            InternedComparator(measure="jaccard", threshold=None), batch
        ) == {(0, 1): 0.0}
        assert emitted(
            InternedComparator(measure="jaccard", threshold=0.1), batch
        ) == {}

    def test_threshold_zero_emits_everything(self):
        rng = example_rng(1, "thr-zero", 0)
        batch = random_batch(rng, 20)
        comparator = InternedComparator(measure="jaccard", threshold=0.0)
        assert len(compare_runs(comparator, batch)) == len(batch)

    def test_no_threshold_preserves_batch_order_and_length(self):
        rng = example_rng(1, "no-thr", 0)
        batch = random_batch(rng, 20)
        scored = compare_runs(InternedComparator(measure="jaccard"), batch)
        assert [sc.comparison for sc in scored] == batch
