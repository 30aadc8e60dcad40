"""Unit and property tests for the interned comparison kernel.

The kernel's contract is *bit-identical* scores and match decisions versus
the string-set similarity functions — not approximate equality — so every
parity assertion here uses ``==`` on floats deliberately.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.comparison import (
    SET_SIMILARITIES,
    InternedComparator,
    TokenSetComparator,
    similarity_bound,
)
from repro.core.stages import ComparisonStage, MaterializedComparisons
from repro.core.state import stored_form
from repro.errors import ConfigurationError
from repro.reading import TokenDictionary
from repro.reading.interning import pack_ids
from repro.types import Comparison, Profile

id_sets = st.sets(st.integers(min_value=0, max_value=200), max_size=30)
token_sets = st.sets(st.sampled_from([f"tok{i}" for i in range(40)]), max_size=12)
measures = st.sampled_from(sorted(SET_SIMILARITIES))


def interned_profile(eid, tokens, dictionary):
    tokens = frozenset(tokens)
    return Profile(
        eid=eid,
        attributes=(("t", " ".join(sorted(tokens))),),
        tokens=tokens,
        token_ids=dictionary.intern_set(tokens),
    )


def string_profile(eid, tokens):
    tokens = frozenset(tokens)
    return Profile(
        eid=eid, attributes=(("t", " ".join(sorted(tokens))),), tokens=tokens
    )


class TestBounds:
    def test_known_values(self):
        assert similarity_bound("jaccard", 2, 4) == 0.5
        assert similarity_bound("dice", 2, 4) == pytest.approx(2 / 3)
        assert similarity_bound("cosine", 1, 4) == 0.5
        assert similarity_bound("overlap", 1, 1000) == 1.0

    @given(measures, token_sets, token_sets)
    def test_bound_dominates_actual_similarity(self, measure, a, b):
        if not a or not b:
            return
        bound = similarity_bound(measure, len(a), len(b))
        assert SET_SIMILARITIES[measure](a, b) <= bound + 1e-12


class TestInternedComparatorValidation:
    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            InternedComparator(measure="hamming")

    def test_rejects_out_of_range_threshold(self):
        with pytest.raises(ConfigurationError):
            InternedComparator(threshold=1.5)
        with pytest.raises(ConfigurationError):
            InternedComparator(threshold=-0.1)

    def test_accepts_none_threshold(self):
        assert InternedComparator(threshold=None).threshold is None


class TestInternedComparatorScore:
    @given(measures, token_sets, token_sets)
    def test_score_on_ids_equals_string_similarity(self, measure, a, b):
        d = TokenDictionary()
        left = interned_profile(1, a, d)
        right = interned_profile(2, b, d)
        comparator = InternedComparator(measure=measure)
        assert comparator.score(left, right) == SET_SIMILARITIES[measure](a, b)

    def test_mixed_pair_falls_back_to_strings(self):
        d = TokenDictionary()
        left = interned_profile(1, {"x", "y"}, d)
        right = string_profile(2, {"y", "z"})
        assert InternedComparator().score(left, right) == pytest.approx(1 / 3)

    def test_compare_preserves_comparison_identity(self):
        d = TokenDictionary()
        comparison = Comparison(
            interned_profile(1, {"x"}, d), interned_profile(2, {"x"}, d)
        )
        scored = InternedComparator().compare(comparison)
        assert scored.comparison is comparison
        assert scored.similarity == 1.0


def batch_for(pairs, dictionary=None):
    comparisons = []
    for eid, (a, b) in enumerate(pairs):
        if dictionary is not None:
            left = interned_profile((eid, "l"), a, dictionary)
            right = interned_profile((eid, "r"), b, dictionary)
        else:
            left = string_profile((eid, "l"), a)
            right = string_profile((eid, "r"), b)
        comparisons.append(Comparison(left, right))
    return comparisons


class TestStoredFormPairings:
    """Every single-pair and batch path scores every pairing of the four
    profile forms — {arriving, stored} × {interned, string} — like the
    naive set oracle.  Here an arriving profile holds sets, as a
    hand-built or reloaded one does; a stored interned one holds the
    tuples ``f_dr`` builds and the profile map keeps, which a path that
    intersected ``left`` directly could not score."""

    FORMS = ("arriving-interned", "stored-interned", "arriving-string", "stored-string")

    @staticmethod
    def form(kind, eid, tokens, dictionary):
        if kind.endswith("-interned"):
            profile = interned_profile(eid, tokens, dictionary)
        else:
            profile = string_profile(eid, tokens)
        return stored_form(profile) if kind.startswith("stored-") else profile

    @given(measures, token_sets, token_sets)
    def test_every_pairing_scores_like_the_set_oracle(self, measure, a, b):
        d = TokenDictionary()
        expected = SET_SIMILARITIES[measure](set(a), set(b))
        interned = InternedComparator(measure=measure)
        per_pair = TokenSetComparator.named(measure)
        for left_kind in self.FORMS:
            for right_kind in self.FORMS:
                left = self.form(left_kind, 1, a, d)
                right = self.form(right_kind, 2, b, d)
                pairing = (left_kind, right_kind)
                assert interned.score(left, right) == expected, pairing
                assert interned.compare(Comparison(left, right)).similarity == expected, pairing
                (scored,) = interned.compare_batch(left, [right])
                assert scored.similarity == expected, pairing
                assert per_pair.score(left, right) == expected, pairing
                assert per_pair.compare(Comparison(left, right)).similarity == expected, pairing
                (scored,) = ComparisonStage(per_pair)(
                    MaterializedComparisons(profile=left, partners=[right])
                ).scored
                assert scored.similarity == expected, pairing


def compare_runs(comparator, comparisons, tally=None):
    """Score ``comparisons`` through ``compare_batch(left, partners)``, one
    call per run of pairs that share their left profile."""
    out = []
    start = 0
    while start < len(comparisons):
        left = comparisons[start].left
        end = start
        while end < len(comparisons) and comparisons[end].left is left:
            end += 1
        partners = [c.right for c in comparisons[start:end]]
        out.extend(comparator.compare_batch(left, partners, tally))
        start = end
    return out


class TestCompareBatch:
    @given(
        measures,
        st.lists(st.tuples(token_sets, token_sets), max_size=12),
        st.booleans(),
    )
    def test_no_threshold_emits_every_pair_exactly(self, measure, pairs, interned):
        d = TokenDictionary() if interned else None
        comparisons = batch_for(pairs, d)
        comparator = InternedComparator(measure=measure, threshold=None)
        scored = compare_runs(comparator, comparisons)
        assert [s.comparison for s in scored] == comparisons
        assert [s.similarity for s in scored] == [
            SET_SIMILARITIES[measure](a, b) for a, b in pairs
        ]

    @given(
        measures,
        st.lists(st.tuples(token_sets, token_sets), max_size=12),
        st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
        st.booleans(),
        st.booleans(),
    )
    def test_threshold_emits_exactly_the_matchable_pairs(
        self, measure, pairs, threshold, prefilter, interned
    ):
        d = TokenDictionary() if interned else None
        comparisons = batch_for(pairs, d)
        comparator = InternedComparator(
            measure=measure, threshold=threshold, prefilter=prefilter
        )
        scored = compare_runs(comparator, comparisons)
        expected = [
            (c, SET_SIMILARITIES[measure](a, b))
            for c, (a, b) in zip(comparisons, pairs)
            if SET_SIMILARITIES[measure](a, b) >= threshold
        ]
        assert [(s.comparison, s.similarity) for s in scored] == expected

    def test_prefilter_on_and_off_agree(self):
        d = TokenDictionary()
        pairs = [
            ({"a"}, {"a", "b", "c", "d"}),  # prefiltered at 0.5
            ({"a", "b"}, {"a", "b"}),
            (set(), set()),
            ({"a"}, set()),
            ({"q", "r", "s"}, {"q", "r", "t"}),
        ]
        comparisons = batch_for(pairs, d)
        on = InternedComparator(threshold=0.5, prefilter=True)
        off = InternedComparator(threshold=0.5, prefilter=False)
        assert [
            (s.comparison, s.similarity) for s in compare_runs(on, comparisons)
        ] == [(s.comparison, s.similarity) for s in compare_runs(off, comparisons)]

    def test_two_empty_sets_emit_at_any_threshold(self):
        d = TokenDictionary()
        comparisons = batch_for([(set(), set())], d)
        scored = compare_runs(InternedComparator(threshold=1.0), comparisons)
        assert [s.similarity for s in scored] == [1.0]

    def test_alternating_lefts_defeat_run_caching_safely(self):
        # The kernel turns the left side into a set once per call; calls
        # with alternating lefts must still score each pair on its own sets.
        d = TokenDictionary()
        p1 = interned_profile(1, {"a", "b"}, d)
        p2 = interned_profile(2, {"c", "d"}, d)
        p3 = interned_profile(3, {"a", "b"}, d)
        comparator = InternedComparator(threshold=None)
        scored = [
            s
            for left in (p1, p2, p1)
            for s in comparator.compare_batch(left, [p3])
        ]
        assert [s.similarity for s in scored] == [1.0, 0.0, 1.0]
        assert [s.comparison for s in scored] == [
            Comparison(p1, p3),
            Comparison(p2, p3),
            Comparison(p1, p3),
        ]

    def test_mixed_interned_and_plain_profiles_in_one_batch(self):
        d = TokenDictionary()
        interned_left = interned_profile(1, {"x", "y"}, d)
        plain = string_profile(2, {"x", "y"})
        interned_other = interned_profile(3, {"x", "z"}, d)
        comparator = InternedComparator(threshold=None)
        # A plain partner falls back to strings; the next one is back on ids.
        scored = comparator.compare_batch(interned_left, [plain, interned_other])
        # A plain left scores every partner on strings.
        scored += comparator.compare_batch(plain, [interned_other])
        assert [s.similarity for s in scored] == [
            1.0,
            pytest.approx(1 / 3),
            pytest.approx(1 / 3),
        ]

    @given(
        measures,
        st.lists(st.tuples(id_sets, id_sets), max_size=12),
        st.sampled_from([None, 0.0, 0.5, 0.7]),
    )
    def test_packed_array_partner_scores_like_a_set(self, measure, pairs, threshold):
        """Partners as the profile map and a pool worker hold them: the
        packed id array.  The arriving side is a set in the parent and the
        array off the shared column in a worker."""

        def profile(eid, ids):
            return Profile(eid=eid, attributes=(), tokens=frozenset(), token_ids=ids)

        comparator = InternedComparator(measure=measure, threshold=threshold)
        on_sets = compare_runs(
            comparator,
            [Comparison(profile(1, frozenset(a)), profile(2, frozenset(b))) for a, b in pairs],
        )
        on_arrays = compare_runs(
            comparator,
            [Comparison(profile(1, frozenset(a)), profile(2, pack_ids(b))) for a, b in pairs],
        )
        both_arrays = compare_runs(
            comparator,
            [Comparison(profile(1, pack_ids(a)), profile(2, pack_ids(b))) for a, b in pairs],
        )
        assert [s.similarity for s in on_arrays] == [s.similarity for s in on_sets]
        assert [s.similarity for s in both_arrays] == [s.similarity for s in on_sets]


class TestPrefilterZeroTokenRegression:
    """The length prefilter must not treat 'empty side' as 'cheap skip'.

    Regression for the ``if la and lb`` bypass a hand-copied prefilter once
    had: a pair with exactly one empty token set can never reach a positive
    threshold (score is identically 0) and is droppable, but a pair with
    *both* sides empty scores jaccard 1.0 and may classify as a match.
    """

    def test_one_sided_empty_dropped_both_empty_scored(self):
        d = TokenDictionary()
        both_empty, one_sided = batch_for([(set(), set()), (set(), {"a", "b"})], d)
        stage = ComparisonStage(InternedComparator(threshold=0.4))
        assert one_sided.left.token_ids == both_empty.left.token_ids == frozenset()
        out = stage(
            MaterializedComparisons(
                profile=both_empty.left, partners=[both_empty.right, one_sided.right]
            )
        )
        assert [(s.comparison, s.similarity) for s in out.scored] == [(both_empty, 1.0)]
        assert stage.compared == 2
        assert stage.prefiltered == 1

    @pytest.mark.parametrize("measure", sorted(SET_SIMILARITIES))
    def test_prefiltered_counts_only_length_skips(self, measure):
        d = TokenDictionary()
        left = interned_profile(0, {"a"}, d)
        partners = [
            interned_profile(1, {"a", "b", "c", "d", "e"}, d),  # length bound below 0.5
            interned_profile(2, {"b"}, d),  # scored, then verified away
            interned_profile(3, {"a"}, d),
        ]
        stage = ComparisonStage(InternedComparator(measure=measure, threshold=0.5))
        stage(MaterializedComparisons(profile=left, partners=partners))
        assert stage.compared == 3
        assert stage.prefiltered == (0 if measure == "overlap" else 1)
        unfiltered = ComparisonStage(
            InternedComparator(measure=measure, threshold=0.5, prefilter=False)
        )
        unfiltered(MaterializedComparisons(profile=left, partners=partners))
        assert unfiltered.prefiltered == 0
