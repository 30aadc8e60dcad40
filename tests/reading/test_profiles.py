"""Unit tests for profile building (f_dr substrate)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.proptest import Gen, Property, choice, integers, lists, run_property
from repro.reading.interning import TokenDictionary
from repro.reading.profiles import ProfileBuilder
from repro.reading.standardize import Standardizer
from repro.reading.tokenize import Tokenizer
from repro.types import EntityDescription, Profile


class TestProfileBuilder:
    def test_builds_tokens_from_standardized_values(self):
        builder = ProfileBuilder()
        e = EntityDescription.create(1, {"material": "Timber", "part": "Panels"})
        p = builder.build(e)
        assert "wood" in p.tokens
        assert "panel" in p.tokens
        assert "timber" not in p.tokens

    def test_keys_alias(self):
        p = ProfileBuilder().build(EntityDescription.create(1, {"a": "glass"}))
        assert p.keys == p.tokens

    def test_preserves_identity_and_source(self):
        e = EntityDescription.create(("x", 3), {"a": "glass"}, source="x")
        p = ProfileBuilder().build(e)
        assert p.eid == ("x", 3)
        assert p.source == "x"

    def test_memo_hit_returns_same_result(self):
        builder = ProfileBuilder()
        e1 = EntityDescription.create(1, {"a": "fiber glass"})
        e2 = EntityDescription.create(2, {"b": "fiber glass"})
        p1, p2 = builder.build(e1), builder.build(e2)
        assert p1.tokens == p2.tokens
        assert p1.attributes[0][1] == p2.attributes[0][1]

    def test_memo_eviction_keeps_results_correct(self):
        builder = ProfileBuilder(cache_size=2)
        values = ["alpha beta", "gamma delta", "epsilon zeta", "alpha beta"]
        for i, value in enumerate(values):
            p = builder.build(EntityDescription.create(i, {"a": value}))
            assert p.tokens == frozenset(value.split())
            assert len(builder._memo) <= 2

    def test_memo_is_per_word_not_per_value(self):
        builder = ProfileBuilder()
        builder.build(EntityDescription.create(1, {"a": "Glass Panels", "b": "glass"}))
        builder.build(EntityDescription.create(2, {"a": "panels of GLASS"}))
        assert set(builder._memo) == {"glass", "panels", "of"}

    def test_ids_are_assigned_in_first_occurrence_order(self):
        dictionary = TokenDictionary()
        builder = ProfileBuilder(dictionary=dictionary)
        builder.build(EntityDescription.create(1, {"a": "steel frame", "b": "glass steel"}))
        builder.build(EntityDescription.create(2, {"a": "wood glass"}))
        assert list(dictionary) == ["steel", "frame", "glass", "wood"]


class TestMemoFollowsTheRules:
    """The memo holds results of one (standardizer, tokenizer, dictionary):
    a copy made under other rules must not read them."""

    ENTITY = EntityDescription.create(1, {"a": "the timber of the roof"})

    def test_memo_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            ProfileBuilder(_memo={})  # type: ignore[call-arg]

    def test_replacing_the_tokenizer_forgets_the_old_tokens(self):
        builder = ProfileBuilder()
        assert "the" not in builder.build(self.ENTITY).tokens
        keeping = dataclasses.replace(
            builder, tokenizer=Tokenizer(drop_stopwords=False)
        )
        assert {"the", "of"} <= keeping.build(self.ENTITY).tokens
        assert "the" not in builder.build(self.ENTITY).tokens  # original intact

    def test_replacing_the_standardizer_forgets_the_old_words(self):
        builder = ProfileBuilder()
        assert "wood" in builder.build(self.ENTITY).tokens
        plain = dataclasses.replace(builder, standardizer=Standardizer(synonyms={}))
        profile = plain.build(self.ENTITY)
        assert "timber" in profile.tokens and "wood" not in profile.tokens
        assert profile.attributes == (("a", "the timber of the roof"),)

    def test_with_dictionary_starts_empty_and_interns_everything(self):
        builder = ProfileBuilder()
        builder.build(self.ENTITY)
        dictionary = TokenDictionary()
        interning = builder.with_dictionary(dictionary)
        assert interning._memo == {} and interning.dictionary is dictionary
        profile = interning.build(self.ENTITY)
        assert dictionary.decode_set(profile.token_ids) == frozenset(profile.tokens)
        assert builder.build(self.ENTITY).token_ids is None


# --------------------------------------------------------------------------
# The per-word memo against the reference composition

#: Word material: rule keys in several cases, plurals, stopwords, short and
#: numeric tokens, and the Unicode case-folding corners — ``İ`` lower-cases
#: to ``i`` + a combining dot, the Kelvin sign to ASCII ``k``, ``ß`` stays
#: a non-word character, capital sigma lower-cases by context.
_WORDS = (
    "fiber", "Fiber", "FIBER", "st", "St", "inc", "timber", "Timbers",
    "panels", "glasses", "classes", "ponies", "glass", "the", "The", "of",
    "x", "7", "42", "a1", "wood", "street", "dr", "co", "ab", "ss", "k",
    "İ", "İstanbul", "\u212a", "\u212aelvin", "ß", "straße", "Σ", "ΑΣ", "é",
)
_SEPARATORS = (" ", " ", " ", "  ", "-", ".", ", ", "_", "/", "\t", "", "·", "\u0307")

#: Rule maps whose replacements are multi-word, mixed-case, punctuated,
#: empty, non-ASCII, or themselves rule keys of a later family.
_RULE_SETS = (
    {},
    {"abbreviations": {"st": "Main Street", "inc": "Inc.", "dr": "", "co": "\u212a",
                       "ab": "İx", "ss": "ß"}},
    {"abbreviations": {"st": "fiber"}, "spelling": {"fiber": "Fibre-Glass panels"},
     "synonyms": {"timber": "the wood", "k": "K 9"}},
    {"spelling": {"glass": "GLASS"}, "synonyms": {"wood": "x"}, "stem_plurals": False},
)
_TOKENIZERS = (
    Tokenizer(),
    Tokenizer(drop_stopwords=False),
    Tokenizer(min_length=1),
    Tokenizer(min_length=4, stopwords=frozenset({"glass", "street"})),
)


def _values() -> Gen:
    def draw(rng) -> str:
        pieces = []
        for _ in range(rng.randint(0, 6)):
            pieces.append(rng.choice(_WORDS))
            pieces.append(rng.choice(_SEPARATORS))
        return "".join(pieces)

    return Gen(draw)


def _builder_cases() -> Gen:
    entities = lists(lists(_values(), min_size=0, max_size=4), min_size=1, max_size=8)

    def draw(rng) -> tuple:
        return (
            choice(_RULE_SETS).sample(rng),
            choice(_TOKENIZERS).sample(rng),
            choice((1, 2, 100_000)).sample(rng),
            integers(0, 1).sample(rng) == 1,
            entities.sample(rng),
        )

    return Gen(draw)


def reference_profile(
    standardizer: Standardizer,
    tokenizer: Tokenizer,
    dictionary: TokenDictionary | None,
    entity: EntityDescription,
) -> Profile:
    """``standardize_value`` → ``token_set`` → intern, with no memo at all."""
    attributes = tuple(
        (name, standardizer.standardize_value(value))
        for name, value in entity.attributes
    )
    tokens = tokenizer.token_set(value for _, value in attributes)
    ids = None
    if dictionary is not None:
        for _, value in attributes:  # first-occurrence order
            for token in tokenizer.tokens(value):
                dictionary.intern(token)
        ids = frozenset(dictionary.lookup(token) for token in tokens)
    return Profile(entity.eid, attributes, tokens, entity.source, ids)


def contents(profile: Profile) -> tuple:
    """What a profile says, whatever form its two views take."""
    ids = profile.token_ids
    return (
        profile.eid,
        profile.attributes,
        frozenset(profile.tokens),
        profile.source,
        sorted(ids) if ids is not None else None,
    )


def assert_stored_form(profile: Profile, dictionary: TokenDictionary | None) -> None:
    """With a dictionary, ``f_dr`` emits the stored form: sorted distinct
    ids as a tuple and the tokens as the tuple aligned with them.  Without
    one, a frozenset of tokens and no ids."""
    if dictionary is None:
        assert type(profile.tokens) is frozenset and profile.token_ids is None
        return
    ids = profile.token_ids
    assert type(ids) is tuple and type(profile.tokens) is tuple
    assert list(ids) == sorted(set(ids))
    assert profile.tokens == tuple(map(dictionary.decode, ids))


class TestWordMemoEqualsReference:
    def test_word_memo_builder_equals_reference_property(self):
        def check(case) -> None:
            rules, tokenizer, cache_size, interning, value_lists = case
            standardizer = Standardizer(**rules)
            built_dictionary = TokenDictionary() if interning else None
            reference_dictionary = TokenDictionary() if interning else None
            builder = ProfileBuilder(
                standardizer=standardizer,
                tokenizer=tokenizer,
                dictionary=built_dictionary,
                cache_size=cache_size,
            )
            for eid, values in enumerate(value_lists):
                entity = EntityDescription(
                    eid=eid,
                    attributes=tuple((f"a{i}", v) for i, v in enumerate(values)),
                )
                built = builder.build(entity)
                expected = reference_profile(
                    standardizer, tokenizer, reference_dictionary, entity
                )
                assert contents(built) == contents(expected), (entity, built, expected)
                assert_stored_form(built, built_dictionary)
                assert len(builder._memo) <= cache_size
            if interning:
                # Same id space, assigned in the same order.
                assert list(built_dictionary) == list(reference_dictionary)

        report = run_property(
            Property("word-memo-equals-reference", _builder_cases(), check),
            seed=2021,
            examples=300,
        )
        if report.failure is not None:
            pytest.fail(report.failure.describe())

    @pytest.mark.parametrize(
        "value, standardized, tokens",
        [
            ("İstanbul St", "i\u0307stanbul street", {"stanbul", "street"}),
            ("\u212aelvin 300\u212a", "kelvin 300k", {"kelvin", "300k"}),
            ("Straße-Panels", "straße-panel", {"stra", "panel"}),
            ("ΑΣ Fiber", "ας fibre", {"fibre"}),
        ],
    )
    def test_unicode_case_folding_matches_the_reference(
        self, value, standardized, tokens
    ):
        entity = EntityDescription.create(1, {"a": value})
        for cache_size in (1, 100_000):
            built = ProfileBuilder(cache_size=cache_size).build(entity)
            assert built.attributes == (("a", standardized),)
            assert built.tokens == frozenset(tokens)
            assert built == reference_profile(Standardizer(), Tokenizer(), None, entity)

    @given(
        st.lists(
            st.tuples(st.text(max_size=12), st.text(max_size=30)),
            max_size=6,
        )
    )
    def test_tokens_always_subset_of_standardized_text(self, attributes):
        builder = ProfileBuilder()
        e = EntityDescription.create(0, attributes)
        p = builder.build(e)
        joined = " ".join(v for _, v in p.attributes)
        for token in p.tokens:
            assert token in joined


# --------------------------------------------------------------------------
# What f_dr keeps per entity and per learned word

_BUILDERS = {
    "string": lambda **kw: ProfileBuilder(**kw),
    "interned": lambda **kw: ProfileBuilder(dictionary=TokenDictionary(), **kw),
}


@pytest.fixture(params=sorted(_BUILDERS))
def make_builder(request):
    return _BUILDERS[request.param]


class TestFootprint:
    def test_already_standard_entity_shares_its_attribute_tuple(self, make_builder):
        entity = EntityDescription(eid=1, attributes=(("a", "glass roof"), ("b", "wood")))
        profile = make_builder().build(entity)
        assert profile.attributes is entity.attributes
        assert frozenset(profile.tokens) == {"glass", "roof", "wood"}

    def test_partly_changed_entity_shares_its_unchanged_pairs(self, make_builder):
        entity = EntityDescription(
            eid=1, attributes=(("a", "glass roof"), ("b", "Timber"), ("c", "wood"))
        )
        profile = make_builder().build(entity)
        assert profile.attributes == (("a", "glass roof"), ("b", "wood"), ("c", "wood"))
        assert profile.attributes is not entity.attributes
        assert profile.attributes[0] is entity.attributes[0]
        assert profile.attributes[2] is entity.attributes[2]

    def test_list_typed_attributes_come_out_as_tuples(self, make_builder):
        entity = EntityDescription(eid=1, attributes=[["a", "glass roof"], ("b", "wood")])
        profile = make_builder().build(entity)
        assert profile.attributes == (("a", "glass roof"), ("b", "wood"))
        assert type(profile.attributes) is tuple
        assert all(type(pair) is tuple for pair in profile.attributes)

    def test_learned_word_adds_one_memo_entry_and_no_per_token_pair(self, make_builder):
        builder = make_builder()
        builder.build(EntityDescription.create(1, {"a": "glass roof"}))
        assert len(builder._memo) == 2
        builder.build(EntityDescription.create(2, {"a": "glass Timber"}))
        assert len(builder._memo) == 3
        replacement, found = builder._memo["timber"]
        assert replacement == "wood"
        if builder.dictionary is None:
            assert found == ("wood",)
        else:
            assert found == (builder.dictionary.lookup("wood"),)
        for entry in builder._memo.values():
            assert all(type(item) in (int, str) for item in entry[1])

    def test_tokens_of_round_trips_ids(self):
        dictionary = TokenDictionary()
        ids = [dictionary.intern(token) for token in ("wood", "glass", "roof")]
        assert dictionary.tokens_of(ids) == ("wood", "glass", "roof")
        assert dictionary.tokens_of(reversed(ids)) == ("roof", "glass", "wood")
        assert dictionary.tokens_of(()) == ()
        assert list(map(dictionary.intern, dictionary.tokens_of(ids))) == ids


class TestSharedBuilderConcurrency:
    def test_four_threads_sharing_a_builder_match_a_single_thread(self):
        import sys
        import threading

        words = ["glass", "Timber", "roof", "panels", "st", "fiber", "wood", "frame"]
        entities = [
            EntityDescription.create(
                eid,
                {
                    "a": " ".join(words[(eid * k) % len(words)] for k in range(1, 4)),
                    "b": f"{words[eid % len(words)]} w{eid % 37} x{eid % 11}",
                },
            )
            for eid in range(400)
        ]
        single = ProfileBuilder(dictionary=TokenDictionary())
        expected = {
            e.eid: (p.attributes, frozenset(p.tokens))
            for e in entities
            for p in [single.build(e)]
        }

        shared = ProfileBuilder(dictionary=TokenDictionary(), cache_size=2)
        built: dict = {}
        errors: list[BaseException] = []

        def work(offset: int) -> None:
            try:
                for entity in entities[offset:] + entities[:offset]:
                    built.setdefault(entity.eid, []).append(shared.build(entity))
            except BaseException as error:  # surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k * 100,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        dictionary = shared.dictionary
        for eid, profiles in built.items():
            assert len(profiles) == 4
            for profile in profiles:
                assert_stored_form(profile, dictionary)
                decoded = frozenset(dictionary.tokens_of(profile.token_ids))
                assert (profile.attributes, decoded) == expected[eid]
        assert len(shared._memo) <= 2
