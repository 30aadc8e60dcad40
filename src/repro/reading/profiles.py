"""Building standardized profiles from raw entity descriptions.

This is the heart of the data-reading step ``f_dr``: given ``e_i`` it
produces the standardized profile ``p_i`` and the blocking-key set ``K_i``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.reading.interning import TokenDictionary, pack_ids
from repro.reading.standardize import WORD_RE, Standardizer
from repro.reading.tokenize import Tokenizer
from repro.types import EntityDescription, Profile


#: One memo entry per raw lower-cased word: the standardized word when it
#: differs from the raw one (else None), then what ``build`` adds to the
#: profile's token set — the word's tokens on the string path, its token
#: ids when interning.  An entry is self-contained, so threads sharing a
#: builder publish a learned word with a single dict store.
_WordEntry = tuple[str | None, tuple]


def _substitute(replaced: dict[str, str], lowered: str) -> str:
    """``lowered`` with every word that has an entry in ``replaced`` swapped."""
    return WORD_RE.sub(lambda match: replaced.get(match[0], match[0]), lowered)


@dataclass(frozen=True)
class ProfileBuilder:
    """Combines a :class:`Standardizer` and a :class:`Tokenizer`.

    ``build`` implements the data-reading function of the functional model:
    it standardizes attribute values and derives the blocking keys ``K_i``
    from the standardized values (token blocking keys).

    When a :class:`~repro.reading.interning.TokenDictionary` is attached,
    every token is additionally interned and the produced profile is
    already in the form the profile map stores and the kernel scores
    (:func:`~repro.core.state.stored_form`): ``token_ids`` the sorted tuple
    of :func:`~repro.reading.interning.pack_ids` and ``tokens`` the tuple
    of the same tokens in id order.  Ids are assigned in first-occurrence
    order (attribute order, then word order).  Without a dictionary
    ``tokens`` is a frozenset, which the string comparators intersect.

    Values rarely repeat but their words do (a Zipf vocabulary), so the
    rules run once per distinct *word*: the memo maps a raw lower-cased
    word to its standardized form and its tokens (token ids when
    interning), and a value costs one regex pass plus one dict probe per
    word.  ``cache_size`` bounds the memo to keep streaming memory flat.
    The memo is tied to the rules it was filled under: it is not a
    constructor argument, so every construction and every
    ``dataclasses.replace`` starts with an empty one.
    """

    standardizer: Standardizer = field(default_factory=Standardizer)
    tokenizer: Tokenizer = field(default_factory=Tokenizer)
    dictionary: TokenDictionary | None = None
    cache_size: int = 100_000
    _memo: dict[str, _WordEntry] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def with_dictionary(self, dictionary: TokenDictionary) -> "ProfileBuilder":
        """A copy of this builder interning into ``dictionary``."""
        return dataclasses.replace(self, dictionary=dictionary)

    def _learn(self, word: str) -> _WordEntry:
        standardized = self.standardizer.standardize_word(word)
        tokens = tuple(self.tokenizer.tokens(standardized))
        if self.dictionary is not None:
            tokens = tuple(map(self.dictionary.intern, tokens))
        entry = (standardized if standardized != word else None, tokens)
        if len(self._memo) >= self.cache_size:
            self._memo.clear()
        self._memo[word] = entry
        return entry

    def build(self, entity: EntityDescription) -> Profile:
        """Produce the profile ``p_i`` (with keys ``K_i``) for ``e_i``.

        An attribute pair whose value standardization leaves unchanged is
        reused, and so is the whole attribute tuple when no value changes
        (only when the input pairs are tuples themselves).
        """
        memo = self._memo
        given = entity.attributes
        attributes = []
        reused = type(given) is tuple
        # Tokens on the string path, token ids when interning.
        seen: set = set()
        for pair in given:
            name, value = pair
            standardized = value.lower()
            replaced: dict[str, str] = {}
            for word in WORD_RE.findall(standardized):
                replacement, found = memo.get(word) or self._learn(word)
                if replacement is not None:
                    replaced[word] = replacement
                seen.update(found)
            if replaced:
                standardized = _substitute(replaced, standardized)
            if standardized == value and type(pair) is tuple:
                attributes.append(pair)
            else:
                attributes.append((name, standardized))
                reused = False
        attributes = given if reused else tuple(attributes)
        if self.dictionary is None:
            return Profile(entity.eid, attributes, frozenset(seen), entity.source)
        ids = pack_ids(seen)
        return Profile(
            entity.eid, attributes, self.dictionary.tokens_of(ids), entity.source, ids
        )
