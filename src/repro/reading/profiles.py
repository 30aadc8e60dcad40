"""Building standardized profiles from raw entity descriptions.

This is the heart of the data-reading step ``f_dr``: given ``e_i`` it
produces the standardized profile ``p_i`` and the blocking-key set ``K_i``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.reading.interning import TokenDictionary
from repro.reading.standardize import WORD_RE, Standardizer
from repro.reading.tokenize import Tokenizer
from repro.types import EntityDescription, Profile


#: One memo entry per raw lower-cased word: the standardized word when it
#: differs from the raw one (else None), its tokens, their interned ids.
_WordEntry = tuple[str | None, tuple[str, ...], tuple[int, ...]]


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
    every token is additionally interned and the produced profiles carry
    ``token_ids`` — the dense integer view the comparison kernel and the
    multiprocess dispatch run on.  Ids are assigned in first-occurrence
    order (attribute order, then word order).

    Values rarely repeat but their words do (a Zipf vocabulary), so the
    rules run once per distinct *word*: the memo maps a raw lower-cased
    word to its standardized form, tokens and token ids, and a value costs
    one regex pass plus one dict probe per word.  ``cache_size`` bounds the
    memo to keep streaming memory flat.  The memo is tied to the rules it
    was filled under: it is not a constructor argument, so every
    construction and every ``dataclasses.replace`` starts with an empty one.
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
        ids: tuple[int, ...] = ()
        if self.dictionary is not None:
            ids = tuple(map(self.dictionary.intern, tokens))
        entry = (standardized if standardized != word else None, tokens, ids)
        if len(self._memo) >= self.cache_size:
            self._memo.clear()
        self._memo[word] = entry
        return entry

    def build(self, entity: EntityDescription) -> Profile:
        """Produce the profile ``p_i`` (with keys ``K_i``) for ``e_i``."""
        memo = self._memo
        attributes = []
        tokens: set[str] = set()
        ids: set[int] = set()
        for name, value in entity.attributes:
            standardized = value.lower()
            replaced: dict[str, str] = {}
            for word in WORD_RE.findall(standardized):
                replacement, word_tokens, word_ids = memo.get(word) or self._learn(word)
                if replacement is not None:
                    replaced[word] = replacement
                tokens.update(word_tokens)
                ids.update(word_ids)
            if replaced:
                standardized = _substitute(replaced, standardized)
            attributes.append((name, standardized))
        return Profile(
            eid=entity.eid,
            attributes=tuple(attributes),
            tokens=frozenset(tokens),
            source=entity.source,
            token_ids=frozenset(ids) if self.dictionary is not None else None,
        )
