"""Value standardization applied during data reading.

The paper's data-reading step standardizes entity descriptions before
blocking: consistent spelling variants (the running example maps US
"fiber" to British "fibre"), consistent abbreviations, and generalizing
synonyms (the example maps "timber" to "wood").  This module implements a
rule-based standardizer with exactly these three rule families plus a
light plural stemmer, which is what schema-agnostic ER toolkits ship.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from repro.types import EntityDescription

#: A word as the rules see it: a maximal ASCII alphanumeric run of the
#: lower-cased value (shared with the profile builder's per-word memo).
WORD_RE = re.compile(r"[A-Za-z0-9]+")

#: US -> British spellings seen in product/building descriptions.
DEFAULT_SPELLING: dict[str, str] = {
    "fiber": "fibre",
    "color": "colour",
    "center": "centre",
    "meter": "metre",
    "aluminum": "aluminium",
    "gray": "grey",
    "theater": "theatre",
    "mold": "mould",
}

#: Abbreviation expansions.
DEFAULT_ABBREVIATIONS: dict[str, str] = {
    "st": "street",
    "ave": "avenue",
    "dept": "department",
    "corp": "corporation",
    "inc": "incorporated",
    "ltd": "limited",
    "mm": "millimetre",
    "cm": "centimetre",
    "kg": "kilogram",
    "approx": "approximately",
}

#: Synonym generalization (specific -> general), as in "timber" -> "wood".
DEFAULT_SYNONYMS: dict[str, str] = {
    "timber": "wood",
    "wooden": "wood",
    "lumber": "wood",
    "oak": "wood",
    "pine": "wood",
    "automobile": "car",
    "vehicle": "car",
    "photo": "photograph",
    "pic": "photograph",
}


def _strip_plural(token: str) -> str:
    """Very light stemming: strip common plural suffixes from long tokens."""
    if len(token) > 4 and token.endswith("ies"):
        return token[:-3] + "y"
    if len(token) > 3 and token.endswith("es") and not token.endswith("ses"):
        return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


@dataclass(frozen=True)
class Standardizer:
    """Rule-based value standardizer.

    The word-level maps are applied in order: abbreviation expansion,
    spelling normalization, synonym generalization, then plural stripping.
    """

    spelling: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_SPELLING))
    abbreviations: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_ABBREVIATIONS)
    )
    synonyms: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_SYNONYMS))
    stem_plurals: bool = True

    def standardize_word(self, word: str) -> str:
        """Standardize one lowercase word through all rule families."""
        word = self.abbreviations.get(word, word)
        word = self.spelling.get(word, word)
        word = self.synonyms.get(word, word)
        if self.stem_plurals:
            word = _strip_plural(word)
        return word

    def standardize_value(self, value: str) -> str:
        """Lowercase a value and standardize each word in place."""

        def repl(match: re.Match[str]) -> str:
            return self.standardize_word(match.group(0).lower())

        return WORD_RE.sub(repl, value.lower())

    def standardize(self, entity: EntityDescription) -> EntityDescription:
        """Return a copy of ``entity`` with standardized attribute values."""
        attributes = tuple(
            (name, self.standardize_value(value)) for name, value in entity.attributes
        )
        return EntityDescription(eid=entity.eid, attributes=attributes, source=entity.source)
