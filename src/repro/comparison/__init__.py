"""Comparison substrate: similarity measures and profile comparators."""

from repro.comparison.comparator import AttributeWeightedComparator, TokenSetComparator
from repro.comparison.kernel import InternedComparator, similarity_bound
from repro.comparison.tfidf import IncrementalTfIdfComparator
from repro.comparison.similarity import (
    SET_SIMILARITIES,
    cosine,
    dice,
    get_set_similarity,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_similarity,
    monge_elkan,
    monge_elkan_symmetric,
    overlap,
)

__all__ = [
    "TokenSetComparator",
    "AttributeWeightedComparator",
    "InternedComparator",
    "IncrementalTfIdfComparator",
    "similarity_bound",
    "jaccard",
    "dice",
    "overlap",
    "cosine",
    "levenshtein",
    "levenshtein_similarity",
    "jaro",
    "jaro_winkler",
    "monge_elkan",
    "monge_elkan_symmetric",
    "get_set_similarity",
    "SET_SIMILARITIES",
]
