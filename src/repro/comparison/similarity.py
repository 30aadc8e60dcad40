"""Similarity measures over token sets and strings.

The paper's comparison stage employs Jaccard similarity over standardized
profiles; the additional measures here let users swap in alternatives and
are exercised by the extension examples.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Set

SetSimilarity = Callable[[Set[str], Set[str]], float]

# The four set measures intersect with ``a.intersection(b)`` rather than
# ``a & b``: the right operand may then be any sized iterable, which is how
# the interned kernel scores a set against a stored sorted id tuple.


def jaccard(a: Set[str], b: Set[str]) -> float:
    """Jaccard coefficient |a ∩ b| / |a ∪ b| (1.0 for two empty sets)."""
    if not a and not b:
        return 1.0
    inter = len(a.intersection(b))
    union = len(a) + len(b) - inter
    return inter / union if union else 0.0


def dice(a: Set[str], b: Set[str]) -> float:
    """Sørensen–Dice coefficient 2|a ∩ b| / (|a| + |b|)."""
    if not a and not b:
        return 1.0
    denom = len(a) + len(b)
    return 2.0 * len(a.intersection(b)) / denom if denom else 0.0


def overlap(a: Set[str], b: Set[str]) -> float:
    """Overlap coefficient |a ∩ b| / min(|a|, |b|)."""
    if not a and not b:
        return 1.0
    denom = min(len(a), len(b))
    return len(a.intersection(b)) / denom if denom else 0.0


def cosine(a: Set[str], b: Set[str]) -> float:
    """Set cosine (Ochiai) similarity |a ∩ b| / sqrt(|a| · |b|)."""
    if not a and not b:
        return 1.0
    denom = math.sqrt(len(a) * len(b))
    return len(a.intersection(b)) / denom if denom else 0.0


def levenshtein(a: str, b: str, max_distance: int | None = None) -> int:
    """Classic dynamic-programming edit distance between two strings.

    When ``max_distance`` is given, the computation stops as soon as the
    distance provably exceeds it and a *lower bound* on the true distance
    (still > ``max_distance``) is returned instead of the exact value.  Two
    early exits apply: the length difference alone is a lower bound on the
    edit distance (``abs(len(a) - len(b))`` deletions/insertions are
    unavoidable), and DP row minima never decrease, so once a whole row
    exceeds the budget the final distance must too.  Callers that only ask
    "is the distance ≤ max_distance?" get an exact verdict either way.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    if max_distance is not None and len(a) - len(b) > max_distance:
        return len(a) - len(b)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            insert = current[j - 1] + 1
            delete = previous[j] + 1
            substitute = previous[j - 1] + (ca != cb)
            current.append(min(insert, delete, substitute))
        previous = current
        if max_distance is not None:
            row_min = min(previous)
            if row_min > max_distance:
                return row_min
    return previous[-1]


def levenshtein_similarity(a: str, b: str, min_similarity: float | None = None) -> float:
    """Edit distance normalized into [0, 1] (1.0 means identical).

    ``min_similarity`` turns on the bounded mode: when the similarity is
    provably below it, an *upper bound* on the true similarity (still <
    ``min_similarity``) is returned without finishing the DP — threshold
    callers get an exact accept/reject verdict at a fraction of the work
    for very differently sized strings.  The result is exact whenever it is
    ≥ ``min_similarity``.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    if min_similarity is None:
        return 1.0 - levenshtein(a, b) / longest
    # distance d maps to similarity 1 - d/longest >= min_similarity
    # exactly when d <= (1 - min_similarity) * longest.
    budget = int((1.0 - min_similarity) * longest + 1e-9)
    return 1.0 - levenshtein(a, b, max_distance=budget) / longest


def jaro(a: str, b: str) -> float:
    """Jaro similarity between two strings."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    a_flags = [False] * len(a)
    b_flags = [False] * len(b)
    matches = 0
    for i, ch in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if not b_flags[j] and b[j] == ch:
                a_flags[i] = b_flags[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i, flagged in enumerate(a_flags):
        if not flagged:
            continue
        while not b_flags[k]:
            k += 1
        if a[i] != b[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    m = matches
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, prefix_scale: float = 0.1) -> float:
    """Jaro–Winkler similarity, boosting matches with common prefixes."""
    base = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def monge_elkan(a: Iterable[str], b: Iterable[str]) -> float:
    """Monge–Elkan similarity between two token sequences.

    For every token of ``a``, the best Jaro–Winkler match in ``b`` is
    found; the result is the average of those best scores.  Asymmetric by
    definition; use :func:`monge_elkan_symmetric` for a symmetric variant.
    Tolerant of typos inside tokens, which pure set measures are not.
    """
    tokens_a = list(a)
    tokens_b = list(b)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token in tokens_a:
        total += max(jaro_winkler(token, other) for other in tokens_b)
    return total / len(tokens_a)


def monge_elkan_symmetric(a: Iterable[str], b: Iterable[str]) -> float:
    """Mean of Monge–Elkan in both directions (symmetric, in [0, 1])."""
    tokens_a, tokens_b = list(a), list(b)
    return (monge_elkan(tokens_a, tokens_b) + monge_elkan(tokens_b, tokens_a)) / 2.0


SET_SIMILARITIES: dict[str, SetSimilarity] = {
    "jaccard": jaccard,
    "dice": dice,
    "overlap": overlap,
    "cosine": cosine,
}


def get_set_similarity(name: str) -> SetSimilarity:
    """Look up a set-similarity function by name (raises KeyError otherwise)."""
    try:
        return SET_SIMILARITIES[name]
    except KeyError:
        known = ", ".join(sorted(SET_SIMILARITIES))
        raise KeyError(f"unknown similarity '{name}'; expected one of: {known}") from None


def token_multiset(values: Iterable[str]) -> dict[str, int]:
    """Token frequency map used by weighted similarity variants."""
    counts: dict[str, int] = {}
    for value in values:
        for token in value.split():
            counts[token] = counts.get(token, 0) + 1
    return counts
