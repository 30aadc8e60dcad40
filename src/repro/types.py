"""Core value types shared across the whole framework.

The framework identifies every entity description by a hashable *entity
identifier*.  For dirty ER this is typically an ``int`` or ``str``.  For
clean-clean ER, identifiers are ``(source, local_id)`` tuples produced by
:func:`repro.core.cleanclean.combine`, so that a single identifier carries
both the dataset of origin and the local key, exactly as the paper's
``<i, x>`` notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

EntityId = Hashable
AttributePairs = tuple[tuple[str, str], ...]


def _freeze_attributes(
    attributes: Iterable[tuple[str, str]] | Mapping[str, str],
) -> AttributePairs:
    """Normalize attribute input into an ordered tuple of (name, value) pairs."""
    if isinstance(attributes, Mapping):
        return tuple((str(k), str(v)) for k, v in attributes.items())
    return tuple((str(k), str(v)) for k, v in attributes)


@dataclass(frozen=True, slots=True)
class EntityDescription:
    """A raw, possibly heterogeneous description of a real-world entity.

    Attributes are an ordered sequence of (name, value) pairs; names are not
    required to come from any fixed schema and may repeat (heterogeneous,
    semi-structured data as in the paper's data-lake example).
    """

    eid: EntityId
    attributes: AttributePairs
    source: str | None = None

    @classmethod
    def create(
        cls,
        eid: EntityId,
        attributes: Iterable[tuple[str, str]] | Mapping[str, str],
        source: str | None = None,
    ) -> "EntityDescription":
        """Build a description, accepting either a mapping or pair iterable."""
        return cls(eid=eid, attributes=_freeze_attributes(attributes), source=source)

    def values(self) -> tuple[str, ...]:
        """All attribute values, in attribute order."""
        return tuple(v for _, v in self.attributes)


@dataclass(frozen=True, slots=True)
class Profile:
    """The standardized representation ``p_i`` of an entity description.

    Produced by the data-reading stage: attribute values have been
    standardized and the set of blocking keys ``K_i`` (tokens) extracted.

    ``token_ids`` is the interned view of ``tokens``: when the profile was
    built against a :class:`~repro.reading.interning.TokenDictionary`, it
    holds the dense integer ids of exactly the tokens in ``tokens``, and the
    comparison kernel scores pairs on these compact int sets instead of the
    string sets.  ``None`` means the profile was built without interning
    (the string path); scoring falls back to ``tokens``.

    An interned profile is born in its stored form (see
    :func:`~repro.core.state.stored_form`): ``f_dr`` builds ``token_ids``
    as the sorted id tuple of :func:`~repro.reading.interning.pack_ids`
    and ``tokens`` as the tuple of the same distinct strings in id order.
    The profile map stores that object as it is, the kernel intersects a
    set of the arriving ids with each partner's tuple, and a pool worker
    decodes the same tuple off the shared column.  Tuples of strings and
    ints drop out of the collector's tracking after one collection.  A
    profile built without interning keeps ``tokens`` as a frozenset.  Code
    that needs set operations on an interned profile takes
    ``frozenset(...)`` of the view first.
    """

    eid: EntityId
    attributes: AttributePairs
    tokens: frozenset[str] | tuple[str, ...]
    source: str | None = None
    token_ids: frozenset[int] | Sequence[int] | None = None

    @property
    def keys(self) -> frozenset[str] | tuple[str, ...]:
        """The blocking keys ``K_i`` of this profile (alias for ``tokens``)."""
        return self.tokens

    @property
    def interned(self) -> bool:
        """Whether this profile carries the interned integer token view."""
        return self.token_ids is not None


def pair_key(i: EntityId, j: EntityId) -> tuple[EntityId, EntityId]:
    """Order-insensitive canonical key for an entity pair.

    Uses a total order over ``repr`` when the ids are not mutually orderable
    (e.g. mixing ints and tuples), so the result is deterministic.
    """
    try:
        return (i, j) if i <= j else (j, i)  # type: ignore[operator]
    except TypeError:
        return (i, j) if repr(i) <= repr(j) else (j, i)


@dataclass(frozen=True, slots=True)
class Comparison:
    """A pairwise comparison ``c_ij`` between two profiles."""

    left: Profile
    right: Profile

    @property
    def ids(self) -> tuple[EntityId, EntityId]:
        return (self.left.eid, self.right.eid)

    def key(self) -> tuple[EntityId, EntityId]:
        """Canonical (order-insensitive) pair key of this comparison."""
        return pair_key(self.left.eid, self.right.eid)


@dataclass(frozen=True, slots=True)
class ScoredComparison:
    """A comparison together with its similarity score ``sim_ij``."""

    comparison: Comparison
    similarity: float


@dataclass(frozen=True, slots=True)
class Match:
    """A pair of entity identifiers classified as referring to one entity."""

    left: EntityId
    right: EntityId
    similarity: float = 1.0

    def key(self) -> tuple[EntityId, EntityId]:
        return pair_key(self.left, self.right)


@dataclass(frozen=True, slots=True)
class DeadLetter:
    """An item that exhausted supervision and was routed out of the pipeline.

    ``entity_id`` is the identifier extracted from the failing payload (or
    ``None`` when no identifier could be derived); ``error`` is the ``repr``
    of the last exception — a string, so dead letters stay picklable across
    process boundaries.  ``attempts`` counts every execution attempt,
    including retries.
    """

    stage: str
    entity_id: EntityId | None
    error: str
    attempts: int = 1

