"""State maintained while resolving a dynamic dataset.

Following the paper's "avoiding shared state" design, the components here are
each owned by exactly one pipeline stage:

* :class:`BlockCollection` + its blacklist — owned by ``f_bb+bp``;
* :class:`ProfileStore` (the profile map *PM*) — written by ``f_bb+bp``,
  read by ``f_lm``;
* :class:`MatchStore` — owned by ``f_cl``.

Blocks store entity *identifiers only* (the paper's profile-maintenance
choice); profiles are re-attached later via the profile store.

These classes are also the unit of pluggable storage: a
:class:`~repro.core.backends.StateBackend` groups one instance of each (or
a proxy with the same interface) and hands them to the stages, so
executors never hard-code where state lives.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

from repro.reading.interning import pack_ids
from repro.types import EntityId, Match, Profile, pair_key


class BlockCollection:
    """An incrementally maintained token-to-entities block index.

    Each block is an insertion-ordered, append-only list of entity
    identifiers, which is what lets ``f_bb+bp`` snapshot a block as a
    ``(block, n)`` pair — its first ``n`` members — instead of copying it:
    the ``n`` members never move, because :meth:`remove_block` detaches
    the list and :meth:`discard` rebinds a new one.  Blocks of size one
    are kept (they may grow later, as the paper stresses with the "Jane"
    block of the running example).

    Size statistics (``sizes``, ``total_assignments``, ``total_comparisons``)
    are maintained as running counters in :meth:`add_all`, :meth:`add`,
    :meth:`remove_block` and :meth:`discard`, so reading them is O(1)
    instead of O(#blocks) — monitoring snapshots and purging heuristics
    can poll them freely.
    """

    __slots__ = ("_blocks", "_sizes", "_assignments", "_comparisons")

    def __init__(self) -> None:
        # A missing key reads as a new empty block, so ``add_all`` gets or
        # creates every block in one C-level ``map``.
        self._blocks: defaultdict[str, list[EntityId]] = defaultdict(list)
        self._sizes: dict[str, int] = {}
        self._assignments = 0
        self._comparisons = 0

    def add_all(self, keys: list[str], eid: EntityId) -> list[list[EntityId]]:
        """Append ``eid`` to the block of every one of the *distinct*
        ``keys`` (creating blocks) and return those blocks, in key order.

        This is ``f_bb+bp``'s one call per entity.  The caller reads each
        new size as ``len`` of the returned list and may snapshot it as
        ``(block, n)``; it must not mutate it.
        """
        blocks = list(map(self._blocks.__getitem__, keys))
        for block in blocks:
            block.append(eid)
        sizes = list(map(len, blocks))
        self._sizes.update(zip(keys, sizes))
        self._assignments += len(sizes)
        self._comparisons += sum(sizes) - len(sizes)
        return blocks

    def add(self, key: str, eid: EntityId) -> list[EntityId]:
        """Append ``eid`` to block ``key`` (creating it) and return the
        block: :meth:`add_all` for one key (snapshot loading uses it)."""
        return self.add_all([key], eid)[0]

    def remove_block(self, key: str) -> None:
        """Drop an entire block (used by block pruning)."""
        block = self._blocks.pop(key, None)
        if block is not None:
            n = self._sizes.pop(key, len(block))
            self._assignments -= n
            self._comparisons -= n * (n - 1) // 2

    def discard(self, key: str, eid: EntityId) -> bool:
        """Remove one entity from block ``key`` (windowed eviction, updates).

        Empty blocks are dropped.  Returns True when an assignment was
        actually removed.  This is the *only* sanctioned way to shrink a
        block — mutating the list returned by :meth:`block` directly would
        silently corrupt the running size counters.  The shrunken block is
        a new list: a ``(block, n)`` snapshot of the old one, held by a
        message still in flight, keeps reading what it saw.
        """
        block = self._blocks.get(key)
        if block is None or eid not in block:
            return False
        block = block.copy()
        block.remove(eid)
        remaining = len(block)
        self._assignments -= 1
        self._comparisons -= remaining
        if remaining:
            self._blocks[key] = block
            self._sizes[key] = remaining
        else:
            del self._blocks[key]
            del self._sizes[key]
        return True

    def block(self, key: str) -> list[EntityId]:
        """The members of block ``key`` (empty list if absent)."""
        return self._blocks.get(key, [])

    def __contains__(self, key: str) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def keys(self) -> Iterator[str]:
        return iter(self._blocks)

    def items(self) -> Iterator[tuple[str, list[EntityId]]]:
        return iter(self._blocks.items())

    def sizes(self) -> Mapping[str, int]:
        """Read-only live view of block key → block size (O(1))."""
        return MappingProxyType(self._sizes)

    def total_assignments(self) -> int:
        """Total number of (entity, block) assignments (Σ |b|), O(1)."""
        return self._assignments

    def total_comparisons(self) -> int:
        """Aggregate cardinality ||B|| = Σ_b |b|(|b|−1)/2 (dirty ER), O(1)."""
        return self._comparisons


@dataclass
class Blacklist:
    """Keys of blocks already pruned for exceeding the size bound α."""

    keys: set[str] = field(default_factory=set)

    def add(self, key: str) -> None:
        self.keys.add(key)

    def __contains__(self, key: str) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)


def stored_form(profile: Profile) -> Profile:
    """The form of ``profile`` the profile map keeps.

    An interned profile is stored with ``tokens`` as a tuple and
    ``token_ids`` as the sorted :func:`~repro.reading.interning.pack_ids`
    tuple.  ``f_dr`` builds interned profiles that way, so for them this
    returns the profile itself and ``f_bb+bp`` copies nothing; a profile
    with both views already tuples is taken as stored form.  Any other
    interned profile (frozensets or an ``array`` from hand-written code or
    a loaded snapshot) is copied into the stored form.  A profile without
    interned ids is stored unchanged: the string comparators intersect its
    token set.
    """
    ids = profile.token_ids
    if ids is None or (type(ids) is tuple and type(profile.tokens) is tuple):
        return profile
    return Profile(
        profile.eid,
        profile.attributes,
        tuple(profile.tokens),
        profile.source,
        pack_ids(ids),
    )


class ProfileStore:
    """The profile map *PM*: entity identifier → standardized profile.

    ``put`` keeps the :func:`stored_form` of the profile: the profile
    ``f_dr`` built, for an interned profile from ``f_dr`` or any profile
    without interned ids.

    ``get`` is the dict's own bound ``get``, bound at construction, so
    ``f_lm``'s ``map(profiles.get, ids)`` makes no Python call per
    partner.  Subclasses customize ``put`` and ``remove``; every reader of
    the map goes through ``get``, ``values`` and ``in``.
    """

    __slots__ = ("_profiles", "get")

    def __init__(self) -> None:
        self._profiles: dict[EntityId, Profile] = {}
        #: ``get(eid)`` → the stored profile, or None.
        self.get = self._profiles.get

    def __setstate__(self, state: tuple[None, dict]) -> None:
        # A copy or an unpickled store gets its own dict: ``get`` must be
        # bound to that one, not to the original's.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.get = self._profiles.get

    def put(self, profile: Profile) -> None:
        self._profiles[profile.eid] = stored_form(profile)

    def __contains__(self, eid: EntityId) -> bool:
        return eid in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def values(self) -> Iterator[Profile]:
        """All stored profiles, in registration order."""
        return iter(self._profiles.values())

    def remove(self, eid: EntityId) -> bool:
        """Drop a profile (used by windowed state eviction)."""
        return self._profiles.pop(eid, None) is not None


class MatchStore:
    """The growing set *M* of discovered matches, in discovery order."""

    __slots__ = ("_keys", "_matches")

    def __init__(self) -> None:
        self._keys: set[tuple[EntityId, EntityId]] = set()
        self._matches: list[Match] = []

    def add(self, match: Match) -> bool:
        """Record a match; returns False if the pair was already known."""
        key = match.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self._matches.append(match)
        return True

    def __contains__(self, pair: tuple[EntityId, EntityId]) -> bool:
        return pair_key(*pair) in self._keys

    def __len__(self) -> int:
        return len(self._matches)

    def matches(self) -> list[Match]:
        """All matches in discovery order (a copy)."""
        return list(self._matches)

    def pairs(self) -> set[tuple[EntityId, EntityId]]:
        """Canonical pair keys of all matches (a copy)."""
        return set(self._keys)


@dataclass
class ERState:
    """The full state σ = ⟨M, B⟩ plus the auxiliary stores of §IV-A.

    The fields are duck-typed: a durable backend supplies logging proxies
    with the same interfaces (see :mod:`repro.core.backends`).
    """

    blocks: BlockCollection = field(default_factory=BlockCollection)
    blacklist: Blacklist = field(default_factory=Blacklist)
    profiles: ProfileStore = field(default_factory=ProfileStore)
    matches: MatchStore = field(default_factory=MatchStore)
