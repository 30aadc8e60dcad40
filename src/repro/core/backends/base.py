"""The pluggable storage seam for all ER pipeline state.

A :class:`StateBackend` groups one instance of every state component the
eight stages need — the block index and its blacklist (``f_bb+bp``), the
profile map (``f_lm``), the co-occurrence counter (``f_cc``), the match
store (``f_cl``), and the token dictionary (``f_dr``'s interning table) —
behind a single object that a :class:`~repro.core.plan.PipelinePlan` hands
to each stage factory.

Stages only rely on the *interfaces* of the components (duck typing, see
the store classes in :mod:`repro.core.state`), so backends can swap the
representation freely: :class:`~repro.core.backends.memory.InMemoryBackend`
keeps the zero-overhead dict-based stores, while
:class:`~repro.core.backends.sharded.ShardedBackend` hash-partitions every
store with per-shard locks.  Future backends (mmap, spill-to-disk, remote
key-value) implement the same five attributes and drop in without touching
a stage or an executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.types import EntityId

if TYPE_CHECKING:
    from repro.core.state import ERState


class CooccurrenceCounter:
    """Counts block co-occurrences of candidate partners (the CBS weight).

    ``f_cc`` receives a candidate list *with multiplicity* — one entry per
    block the partner shares with the current entity — and needs it grouped
    into partner → count.  Keeping the grouping behind the backend lets a
    sharded backend partition the tally and lets the cumulative
    ``pairs_counted`` statistic be collected wherever the state lives.
    """

    __slots__ = ("pairs_counted",)

    def __init__(self) -> None:
        self.pairs_counted = 0

    def count(self, candidates: list[EntityId]) -> dict[EntityId, int]:
        """Partner id → number of shared blocks, in first-occurrence order."""
        counts: dict[EntityId, int] = {}
        for j in candidates:
            counts[j] = counts.get(j, 0) + 1
        self.pairs_counted += len(candidates)
        return counts


@runtime_checkable
class StateBackend(Protocol):
    """What every storage backend must provide.

    The five attributes are the complete mutable state of a pipeline run
    (the paper's σ = ⟨M, B⟩ plus the auxiliary stores of §IV-A).  Each must
    satisfy the interface of its in-memory reference implementation:

    ``blocks``
        :class:`~repro.core.state.BlockCollection`-shaped — ``add``,
        ``remove_block``, ``discard``, ``block``, ``keys``, ``items``,
        ``sizes``, ``total_assignments``, ``total_comparisons``.
    ``blacklist``
        :class:`~repro.core.state.Blacklist`-shaped — ``add``,
        ``__contains__``, and a ``keys`` set-like view.
    ``profiles``
        :class:`~repro.core.state.ProfileStore`-shaped — ``put``, ``get``,
        ``values``, ``remove``.
    ``cooccurrence``
        :class:`CooccurrenceCounter`-shaped — ``count``.
    ``matches``
        :class:`~repro.core.state.MatchStore`-shaped — ``add``,
        ``matches``, ``pairs``.
    ``dictionary``
        :class:`~repro.reading.interning.TokenDictionary`-shaped — the
        shared token-interning table ``f_dr`` fills and the comparison
        kernel reads.  Append-only and internally locked, so sharded
        backends share a single instance across all shards (ids must be
        globally consistent to compare entities from different shards).
    """

    blocks: object
    blacklist: object
    profiles: object
    cooccurrence: object
    matches: object
    dictionary: object

    def state(self) -> "ERState":
        """An :class:`~repro.core.state.ERState` view over the components."""
        ...


def backend_capabilities(backend: object) -> frozenset[str]:
    """The optional capability strings a backend advertises.

    Capabilities are how executors negotiate representation-specific fast
    paths without type-sniffing concrete backends: a backend that can do
    more than the :class:`StateBackend` protocol exposes a
    ``capabilities()`` method returning capability strings (e.g.
    :data:`~repro.core.backends.shm.SharedMemoryBackend.PARTITION_COLUMNS`),
    and an executor checks for the strings it knows how to exploit.
    Backends without the method simply advertise nothing.  Decorating
    backends (:class:`~repro.core.backends.durable.DurableBackend`)
    forward the method to their inner backend via attribute delegation,
    so capabilities survive wrapping.
    """
    probe = getattr(backend, "capabilities", None)
    if probe is None:
        return frozenset()
    return frozenset(probe())
