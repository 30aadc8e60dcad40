"""The pluggable storage seam for all ER pipeline state.

A :class:`StateBackend` groups one instance of every state component the
eight stages need — the block index and its blacklist (``f_bb+bp``), the
profile map (``f_lm``), the match store (``f_cl``), and the token dictionary
(``f_dr``'s interning table) — behind a single object that a
:class:`~repro.core.plan.PipelinePlan` hands to each stage factory.

Stages only rely on the *interfaces* of the components (duck typing, see
the store classes in :mod:`repro.core.state`), so backends can swap the
representation: :class:`~repro.core.backends.memory.InMemoryBackend` keeps
the zero-overhead dict-based stores,
:class:`~repro.core.backends.shm.SharedMemoryBackend` adds the shared
columns partitioned multiprocess dispatch reads, and
:class:`~repro.core.backends.durable.DurableBackend` logs the input the
executors admit over either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.core.state import ERState


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
    ``matches``
        :class:`~repro.core.state.MatchStore`-shaped — ``add``,
        ``matches``, ``pairs``.
    ``dictionary``
        :class:`~repro.reading.interning.TokenDictionary`-shaped — the
        shared token-interning table ``f_dr`` fills and the comparison
        kernel reads.  Append-only and internally locked.
    """

    blocks: object
    blacklist: object
    profiles: object
    matches: object
    dictionary: object

    def state(self) -> "ERState":
        """An :class:`~repro.core.state.ERState` view over the components."""
        ...
