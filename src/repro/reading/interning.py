"""Integer interning of blocking tokens: the dictionary behind the fast kernel.

Set-similarity joins over string tokens pay for string hashing, equality
chains and — worst of all in a multiprocess setting — string serialization
on every hop.  The standard remedy from the set-similarity-join literature
(see the blocking/filtering surveys of Papadakis et al.) is a *token
dictionary*: every distinct token is assigned a dense integer id at data
reading time, and all downstream similarity math runs on compact integer
sets that serialize as a few bytes per token instead of a whole string.

:class:`TokenDictionary` is that dictionary.  It is append-only (ids are
never reassigned, so any id handed out stays valid for the lifetime of the
run), assigns ids densely in first-seen order, and is safe to share between
the replicated ``f_dr`` workers of the thread framework — the fast path is
a plain dict probe; only a miss takes the lock.

One dictionary per pipeline run lives on the
:class:`~repro.core.backends.StateBackend` (like every other piece of
shared ER state) and is bound into the profile builder when the plan is
compiled with an interned comparator; see :mod:`repro.core.plan`.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator

__all__ = ["TokenDictionary", "pack_ids"]


def pack_ids(ids: Iterable[int]) -> tuple[int, ...]:
    """Token ids in their stored form: a *sorted* tuple.

    This is what ``f_dr`` builds for an interned profile, what the profile
    map stores and what the comparison kernel intersects against.  A tuple
    of ints is one object the garbage collector untracks after its first
    collection (an ``array`` it never untracks), it references the
    dictionary's own int objects instead of copies, and
    ``frozenset.intersection`` iterates it without boxing an id.  Where ids
    cross a process boundary they travel as raw machine bytes
    (:func:`~repro.core.backends.shm.encode_profile_row`).
    """
    return tuple(sorted(ids))


class TokenDictionary:
    """A bijective token ↔ dense-int-id mapping, append-only and thread-safe.

    Ids are assigned in first-seen order starting at 0, so the id space is
    exactly ``range(len(dictionary))`` — suitable for array indexing and
    compact wire formats.  Interning is idempotent: the same token always
    returns the same id, no matter which thread asks.
    """

    __slots__ = ("_ids", "_tokens", "_lock")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._tokens: list[str] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        """Tokens in id order (token at position ``i`` has id ``i``)."""
        return iter(self._tokens)

    def intern(self, token: str) -> int:
        """The id of ``token``, assigning the next dense id on first sight."""
        tid = self._ids.get(token)
        if tid is None:
            with self._lock:
                tid = self._ids.get(token)
                if tid is None:
                    tid = len(self._tokens)
                    self._tokens.append(token)
                    self._ids[token] = tid
        return tid

    def intern_set(self, tokens: Iterable[str]) -> frozenset[int]:
        """Intern every token; the resulting set of ids."""
        intern = self.intern
        return frozenset(intern(token) for token in tokens)

    def lookup(self, token: str) -> int | None:
        """The id of ``token`` if already interned, else None (no assignment)."""
        return self._ids.get(token)

    def decode(self, token_id: int) -> str:
        """The token behind an id (raises ``IndexError`` for unknown ids)."""
        if token_id < 0:
            raise IndexError(f"token id {token_id} is negative")
        return self._tokens[token_id]

    def tokens_of(self, ids: Iterable[int]) -> tuple[str, ...]:
        """The tokens behind ``ids``, as a tuple in the order of ``ids``.

        One C-level ``map`` over the id-ordered token list; this is how
        ``f_dr`` builds an interned profile's ``tokens`` from its sorted ids.
        """
        return tuple(map(self._tokens.__getitem__, ids))

    def decode_set(self, ids: Iterable[int]) -> frozenset[str]:
        """The tokens behind a set of ids."""
        tokens = self._tokens
        return frozenset(tokens[i] for i in ids)
