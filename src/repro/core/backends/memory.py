"""The default backend: plain in-process dict-based stores.

This is exactly the state layout the pipeline had before the backend seam
existed — zero indirection cost, no locks — packaged so stages receive it
the same way they would receive any other backend.
"""

from __future__ import annotations

from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
)
from repro.reading.interning import TokenDictionary


class InMemoryBackend:
    """One fresh in-memory instance of every state component."""

    def __init__(self) -> None:
        self.blocks = BlockCollection()
        self.blacklist = Blacklist()
        self.profiles = ProfileStore()
        self.matches = MatchStore()
        self.dictionary = TokenDictionary()

    def state(self) -> ERState:
        return ERState(
            blocks=self.blocks,
            blacklist=self.blacklist,
            profiles=self.profiles,
            matches=self.matches,
        )
