"""The profile map's stored form, on every backend that holds one.

``ProfileStore.put`` keeps an interned profile with ``tokens`` as a tuple
and ``token_ids`` as the sorted :func:`pack_ids` array, so the collector
walks no per-entity frozenset; a profile without interned ids is kept as
it is.  What the stored form must not change: the contents a reader sees,
``state_digest`` and the snapshot document.
"""

from __future__ import annotations

import contextlib
import gc
import json
from array import array

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import DurableBackend, InMemoryBackend, SharedMemoryBackend
from repro.core.state import ProfileStore
from repro.durability import state_digest, state_document
from repro.reading import TokenDictionary
from repro.types import EntityDescription, Profile

BACKENDS = ["memory", "shm", "durable"]


@contextlib.contextmanager
def open_backend(kind: str, tmp_path, config: StreamERConfig):
    if kind == "memory":
        yield InMemoryBackend()
    elif kind == "shm":
        with SharedMemoryBackend() as backend:
            yield backend
    else:
        backend = DurableBackend.open(tmp_path / "wal", config)
        try:
            yield backend
        finally:
            backend.close()


def config() -> StreamERConfig:
    return StreamERConfig.interned(alpha=100, beta=0.5, classifier=ThresholdClassifier(0.3))


def interned(eid, words: str, dictionary: TokenDictionary) -> Profile:
    tokens = frozenset(words.split())
    return Profile(
        eid=eid,
        attributes=(("title", words),),
        tokens=tokens,
        source="s",
        token_ids=dictionary.intern_set(tokens),
    )


def entities(n: int) -> list[EntityDescription]:
    words = ["glass", "panel", "wood", "fibre", "roof", "window", "door"]
    return [
        EntityDescription.create(
            i, {"title": " ".join(words[(i * k) % len(words)] for k in (1, 2, 3))}
        )
        for i in range(n)
    ]


class _KeepsTheArrivingForm(ProfileStore):
    """A profile map that stores what it is given (the form before
    compaction), as the reference for the digest and the document."""

    __slots__ = ()

    def put(self, profile: Profile) -> None:
        self._profiles[profile.eid] = profile


@pytest.mark.parametrize("kind", BACKENDS)
class TestStoredForm:
    def test_interned_profile_reads_back_packed(self, kind, tmp_path):
        with open_backend(kind, tmp_path, config()) as backend:
            profile = interned(7, "wood glass panel", TokenDictionary())
            backend.profiles.put(profile)
            stored = backend.profiles.get(7)
            assert type(stored.tokens) is tuple
            assert isinstance(stored.token_ids, array)
            assert frozenset(stored.tokens) == profile.tokens
            assert len(stored.tokens) == len(profile.tokens)
            assert stored.token_ids.tolist() == sorted(profile.token_ids)
            assert (stored.eid, stored.attributes, stored.source) == (
                profile.eid,
                profile.attributes,
                profile.source,
            )
            assert list(backend.profiles.values()) == [stored]

    def test_non_interned_profile_reads_back_unchanged(self, kind, tmp_path):
        with open_backend(kind, tmp_path, config()) as backend:
            profile = Profile(eid=3, attributes=(("t", "a b"),), tokens=frozenset({"a", "b"}))
            backend.profiles.put(profile)
            assert backend.profiles.get(3) is profile

    def test_stored_profiles_add_no_frozensets(self, kind, tmp_path):
        def frozensets() -> int:
            gc.collect()
            return sum(type(o) is frozenset for o in gc.get_objects())

        with open_backend(kind, tmp_path, config()) as backend:
            dictionary = TokenDictionary()
            words = [f"w{i}" for i in range(50)]
            before = frozensets()
            for eid in range(1000):
                backend.profiles.put(
                    interned(eid, " ".join(words[(eid + k * 7) % 50] for k in range(4)), dictionary)
                )
            assert len(backend.profiles) == 1000
            assert frozensets() - before <= 5

    def test_digest_and_snapshot_do_not_see_the_stored_form(self, kind, tmp_path):
        stream = entities(40)
        reference = InMemoryBackend()
        reference.profiles = _KeepsTheArrivingForm()
        StreamERPipeline(config(), backend=reference).process_many(stream)
        assert all(isinstance(p.token_ids, frozenset) for p in reference.profiles.values())
        with open_backend(kind, tmp_path, config()) as backend:
            StreamERPipeline(config(), backend=backend).process_many(stream)
            assert all(isinstance(p.token_ids, array) for p in backend.profiles.values())
            assert state_digest(backend) == state_digest(reference)
            assert json.dumps(state_document(backend)) == json.dumps(state_document(reference))
