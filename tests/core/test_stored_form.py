"""The profile map's stored form, on every backend that holds one.

``ProfileStore.put`` keeps an interned profile with ``tokens`` as a tuple
and ``token_ids`` as the sorted :func:`pack_ids` tuple, so the collector
walks no per-entity frozenset and untracks both views; ``f_dr`` builds
interned profiles in that form, and the map stores the very object.  A
profile without interned ids is kept as it is.  What the stored form must
not change: the contents a reader sees, ``state_digest`` and the snapshot
document.
"""

from __future__ import annotations

import contextlib
import gc
import json
from array import array
from types import SimpleNamespace

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import DurableBackend, InMemoryBackend, SharedMemoryBackend
from repro.core.state import ProfileStore, stored_form
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


class _KeepsFrozensets(ProfileStore):
    """A profile map that stores the set form of what it is given, as the
    reference for the digest and the document."""

    __slots__ = ()

    def put(self, profile: Profile) -> None:
        if profile.token_ids is not None:
            profile = Profile(
                profile.eid,
                profile.attributes,
                frozenset(profile.tokens),
                profile.source,
                frozenset(profile.token_ids),
            )
        self._profiles[profile.eid] = profile


@pytest.mark.parametrize("kind", BACKENDS)
class TestStoredForm:
    def test_interned_profile_reads_back_packed(self, kind, tmp_path):
        with open_backend(kind, tmp_path, config()) as backend:
            profile = interned(7, "wood glass panel", TokenDictionary())
            backend.profiles.put(profile)
            stored = backend.profiles.get(7)
            assert type(stored.tokens) is tuple
            assert type(stored.token_ids) is tuple
            assert frozenset(stored.tokens) == profile.tokens
            assert len(stored.tokens) == len(profile.tokens)
            assert stored.token_ids == tuple(sorted(profile.token_ids))
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
        reference.profiles = _KeepsFrozensets()
        StreamERPipeline(config(), backend=reference).process_many(stream)
        assert all(isinstance(p.token_ids, frozenset) for p in reference.profiles.values())
        with open_backend(kind, tmp_path, config()) as backend:
            StreamERPipeline(config(), backend=backend).process_many(stream)
            assert all(type(p.token_ids) is tuple for p in backend.profiles.values())
            assert state_digest(backend) == state_digest(reference)
            assert json.dumps(state_document(backend)) == json.dumps(state_document(reference))

    def test_stored_profile_is_the_one_f_dr_built_and_is_untracked(self, kind, tmp_path):
        built = {}
        with open_backend(kind, tmp_path, config()) as backend:
            pipeline = StreamERPipeline(config(), backend=backend)
            read = pipeline.dr.builder.build

            def remember(entity):
                profile = read(entity)
                built[profile.eid] = profile
                return profile

            pipeline.dr.builder = SimpleNamespace(build=remember)
            pipeline.process_many(entities(60))
            assert len(built) == 60
            gc.collect()
            for eid, profile in built.items():
                stored = backend.profiles.get(eid)
                assert stored is profile
                assert not gc.is_tracked(stored.token_ids)
                assert not gc.is_tracked(stored.tokens)

    def test_profiles_in_another_form_are_stored_sorted(self, kind, tmp_path):
        with open_backend(kind, tmp_path, config()) as backend:
            unsorted = Profile(
                eid=5, attributes=(), tokens=frozenset({"b", "a"}), token_ids=array("I", [9, 2])
            )
            backend.profiles.put(unsorted)
            stored = backend.profiles.get(5)
            assert stored is not unsorted
            assert stored_form(stored) is stored
            assert stored.token_ids == (2, 9) and sorted(stored.tokens) == ["a", "b"]
