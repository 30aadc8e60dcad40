"""Shared-memory backend contracts: lifecycle, growth, crash hygiene.

The differential suite proves the shm backend never changes a match; these
tests pin the store-level contracts the equivalence rests on — epoch-
published growth (readers never see torn state), cross-attach decoding,
and above all segment hygiene: no ``/dev/shm`` entry may outlive its
creator, whether the run ends normally, a worker faults, or the creator
is killed with ``SIGKILL`` mid-run.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.core.backends import (
    InMemoryBackend,
    SharedColumnReader,
    SharedColumnStore,
    SharedMemoryBackend,
    active_shm_segments,
)
from repro.core.backends.shm import decode_profile_row, encode_profile_row
from repro.parallel import FaultSpec, MultiprocessERPipeline
from repro.reading.interning import pack_ids
from repro.types import EntityDescription, Profile

RUN_TIMEOUT = 60.0

_WORDS = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]


def make_entities(n: int):
    return [
        EntityDescription.create(
            i, {"title": " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(3))}
        )
        for i in range(n)
    ]


def interned_config() -> StreamERConfig:
    return StreamERConfig.interned(
        alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
    )


class TestSharedColumnStore:
    def test_append_record_round_trip(self):
        with_payloads = [b"alpha", b"b", b"", b"gamma" * 10]
        store = SharedColumnStore()
        try:
            rows = [store.append(p) for p in with_payloads]
            assert rows == list(range(len(with_payloads)))
            for row, payload in zip(rows, with_payloads):
                assert bytes(store.record(row)) == payload
        finally:
            store.unlink()

    def test_growth_spans_generations(self):
        # Tiny initial capacities force both the data column and the
        # directory through several doublings.
        store = SharedColumnStore(data_bytes=64, dir_rows=4)
        try:
            payloads = [bytes([i % 251]) * (i % 97 + 1) for i in range(300)]
            for p in payloads:
                store.append(p)
            assert len(store.segment_names()) > 3  # ctl + several generations
            for row, payload in enumerate(payloads):
                assert bytes(store.record(row)) == payload
        finally:
            store.unlink()

    def test_oversized_payload_gets_own_generation(self):
        store = SharedColumnStore(data_bytes=32, dir_rows=4)
        try:
            big = os.urandom(10_000)
            row = store.append(big)
            assert bytes(store.record(row)) == big
        finally:
            store.unlink()

    def test_reader_sees_only_published_rows(self):
        store = SharedColumnStore()
        try:
            store.append(b"one")
            reader = SharedColumnReader(store.prefix)
            assert len(reader) == 1
            with pytest.raises(IndexError):
                reader.record(1)
            # Growth after attach: the reader refreshes and decodes rows
            # that live in generations created after it attached.
            for i in range(200):
                store.append(f"row-{i}".encode() * 20)
            assert bytes(reader.record(150)) == b"row-149" * 20
            assert len(reader) == 201
            reader.close()
        finally:
            store.unlink()

    def test_refresh_racing_a_growing_writer_never_outruns_its_mappings(
        self, monkeypatch
    ):
        """A pool worker attaches while the parent is still publishing.  If
        the writer grows a data generation *during* the reader's refresh,
        the reader's row horizon must not cover rows whose generation it has
        not mapped: the horizon is read before the generation tables."""
        from repro.core.backends import shm

        store = SharedColumnStore(data_bytes=16, dir_rows=8)
        try:
            store.append(b"first")
            real_attach = shm.attach_segment

            def attach_then_write(name):
                segment = real_attach(name)
                if name == f"{store.prefix}i0":
                    # After the reader sized up the data generations: a
                    # record too big for generation 0 opens generation 1.
                    store.append(b"second" * 8)
                return segment

            monkeypatch.setattr(shm, "attach_segment", attach_then_write)
            with SharedColumnReader(store.prefix) as reader:
                monkeypatch.undo()
                assert len(store) == 2
                assert bytes(reader.record(1)) == b"second" * 8
        finally:
            store.unlink()

    def test_reader_context_manager(self):
        store = SharedColumnStore()
        try:
            row = store.append(b"payload")
            with SharedColumnReader(store.prefix) as reader:
                assert bytes(reader.record(row)) == b"payload"
        finally:
            store.unlink()


def profile(eid, token_ids):
    return Profile(eid=eid, attributes=(), tokens=frozenset(), token_ids=token_ids)


def read(backend, row):
    """``(eid, token_ids)`` of one row of the backend's profile column."""
    return decode_profile_row(backend.profiles.column.record(row))


class TestProfileRows:
    """One row holds an entity's packed token ids and its entity id."""

    @pytest.mark.parametrize("eid", [7, "e-7", ("left", 7)])
    @pytest.mark.parametrize("ids", [(), (3, 1, 4, 5, 92), (1 << 40,)])
    def test_round_trip(self, eid, ids):
        packed = pack_ids(ids)
        row = encode_profile_row(eid, packed)
        # 4-byte slots, and the signed 64-bit fallback for ids >= 2**32.
        assert row[:1] == (b"q" if any(i >= 1 << 32 for i in ids) else b"I")
        decoded_eid, decoded_ids = decode_profile_row(row)
        assert decoded_eid == eid and type(decoded_eid) is type(eid)
        assert type(decoded_ids) is tuple
        assert decoded_ids == packed == tuple(sorted(ids))

    def test_round_trip_through_a_reader(self):
        # A record read back from shared memory sits at an arbitrary byte
        # offset: decoding must not depend on its alignment.
        store = SharedColumnStore()
        try:
            store.append(b"x")  # misalign the next record
            row = store.append(encode_profile_row("e", pack_ids((2, 9))))
            with SharedColumnReader(store.prefix) as reader:
                eid, ids = decode_profile_row(reader.record(row))
            assert (eid, ids) == ("e", (2, 9))
        finally:
            store.unlink()


class TestSharedTokenStores:
    def test_token_array_round_trip_and_identity_cache(self):
        with SharedMemoryBackend() as backend:
            ids = array("Q", [3, 1, 4, 1, 5, 92])
            backend.profiles.put(profile(7, ids))
            row = backend.profiles.rows[7]
            # The row holds the entity id and the packed (sorted) array.
            eid, packed = read(backend, row)
            assert eid == 7 and packed == tuple(sorted(ids))
            # Same eid + equal packed ids → same row, no second append.
            backend.profiles.put(profile(7, ids))
            assert backend.profiles.rows[7] == row
            assert len(backend.profiles.column) == 1


class TestProfileMapKeepsRowMap:
    """The shm backend's profile map is its column's one writer:
    ``profiles.rows`` always names the row of the profile it holds."""

    def test_same_token_set_keeps_its_row(self):
        with SharedMemoryBackend() as backend:
            backend.profiles.put(profile(7, frozenset({1, 2})))
            row = backend.profiles.rows[7]
            backend.profiles.put(profile(7, frozenset({2, 1})))
            assert backend.profiles.rows[7] == row
            assert len(backend.profiles.column) == 1

    def test_changed_token_set_gets_new_row_and_old_row_survives(self):
        with SharedMemoryBackend() as backend:
            backend.profiles.put(profile(7, frozenset({1, 2})))
            old = backend.profiles.rows[7]
            backend.profiles.put(profile(7, frozenset({3})))
            new = backend.profiles.rows[7]
            assert new != old
            assert read(backend, old) == (7, (1, 2))
            assert read(backend, new) == (7, (3,))

    def test_put_without_token_ids_drops_the_eid(self):
        with SharedMemoryBackend() as backend:
            backend.profiles.put(profile(7, frozenset({1, 2})))
            backend.profiles.put(profile(7, None))
            assert 7 not in backend.profiles.rows
            assert backend.profiles.get(7).token_ids is None
            # Ids again after none: a fresh row, since the old one may be
            # stale.
            backend.profiles.put(profile(7, frozenset({1, 2})))
            assert backend.profiles.rows[7] == 1

    def test_remove_drops_the_eid(self):
        with SharedMemoryBackend() as backend:
            backend.profiles.put(profile(7, frozenset({1, 2})))
            assert backend.profiles.remove(7)
            assert 7 not in backend.profiles.rows
            assert 7 not in backend.profiles


class TestBackendLifecycle:
    def test_layout(self):
        with SharedMemoryBackend() as backend:
            # One column: the profile rows.
            assert backend.layout() == backend.profiles.column.prefix
            assert backend.layout().startswith(backend.name)
            assert backend.shm_bytes() > 0
            names = backend.segment_names()
            assert len(names) == 3  # ctl + data + dir
            assert all(name.startswith(backend.name) for name in names)

    def test_context_manager_unlinks_all_segments(self):
        with SharedMemoryBackend() as backend:
            prefix = backend.name
            assert active_shm_segments(prefix)
        assert active_shm_segments(prefix) == []

    def test_unlink_is_idempotent(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        backend.unlink()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_garbage_collection_unlinks(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        # Growth after construction must be covered by the finalizer too.
        for i in range(20_000):
            backend.profiles.put(profile(i, (i, i + 1)))
        assert len(active_shm_segments(prefix)) > 3
        del backend
        gc.collect()
        assert active_shm_segments(prefix) == []


class TestRunHygiene:
    """No ``/dev/shm`` entry survives a run, however the run ends."""

    def test_no_leak_after_normal_run(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        pipeline = MultiprocessERPipeline(
            interned_config(), workers=2, backend=backend
        )
        pipeline.run(make_entities(120))
        assert pipeline.partitioned_dispatch
        pipeline.close()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_no_leak_after_worker_faults(self):
        backend = SharedMemoryBackend()
        prefix = backend.name
        pipeline = MultiprocessERPipeline(
            interned_config(),
            workers=2,
            faults={"co": FaultSpec(probability=0.3, seed=3)},
            backend=backend,
        )
        result = pipeline.run(make_entities(120))
        assert result.retries > 0  # the faults really fired in workers
        pipeline.close()
        backend.unlink()
        assert active_shm_segments(prefix) == []

    def test_no_leak_after_sigkill(self, tmp_path: Path):
        """SIGKILL the creator mid-run: the resource tracker must clean up.

        The finalizer cannot run under ``kill -9``; cleanup then falls to
        the ``multiprocessing.resource_tracker`` sidecar, which requires
        the creator to stay registered with it.
        """
        script = (
            "import time\n"
            "from repro.core.backends import SharedMemoryBackend\n"
            "from repro.types import Profile\n"
            "backend = SharedMemoryBackend()\n"
            "for i in range(500):\n"
            "    backend.profiles.put(\n"
            "        Profile(eid=i, attributes=(), tokens=frozenset(), token_ids=(i,))\n"
            "    )\n"
            "print(backend.name, flush=True)\n"
            "time.sleep(60)\n"
        )
        _kill_and_expect_sweep(script)


#: A run whose shared columns grow new generations *after* the pool has
#: forked: workers attach to segments the parent created post-fork.  An
#: attach must not disturb the creator's resource-tracker registration
#: (workers share the creator's tracker), or the tracker logs a KeyError
#: per segment at unlink and a killed creator's segments are never swept.
_GROW_AFTER_FORK = """
import sys, time
from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.core.backends import SharedMemoryBackend
from repro.parallel import MultiprocessERPipeline
from repro.types import EntityDescription

words = ["glass", "panel", "wood", "fibre", "roof", "window", "door", "steel"]
entities = [
    EntityDescription.create(
        i, {"title": " ".join(words[(i + j) % 8] for j in range(3)) + f" u{i % 40}"}
    )
    for i in range(400)
]
config = StreamERConfig.interned(
    alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
)
backend = SharedMemoryBackend(data_bytes=1 << 10, dir_rows=16)
pipeline = MultiprocessERPipeline(config, workers=2, backend=backend, partitioned=True)
pipeline.run(entities[:40])
forked_with = len(backend.segment_names())
pipeline.run(entities[40:])
assert len(backend.segment_names()) > forked_with, "columns never grew"
assert pipeline.pool_spawns == 1 and pipeline.pairs_dispatched > 0
print(backend.name, flush=True)
if sys.argv[1] == "hang":
    time.sleep(60)
pipeline.close()
backend.unlink()
"""


def _victim(script: str, *args: str) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _kill_and_expect_sweep(script: str, *args: str) -> None:
    proc = _victim(script, *args)
    try:
        prefix = proc.stdout.readline().strip()
        assert prefix, "victim never created its backend: " + proc.stderr.read()
        assert active_shm_segments(prefix)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        # The tracker is a separate process; give it a moment to notice
        # the pipe closing (pool workers exit on EOF first) and sweep the
        # leaked segments.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline and active_shm_segments(prefix):
            time.sleep(0.2)
        assert active_shm_segments(prefix) == []
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate(timeout=10)


class TestGrowthAfterFork:
    def test_clean_exit_leaves_stderr_empty(self):
        proc = _victim(_GROW_AFTER_FORK, "exit")
        out, err = proc.communicate(timeout=RUN_TIMEOUT)
        assert proc.returncode == 0, err
        assert err == ""
        assert active_shm_segments(out.strip()) == []

    def test_sigkill_of_parent_with_live_pool_leaves_no_segment(self):
        _kill_and_expect_sweep(_GROW_AFTER_FORK, "hang")


class TestShmVsMemoryEquivalence:
    def test_match_sets_bit_identical(self):
        """Same config, workers on shm vs every tail inline on memory."""
        entities = make_entities(150)
        reference = MultiprocessERPipeline(
            interned_config(), workers=2, backend=InMemoryBackend()
        )
        reference.run(entities)
        assert not reference.partitioned_dispatch
        expected = reference.backend.matches.pairs()
        reference.close()

        with SharedMemoryBackend() as backend:
            pipeline = MultiprocessERPipeline(
                interned_config(), workers=2, backend=backend
            )
            pipeline.run(entities)
            assert pipeline.partitioned_dispatch
            assert backend.matches.pairs() == expected
            pipeline.close()
