"""Shared-memory columnar state: dispatch without per-run serialization.

Pickling token payloads to worker processes — the same entity's tokens
crossing the process boundary every time it is compared — and re-forking
the pool per increment cost more than the comparisons themselves.

This module removes the data from the wire.  The backend keeps one
column in ``multiprocessing.shared_memory`` segments: the profile rows,
each an entity's packed token ids and its entity id
(:func:`encode_profile_row` / :func:`decode_profile_row`).  Workers
attach once at pool spawn and afterwards receive only row numbers — a
descriptor lists, per entity, its own row and its partners' rows.  Two
design rules make that safe without any cross-process lock:

**Append-only columns.**  A :class:`SharedColumnStore` is a log of
variable-length records.  Records are addressed by a dense row number;
the directory column maps row → ``(data generation, offset, length)``.
Nothing is ever overwritten, so a row number handed to a worker stays
valid for the lifetime of the store.

**Epoch publication.**  A single writer (the parent process) appends the
record bytes first, then the directory entry, and only *then* bumps the
published-row counter — one aligned int64 store in the control segment.
Readers treat the published count as the horizon: a row below it is fully
written by construction, so readers can never observe a torn record, even
while the writer is mid-append.  Growth works the same way: capacity is
added as new, never-moved *generation* segments (doubling sizes, with
deterministic names recorded in the control segment), and a generation
becomes visible to readers only when the control segment's generation
counter is bumped after the segment is fully created.  Readers attach
lazily when a row points past what they have mapped.

Lifecycle is explicit because leaked ``/dev/shm`` segments outlive the
process: the creating process owns unlinking (guarded by pid, so a forked
worker can never unlink the parent's segments), ``close``/``unlink`` are
idempotent, the backend is a context manager, and a ``weakref.finalize``
hook covers garbage collection and interpreter exit.  Workers attaching
by name unregister the segment from :mod:`multiprocessing.resource_tracker`
so the tracker does not double-unlink (or warn) on worker exit.
"""

from __future__ import annotations

import itertools
import os
import pickle
import secrets
import struct
import sys
import threading
import weakref
from array import array
from bisect import bisect_right
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path

from repro.core.state import (
    Blacklist,
    BlockCollection,
    ERState,
    MatchStore,
    ProfileStore,
    stored_form,
)
from repro.errors import ConfigurationError
from repro.reading.interning import TokenDictionary
from repro.types import EntityId, Profile

__all__ = [
    "SHM_NAME_PREFIX",
    "SharedColumnReader",
    "SharedColumnStore",
    "SharedMemoryBackend",
    "active_shm_segments",
    "attach_segment",
    "decode_profile_row",
    "encode_profile_row",
]

#: Every segment this module creates starts with this, so leak checks can
#: enumerate exactly our segments in ``/dev/shm`` and nothing else.
SHM_NAME_PREFIX = "reproER"

#: Hard cap on growth generations per store.  Capacities double, so 48
#: generations from a 256 KiB seed cover more address space than exists;
#: the cap only bounds the fixed-size capacity tables in the control
#: segment.
MAX_GENERATIONS = 48

_CTL_PUBLISHED = 0  # rows readers may touch
_CTL_DATA_GENS = 1  # data generations fully created
_CTL_DIR_GENS = 2  # directory generations fully created
_CTL_DATA_CAPS = 3  # + g: byte capacity of data generation g
_CTL_DIR_CAPS = _CTL_DATA_CAPS + MAX_GENERATIONS  # + g: row capacity of dir gen g
_CTL_SLOTS = _CTL_DIR_CAPS + MAX_GENERATIONS
_CTL_BYTES = _CTL_SLOTS * 8

_DIR_WIDTH = 3  # (data generation, offset, length) int64 triples

_counter = itertools.count()


def _fresh_prefix() -> str:
    """A segment-name prefix unique across processes and runs.

    Kept short: POSIX shm names are limited to 31 characters on some
    platforms (macOS), and generation suffixes ride on top of this.
    """
    return f"{SHM_NAME_PREFIX}{os.getpid():x}x{next(_counter):x}{secrets.token_hex(2)}"


#: Serializes the register-suppressing window of :func:`attach_segment`
#: against segment creation in another thread (whose registration must
#: not be lost).
_tracker_lock = threading.Lock()


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment *without* adopting cleanup duty.

    ``SharedMemory(name=...)`` registers the segment with the process's
    resource tracker, which would unlink it when *this* process exits —
    wrong for a guest attaching to someone else's state, and the source
    of the well-known "leaked shared_memory objects" warnings.  Creating
    is what makes a process the owner; attaching never does.  So an
    attach is simply never registered, whoever performs it: there is no
    owner-vs-guest guess to go stale across a ``fork``, and nothing is
    ever *un*registered — pool workers share the creator's tracker, where
    a guest's unregister would erase the creator's registration and a
    ``kill -9`` of the creator would no longer sweep the segment.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    with _tracker_lock:
        register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = register


def active_shm_segments(prefix: str | None = None) -> list[str]:
    """Names of live ``/dev/shm`` segments created by this module.

    The leak-detection primitive used by tests and the benchmark smoke
    runs: after a run plus cleanup, this must be empty.  With ``prefix``,
    restricted to one store/backend's segments.  Returns ``[]`` on
    platforms without a ``/dev/shm`` filesystem (the tests that rely on
    enumeration skip there).
    """
    root = Path("/dev/shm")
    if not root.is_dir():
        return []
    wanted = prefix if prefix is not None else SHM_NAME_PREFIX
    try:
        return sorted(p.name for p in root.iterdir() if p.name.startswith(wanted))
    except OSError:  # pragma: no cover - racing unlinks
        return []


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a record view still held at exit
        pass


def _unlink_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


def _view(segment: shared_memory.SharedMemory, nbytes: int, fmt: str) -> memoryview:
    """A ``fmt`` memoryview of the first ``nbytes`` of ``segment``.

    The OS may round the mapping up; readers must agree with the writer
    on capacity, so the *recorded* size is what is viewed.  The view pins
    the mapping until it is released: every holder releases its views
    before closing a segment.
    """
    return segment.buf[:nbytes].cast(fmt)


def _release(views: list[memoryview | None]) -> None:
    for view in views:
        if view is not None:
            view.release()


class SharedColumnStore:
    """Single-writer append-only record log in shared memory.

    One control segment publishes the row horizon and the generation
    tables; data lives in ``{prefix}d{g}`` byte segments, the row
    directory in ``{prefix}i{g}`` int64-triple segments.  ``append`` is
    the only mutator and must be called from one process (the parent);
    any number of :class:`SharedColumnReader` processes may read
    concurrently without locking.  Every segment is written through a
    memoryview cast once per generation, so an append is a byte-slice
    copy and four int64 stores.
    """

    def __init__(
        self,
        prefix: str | None = None,
        *,
        data_bytes: int = 1 << 18,
        dir_rows: int = 1 << 12,
    ) -> None:
        if data_bytes < 1 or dir_rows < 1:
            raise ConfigurationError("data_bytes and dir_rows must be >= 1")
        self.prefix = prefix if prefix is not None else _fresh_prefix()
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        self._ctl: memoryview | None = None
        self._data: list[memoryview] = []
        self._dirs: list[memoryview] = []
        try:
            ctl = self._create(f"{self.prefix}c", _CTL_BYTES)
            ctl.buf[:_CTL_BYTES] = bytes(_CTL_BYTES)
            self._ctl = _view(ctl, _CTL_BYTES, "q")
            self._data_caps: list[int] = []
            self._dir_caps: list[int] = []
            self._dir_bases: list[int] = []
            self._grow_data(data_bytes)
            self._grow_dir(dir_rows)
        except BaseException:
            self._release_views()
            for segment in self._segments:
                _close_segment(segment)
                _unlink_segment(segment)
            raise
        self._rows = 0
        self._data_used = 0
        self._dir_used = 0

    # -- segment plumbing ----------------------------------------------

    def _create(self, name: str, size: int) -> shared_memory.SharedMemory:
        with _tracker_lock:
            segment = shared_memory.SharedMemory(name=name, create=True, size=size)
        self._segments.append(segment)
        return segment

    def _grow_data(self, capacity: int) -> None:
        g = len(self._data)
        if g >= MAX_GENERATIONS:
            raise ConfigurationError(
                f"column store {self.prefix!r} exceeded {MAX_GENERATIONS} "
                "data generations"
            )
        segment = self._create(f"{self.prefix}d{g}", capacity)
        self._data.append(_view(segment, capacity, "B"))
        self._data_caps.append(capacity)
        self._ctl[_CTL_DATA_CAPS + g] = capacity
        self._ctl[_CTL_DATA_GENS] = g + 1  # publish after fully created
        self._data_used = 0

    def _grow_dir(self, rows: int) -> None:
        g = len(self._dirs)
        if g >= MAX_GENERATIONS:
            raise ConfigurationError(
                f"column store {self.prefix!r} exceeded {MAX_GENERATIONS} "
                "directory generations"
            )
        nbytes = rows * _DIR_WIDTH * 8
        segment = self._create(f"{self.prefix}i{g}", nbytes)
        base = (self._dir_bases[-1] + self._dir_caps[-1]) if self._dirs else 0
        self._dirs.append(_view(segment, nbytes, "q"))
        self._dir_caps.append(rows)
        self._dir_bases.append(base)
        self._ctl[_CTL_DIR_CAPS + g] = rows
        self._ctl[_CTL_DIR_GENS] = g + 1  # publish after fully created
        self._dir_used = 0

    # -- the write path ------------------------------------------------

    def append(self, payload) -> int:
        """Append one record; its row number (dense, starting at 0).

        Publication order is the store's whole correctness argument:
        data bytes, then the directory triple, then the row-horizon bump.
        A reader that sees row ``r`` published therefore sees ``r``'s
        directory entry and data bytes complete.
        """
        if self._closed:
            raise ConfigurationError(f"column store {self.prefix!r} is closed")
        if type(payload) is not bytes:
            payload = memoryview(payload).cast("B")
        length = len(payload)
        if length > self._data_caps[-1] - self._data_used:
            self._grow_data(max(self._data_caps[-1] * 2, length))
        generation = len(self._data) - 1
        offset = self._data_used
        self._data[generation][offset : offset + length] = payload
        self._data_used = offset + length
        if self._dir_used >= self._dir_caps[-1]:
            self._grow_dir(self._dir_caps[-1] * 2)
        directory = self._dirs[-1]
        at = self._dir_used * _DIR_WIDTH
        directory[at] = generation
        directory[at + 1] = offset
        directory[at + 2] = length
        self._dir_used += 1
        row = self._rows
        self._rows = row + 1
        self._ctl[_CTL_PUBLISHED] = row + 1  # publish last
        return row

    def __len__(self) -> int:
        return self._rows

    def record(self, row: int) -> memoryview:
        """The record's bytes as a zero-copy view (writer side)."""
        if not 0 <= row < self._rows:
            raise IndexError(f"row {row} not in [0, {self._rows})")
        return _record(self._data, self._dirs, self._dir_bases, row)

    # -- lifecycle -----------------------------------------------------

    def segment_names(self) -> list[str]:
        return [segment.name for segment in self._segments]

    def shm_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def _release_views(self) -> None:
        # A live view keeps the mapping exported; SharedMemory.close would
        # raise BufferError while any survives.
        _release([self._ctl, *self._data, *self._dirs])
        self._ctl = None
        self._data = []
        self._dirs = []

    def close(self) -> None:
        """Detach mappings.  The segments stay until :meth:`unlink`."""
        if self._closed:
            return
        self._closed = True
        self._release_views()
        for segment in self._segments:
            _close_segment(segment)

    def unlink(self) -> None:
        """Remove the segments from the system (creator's duty)."""
        self.close()
        for segment in self._segments:
            _unlink_segment(segment)


def _record(
    data: list[memoryview], dirs: list[memoryview], bases: list[int], row: int
) -> memoryview:
    """Row ``row``'s bytes: a slice of its data generation, found through
    the directory generation that holds the row."""
    g = bisect_right(bases, row) - 1
    at = (row - bases[g]) * _DIR_WIDTH
    directory = dirs[g]
    offset = directory[at + 1]
    return data[directory[at]][offset : offset + directory[at + 2]]


class SharedColumnReader:
    """Lock-free reading end of a :class:`SharedColumnStore`.

    Attach from any process by the store's prefix.  Generations are
    mapped lazily: a row past the currently-mapped horizon triggers a
    re-read of the control segment and attachment of whatever new
    generations the writer has published since.  Reads return zero-copy
    byte views into the shared mapping.
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        ctl = attach_segment(f"{prefix}c")
        self._segments.append(ctl)
        self._ctl: memoryview | None = _view(ctl, _CTL_BYTES, "q")
        self._data: list[memoryview] = []
        self._dirs: list[memoryview] = []
        self._dir_caps: list[int] = []
        self._dir_bases: list[int] = []
        self._rows_known = 0
        self._refresh()

    def __len__(self) -> int:
        """Rows published by the writer (re-read, not cached)."""
        return self._ctl[_CTL_PUBLISHED]

    def _refresh(self) -> None:
        # Horizon first: the writer may be appending while we attach (a
        # pool worker starts mid-increment).  Every row below a horizon
        # read *now* lives in generations that already exist, so the tables
        # read afterwards cover it; read last, the horizon could take in
        # rows of a generation created after the tables were sized up.
        ctl = self._ctl
        published = ctl[_CTL_PUBLISHED]
        while len(self._data) < ctl[_CTL_DATA_GENS]:
            g = len(self._data)
            segment = attach_segment(f"{self.prefix}d{g}")
            self._segments.append(segment)
            self._data.append(_view(segment, ctl[_CTL_DATA_CAPS + g], "B"))
        while len(self._dirs) < ctl[_CTL_DIR_GENS]:
            g = len(self._dirs)
            segment = attach_segment(f"{self.prefix}i{g}")
            self._segments.append(segment)
            rows = ctl[_CTL_DIR_CAPS + g]
            base = (self._dir_bases[-1] + self._dir_caps[-1]) if self._dirs else 0
            self._dirs.append(_view(segment, rows * _DIR_WIDTH * 8, "q"))
            self._dir_caps.append(rows)
            self._dir_bases.append(base)
        self._rows_known = published

    def record(self, row: int) -> memoryview:
        """Zero-copy byte view of a published record."""
        if row >= self._rows_known:
            self._refresh()
            if row >= self._rows_known:
                raise IndexError(
                    f"row {row} not published yet ({self._rows_known} rows)"
                )
        if row < 0:
            raise IndexError(f"row {row} is negative")
        return _record(self._data, self._dirs, self._dir_bases, row)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _release([self._ctl, *self._data, *self._dirs])
        self._ctl = None
        self._data = []
        self._dirs = []
        for segment in self._segments:
            _close_segment(segment)

    def __enter__(self) -> "SharedColumnReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: A profile row's header: the ids' array typecode and their byte length.
_ROW_HEAD = struct.Struct("<cI")


def encode_profile_row(eid: EntityId, token_ids: tuple[int, ...]) -> bytes:
    """One profile row: an entity's stored id tuple
    (:func:`~repro.reading.interning.pack_ids`) and its entity id.

    The layout is :data:`_ROW_HEAD`, the ids' raw machine bytes, then the
    pickled entity id.  The ids are packed as 4-byte unsigned ints (``I``),
    or as signed 64-bit ones (``q``) when an id does not fit, so a reader
    rebuilds them with one ``cast``; only the id, which may be any
    picklable value, is pickled.
    """
    try:
        packed = array("I", token_ids)
    except OverflowError:
        packed = array("q", token_ids)
    ids = packed.tobytes()
    head = _ROW_HEAD.pack(packed.typecode.encode("ascii"), len(ids))
    return b"".join((head, ids, pickle.dumps(eid, protocol=5)))


def decode_profile_row(
    record: "memoryview | bytes",
) -> tuple[EntityId, tuple[int, ...]]:
    """The ``(eid, token_ids)`` an :func:`encode_profile_row` record holds.

    ``token_ids`` is a tuple, the form the parent's profile map stores, so
    a pool worker scores exactly what the parent would.  The record is
    read in place: a column record sits at an arbitrary byte offset of its
    segment, and a memoryview ``cast`` reads unaligned items by copying
    them.
    """
    view = memoryview(record)
    typecode, length = _ROW_HEAD.unpack_from(view)
    end = _ROW_HEAD.size + length
    token_ids = tuple(view[_ROW_HEAD.size : end].cast(typecode.decode("ascii")))
    return pickle.loads(view[end:]), token_ids


class _RowMappedProfiles(ProfileStore):
    """The profile map of a :class:`SharedMemoryBackend`: every interned
    profile it holds is also a row of its shared :attr:`column`.

    ``f_bb+bp`` is the profile map's only writer under every executor, so
    it is also the column's only writer, and :attr:`rows` (eid → current
    row) always names the row of the profile the map holds.  A ``put``
    whose ids equal the stored profile's keeps the row; changed ids (or
    ids after none) append a new one, and the old row stays valid for any
    descriptor that already names it (append-only: no ABA hazard).  A
    profile without interned ids (``token_ids is None``) has no row to
    name: ``put`` drops the eid from :attr:`rows`, as ``remove`` does.
    """

    __slots__ = ("column", "rows")

    def __init__(self, column: SharedColumnStore) -> None:
        super().__init__()
        self.column = column
        #: eid → the row holding its current profile.
        self.rows: dict[EntityId, int] = {}

    def put(self, profile: Profile) -> None:
        eid = profile.eid
        stored = stored_form(profile)
        old = self._profiles.get(eid)
        self._profiles[eid] = stored
        ids = stored.token_ids
        if ids is None:
            self.rows.pop(eid, None)
        elif old is None or old.token_ids != ids:
            self.rows[eid] = self.column.append(encode_profile_row(eid, ids))

    def remove(self, eid: EntityId) -> bool:
        self.rows.pop(eid, None)
        return super().remove(eid)


def _finalize_backend(creator_pid: int, column: SharedColumnStore) -> None:
    """Module-level so ``weakref.finalize`` holds no reference cycles.

    The pid guard is load-bearing: a forked worker inherits the backend
    object, and its interpreter exit must *not* unlink the parent's
    segments out from under the run.  Unlinking through the store (not a
    snapshot of segments) covers generations created after construction.
    """
    if os.getpid() == creator_pid:
        column.unlink()


class SharedMemoryBackend:
    """A :class:`~repro.core.backends.StateBackend` with shared profile rows.

    One column lives in shared memory: the profile rows — each interned
    profile's packed token ids and its entity id — because that is all a
    worker needs to run an entity's ``cc → lm → co → cl`` tail, given a
    descriptor that names the entity's row and its partners' rows.  The
    profile map owns the column and appends each profile as it is
    written, keeping ``profiles.rows`` (eid → current row) in step with
    it.  Everything else (blocks, blacklist, matches, and the token
    dictionary, which only ``f_dr`` in the parent consults) is parent-only
    state that never crosses the process boundary, so it stays as the
    plain in-memory implementations.

    Lifecycle: the creating process owns the segments.  ``close()``
    detaches, ``unlink()`` removes (both idempotent; ``unlink`` implies
    ``close``); the context manager and a GC/exit finalizer do both, and
    every path is pid-guarded so forked children can never unlink.

    Compose with :class:`~repro.core.backends.durable.DurableBackend` as
    ``DurableBackend.open(wal_dir, config, inner=SharedMemoryBackend())``
    — durability is the *outer* decorator.  It logs the executors' input
    and hands the stages the inner stores unchanged, so the WAL is
    unaffected by where the column lives, and the shm-only surface
    (``layout``, ``segment_names``, ``shm_bytes``) remains reachable
    through its attribute delegation.
    """

    def __init__(
        self,
        name: str | None = None,
        *,
        data_bytes: int = 1 << 18,
        dir_rows: int = 1 << 12,
    ) -> None:
        self.name = name if name is not None else _fresh_prefix()
        self._creator_pid = os.getpid()
        self._column = SharedColumnStore(
            self.name + "p", data_bytes=data_bytes, dir_rows=dir_rows
        )
        self.dictionary = TokenDictionary()
        self.blocks = BlockCollection()
        self.blacklist = Blacklist()
        self.profiles = _RowMappedProfiles(self._column)
        self.matches = MatchStore()
        self._finalizer = weakref.finalize(
            self, _finalize_backend, self._creator_pid, self._column
        )

    # -- the StateBackend surface --------------------------------------

    def state(self) -> ERState:
        return ERState(
            blocks=self.blocks,
            blacklist=self.blacklist,
            profiles=self.profiles,
            matches=self.matches,
        )

    # -- the shm surface -----------------------------------------------

    def layout(self) -> str:
        """The profile column's prefix: all a worker needs to attach."""
        return self._column.prefix

    def segment_names(self) -> list[str]:
        """All segments this backend created (for leak accounting)."""
        return self._column.segment_names()

    def shm_bytes(self) -> int:
        """Total bytes of shared memory currently mapped."""
        return self._column.shm_bytes()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Detach this process's mappings (does not remove segments)."""
        self._column.close()

    def unlink(self) -> None:
        """Remove the segments from the system.  Creator-only; idempotent."""
        if os.getpid() != self._creator_pid:
            return
        self._finalizer.detach()
        self._column.unlink()

    def __enter__(self) -> "SharedMemoryBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()
