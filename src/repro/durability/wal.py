"""The append-only write-ahead log: record format, writer, scanner.

A WAL segment is::

    8-byte magic "REPROWAL" | u32 format version | u32 epoch
    then zero or more records, each:
    u32 payload length | u32 crc32(payload) | payload (compact JSON)

The log holds what the executors *admitted*, not what the stages did
(command logging): an ``input`` record carries the entity descriptions of
one admission and is appended before any of them runs; a ``dead_letter``
record names an entity a supervisor gave up on, and the stage it stopped
before.  The state is a deterministic fold over that input, so recovery
re-runs the logged entities instead of re-applying mutations.  Version 2
is this format; version 1 logged state mutations and is refused.

Torn-tail classification on read follows the standard WAL discipline:

* fewer than 8 bytes of header left, or a payload cut short by EOF, or a
  checksum failure on the *final* record → **torn tail** (a write the
  crash interrupted); the valid prefix is the recoverable log.
* a checksum failure with valid data after it → **corruption**
  (:class:`~repro.errors.WalCorruptionError`): logged records would be
  silently dropped by clamping, so the scanner fails loudly instead.

:class:`CrashPoint` is the crash-injection hook (re-exported through
:mod:`repro.parallel.faults`): armed on a writer, it kills the run —
optionally mid-record, leaving a genuinely torn tail on disk — when the
seeded append index is reached.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, SimulatedCrash, WalCorruptionError

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "CrashPoint",
    "WalScan",
    "WalWriter",
    "encode_record",
    "scan_wal",
    "segment_path",
    "header_size",
]

WAL_MAGIC = b"REPROWAL"
WAL_VERSION = 2

_HEADER = struct.Struct("<II")  # file header: version, epoch
_RECORD = struct.Struct("<II")  # record header: payload length, crc32
_FILE_HEADER_SIZE = len(WAL_MAGIC) + _HEADER.size

#: Cap on a single record payload; a claimed length beyond it is treated
#: as garbage (torn or corrupt) rather than attempted as an allocation.
MAX_RECORD_BYTES = 64 * 1024 * 1024


def segment_path(wal_dir: str | Path, epoch: int) -> Path:
    """The WAL segment holding records written *after* snapshot ``epoch``."""
    return Path(wal_dir) / f"wal-{epoch:08d}.log"


def header_size() -> int:
    """Byte offset of the first record in a segment."""
    return _FILE_HEADER_SIZE


def encode_record(record: dict) -> bytes:
    """One framed record: length + checksum header, compact-JSON payload."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return _RECORD.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class CrashPoint:
    """Kill the run when the writer's ``at_record``-th append happens.

    ``at_record`` counts appends across the whole durable run (1-based,
    spanning segment rollovers), so a crash index seeded from a WAL of a
    reference run lands on the same logical mutation.  ``torn_bytes``
    additionally writes that many bytes of the fatal record before dying,
    leaving a genuinely torn tail for recovery to clamp; ``None`` crashes
    cleanly between records.  The writer is dead afterwards: every
    further append raises :class:`~repro.errors.SimulatedCrash` again,
    like syscalls in a killed process.
    """

    at_record: int
    torn_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.at_record < 1:
            raise ConfigurationError("at_record is 1-based and must be >= 1")
        if self.torn_bytes is not None and self.torn_bytes < 0:
            raise ConfigurationError("torn_bytes cannot be negative")


class WalWriter:
    """Appends framed records to one segment file, thread-safe.

    ``fsync`` policy: ``"always"`` syncs every append, ``"commit"`` syncs
    when :meth:`sync` is called (the durable backend calls it after every
    record it appends), ``"never"`` leaves flushing to the OS until
    :meth:`close`.  All policies share the consistency guarantee — a
    crash can only lose a suffix of the log, never tear its middle —
    they trade how much logged tail is at the OS's mercy.
    """

    def __init__(
        self,
        path: str | Path,
        epoch: int,
        fsync: str = "commit",
        crash_point: CrashPoint | None = None,
        records_before: int = 0,
        resume_offset: int | None = None,
    ) -> None:
        if fsync not in ("always", "commit", "never"):
            raise ConfigurationError(
                f'fsync must be "always", "commit" or "never", got {fsync!r}'
            )
        self.path = Path(path)
        self.epoch = epoch
        self.fsync = fsync
        self.crash_point = crash_point
        #: Appends attempted over the whole run (crash-point index base).
        self.records_seen = records_before
        self.records_written = 0
        self.bytes_written = 0
        self.syncs = 0
        self._lock = threading.Lock()
        self._dead = False
        if resume_offset is not None:
            # Resuming into an existing segment: drop the torn tail
            # before appending.
            with self.path.open("r+b") as handle:
                handle.truncate(resume_offset)
            self._file = self.path.open("ab")
        else:
            self._file = self.path.open("wb")
            self._file.write(WAL_MAGIC + _HEADER.pack(WAL_VERSION, epoch))
            self._file.flush()

    @property
    def offset(self) -> int:
        """Current end-of-log byte offset (records fully appended)."""
        return self._file.tell()

    def append(self, record: dict) -> int:
        """Frame and append one record; returns its byte offset."""
        data = encode_record(record)
        with self._lock:
            if self._dead:
                raise SimulatedCrash(
                    f"wal writer for {self.path.name} is dead (post-crash append)"
                )
            self.records_seen += 1
            point = self.crash_point
            if point is not None and self.records_seen >= point.at_record:
                self._dead = True
                if point.torn_bytes:
                    self._file.write(data[: point.torn_bytes])
                # Model the OS surviving a kill -9: whatever was handed to
                # write() is on disk, the rest of this record never is.
                self._file.flush()
                raise SimulatedCrash(
                    f"injected crash at WAL record {self.records_seen} "
                    f"({self.path.name}, torn_bytes={point.torn_bytes})"
                )
            at = self._file.tell()
            self._file.write(data)
            self.records_written += 1
            self.bytes_written += len(data)
            if self.fsync == "always":
                self._file.flush()
                os.fsync(self._file.fileno())
                self.syncs += 1
            return at

    def flush(self) -> None:
        with self._lock:
            if not self._dead:
                self._file.flush()

    def sync(self) -> None:
        """Flush and fsync (the ``"commit"`` policy's commit-time barrier)."""
        with self._lock:
            if self._dead:
                return
            self._file.flush()
            if self.fsync != "never":
                os.fsync(self._file.fileno())
                self.syncs += 1

    def close(self) -> None:
        with self._lock:
            if self._file.closed:
                return
            if not self._dead:
                self._file.flush()
                if self.fsync != "never":
                    os.fsync(self._file.fileno())
            self._file.close()


@dataclass
class WalScan:
    """Result of scanning one segment: its records and tail diagnosis."""

    path: Path
    epoch: int
    records: list[dict]
    offsets: list[int]  # byte offset where each record starts
    valid_bytes: int  # end offset of the last valid record
    torn_tail: bool
    tail_error: str | None


def scan_wal(path: str | Path, strict: bool = True) -> WalScan:
    """Parse a segment, classifying any damage as torn tail vs corruption.

    ``strict=False`` downgrades mid-log corruption to a clamp at the last
    valid prefix (forensic use); the default fails loudly on it, because
    clamping there drops logged records.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _FILE_HEADER_SIZE or data[: len(WAL_MAGIC)] != WAL_MAGIC:
        raise WalCorruptionError(f"{path} is not a repro WAL segment")
    version, epoch = _HEADER.unpack_from(data, len(WAL_MAGIC))
    if version != WAL_VERSION:
        raise WalCorruptionError(
            f"{path} has unsupported WAL version {version} "
            f"(supported: {WAL_VERSION})"
        )
    records: list[dict] = []
    offsets: list[int] = []
    pos = _FILE_HEADER_SIZE
    end = len(data)
    torn = False
    tail_error: str | None = None

    def finish(error: str | None) -> WalScan:
        return WalScan(
            path=path,
            epoch=epoch,
            records=records,
            offsets=offsets,
            valid_bytes=pos,
            torn_tail=torn,
            tail_error=error,
        )

    while pos < end:
        if end - pos < _RECORD.size:
            torn, tail_error = True, f"truncated record header at offset {pos}"
            break
        length, checksum = _RECORD.unpack_from(data, pos)
        body_start = pos + _RECORD.size
        if length > MAX_RECORD_BYTES or body_start + length > end:
            torn = True
            tail_error = (
                f"record at offset {pos} claims {length} payload bytes but "
                f"only {end - body_start} remain"
            )
            break
        payload = data[body_start : body_start + length]
        if zlib.crc32(payload) != checksum:
            record_end = body_start + length
            if record_end >= end:
                torn = True
                tail_error = f"checksum mismatch in final record at offset {pos}"
                break
            message = (
                f"checksum mismatch at offset {pos} of {path.name} with "
                f"{end - record_end} valid byte(s) after it — mid-log "
                f"corruption, not a torn tail"
            )
            if strict:
                raise WalCorruptionError(message)
            torn, tail_error = True, message
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            # The frame checksummed correctly but does not decode: that is
            # writer-side garbage, never a torn write.
            raise WalCorruptionError(
                f"record at offset {pos} of {path.name} fails to decode: {exc}"
            ) from exc
        offsets.append(pos)
        records.append(record)
        pos = body_start + length
    return finish(tail_error)
