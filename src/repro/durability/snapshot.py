"""Snapshot checkpoints: atomic, checksummed full-state documents.

A snapshot is a JSON document carrying the complete mutable ER state —
token dictionary first (id order), then profiles (registration order),
blocks (member order preserved), blacklist, matches (discovery order) —
plus the checkpoint epoch and the entity count.  Its integrity hash
covers everything but itself.

Writing follows the atomic-rename discipline: the document is written to
a temporary file in the same directory, flushed and fsynced, renamed
over the final ``snapshot-<epoch>.json`` name with :func:`os.replace`,
and the directory entry is fsynced.  A crash at any point leaves either
the previous snapshot or the new one — never a half-written file under
the final name.

The same schema is the suspend/resume format of :func:`dump_state` /
:func:`load_state` — §III-A's initial state σ₁ "resulting from applying
ER on another dataset": a cooperative suspend is a checkpoint at epoch 0
with no WAL.  The token dictionary is part of the document, so resuming
never re-interns and token ids keep their original assignment order.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import IO, Any

from repro.durability.codec import (
    decode_id,
    decode_match,
    decode_profile,
    encode_id,
    encode_match,
    encode_profile,
)
from repro.errors import DatasetError, RecoveryError

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "apply_state_document",
    "dump_state",
    "list_snapshots",
    "load_snapshot",
    "load_state",
    "snapshot_path",
    "state_document",
    "validate_state_document",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "repro-er-snapshot"
SNAPSHOT_VERSION = 2


def snapshot_path(wal_dir: str | Path, epoch: int) -> Path:
    """The checkpoint file written at the start of WAL epoch ``epoch``."""
    return Path(wal_dir) / f"snapshot-{epoch:08d}.json"


def list_snapshots(wal_dir: str | Path) -> list[tuple[int, Path]]:
    """All snapshot files in ``wal_dir``, ordered oldest to newest epoch."""
    found = []
    for path in Path(wal_dir).glob("snapshot-*.json"):
        stem = path.stem.removeprefix("snapshot-")
        if stem.isdigit():
            found.append((int(stem), path))
    return sorted(found)


def _document_sha(document: dict) -> str:
    body = {key: value for key, value in document.items() if key != "sha256"}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def state_document(
    backend: Any,
    entities_processed: int = 0,
    epoch: int = 0,
) -> dict:
    """Render a backend's complete state as a snapshot document."""
    document = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "epoch": epoch,
        "entities_processed": entities_processed,
        "dictionary": list(backend.dictionary),
        "profiles": [encode_profile(p) for p in backend.profiles.values()],
        "blocks": [
            [key, [encode_id(eid) for eid in members]]
            for key, members in backend.blocks.items()
        ],
        "blacklist": sorted(backend.blacklist.keys),
        "matches": [encode_match(m) for m in backend.matches.matches()],
    }
    document["sha256"] = _document_sha(document)
    return document


def write_snapshot(path: str | Path, document: dict) -> Path:
    """Atomically publish ``document`` at ``path`` (tmp + fsync + rename)."""
    path = Path(path)
    payload = json.dumps(document, separators=(",", ":")).encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def validate_state_document(document: dict, name: object) -> None:
    """Raise :class:`RecoveryError` unless ``document`` is a current-version
    state document whose integrity hash holds; ``name`` labels it in the
    message."""
    if document.get("format") != SNAPSHOT_FORMAT:
        raise RecoveryError(
            f"{name} is not a repro ER snapshot (format "
            f"{document.get('format')!r}, version {document.get('version')!r})"
        )
    if document.get("version") != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"{name} has unsupported snapshot version "
            f"{document.get('version')} (supported: {SNAPSHOT_VERSION})"
        )
    expected = document.get("sha256")
    actual = _document_sha(document)
    if expected != actual:
        raise RecoveryError(
            f"{name} fails its integrity hash "
            f"(stored {expected}, computed {actual})"
        )


def load_snapshot(path: str | Path) -> dict:
    """Read and integrity-check a snapshot document."""
    path = Path(path)
    try:
        document = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"snapshot {path} is unreadable: {exc}") from exc
    validate_state_document(document, f"snapshot {path}")
    return document


def apply_state_document(document: dict, backend: Any) -> int:
    """Load a snapshot's state into a fresh backend; returns entity count.

    Order matters: the dictionary is restored first by interning its
    tokens in stored (id) order — reproducing the original assignment
    exactly — so profile decoding can re-attach token ids by lookup.
    Blocks are rebuilt through ``add`` in member order so the O(1)
    counters come out right.
    """
    for token in document["dictionary"]:
        backend.dictionary.intern(token)
    for data in document["profiles"]:
        backend.profiles.put(decode_profile(data, backend.dictionary))
    for key, members in document["blocks"]:
        for raw in members:
            backend.blocks.add(key, decode_id(raw))
    for key in document["blacklist"]:
        backend.blacklist.add(key)
    for data in document["matches"]:
        backend.matches.add(decode_match(data))
    return int(document.get("entities_processed", 0))


def dump_state(pipeline: Any, target: str | Path | IO[str]) -> None:
    """Suspend: write ``pipeline``'s complete state as a state document.

    A path target is published through :func:`write_snapshot`, so a
    failure mid-dump leaves the previous file (if any), never a
    truncated one.
    """
    document = state_document(
        pipeline.backend,
        entities_processed=pipeline.entities_processed,
        epoch=0,
    )
    if isinstance(target, (str, Path)):
        write_snapshot(target, document)
    else:
        json.dump(document, target)


def load_state(pipeline: Any, source: str | Path | IO[str]) -> None:
    """Resume: restore a :func:`dump_state` document into a *fresh* pipeline.

    The pipeline must not have processed anything yet — loading merges,
    rather than replaces, and a half-filled state would silently corrupt
    the resolution.  Any document that is not a current-version state
    document whose integrity hash holds raises
    :class:`~repro.errors.DatasetError`.
    """
    if pipeline.entities_processed:
        raise DatasetError("state can only be loaded into a fresh pipeline")
    if isinstance(source, (str, Path)):
        with Path(source).open(encoding="utf-8") as handle:
            document = json.load(handle)
    else:
        document = json.load(source)
    try:
        validate_state_document(document, "state document")
        count = apply_state_document(document, pipeline.backend)
    except RecoveryError as exc:
        raise DatasetError(str(exc)) from exc
    pipeline._entities_processed = count  # noqa: SLF001
