"""Crash recovery: newest snapshot + WAL tail replay, up to the last commit.

The procedure (see ``docs/durability.md``):

1. Load the newest snapshot whose integrity hash verifies, falling back
   to older ones (snapshot publication is atomic, but recovery does not
   *assume* it); no snapshot means replay from the empty state at
   epoch 0.
2. Replay every WAL segment from the snapshot's epoch forward, in epoch
   order.  The chain must be gap-free — a missing middle segment is
   unrecoverable data loss, not a torn tail.
3. In the final segment, apply records only up to the **last commit**:
   everything after it belongs to the entity that was mid-flight at the
   crash and is discarded (the caller re-feeds it).  A torn tail is
   clamped; mid-log corruption raises under ``strict``.
4. Commit sequence numbers must continue the snapshot's ``next_seq``
   exactly: a duplicate commit drops its whole buffered mutation batch
   (``block_add`` is not idempotent, so re-applying would corrupt block
   membership), gaps raise :class:`~repro.errors.RecoveryError`.
   Mutations are therefore buffered until their commit record arrives
   and applied batch-wise — which is also what makes the final-segment
   clamp exact.

Resume then truncates the final segment at the clamp offset and appends
from there — the discarded tail never survives a successful resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.durability.codec import decode_id, decode_match, decode_profile
from repro.durability.snapshot import (
    apply_state_document,
    list_snapshots,
    load_snapshot,
)
from repro.durability.wal import header_size, scan_wal, segment_path
from repro.errors import RecoveryError

__all__ = ["RecoveredState", "apply_record", "recover"]


def apply_record(record: dict, backend: Any) -> None:
    """Re-apply one WAL state mutation to ``backend`` (commits are no-ops)."""
    op = record.get("op")
    if op == "token":
        backend.dictionary.intern(record["t"])
    elif op == "profile_put":
        backend.profiles.put(decode_profile(record["p"], backend.dictionary))
    elif op == "profile_remove":
        backend.profiles.remove(decode_id(record["eid"]))
    elif op == "block_add":
        backend.blocks.add(record["k"], decode_id(record["eid"]))
    elif op == "block_remove":
        backend.blocks.remove_block(record["k"])
    elif op == "block_discard":
        backend.blocks.discard(record["k"], decode_id(record["eid"]))
    elif op == "blacklist_add":
        backend.blacklist.add(record["k"])
    elif op == "match_add":
        backend.matches.add(decode_match(record["m"]))
    elif op == "commit":
        pass  # sequencing is validated by the recover() loop
    else:
        raise RecoveryError(f"WAL record with unknown op {op!r}: {record!r}")


@dataclass
class RecoveredState:
    """Everything :func:`recover` reconstructed from a durable run directory."""

    backend: Any
    entities_processed: int
    epoch: int  # epoch of the live (final) WAL segment
    segments_replayed: int
    records_replayed: int
    records_discarded: int  # post-last-commit tail of the final segment
    records_skipped: int  # duplicate commit batches dropped during replay
    torn_tail: bool
    resume_segment: Path
    resume_offset: int  # truncate-and-append point for the resumed writer
    next_seq: int


def recover(wal_dir: str | Path, strict: bool = True) -> RecoveredState:
    """Rebuild the last crash-consistent state from ``wal_dir``."""
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        raise RecoveryError(f"durable run directory {wal_dir} does not exist")

    from repro.core.backends.memory import InMemoryBackend

    backend = InMemoryBackend()
    entities_processed = 0
    next_seq = 0
    snapshot_epoch = 0
    snapshot_errors: list[str] = []
    for epoch, path in reversed(list_snapshots(wal_dir)):
        try:
            document = load_snapshot(path)
        except RecoveryError as exc:
            snapshot_errors.append(str(exc))
            continue
        entities_processed = apply_state_document(document, backend)
        next_seq = int(document.get("next_seq", 0))
        snapshot_epoch = epoch
        break
    else:
        if snapshot_errors:
            # No snapshot verified; recovery falls back to full-log replay
            # from epoch 0, which only works if that segment still exists.
            if not segment_path(wal_dir, 0).exists():
                raise RecoveryError(
                    "no snapshot verified and the epoch-0 WAL segment is "
                    "gone: " + "; ".join(snapshot_errors)
                )

    segments = sorted(
        int(p.stem.removeprefix("wal-"))
        for p in wal_dir.glob("wal-*.log")
        if p.stem.removeprefix("wal-").isdigit()
    )
    chain = [epoch for epoch in segments if epoch >= snapshot_epoch]
    if not chain:
        raise RecoveryError(
            f"{wal_dir} has no WAL segment at or after snapshot epoch "
            f"{snapshot_epoch}"
        )
    expected_chain = list(range(chain[0], chain[0] + len(chain)))
    if chain != expected_chain or chain[0] != snapshot_epoch:
        raise RecoveryError(
            f"broken WAL segment chain in {wal_dir}: snapshot epoch "
            f"{snapshot_epoch}, segments {chain}"
        )

    records_replayed = 0
    records_discarded = 0
    records_skipped = 0
    pending: list[dict] = []  # mutations awaiting their commit record
    torn = False
    resume_segment = segment_path(wal_dir, chain[-1])
    resume_offset = header_size()
    for position, epoch in enumerate(chain):
        final = position == len(chain) - 1
        scan = scan_wal(segment_path(wal_dir, epoch), strict=strict)
        if scan.epoch != epoch:
            raise RecoveryError(
                f"{scan.path} carries epoch {scan.epoch} in its header but "
                f"is named for epoch {epoch}"
            )
        if scan.torn_tail and not final:
            # Checkpointing fsyncs a segment before opening its successor,
            # so damage before the final segment is lost data, not a torn
            # write-in-progress.
            raise RecoveryError(
                f"non-final WAL segment {scan.path.name} is damaged "
                f"({scan.tail_error}); committed records are unrecoverable"
            )
        # Clamp the final segment to its last commit: later records belong
        # to the entity that was mid-flight when the process died.
        last_commit = -1
        for index, record in enumerate(scan.records):
            if record.get("op") == "commit":
                last_commit = index
        cutoff = len(scan.records) if not final else last_commit + 1
        for record in scan.records[:cutoff]:
            if record.get("op") != "commit":
                pending.append(record)
                continue
            seq = int(record["seq"])
            if seq < next_seq:
                # A duplicate commit: its buffered batch re-states
                # mutations already applied, and block_add is not
                # idempotent — drop the whole batch, not just the marker.
                records_skipped += len(pending) + 1
                pending.clear()
                continue
            if seq > next_seq:
                raise RecoveryError(
                    f"commit sequence gap in {scan.path.name}: expected "
                    f"{next_seq}, found {seq} — a committed entity is "
                    f"missing from the log"
                )
            for buffered in pending:
                apply_record(buffered, backend)
            records_replayed += len(pending) + 1
            pending.clear()
            next_seq = seq + 1
            entities_processed = int(record.get("n", entities_processed))
        if final:
            records_discarded = len(scan.records) - cutoff
            torn = scan.torn_tail
            resume_segment = scan.path
            if cutoff:
                next_start = (
                    scan.offsets[cutoff]
                    if cutoff < len(scan.offsets)
                    else scan.valid_bytes
                )
                resume_offset = next_start
            else:
                resume_offset = header_size()
    return RecoveredState(
        backend=backend,
        entities_processed=entities_processed,
        epoch=chain[-1],
        segments_replayed=len(chain),
        records_replayed=records_replayed,
        records_discarded=records_discarded,
        records_skipped=records_skipped,
        torn_tail=torn,
        resume_segment=resume_segment,
        resume_offset=resume_offset,
        next_seq=next_seq,
    )

