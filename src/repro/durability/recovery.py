"""Crash recovery: newest snapshot, then re-run the logged input.

The procedure (see ``docs/durability.md``):

1. Load the newest snapshot whose integrity hash verifies, falling back
   to older ones (snapshot publication is atomic, but recovery does not
   *assume* it); no snapshot means replay from the empty state at
   epoch 0.
2. Read every WAL segment from the snapshot's epoch forward, in epoch
   order.  The chain must be gap-free — a missing middle segment is
   unrecoverable data loss, not a torn tail.  A torn tail of the final
   segment is clamped; only the admission whose ``input`` record it held
   is lost, and the caller re-feeds it.
3. Run every logged entity through ``PipelinePlan.from_config(config)``
   compiled against the recovered backend, in log order.  A
   ``dead_letter`` record stops its entity before the named stage.  A
   stage that raises is caught, as the live run's supervision or
   ``on_error`` caught it: stages are deterministic in their input and
   the state, so the entity fails at the same point again.

Snapshots are taken only between admissions, so every entity logged after
one is an entity the snapshot does not contain.  Resume then truncates
the final segment at the clamp offset and appends from there — the torn
record never survives a successful resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.durability.codec import decode_entity, decode_id
from repro.durability.snapshot import (
    apply_state_document,
    list_snapshots,
    load_snapshot,
)
from repro.durability.wal import scan_wal, segment_path
from repro.errors import RecoveryError

__all__ = ["RecoveredState", "recover"]


@dataclass
class RecoveredState:
    """Everything :func:`recover` reconstructed from a durable run directory."""

    backend: Any
    entities_processed: int  # the snapshot's count + every logged entity
    entities_replayed: int  # logged after the snapshot, re-run by recovery
    entities_failed: int  # re-run entities a stage raised on, as it did live
    epoch: int  # epoch of the live (final) WAL segment
    records_replayed: int
    torn_tail: bool
    resume_offset: int  # truncate-and-append point in the final segment


def recover(wal_dir: str | Path, config: Any, upto: int | None = None) -> RecoveredState:
    """Rebuild the state of the durable run in ``wal_dir`` under ``config``.

    ``upto`` stops the replay once that many entities of the whole run
    have been re-run (the ``durability-replay-digest`` invariant compares
    a live run caught mid-admission); ``None`` replays the whole log.
    """
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        raise RecoveryError(f"durable run directory {wal_dir} does not exist")

    from repro.core.backends.memory import InMemoryBackend
    from repro.core.plan import PipelinePlan

    backend = InMemoryBackend()
    snapshot_entities = 0
    snapshot_epoch = 0
    snapshot_errors: list[str] = []
    for epoch, path in reversed(list_snapshots(wal_dir)):
        try:
            document = load_snapshot(path)
        except RecoveryError as exc:
            snapshot_errors.append(str(exc))
            continue
        snapshot_entities = apply_state_document(document, backend)
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
    if chain != list(range(snapshot_epoch, snapshot_epoch + len(chain))):
        raise RecoveryError(
            f"broken WAL segment chain in {wal_dir}: snapshot epoch "
            f"{snapshot_epoch}, segments {chain}"
        )

    entities: list = []  # logged after the snapshot, in log order
    letters: dict[int, str] = {}  # log position -> stage the entity stopped before
    records = 0
    for epoch in chain:
        scan = scan_wal(segment_path(wal_dir, epoch))
        if scan.epoch != epoch:
            raise RecoveryError(
                f"{scan.path} carries epoch {scan.epoch} in its header but "
                f"is named for epoch {epoch}"
            )
        if scan.torn_tail and epoch != chain[-1]:
            # Checkpointing fsyncs a segment before opening its successor,
            # so damage before the final segment is lost data, not a torn
            # write-in-progress.
            raise RecoveryError(
                f"non-final WAL segment {scan.path.name} is damaged "
                f"({scan.tail_error}); logged records are unrecoverable"
            )
        records += len(scan.records)
        for record in scan.records:
            op = record.get("op")
            if op == "input":
                entities.extend(map(decode_entity, record["entities"]))
            elif op == "dead_letter":
                at = int(record["at"]) - snapshot_entities
                eid = decode_id(record["eid"])
                if not 0 <= at < len(entities) or entities[at].eid != eid:
                    raise RecoveryError(
                        f"dead letter for entity {eid!r} at log position "
                        f"{record['at']} in {scan.path.name} names no entity "
                        f"logged there"
                    )
                letters[at] = record["stage"]
            else:
                raise RecoveryError(f"WAL record with unknown op {op!r}: {record!r}")

    stages = PipelinePlan.from_config(config).compile(backend).ordered()
    limit = len(entities) if upto is None else max(0, upto - snapshot_entities)
    failed = 0
    for position, entity in enumerate(entities[:limit]):
        stop = letters.get(position)
        message: object = entity
        try:
            for name, stage in stages:
                if name == stop:
                    break
                message = stage(message)
        except Exception:  # the live run caught it too
            failed += 1
    return RecoveredState(
        backend=backend,
        entities_processed=snapshot_entities + len(entities),
        entities_replayed=min(limit, len(entities)),
        entities_failed=failed,
        epoch=chain[-1],
        records_replayed=records,
        torn_tail=scan.torn_tail,
        resume_offset=scan.valid_bytes,
    )
