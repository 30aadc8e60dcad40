"""Durable ER state: write-ahead log, checkpoints, crash-consistent resume.

The paper's §III-A allows the initial state σ₁ to be seeded from a prior
resolution run; this package makes that survivable: the input each
executor admits is appended to a length-prefixed, checksummed write-ahead
log before it runs (command logging), periodic snapshot checkpoints bound
replay time, and :func:`recover` (behind ``DurableBackend.open(...,
resume=True)``) rebuilds the pre-crash state from disk by re-running the
logged input through the same plan.

Layout of a durable run directory (``wal_dir``)::

    meta.json                 config fingerprint + format version
    wal-00000000.log          records since the start (epoch 0)
    snapshot-00000001.json    checkpoint 1 (atomic rename, fsynced)
    wal-00000001.log          records since checkpoint 1
    ...

The correctness story: resume-after-crash is just another increment cut
of the incremental fold, so the ``resume-equals-uninterrupted``
metamorphic relation (``repro-er check``) and the crash-injection sweep
in ``tests/durability`` verify bit-identical match sets for crashes at
any seeded WAL offset, including torn mid-record writes.  See
``docs/durability.md`` for the record format, snapshot schema, recovery
procedure and fsync guarantees.
"""

from repro.durability.codec import state_digest
from repro.durability.recovery import RecoveredState, recover
from repro.durability.snapshot import (
    load_snapshot,
    snapshot_path,
    state_document,
    write_snapshot,
)
from repro.durability.wal import (
    CrashPoint,
    WalScan,
    WalWriter,
    scan_wal,
    segment_path,
)

__all__ = [
    "CrashPoint",
    "RecoveredState",
    "WalScan",
    "WalWriter",
    "load_snapshot",
    "recover",
    "scan_wal",
    "segment_path",
    "snapshot_path",
    "state_digest",
    "state_document",
    "write_snapshot",
]
