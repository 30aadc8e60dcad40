"""`DurableBackend`: command log + checkpoint durability as a backend decorator.

Durability is layered *under* the :class:`StateBackend` seam rather than
into any stage: ``DurableBackend`` wraps an
:class:`~repro.core.backends.InMemoryBackend` (or a
:class:`~repro.core.backends.SharedMemoryBackend`) and hands the stages
its stores unchanged.  What it logs is the *input* (command logging):
every executor appends the entity descriptions of one admission —
:meth:`DurableBackend.log_input` — before any of them runs, and each
entity a supervisor gives up on — :meth:`DurableBackend.log_dead_letter`.
The pipeline is a deterministic fold over that input, so recovery re-runs
the logged entities through the same plan instead of re-applying state
mutations, and the guarantee is the same under every executor.

Checkpoints bound replay: once ``checkpoint_every`` entities have been
admitted since the last snapshot, :meth:`DurableBackend.checkpoint_if_due`
— called by the executors between admissions, where the state is
quiescent — snapshots the full state (atomic rename, monotonic epoch),
rolls the WAL to a fresh segment, and prunes segments older than the
retained snapshots.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable

from repro.core.backends.memory import InMemoryBackend
from repro.durability.codec import encode_entity, encode_id
from repro.durability.recovery import RecoveredState, recover
from repro.durability.snapshot import (
    list_snapshots,
    snapshot_path,
    state_document,
    write_snapshot,
)
from repro.durability.wal import CrashPoint, WalWriter, segment_path
from repro.errors import ConfigurationError, RecoveryError
from repro.observability.instrument import (
    CHECKPOINT_EPOCH,
    CHECKPOINT_SECONDS,
    CHECKPOINTS,
    WAL_BYTES,
    WAL_RECORDS,
    WAL_SYNCS,
    declare_durability_metrics,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.types import EntityDescription, EntityId

__all__ = [
    "DurableBackend",
    "config_fingerprint",
]

META_FILE = "meta.json"
META_FORMAT = "repro-er-durable"
META_VERSION = 1
#: Snapshots retained after a checkpoint; older ones and the WAL segments
#: only they need are deleted.
KEEP_SNAPSHOTS = 2


def config_fingerprint(config: Any) -> dict:
    """The resolution-relevant parameters a durable run is pinned to.

    Resuming under a different configuration would silently change the
    semantics of the replayed fold, so the fingerprint is written to
    ``meta.json`` at run start and verified on resume.  Duck-typed so a
    bare dict (e.g. from a loaded ``meta.json``) works too.
    """
    if isinstance(config, dict):
        return dict(config)
    classifier = getattr(config, "classifier", None)
    comparator = getattr(config, "comparator", None)
    return {
        "alpha": getattr(config, "alpha", None),
        "beta": getattr(config, "beta", None),
        "enable_block_cleaning": getattr(config, "enable_block_cleaning", None),
        "enable_comparison_cleaning": getattr(
            config, "enable_comparison_cleaning", None
        ),
        "clean_clean": getattr(config, "clean_clean", None),
        "threshold": getattr(classifier, "threshold", None),
        "comparator": type(comparator).__name__ if comparator is not None else None,
    }


class DurableBackend:
    """A :class:`StateBackend` decorator that logs what the executors admit.

    Build one with :meth:`open` — fresh (the run directory must not
    already hold a durable run) or resumed from a crash.  The resolution
    configuration's fingerprint is pinned in ``meta.json`` by a fresh
    run and verified on resume; a mismatch refuses to run.
    ``crash_point`` arms the crash-injection hook on the WAL writer —
    test harness only.
    """

    def __init__(
        self,
        inner: Any,
        wal_dir: str | Path,
        checkpoint_every: int = 0,
        fsync: str = "commit",
        registry: MetricsRegistry | None = None,
        crash_point: CrashPoint | None = None,
        _recovered: RecoveredState | None = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every cannot be negative")
        self.inner = inner
        self.blocks = inner.blocks
        self.blacklist = inner.blacklist
        self.profiles = inner.profiles
        self.matches = inner.matches
        self.dictionary = inner.dictionary
        self.wal_dir = Path(wal_dir)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.crash_point = crash_point
        self._metrics_on = self.registry.enabled
        if self._metrics_on:
            declare_durability_metrics(self.registry)
            self._records_metric = self.registry.counter(WAL_RECORDS)
            self._bytes_metric = self.registry.counter(WAL_BYTES)
            self._syncs_metric = self.registry.counter(WAL_SYNCS)
            self._checkpoints_metric = self.registry.counter(CHECKPOINTS)
            self._checkpoint_seconds = self.registry.histogram(CHECKPOINT_SECONDS)
            self._epoch_metric = self.registry.gauge(CHECKPOINT_EPOCH)
        if _recovered is None:
            self.epoch = 0
            #: Entities in complete ``input`` records: the log position the
            #: next admitted entity takes.
            self.entities_logged = 0
            self._since_checkpoint = 0
            resume_offset = None
        else:
            self.epoch = _recovered.epoch
            self.entities_logged = _recovered.entities_processed
            self._since_checkpoint = _recovered.entities_replayed
            resume_offset = _recovered.resume_offset
        self._writer = WalWriter(
            segment_path(self.wal_dir, self.epoch),
            epoch=self.epoch,
            fsync=fsync,
            crash_point=crash_point,
            resume_offset=resume_offset,
        )
        if self._metrics_on:
            self._epoch_metric.set(self.epoch)

    @classmethod
    def open(
        cls,
        wal_dir: str | Path,
        config: Any,
        *,
        inner: Any = None,
        resume: bool = False,
        checkpoint_every: int = 0,
        fsync: str = "commit",
        registry: MetricsRegistry | None = None,
        crash_point: CrashPoint | None = None,
    ) -> "DurableBackend":
        """Durable state for a run of ``config`` under ``wal_dir``.

        Fresh (``resume=False``): wraps ``inner`` (default a new
        :class:`~repro.core.backends.InMemoryBackend`) and pins
        ``config``'s fingerprint in ``meta.json``.  ``resume=True``
        verifies the fingerprint, runs
        :func:`~repro.durability.recovery.recover` under ``config``,
        truncates the final segment at its torn tail (if any) and appends
        from there; ``entities_logged`` is the recovered count, and inputs
        past it must be re-fed.  Recovery always rebuilds in memory, so
        ``inner`` is refused on resume.  ``checkpoint_every`` counts
        admitted entities between snapshots (0 = never); ``fsync`` is
        ``"always"``, ``"commit"`` or ``"never"``.
        """
        wal_dir = Path(wal_dir)
        fingerprint = config_fingerprint(config)
        recovered = None
        if resume:
            if inner is not None:
                raise ConfigurationError(
                    "resume rebuilds the state in memory from the WAL; "
                    "it cannot resume into a caller's backend (inner=...)"
                )
            cls._verify_meta(wal_dir, fingerprint)
            recovered = recover(wal_dir, config)
            inner = recovered.backend
        else:
            wal_dir.mkdir(parents=True, exist_ok=True)
            if (wal_dir / META_FILE).exists():
                raise ConfigurationError(
                    f"{wal_dir} already holds a durable run; resume it "
                    f"(repro-er resume) or point wal_dir at a fresh directory"
                )
            cls._write_meta(wal_dir, fingerprint)
            if inner is None:
                inner = InMemoryBackend()
        return cls(
            inner,
            wal_dir,
            checkpoint_every=checkpoint_every,
            fsync=fsync,
            registry=registry,
            crash_point=crash_point,
            _recovered=recovered,
        )

    # -- metadata ------------------------------------------------------

    @staticmethod
    def _write_meta(wal_dir: Path, fingerprint: dict) -> None:
        payload = json.dumps(
            {
                "format": META_FORMAT,
                "version": META_VERSION,
                "fingerprint": fingerprint,
            },
            indent=2,
            sort_keys=True,
        )
        with (wal_dir / META_FILE).open("w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    @classmethod
    def _verify_meta(cls, wal_dir: Path, fingerprint: dict) -> None:
        stored = cls.stored_fingerprint(wal_dir)
        if stored != fingerprint:
            diff = {
                key: (stored.get(key), fingerprint.get(key))
                for key in sorted(set(stored) | set(fingerprint))
                if stored.get(key) != fingerprint.get(key)
            }
            raise RecoveryError(
                f"configuration fingerprint mismatch for {wal_dir}: "
                f"{diff} (stored vs resuming) — resuming under different "
                f"parameters would change resolution semantics"
            )

    @staticmethod
    def stored_fingerprint(wal_dir: str | Path) -> dict:
        """The fingerprint a durable run was started with (for CLI resume)."""
        path = Path(wal_dir) / META_FILE
        try:
            meta = json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RecoveryError(f"cannot read {path}: {exc}") from exc
        if meta.get("format") != META_FORMAT:
            raise RecoveryError(f"{path} is not a repro durable-run descriptor")
        return meta.get("fingerprint") or {}

    # -- logging -------------------------------------------------------

    @property
    def wal_records_seen(self) -> int:
        """Append attempts over the whole run (crash-point index space)."""
        return self._writer.records_seen

    def log_input(self, entities: Iterable[EntityDescription]) -> int:
        """Log one admission before any of its entities runs; returns the
        log position of its first entity (positions count entities over
        the whole run)."""
        encoded = [encode_entity(entity) for entity in entities]
        position = self.entities_logged
        if not encoded:
            return position
        self._append({"op": "input", "entities": encoded})
        self.entities_logged += len(encoded)
        self._since_checkpoint += len(encoded)
        return position

    def log_dead_letter(self, position: int, eid: EntityId, stage: str) -> None:
        """Log that the entity at ``position`` was given up before ``stage``
        (``"pipeline"``: the sequential pipeline caught its failure)."""
        self._append(
            {"op": "dead_letter", "at": position, "eid": encode_id(eid), "stage": stage}
        )

    def _append(self, record: dict) -> None:
        writer = self._writer
        bytes_before = writer.bytes_written
        syncs_before = writer.syncs
        writer.append(record)
        if self.fsync == "commit":
            writer.sync()
        if self._metrics_on:
            self._records_metric.inc()
            self._bytes_metric.inc(writer.bytes_written - bytes_before)
            if writer.syncs > syncs_before:
                self._syncs_metric.inc(writer.syncs - syncs_before)

    # -- checkpointing -------------------------------------------------

    def checkpoint_if_due(self) -> None:
        """Snapshot once ``checkpoint_every`` entities have been admitted
        since the last one.  Executors call it between admissions, where
        the state is quiescent."""
        if self.checkpoint_every and self._since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> Path:
        """Snapshot the full state, roll the WAL, prune old artifacts."""
        start = time.perf_counter()
        new_epoch = self.epoch + 1
        document = state_document(
            self.inner, entities_processed=self.entities_logged, epoch=new_epoch
        )
        path = write_snapshot(snapshot_path(self.wal_dir, new_epoch), document)
        records_seen = self._writer.records_seen
        self._writer.close()  # fsyncs the segment before its successor opens
        self._writer = WalWriter(
            segment_path(self.wal_dir, new_epoch),
            epoch=new_epoch,
            fsync=self.fsync,
            crash_point=self.crash_point,
            records_before=records_seen,
        )
        self.epoch = new_epoch
        self._since_checkpoint = 0
        self._prune()
        if self._metrics_on:
            self._checkpoints_metric.inc()
            self._checkpoint_seconds.observe(time.perf_counter() - start)
            self._epoch_metric.set(new_epoch)
        return path

    def _prune(self) -> None:
        """Drop snapshots beyond retention and the segments only they need."""
        snapshots = list_snapshots(self.wal_dir)
        if len(snapshots) <= KEEP_SNAPSHOTS:
            return
        cut = len(snapshots) - KEEP_SNAPSHOTS
        oldest_kept = snapshots[cut][0]
        for epoch, path in snapshots[:cut]:
            path.unlink(missing_ok=True)
        for path in self.wal_dir.glob("wal-*.log"):
            stem = path.stem.removeprefix("wal-")
            if stem.isdigit() and int(stem) < oldest_kept:
                path.unlink(missing_ok=True)

    # -- lifecycle -----------------------------------------------------

    def flush(self) -> None:
        self._writer.flush()

    def close(self) -> None:
        """Fsync and close the live segment (the clean-shutdown path)."""
        self._writer.close()

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)
