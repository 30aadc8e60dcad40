"""`DurableBackend`: WAL + checkpoint durability as a backend decorator.

Durability is layered *under* the :class:`StateBackend` seam rather than
into any executor: ``DurableBackend`` wraps an
:class:`~repro.core.backends.InMemoryBackend` (or a
:class:`~repro.core.backends.SharedMemoryBackend` — the store proxies are
duck-typed) and replaces each mutable store with a
logging proxy that appends a WAL record before applying the mutation.
Stages receive the proxies through plan compilation exactly as they
would receive the bare stores, so no stage knows durability exists.

The unit of crash consistency is the *entity*: the compiled plan's
per-stage callable for the classification stage calls
:meth:`DurableBackend.commit_entity` after each entity leaves the
pipeline (inside the stage's timed region, before its invariant check),
appending a sequenced ``commit`` record (and, under the
default ``fsync="commit"`` policy, fsyncing the log).  Recovery replays
up to the last commit; an entity whose commit never hit the log is
re-fed by the caller.  This guarantee is exact for the sequential
executor; concurrent executors interleave entity mutations before their
commits, so for them replay-to-last-commit is best-effort (see
``docs/durability.md``).

Checkpoints bound replay: every ``checkpoint_every`` committed entities
the backend snapshots the full state (atomic rename, monotonic epoch),
rolls the WAL to a fresh segment, and prunes segments older than the
retained snapshots.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.core.backends.memory import InMemoryBackend
from repro.core.state import ERState
from repro.durability.codec import encode_id, encode_match, encode_profile
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

__all__ = [
    "DurabilityConfig",
    "DurableBackend",
    "config_fingerprint",
]

META_FILE = "meta.json"
META_FORMAT = "repro-er-durable"
META_VERSION = 1


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


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs of a durable run directory.

    ``checkpoint_every`` counts committed entities between snapshots
    (0 disables checkpointing — the epoch-0 WAL grows unbounded);
    ``fsync`` is the :class:`~repro.durability.wal.WalWriter` policy;
    ``keep_snapshots`` bounds retention — older snapshots and the WAL
    segments only they need are deleted after each checkpoint.
    """

    wal_dir: str | Path
    checkpoint_every: int = 0
    fsync: str = "commit"
    keep_snapshots: int = 2

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every cannot be negative")
        if self.keep_snapshots < 1:
            raise ConfigurationError("keep_snapshots must be at least 1")


class _LoggedBlocks:
    """Block-collection proxy: journals every mutation, delegates reads."""

    __slots__ = ("inner", "_journal")

    def __init__(self, inner: Any, journal: Callable[[dict], None]) -> None:
        self.inner = inner
        self._journal = journal

    def add(self, key: str, eid: Any) -> int:
        self._journal({"op": "block_add", "k": key, "eid": encode_id(eid)})
        return self.inner.add(key, eid)

    def remove_block(self, key: str) -> None:
        self._journal({"op": "block_remove", "k": key})
        self.inner.remove_block(key)

    def discard(self, key: str, eid: Any) -> bool:
        self._journal({"op": "block_discard", "k": key, "eid": encode_id(eid)})
        return self.inner.discard(key, eid)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)


class _LoggedBlacklist:
    __slots__ = ("inner", "_journal")

    def __init__(self, inner: Any, journal: Callable[[dict], None]) -> None:
        self.inner = inner
        self._journal = journal

    def add(self, key: str) -> None:
        self._journal({"op": "blacklist_add", "k": key})
        self.inner.add(key)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)


class _LoggedProfiles:
    __slots__ = ("inner", "_journal")

    def __init__(self, inner: Any, journal: Callable[[dict], None]) -> None:
        self.inner = inner
        self._journal = journal

    def put(self, profile: Any) -> None:
        self._journal({"op": "profile_put", "p": encode_profile(profile)})
        self.inner.put(profile)

    def remove(self, eid: Any) -> bool:
        self._journal({"op": "profile_remove", "eid": encode_id(eid)})
        return self.inner.remove(eid)

    def __contains__(self, eid: Any) -> bool:
        return eid in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)


class _LoggedMatches:
    __slots__ = ("inner", "_journal")

    def __init__(self, inner: Any, journal: Callable[[dict], None]) -> None:
        self.inner = inner
        self._journal = journal

    def add(self, match: Any) -> bool:
        self._journal({"op": "match_add", "m": encode_match(match)})
        return self.inner.add(match)

    def __contains__(self, pair: Any) -> bool:
        return pair in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)


class _LoggedDictionary:
    """Token-dictionary proxy: journals each *first* assignment, in order.

    The lock spans (lookup, intern, journal) so under concurrent ``f_dr``
    workers exactly one ``token`` record is written per distinct token,
    in the order ids were actually assigned — replaying the records in
    log order reproduces the id space bit for bit.
    """

    __slots__ = ("inner", "_journal", "_lock")

    def __init__(self, inner: Any, journal: Callable[[dict], None]) -> None:
        self.inner = inner
        self._journal = journal
        self._lock = threading.Lock()

    def intern(self, token: str) -> int:
        tid = self.inner.lookup(token)
        if tid is not None:
            return tid
        with self._lock:
            tid = self.inner.lookup(token)
            if tid is not None:
                return tid
            self._journal({"op": "token", "t": token})
            return self.inner.intern(token)

    def intern_set(self, tokens: Any) -> frozenset[int]:
        return frozenset(self.intern(token) for token in tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)


class DurableBackend:
    """A :class:`StateBackend` decorator that makes every mutation durable.

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
        config: DurabilityConfig,
        fingerprint: dict,
        registry: MetricsRegistry | None = None,
        crash_point: CrashPoint | None = None,
        _recovered: RecoveredState | None = None,
    ) -> None:
        self.inner = inner
        self.config = config
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.crash_point = crash_point
        self.wal_dir = Path(config.wal_dir)
        self._commit_lock = threading.Lock()
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
            self.wal_dir.mkdir(parents=True, exist_ok=True)
            if (self.wal_dir / META_FILE).exists():
                raise ConfigurationError(
                    f"{self.wal_dir} already holds a durable run; resume it "
                    f"(repro-er resume) or point wal_dir at a fresh directory"
                )
            self.epoch = 0
            self.next_seq = 0
            self.entities_committed = 0
            self._write_meta(fingerprint)
            self._writer = WalWriter(
                segment_path(self.wal_dir, 0),
                epoch=0,
                fsync=config.fsync,
                crash_point=crash_point,
            )
        else:
            self._verify_meta(fingerprint)
            self.epoch = _recovered.epoch
            self.next_seq = _recovered.next_seq
            self.entities_committed = _recovered.entities_processed
            self._writer = WalWriter(
                _recovered.resume_segment,
                epoch=_recovered.epoch,
                fsync=config.fsync,
                crash_point=crash_point,
                resume_offset=_recovered.resume_offset,
            )
        if self._metrics_on:
            self._epoch_metric.set(self.epoch)
        journal = self._append
        self.blocks = _LoggedBlocks(inner.blocks, journal)
        self.blacklist = _LoggedBlacklist(inner.blacklist, journal)
        self.profiles = _LoggedProfiles(inner.profiles, journal)
        self.matches = _LoggedMatches(inner.matches, journal)
        self.dictionary = _LoggedDictionary(inner.dictionary, journal)

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
        ``config``'s fingerprint in ``meta.json``.  ``resume=True`` runs
        :func:`~repro.durability.recovery.recover`, verifies the
        fingerprint, truncates the recovered segment at the replay clamp
        point and appends from there, so the torn/uncommitted tail is
        physically gone after the first new record; ``entities_committed``
        is the recovered count, and entities past it must be re-fed.
        Recovery always rebuilds in memory, so ``inner`` is refused on
        resume.  ``checkpoint_every`` counts committed entities between
        snapshots (0 = never); ``fsync`` is ``"always"``, ``"commit"`` or
        ``"never"``.
        """
        durability = DurabilityConfig(
            wal_dir=wal_dir, checkpoint_every=checkpoint_every, fsync=fsync
        )
        fingerprint = config_fingerprint(config)
        recovered = None
        if resume:
            if inner is not None:
                raise ConfigurationError(
                    "resume rebuilds the state in memory from the WAL; "
                    "it cannot resume into a caller's backend (inner=...)"
                )
            recovered = recover(wal_dir)
            inner = recovered.backend
        elif inner is None:
            inner = InMemoryBackend()
        return cls(
            inner,
            durability,
            fingerprint,
            registry=registry,
            crash_point=crash_point,
            _recovered=recovered,
        )

    # -- metadata ------------------------------------------------------

    def _write_meta(self, fingerprint: dict) -> None:
        payload = json.dumps(
            {
                "format": META_FORMAT,
                "version": META_VERSION,
                "fingerprint": fingerprint,
            },
            indent=2,
            sort_keys=True,
        )
        path = self.wal_dir / META_FILE
        with path.open("w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    def _verify_meta(self, fingerprint: dict) -> None:
        path = self.wal_dir / META_FILE
        try:
            meta = json.loads(path.read_text("utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RecoveryError(f"cannot read {path}: {exc}") from exc
        if meta.get("format") != META_FORMAT:
            raise RecoveryError(f"{path} is not a repro durable-run descriptor")
        stored = meta.get("fingerprint") or {}
        if stored != fingerprint:
            diff = {
                key: (stored.get(key), fingerprint.get(key))
                for key in sorted(set(stored) | set(fingerprint))
                if stored.get(key) != fingerprint.get(key)
            }
            raise RecoveryError(
                f"configuration fingerprint mismatch for {self.wal_dir}: "
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

    def _append(self, record: dict) -> None:
        writer = self._writer
        bytes_before = writer.bytes_written
        syncs_before = writer.syncs
        writer.append(record)
        if self._metrics_on:
            self._records_metric.inc()
            self._bytes_metric.inc(writer.bytes_written - bytes_before)
            if writer.syncs > syncs_before:
                self._syncs_metric.inc(writer.syncs - syncs_before)

    def commit_entity(self, eid: Any) -> None:
        """Mark one entity fully processed: the crash-consistency boundary."""
        with self._commit_lock:
            seq = self.next_seq
            self.next_seq += 1
            self.entities_committed += 1
            self._append(
                {
                    "op": "commit",
                    "seq": seq,
                    "eid": encode_id(eid),
                    "n": self.entities_committed,
                }
            )
            if self.config.fsync == "commit":
                self._sync()
            every = self.config.checkpoint_every
            if every and self.entities_committed % every == 0:
                self.checkpoint()

    def _sync(self) -> None:
        before = self._writer.syncs
        self._writer.sync()
        if self._metrics_on and self._writer.syncs > before:
            self._syncs_metric.inc(self._writer.syncs - before)

    # -- checkpointing -------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot the full state, roll the WAL, prune old artifacts."""
        start = time.perf_counter()
        self._sync()
        new_epoch = self.epoch + 1
        document = state_document(
            self.inner,
            entities_processed=self.entities_committed,
            epoch=new_epoch,
            next_seq=self.next_seq,
        )
        path = write_snapshot(snapshot_path(self.wal_dir, new_epoch), document)
        records_seen = self._writer.records_seen
        self._writer.close()
        self._writer = WalWriter(
            segment_path(self.wal_dir, new_epoch),
            epoch=new_epoch,
            fsync=self.config.fsync,
            crash_point=self.crash_point,
            records_before=records_seen,
        )
        self.epoch = new_epoch
        self._prune()
        if self._metrics_on:
            self._checkpoints_metric.inc()
            self._checkpoint_seconds.observe(time.perf_counter() - start)
            self._epoch_metric.set(new_epoch)
        return path

    def _prune(self) -> None:
        """Drop snapshots beyond retention and the segments only they need."""
        snapshots = list_snapshots(self.wal_dir)
        if len(snapshots) <= self.config.keep_snapshots:
            return
        cut = len(snapshots) - self.config.keep_snapshots
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

    def state(self) -> ERState:
        # Hand out the *proxies*, so anything reaching state through this
        # view (windowed eviction, invariant checks) stays journaled.
        return ERState(
            blocks=self.blocks,
            blacklist=self.blacklist,
            profiles=self.profiles,
            matches=self.matches,
        )

    def __getattr__(self, attr: str):
        return getattr(self.inner, attr)

