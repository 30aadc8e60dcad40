"""Exception hierarchy for the repro framework."""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all framework errors."""


class ConfigurationError(ReproError):
    """A pipeline or algorithm was configured with invalid parameters."""


class UnknownProfileError(ReproError):
    """A comparison referenced an entity whose profile was never registered."""


class PipelineStoppedError(ReproError):
    """An operation was attempted on a parallel pipeline that has shut down.

    Also raised when ``close()``/``join()`` are given a timeout and the
    pipeline fails to drain in time; the message then carries a per-stage
    liveness report (see ``ParallelERPipeline.liveness_report``).
    """


class InjectedFault(ReproError):
    """A synthetic failure raised by the fault-injection harness.

    Only :class:`repro.parallel.faults.FaultInjector` raises this; seeing it
    outside a fault-injection run means an injector leaked into production
    wiring.
    """


class DatasetError(ReproError):
    """A dataset definition or generator received inconsistent arguments."""


class WalCorruptionError(ReproError):
    """A write-ahead log record failed its length/checksum validation.

    Raised for corruption *inside* the log body (a damaged record with
    valid records after it) — that is data loss, never a torn tail, and
    recovery refuses to silently drop logged records.  A damaged
    *final* record is classified as a torn tail instead and clamped to
    the last consistent prefix (see ``docs/durability.md``).
    """


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent state.

    Covers a missing WAL segment chain, a dead letter naming no logged
    entity, or a configuration fingerprint mismatch between the durable
    run on disk and the pipeline trying to resume it.
    """


class SimulatedCrash(ReproError):
    """The crash-injection harness killed the run at a seeded WAL point.

    Only raised by an armed :class:`repro.durability.wal.CrashPoint`; the
    writer is dead afterwards (every further append re-raises), modelling
    a ``kill -9`` mid-write.  Seeing it outside a crash-injection test
    means a crash point leaked into production wiring.
    """


class InvariantViolation(ReproError):
    """A runtime invariant over pipeline state or stage output was violated.

    Raised (or recorded, in deferred mode) by
    :class:`repro.invariants.InvariantChecker`.  ``invariant`` names the
    violated invariant in the central registry; ``detail`` says what was
    observed.  Seeing this outside an invariant-checked run means state
    drifted in a way the O(1) counters and store contracts forbid.
    """

    def __init__(self, invariant: str, detail: str) -> None:
        super().__init__(f"invariant {invariant!r} violated: {detail}")
        self.invariant = invariant
        self.detail = detail
