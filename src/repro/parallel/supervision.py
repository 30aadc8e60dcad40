"""Stage supervision: retries, dead-letter routing, liveness reporting.

The paper's framework (Fig. 5) assumes every stage function returns; real
dynamic-data deployments see poison entities — malformed descriptions that
make a stage raise.  Without supervision one raising worker dies silently,
its pool never forwards the ``_STOP`` sentinels, and ``join()`` deadlocks.
The :class:`Supervisor` gives every worker a uniform failure protocol:

* each item is executed under the :class:`~repro.core.config.SupervisionPolicy`
  (bounded retries with exponential backoff, skipped for stages whose state
  mutation is not idempotent);
* items that exhaust their retry budget become :class:`~repro.types.DeadLetter`
  records in a thread-safe queue surfaced on the run result — the pipeline
  keeps flowing and the surviving items are unaffected;
* counters (retries performed, failures per stage) are exposed for
  monitoring snapshots.

The module is executor-agnostic: the thread framework, the multiprocess
executor, and the sequential pipeline's dead-letter mode all route failures
through the same records.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.core.config import SupervisionPolicy
from repro.observability.instrument import DEAD_LETTERS, RETRIES
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry
from repro.types import DeadLetter, EntityId


def extract_entity_id(payload: object) -> EntityId | None:
    """Best-effort entity identifier of any inter-stage message.

    Every message type of the pipeline either *is* the entity
    (``EntityDescription`` / ``Profile``, both carrying ``eid``) or wraps the
    anchoring profile (``BlockedEntity`` … ``ScoredComparisons``, carrying
    ``profile.eid``).  Unknown payloads yield ``None`` rather than raising —
    the supervisor must never fail while recording a failure.
    """
    eid = getattr(payload, "eid", None)
    if eid is not None:
        return eid
    profile = getattr(payload, "profile", None)
    if profile is not None:
        return getattr(profile, "eid", None)
    return None


class Supervisor:
    """Thread-safe failure collector shared by all workers of one pipeline.

    With an enabled metrics ``registry``, retries and dead letters are
    additionally counted into the shared metric vocabulary
    (``er_retries_total{stage}`` / ``er_dead_letters_total{stage}``), so
    every supervised executor reports failures the same way.
    """

    def __init__(
        self,
        policy: SupervisionPolicy | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy or SupervisionPolicy()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._lock = threading.Lock()
        self.dead_letters: list[DeadLetter] = []
        self.retries_by_stage: dict[str, int] = {}
        self.failures_by_stage: dict[str, int] = {}

    @property
    def retries_performed(self) -> int:
        return sum(self.retries_by_stage.values())

    @property
    def items_failed(self) -> int:
        return len(self.dead_letters)

    def record_retry(self, stage: str, count: int = 1) -> None:
        with self._lock:
            self.retries_by_stage[stage] = self.retries_by_stage.get(stage, 0) + count
        if self.registry.enabled:
            self.registry.counter(RETRIES, stage=stage).inc(count)

    def record_failure(
        self, stage: str, payload: object, error: BaseException, attempts: int
    ) -> DeadLetter:
        """Route one exhausted item to the dead-letter queue."""
        letter = DeadLetter(
            stage=stage,
            entity_id=extract_entity_id(payload),
            error=repr(error),
            attempts=attempts,
        )
        self._route(letter)
        return letter

    def _route(self, letter: DeadLetter) -> None:
        stage = letter.stage
        with self._lock:
            self.dead_letters.append(letter)
            self.failures_by_stage[stage] = self.failures_by_stage.get(stage, 0) + 1
        if self.registry.enabled:
            self.registry.counter(DEAD_LETTERS, stage=stage).inc()

    def absorb(self, dead_letters: list[DeadLetter], retries: dict[str, int]) -> None:
        """Fold in what another process's supervisor recorded.

        A pool worker runs its stage calls under its own ``Supervisor`` with
        this pipeline's policy and ships the outcome back as data
        (``dead_letters`` and ``retries_by_stage``); absorbing it makes the
        run result and the registry read as if the calls had run here.
        """
        for letter in dead_letters:
            self._route(letter)
        for stage, count in retries.items():
            self.record_retry(stage, count)

    def execute(
        self, stage: str, fn: Callable[[object], object], payload: object
    ) -> tuple[bool, object]:
        """Run ``fn(payload)`` under the policy.

        Returns ``(True, result)`` on (eventual) success, or
        ``(False, None)`` after the item was dead-lettered.  Never raises
        from a stage-function failure — that is the whole point.
        """
        retries_allowed = self.policy.retries_for(stage)
        attempt = 0
        while True:
            attempt += 1
            try:
                return True, fn(payload)
            except Exception as exc:
                if attempt <= retries_allowed:
                    self.record_retry(stage)
                    delay = self.policy.backoff_for(attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                self.record_failure(stage, payload, exc, attempt)
                return False, None


def format_liveness(report: dict[str, dict[str, int]]) -> str:
    """Render a per-stage liveness report into one diagnostic line per stage.

    ``report`` maps stage name → ``{"workers", "alive", "active", "queued"}``
    (see ``ParallelERPipeline.liveness_report``).  Used in the message of
    :class:`~repro.errors.PipelineStoppedError` when a timed ``join`` fires.
    """
    lines = []
    for stage, stats in report.items():
        lines.append(
            f"  {stage}: {stats['alive']}/{stats['workers']} threads alive, "
            f"{stats['active']} not yet shut down, {stats['queued']} queued"
        )
    return "\n".join(lines)
