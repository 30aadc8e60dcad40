"""The runtime enforcement layer: compile invariants into any executor.

An :class:`InvariantChecker` is handed to an executor (or directly to
:meth:`~repro.core.plan.PipelinePlan.compile`); the compiled pipeline then
calls :meth:`InvariantChecker.observe_stage` after every call of a stage
that has stage-scope invariants — one duty of the single per-stage
callable it composes, beside metrics — so the same checker works in the
sequential pipeline, the thread framework, the multiprocess executor and
(for the run-level conservation checks) the simulator, without any
executor-specific shims.  ``checker=None`` (the
default everywhere) compiles nothing and costs nothing.

Two enforcement modes:

``"raise"``
    violations raise :class:`~repro.errors.InvariantViolation` at the point
    of detection — the debugging posture.  Executors whose stages run on
    worker threads (``concurrent=True``) defer the raise to
    :meth:`InvariantChecker.finalize`, because an exception inside a
    supervised worker would be swallowed into the dead-letter queue.
``"record"``
    violations accumulate on :attr:`InvariantChecker.violations` and
    nothing raises — the auditing posture ``repro-er check`` uses to
    report every violation of a run, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError, InvariantViolation
from repro.invariants.checks import (
    RunView,
    SimulationView,
    StageView,
    StateView,
    invariants_for,
)

__all__ = ["InvariantChecker", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One recorded violation: which invariant, where, what was observed."""

    invariant: str
    detail: str
    stage: str | None = None

    def __str__(self) -> str:
        where = f" [stage {self.stage}]" if self.stage else ""
        return f"{self.invariant}{where}: {self.detail}"


class InvariantChecker:
    """Evaluates the registered invariants against one pipeline run.

    Parameters
    ----------
    mode:
        ``"raise"`` (default) or ``"record"``; see the module docstring.
    state_every:
        In the sequential executor, run the state-scope invariants every
        this many entities (they recount stores, so per-entity checking is
        quadratic).  Stage-scope invariants always run per message.
    concurrent:
        Set by executors whose stages run on worker threads: state checks
        are deferred to :meth:`finalize` (stores mutate under the reader
        otherwise) and raise-mode violations are raised there rather than
        inside a supervised worker.
    enabled:
        ``False`` turns the checker into a no-op without rewiring call
        sites (the compiled plan then adds no check to any stage call).
    """

    def __init__(
        self,
        mode: str = "raise",
        state_every: int = 16,
        concurrent: bool = False,
        enabled: bool = True,
    ) -> None:
        if mode not in ("raise", "record"):
            raise ConfigurationError(
                f'mode must be "raise" or "record", got {mode!r}'
            )
        if state_every < 1:
            raise ConfigurationError("state_every must be >= 1")
        self.mode = mode
        self.state_every = state_every
        self.concurrent = concurrent
        self.enabled = enabled
        self.violations: list[Violation] = []
        self.checks_performed = 0
        self._config: Any = None
        self._backend: Any = None
        self._registry: Any = None
        self._entities_seen = 0
        self._processed: int | None = None

    # -- wiring --------------------------------------------------------

    def bind(self, config: Any, backend: Any, registry: Any = None) -> None:
        """Attach the run's config/backend (done by the compiled plan)."""
        self._config = config
        self._backend = backend
        self._registry = registry

    @property
    def bound(self) -> bool:
        return self._backend is not None

    # -- violation plumbing --------------------------------------------

    def _run_checks(self, invariants, view, stage: str | None = None) -> None:
        for inv in invariants:
            self.checks_performed += 1
            try:
                inv.check(view)
            except InvariantViolation as exc:
                violation = Violation(
                    invariant=exc.invariant, detail=exc.detail, stage=stage
                )
                self.violations.append(violation)
                if self.mode == "raise" and not self.concurrent:
                    raise

    def raise_if_violated(self) -> None:
        """Raise the first recorded violation (used by deferred raise mode)."""
        if self.violations:
            first = self.violations[0]
            raise InvariantViolation(first.invariant, first.detail)

    def report(self) -> str:
        if not self.violations:
            return (
                f"no invariant violations "
                f"({self.checks_performed} checks performed)"
            )
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)

    # -- scope entry points --------------------------------------------

    def observe_stage(self, stage: str, payload: Any, source: Any = None) -> None:
        """Run the stage-scope invariants over one output message.

        ``source`` is the stage's input message, for invariants that
        relate output to input.
        """
        invariants = invariants_for("stage", stage)
        if invariants:
            view = StageView(
                stage=stage, config=self._config, payload=payload, source=source
            )
            self._run_checks(invariants, view, stage=stage)

    def after_entity(self, processed: int | None = None) -> None:
        """Sequential executors: periodic state check at entity boundaries.

        ``processed`` is the executor's entity count so far, which may end
        mid-admission (see :attr:`StateView.processed`)."""
        self._processed = processed
        self._entities_seen += 1
        if self._entities_seen % self.state_every == 0:
            self.check_state()

    def check_state(self) -> None:
        """Run the state-scope invariants against the bound backend now."""
        if not self.bound:
            return
        view = StateView(
            config=self._config, backend=self._backend, processed=self._processed
        )
        self._run_checks(invariants_for("state"), view)

    def check_result(
        self,
        result: Any,
        expected_entities: int | None = None,
        sequencer: Any = None,
    ) -> None:
        """Run the run-scope invariants over a finished result."""
        if not self.bound:
            return
        view = RunView(
            config=self._config,
            backend=self._backend,
            registry=self._registry,
            result=result,
            expected_entities=expected_entities,
            sequencer=sequencer,
        )
        self._run_checks(invariants_for("run"), view)

    def check_simulation(self, result: Any, n_items: int) -> None:
        """Run the simulation-scope invariants (no backend required)."""
        view = SimulationView(result=result, n_items=n_items)
        self._run_checks(invariants_for("simulation"), view)

    def finalize(
        self,
        result: Any = None,
        expected_entities: int | None = None,
        sequencer: Any = None,
    ) -> None:
        """End-of-run sweep: state + run invariants, then deferred raise.

        Concurrent executors call this after their workers have joined —
        the one point where stores are quiescent and a raise cannot be
        swallowed by stage supervision.
        """
        self.check_state()
        if result is not None:
            self.check_result(
                result, expected_entities=expected_entities, sequencer=sequencer
            )
        if self.mode == "raise":
            self.raise_if_violated()

