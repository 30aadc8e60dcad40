"""Declarative runtime invariants over ER state, stage outputs and runs.

The paper's state σ = ⟨M, B⟩ obeys contracts the code relies on but never
checked: post-purge block sizes stay below α, the O(1) running counters of
:class:`~repro.core.state.BlockCollection` equal full recounts, the token
dictionary is a bijection, every blocked identifier resolves in the
profile map, the thread framework's reorder buffer drains completely, and
metric totals agree with the returned result.  This package makes those
contracts first-class:

* :mod:`repro.invariants.checks` — the central registry of named
  invariants over four scopes (``state``, ``stage``, ``run``,
  ``simulation``);
* :mod:`repro.invariants.checker` — :class:`InvariantChecker`, compiled
  into any executor at :meth:`~repro.core.plan.PipelinePlan.compile` time
  (its stage-scope check is one duty of the per-stage callable the
  compiled plan composes), with zero overhead when absent.

``repro-er check`` runs the invariant suite together with the metamorphic
oracle suite of :mod:`repro.proptest`; see ``docs/correctness.md``.
"""

from repro.errors import InvariantViolation
from repro.invariants.checker import InvariantChecker, Violation
from repro.invariants.checks import (
    Invariant,
    RunView,
    SimulationView,
    StageView,
    StateView,
    all_invariants,
    get_invariant,
    invariant_names,
    invariants_for,
    register,
)

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "Violation",
    "Invariant",
    "StateView",
    "StageView",
    "RunView",
    "SimulationView",
    "register",
    "get_invariant",
    "invariant_names",
    "invariants_for",
    "all_invariants",
]
