"""Fault injection for the parallel framework (and anything stage-shaped).

Chaos-testing harness behind the robustness layer: a
:class:`FaultInjector` wraps any stage function and makes it misbehave —
raise, stall, or corrupt its payload — for a *deterministic, seeded* subset
of items.  Determinism is the load-bearing property: whether an item is
faulty is decided by hashing ``(seed, stage, item key)``, never by call
order, so the same items fail no matter how threads or processes interleave
and differential tests can predict the dead-letter set exactly.

Usage in the executors::

    faults = {"co": FaultSpec(probability=0.2, seed=7)}
    pipeline = ParallelERPipeline(config, processes=8, faults=faults)
    result = pipeline.run(entities, timeout=60)
    result.dead_letter_ids  # exactly the seeded 20%, run after run

and in the discrete-event simulator via
``ServiceModel(failure_probability=...)``, so the Fig. 11/12 experiments
can be re-run under faults (see ``docs/robustness.md``).
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

from repro.core.plan import STAGE_ORDER
from repro.durability.wal import CrashPoint
from repro.errors import ConfigurationError, InjectedFault, SimulatedCrash
from repro.parallel.supervision import extract_entity_id

__all__ = [
    "CrashPoint",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "SimulatedCrash",
    "wrap_stages",
]

# CrashPoint / SimulatedCrash belong to this harness conceptually — they
# are the durability layer's fault hook, killing a run at a seeded WAL
# record index (optionally mid-record) instead of at a seeded item.  They
# live in repro.durability.wal because the writer consults them, and are
# re-exported here as the one-stop fault-injection namespace; arm one via
# DurableBackend.open(wal_dir, config, crash_point=CrashPoint(at_record=7)).

_MODES = ("raise", "delay", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one stage's injected misbehaviour.

    Parameters
    ----------
    probability:
        Fraction of distinct items that misbehave, decided by a seeded hash
        of the item key (order-independent).
    mode:
        ``"raise"`` throws :class:`~repro.errors.InjectedFault`; ``"delay"``
        sleeps ``delay_seconds`` before executing normally (for liveness /
        timeout tests); ``"corrupt"`` replaces the payload via ``corrupt``
        (default: ``None``) before executing, so the stage fails on garbage
        input the way it would on a malformed real-world description.
    transient_attempts:
        0 means the fault is *permanent* — every retry of a faulty item
        fails again.  ``k > 0`` means only the item's first ``k`` attempts
        fail; retry ``k+1`` succeeds (models transient flakiness).
    every_n:
        When set, overrides ``probability``: every ``n``-th *distinct* item
        reaching the injector is faulty (the classic "stage raises on every
        Nth item" scenario).  Counter-based, so under multi-worker stages
        the *set* of faulty items depends on arrival order, but their
        *count* does not.
    seed:
        Keys the hash; different seeds fault different item subsets.
    """

    probability: float = 1.0
    mode: str = "raise"
    delay_seconds: float = 0.05
    corrupt: Callable[[object], object] | None = None
    transient_attempts: int = 0
    every_n: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("probability must be in [0, 1]")
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}")
        if self.delay_seconds < 0:
            raise ConfigurationError("delay_seconds cannot be negative")
        if self.transient_attempts < 0:
            raise ConfigurationError("transient_attempts cannot be negative")
        if self.every_n is not None and self.every_n < 1:
            raise ConfigurationError("every_n must be >= 1")

    def decide(self, stage: str, key: Hashable) -> bool:
        """Seeded, order-independent verdict for one item key."""
        digest = zlib.crc32(f"{self.seed}:{stage}:{key!r}".encode())
        return digest / 2**32 < self.probability


#: Stage name → fault specification, accepted by both executors.
FaultPlan = Mapping[str, FaultSpec]


class FaultInjector:
    """Wrap a stage function so a seeded subset of items misbehaves.

    The injector is a drop-in replacement for the stage callable and is
    thread-safe; per-key attempt counts implement transient faults, and the
    counters below feed the fault-injection tests:

    ``calls``
        total invocations (retries included);
    ``faults_injected``
        how many invocations misbehaved;
    ``faulted_keys``
        the distinct item keys decided faulty so far.
    """

    def __init__(
        self,
        fn: Callable[[object], object],
        spec: FaultSpec,
        stage: str = "stage",
        key_fn: Callable[[object], Hashable] | None = None,
    ) -> None:
        self.fn = fn
        self.spec = spec
        self.stage = stage
        self.key_fn = key_fn or (lambda payload: extract_entity_id(payload))
        self._lock = threading.Lock()
        self._decisions: dict[Hashable, bool] = {}
        self._attempts: dict[Hashable, int] = {}
        self._seen = 0
        self.calls = 0
        self.faults_injected = 0

    @property
    def faulted_keys(self) -> set:
        with self._lock:
            return {k for k, faulty in self._decisions.items() if faulty}

    def _decide(self, key: Hashable) -> bool:
        """Verdict for ``key``, memoized so retries see the same decision."""
        decision = self._decisions.get(key)
        if decision is None:
            self._seen += 1
            if self.spec.every_n is not None:
                decision = self._seen % self.spec.every_n == 0
            else:
                decision = self.spec.decide(self.stage, key)
            self._decisions[key] = decision
        return decision

    def __call__(self, payload: object) -> object:
        key = self.key_fn(payload)
        spec = self.spec
        with self._lock:
            self.calls += 1
            faulty = self._decide(key)
            attempt = self._attempts.get(key, 0) + 1
            self._attempts[key] = attempt
            if faulty and spec.transient_attempts:
                faulty = attempt <= spec.transient_attempts
            if faulty:
                self.faults_injected += 1
        if not faulty:
            return self.fn(payload)
        if spec.mode == "raise":
            raise InjectedFault(
                f"injected fault at stage {self.stage!r} for item {key!r} "
                f"(attempt {attempt})"
            )
        if spec.mode == "delay":
            time.sleep(spec.delay_seconds)
            return self.fn(payload)
        corrupted = spec.corrupt(payload) if spec.corrupt is not None else None
        return self.fn(corrupted)


def wrap_stages(
    stage_fns: dict[str, Callable[[object], object]],
    faults: FaultPlan | None,
) -> dict[str, FaultInjector]:
    """Wrap (in place) every stage named in ``faults`` with an injector.

    Returns the injectors keyed by stage name so callers can inspect their
    counters after a run.  Unknown stage names raise — a misspelled stage
    would otherwise silently inject nothing.  The message distinguishes a
    canonical stage (``STAGE_ORDER``) whose node the plan dropped from a
    name that is not a stage at all, so a fault plan can't silently
    desynchronize from a renamed stage.
    """
    if not faults:
        return {}
    unknown = [name for name in faults if name not in stage_fns]
    if unknown:
        inactive = [name for name in unknown if name in STAGE_ORDER]
        detail = (
            f" ({inactive} are valid stages but not active in this plan)"
            if inactive
            else ""
        )
        raise ConfigurationError(
            f"fault plan names unknown stages {unknown}; "
            f"have {sorted(stage_fns)}{detail}"
        )
    injectors: dict[str, FaultInjector] = {}
    for name, spec in faults.items():
        injector = FaultInjector(stage_fns[name], spec, stage=name)
        stage_fns[name] = injector
        injectors[name] = injector
    return injectors
