"""The declarative stage graph every executor compiles, built once per run.

The paper's functional model is a single composition
``f_er = f_cl ∘ f_co ∘ f_lm ∘ f_cc ∘ f_cg ∘ f_bg ∘ f_bb+bp ∘ f_dr``,
but executing it takes four very different substrates: the sequential
pipeline, the thread framework (PP/MPP), the multiprocess executor, and
the discrete-event simulator.  A :class:`PipelinePlan` is the one place
that knows *what* the graph is — which stages exist for a given
:class:`~repro.core.config.StreamERConfig`, in what order, how each is
constructed against a :class:`~repro.core.backends.StateBackend`, and
which nodes are ``optional`` — gated by a config flag and absent from the
graph entirely when disabled (``f_bg`` with block cleaning off, ``f_cc``
with comparison cleaning off).  Which stage runs serially is the
allocation's business, not the graph's: ``FIXED_STAGES`` in
:mod:`repro.parallel.allocation` pins ``f_bb+bp`` — the writer of the
profile map and the block index, whose verdicts depend on arrival order —
to one worker.

Executors *compile* the plan — :meth:`PipelinePlan.compile` instantiates
every active stage against one backend and returns a
:class:`CompiledPipeline` — instead of hand-constructing stages, so stage
wiring, ordering and state ownership are defined exactly once.  The
compiled pipeline is also the one place that decides what happens around
a stage call (metrics, invariant checks): it composes those duties into a
single callable per stage, at compile time.

``STAGE_ORDER`` (the full eight-name tuple) is re-exported here and is the
canonical import site for every stage-name consumer outside ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.comparison.kernel import InternedComparator
from repro.core.backends import InMemoryBackend, StateBackend
from repro.core.config import StreamERConfig
from repro.core.stages import (
    STAGE_ORDER,
    BlockBuildingStage,
    BlockGhostingStage,
    ClassificationStage,
    ComparisonCleaningStage,
    ComparisonGenerationStage,
    ComparisonStage,
    DataReadingStage,
    LoadManagementStage,
)
from repro.errors import ConfigurationError
from repro.invariants.checker import InvariantChecker
from repro.invariants.checks import invariants_for
from repro.observability.instrument import (
    COMPARISONS_EXECUTED,
    COMPARISONS_GENERATED,
    MATCHES,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    declare_pipeline_metrics,
)
from repro.observability.registry import NULL_REGISTRY, MetricsRegistry

__all__ = [
    "STAGE_ORDER",
    "StageSpec",
    "PipelinePlan",
    "CompiledPipeline",
]

#: A stage factory: (config, backend) → the stage callable.
StageFactory = Callable[[StreamERConfig, StateBackend], Callable]


@dataclass(frozen=True)
class StageSpec:
    """One node of the stage graph: identity, factory, config gate."""

    name: str
    factory: StageFactory
    optional: bool = False


def _make_dr(config: StreamERConfig, backend: StateBackend):
    builder = config.profile_builder
    # An interned comparator needs profiles carrying token ids; bind the
    # backend's shared dictionary into the builder at compile time (the
    # dictionary is run state, like every store, so two executors compiling
    # the same config never share id spaces by accident).
    if builder.dictionary is None and isinstance(config.comparator, InternedComparator):
        dictionary = getattr(backend, "dictionary", None)
        if dictionary is not None:
            builder = builder.with_dictionary(dictionary)
    return DataReadingStage(builder)


def _make_bb(config: StreamERConfig, backend: StateBackend):
    return BlockBuildingStage(
        alpha=config.alpha, enabled=config.enable_block_cleaning, backend=backend
    )


def _make_bg(config: StreamERConfig, backend: StateBackend):
    return BlockGhostingStage(beta=config.beta)


def _make_cg(config: StreamERConfig, backend: StateBackend):
    return ComparisonGenerationStage(clean_clean=config.clean_clean)


def _make_cc(config: StreamERConfig, backend: StateBackend):
    return ComparisonCleaningStage()


def _make_lm(config: StreamERConfig, backend: StateBackend):
    return LoadManagementStage(backend=backend)


def _make_co(config: StreamERConfig, backend: StateBackend):
    return ComparisonStage(config.comparator)


def _make_cl(config: StreamERConfig, backend: StateBackend):
    return ClassificationStage(config.classifier, backend=backend)


#: The full graph, in pipeline order.  ``from_config`` filters the optional
#: nodes; everything else consumes the *filtered* view.
_ALL_SPECS: tuple[StageSpec, ...] = (
    StageSpec("dr", _make_dr),
    StageSpec("bb+bp", _make_bb),
    StageSpec("bg", _make_bg, optional=True),
    StageSpec("cg", _make_cg),
    StageSpec("cc", _make_cc, optional=True),
    StageSpec("lm", _make_lm),
    StageSpec("co", _make_co),
    StageSpec("cl", _make_cl),
)

#: Which config flag keeps each optional node in the graph.
_OPTIONAL_GATES: dict[str, Callable[[StreamERConfig], bool]] = {
    "bg": lambda config: config.enable_block_cleaning,
    "cc": lambda config: config.enable_comparison_cleaning,
}


@dataclass(frozen=True)
class PipelinePlan:
    """The stage graph for one configuration; shared by all executors."""

    config: StreamERConfig
    specs: tuple[StageSpec, ...]

    @classmethod
    def from_config(cls, config: StreamERConfig | None = None) -> "PipelinePlan":
        """Build the plan, dropping optional nodes the config disables."""
        config = config or StreamERConfig()
        specs = tuple(
            spec
            for spec in _ALL_SPECS
            if not spec.optional or _OPTIONAL_GATES[spec.name](config)
        )
        return cls(config=config, specs=specs)

    # -- graph queries -------------------------------------------------

    def stage_names(self) -> tuple[str, ...]:
        """Active stage names in pipeline order."""
        return tuple(spec.name for spec in self.specs)

    def __contains__(self, name: str) -> bool:
        return any(spec.name == name for spec in self.specs)

    def spec(self, name: str) -> StageSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"stage {name!r} is not in this plan (active: {self.stage_names()})"
        )

    # -- compilation ---------------------------------------------------

    def compile(
        self,
        backend: StateBackend | None = None,
        registry: MetricsRegistry | None = None,
        checker: InvariantChecker | None = None,
    ) -> "CompiledPipeline":
        """Instantiate every active stage against one state backend.

        With an enabled ``registry`` every stage call records the shared
        metric vocabulary; with an enabled ``checker`` every output message
        is verified against the registered stage invariants.  See
        :class:`CompiledPipeline` for how those duties are composed.
        """
        return CompiledPipeline(
            self,
            backend if backend is not None else InMemoryBackend(),
            registry=registry,
            checker=checker,
        )


#: The counter a stage call feeds besides its item count: stage → (metric,
#: size read off the call's input and output).  Read off the messages, not
#: diffed from stage counters, so interleaved executors or retries on one
#: compiled plan still count right.
_MESSAGE_COUNTERS: dict[str, tuple[str, Callable]] = {
    "cg": (COMPARISONS_GENERATED, lambda message, out: len(out.candidates)),
    "co": (COMPARISONS_EXECUTED, lambda message, out: len(message.partners)),
    "cl": (MATCHES, lambda message, out: len(out)),
}


class _StageCall:
    """One stage call with every duty around it: the stage, then service
    time, item count and message counter, then the stage-scope invariants
    — outside the timing, so a violating call is still timed."""

    __slots__ = ("name", "_stage", "_service", "_items", "_counter", "_size", "_check")

    def __init__(self, name, stage, registry: MetricsRegistry, check) -> None:
        self.name = name
        self._stage = stage
        self._service = registry.histogram(STAGE_SERVICE_SECONDS, stage=name)
        self._items = registry.counter(STAGE_ITEMS, stage=name)
        metric, self._size = _MESSAGE_COUNTERS.get(name, (None, None))
        self._counter = registry.counter(metric) if metric is not None else None
        self._check = check

    def __call__(self, message):
        start = perf_counter()
        out = self._stage(message)
        self._service.observe(perf_counter() - start)
        self._items.inc()
        if self._counter is not None:
            self._counter.inc(self._size(message, out))
        if self._check is not None:
            self._check(self.name, out, message)
        return out


class CompiledPipeline:
    """The plan's stages, instantiated in order against a shared backend.

    This is what an executor consumes: the stage objects by name
    (:meth:`get` / :meth:`stage` — counters are read and written on them
    directly), one callable per stage in pipeline order (:meth:`ordered` /
    :meth:`stage_functions`), and the backend that owns all mutable state.
    Dropped optional nodes are simply absent — executors query with
    :meth:`get` and treat ``None`` as "not in this run".

    The per-stage callable is built once, here — the one place that decides
    what happens around a stage call.  With nothing to do per call
    (disabled registry, no stage-scope invariant to check) it *is* the
    stage object: the bare hot path pays no extra frame.  Otherwise it is
    one :class:`_StageCall`.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        backend: StateBackend,
        registry: MetricsRegistry | None = None,
        checker: InvariantChecker | None = None,
    ) -> None:
        self.plan = plan
        self.backend = backend
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.checker = checker if (checker is not None and checker.enabled) else None
        declare_pipeline_metrics(self.registry, plan.stage_names())
        if self.checker is not None:
            self.checker.bind(plan.config, backend, self.registry)
        self._stages: dict[str, Callable] = {
            spec.name: spec.factory(plan.config, backend) for spec in plan.specs
        }
        self._calls: dict[str, Callable] = {}
        for name, stage in self._stages.items():
            check = None
            if self.checker is not None and invariants_for("stage", name):
                check = self.checker.observe_stage
            if check is None and not self.registry.enabled:
                self._calls[name] = stage
            else:
                self._calls[name] = _StageCall(name, stage, self.registry, check)

    @property
    def names(self) -> tuple[str, ...]:
        return self.plan.stage_names()

    def stage(self, name: str) -> Callable:
        """The stage object; raises for a node that is not in the plan."""
        try:
            return self._stages[name]
        except KeyError:
            raise ConfigurationError(
                f"stage {name!r} is not active (active: {self.names})"
            ) from None

    def get(self, name: str):
        """The stage object, or None when the node is not in the plan."""
        return self._stages.get(name)

    def ordered(self) -> list[tuple[str, Callable]]:
        """(name, per-stage callable) pairs in pipeline order."""
        return [(spec.name, self._calls[spec.name]) for spec in self.plan.specs]

    def stage_functions(self) -> dict[str, Callable]:
        """A mutable name → per-stage callable mapping (for wrapping)."""
        return dict(self._calls)
