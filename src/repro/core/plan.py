"""The declarative stage graph every executor compiles, built once per run.

The paper's functional model is a single composition
``f_er = f_cl ∘ f_co ∘ f_lm ∘ f_cc ∘ f_cg ∘ f_bg ∘ f_bb+bp ∘ f_dr``,
but executing it takes four very different substrates: the sequential
pipeline, the thread framework (PP/MPP), the multiprocess executor, and
the discrete-event simulator.  A :class:`PipelinePlan` is the one place
that knows *what* the graph is — which stages exist for a given
:class:`~repro.core.config.StreamERConfig`, in what order, how each is
constructed against a :class:`~repro.core.backends.StateBackend`, and
which execution constraints apply:

``replicable``
    whether an executor may run several workers of the stage concurrently
    (``f_bb+bp`` is the serial stage: it owns the block index and its
    verdicts depend on arrival order);
``serialization_point``
    whether the stage is the pipeline's ordering barrier, where an
    executor that replicates downstream stages must make the entity's
    profile resolvable before emitting it (the thread framework registers
    the profile here, so ``f_lm`` lookups can never miss);
``optional``
    whether the node is gated by a config flag and disappears from the
    graph entirely when disabled (``f_bg`` with block cleaning off,
    ``f_cc`` with comparison cleaning off).

Executors *compile* the plan — :meth:`PipelinePlan.compile` instantiates
every active stage against one backend and returns a
:class:`CompiledPipeline` — instead of hand-constructing stages, so stage
wiring, ordering and state ownership are defined exactly once.

``STAGE_ORDER`` (the full eight-name tuple) is re-exported here and is the
canonical import site for every stage-name consumer outside ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.comparison.kernel import InternedComparator
from repro.core.backends import (
    InMemoryBackend,
    StateBackend,
    backend_capabilities,
)
from repro.core.backends.durable import CommittingStage
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
from repro.invariants.checker import CheckedStage, InvariantChecker
from repro.observability.instrument import InstrumentedStage, declare_pipeline_metrics
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
    """One node of the stage graph: identity, factory, execution constraints."""

    name: str
    factory: StageFactory
    replicable: bool = True
    serialization_point: bool = False
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
    return ComparisonCleaningStage(backend=backend)


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
    StageSpec("bb+bp", _make_bb, replicable=False, serialization_point=True),
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

    def serialization_points(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs if spec.serialization_point)

    def non_replicable_stages(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs if not spec.replicable)

    # -- compilation ---------------------------------------------------

    def compile(
        self,
        backend: StateBackend | None = None,
        registry: MetricsRegistry | None = None,
        checker: InvariantChecker | None = None,
    ) -> "CompiledPipeline":
        """Instantiate every active stage against one state backend.

        With an enabled ``registry``, every stage is wrapped in an
        :class:`~repro.observability.instrument.InstrumentedStage` so all
        executors compiling this plan emit the shared metric vocabulary.
        With an enabled ``checker``, stages are additionally wrapped in a
        :class:`~repro.invariants.checker.CheckedStage` so every output
        message is verified against the registered stage invariants.
        """
        return CompiledPipeline(
            self,
            backend if backend is not None else InMemoryBackend(),
            registry=registry,
            checker=checker,
        )


class CompiledPipeline:
    """The plan's stages, instantiated in order against a shared backend.

    This is what an executor consumes: an ordered mapping of active stage
    name → stage callable, plus the backend that owns all mutable state.
    Dropped optional nodes are simply absent — executors query with
    :meth:`get` and treat ``None`` as "not in this run".

    With an enabled metrics ``registry``, stage callables are
    :class:`~repro.observability.instrument.InstrumentedStage` wrappers —
    transparent for attribute access (``compiled.get("cg").generated``
    still resolves) but recording per-stage service time, item counts and
    the comparison/match counters into the registry.  With the default
    ``NULL_REGISTRY``, stages are left bare and nothing is recorded.
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
        #: Capability strings the backend advertises, resolved once at
        #: compile time so executors decide on fast paths (e.g. partitioned
        #: multiprocess dispatch) off the compiled plan rather than
        #: re-probing the backend.
        self.capabilities = backend_capabilities(backend)
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.checker = checker if (checker is not None and checker.enabled) else None
        self._stages: dict[str, Callable] = {
            spec.name: spec.factory(plan.config, backend) for spec in plan.specs
        }
        if hasattr(backend, "commit_entity") and "cl" in self._stages:
            # Durable backend: commit each entity as it leaves ``f_cl``.
            # Innermost wrapper, so instrumentation times the commit and
            # invariant checking still sees the stage's real output.
            self._stages["cl"] = CommittingStage("cl", self._stages["cl"], backend)
        if self.registry.enabled:
            declare_pipeline_metrics(self.registry, self.plan.stage_names())
            self._stages = {
                name: InstrumentedStage(name, stage, self.registry)
                for name, stage in self._stages.items()
            }
        if self.checker is not None:
            # Checking wraps *outside* instrumentation, so a violation's
            # stage timing is still recorded and attribute delegation
            # chains through both wrappers.
            self.checker.bind(plan.config, backend, self.registry)
            self._stages = {
                name: CheckedStage(name, stage, self.checker)
                for name, stage in self._stages.items()
            }

    @property
    def names(self) -> tuple[str, ...]:
        return self.plan.stage_names()

    def stage(self, name: str) -> Callable:
        try:
            return self._stages[name]
        except KeyError:
            raise ConfigurationError(
                f"stage {name!r} is not active (active: {self.names})"
            ) from None

    def get(self, name: str):
        """The stage callable, or None when the node is not in the plan."""
        return self._stages.get(name)

    def ordered(self) -> list[tuple[str, Callable]]:
        """(name, stage) pairs in pipeline order."""
        return [(spec.name, self._stages[spec.name]) for spec in self.plan.specs]

    def stage_functions(self) -> dict[str, Callable]:
        """A mutable name → callable mapping (for wrapping/fault injection)."""
        return dict(self._stages)
