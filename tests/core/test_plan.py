"""PipelinePlan: the one stage graph every executor compiles.

Every executor derives the plan from its ``StreamERConfig`` (the
simulator, which has no config, also takes one directly); these tests
pin down (a) the paper's eight-stage order in every
executor, (b) that disabling ``f_bg`` / ``f_cc`` via config drops exactly
those nodes — again in every executor — and (c) the plan/compiled-pipeline
API surface the executors rely on.
"""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import DurableBackend, InMemoryBackend, SharedMemoryBackend
from repro.core.plan import STAGE_ORDER, CompiledPipeline, PipelinePlan, _StageCall
from repro.core.stages import (
    BlockBuildingStage,
    CandidateComparisons,
    ClassificationStage,
    ComparisonGenerationStage,
    LoadManagementStage,
    MaterializedComparisons,
)
from repro.errors import ConfigurationError, InvariantViolation
from repro.invariants import Invariant, InvariantChecker, checks
from repro.observability import (
    COMPARISONS_EXECUTED,
    STAGE_ITEMS,
    STAGE_SERVICE_SECONDS,
    MetricsRegistry,
)
from repro.parallel import (
    FIXED_STAGES,
    SCALABLE_STAGES,
    MultiprocessERPipeline,
    ParallelERPipeline,
    PipelineSimulator,
)
from repro.parallel.simulator import ServiceModel
from repro.types import EntityDescription, Profile


def full_config(**overrides) -> StreamERConfig:
    return StreamERConfig(alpha=10, beta=0.05, **overrides)


def service_model() -> ServiceModel:
    return ServiceModel(mean_seconds={name: 1e-4 for name in STAGE_ORDER})


def overlapping_entities(n: int) -> list[EntityDescription]:
    words = ["glass", "panel", "wood", "fibre", "roof", "window"]
    return [
        EntityDescription.create(
            i, {"title": " ".join(words[(i + j) % len(words)] for j in range(3))}
        )
        for i in range(n)
    ]


class TestPlanConstruction:
    def test_default_plan_has_all_eight_stages(self):
        plan = PipelinePlan.from_config(full_config())
        assert plan.stage_names() == STAGE_ORDER

    def test_disable_block_cleaning_drops_exactly_bg(self):
        plan = PipelinePlan.from_config(full_config(enable_block_cleaning=False))
        assert plan.stage_names() == tuple(n for n in STAGE_ORDER if n != "bg")

    def test_disable_comparison_cleaning_drops_exactly_cc(self):
        plan = PipelinePlan.from_config(full_config(enable_comparison_cleaning=False))
        assert plan.stage_names() == tuple(n for n in STAGE_ORDER if n != "cc")

    def test_disable_both_drops_both(self):
        plan = PipelinePlan.from_config(
            full_config(enable_block_cleaning=False, enable_comparison_cleaning=False)
        )
        assert plan.stage_names() == tuple(
            n for n in STAGE_ORDER if n not in ("bg", "cc")
        )

    def test_contains_and_spec(self):
        plan = PipelinePlan.from_config(full_config(enable_block_cleaning=False))
        assert "cc" in plan
        assert "bg" not in plan
        assert plan.spec("cc").name == "cc"
        with pytest.raises(ConfigurationError):
            plan.spec("bg")
        with pytest.raises(ConfigurationError):
            plan.spec("nonsense")

    def test_fixed_and_scalable_stages(self):
        assert FIXED_STAGES == {"bb+bp"}
        assert SCALABLE_STAGES == tuple(n for n in STAGE_ORDER if n != "bb+bp")

    def test_dropped_cc_leaves_lm_deduplicating(self):
        compiled = PipelinePlan.from_config(
            full_config(enable_comparison_cleaning=False)
        ).compile()
        assert compiled.get("cc") is None
        bb, lm = compiled.stage("bb+bp"), compiled.stage("lm")
        for eid in (1, 2):
            bb(Profile(eid=eid, attributes=(), tokens=frozenset()))
        out = lm(
            CandidateComparisons(
                profile=Profile(eid=3, attributes=(), tokens=frozenset()),
                candidates=[1, 2, 2, 1],
            )
        )
        assert [p.eid for p in out.partners] == [1, 2]
        assert lm.materialized == 2


class TestPlanCompilation:
    def test_compile_yields_stage_per_active_node(self):
        compiled = PipelinePlan.from_config(full_config()).compile()
        assert isinstance(compiled, CompiledPipeline)
        assert compiled.names == STAGE_ORDER
        assert [name for name, _ in compiled.ordered()] == list(STAGE_ORDER)

    def test_get_returns_none_for_dropped_node(self):
        compiled = PipelinePlan.from_config(
            full_config(enable_block_cleaning=False)
        ).compile()
        assert compiled.get("bg") is None
        assert compiled.get("cc") is not None
        with pytest.raises(ConfigurationError):
            compiled.stage("bg")

    def test_stage_functions_match_active_names(self):
        plan = PipelinePlan.from_config(full_config(enable_comparison_cleaning=False))
        fns = plan.compile().stage_functions()
        assert tuple(fns) == plan.stage_names()
        assert all(callable(fn) for fn in fns.values())

    def test_compile_threads_backend_through_stages(self):
        backend = InMemoryBackend()
        compiled = PipelinePlan.from_config(full_config()).compile(backend)
        assert compiled.backend is backend
        assert compiled.stage("bb+bp").blocks is backend.blocks
        assert compiled.stage("bb+bp").profiles is backend.profiles
        assert compiled.stage("lm").profiles is backend.profiles
        assert compiled.stage("cl").matches is backend.matches

    @pytest.mark.parametrize("backend_type", [InMemoryBackend, SharedMemoryBackend])
    def test_bare_wiring_compiles_to_the_stage_objects(self, backend_type):
        backend = backend_type()
        try:
            compiled = PipelinePlan.from_config(full_config()).compile(backend)
            assert all(fn is compiled.stage(name) for name, fn in compiled.ordered())
            assert all(
                fn is compiled.stage(name)
                for name, fn in compiled.stage_functions().items()
            )
        finally:
            if backend_type is SharedMemoryBackend:
                backend.unlink()

    @pytest.mark.parametrize(
        "option", ["none", "instrument", "registry", "checker", "durable"]
    )
    def test_stage_attributes_are_the_stage_objects(self, option, tmp_path):
        config = full_config()
        kwargs = {
            "none": {},
            "instrument": {"instrument": True},
            "registry": {"registry": MetricsRegistry()},
            "checker": {"checker": InvariantChecker(mode="record")},
            "durable": {"backend": DurableBackend.open(tmp_path / "wal", config)},
        }[option]
        pipeline = StreamERPipeline(config, **kwargs)
        for attr, name, cls in (
            ("cg", "cg", ComparisonGenerationStage),
            ("bb", "bb+bp", BlockBuildingStage),
            ("lm", "lm", LoadManagementStage),
            ("cl", "cl", ClassificationStage),
        ):
            assert getattr(pipeline, attr) is pipeline.compiled.get(name)
            assert type(pipeline.compiled.get(name)) is cls
        pipeline.close()

    def test_stage_duties_compose_into_one_call(self, tmp_path, monkeypatch):
        def always_fails(view) -> None:
            raise InvariantViolation("forced-cl-failure", "forced by the test")

        monkeypatch.setitem(
            checks._REGISTRY,
            "forced-cl-failure",
            Invariant("forced-cl-failure", "stage", always_fails, stage="cl"),
        )
        entities = overlapping_entities(12)
        registry = MetricsRegistry()
        checker = InvariantChecker(mode="record")
        config = full_config()
        pipeline = StreamERPipeline(
            config,
            registry=registry,
            checker=checker,
            backend=DurableBackend.open(tmp_path / "wal", config),
        )
        pipeline.process_many(entities)
        pipeline.close()
        n = len(entities)
        # The increment is one admission: logged whole, one record.
        assert pipeline.backend.entities_logged == n
        assert pipeline.backend.wal_records_seen == 1
        assert registry.value(STAGE_ITEMS, stage="cl") == n
        forced = [v for v in checker.violations if v.invariant == "forced-cl-failure"]
        assert len(forced) == n and {v.stage for v in forced} == {"cl"}
        # The check runs after the timed region: every violating call was timed.
        assert registry.get(STAGE_SERVICE_SECONDS, stage="cl").count == n
        assert dict(pipeline.compiled.ordered())["cl"] is not pipeline.cl

        # Pool workers' counters fold straight into the plan's stage objects.
        backend = SharedMemoryBackend()
        try:
            mp = MultiprocessERPipeline(
                StreamERConfig.interned(
                    alpha=100, beta=0.5, classifier=ThresholdClassifier(0.4)
                ),
                workers=1,
                backend=backend,
                registry=MetricsRegistry(),
                checker=InvariantChecker(mode="record"),
                partitioned=True,
            )
            assert mp.lm is mp.compiled.get("lm")
            assert mp.cc is mp.compiled.get("cc")
            mp.run(entities)
            mp.close()
        finally:
            backend.unlink()
        assert mp.pairs_dispatched > 0
        assert mp.cc.retained == mp.lm.materialized == (
            mp.pairs_dispatched + mp.pairs_prefiltered + mp.co.compared
        )

    @pytest.mark.parametrize("interned", [False, True])
    def test_no_stage_duty_reads_the_comparisons_view(self, monkeypatch, interned):
        """``MaterializedComparisons.comparisons`` is for readers outside the
        pipeline: a registry-enabled, checked plan runs without it."""
        make = StreamERConfig.interned if interned else StreamERConfig
        config = make(alpha=100, beta=0.5, classifier=ThresholdClassifier(0.3))
        entities = overlapping_entities(30)
        expected = StreamERPipeline(config).process_many(entities).match_pairs

        def unreadable(message):
            raise AssertionError("a stage duty read MaterializedComparisons.comparisons")

        monkeypatch.setattr(MaterializedComparisons, "comparisons", property(unreadable))
        registry = MetricsRegistry()
        checker = InvariantChecker(mode="raise")
        pipeline = StreamERPipeline(config, registry=registry, checker=checker)
        assert isinstance(dict(pipeline.compiled.ordered())["co"], _StageCall)
        result = pipeline.process_many(entities)
        assert result.match_pairs == expected and expected
        assert not checker.violations
        assert registry.value(COMPARISONS_EXECUTED) == pipeline.lm.materialized > 0


class TestExecutorsShareThePlan:
    """All four executors derive their stage topology from the same plan."""

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, STAGE_ORDER),
            (
                {"enable_block_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "bg"),
            ),
            (
                {"enable_comparison_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "cc"),
            ),
        ],
    )
    def test_sequential(self, overrides, expected):
        pipeline = StreamERPipeline(full_config(**overrides), instrument=False)
        assert pipeline.compiled.names == expected

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, STAGE_ORDER),
            (
                {"enable_block_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "bg"),
            ),
            (
                {"enable_comparison_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "cc"),
            ),
        ],
    )
    def test_thread_framework(self, overrides, expected):
        pipeline = ParallelERPipeline(full_config(**overrides), processes=len(expected))
        assert pipeline.plan.stage_names() == expected
        assert pipeline.compiled.names == expected

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, STAGE_ORDER),
            (
                {"enable_block_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "bg"),
            ),
            (
                {"enable_comparison_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "cc"),
            ),
        ],
    )
    def test_multiprocess_framework(self, overrides, expected):
        pipeline = MultiprocessERPipeline(full_config(**overrides), workers=1)
        assert pipeline.plan.stage_names() == expected
        assert pipeline.compiled.names == expected

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            ({}, STAGE_ORDER),
            (
                {"enable_block_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "bg"),
            ),
            (
                {"enable_comparison_cleaning": False},
                tuple(n for n in STAGE_ORDER if n != "cc"),
            ),
        ],
    )
    def test_simulator(self, overrides, expected):
        plan = PipelinePlan.from_config(full_config(**overrides))
        allocation = {name: 1 for name in expected}
        simulator = PipelineSimulator(allocation, service_model(), plan=plan)
        assert simulator.stage_names == expected

    def test_simulator_defaults_to_full_stage_order(self):
        allocation = {name: 1 for name in STAGE_ORDER}
        simulator = PipelineSimulator(allocation, service_model())
        assert simulator.stage_names == STAGE_ORDER
