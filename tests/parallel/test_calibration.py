"""Tests for simulator calibration."""

from __future__ import annotations

import pytest

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.stages import STAGE_ORDER
from repro.errors import ConfigurationError
from repro.observability import stage_seconds
from repro.parallel import calibrate_service_model, calibration, default_simulator_config
from repro.types import EntityDescription


def sample(n=60):
    return [
        EntityDescription.create(i, {"t": f"token{i % 9} common words here"})
        for i in range(n)
    ]


def config():
    return StreamERConfig(alpha=100, beta=0.1, classifier=ThresholdClassifier(0.9))


class TestCalibrateServiceModel:
    def test_covers_all_stages_with_positive_total(self):
        service = calibrate_service_model(sample(), config())
        assert set(service.mean_seconds) == set(STAGE_ORDER)
        assert service.mean_total() > 0

    def test_means_are_the_registry_sums_per_entity(self, monkeypatch):
        pipelines: list[StreamERPipeline] = []

        class Recording(StreamERPipeline):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pipelines.append(self)

        monkeypatch.setattr(calibration, "StreamERPipeline", Recording)
        entities = sample()
        service = calibrate_service_model(entities, config())
        (pipeline,) = pipelines
        sums = stage_seconds(pipeline.registry)
        assert set(sums) == set(STAGE_ORDER)
        for stage in STAGE_ORDER:
            assert service.mean_seconds[stage] * len(entities) == pytest.approx(
                sums[stage]
            )

    def test_requires_entities(self):
        with pytest.raises(ConfigurationError):
            calibrate_service_model([], config())

    def test_cv_and_seed_passed_through(self):
        service = calibrate_service_model(sample(), config(), cv=0.5, seed=7)
        assert service.cv == 0.5
        assert service.seed == 7

    def test_means_scale_with_workload(self):
        light = calibrate_service_model(sample(30), config())
        heavy_entities = [
            EntityDescription.create(
                i, {f"a{k}": f"tok{i % 9}{k} more words" for k in range(12)}
            )
            for i in range(30)
        ]
        heavy = calibrate_service_model(heavy_entities, config())
        assert heavy.mean_total() > light.mean_total()


class TestDefaultSimulatorConfig:
    def test_plain_defaults(self):
        service = calibrate_service_model(sample(), config())
        sim_cfg = default_simulator_config(service)
        assert sim_cfg.buffer_capacity == 16
        assert sim_cfg.micro_batch_size == 1
        assert sim_cfg.comm_overhead == pytest.approx(0.05 * service.mean_total())

    def test_micro_batched_capacity_scales(self):
        service = calibrate_service_model(sample(), config())
        sim_cfg = default_simulator_config(service, micro_batch_size=100)
        assert sim_cfg.buffer_capacity == 150
        assert sim_cfg.micro_batch_size == 100

    def test_core_override(self):
        service = calibrate_service_model(sample(), config())
        assert default_simulator_config(service, cores=4).cores == 4
