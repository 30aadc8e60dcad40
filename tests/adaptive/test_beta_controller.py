"""Tests for the self-tuning β controller."""

from __future__ import annotations

import pytest

from repro.adaptive import BetaController, SelfTuningERPipeline
from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig
from repro.errors import ConfigurationError
from repro.types import EntityDescription


class TestBetaController:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            BetaController(target_comparisons=0)
        with pytest.raises(ConfigurationError):
            BetaController(target_comparisons=10, rate=1.0)
        with pytest.raises(ConfigurationError):
            BetaController(target_comparisons=10, min_beta=0.5, max_beta=0.4)
        with pytest.raises(ConfigurationError):
            BetaController(target_comparisons=10, smoothing=0.0)

    def test_raises_beta_under_overload(self):
        controller = BetaController(
            target_comparisons=10, interval=1, smoothing=1.0
        )
        beta = controller.update(0.05, comparisons=100)
        assert beta > 0.05  # larger β ghosts more

    def test_lowers_beta_with_headroom(self):
        controller = BetaController(
            target_comparisons=100, interval=1, smoothing=1.0
        )
        beta = controller.update(0.5, comparisons=1)
        assert beta < 0.5

    def test_dead_band_keeps_beta(self):
        controller = BetaController(
            target_comparisons=100, interval=1, smoothing=1.0
        )
        assert controller.update(0.1, comparisons=100) == 0.1

    def test_clamped_to_band(self):
        controller = BetaController(
            target_comparisons=1, interval=1, smoothing=1.0, max_beta=0.2
        )
        beta = 0.19
        for _ in range(20):
            beta = controller.update(beta, comparisons=1000)
        assert beta == pytest.approx(0.2)

    def test_interval_batches_adjustments(self):
        controller = BetaController(target_comparisons=1, interval=5, smoothing=1.0)
        betas = [controller.update(0.1, comparisons=100) for _ in range(4)]
        assert betas == [0.1] * 4  # no adjustment before the interval
        assert controller.update(0.1, comparisons=100) > 0.1

    def test_ewma_tracks_observations(self):
        controller = BetaController(target_comparisons=10, smoothing=0.5)
        controller.update(0.1, comparisons=100)
        controller.update(0.1, comparisons=100)
        assert controller.observed == pytest.approx(75.0)


class TestSelfTuningERPipeline:
    def _noisy_stream(self, n):
        # Every entity shares the "common" tokens, creating an ever-growing
        # hot block — exactly the overload the controller should counter.
        return [
            EntityDescription.create(
                i, {"t": f"common shared hot token{i} extra{i % 7}"}
            )
            for i in range(n)
        ]

    def test_rejects_config_without_ghosting_stage(self):
        config = StreamERConfig(enable_block_cleaning=False)
        with pytest.raises(ConfigurationError, match="enable_block_cleaning"):
            SelfTuningERPipeline(config)

    def test_beta_rises_under_comparison_overload(self):
        config = StreamERConfig(
            alpha=10_000, beta=0.01, classifier=ThresholdClassifier(0.99)
        )
        tuned = SelfTuningERPipeline(
            config,
            BetaController(target_comparisons=3, interval=10, smoothing=0.5),
        )
        tuned.process_many(self._noisy_stream(300))
        assert tuned.beta > 0.01
        assert tuned.controller.adjustments > 0

    def test_tuning_reduces_comparisons_vs_static(self):
        def run(tuning: bool) -> int:
            config = StreamERConfig(
                alpha=10_000, beta=0.01, classifier=ThresholdClassifier(0.99)
            )
            if tuning:
                pipeline = SelfTuningERPipeline(
                    config,
                    BetaController(target_comparisons=2, interval=5, smoothing=0.5),
                )
                pipeline.process_many(self._noisy_stream(400))
                return pipeline.pipeline.cg.generated
            static = SelfTuningERPipeline(
                config, BetaController(target_comparisons=1e9, interval=5)
            )
            static.process_many(self._noisy_stream(400))
            return static.pipeline.cg.generated

        assert run(tuning=True) < run(tuning=False)

    def test_matches_still_found_while_tuning(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        config = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            classifier=ThresholdClassifier(0.6),
        )
        tuned = SelfTuningERPipeline(
            config, BetaController(target_comparisons=30, interval=20)
        )
        matches = tuned.process_many(ds.stream())
        assert matches  # duplicates still detected under adaptation
