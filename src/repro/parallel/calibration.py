"""Calibrating the simulator from real measurements.

The simulator is only as honest as its inputs; this module owns the one
supported calibration path: run the sequential pipeline with an enabled
metrics registry over real (or realistic) entities, read its per-stage
service totals back from the registry
(:func:`~repro.observability.instrument.stage_seconds`), convert them into
per-entity means, and derive the default machine parameters the
reproduction uses everywhere (per-message overhead = 5% of the mean
per-entity cost, buffer capacity 16 — the Akka Streams default).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import StreamERConfig
from repro.core.pipeline import StreamERPipeline
from repro.core.stages import STAGE_ORDER
from repro.errors import ConfigurationError
from repro.observability.instrument import stage_seconds
from repro.parallel.simulator import ServiceModel, SimulatorConfig
from repro.types import EntityDescription


def calibrate_service_model(
    entities: Sequence[EntityDescription],
    config: StreamERConfig,
    cv: float = 1.0,
    seed: int = 2021,
) -> ServiceModel:
    """Measure per-stage service times by running the real pipeline.

    Returns a :class:`ServiceModel` whose per-stage means are the
    registry's ``er_stage_service_seconds{stage}`` sums divided by the
    number of entities, with lognormal variability
    of coefficient ``cv`` around them.
    """
    if not entities:
        raise ConfigurationError("need at least one entity to calibrate")
    pipeline = StreamERPipeline(config, instrument=True)
    pipeline.process_many(entities)
    n = len(entities)
    seconds = stage_seconds(pipeline.registry)
    means = {stage: seconds.get(stage, 0.0) / n for stage in STAGE_ORDER}
    return ServiceModel(mean_seconds=means, cv=cv, seed=seed)


def default_simulator_config(
    service: ServiceModel,
    micro_batch_size: int = 1,
    cores: int = 16,
) -> SimulatorConfig:
    """The reproduction's standard machine model for a service profile.

    Per-message overhead is 5% of the mean per-entity cost; plain runs use
    buffer capacity 16, micro-batched runs 1.5× the batch size (batches
    must be able to form).
    """
    capacity = 16 if micro_batch_size <= 1 else max(16, int(micro_batch_size * 1.5))
    return SimulatorConfig(
        cores=cores,
        comm_overhead=0.05 * service.mean_total(),
        buffer_capacity=capacity,
        micro_batch_size=micro_batch_size,
    )
