"""Task-parallel framework: allocation, executors, supervision, simulator."""

from repro.parallel.allocation import (
    FIXED_STAGES,
    SCALABLE_STAGES,
    PartitionPlan,
    allocate_processes,
    bottleneck_time,
    paper_example_times,
    plan_partitions,
)
from repro.parallel.calibration import calibrate_service_model, default_simulator_config
from repro.parallel.faults import FaultInjector, FaultPlan, FaultSpec, wrap_stages
from repro.parallel.framework import ParallelERPipeline, ParallelRunResult
from repro.parallel.mp_framework import MultiprocessERPipeline
from repro.parallel.supervision import Supervisor, extract_entity_id, format_liveness
from repro.parallel.simulator import (
    PipelineSimulator,
    ServiceModel,
    SimulationResult,
    SimulatorConfig,
    simulate_speedup,
)

__all__ = [
    "allocate_processes",
    "bottleneck_time",
    "paper_example_times",
    "plan_partitions",
    "PartitionPlan",
    "FIXED_STAGES",
    "SCALABLE_STAGES",
    "ParallelERPipeline",
    "ParallelRunResult",
    "MultiprocessERPipeline",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "wrap_stages",
    "Supervisor",
    "extract_entity_id",
    "format_liveness",
    "calibrate_service_model",
    "default_simulator_config",
    "PipelineSimulator",
    "ServiceModel",
    "SimulatorConfig",
    "SimulationResult",
    "simulate_speedup",
]
