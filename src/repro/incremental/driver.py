"""The incremental-setting comparison harness of §V-B (Figure 10).

Splits a dataset into equally sized increments and processes them with the
four competing approaches:

* ``I-WNP`` — our stream pipeline (block cleaning + comparison cleaning);
* ``I-WNP (No BC)`` — our pipeline without block cleaning;
* ``Batch`` — the batch baseline recomputed per increment (previously
  executed comparisons skipped);
* ``PI-Block`` — the incremental meta-blocking baseline (no block
  cleaning by design).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.batch.pipeline import BatchERConfig, IncrementalBatchER
from repro.classification.classifiers import Classifier
from repro.core.config import StreamERConfig
from repro.core.pipeline import StreamERPipeline
from repro.datasets.generators import GeneratedDataset
from repro.evaluation.metrics import pair_completeness
from repro.piblock.piblock import PIBlockConfig, PIBlockER
from repro.types import EntityDescription, EntityId

Pair = tuple[EntityId, EntityId]

APPROACHES: tuple[str, ...] = ("I-WNP", "I-WNP (No BC)", "Batch", "PI-Block")


@dataclass
class IncrementalRun:
    """Outcome of processing all increments with one approach."""

    approach: str
    n_increments: int
    total_seconds: float
    per_increment_seconds: list[float] = field(default_factory=list)
    pair_completeness: float = 0.0
    matches_found: int = 0


def _run_stream(
    approach: str,
    increments: Sequence[Sequence[EntityDescription]],
    dataset: GeneratedDataset,
    classifier: Classifier,
    alpha_fraction: float,
    beta: float,
) -> IncrementalRun:
    enable_bc = approach == "I-WNP"
    config = StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(dataset), alpha_fraction),
        beta=beta,
        enable_block_cleaning=enable_bc,
        clean_clean=dataset.clean_clean,
        classifier=classifier,
    )
    # The plan drops the ``bg`` node entirely for the No-BC variant.
    pipeline = StreamERPipeline(config, instrument=False)
    per_increment: list[float] = []
    for increment in increments:
        start = time.perf_counter()
        pipeline.process_many(increment)
        per_increment.append(time.perf_counter() - start)
    pairs = pipeline.cl.matches.pairs()
    return IncrementalRun(
        approach=approach,
        n_increments=len(increments),
        total_seconds=sum(per_increment),
        per_increment_seconds=per_increment,
        pair_completeness=pair_completeness(pairs, dataset.ground_truth),
        matches_found=len(pairs),
    )


def _run_batch(
    increments: Sequence[Sequence[EntityDescription]],
    dataset: GeneratedDataset,
    classifier: Classifier,
) -> IncrementalRun:
    config = BatchERConfig(
        r=0.005, s=0.5, weighting="CBS", pruning="WNP",
        clean_clean=dataset.clean_clean, classifier=classifier,
    )
    runner = IncrementalBatchER(config)
    per_increment: list[float] = []
    for increment in increments:
        start = time.perf_counter()
        runner.process_increment(increment)
        per_increment.append(time.perf_counter() - start)
    pairs = runner.match_pairs
    return IncrementalRun(
        approach="Batch",
        n_increments=len(increments),
        total_seconds=sum(per_increment),
        per_increment_seconds=per_increment,
        pair_completeness=pair_completeness(pairs, dataset.ground_truth),
        matches_found=len(pairs),
    )


def _run_piblock(
    increments: Sequence[Sequence[EntityDescription]],
    dataset: GeneratedDataset,
    classifier: Classifier,
) -> IncrementalRun:
    runner = PIBlockER(PIBlockConfig(clean_clean=dataset.clean_clean, classifier=classifier))
    per_increment: list[float] = []
    for increment in increments:
        start = time.perf_counter()
        runner.process_increment(increment)
        per_increment.append(time.perf_counter() - start)
    pairs = runner.match_pairs
    return IncrementalRun(
        approach="PI-Block",
        n_increments=len(increments),
        total_seconds=sum(per_increment),
        per_increment_seconds=per_increment,
        pair_completeness=pair_completeness(pairs, dataset.ground_truth),
        matches_found=len(pairs),
    )


def run_incremental_comparison(
    dataset: GeneratedDataset,
    n_increments: int,
    classifier: Classifier,
    approaches: Sequence[str] = APPROACHES,
    alpha_fraction: float = 0.05,
    beta: float = 0.05,
) -> list[IncrementalRun]:
    """Run the requested approaches over ``n_increments`` equal increments."""
    increments = dataset.increments(n_increments)
    runs: list[IncrementalRun] = []
    for approach in approaches:
        if approach in ("I-WNP", "I-WNP (No BC)"):
            runs.append(
                _run_stream(approach, increments, dataset, classifier, alpha_fraction, beta)
            )
        elif approach == "Batch":
            runs.append(_run_batch(increments, dataset, classifier))
        elif approach == "PI-Block":
            runs.append(_run_piblock(increments, dataset, classifier))
        else:
            raise ValueError(f"unknown approach {approach!r}")
    return runs
