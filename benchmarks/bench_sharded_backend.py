"""Sharded-state overhead: the same stream on ShardedBackend vs in memory.

The claim of the backend seam is that hash-partitioned state is a pure
representation change (identical matches).  A ``ShardedBackend`` publishes
no shared-memory columns, so the multiprocess executor resolves every
entity in the parent (``partition_blockers`` says why) — what this
benchmark times is therefore the cost of the sharded stores themselves,
end to end on a generated dataset of ≥ 20 000 entities, against the plain
sequential pipeline.  Measurements go to ``BENCH_sharded.json`` at the
repository root; only match-set equality is asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from common import effective_cpus, save_result

from repro.classification import OracleClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.core.backends import ShardedBackend
from repro.datasets import DatasetSpec, generate
from repro.evaluation import format_table
from repro.parallel import MultiprocessERPipeline

N_ENTITIES = 20_000
SHARDS = 4
WORKERS = 2
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sharded.json"


def _dataset():
    return generate(
        DatasetSpec(
            name="bench-sharded",
            kind="dirty",
            size=N_ENTITIES,
            matches=6_000,
            avg_attributes=4.0,
            heterogeneity=0.3,
            vocab_rare=30_000,
            seed=7,
        )
    )


def _config(ds) -> StreamERConfig:
    return StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(ds), 0.05),
        beta=0.05,
        clean_clean=ds.clean_clean,
        classifier=OracleClassifier.from_pairs(ds.ground_truth),
    )


def run_benchmark() -> dict:
    ds = _dataset()
    entities = list(ds.stream())

    start = time.perf_counter()
    sequential = StreamERPipeline(_config(ds), instrument=False)
    seq_result = sequential.process_many(entities)
    seq_seconds = time.perf_counter() - start
    seq_pairs = sequential.cl.matches.pairs()

    start = time.perf_counter()
    parallel = MultiprocessERPipeline(
        _config(ds),
        workers=WORKERS,
        backend=ShardedBackend(SHARDS),
    )
    par_result = parallel.run(entities)
    par_seconds = time.perf_counter() - start
    par_pairs = parallel.backend.matches.pairs()

    speedup = seq_seconds / par_seconds if par_seconds > 0 else 0.0
    return {
        "benchmark": "sharded_backend_scaling",
        "entities": len(entities),
        "shards": SHARDS,
        "workers": WORKERS,
        "partitioned_dispatch": parallel.partitioned_dispatch,
        "effective_cpus": effective_cpus(),
        "sequential": {
            "seconds": round(seq_seconds, 3),
            "entities_per_second": round(len(entities) / seq_seconds, 1),
            "comparisons_executed": seq_result.comparisons_after_cleaning,
            "matches": len(seq_pairs),
        },
        "multiprocess_sharded": {
            "seconds": round(par_seconds, 3),
            "entities_per_second": round(len(entities) / par_seconds, 1),
            "comparisons_executed": par_result.comparisons_after_cleaning,
            "matches": len(par_pairs),
        },
        "speedup": round(speedup, 3),
        "match_sets_identical": par_pairs == seq_pairs,
    }


def test_sharded_backend_scaling(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    payload = run_benchmark()
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    rows = [
        {
            "executor": "sequential",
            "seconds": payload["sequential"]["seconds"],
            "e_per_s": payload["sequential"]["entities_per_second"],
            "matches": payload["sequential"]["matches"],
        },
        {
            "executor": f"mp x{WORKERS} + sharded x{SHARDS}",
            "seconds": payload["multiprocess_sharded"]["seconds"],
            "e_per_s": payload["multiprocess_sharded"]["entities_per_second"],
            "matches": payload["multiprocess_sharded"]["matches"],
        },
    ]
    save_result(
        "sharded_backend",
        format_table(rows)
        + f"\nspeedup: {payload['speedup']}x on {payload['effective_cpus']} cpu(s)"
        + f"\n[saved to {RESULT_PATH}]",
    )

    # Sharding must never change the answer, on any hardware.
    assert payload["match_sets_identical"]
    assert payload["entities"] >= 20_000
