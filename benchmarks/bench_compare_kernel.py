"""Interned comparison kernel vs the string-set baseline, sequential.

The tentpole claim of the interning layer is that the comparison stage —
the pipeline's dominant cost (Figure 6) — gets ≥ 2× faster *without
changing a single match*: token ids, batched scoring, the length prefilter
and threshold-aware verification are pure execution-strategy changes, and
the match set is provably identical (see ``docs/performance.md`` for the
derivation).  This benchmark measures both halves of that claim on the
same ≥ 20 000-entity generated dataset as ``bench_sharded_backend.py``:

* sequential ``f_co``-stage throughput, string comparator vs interned
  kernel (prefilter on and off), from the instrumented pipeline's
  per-stage timings;
* exact match-set equality across the comparators.

(The multiprocess executor against sequential is measured end to end by
``benchmarks/e2e/run.py``, workload ``mp_bulk_updates_20k``.)

Measurements land in ``BENCH_compare_kernel.json`` at the repository root.
Run directly for the CI smoke mode, which exits nonzero on any match-set
divergence and ignores timing entirely (timing thresholds on shared CI
hardware only produce noise)::

    PYTHONPATH=src python benchmarks/bench_compare_kernel.py --entities 2000 --smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import effective_cpus, save_result

from repro.classification import ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.datasets import DatasetSpec, generate
from repro.evaluation import format_table

N_ENTITIES = 20_000
THRESHOLD = 0.7
#: Sequential runs repeat this many times and keep the fastest — on shared
#: hosts the run-to-run spread of a 20k-entity pipeline is ±15%, and the
#: minimum is the standard low-noise estimator for CPU-bound loops.
SEQ_REPS = 5
CO_SPEEDUP_TARGET = 2.0
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_compare_kernel.json"


def _dataset(n_entities: int):
    return generate(
        DatasetSpec(
            name="bench-compare-kernel",
            kind="dirty",
            size=n_entities,
            matches=max(1, int(n_entities * 0.3)),
            avg_attributes=4.0,
            # Moderate size skew is the regime the length prefilter targets:
            # uniform profiles never trip a |a|/|b| < t bound, wildly skewed
            # ones shrink the comparison lists themselves.
            heterogeneity=0.5,
            vocab_rare=30_000,
            seed=7,
        )
    )


def _base_kwargs(ds) -> dict:
    return {
        "alpha": StreamERConfig.alpha_for(len(ds), 0.05),
        "beta": 0.05,
        "clean_clean": ds.clean_clean,
        "classifier": ThresholdClassifier(THRESHOLD),
    }


def _run_sequential(config: StreamERConfig, entities, reps: int = SEQ_REPS) -> dict:
    seconds = co_seconds = float("inf")
    pipeline = None
    for _ in range(reps):
        start = time.perf_counter()
        candidate = StreamERPipeline(config, instrument=True)
        candidate.process_many(entities)
        elapsed = time.perf_counter() - start
        seconds = min(seconds, elapsed)
        co_seconds = min(co_seconds, candidate.timings.seconds.get("co", 0.0))
        pipeline = candidate
    compared = pipeline.co.compared
    return {
        "seconds": round(seconds, 3),
        "co_seconds": round(co_seconds, 3),
        "co_pairs_per_second": round(compared / co_seconds, 1) if co_seconds else 0.0,
        "comparisons_executed": compared,
        "matches": len(pipeline.cl.matches.pairs()),
        "pairs": pipeline.cl.matches.pairs(),
    }


def run_benchmark(n_entities: int = N_ENTITIES) -> dict:
    ds = _dataset(n_entities)
    entities = list(ds.stream())

    seq_string = _run_sequential(StreamERConfig(**_base_kwargs(ds)), entities)
    seq_interned = _run_sequential(StreamERConfig.interned(**_base_kwargs(ds)), entities)
    seq_noprefilter = _run_sequential(
        StreamERConfig.interned(prefilter=False, **_base_kwargs(ds)), entities
    )
    co_speedup = (
        seq_string["co_seconds"] / seq_interned["co_seconds"]
        if seq_interned["co_seconds"]
        else 0.0
    )
    return {
        "benchmark": "compare_kernel",
        "entities": len(entities),
        "threshold": THRESHOLD,
        "effective_cpus": effective_cpus(),
        "sequential_string": _public(seq_string),
        "sequential_interned": _public(seq_interned),
        "sequential_interned_noprefilter": _public(seq_noprefilter),
        "co_speedup": round(co_speedup, 3),
        "co_speedup_target": CO_SPEEDUP_TARGET,
        "co_speedup_target_met": co_speedup >= CO_SPEEDUP_TARGET,
        "comparisons": {
            "string_vs_interned": {
                "match_sets_identical": seq_string["pairs"] == seq_interned["pairs"]
                and seq_string["pairs"] == seq_noprefilter["pairs"],
            },
        },
    }


def _public(run: dict) -> dict:
    """The JSON view of one sequential run (the raw pair set stays local)."""
    return {k: v for k, v in run.items() if k != "pairs"}


def _report(payload: dict) -> None:
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    rows = [
        {
            "run": name,
            "seconds": payload[key]["seconds"],
            "co_seconds": payload[key].get("co_seconds", "-"),
            "matches": payload[key]["matches"],
        }
        for name, key in (
            ("seq string", "sequential_string"),
            ("seq interned", "sequential_interned"),
            ("seq interned (no prefilter)", "sequential_interned_noprefilter"),
        )
    ]
    save_result(
        "compare_kernel",
        format_table(rows)
        + f"\nco speedup: {payload['co_speedup']}x"
        + f" on {payload['effective_cpus']} cpu(s)"
        + f"\n[saved to {RESULT_PATH}]",
    )


def test_compare_kernel(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    payload = run_benchmark()
    _report(payload)

    # Interning must never change the answer, on any hardware.
    assert payload["comparisons"]["string_vs_interned"]["match_sets_identical"]
    assert payload["entities"] >= 20_000
    assert payload["co_speedup_target_met"], payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entities", type=int, default=N_ENTITIES)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="correctness only: fail on match-set divergence; ignore timing",
    )
    args = parser.parse_args(argv)

    payload = run_benchmark(args.entities)
    if args.smoke:
        print(json.dumps(payload["comparisons"], indent=2))
        print(f"co_speedup={payload['co_speedup']} (informational in smoke mode)")
        if not payload["comparisons"]["string_vs_interned"]["match_sets_identical"]:
            print("FAIL: interned kernel diverged from the string-set match set")
            return 1
        print("OK: match sets identical across comparators")
        return 0
    _report(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
