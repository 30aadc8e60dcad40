"""Ablation — the two halves of stream block cleaning.

DESIGN.md calls out block pruning (α, Algorithm 1) and block ghosting
(β, Algorithm 2) as separate design choices; the paper always evaluates
them together.  This ablation runs the pipeline with each half disabled
in turn and reports comparisons, quality, and runtime:

* none — no block cleaning at all (the "I-WNP (No BC)" degraded variant);
* pruning-only — oversized blocks blacklisted, no per-entity ghosting;
* ghosting-only — per-entity key filtering, global blocks untouched;
* both — the full framework.
"""

from __future__ import annotations

from common import bench_dataset, oracle_config, save_result

from repro.core import StreamERPipeline
from repro.evaluation import format_table, pair_completeness

VARIANTS = ("none", "pruning-only", "ghosting-only", "both")


def run_variant(name: str, variant: str) -> dict[str, object]:
    ds = bench_dataset(name)
    # Without block cleaning the plan drops the bg node (no ghosting) and
    # turns bb+bp's pruning off; pruning is then toggled on the stage.
    config = oracle_config(
        ds, enable_block_cleaning=variant in ("ghosting-only", "both")
    )
    pipeline = StreamERPipeline(config, instrument=False)
    pipeline.bb.enabled = variant in ("pruning-only", "both")
    result = pipeline.process_many(ds.stream())
    pc = pair_completeness(result.match_pairs, ds.ground_truth)
    return {
        "dataset": name,
        "variant": variant,
        "comparisons": result.comparisons_generated,
        "after_cc": result.comparisons_after_cleaning,
        "PC": round(pc, 3),
        "rt_s": round(result.elapsed_seconds, 3),
    }


def test_ablation_block_cleaning(benchmark):
    benchmark.pedantic(
        lambda: run_variant("movies", "both"), rounds=1, iterations=1
    )

    rows = [
        run_variant(name, variant)
        for name in ("ag", "movies")
        for variant in VARIANTS
    ]
    save_result("ablation_block_cleaning", format_table(rows))

    for name in ("ag", "movies"):
        by = {r["variant"]: r for r in rows if r["dataset"] == name}
        # Each half prunes on its own; together they prune the most.
        assert by["both"]["comparisons"] <= by["pruning-only"]["comparisons"]
        assert by["both"]["comparisons"] <= by["ghosting-only"]["comparisons"]
        assert by["pruning-only"]["comparisons"] <= by["none"]["comparisons"]
        assert by["ghosting-only"]["comparisons"] <= by["none"]["comparisons"]
        # Cleaning trades (a little) completeness for the workload cut.
        assert by["none"]["PC"] >= by["both"]["PC"]
