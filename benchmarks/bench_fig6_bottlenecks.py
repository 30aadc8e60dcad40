"""Figure 6 — computation bottlenecks of the sequential pipeline.

Runs the sequential pipeline with an enabled metrics registry over every
dataset with the paper's parameters (β = 0.05; α = 0.005·|D| for dbpedia,
else 0.05·|D|) and reports each stage's share of the total stage service
time (``er_stage_service_seconds{stage}``, read with ``stage_seconds``).  The paper's finding:
``f_co`` and ``f_cc`` are the main bottlenecks, followed by ``f_cg`` on
the biggest dataset and ``f_bb+bp`` on the small ones.
"""

from __future__ import annotations

from common import bench_dataset, oracle_config, save_result

from repro.core import StreamERPipeline
from repro.core.stages import STAGE_ORDER
from repro.datasets import DATASET_NAMES
from repro.evaluation import format_table
from repro.observability import stage_seconds


def run_instrumented(name: str) -> tuple[dict[str, float], float]:
    ds = bench_dataset(name)
    alpha_fraction = 0.005 if name == "dbpedia" else 0.05
    pipeline = StreamERPipeline(oracle_config(ds, alpha_fraction), instrument=True)
    pipeline.process_many(ds.stream())
    seconds = stage_seconds(pipeline.registry)
    total = sum(seconds.values())
    return {stage: t / total for stage, t in seconds.items()}, total


def test_fig6_stage_shares(benchmark):
    shares_by_dataset: dict[str, dict[str, float]] = {}
    totals: dict[str, float] = {}
    for name in DATASET_NAMES:
        if name == "cora":
            share, total = benchmark.pedantic(
                lambda: run_instrumented("cora"), rounds=1, iterations=1
            )
        else:
            share, total = run_instrumented(name)
        shares_by_dataset[name] = share
        totals[name] = total

    rows = []
    for name, share in shares_by_dataset.items():
        row: dict[str, object] = {"dataset": name, "total_s": round(totals[name], 3)}
        for stage in STAGE_ORDER:
            row[stage] = round(share.get(stage, 0.0), 3)
        rows.append(row)
    save_result("fig6_bottlenecks", format_table(rows))

    # Paper's qualitative finding on the biggest dataset: co and cc are the
    # top bottlenecks among all stages.
    big = shares_by_dataset["dbpedia"]
    top_two = sorted(big, key=big.get, reverse=True)[:2]  # type: ignore[arg-type]
    assert set(top_two) == {"co", "cc"}
