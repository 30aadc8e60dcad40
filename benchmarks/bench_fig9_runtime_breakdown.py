"""Figure 9 — runtime breakdown: blocking (BT), comparison cleaning (CCT),
end-to-end (RT), as a function of the comparisons left after block cleaning.

Reported for cddb (representative small dataset) and dbpedia (largest), as
in the paper.  Expected shape: on the big dataset, baseline comparison
cleaning (meta-blocking over a materialized graph) grows superlinearly and
comes to dominate its blocking time, while our CC stays at-or-below our
blocking time — which is how the end-to-end runtime wins at scale despite
weaker pruning.  The paper's full effect (baseline CCT > 10·BT) needs the
full 3.3M-entity dbpedia; at reproduction scale we show the trend by
measuring the breakdown at two scales and reporting the growth factors.
"""

from __future__ import annotations

from common import bench_dataset, oracle_config, save_result

from repro.batch import BatchERConfig, BatchERPipeline
from repro.classification import OracleClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.datasets import load, oracle_for
from repro.evaluation import format_table, scientific
from repro.observability import stage_seconds

BASELINE_CONFIGS = (
    (0.005, 0.1, "CBS", "WNP"),
    (0.005, 0.5, "CBS", "WNP"),
    (0.005, 0.5, "CBS", "RCNP"),
    (0.05, 0.5, "CBS", "WNP"),
)
OUR_CONFIGS = ((0.005, 0.1), (0.005, 0.05), (0.05, 0.05))

#: dbpedia scales for the growth-trend measurement.
DBPEDIA_SCALES = (0.008, 0.02)


def baseline_rows(name: str) -> list[dict[str, object]]:
    ds = bench_dataset(name)
    oracle = OracleClassifier.from_pairs(ds.ground_truth)
    rows = []
    for r, s, weighting, pruning in BASELINE_CONFIGS:
        config = BatchERConfig(
            r=r, s=s, weighting=weighting, pruning=pruning,
            clean_clean=ds.clean_clean, classifier=oracle,
        )
        result = BatchERPipeline(config).run(ds.entities)
        rows.append(
            {
                "dataset": name,
                "approach": config.label(),
                "comparisons_after_bc": scientific(result.comparisons_after_bc),
                "BT_s": round(result.blocking_seconds, 3),
                "CCT_s": round(result.cleaning_seconds, 3),
                "RT_s": round(result.resolution_seconds, 3),
                "CCT/BT": round(
                    result.cleaning_seconds / max(result.blocking_seconds, 1e-9), 2
                ),
            }
        )
    return rows


def our_breakdown(pipeline: StreamERPipeline, elapsed: float) -> tuple[float, float]:
    t = stage_seconds(pipeline.registry)
    bt = sum(t.get(s, 0.0) for s in ("dr", "bb+bp", "bg", "cg", "lm"))
    return bt, t.get("cc", 0.0)


def our_rows(name: str) -> list[dict[str, object]]:
    ds = bench_dataset(name)
    rows = []
    for fraction, beta in OUR_CONFIGS:
        pipeline = StreamERPipeline(
            oracle_config(ds, alpha_fraction=fraction, beta=beta), instrument=True
        )
        result = pipeline.process_many(ds.stream())
        bt, cct = our_breakdown(pipeline, result.elapsed_seconds)
        rows.append(
            {
                "dataset": name,
                "approach": f"I-WNP a={fraction}|D| b={beta}",
                "comparisons_after_bc": scientific(result.comparisons_generated),
                "BT_s": round(bt, 3),
                "CCT_s": round(cct, 3),
                "RT_s": round(result.elapsed_seconds, 3),
                "CCT/BT": round(cct / max(bt, 1e-9), 2),
            }
        )
    return rows


def scaling_rows() -> list[dict[str, object]]:
    """dbpedia at two scales: baseline CCT grows superlinearly, ours doesn't."""
    rows = []
    for scale in DBPEDIA_SCALES:
        ds = load("dbpedia", scale=scale)
        oracle = oracle_for(ds.ground_truth)
        config = BatchERConfig(
            r=0.005, s=0.5, weighting="CBS", pruning="WNP",
            clean_clean=True, classifier=oracle,
        )
        base = BatchERPipeline(config).run(ds.entities)
        rows.append(
            {
                "dataset": f"dbpedia@{scale}",
                "approach": "baseline " + config.label(),
                "comparisons_after_bc": scientific(base.comparisons_after_bc),
                "BT_s": round(base.blocking_seconds, 3),
                "CCT_s": round(base.cleaning_seconds, 3),
                "RT_s": round(base.resolution_seconds, 3),
                "CCT/BT": round(
                    base.cleaning_seconds / max(base.blocking_seconds, 1e-9), 2
                ),
            }
        )
        stream_cfg = StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.005),
            beta=0.05,
            clean_clean=True,
            classifier=oracle,
        )
        pipeline = StreamERPipeline(stream_cfg, instrument=True)
        result = pipeline.process_many(ds.stream())
        bt, cct = our_breakdown(pipeline, result.elapsed_seconds)
        rows.append(
            {
                "dataset": f"dbpedia@{scale}",
                "approach": "I-WNP a=0.005|D| b=0.05",
                "comparisons_after_bc": scientific(result.comparisons_generated),
                "BT_s": round(bt, 3),
                "CCT_s": round(cct, 3),
                "RT_s": round(result.elapsed_seconds, 3),
                "CCT/BT": round(cct / max(bt, 1e-9), 2),
            }
        )
    return rows


def test_fig9_runtime_breakdown(benchmark):
    benchmark.pedantic(lambda: our_rows("cddb"), rounds=1, iterations=1)

    all_rows: list[dict[str, object]] = []
    all_rows.extend(baseline_rows("cddb"))
    all_rows.extend(our_rows("cddb"))
    scaling = scaling_rows()
    all_rows.extend(scaling)
    save_result("fig9_runtime_breakdown", format_table(all_rows))

    # Our comparison cleaning never exceeds our blocking time (paper: "CC is
    # actually faster or comparable to blocking when using our solutions").
    ours = [r for r in all_rows if "I-WNP" in str(r["approach"])]
    assert all(float(r["CCT/BT"]) <= 1.5 for r in ours), ours

    # Growth trend (the meta-blocking graph effect): scaling the data up
    # inflates the baseline's CCT relative to its blocking time, while our
    # comparison-cleaning cost per retained comparison stays flat.
    base_small, ours_small, base_big, ours_big = (
        scaling[0], scaling[1], scaling[2], scaling[3],
    )
    assert float(base_big["CCT/BT"]) > float(base_small["CCT/BT"]), scaling

    def cct_per_comparison(row) -> float:
        return float(row["CCT_s"]) / float(row["comparisons_after_bc"])

    ours_unit_growth = cct_per_comparison(ours_big) / max(
        cct_per_comparison(ours_small), 1e-12
    )
    assert ours_unit_growth < 1.5, ours_unit_growth  # linear in comparisons
