"""Command-line interface: resolve files, link catalogs, generate data.

Subcommands
-----------
``dedupe``    Dirty ER over one CSV/JSON-lines file; prints matched pairs
              (optionally clusters) as JSON lines.
``link``      Clean-clean ER across two files.
``generate``  Emit a synthetic catalog dataset (entities as JSON lines,
              ground truth alongside) for experimentation.
``metrics``   Run a file through a chosen executor with the metrics
              registry enabled and print the Prometheus text exposition
              (or a JSON snapshot) of the run.
``check``     Run the correctness oracle suite — metamorphic relations
              plus runtime invariants — for a seed; non-zero exit on any
              violation, with the shrunk minimal counterexample and a
              replay command printed.
``resume``    Continue a crashed (or suspended) durable ``dedupe`` run
              from its WAL directory: recover state, re-feed the
              unlogged suffix of the input, print the full final
              match set.

Examples
--------
    repro-er dedupe products.csv --threshold 0.6 --clusters
    repro-er dedupe products.csv --wal-dir ./run --checkpoint-every 500
    repro-er resume ./run products.csv
    repro-er link shop_a.csv shop_b.jsonl --alpha-fraction 0.05
    repro-er generate cora --scale 0.5 --out cora.jsonl
    repro-er metrics products.csv --executor thread --format prometheus
    repro-er check --seed 2021 --examples 10
    repro-er check --seed 2021 --property resume-equals-uninterrupted
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

from repro.classification import ThresholdClassifier
from repro.clustering import IncrementalClusterer
from repro.core import DurableBackend, StreamERConfig, StreamERPipeline, combine
from repro.datasets import DATASET_NAMES, load, save_ground_truth
from repro.errors import ReproError
from repro.reading.sources import read_csv, read_jsonl
from repro.types import EntityDescription, EntityId


def _read_file(path: str, source: str | None = None) -> Iterable[EntityDescription]:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return read_jsonl(path, source=source)
    return read_csv(path, source=source)


def _encode_id(eid: EntityId) -> object:
    if isinstance(eid, tuple):
        return list(eid)
    return eid


#: Floor for the derived block-pruning bound: on small inputs a strict
#: fraction of |D| would prune every block of size 2 and find nothing.
MIN_ALPHA = 25


def _config(
    args: argparse.Namespace,
    dataset_size: int,
    clean_clean: bool,
    interned: bool = False,
) -> StreamERConfig:
    alpha = max(
        MIN_ALPHA, StreamERConfig.alpha_for(max(dataset_size, 2), args.alpha_fraction)
    )
    return (StreamERConfig.interned if interned else StreamERConfig)(
        alpha=alpha,
        beta=args.beta,
        clean_clean=clean_clean,
        classifier=ThresholdClassifier(args.threshold),
    )


def _emit(record: dict, out) -> None:
    out.write(json.dumps(record) + "\n")


def cmd_dedupe(args: argparse.Namespace, out) -> int:
    entities = list(_read_file(args.file))
    if not entities:
        print("no entities found", file=sys.stderr)
        return 1
    config = _config(args, len(entities), False)
    backend = None
    if args.wal_dir is not None:
        backend = DurableBackend.open(
            args.wal_dir,
            config,
            checkpoint_every=args.checkpoint_every,
            fsync=args.fsync,
        )
    pipeline = StreamERPipeline(config, instrument=False, backend=backend)
    clusterer = IncrementalClusterer()
    for entity, matches in pipeline.stream(entities):
        if args.throttle:
            time.sleep(args.throttle)
        for match in matches:
            clusterer.add_match(match)
            if not args.clusters:
                _emit(
                    {
                        "left": _encode_id(match.left),
                        "right": _encode_id(match.right),
                        "similarity": round(match.similarity, 4),
                    },
                    out,
                )
    pipeline.close()
    if args.clusters:
        for cluster in clusterer.clusters():
            _emit({"cluster": [_encode_id(e) for e in sorted(cluster, key=repr)]}, out)
    summary = pipeline.summary()
    print(
        f"processed {summary.entities_processed} entities, "
        f"{len(summary.matches)} matches, "
        f"{summary.comparisons_after_cleaning} comparisons",
        file=sys.stderr,
    )
    return 0


def cmd_link(args: argparse.Namespace, out) -> int:
    left = list(_read_file(args.left))
    right = list(_read_file(args.right))
    if not left or not right:
        print("both inputs must be non-empty", file=sys.stderr)
        return 1
    stream = list(combine(left, right))
    pipeline = StreamERPipeline(_config(args, len(stream), True), instrument=False)
    for _, matches in pipeline.stream(stream):
        for match in matches:
            _emit(
                {
                    "left": _encode_id(match.left),
                    "right": _encode_id(match.right),
                    "similarity": round(match.similarity, 4),
                },
                out,
            )
    summary = pipeline.summary()
    print(
        f"linked {len(summary.matches)} pairs across "
        f"{len(left)}+{len(right)} records",
        file=sys.stderr,
    )
    return 0


def cmd_profile(args: argparse.Namespace, out) -> int:
    from repro.reading import profile_dataset

    entities = list(_read_file(args.file))
    if not entities:
        print("no entities found", file=sys.stderr)
        return 1
    report = profile_dataset(entities)
    _emit(
        {
            "entities": report.entities,
            "distinct_attributes": report.distinct_attributes,
            "avg_attributes_per_entity": round(report.avg_attributes_per_entity, 2),
            "attribute_sparsity": round(report.attribute_sparsity, 3),
            "distinct_tokens": report.distinct_tokens,
            "avg_tokens_per_entity": round(report.avg_tokens_per_entity, 2),
            "token_gini": round(report.token_gini, 3),
            "heterogeneity_index": round(report.heterogeneity_index, 3),
        },
        out,
    )
    print(report.summary(), file=sys.stderr)
    return 0


def cmd_metrics(args: argparse.Namespace, out) -> int:
    from repro.observability import MetricsRegistry, to_json, to_prometheus

    entities = list(_read_file(args.file))
    if not entities:
        print("no entities found", file=sys.stderr)
        return 1
    registry = MetricsRegistry()
    # mp gets the eligible wiring (interned kernel on shared columns), so
    # the comparison tails really run on the worker processes.
    config = _config(args, len(entities), False, interned=args.executor == "mp")
    if args.executor == "seq":
        pipeline = StreamERPipeline(config, instrument=False, registry=registry)
        pipeline.process_many(entities, on_error="dead_letter")
    elif args.executor == "thread":
        from repro.parallel import ParallelERPipeline

        pipeline = ParallelERPipeline(
            config, processes=args.processes, registry=registry
        )
        pipeline.run(entities)
    else:  # mp
        from repro.core.backends import SharedMemoryBackend
        from repro.parallel import MultiprocessERPipeline

        with SharedMemoryBackend() as backend, MultiprocessERPipeline(
            config,
            workers=max(2, args.processes // 4),
            backend=backend,
            registry=registry,
            partitioned=True,
        ) as pipeline:
            pipeline.run(entities)
    if args.format == "prometheus":
        text = to_prometheus(registry)
    else:
        text = json.dumps(to_json(registry), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        out.write(text)
    print(
        f"{args.executor} run over {len(entities)} entities: "
        f"{len(registry.names())} metric families",
        file=sys.stderr,
    )
    return 0


def cmd_check(args: argparse.Namespace, out) -> int:
    from repro.proptest import (
        relation_names,
        replay_command,
        run_suite,
        self_test_relation,
    )

    if args.list:
        from repro.invariants import all_invariants

        for name in relation_names():
            out.write(name + "\n")
        invariants = all_invariants()
        print(f"{len(invariants)} runtime invariants:", file=sys.stderr)
        for inv in invariants:
            where = f"{inv.scope}:{inv.stage}" if inv.stage else inv.scope
            print(f"  {inv.name} [{where}] {inv.description}", file=sys.stderr)
        return 0
    extra = []
    names = list(args.property) if args.property else None
    if args.self_test_failure and (names is None or "self-test-failure" not in names):
        names = (names or []) + ["self-test-failure"]
    if names and "self-test-failure" in names:
        # A printed replay command names the relation directly; keep it
        # resolvable without also passing --self-test-failure.
        extra.append(self_test_relation())
    try:
        report = run_suite(
            seed=args.seed,
            examples=args.examples,
            names=names,
            extra_relations=extra,
            shrink_budget=args.shrink_budget,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    for prop in report.reports:
        status = "ok" if prop.ok else "FAIL"
        print(f"{prop.name}: {status} ({prop.examples} examples)", file=sys.stderr)
    failures = report.failures()
    if not failures:
        print(f"all {len(report.reports)} properties held (seed {args.seed})",
              file=sys.stderr)
        return 0
    for failure in failures:
        out.write(failure.describe() + "\n")
        out.write(
            "replay: "
            + replay_command(failure.property, failure.seed, args.examples)
            + "\n"
        )
    print(f"{len(failures)} propert(y/ies) falsified", file=sys.stderr)
    return 1


def cmd_resume(args: argparse.Namespace, out) -> int:
    # The run's parameters are pinned in its meta.json fingerprint —
    # rebuilding the config from it (rather than trusting flags) is what
    # guarantees the resumed fold has the same semantics.
    stored = DurableBackend.stored_fingerprint(args.wal_dir)
    config = StreamERConfig(
        alpha=int(stored["alpha"]),
        beta=float(stored["beta"]),
        clean_clean=bool(stored.get("clean_clean")),
        enable_block_cleaning=bool(stored.get("enable_block_cleaning", True)),
        enable_comparison_cleaning=bool(
            stored.get("enable_comparison_cleaning", True)
        ),
        classifier=ThresholdClassifier(float(stored.get("threshold", 0.5))),
    )
    backend = DurableBackend.open(
        args.wal_dir,
        config,
        resume=True,
        checkpoint_every=args.checkpoint_every,
        fsync=args.fsync,
    )
    pipeline = StreamERPipeline(config, instrument=False, backend=backend)
    skip = pipeline.entities_processed
    entities = list(_read_file(args.file))
    remaining = entities[skip:]
    for entity in remaining:
        if args.throttle:
            time.sleep(args.throttle)
        pipeline.process(entity)
    pipeline.close()
    matches = pipeline.backend.matches.matches()
    for match in matches:
        _emit(
            {
                "left": _encode_id(match.left),
                "right": _encode_id(match.right),
                "similarity": round(match.similarity, 4),
            },
            out,
        )
    print(
        f"resumed at entity {skip}, re-fed {len(remaining)}, "
        f"{len(matches)} total matches",
        file=sys.stderr,
    )
    return 0


def cmd_generate(args: argparse.Namespace, out) -> int:
    dataset = load(args.dataset, scale=args.scale)
    target = Path(args.out) if args.out else None
    handle = target.open("w", encoding="utf-8") if target else out
    try:
        for entity in dataset.entities:
            record: dict = {"id": _encode_id(entity.eid)}
            if entity.source:
                record["source"] = entity.source
            for name, value in entity.attributes:
                record.setdefault(name, value)
            handle.write(json.dumps(record) + "\n")
    finally:
        if target:
            handle.close()
    if args.ground_truth:
        save_ground_truth(dataset.ground_truth, args.ground_truth)
    print(
        f"generated {len(dataset.entities)} entities "
        f"({len(dataset.ground_truth)} true match pairs)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-er",
        description="End-to-end entity resolution on dynamic data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pipeline_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threshold", type=float, default=0.5,
                       help="match-similarity threshold (default 0.5)")
        p.add_argument("--alpha-fraction", type=float, default=0.05,
                       help="block-pruning bound as a fraction of |D|")
        p.add_argument("--beta", type=float, default=0.05,
                       help="block-ghosting ratio (Algorithm 2)")

    def add_durability_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--checkpoint-every", type=int, default=0,
                       help="entities between snapshot checkpoints "
                            "(0 = WAL only, no checkpoints)")
        p.add_argument("--fsync", choices=("always", "commit", "never"),
                       default="commit", help="WAL fsync policy")
        p.add_argument("--throttle", type=float, default=0.0,
                       help="sleep this many seconds before each entity "
                            "(crash-test pacing)")

    dedupe = sub.add_parser("dedupe", help="dirty ER over one file")
    dedupe.add_argument("file", help="CSV or JSON-lines input")
    dedupe.add_argument("--clusters", action="store_true",
                        help="emit entity clusters instead of pairs")
    dedupe.add_argument("--wal-dir",
                        help="make the run durable: write-ahead log + "
                             "checkpoints under this directory")
    add_pipeline_options(dedupe)
    add_durability_options(dedupe)
    dedupe.set_defaults(func=cmd_dedupe)

    resume = sub.add_parser(
        "resume", help="continue a crashed durable dedupe run"
    )
    resume.add_argument("wal_dir", help="durable run directory (--wal-dir)")
    resume.add_argument("file", help="the original CSV or JSON-lines input")
    add_durability_options(resume)
    resume.set_defaults(func=cmd_resume)

    link = sub.add_parser("link", help="clean-clean ER across two files")
    link.add_argument("left")
    link.add_argument("right")
    add_pipeline_options(link)
    link.set_defaults(func=cmd_link)

    profile = sub.add_parser("profile", help="schema/token statistics of a file")
    profile.add_argument("file", help="CSV or JSON-lines input")
    profile.set_defaults(func=cmd_profile)

    metrics = sub.add_parser(
        "metrics", help="run a file with metrics on; print the export"
    )
    metrics.add_argument("file", help="CSV or JSON-lines input")
    metrics.add_argument("--executor", choices=("seq", "thread", "mp"),
                         default="seq", help="which executor to run")
    metrics.add_argument("--format", choices=("prometheus", "json"),
                         default="prometheus", help="export format")
    metrics.add_argument("--processes", type=int, default=8,
                         help="worker budget for the parallel executors")
    metrics.add_argument("--out", help="write the export here (default stdout)")
    add_pipeline_options(metrics)
    metrics.set_defaults(func=cmd_metrics)

    check = sub.add_parser(
        "check", help="run the metamorphic + invariant oracle suite"
    )
    check.add_argument("--seed", type=int, default=2021,
                       help="suite seed; a failure replays bit-identically")
    check.add_argument("--examples", type=int, default=6,
                       help="examples per property (heavy ones run half)")
    check.add_argument("--property", action="append", metavar="NAME",
                       help="run only this relation (repeatable)")
    check.add_argument("--shrink-budget", type=int, default=200,
                       help="max predicate evaluations while shrinking")
    check.add_argument("--list", action="store_true",
                       help="list relation names (stdout) and the runtime "
                            "invariants (stderr), then exit")
    check.add_argument("--self-test-failure", action="store_true",
                       help="include the intentionally failing relation "
                            "(verifies the failure path end to end)")
    check.set_defaults(func=cmd_check)

    generate = sub.add_parser("generate", help="emit a synthetic dataset")
    generate.add_argument("dataset", choices=DATASET_NAMES)
    generate.add_argument("--scale", type=float, default=None,
                          help="size multiplier (default: catalog default)")
    generate.add_argument("--out", help="entities output path (default stdout)")
    generate.add_argument("--ground-truth", help="also write ground truth here")
    generate.set_defaults(func=cmd_generate)
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
