#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python scripts/bench_pairs.py --ref <git-ref> [--workload W] --pairs N [--smoke]

checks ``<git-ref>`` (the parent) out into a temporary ``git worktree`` and
runs N pairs of the benchmark's contract run

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds <run_seconds> --trace 0

one on the parent and one on this working tree (the change), each side with
its own unmodified copy of ``benchmarks/e2e/``.  Pair ``k`` uses seed
``--seed + k`` on both sides and alternates which side runs first.  For
every end-to-end metric of ``BENCHMARK.json`` it prints each side's median
and quartiles, the ratio of the medians with its base, and in how many pairs
the change won (ties count for neither) — the evidence the choosing-metrics
guide asks of a claimed gain: at least nine tenths of the pairs won, and
medians further apart than the parent's own quartiles.

The exit code is 1 when a run's correctness gates fail or an operation
failed; no timing ever decides it.  ``--ref HEAD --pairs 1 --smoke`` is the
CI smoke: parent and change are then the same commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
from compare import judge, spread  # noqa: E402  (the benchmark's own regression rule)

#: Pairs below which no verdict is printed (choosing-metrics guide, section 8).
MIN_PAIRS = 10


def git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.DEVNULL)


def contract_run(root: Path, workload: str, seed: int, smoke: bool, seconds: float) -> dict:
    """One untraced contract run of ``root``'s benchmark; its JSON line."""
    command = [
        sys.executable, "benchmarks/e2e/run.py",
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    command += ["--smoke"] if smoke else ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(command)} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return q1, median, q3


def report(workload: str, metrics: list[dict], parent: list[dict], change: list[dict]) -> None:
    """One row per end-to-end metric.  With at least ``MIN_PAIRS`` pairs the
    row ends in a verdict: ``gain`` by the pairs rule, else what the
    benchmark's ``compare.judge`` says of the two sample sets (``worse``,
    ``unresolved``, ``better``, ``unchanged``)."""
    pairs = len(parent)
    print(f"\n== {workload}: {pairs} pair(s), parent | change as median [q1, q3]")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        a = [run["metrics"][name]["value"] for run in parent]
        b = [run["metrics"][name]["value"] for run in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        losses = sum((y < x) if higher else (y > x) for x, y in zip(a, b))
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        verdict = ""
        if pairs >= MIN_PAIRS and am:
            gained = (bm - am) if higher else (am - bm)
            if 10 * wins >= 9 * pairs and gained > spread(a):
                verdict = "gain"
            else:
                verdict, _, _ = judge(
                    {"value": am, "samples": a}, {"value": bm, "samples": b},
                    metric["better"], metric["bound"],
                )
        ratio = f"{bm / am:.3f}x of {am:.4g}" if am else "-"
        row = (
            f"   {name:<18} {am:>10.4g} [{a1:.4g}, {a3:.4g}] | "
            f"{bm:>10.4g} [{b1:.4g}, {b3:.4g}] {metric['unit']:<10} "
            f"{ratio:<22} won {wins}/{pairs} lost {losses}  {verdict}"
        )
        print(row.rstrip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--ref", required=True, help="the parent commit")
    parser.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the first pair (default 7)")
    parser.add_argument("--smoke", action="store_true", help="sizes / 20, one repetition per run")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    seconds = float(manifest["run_seconds"])
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_root = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent_root), args.ref)
        try:
            for workload in workloads:
                runs: dict[Path, list[dict]] = {parent_root: [], ROOT: []}
                for k in range(args.pairs):
                    order = (parent_root, ROOT) if k % 2 == 0 else (ROOT, parent_root)
                    for root in order:
                        run = contract_run(root, workload, args.seed + k, args.smoke, seconds)
                        runs[root].append(run)
                        side = "parent" if root is parent_root else "change"
                        good = run["correct"] and run["failed"] == 0
                        ok = ok and good
                        values = " ".join(
                            f"{name}={entry['value']:.4g}" for name, entry in run["metrics"].items()
                        )
                        print(
                            f"{workload} pair {k} seed {args.seed + k} {side}: "
                            f"correct={run['correct']} failed={run['failed']}/{run['attempted']} {values}",
                            flush=True,
                        )
                report(workload, manifest["end_to_end"], runs[parent_root], runs[ROOT])
        finally:
            git("worktree", "remove", "--force", str(parent_root))
    print(f"\n[{'OK' if ok else 'FAILED'}] correctness gates and failed operations only; no timing is judged")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
