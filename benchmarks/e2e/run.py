#!/usr/bin/env python3
"""The end-to-end benchmark: one command, four workloads.

    python benchmarks/e2e/run.py [--seed 7] [--runs 1] [--smoke]

runs every workload of ``BENCHMARK.json`` untraced (end-to-end metrics) and
traced (per-layer metrics), each in a fresh subprocess with
``PYTHONHASHSEED=0``, prints every metric by name and unit, checks the
match sets and writes ``out/result.json``.

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

is the single run the benchmark contract asks for: its last line of output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
SMOKE_SCALE = 0.05
CHILD_TIMEOUT_S = 170.0
REAP_GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child_main(argv: list[str]) -> None:
    """Measure one workload in this process (the parent set ``PYTHONHASHSEED``)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import measure  # imports the program under test: part of set-up

    import_s = time.perf_counter() - start
    measure.main([*argv, repr(import_s)])


def become_subreaper() -> None:
    """Have orphaned descendants (multiprocessing's resource tracker)
    re-parented to this process, so that it can wait for them."""
    try:
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: descendants are still killed by group below


def reap_descendants(group: int) -> None:
    """Wait for every process the child left behind; kill what lingers."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline += REAP_GRACE_S
        time.sleep(0.01)


def run_child(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """One workload in a fresh interpreter; returns its result document.

    The child's stderr (worker tracebacks, resource-tracker noise) goes to
    ``out/stderr-<workload>.log`` and is counted, never printed.
    """
    OUT_DIR.mkdir(exist_ok=True)
    stderr_path = OUT_DIR / f"stderr-{workload}.log"
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        workload, str(seed), str(seconds), "1" if trace else "0", repr(scale),
    ]
    with open(stderr_path, "wb") as stderr:
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=stderr,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
        finally:
            reap_descendants(process.pid)
    if process.returncode != 0:
        raise SystemExit(
            f"{workload}: measuring process exited with {process.returncode}; see {stderr_path}"
        )
    document = json.loads(stdout.decode("utf-8").splitlines()[-1])
    if trace:
        with open(stderr_path, "rb") as stderr:
            document["per_layer"]["parallel.mp_framework.stderr_lines"] = sum(1 for _ in stderr)
    return document


def declared_metrics(manifest: dict, document: dict, trace: bool) -> dict:
    """The document's metrics under the names and units the manifest declares."""
    declared = manifest["per_layer" if trace else "end_to_end"]
    measured = document["per_layer"] if trace else {
        name: entry["value"] for name, entry in document["end_to_end"].items()
    }
    unknown = set(measured) - {metric["name"] for metric in declared}
    if unknown:
        raise SystemExit(f"measured but not declared in BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer the workload does not use reads 0.
    return {
        metric["name"]: {"value": measured.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in declared
    }


def contract_run(args: argparse.Namespace, manifest: dict) -> None:
    trace = args.trace == 1
    document = run_child(args.workload, args.seed, args.seconds, trace, args.scale)
    line = {
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": declared_metrics(manifest, document, trace),
    }
    if not document["correct"]:
        print(f"gates failed: {document['gates']}", file=sys.stderr)
    print(json.dumps(line))


def report_run(args: argparse.Namespace, manifest: dict) -> int:
    """Every selected workload untraced and traced, ``--runs`` seeds each."""
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    seeds = list(range(args.seed, args.seed + args.runs))
    result = {"seeds": seeds, "scale": args.scale, "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        untraced = [run_child(name, seed, args.seconds, False, args.scale) for seed in seeds]
        traced = run_child(name, seeds[0], args.seconds, True, args.scale)
        end_to_end = {}
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            # With several runs a sample is one run's value; with one run
            # the samples are that run's repetitions.
            if len(untraced) > 1:
                samples = [run["end_to_end"][key]["value"] for run in untraced]
                value = statistics.median(samples)
            else:
                samples = untraced[0]["end_to_end"][key]["samples"]
                value = untraced[0]["end_to_end"][key]["value"]
            end_to_end[key] = {"value": value, "unit": metric["unit"], "samples": samples}
        runs = untraced + [traced]
        entry = {
            "sizes": traced["sizes"],
            "host": traced["host"],
            "correct": all(run["correct"] for run in runs),
            "gates": {gate: all(run["gates"][gate] for run in runs) for gate in traced["gates"]},
            "digest": sorted({d for run in runs for d in run["digest"]}),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": end_to_end,
            "per_layer": declared_metrics(manifest, traced, True),
        }
        result["workloads"][name] = entry
        ok = ok and entry["correct"] and entry["failed"] == 0
        print_workload(name, entry)
    path = Path(args.out) if args.out else OUT_DIR / "result.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"\n[{'OK' if ok else 'FAILED'}] result written to {path}")
    return 0 if ok else 1


def print_workload(name: str, entry: dict) -> None:
    sizes = entry["sizes"]
    print(f"\n== {name}  entities={sizes['entities']} bulk={sizes['bulk']} step={sizes['step']}")
    print(f"   operations attempted={entry['attempted']} failed={entry['failed']}"
          f" correct={entry['correct']} digest={entry['digest']}")
    for gate, passed in entry["gates"].items():
        print(f"   gate {gate}: {'pass' if passed else 'FAIL'}")
    print("   -- end to end (untraced)")
    for key, metric in entry["end_to_end"].items():
        print(f"   {key:<48} {metric['value']:>14.4f} {metric['unit']}")
    print("   -- per layer (traced)")
    for key, metric in entry["per_layer"].items():
        print(f"   {key:<48} {metric['value']:>14.4f} {metric['unit']}")


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child_main(sys.argv[2:])
        return 0
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument("--seconds", type=float, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single contract run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--runs", type=int, default=1,
                        help="report mode: untraced runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, one repetition, no timing judgement")
    parser.add_argument("--out", help="report mode: result file (default out/result.json)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is not at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(manifest["run_seconds"])
    become_subreaper()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        contract_run(args, manifest)
        return 0
    return report_run(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
