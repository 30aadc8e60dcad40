#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second
set).  For every workload and end-to-end metric it applies the direction
and bound declared in ``BENCHMARK.json`` and prints one row:

``unresolved``  the spread (distance between the quartiles of either side's
                samples, as a share of A's value) is wider than the bound;
``worse``       B is worse than A by more than the bound;
``better``      B is better than A by more than that spread;
``unchanged``   otherwise.

Exits 1 if any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(samples: list[float]) -> float:
    """Distance between the first and the third quartile."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def judge(a: dict, b: dict, better: str, bound: float) -> tuple[str, float, float]:
    """(verdict, B's worsening as a share of A, spread as a share of A)."""
    base = abs(a["value"])
    worsening = (b["value"] - a["value"]) / base
    if better == "higher":
        worsening = -worsening
    widest = max(spread(a["samples"]), spread(b["samples"])) / base
    if widest > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif -worsening > widest:
        verdict = "better"
    else:
        verdict = "unchanged"
    return verdict, worsening, widest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, second = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    worse = 0
    print(f"{'workload':<24} {'metric':<18} {'A':>12} {'B':>12} {'worsening':>10} {'spread':>8} {'bound':>6}  verdict")
    for name, a_entry in first["workloads"].items():
        b_entry = second["workloads"].get(name)
        if b_entry is None:
            print(f"{name:<24} missing from B")
            continue
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            a, b = a_entry["end_to_end"][key], b_entry["end_to_end"][key]
            verdict, worsening, widest = judge(a, b, metric["better"], metric["bound"])
            worse += verdict == "worse"
            print(
                f"{name:<24} {key:<18} {a['value']:>12.4f} {b['value']:>12.4f} "
                f"{worsening:>+10.3f} {widest:>8.3f} {metric['bound']:>6.2f}  {verdict}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
