"""``run.py --smoke`` against the declarations in ``BENCHMARK.json``.

Not under ``testpaths``: run it with
``python -m pytest benchmarks/e2e/test_smoke.py``.  It judges no timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_run_reports_every_declared_metric(tmp_path):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)

    result_path = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(result_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    result = json.loads(result_path.read_text(encoding="utf-8"))

    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for name, entry in result["workloads"].items():
        assert entry["correct"], (name, entry["gates"])
        assert entry["attempted"] >= 1 and entry["failed"] == 0, name
        assert entry["host"]["effective_cpus"] >= 1 and entry["host"]["PYTHONHASHSEED"] == "0"
        for kind in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in manifest[kind]}
            measured = {key: metric["unit"] for key, metric in entry[kind].items()}
            assert measured == declared, (name, kind)
        assert all(metric["value"] != 0 for metric in entry["end_to_end"].values()), name
        # Every line the printed report gives a metric on is "name value unit".
        for key in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert re.search(rf"^\s+{re.escape(key)}\s+\S+\s+\S+$", completed.stdout, re.M), key
