"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main


def run_cli(argv) -> tuple[int, list[dict]]:
    out = io.StringIO()
    code = main(argv, out=out)
    records = [json.loads(line) for line in out.getvalue().splitlines() if line]
    return code, records


@pytest.fixture()
def catalog_csv(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "id,title,maker\n"
        "1,red table lamp vintage,acme\n"
        "2,red table lamp vintage,acme\n"
        "3,blue office chair,chairco\n"
        "4,blue office chair ergonomic,chairco\n"
    )
    return path


@pytest.fixture()
def catalog_jsonl(tmp_path):
    path = tmp_path / "catalog.jsonl"
    lines = [
        {"id": "a", "name": "red table lamp vintage"},
        {"id": "b", "name": "blue office chair"},
    ]
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    return path


class TestDedupe:
    def test_emits_match_pairs(self, catalog_csv):
        code, records = run_cli(["dedupe", str(catalog_csv), "--threshold", "0.6"])
        assert code == 0
        pairs = {tuple(sorted((r["left"], r["right"]))) for r in records}
        assert ("1", "2") in pairs

    def test_clusters_mode(self, catalog_csv):
        code, records = run_cli(
            ["dedupe", str(catalog_csv), "--threshold", "0.6", "--clusters"]
        )
        assert code == 0
        clusters = [set(r["cluster"]) for r in records]
        assert {"1", "2"} in clusters

    def test_empty_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,title\n")
        code, records = run_cli(["dedupe", str(path)])
        assert code == 1
        assert records == []


class TestLink:
    def test_links_across_files(self, catalog_csv, catalog_jsonl):
        code, records = run_cli(
            ["link", str(catalog_csv), str(catalog_jsonl), "--threshold", "0.6"]
        )
        assert code == 0
        assert records  # the lamp / chair records link across files
        for r in records:
            left_source, _ = r["left"]
            right_source, _ = r["right"]
            assert left_source != right_source


class TestProfile:
    def test_emits_statistics(self, catalog_csv):
        code, records = run_cli(["profile", str(catalog_csv)])
        assert code == 0
        assert records[0]["entities"] == 4
        assert records[0]["distinct_attributes"] == 2
        assert 0.0 <= records[0]["heterogeneity_index"] <= 1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,a\n")
        code, _ = run_cli(["profile", str(path)])
        assert code == 1


class TestGenerate:
    def test_writes_entities_and_ground_truth(self, tmp_path):
        out_path = tmp_path / "data.jsonl"
        gt_path = tmp_path / "gt.jsonl"
        code, _ = run_cli(
            [
                "generate", "ag", "--scale", "0.02",
                "--out", str(out_path), "--ground-truth", str(gt_path),
            ]
        )
        assert code == 0
        entities = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert entities and all("id" in e for e in entities)
        assert gt_path.exists()

    def test_generate_to_stdout(self):
        code, records = run_cli(["generate", "cora", "--scale", "0.02"])
        assert code == 0
        assert records

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["generate", "wikipedia"])


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, catalog_csv):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "profile", str(catalog_csv)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "entities" in proc.stdout


class TestRoundTrip:
    def test_generated_data_is_dedupable(self, tmp_path):
        out_path = tmp_path / "cora.jsonl"
        run_cli(["generate", "cora", "--scale", "0.05", "--out", str(out_path)])
        code, records = run_cli(
            ["dedupe", str(out_path), "--threshold", "0.7"]
        )
        assert code == 0
        assert records  # cora-like data is duplicate-heavy


class TestMetrics:
    def run_text(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_prometheus_export(self, catalog_csv):
        code, text = self.run_text(
            ["metrics", str(catalog_csv), "--threshold", "0.6"]
        )
        assert code == 0
        assert "# TYPE er_entities_total counter" in text
        assert "er_entities_total 4" in text
        assert 'er_stage_service_seconds_bucket{stage="dr",le="+Inf"}' in text
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part
            float(value)

    def test_json_export(self, catalog_csv):
        code, text = self.run_text(
            ["metrics", str(catalog_csv), "--format", "json"]
        )
        assert code == 0
        snapshot = json.loads(text)
        counters = {
            (c["name"], c["labels"].get("stage")): c["value"]
            for c in snapshot["counters"]
        }
        assert counters[("er_entities_total", None)] == 4.0
        assert snapshot["histograms"]

    def test_thread_executor(self, catalog_csv):
        code, text = self.run_text(
            ["metrics", str(catalog_csv), "--executor", "thread",
             "--threshold", "0.6"]
        )
        assert code == 0
        assert "er_queue_depth" in text
        assert "er_entities_total 4" in text

    def test_multiprocess_executor_runs_worker_side(self, catalog_csv):
        code, text = self.run_text(
            ["metrics", str(catalog_csv), "--executor", "mp",
             "--threshold", "0.6"]
        )
        assert code == 0
        assert "er_entities_total 4" in text
        assert "er_pool_spawns_total 1" in text

    def test_out_file(self, catalog_csv, tmp_path):
        target = tmp_path / "metrics.prom"
        code, text = self.run_text(
            ["metrics", str(catalog_csv), "--out", str(target)]
        )
        assert code == 0
        assert text == ""
        assert "er_entities_total" in target.read_text(encoding="utf-8")


class TestCheck:
    """The ``check`` subcommand: the metamorphic + invariant oracle suite."""

    def run_text(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_list_prints_relation_names(self):
        code, text = self.run_text(["check", "--list"])
        assert code == 0
        names = text.split()
        assert "incremental-equals-batch" in names
        assert "executors-agree" in names

    def test_list_describes_the_runtime_invariants_on_stderr(self, capsys):
        from repro.invariants import all_invariants

        code, text = self.run_text(["check", "--list"])
        assert code == 0 and "runtime" not in text  # stdout: relation names only
        err = capsys.readouterr().err
        assert f"{len(all_invariants())} runtime invariants:" in err
        for inv in all_invariants():
            assert inv.name in err and inv.description in err
        assert "cg-multiplicity-conserved [stage:cg]" in err

    def test_passing_subset_exits_zero(self):
        code, text = self.run_text(
            ["check", "--seed", "2021", "--examples", "2",
             "--property", "dirty-self-consistency",
             "--property", "interned-equals-string"]
        )
        assert code == 0

    def test_self_test_fails_with_replay_and_counterexample(self):
        code, text = self.run_text(
            ["check", "--seed", "2021", "--examples", "2",
             "--shrink-budget", "80", "--self-test-failure"]
        )
        assert code == 1
        assert "minimal counterexample" in text
        assert (
            "replay: repro-er check --seed 2021 --examples 2 "
            "--property self-test-failure" in text
        )

    def test_replay_command_is_self_contained(self):
        """The printed replay line must reproduce the failure verbatim."""
        code, text = self.run_text(
            ["check", "--seed", "2021", "--examples", "2",
             "--property", "self-test-failure"]
        )
        assert code == 1
        assert "self-test-failure" in text

    def test_unknown_property_exits_two(self):
        code, text = self.run_text(
            ["check", "--property", "no-such-relation"]
        )
        assert code == 2


class TestResume:
    """The ``resume`` subcommand: continue a durable run from its WAL dir."""

    def test_resume_replays_a_durable_run(self, catalog_csv, tmp_path):
        wal_dir = tmp_path / "wal"
        code, records = run_cli(
            [
                "dedupe", str(catalog_csv), "--threshold", "0.6",
                "--wal-dir", str(wal_dir), "--checkpoint-every", "2",
            ]
        )
        assert code == 0
        baseline = {(r["left"], r["right"], r["similarity"]) for r in records}
        assert baseline
        assert (wal_dir / "meta.json").exists()

        code, records = run_cli(["resume", str(wal_dir), str(catalog_csv)])
        assert code == 0
        resumed = {(r["left"], r["right"], r["similarity"]) for r in records}
        assert resumed == baseline

    def test_resume_of_a_missing_directory_fails(self, tmp_path):
        code, records = run_cli(
            ["resume", str(tmp_path / "nope"), str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert records == []
