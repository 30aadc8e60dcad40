"""Tests for ER state suspend/resume."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline, dump_state, load_state
from repro.errors import DatasetError


def make_pipeline(ds, threshold=None):
    classifier = (
        ThresholdClassifier(threshold)
        if threshold is not None
        else OracleClassifier.from_pairs(ds.ground_truth)
    )
    return StreamERPipeline(
        StreamERConfig(
            alpha=StreamERConfig.alpha_for(len(ds), 0.05),
            beta=0.05,
            clean_clean=ds.clean_clean,
            classifier=classifier,
        ),
        instrument=False,
    )


class TestRoundTrip:
    def test_resume_equals_uninterrupted(self, tiny_dirty_dataset, tmp_path):
        ds = tiny_dirty_dataset
        entities = list(ds.stream())
        half = len(entities) // 2

        uninterrupted = make_pipeline(ds)
        uninterrupted.process_many(entities)

        first = make_pipeline(ds)
        first.process_many(entities[:half])
        path = tmp_path / "state.json"
        dump_state(first, path)

        resumed = make_pipeline(ds)
        load_state(resumed, path)
        assert resumed.entities_processed == half
        resumed.process_many(entities[half:])

        assert resumed.cl.matches.pairs() == uninterrupted.cl.matches.pairs()
        assert dict(resumed.bb.blocks.items()) == dict(
            uninterrupted.bb.blocks.items()
        )
        assert resumed.bb.blacklist.keys == uninterrupted.bb.blacklist.keys

    def test_clean_clean_tuple_ids_round_trip(self, tiny_clean_dataset, tmp_path):
        ds = tiny_clean_dataset
        entities = list(ds.stream())
        pipeline = make_pipeline(ds)
        pipeline.process_many(entities[:100])
        path = tmp_path / "state.json"
        dump_state(pipeline, path)

        restored = make_pipeline(ds)
        load_state(restored, path)
        assert restored.cl.matches.pairs() == pipeline.cl.matches.pairs()
        assert len(restored.lm.profiles) == len(pipeline.lm.profiles)

    def test_dump_to_stream(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        pipeline = make_pipeline(ds, threshold=0.9)
        pipeline.process_many(list(ds.stream())[:20])
        buffer = io.StringIO()
        dump_state(pipeline, buffer)
        buffer.seek(0)
        restored = make_pipeline(ds, threshold=0.9)
        load_state(restored, buffer)
        assert restored.entities_processed == 20


class TestGuards:
    def test_load_into_used_pipeline_rejected(self, tiny_dirty_dataset, tmp_path):
        ds = tiny_dirty_dataset
        pipeline = make_pipeline(ds, threshold=0.9)
        pipeline.process_many(list(ds.stream())[:5])
        path = tmp_path / "state.json"
        dump_state(pipeline, path)
        with pytest.raises(DatasetError, match="fresh"):
            load_state(pipeline, path)

    def test_rejects_foreign_document(self, tiny_dirty_dataset, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        pipeline = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        with pytest.raises(DatasetError, match="not a repro"):
            load_state(pipeline, path)

    def test_rejects_future_version(self, tiny_dirty_dataset, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format": "repro-er-state", "version": 99}')
        pipeline = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        with pytest.raises(DatasetError, match="version"):
            load_state(pipeline, path)


class TestTokenIdStability:
    """Regression: v1 re-interned tokens on load, which assigns ids in
    iteration order of each profile's token set and can reorder them.
    The v2 format persists the dictionary itself, in id order."""

    def make_interned(self, n: int):
        return StreamERPipeline(
            StreamERConfig.interned(
                alpha=StreamERConfig.alpha_for(n, 0.05),
                beta=0.05,
                classifier=ThresholdClassifier(0.5),
            ),
            instrument=False,
        )

    def test_interned_ids_survive_the_round_trip(self, tiny_dirty_dataset, tmp_path):
        entities = list(tiny_dirty_dataset.stream())[:80]
        first = self.make_interned(len(entities))
        first.process_many(entities)
        path = tmp_path / "state.json"
        dump_state(first, path)

        restored = self.make_interned(len(entities))
        load_state(restored, path)
        assert list(restored.backend.dictionary) == list(first.backend.dictionary)
        originals = {p.eid: p for p in first.backend.profiles.values()}
        for profile in restored.backend.profiles.values():
            assert profile.token_ids == originals[profile.eid].token_ids

    def test_dump_is_the_snapshot_format(self, tiny_dirty_dataset, tmp_path):
        entities = list(tiny_dirty_dataset.stream())[:10]
        pipeline = self.make_interned(len(entities))
        pipeline.process_many(entities)
        path = tmp_path / "state.json"
        dump_state(pipeline, path)
        document = json.loads(path.read_text())
        assert document["format"] == "repro-er-snapshot"
        assert document["version"] == 2
        assert document["dictionary"]  # the fix: ids ship with the state


class TestLegacyV1:
    def test_v1_document_is_rejected_naming_its_version(
        self, tiny_dirty_dataset, tmp_path
    ):
        document = {
            "format": "repro-er-state",
            "version": 1,
            "entities_processed": 2,
            "blocks": {"lamp": [1, 2]},
            "blacklist": ["common"],
            "profiles": [
                {
                    "eid": 1,
                    "attributes": [["title", "red lamp"]],
                    "tokens": ["red", "lamp"],
                    "source": None,
                },
                {
                    "eid": 2,
                    "attributes": [["title", "red lamp"]],
                    "tokens": ["red", "lamp"],
                    "source": None,
                },
            ],
            "matches": [{"left": 1, "right": 2, "similarity": 1.0}],
        }
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(document))
        pipeline = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        with pytest.raises(DatasetError, match="version 1"):
            load_state(pipeline, path)
        assert pipeline.entities_processed == 0
        assert len(pipeline.backend.profiles) == 0


class TestIntegrity:
    def test_tampered_document_is_rejected(self, tiny_dirty_dataset, tmp_path):
        pipeline = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        pipeline.process_many(list(tiny_dirty_dataset.stream())[:10])
        path = tmp_path / "state.json"
        dump_state(pipeline, path)
        document = json.loads(path.read_text())
        document["entities_processed"] = 999
        path.write_text(json.dumps(document))
        fresh = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        with pytest.raises(DatasetError, match="integrity"):
            load_state(fresh, path)

    def test_failed_dump_leaves_the_previous_dump_loadable(
        self, tiny_dirty_dataset, tmp_path, monkeypatch
    ):
        entities = list(tiny_dirty_dataset.stream())
        pipeline = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        pipeline.process_many(entities[:10])
        path = tmp_path / "state.json"
        dump_state(pipeline, path)
        pipeline.process_many(entities[10:20])

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            dump_state(pipeline, path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        restored = make_pipeline(tiny_dirty_dataset, threshold=0.9)
        load_state(restored, path)
        assert restored.entities_processed == 10
