"""Tests for the thread-based parallel framework."""

from __future__ import annotations

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.errors import PipelineStoppedError
from repro.parallel import ParallelERPipeline


def config_for(dataset, threshold=None):
    classifier = (
        ThresholdClassifier(threshold)
        if threshold is not None
        else OracleClassifier.from_pairs(dataset.ground_truth)
    )
    return StreamERConfig(
        alpha=StreamERConfig.alpha_for(len(dataset), 0.05),
        beta=0.05,
        clean_clean=dataset.clean_clean,
        classifier=classifier,
    )


class TestParallelCorrectness:
    def test_same_matches_as_sequential(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())
        parallel = ParallelERPipeline(config_for(ds), processes=8)
        result = parallel.run(ds.stream())
        assert result.match_pairs == sequential.cl.matches.pairs()

    def test_micro_batched_variant_same_matches(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())
        mpp = ParallelERPipeline(
            config_for(ds), processes=12, micro_batch_size=50
        )
        result = mpp.run(ds.stream())
        assert result.match_pairs == sequential.cl.matches.pairs()

    def test_clean_clean_parallel(self, tiny_clean_dataset):
        ds = tiny_clean_dataset
        parallel = ParallelERPipeline(config_for(ds), processes=9)
        result = parallel.run(ds.stream())
        for i, j in result.match_pairs:
            assert i[0] != j[0]

    def test_replicated_stages_with_many_processes(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        parallel = ParallelERPipeline(config_for(ds), processes=16)
        assert parallel.allocation["co"] > 1  # actually replicated
        result = parallel.run(ds.stream())
        assert result.entities_processed == len(ds)


class TestLifecycle:
    def test_latencies_recorded(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        parallel = ParallelERPipeline(config_for(ds, threshold=0.9), processes=8)
        result = parallel.run(list(ds.stream())[:50])
        assert len(result.latencies) == 50
        assert all(l >= 0 for l in result.latencies)

    def test_submit_after_close_raises(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        entities = list(ds.stream())
        parallel = ParallelERPipeline(config_for(ds, threshold=0.9), processes=8)
        parallel.submit(entities[0])
        parallel.close()
        with pytest.raises(PipelineStoppedError):
            parallel.submit(entities[1])
        parallel.join()

    def test_empty_input(self, tiny_dirty_dataset):
        parallel = ParallelERPipeline(
            config_for(tiny_dirty_dataset, threshold=0.9), processes=8
        )
        result = parallel.run([])
        assert result.entities_processed == 0
        assert result.matches == []


class TestReorderBuffer:
    """The serializer's re-sequencing: submission order, holes, drains."""

    def test_in_order_arrivals_flow_straight_through(self):
        from repro.parallel.framework import _ReorderBuffer

        buffer = _ReorderBuffer()
        for seq in range(5):
            ready = buffer.admit(seq, (0.0, seq, f"e{seq}"))
            assert [r[1] for r in ready] == [seq]

    def test_out_of_order_arrivals_are_buffered_until_ready(self):
        from repro.parallel.framework import _ReorderBuffer

        buffer = _ReorderBuffer()
        assert buffer.admit(2, (0.0, 2, "e2")) == []
        assert buffer.admit(1, (0.0, 1, "e1")) == []
        ready = buffer.admit(0, (0.0, 0, "e0"))
        assert [r[1] for r in ready] == [0, 1, 2]

    def test_holes_never_block_later_items(self):
        from repro.parallel.framework import _ReorderBuffer

        buffer = _ReorderBuffer()
        assert buffer.admit(1, (0.0, 1, "e1")) == []
        buffer.hole(0)
        ready = buffer.drain_ready()
        assert [r[1] for r in ready] == [1]

    def test_hole_declared_before_arrivals(self):
        from repro.parallel.framework import _ReorderBuffer

        buffer = _ReorderBuffer()
        buffer.hole(0)
        buffer.hole(2)
        assert [r[1] for r in buffer.admit(1, (0.0, 1, "e1"))] == [1]
        assert [r[1] for r in buffer.admit(3, (0.0, 3, "e3"))] == [3]

    def test_serializer_sees_submission_order_despite_replicated_dr(
        self, tiny_dirty_dataset
    ):
        ds = tiny_dirty_dataset
        seen: list = []
        pipeline = ParallelERPipeline(config_for(ds), processes=16)
        assert pipeline.allocation["dr"] >= 1
        inner_bb = pipeline._runners[1].fn

        def spying_bb(profile, _inner=inner_bb):
            seen.append(profile.eid)
            return _inner(profile)

        pipeline._runners[1].fn = spying_bb
        entities = list(ds.stream())
        pipeline.run(entities)
        assert seen == [e.eid for e in entities]


class TestPruningWhileOlderEntitiesAreQueued:
    """``f_bb+bp`` hands out views, not copies, and runs ahead of ``f_bg`` /
    ``f_cg``: a block can be pruned (or just keep growing) while messages
    viewing it are still queued.  The gate below holds every ``f_bg`` call
    until pruning has fired, so the race is the test's premise, not luck."""

    ALPHA = 6

    def entities(self):
        from repro.types import EntityDescription

        # "shared" reaches α with the sixth arrival; "pair<k>" blocks stay small.
        return [
            EntityDescription.create(i, {"t": f"shared pair{i // 2} own{i}"})
            for i in range(14)
        ]

    def config(self):
        return StreamERConfig(
            alpha=self.ALPHA, beta=0.2, classifier=ThresholdClassifier(0.2)
        )

    @pytest.mark.parametrize("micro_batch_size", [1, 4])
    def test_views_over_a_pruned_block_stay_intact(self, micro_batch_size):
        import time

        from repro.core import InMemoryBackend
        from repro.invariants import InvariantChecker
        from repro.parallel.faults import FaultSpec

        entities = self.entities()
        sequential = StreamERPipeline(self.config(), instrument=False)
        sequential.process_many(entities)
        expected = sequential.cl.matches.pairs()
        # The premise: pairs found only through the block that gets pruned.
        assert (0, 2) in expected and "shared" in sequential.bb.blacklist

        backend = InMemoryBackend()
        seen: dict = {}

        def hold_until_pruned(blocked):
            deadline = time.monotonic() + 30
            while "shared" not in backend.blacklist:
                assert time.monotonic() < deadline, "bb+bp never pruned"
                time.sleep(0.001)
            view = blocked.others.get("shared")
            if view is not None:
                seen[blocked.profile.eid] = (view, list(view))
            return blocked

        checker = InvariantChecker(mode="record")
        parallel = ParallelERPipeline(
            self.config(),
            processes=8,
            micro_batch_size=micro_batch_size,
            backend=backend,
            checker=checker,
            faults={"bg": FaultSpec(mode="corrupt", corrupt=hold_until_pruned)},
        )
        result = parallel.run(entities, timeout=60)
        assert not result.dead_letters
        assert result.match_pairs == expected
        # Entities 1..4 joined "shared" before it was pruned; each view was
        # read after the prune and shows exactly the earlier arrivals.
        assert {eid: members for eid, (_, members) in seen.items()} == {
            i: list(range(i)) for i in range(1, self.ALPHA - 1)
        }
        assert all(list(view) == members for view, members in seen.values())
        assert "shared" not in backend.blocks
        assert not checker.violations
        assert checker.checks_performed > 0

    def test_views_over_a_growing_block_stop_at_their_arrival(self):
        import time

        from repro.core import InMemoryBackend
        from repro.parallel.faults import FaultSpec

        entities = self.entities()
        config = StreamERConfig(
            alpha=1000, beta=0.2, classifier=ThresholdClassifier(0.2)
        )
        sequential = StreamERPipeline(config, instrument=False)
        sequential.process_many(entities)

        backend = InMemoryBackend()

        def hold_until_all_blocked(blocked):
            deadline = time.monotonic() + 30
            while len(backend.blocks.block("shared")) < len(entities):
                assert time.monotonic() < deadline, "bb+bp never finished"
                time.sleep(0.001)
            return blocked

        parallel = ParallelERPipeline(
            config,
            processes=8,
            backend=backend,
            faults={"cg": FaultSpec(mode="corrupt", corrupt=hold_until_all_blocked)},
        )
        result = parallel.run(entities, timeout=60)
        assert not result.dead_letters
        assert result.match_pairs == sequential.cl.matches.pairs()
        assert parallel.compiled.get("cg").generated == sequential.cg.generated
