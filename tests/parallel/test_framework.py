"""Tests for the thread-based parallel framework."""

from __future__ import annotations

import queue
import sys
import threading

import pytest

from repro.classification import OracleClassifier, ThresholdClassifier
from repro.core import StreamERConfig, StreamERPipeline
from repro.errors import PipelineStoppedError
from repro.observability import QUEUE_DEPTH, MetricsRegistry
from repro.parallel import FaultSpec, ParallelERPipeline
from repro.parallel.framework import _Channel


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


class TestChannel:
    """The bounded hand-off every inter-stage queue is made of."""

    def test_fifo_per_producer_under_contention(self):
        # More threads than cores and a short switch interval, so puts race
        # for the credits and the bound is probed at every get.
        capacity, producers, per_producer = 4, 4, 500
        channel = _Channel(capacity)

        def produce(pid):
            for i in range(per_producer):
                channel.put((pid, i), timeout=30)

        threads = [threading.Thread(target=produce, args=(p,)) for p in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            received, depths = [], []
            for _ in range(producers * per_producer):
                received.append(channel.get(timeout=30))
                depths.append(channel.qsize())
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for pid in range(producers):
            assert [i for p, i in received if p == pid] == list(range(per_producer))
        assert max(depths) <= capacity
        assert channel.qsize() == 0 and channel._minted <= capacity

    def test_put_is_full_at_exactly_capacity(self):
        capacity = 5
        channel = _Channel(capacity)
        for i in range(capacity):
            channel.put(i, block=False)
        assert channel.qsize() == capacity
        with pytest.raises(queue.Full):
            channel.put("over", block=False)
        with pytest.raises(queue.Full):
            channel.put("over", timeout=0.01)
        assert channel.qsize() == capacity
        assert channel.get() == 0
        channel.put(capacity, block=False)
        with pytest.raises(queue.Full):
            channel.put("over", block=False)
        assert [channel.get() for _ in range(capacity)] == list(range(1, capacity + 1))

    def test_get_times_out_on_empty(self):
        channel = _Channel(2)
        with pytest.raises(queue.Empty):
            channel.get(timeout=0.01)
        with pytest.raises(queue.Empty):
            channel.get(block=False)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_at_most_zero_is_unbounded(self, capacity):
        channel = _Channel(capacity)
        for i in range(10_000):
            channel.put(i, block=False)
        assert channel.qsize() == 10_000
        assert [channel.get() for _ in range(10_000)] == list(range(10_000))

    def test_huge_capacity_mints_no_credit_up_front(self):
        channel = _Channel(10**9)
        assert channel._minted == 0
        assert channel._credits.qsize() == 0
        channel.put("a")
        channel.get()
        channel.put("b")
        # The credit "a" returned is reused rather than a second one minted.
        assert channel._minted == 1

    def test_gauge_follows_every_put_and_get(self):
        registry = MetricsRegistry()
        gauge = registry.gauge(QUEUE_DEPTH, stage="x")
        channel = _Channel(3, gauge)
        channel.put(1)
        channel.put(2)
        assert gauge.value == 2
        channel.get()
        assert gauge.value == 1

    def test_unbounded_pipeline_matches_sequential(self, tiny_dirty_dataset):
        ds = tiny_dirty_dataset
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())
        parallel = ParallelERPipeline(config_for(ds), processes=8, queue_capacity=0)
        result = parallel.run(ds.stream(), timeout=60)
        assert result.match_pairs == sequential.cl.matches.pairs()


class TestBackpressure:
    """No inter-stage queue ever holds more than ``queue_capacity`` messages.

    A delayed ``f_co`` lets every queue upstream of it fill; a wrapper
    around each stage callable samples every queue's depth (and its gauge)
    while the run is in flight.
    """

    @pytest.mark.parametrize(
        "micro_batch_size, capacity", [(1, 2), (8, 3)], ids=["pp", "mpp"]
    )
    def test_queues_never_exceed_capacity(self, tiny_dirty_dataset, micro_batch_size, capacity):
        ds = tiny_dirty_dataset
        sequential = StreamERPipeline(config_for(ds), instrument=False)
        sequential.process_many(ds.stream())
        registry = MetricsRegistry()
        pipeline = ParallelERPipeline(
            config_for(ds),
            processes=8,
            micro_batch_size=micro_batch_size,
            micro_batch_delay=0.001,
            queue_capacity=capacity,
            registry=registry,
            faults={"co": FaultSpec(probability=1.0, mode="delay", delay_seconds=0.001)},
        )
        names = [runner.name for runner in pipeline._runners]
        channels = [runner.in_queue for runner in pipeline._runners]
        depths: list[int] = []
        gauges: list[float] = []

        def sampled(fn):
            def call(payload):
                depths.extend(channel.qsize() for channel in channels)
                gauges.extend(registry.value(QUEUE_DEPTH, stage=name) for name in names)
                return fn(payload)

            return call

        for runner in pipeline._runners:
            runner.fn = sampled(runner.fn)
        result = pipeline.run(ds.stream(), timeout=60)
        assert not result.dead_letters
        assert result.match_pairs == sequential.cl.matches.pairs()
        assert depths and max(depths) <= capacity
        assert gauges and max(gauges) <= capacity
        assert max(depths) == capacity  # the slow stage did fill the queues
        for name in names:
            gauge = registry.get(QUEUE_DEPTH, stage=name)
            assert gauge is not None
            assert gauge.value <= capacity


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
                block, n = view
                seen[blocked.profile.eid] = (view, block[:n])
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
        assert all(block[:n] == members for (block, n), members in seen.values())
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
