"""Unit tests for repro.engine.driver (BspEngine phases and traces)."""

import pytest

from repro.cluster import cluster1, cluster2
from repro.collectives import Topology, flat_exchange, tree_fan_in_wire
from repro.engine import BspEngine, executor_label
from repro.engine.driver import DRIVER_LABEL


@pytest.fixture
def engine():
    return BspEngine(cluster1(executors=4))


def tree_aggregate(engine, m, step):
    """Price one dense flat treeAggregate of size-``m`` vectors."""
    topology = Topology.of(engine.cluster, engine.tree)
    return engine.collective_phase(tree_fan_in_wire(topology, m), step)


def all_reduce(engine, m, step):
    """Price one dense flat Reduce-Scatter + AllGather."""
    topology = Topology.of(engine.cluster)
    return (engine.collective_phase(
        flat_exchange("reduce_scatter", topology, m), step)
        + engine.collective_phase(
            flat_exchange("all_gather", topology, m), step))


class TestComputePhase:
    def test_barrier_at_slowest(self, engine):
        duration = engine.compute_phase([1.0, 2.0, 0.5, 1.5], step=0)
        assert duration == pytest.approx(2.0)
        assert engine.now == pytest.approx(2.0)

    def test_wait_spans_for_fast_workers(self, engine):
        engine.compute_phase([1.0, 2.0, 0.5, 1.5], step=0)
        assert engine.trace.wait_seconds(executor_label(0)) == (
            pytest.approx(1.0))
        assert engine.trace.wait_seconds(executor_label(1)) == 0.0

    def test_driver_waits_through_compute(self, engine):
        engine.compute_phase([1.0, 1.0, 1.0, 1.0], step=0)
        assert engine.trace.wait_seconds(DRIVER_LABEL) == pytest.approx(1.0)

    def test_clock_accumulates(self, engine):
        engine.compute_phase([1.0] * 4, step=0)
        engine.compute_phase([2.0] * 4, step=1)
        assert engine.now == pytest.approx(3.0)

    def test_stragglers_stretch_barrier(self):
        straggly = cluster2(machines=4, straggler_sigma=0.5, seed=1)
        engine = BspEngine(straggly)
        duration = engine.compute_phase([1.0] * 4, step=0)
        # With heterogeneous static speeds already in cluster2, plus
        # transient stragglers, the barrier exceeds the base time.
        assert duration > 1.0

    def test_length_mismatch(self, engine):
        with pytest.raises(ValueError, match="durations"):
            engine.compute_phase([1.0], step=0)

    def test_negative_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.compute_phase([-1.0] * 4, step=0)


class TestAggregateUpdateBroadcast:
    def test_tree_aggregate_advances_clock(self, engine):
        before = engine.now
        dur = tree_aggregate(engine, 100_000, step=0)
        assert dur > 0
        assert engine.now == pytest.approx(before + dur)

    def test_tree_aggregate_emits_driver_span(self, engine):
        tree_aggregate(engine, 100_000, step=0)
        driver_spans = engine.trace.spans_for(DRIVER_LABEL)
        assert any(s.kind == "aggregate" for s in driver_spans)

    def test_driver_update_blocks_executors(self, engine):
        engine.driver_update_phase(0.5, step=0)
        for i in range(4):
            assert engine.trace.wait_seconds(executor_label(i)) == (
                pytest.approx(0.5))

    def test_zero_update_is_free(self, engine):
        assert engine.driver_update_phase(0.0, step=0) == 0.0
        assert len(engine.trace) == 0

    def test_broadcast_staircase(self, engine):
        engine.broadcast_phase(400_000, step=0)
        recvs = [s for s in engine.trace.spans_for(executor_label(3))
                 if s.kind == "recv"]
        assert len(recvs) == 1
        # Fourth executor's copy starts after the first three.
        assert recvs[0].start > 0


class TestAllReducePhases:
    def test_reduce_scatter_cheaper_than_driver_path(self):
        """The whole point of MLlib*: same traffic, lower latency."""
        cluster = cluster1(executors=8)
        m = 5_000_000
        star = BspEngine(cluster)
        t_star = all_reduce(star, m, 0)
        mllib = BspEngine(cluster)
        t_mllib = (tree_aggregate(mllib, m, 0)
                   + mllib.broadcast_phase(m, 0))
        assert t_star < t_mllib / 2

    def test_no_driver_activity(self):
        engine = BspEngine(cluster1(executors=4))
        all_reduce(engine, 10_000, 0)
        busy = engine.trace.busy_seconds(DRIVER_LABEL)
        assert busy == 0.0

    def test_all_executors_send(self):
        engine = BspEngine(cluster1(executors=4))
        engine.collective_phase(flat_exchange(
            "reduce_scatter", Topology.of(engine.cluster), 10_000), 0)
        for i in range(4):
            spans = engine.trace.spans_for(executor_label(i))
            assert any(s.kind == "send" for s in spans)

    def test_reduce_scatter_includes_combine(self):
        engine = BspEngine(cluster1(executors=4))
        engine.collective_phase(flat_exchange(
            "reduce_scatter", Topology.of(engine.cluster), 10_000), 0)
        kinds = {s.kind for s in engine.trace.spans}
        assert "aggregate" in kinds


class TestEngineValidation:
    def test_requires_executors(self):
        from repro.cluster import ClusterSpec, homogeneous_nodes
        with pytest.raises(ValueError):
            BspEngine(ClusterSpec(nodes=homogeneous_nodes(1)))
