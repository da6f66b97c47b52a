"""Unit tests for repro.engine.aggregation and repro.engine.broadcast."""

import pytest

from repro.cluster import cluster1
from repro.collectives import Topology, tree_fan_in_wire
from repro.engine.aggregation import TreeAggregateModel
from repro.engine.broadcast import BroadcastModel


class TestTreeAggregatePlan:
    def test_depth2_sqrt_aggregators(self):
        model = TreeAggregateModel(depth=2)
        assert model.num_aggregators(8) == 2
        assert model.num_aggregators(16) == 4
        assert model.num_aggregators(1) == 1

    def test_depth1_no_aggregators(self):
        model = TreeAggregateModel(depth=1)
        assert model.num_aggregators(8) == 0
        assert model.plan(8) == {}

    def test_groups_cover_everyone(self):
        model = TreeAggregateModel(depth=2)
        plan = model.plan(8)
        assert sum(plan.values()) == 8
        assert max(plan.values()) - min(plan.values()) <= 1

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            TreeAggregateModel(depth=3)

    def test_rejects_no_executors(self):
        with pytest.raises(ValueError):
            TreeAggregateModel().num_aggregators(0)


def _tree_timing(cluster, m, depth=2):
    """(level-1 seconds, driver seconds) of the dense flat tree schedule."""
    schedule = tree_fan_in_wire(
        Topology.of(cluster, TreeAggregateModel(depth=depth)), m)
    return (schedule.level1_seconds(cluster),
            schedule.tail_seconds(cluster))


class TestTreeAggregateTiming:
    def test_hierarchical_driver_cheaper_than_flat(self):
        """treeAggregate exists to shed driver load; verify it does."""
        cluster = cluster1(executors=16)
        m = 1_000_000
        _, flat_driver = _tree_timing(cluster, m, depth=1)
        _, tree_driver = _tree_timing(cluster, m, depth=2)
        assert tree_driver < flat_driver

    def test_flat_total_can_beat_tree_for_few_executors(self):
        """With 4 executors the tree's extra hop isn't obviously better;
        the timing model must at least produce finite sensible values."""
        aggregators, driver = _tree_timing(cluster1(executors=4), 10_000)
        assert aggregators > 0
        assert driver > 0

    def test_driver_cost_scales_with_model(self):
        cluster = cluster1()
        assert (sum(_tree_timing(cluster, 1_000_000))
                > sum(_tree_timing(cluster, 1_000)))


class TestBroadcast:
    def test_serial_linear_in_executors(self):
        m = 100_000
        c8 = cluster1(executors=8)
        c16 = cluster1(executors=16)
        b = BroadcastModel(mode="serial")
        assert b.seconds(c16, m) == pytest.approx(2 * b.seconds(c8, m))

    def test_torrent_sublinear(self):
        m = 1_000_000
        b_serial = BroadcastModel(mode="serial")
        b_torrent = BroadcastModel(mode="torrent")
        c = cluster1(executors=16)
        assert b_torrent.seconds(c, m) < b_serial.seconds(c, m)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            BroadcastModel(mode="gossip")

    def test_no_executors_is_free(self):
        from repro.cluster import ClusterSpec, homogeneous_nodes
        lonely = ClusterSpec(nodes=homogeneous_nodes(1))
        assert BroadcastModel().seconds(lonely, 1000) == 0.0
