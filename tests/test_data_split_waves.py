"""Tests for train_test_split and multi-wave task scheduling."""

import numpy as np
import pytest

from repro.core import MLlibTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate, train_test_split
from repro.engine import TreeAggregateModel
from repro.glm import Objective


@pytest.fixture
def ds():
    return generate(SyntheticSpec(n_rows=500, n_features=40, seed=6),
                    name="split-me")


class TestTrainTestSplit:
    def test_sizes(self, ds):
        train, test = train_test_split(ds, test_fraction=0.2, seed=1)
        assert test.n_rows == 100
        assert train.n_rows == 400

    def test_disjoint_and_complete(self, ds):
        train, test = train_test_split(ds, test_fraction=0.3, seed=2)
        assert train.n_rows + test.n_rows == ds.n_rows
        assert train.nnz + test.nnz == ds.nnz

    def test_names(self, ds):
        train, test = train_test_split(ds, seed=1)
        assert train.name == "split-me-train"
        assert test.name == "split-me-test"

    def test_deterministic(self, ds):
        a_train, _ = train_test_split(ds, seed=3)
        b_train, _ = train_test_split(ds, seed=3)
        assert np.array_equal(a_train.y, b_train.y)

    def test_seed_changes_split(self, ds):
        a_train, _ = train_test_split(ds, seed=3)
        b_train, _ = train_test_split(ds, seed=4)
        assert not np.array_equal(a_train.y, b_train.y)

    def test_validation(self, ds):
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(ds, test_fraction=1.0)

    def test_generalization_workflow(self, ds):
        """End-to-end: train on split, evaluate held-out AUC."""
        from repro.cluster import cluster1
        from repro.core import MLlibStarTrainer
        train, test = train_test_split(ds, test_fraction=0.25, seed=1)
        obj = Objective("hinge", "l2", 0.01)
        result = MLlibStarTrainer(obj, cluster1(executors=4),
                                  TrainerConfig(max_steps=10,
                                                seed=1)).fit(train)
        metrics = result.model.evaluate(test.X, test.y)
        assert metrics.auc > 0.7


class TestWaves:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(tasks_per_executor=0)

    def test_tree_timing_scales_with_messages(self):
        from repro.cluster import cluster1
        from repro.collectives import Topology, tree_fan_in_wire
        cluster = cluster1()
        topology = Topology.of(cluster, TreeAggregateModel(depth=2))
        one = tree_fan_in_wire(topology, 100_000,
                               messages_per_executor=1
                               ).level1_seconds(cluster)
        four = tree_fan_in_wire(topology, 100_000,
                                messages_per_executor=4
                                ).level1_seconds(cluster)
        assert four > 2 * one

    def test_tree_timing_rejects_zero_messages(self):
        from repro.cluster import cluster1
        from repro.collectives import Topology, tree_fan_in_wire
        with pytest.raises(ValueError):
            tree_fan_in_wire(Topology.of(cluster1()), 100,
                             messages_per_executor=0)

    def test_more_waves_more_time(self, ds, small_cluster):
        obj = Objective("hinge")
        times = {}
        for waves in (1, 4):
            cfg = TrainerConfig(max_steps=3, batch_fraction=0.2,
                                tasks_per_executor=waves, seed=1)
            result = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
            times[waves] = result.history.total_seconds
        assert times[4] > times[1]

    def test_single_wave_unchanged_numerics(self, ds, small_cluster):
        """waves=1 must match the pre-feature behaviour exactly."""
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=4, batch_fraction=0.2, seed=1)
        a = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
        b = MLlibTrainer(obj, small_cluster,
                         cfg.with_overrides(tasks_per_executor=1)).fit(ds)
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_waves_still_converge(self, ds, small_cluster):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=10, batch_fraction=0.2,
                            tasks_per_executor=3, seed=1)
        result = MLlibTrainer(obj, small_cluster, cfg).fit(ds)
        assert result.final_objective < result.history.objectives()[0]
