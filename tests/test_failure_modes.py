"""Failure-injection and boundary-condition tests across the stack."""

import numpy as np
import pytest

from repro.cluster import (ClusterSpec, LogNormalStragglers, cluster1,
                           homogeneous_nodes)
from repro.collectives import Topology, tree_fan_in_wire
from repro.core import (MLlibStarTrainer, MLlibTrainer, TrainerConfig)
from repro.data import SyntheticSpec, generate
from repro.engine import BspEngine
from repro.glm import Objective
from repro.ps import PetuumTrainer


class TestDivergenceHandling:
    def test_diverged_flag_set_and_run_stops(self, small_cluster):
        """A wild learning rate on squared loss must blow up, set the
        diverged flag, and stop the run early instead of looping."""
        ds = generate(SyntheticSpec(n_rows=500, n_features=50, seed=2),
                      "blowup")
        cfg = TrainerConfig(max_steps=200, learning_rate=50.0,
                            local_chunk_size=250, divergence_limit=1e4,
                            seed=1)
        result = MLlibStarTrainer(Objective("squared"), small_cluster,
                                  cfg).fit(ds)
        assert result.diverged
        assert result.history.total_steps < 200

    def test_nan_objective_counts_as_divergence(self, small_cluster):
        ds = generate(SyntheticSpec(n_rows=200, n_features=30, seed=2),
                      "nan-run")
        cfg = TrainerConfig(max_steps=100, learning_rate=1e6,
                            local_chunk_size=100, seed=1)
        result = MLlibStarTrainer(Objective("squared"), small_cluster,
                                  cfg).fit(ds)
        assert result.diverged

    def test_summation_divergence_terminates(self, small_dataset,
                                             small_cluster):
        cfg = TrainerConfig(max_steps=500, learning_rate=0.2,
                            batch_fraction=0.5, local_chunk_size=1000,
                            divergence_limit=1e5, seed=1)
        result = PetuumTrainer(Objective("squared"), small_cluster,
                               cfg).fit(small_dataset)
        assert result.diverged
        assert result.history.total_steps < 500


class TestBoundaryShapes:
    def test_single_executor_cluster(self):
        """k = 1: no peers to talk to; everything must still work."""
        ds = generate(SyntheticSpec(n_rows=100, n_features=10, seed=1),
                      "solo")
        cluster = ClusterSpec(nodes=homogeneous_nodes(2))  # driver + 1
        cfg = TrainerConfig(max_steps=3, seed=1)
        result = MLlibStarTrainer(Objective("hinge"), cluster, cfg).fit(ds)
        assert result.history.total_steps == 3
        assert np.all(np.isfinite(result.model.weights))

    def test_rows_equal_executors(self, small_cluster):
        """One row per worker: minimum viable partitioning."""
        ds = generate(SyntheticSpec(n_rows=4, n_features=10, seed=1),
                      "four-rows")
        cfg = TrainerConfig(max_steps=2, seed=1)
        result = MLlibTrainer(Objective("hinge"), small_cluster, cfg).fit(ds)
        assert result.history.total_steps == 2

    def test_model_dim_equals_executors(self, small_cluster):
        """AllReduce slices of exactly one coordinate each."""
        ds = generate(SyntheticSpec(n_rows=100, n_features=4, seed=1),
                      "tiny-model")
        cfg = TrainerConfig(max_steps=2, seed=1)
        result = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                  cfg).fit(ds)
        assert np.all(np.isfinite(result.model.weights))

    def test_batch_fraction_one_is_full_gd(self, tiny_dataset,
                                           small_cluster):
        cfg = TrainerConfig(max_steps=3, batch_fraction=1.0, seed=1)
        result = MLlibTrainer(Objective("hinge"), small_cluster, cfg).fit(
            tiny_dataset)
        assert result.final_objective < result.history.objectives()[0]


class TestExtremeStragglers:
    def test_severe_stragglers_only_stretch_time(self, tiny_dataset):
        """Stragglers change the clock, never the math."""
        def run(sigma):
            cluster = ClusterSpec(
                nodes=homogeneous_nodes(5),
                stragglers=LogNormalStragglers(sigma=sigma), seed=3)
            cfg = TrainerConfig(max_steps=4, seed=1)
            return MLlibStarTrainer(Objective("hinge"), cluster, cfg).fit(
                tiny_dataset)
        calm = run(0.0)
        stormy = run(2.0)
        assert np.array_equal(calm.model.weights, stormy.model.weights)
        assert stormy.history.total_seconds > calm.history.total_seconds


class TestEngineInvariants:
    def test_clock_never_goes_backwards(self):
        engine = BspEngine(cluster1(executors=4))
        last = 0.0
        for step in range(3):
            engine.compute_phase([0.1, 0.2, 0.0, 0.3], step)
            assert engine.now >= last
            last = engine.now
            engine.collective_phase(tree_fan_in_wire(
                Topology.of(engine.cluster), 1000), step)
            assert engine.now >= last
            last = engine.now
            engine.broadcast_phase(1000, step)
            assert engine.now >= last
            last = engine.now

    def test_spans_within_makespan(self, tiny_dataset, small_cluster):
        cfg = TrainerConfig(max_steps=3, seed=1)
        result = MLlibTrainer(Objective("hinge"), small_cluster, cfg).fit(
            tiny_dataset)
        makespan = result.trace.end_time()
        for span in result.trace.spans:
            assert 0 <= span.start <= span.end <= makespan + 1e-9

    def test_busy_plus_wait_bounded_by_makespan(self, tiny_dataset,
                                                small_cluster):
        """No node can be active longer than the run itself."""
        cfg = TrainerConfig(max_steps=3, seed=1)
        result = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                  cfg).fit(tiny_dataset)
        makespan = result.trace.end_time()
        for node in result.trace.nodes():
            occupied = (result.trace.busy_seconds(node)
                        + result.trace.wait_seconds(node))
            assert occupied <= makespan + 1e-9


class TestPartitionedDatasetEdges:
    def test_contiguous_partitioning_used_by_fit(self, tiny_dataset,
                                                 small_cluster):
        cfg = TrainerConfig(max_steps=2, seed=1)
        result = MLlibStarTrainer(Objective("hinge"), small_cluster,
                                  cfg).fit(tiny_dataset,
                                           partition_strategy="contiguous")
        assert result.history.total_steps == 2

    def test_warm_start_continues_from_given_weights(self, tiny_dataset,
                                                     small_cluster):
        obj = Objective("hinge")
        cfg = TrainerConfig(max_steps=4, seed=1)
        first = MLlibStarTrainer(obj, small_cluster, cfg).fit(tiny_dataset)
        resumed = MLlibStarTrainer(obj, small_cluster, cfg).fit(
            tiny_dataset, initial_weights=first.model.weights)
        # Warm start begins at the previous objective, not at f(0).
        assert resumed.history.objectives()[0] == pytest.approx(
            first.final_objective)

    def test_warm_start_shape_checked(self, tiny_dataset, small_cluster):
        cfg = TrainerConfig(max_steps=1, seed=1)
        trainer = MLlibStarTrainer(Objective("hinge"), small_cluster, cfg)
        with pytest.raises(ValueError, match="initial_weights"):
            trainer.fit(tiny_dataset, initial_weights=np.zeros(3))
