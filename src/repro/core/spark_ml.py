"""spark.ml-style L-BFGS trainers: the paper's Section VII open question.

Spark's second-generation ``spark.ml`` library trains GLMs with L-BFGS
instead of mini-batch gradient descent.  The paper asks "whether the
techniques we have developed for speeding up MLlib could also be used for
improving spark.ml" and leaves it as future work; these trainers answer it
within the reproduction:

* :class:`SparkMlTrainer` — faithful spark.ml communication: every
  objective/gradient evaluation (one per strong-Wolfe line-search trial,
  exactly as breeze's ``StrongWolfeLineSearch`` does) broadcasts the
  candidate model from the driver, runs a distributed pass, and combines
  the gradient back through ``treeAggregate``; the driver then runs the
  two-loop recursion.  The driver round-trip happens several times per
  iteration.
* :class:`SparkMlStarTrainer` — the MLlib* treatment applied to L-BFGS:
  gradients are combined with Reduce-Scatter + AllGather, and every
  executor replicates the (deterministic) L-BFGS state and line search,
  so candidate models never cross the network.

Both trainers produce *identical iterates* (the math is unchanged); the
difference is purely the communication pattern, mirroring the
MLlib+MA-vs-MLlib* relationship.  Smooth objectives only (logistic or
squared loss, or hinge + L2 at your own risk — spark.ml smooths its SVM).
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..collectives import (flat_exchange, hier_exchange, hier_tree_fan_in,
                           switch_exchange, switch_tree_fan_in,
                           tree_fan_in_wire)
from ..engine import BspEngine, PartitionedDataset
from ..glm import Objective
from ..glm.lbfgs import LbfgsState, wolfe_line_search
from .config import TrainerConfig
from .trainer import DistributedTrainer
from .worker import full_pass_task

__all__ = ["SparkMlTrainer", "SparkMlStarTrainer"]


class SparkMlTrainer(DistributedTrainer):
    """spark.ml: driver-centric distributed L-BFGS."""

    system = "spark.ml"

    #: Curvature pairs kept by L-BFGS (spark.ml's default is 10).
    memory = 10
    #: Maximum strong-Wolfe evaluations per line search.
    max_line_search_evals = 12

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._engine: BspEngine | None = None
        self._state: LbfgsState | None = None
        self._grad: np.ndarray | None = None
        self._fval: float = 0.0

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = BspEngine(self.cluster, faults=self.faults,
                                 recovery=self.recovery)
        self._install_recovery_costs(self._engine, data)
        self._topology = self._collective_topology(self._engine)
        self._state = LbfgsState(memory=self.memory)
        self._grad = None

    def _clock(self) -> float:
        assert self._engine is not None, "fit() not started"
        return self._engine.now

    def _trace(self) -> Trace:
        assert self._engine is not None, "fit() not started"
        return self._engine.trace

    # ------------------------------------------------------------------
    def _local_fg(self, w: np.ndarray, data: PartitionedDataset,
                  ) -> tuple[float, np.ndarray, list[float]]:
        """Full-batch objective and gradient: one pass per executor.

        The per-partition passes fan out across the execution backend;
        the weighted accumulation runs in the parent, in partition order
        — the serial loop's exact float-op sequence.
        """
        results = self._backend.map_partitions(
            full_pass_task, [(w, self.objective) for _ in data.partitions])
        total_rows = sum(p.n_rows for p in data.partitions)
        fval = self.objective.regularizer.value(w)
        grad = self.objective.regularizer.gradient(w)
        durations = []
        for i, part in enumerate(data.partitions):
            weight = part.n_rows / total_rows
            loss_value, loss_grad = results[i]
            fval += weight * loss_value
            grad = grad + weight * loss_grad
            durations.append(self._compute_seconds(2 * part.nnz, 0, i))
        return fval, grad, durations

    # ------------------------------------------------------------------
    # communication accounting hooks (overridden by the Star variant)
    # ------------------------------------------------------------------
    def _charge_evaluation(self, m: int, step: int,
                           durations: list[float],
                           candidate_shipped: bool) -> None:
        """One distributed (f, grad) evaluation.

        spark.ml ships the candidate model driver -> executors (unless the
        executors already hold it, e.g. the first evaluation of the run),
        runs the pass, and tree-aggregates the gradient back.  The
        gradients are dense, so every message is priced at its dense size.
        """
        engine = self._engine
        assert engine is not None
        if candidate_shipped:
            engine.broadcast_phase(m, step)
        engine.compute_phase(durations, step)
        build = {"flat": tree_fan_in_wire, "hier": hier_tree_fan_in,
                 "switch": switch_tree_fan_in}[self.config.collective]
        engine.collective_phase(build(self._topology, m), step,
                                redo_seconds=durations)

    def _charge_direction(self, m: int, step: int) -> None:
        """The two-loop recursion over the curvature history."""
        engine = self._engine
        assert engine is not None
        state = self._state
        coords = (4 * len(state) + 2) * m if state else 2 * m
        engine.driver_update_phase(
            self.cluster.compute.dense_op_seconds(coords,
                                                  self.cluster.driver),
            step)

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features

        if self._grad is None:
            fval, grad, durations = self._local_fg(w, data)
            self._charge_evaluation(m, step, durations,
                                    candidate_shipped=False)
        else:
            # Cached from the accepted line-search point of the last step.
            fval, grad = self._fval, self._grad

        assert self._state is not None
        direction = self._state.direction(grad)
        self._charge_direction(m, step)

        def fg_probe(candidate: np.ndarray) -> tuple[float, np.ndarray]:
            value, gradient, durations = self._local_fg(candidate, data)
            self._charge_evaluation(m, step, durations,
                                    candidate_shipped=True)
            return value, gradient

        search = wolfe_line_search(fg_probe, w, direction, fval, grad,
                                   max_evals=self.max_line_search_evals)
        if not search.success:
            # Reset curvature and retry along steepest descent.
            self._state = LbfgsState(memory=self.memory)
            direction = -grad
            search = wolfe_line_search(fg_probe, w, direction, fval, grad,
                                       max_evals=self.max_line_search_evals)
            if not search.success:
                # Stuck (e.g. at a kink of a nonsmooth loss); keep the
                # iterate and let the step cap end the run.
                self._fval, self._grad = fval, grad
                return w

        new_w = w + search.step * direction
        assert search.grad is not None
        self._state.push(new_w - w, search.grad - grad)
        self._fval, self._grad = search.fval, search.grad
        return new_w


class SparkMlStarTrainer(SparkMlTrainer):
    """spark.ml + the MLlib* treatment: AllReduce, replicated line search.

    Every executor holds the same L-BFGS state and runs the same line
    search (deterministic functions of the shared gradient), so candidate
    models never cross the network — each evaluation costs one local pass
    plus one gradient AllReduce, and the driver is out of the data path.
    """

    system = "spark.ml*"

    def _prepare(self, data: PartitionedDataset) -> None:
        if data.n_features < data.num_partitions:
            raise ValueError(
                f"model of size {data.n_features} cannot be partitioned "
                f"across {data.num_partitions} executors for AllReduce: "
                "every owner needs at least one coordinate "
                "(num_executors > model_size)")
        super()._prepare(data)

    def _charge_evaluation(self, m: int, step: int,
                           durations: list[float],
                           candidate_shipped: bool) -> None:
        engine = self._engine
        assert engine is not None
        # No model broadcast: every executor builds the candidate locally.
        engine.compute_phase(durations, step)
        build = {"flat": flat_exchange, "hier": hier_exchange,
                 "switch": switch_exchange}[self.config.collective]
        for phase in ("reduce_scatter", "all_gather"):
            engine.collective_phase(build(phase, self._topology, m), step,
                                    redo_seconds=durations)

    def _charge_direction(self, m: int, step: int) -> None:
        engine = self._engine
        assert engine is not None
        state = self._state
        coords = (4 * len(state) + 2) * m if state else 2 * m
        durations = [
            self.cluster.compute.dense_op_seconds(coords, node)
            for node in self.cluster.executors
        ]
        engine.compute_phase(durations, step)
