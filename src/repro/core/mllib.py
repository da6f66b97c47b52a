"""Baseline MLlib: the SendGradient paradigm (Figure 2(a)).

One communication step of MLlib's ``GradientDescent``:

1. the driver broadcasts the current model (priced at the *end* of the
   previous step here, so step 1 starts from the initial broadcast-free
   state as in Spark, where the initial zero model is part of the closure);
2. every executor samples a mini-batch from its cached partition and
   computes the gradient at the received model;
3. gradients are combined hierarchically via ``treeAggregate``;
4. the driver applies one (1) update to the global model;
5. the driver broadcasts the updated model for the next step.

Bottlenecks B1 (one update per step) and B2 (driver + intermediate
aggregators serialize while executors wait) both live here, and both are
visible in the emitted trace.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..collectives import (hier_tree_fan_in, switch_tree_fan_in,
                           tree_fan_in_wire)
from ..engine import (BroadcastModel, BspEngine, PartitionedDataset,
                      TreeAggregateModel)
from ..glm import Objective, apply_update
from .config import TrainerConfig
from .trainer import DistributedTrainer
from .worker import gradient_wave_task

__all__ = ["MLlibTrainer"]


class MLlibTrainer(DistributedTrainer):
    """Spark MLlib's distributed MGD (SendGradient + treeAggregate)."""

    system = "MLlib"

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None,
                 tree: TreeAggregateModel | None = None,
                 broadcast: BroadcastModel | None = None) -> None:
        super().__init__(objective, cluster, config)
        self._tree = tree
        self._broadcast = broadcast
        self._engine: BspEngine | None = None
        self._rngs: list[np.random.Generator] = []

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        self._engine = BspEngine(self.cluster, tree=self._tree,
                                 broadcast=self._broadcast,
                                 faults=self.faults, recovery=self.recovery)
        self._install_recovery_costs(self._engine, data)
        self._topology = self._collective_topology(self._engine)
        self._rngs = self._worker_rngs(data.num_partitions)

    def _clock(self) -> float:
        assert self._engine is not None, "fit() not started"
        return self._engine.now

    def _trace(self) -> Trace:
        assert self._engine is not None, "fit() not started"
        return self._engine.trace

    # ------------------------------------------------------------------
    def _run_step(self, step: int, w: np.ndarray,
                  data: PartitionedDataset) -> np.ndarray:
        engine = self._engine
        assert engine is not None
        m = data.n_features
        lr = self.schedule.at(step)

        # Phase 1: executors compute batch gradients at the current model.
        # With multiple waves, each executor runs its tasks sequentially
        # (one core slot per the paper's setting), each task sampling a
        # share of the batch, paying a launch overhead, and later shipping
        # its own gradient (Section V-C).  Executors are independent, so
        # the per-executor work fans out across the execution backend;
        # pricing stays in the parent against the returned nnz counts.
        waves = self.config.tasks_per_executor
        launch = self.cluster.compute.task_launch_seconds
        task_args = []
        for i, part in enumerate(data.partitions):
            batch = self._batch_size(part.n_rows)
            per_task = max(1, batch // waves)
            task_args.append((w, self.objective, waves, per_task,
                              self._rngs[i]))
        results = self._backend.map_partitions(gradient_wave_task, task_args)
        gradients: list[np.ndarray] = []
        task_grads_by_executor: list[list[np.ndarray]] = []
        durations: list[float] = []
        for i, (task_grads, nnz_list, rng) in enumerate(results):
            self._rngs[i] = rng
            seconds = 0.0
            for nnz in nnz_list:
                seconds += launch + self._compute_seconds(2 * nnz, 0, i)
            gradients.append(np.mean(task_grads, axis=0))
            task_grads_by_executor.append(task_grads)
            durations.append(seconds)
        engine.compute_phase(durations, step)

        # Phase 2: hierarchical aggregation — one message per task.  An
        # executor crashing here recomputes its batch gradients (the
        # in-memory vectors die with it) before resending.  Under
        # --sparse-comm each task's message is priced at its gradient's
        # support (the batch's column support, far smaller than m).
        # The table is built per call so a wrapper installed on these
        # module names (perfbench's layer tracer) sees every call.
        build = {"flat": tree_fan_in_wire, "hier": hier_tree_fan_in,
                 "switch": switch_tree_fan_in}[self.config.collective]
        schedule = build(self._topology, m, self.config.sparse_comm,
                         task_grads_by_executor)
        engine.collective_phase(schedule, step, redo_seconds=durations)

        # Phase 3: the single model update at the driver (bottleneck B1).
        mean_grad = np.mean(gradients, axis=0)
        new_w = apply_update(w, mean_grad, lr, self.objective)
        update_coords = 2 * m if self.objective.regularizer.is_dense else m
        update_seconds = self.cluster.compute.dense_op_seconds(
            update_coords, self.cluster.driver)
        engine.driver_update_phase(update_seconds, step)

        # Phase 4: broadcast the updated model for the next step.
        engine.broadcast_phase(m, step)
        return new_w
