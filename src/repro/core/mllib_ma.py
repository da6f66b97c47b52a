"""MLlib + model averaging: B1 fixed, B2 still present (Figure 3(b)).

The first of the paper's two improvements in isolation: workers run local
SGD (SendModel) so each communication step contains many model updates, but
models are still combined through the driver with ``treeAggregate`` and
broadcast back — the communication pattern is unchanged from MLlib.

The paper uses this intermediate system to separate the contribution of
model averaging (fewer steps to converge) from that of AllReduce (cheaper
steps); bench Fig. 3(b) and the Fig. 4 speedup decomposition rely on it.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..collectives import (hier_tree_fan_in, switch_tree_fan_in,
                           tree_fan_in_wire)
from ..engine import (BroadcastModel, BspEngine, PartitionedDataset,
                      TreeAggregateModel)
from ..glm import Objective
from .config import TrainerConfig
from .trainer import DistributedTrainer
from .worker import run_dual_on_partition, send_model_task

__all__ = ["MLlibModelAveragingTrainer"]


class MLlibModelAveragingTrainer(DistributedTrainer):
    """SendModel through the unchanged MLlib aggregation path."""

    system = "MLlib+MA"
    supports_dual_solver = True

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
        self._init_dual_state(data)

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
        dual = self.config.local_solver != "mgd"

        # Phase 1: every executor updates a local model over its
        # partition (independent local solves; fanned out across the
        # backend).  Under a dual solver the local work is H SDCA epochs
        # over the executor's dual block and the shipped vector is a
        # gamma-scaled model *delta* — the communication pattern (one
        # m-vector per executor up the tree, broadcast back) and its
        # pricing are unchanged.
        locals_: list[np.ndarray] = []
        durations: list[float] = []
        if dual:
            results = self._backend.map_partitions(
                run_dual_on_partition,
                [(w, self.objective, self._dual_spec, self._duals[i],
                  self._rngs[i]) for i in range(data.num_partitions)])
            for i, (delta_w, alpha, stats, rng) in enumerate(results):
                self._rngs[i] = rng
                self._duals[i] = alpha
                locals_.append(delta_w)
                durations.append(self._compute_seconds(
                    stats.nnz_processed, stats.dense_ops, i))
        else:
            lr = self.schedule.at(step)
            results = self._backend.map_partitions(
                send_model_task,
                [(w, self.objective, lr, self.config, self._rngs[i])
                 for i in range(data.num_partitions)])
            for i, (local_w, stats, rng) in enumerate(results):
                self._rngs[i] = rng
                locals_.append(local_w)
                durations.append(self._compute_seconds(
                    stats.nnz_processed, stats.dense_ops, i))
        engine.compute_phase(durations, step)

        # Phase 2: unchanged MLlib communication — models (not gradients)
        # flow through treeAggregate to the driver...  A crash here costs
        # the executor its local model, so it redoes its local SGD passes
        # before resending.  Under --sparse-comm each local model's
        # message is priced at its support (the coordinates local SGD
        # touched — the partition's column support at most).
        build = {"flat": tree_fan_in_wire, "hier": hier_tree_fan_in,
                 "switch": switch_tree_fan_in}[self.config.collective]
        schedule = build(self._topology, m, self.config.sparse_comm,
                         [[local] for local in locals_])
        engine.collective_phase(schedule, step, redo_seconds=durations)

        # ...which combines them on the driver (one dense pass): model
        # averaging for the primal path, delta summation (applied to the
        # broadcast iterate, in fixed partition order) for the dual path.
        if dual:
            total = locals_[0].copy()
            for delta in locals_[1:]:
                total += delta
            new_w = w + total
        else:
            new_w = np.mean(locals_, axis=0)
        average_seconds = self.cluster.compute.dense_op_seconds(
            m, self.cluster.driver)
        engine.driver_update_phase(average_seconds, step)

        # ...and broadcasts the averaged model back (bottleneck B2 intact).
        engine.broadcast_phase(m, step)
        return new_w
