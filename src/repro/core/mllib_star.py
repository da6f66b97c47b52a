"""MLlib*: model averaging + distributed aggregation (Algorithm 3).

The paper's full system.  Each communication step:

1. ``UpdateModel``   — every executor runs local SGD from its copy of the
   global model (many updates per step: B1 fixed);
2. ``Reduce-Scatter`` — the model is logically partitioned, executor ``r``
   owns partition ``r``; everyone ships non-owned partitions to their
   owners via shuffle, and owners average the ``k`` copies they now hold;
3. ``AllGather``      — owners ship their averaged partition to all peers;
   every executor reassembles the identical full global model.

The driver only schedules; it touches no model data (B2 fixed).  Total
traffic per step stays ~``2 k m`` (the same as the driver round-trip), but
the latency is that of two balanced shuffle rounds instead of a serialized
fan-in + fan-out through one node.
"""

from __future__ import annotations

import numpy as np

from ..cluster import ClusterSpec, Trace
from ..collectives import (hier_all_gather, hier_reduce_scatter,
                           sparse_all_gather, sparse_reduce_scatter,
                           switch_all_gather, switch_reduce_scatter)
from ..engine import BspEngine, PartitionedDataset
from ..glm import Objective
from .config import TrainerConfig
from .trainer import DistributedTrainer
from .worker import run_dual_on_partition, send_model_task

__all__ = ["MLlibStarTrainer"]


class MLlibStarTrainer(DistributedTrainer):
    """The paper's MLlib*: SendModel + shuffle-based AllReduce."""

    system = "MLlib*"
    supports_dual_solver = True

    def __init__(self, objective: Objective, cluster: ClusterSpec,
                 config: TrainerConfig | None = None,
                 combine: str = "average") -> None:
        super().__init__(objective, cluster, config)
        if combine not in ("average", "sum", "weighted"):
            raise ValueError(
                "combine must be 'average', 'sum' or 'weighted'")
        #: 'average' is MLlib*'s scheme; 'sum' exists for the
        #: aggregation-scheme ablation (model summation can diverge);
        #: 'weighted' is the Zhang & Jordan [15] reweighting the paper's
        #: Section IV-B1 remark suggests, weighting each worker's model
        #: by its local sample count (matters for unbalanced partitions).
        self.combine = combine
        self._engine: BspEngine | None = None
        self._rngs: list[np.random.Generator] = []

    # ------------------------------------------------------------------
    def _prepare(self, data: PartitionedDataset) -> None:
        if data.n_features < data.num_partitions:
            raise ValueError(
                f"model of size {data.n_features} cannot be partitioned "
                f"across {data.num_partitions} executors for AllReduce: "
                "every owner needs at least one coordinate "
                "(num_executors > model_size)")
        self._engine = BspEngine(self.cluster, faults=self.faults,
                                 recovery=self.recovery)
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

        if self.config.local_solver != "mgd":
            # Dual path (CoCoA/CoCoA+): every executor runs H SDCA
            # epochs over its dual block and ships a gamma-scaled model
            # *delta*; deltas are summed through the exact same
            # AllReduce and applied to the broadcast iterate.  Dual
            # blocks round-trip through the parent like the RNGs.
            results = self._backend.map_partitions(
                run_dual_on_partition,
                [(w, self.objective, self._dual_spec, self._duals[i],
                  self._rngs[i]) for i in range(data.num_partitions)])
            deltas: list[np.ndarray] = []
            durations: list[float] = []
            for i, (delta_w, alpha, stats, rng) in enumerate(results):
                self._rngs[i] = rng
                self._duals[i] = alpha
                deltas.append(delta_w)
                durations.append(self._compute_seconds(
                    stats.nnz_processed, stats.dense_ops, i))
            engine.compute_phase(durations, step)
            total = self._exchange(deltas, m, step, durations,
                                   combine="sum", weights=None)
            return w + total

        lr = self.schedule.at(step)

        # Phase 1: UpdateModel on every executor — independent local SGD
        # passes, fanned out across the execution backend (the combining
        # below stays in the parent, in fixed order).
        results = self._backend.map_partitions(
            send_model_task,
            [(w, self.objective, lr, self.config, self._rngs[i])
             for i in range(data.num_partitions)])
        locals_: list[np.ndarray] = []
        durations: list[float] = []
        for i, (local_w, stats, rng) in enumerate(results):
            self._rngs[i] = rng
            locals_.append(local_w)
            durations.append(self._compute_seconds(
                stats.nnz_processed, stats.dense_ops, i))
        engine.compute_phase(durations, step)
        weights = None
        if self.combine == "weighted":
            weights = [float(p.n_rows) for p in data.partitions]
        return self._exchange(locals_, m, step, durations,
                              combine=self.combine, weights=weights)

    def _exchange(self, locals_: list[np.ndarray], m: int, step: int,
                  durations: list[float], combine: str,
                  weights: list[float] | None) -> np.ndarray:
        """Reduce-Scatter + AllGather of one vector per executor.

        The priced shuffle AllReduce shared by the primal path (combine
        local *models*, usually averaging) and the dual path (``sum``
        the gamma-scaled *deltas*) — both exchange exactly one m-vector
        per executor, so topology and sparse-wire pricing compose
        identically.
        """
        engine = self._engine
        assert engine is not None

        # Phase 2: Reduce-Scatter — owners combine their partition.  A
        # crashed owner loses its local model *and* every piece peers
        # shipped it, so recovery redoes the local SGD passes and pulls a
        # refill fan-in from all peers — the whole barrier stalls on it.
        # The sparse wire format changes what the messages cost, never
        # what they say: payloads are materialized before combining, so
        # iterates are bit-identical across all --sparse-comm modes.
        # --collective picks the aggregation topology (flat shuffle,
        # two-tier hier, or in-network switch); every topology calls the
        # same flat combine kernels underneath, so iterates are
        # bit-identical across --collective values too.
        mode = self.config.sparse_comm
        collective = self.config.collective
        # Tables built per call, so a wrapper installed on these module
        # names (perfbench's layer tracer) sees every call.
        reduce = {"flat": sparse_reduce_scatter, "hier": hier_reduce_scatter,
                  "switch": switch_reduce_scatter}[collective]
        partitions, schedule = reduce(locals_, self._topology,
                                      combine=combine, weights=weights,
                                      mode=mode)
        engine.collective_phase(schedule, step, redo_seconds=durations)

        # Phase 3: AllGather — everyone reassembles the global model.
        # Under --sanitize every worker's reassembled replica is
        # digest-checked for bit-identity at this barrier.
        gather = {"flat": sparse_all_gather, "hier": hier_all_gather,
                  "switch": switch_all_gather}[collective]
        new_w, schedule = gather(partitions, self._topology, m, mode=mode,
                                 check_replicas=self.sanitizer.enabled)
        engine.collective_phase(schedule, step, redo_seconds=durations)
        return new_w
