"""Analytic per-step cost breakdown and system advisor.

The paper's related work discusses a cost-based optimizer for gradient
descent plans (Kaoudi et al., reference [11]); the authors sidestep it by
grid searching.  This module implements the piece that *is* derivable from
first principles in our setting: an analytic decomposition of one
communication step's simulated time into compute, communication and
driver-serialized components, for every system in the study.

The decomposition answers the practical questions the paper's analysis
raises — where does each step's time go, when does the driver dominate,
at what model size does AllReduce start paying off — without running the
training.  It prices exactly the same phases the trainers execute, so
tests can check the prediction against a measured run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import ClusterSpec
from ..collectives import Topology, flat_exchange, tree_fan_in_wire
from ..engine import BroadcastModel
from ..ps.engine import PsEngine

__all__ = ["StepCost", "WorkloadProfile", "estimate_step_cost",
           "rank_systems", "ADVISABLE_SYSTEMS"]

ADVISABLE_SYSTEMS = ("MLlib", "MLlib+MA", "MLlib*", "Petuum*", "Angel")


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about a workload.

    ``nnz_per_step_per_worker`` is the stored nonzeros one worker touches
    in one communication step (batch nnz for SendGradient/Petuum, the full
    partition — times local epochs — for SendModel systems); use
    :meth:`from_dataset` helpers or fill it directly.
    """

    model_size: int
    nnz_per_step_per_worker: float

    def __post_init__(self) -> None:
        if self.model_size < 1:
            raise ValueError("model_size must be positive")
        if self.nnz_per_step_per_worker < 0:
            raise ValueError("nnz per step must be non-negative")


@dataclass(frozen=True)
class StepCost:
    """One system's per-step time decomposition (simulated seconds)."""

    system: str
    compute: float
    communication: float
    driver: float

    @property
    def total(self) -> float:
        return self.compute + self.communication + self.driver

    def describe(self) -> str:
        return (f"{self.system}: {self.total:.4f}s "
                f"(compute {self.compute:.4f}, "
                f"comm {self.communication:.4f}, "
                f"driver {self.driver:.4f})")


def _sendgradient_cost(cluster: ClusterSpec,
                       profile: WorkloadProfile) -> StepCost:
    """MLlib: batch gradient + treeAggregate + update + broadcast."""
    slowest = min(node.speed for node in cluster.executors)
    compute = cluster.compute.sparse_pass_seconds(
        2 * profile.nnz_per_step_per_worker,
        cluster.executors[0]) / slowest
    tree = tree_fan_in_wire(Topology.of(cluster), profile.model_size)
    aggregators = tree.level1_seconds(cluster)
    driver = tree.tail_seconds(cluster)
    update = cluster.compute.dense_op_seconds(profile.model_size,
                                              cluster.driver)
    broadcast = BroadcastModel().seconds(cluster, profile.model_size)
    return StepCost(system="MLlib", compute=compute,
                    communication=aggregators + broadcast,
                    driver=driver + update)


def _sendmodel_driver_cost(cluster: ClusterSpec,
                           profile: WorkloadProfile) -> StepCost:
    """MLlib+MA: local pass + the unchanged driver round-trip."""
    base = _sendgradient_cost(cluster, profile)
    return StepCost(system="MLlib+MA", compute=base.compute,
                    communication=base.communication, driver=base.driver)


def _allreduce_cost(cluster: ClusterSpec,
                    profile: WorkloadProfile) -> StepCost:
    """MLlib*: local pass + Reduce-Scatter + AllGather."""
    slowest = min(node.speed for node in cluster.executors)
    compute = cluster.compute.sparse_pass_seconds(
        2 * profile.nnz_per_step_per_worker,
        cluster.executors[0]) / slowest
    round_ = flat_exchange("reduce_scatter", Topology.of(cluster),
                           profile.model_size)
    comm = 2 * round_.comm_seconds(cluster)
    combine = cluster.compute.dense_op_seconds(profile.model_size,
                                               cluster.executors[0])
    return StepCost(system="MLlib*", compute=compute + combine,
                    communication=comm, driver=0.0)


def _ps_cost(system: str, cluster: ClusterSpec,
             profile: WorkloadProfile) -> StepCost:
    """Petuum*/Angel: local work + sharded pull/push."""
    slowest = min(node.speed for node in cluster.executors)
    compute = cluster.compute.sparse_pass_seconds(
        2 * profile.nnz_per_step_per_worker,
        cluster.executors[0]) / slowest
    engine = PsEngine(cluster)
    comm = engine.comm_seconds(profile.model_size)
    return StepCost(system=system, compute=compute, communication=comm,
                    driver=0.0)


def estimate_step_cost(system: str, cluster: ClusterSpec,
                       profile: WorkloadProfile) -> StepCost:
    """Analytic per-step cost for one system on one workload."""
    if system == "MLlib":
        return _sendgradient_cost(cluster, profile)
    if system == "MLlib+MA":
        return _sendmodel_driver_cost(cluster, profile)
    if system == "MLlib*":
        return _allreduce_cost(cluster, profile)
    if system in ("Petuum*", "Angel"):
        return _ps_cost(system, cluster, profile)
    raise KeyError(f"unknown system {system!r}; "
                   f"choose from {ADVISABLE_SYSTEMS}")


def rank_systems(cluster: ClusterSpec, profile: WorkloadProfile,
                 systems: tuple[str, ...] = ADVISABLE_SYSTEMS,
                 ) -> list[StepCost]:
    """All systems' per-step costs, cheapest first.

    Per-step cost is only half the story (SendModel systems need far fewer
    steps — Figure 4); the advisor exposes the communication structure so
    callers can combine it with their convergence expectations.
    """
    costs = [estimate_step_cost(s, cluster, profile) for s in systems]
    costs.sort(key=lambda c: c.total)
    return costs
