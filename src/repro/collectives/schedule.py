"""One schedule type for every priced collective.

Every collective this repo prices — MLlib's treeAggregate fan-in into the
driver, MLlib*'s shuffle Reduce-Scatter and AllGather — is lowered to a
:class:`Schedule`: per executor, an ordered list of :class:`Segment`
work items.  A segment names its *tier* and the gantt span *kind* it
shows as, and carries message *runs* ``(values, count)``:

* ``cross``  — messages on the cross-node fabric
  (:meth:`~repro.cluster.NetworkModel.transfer_seconds` each);
* ``intra``  — messages on the fast same-machine tier
  (:meth:`~repro.cluster.NetworkModel.intra_transfer_seconds` each);
* ``switch`` — a line-rate stream through an in-network switch with a
  bounded slot pool (:func:`switch_stream_seconds`);
* ``compute`` — dense combine work of ``values`` coordinates on the
  node running the segment.

:meth:`Schedule.segment_seconds` is the one pricing function: a segment
costs the left-to-right sum of ``count * price(values)`` over its runs.
A run of ``k`` equal dense messages therefore costs exactly
``k * transfer_seconds(v)``, while ``k`` separate entries of the same
size cost the (possibly last-bit different) left-to-right sum — sparse
wires list every message as its own entry, dense wires as runs.

A tree schedule (``tail`` set) also names its level-1 executors (the
aggregators, machine leaders or switch senders whose work ends level 1)
and the driver's *tail* — what the driver receives and combines after
the level-1 barrier.  Exchange schedules (Reduce-Scatter/AllGather) end
at a barrier over all executors instead and may carry *retry* segments:
what a crashed owner re-runs once it has recovered.

Builders live with their topology — :mod:`.sparse` (flat),
:mod:`.hierarchical` (two-tier) and :mod:`.innetwork` (switch) — and
every one returns a :class:`Schedule`, so
:meth:`~repro.engine.driver.BspEngine.collective_phase` prices any
topology, and a new topology needs a builder but no engine change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..engine.aggregation import TreeAggregateModel

if TYPE_CHECKING:
    from ..cluster import ClusterSpec, NetworkModel, NodeSpec

__all__ = ["Segment", "Schedule", "Topology", "TIERS", "PHASES",
           "switch_rounds", "switch_stream_seconds"]

TIERS = ("cross", "intra", "switch", "compute")
PHASES = ("tree_aggregate", "reduce_scatter", "all_gather")

#: ``(values, count)``: ``count`` messages (or combines) of ``values``.
Run = tuple[float, int]


def switch_rounds(values: float, chunk_values: int, pool_slots: int) -> int:
    """Slot rounds needed to stream ``values`` through the switch pool.

    ``ceil(ceil(values / chunk) / slots)``: the vector is cut into
    chunks, and at most ``pool_slots`` chunks are in flight per round.
    Zero values need zero rounds.
    """
    if chunk_values < 1:
        raise ValueError("chunk_values must be at least 1")
    if pool_slots < 1:
        raise ValueError("pool_slots must be at least 1")
    if values < 0:
        raise ValueError("cannot stream a negative number of values")
    if values == 0:
        return 0
    chunks = -(-int(values) // chunk_values)
    return -(-chunks // pool_slots)


def switch_stream_seconds(net: "NetworkModel", values: float,
                          chunk_values: int, pool_slots: int) -> float:
    """Cost of one endpoint streaming ``values`` through the switch.

    Line-rate bandwidth plus one latency per slot round: the first alpha
    covers the stream setup, and every pool drain beyond it stalls the
    stream for one more alpha.  With a pool large enough for the whole
    vector this is exactly ``transfer_seconds(values)``.
    """
    rounds = switch_rounds(values, chunk_values, pool_slots)
    if rounds == 0:
        return 0.0
    return (rounds * net.alpha
            + values * net.bytes_per_value / net.bandwidth)


def _check_groups(groups: tuple[tuple[int, ...], ...], k: int) -> None:
    """Groups must partition ``range(k)`` with ascending members."""
    if not groups:
        raise ValueError("need at least one executor group")
    seen = [False] * k
    for group in groups:
        if not group:
            raise ValueError("executor groups must be non-empty")
        if list(group) != sorted(group):
            raise ValueError("group members must be in ascending order")
        for e in group:
            if not 0 <= e < k:
                raise ValueError(
                    f"group member {e} is not an executor index in "
                    f"[0, {k})")
            if seen[e]:
                raise ValueError(f"executor {e} appears in two groups")
            seen[e] = True
    if not all(seen):
        raise ValueError("groups must cover every executor exactly once")


@dataclass(frozen=True)
class Topology:
    """Where a collective runs: what every builder needs besides data.

    ``groups`` partitions the executors by machine (the hierarchical
    scheme's groups, led by their first member; singletons on a flat
    cluster); ``tree_groups`` are MLlib's treeAggregate level-1 groups,
    each led by its aggregator (none for a depth-1 fan-in straight to
    the driver); ``pool_slots``/``chunk_values`` size the switch's
    register pool.
    """

    groups: tuple[tuple[int, ...], ...]
    tree_groups: tuple[tuple[int, ...], ...] = ()
    pool_slots: int = 512
    chunk_values: int = 256

    def __post_init__(self) -> None:
        _check_groups(self.groups, self.num_executors)
        if self.tree_groups:
            _check_groups(self.tree_groups, self.num_executors)
        switch_rounds(0.0, self.chunk_values, self.pool_slots)  # pool size

    @classmethod
    def of(cls, cluster: "ClusterSpec",
           tree: TreeAggregateModel | None = None, pool_slots: int = 512,
           chunk_values: int = 256) -> "Topology":
        """The topology of ``cluster`` (MLlib's depth-2 tree by default)."""
        tree = tree if tree is not None else TreeAggregateModel()
        return cls(cluster.executor_groups(),
                   tree.groups(cluster.num_executors), pool_slots,
                   chunk_values)

    @property
    def num_executors(self) -> int:
        return sum(len(group) for group in self.groups)


@dataclass(frozen=True)
class Segment:
    """One priced piece of a node's collective work.

    ``counted`` is False on the receive side of messages whose sender's
    span already records them, so every transfer's values land on
    exactly one span.
    """

    tier: str
    kind: str
    runs: tuple[Run, ...] = ()
    counted: bool = True

    @property
    def values(self) -> float:
        """Wire values this segment's span records."""
        if self.tier == "compute" or not self.counted:
            return 0.0
        total = 0.0
        for values, count in self.runs:
            total += count * values
        return total


def runs(values: list[float] | tuple[float, ...]) -> tuple[Run, ...]:
    """One single-message run per entry (sparse wires price each)."""
    return tuple((v, 1) for v in values)


#: Per-executor segment lists.
Plan = tuple[tuple[Segment, ...], ...]


@dataclass(frozen=True)
class Schedule:
    """Every transfer and combine of one collective phase.

    ``segments[i]`` is executor ``i``'s first attempt; ``retry[i]`` what
    it re-runs after a crash (``None``: the first attempt again).  Tree
    schedules set ``tail`` (the driver's work after the level-1 barrier)
    and ``level1``.  ``dense`` is the flat dense schedule of the same
    phase, which prices :attr:`CommRecord.dense_seconds`; ``None`` when
    this schedule is that one.
    """

    phase: str
    segments: Plan
    dense_values: float
    wire_values: float
    retry: Plan | None = None
    level1: tuple[int, ...] = ()
    tail: tuple[Segment, ...] | None = None
    dense: "Schedule | None" = None
    pool_slots: int = 512
    chunk_values: int = 256

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"unknown collective phase {self.phase!r}")
        if self.retry is not None and len(self.retry) != len(self.segments):
            raise ValueError("retry must cover every executor")

    @property
    def num_executors(self) -> int:
        return len(self.segments)

    # ------------------------------------------------------------------
    # pricing
    # ------------------------------------------------------------------
    def segment_seconds(self, segment: Segment, cluster: "ClusterSpec",
                        node: "NodeSpec") -> float:
        """Unslowed seconds of one segment run on ``node``."""
        net = cluster.network
        tier = segment.tier
        total = 0.0
        for values, count in segment.runs:
            if tier == "cross":
                one = net.transfer_seconds(values)
            elif tier == "intra":
                one = net.intra_transfer_seconds(values)
            elif tier == "switch":
                one = switch_stream_seconds(net, values, self.chunk_values,
                                            self.pool_slots)
            elif tier == "compute":
                one = cluster.compute.dense_op_seconds(values, node)
            else:
                raise ValueError(f"unknown tier {tier!r}; expected one of "
                                 f"{TIERS}")
            total += count * one
        return total

    def seconds(self, segments: tuple[Segment, ...], cluster: "ClusterSpec",
                node: "NodeSpec") -> float:
        """Unslowed seconds of a segment list run back to back."""
        total = 0.0
        for seg in segments:
            total += self.segment_seconds(seg, cluster, node)
        return total

    def level1_seconds(self, cluster: "ClusterSpec") -> float:
        """The busiest level-1 executor's unslowed work (0 without one)."""
        work = 0.0
        for i in self.level1:
            work = max(work, self.seconds(self.segments[i], cluster,
                                          cluster.executors[i]))
        return work

    def tail_seconds(self, cluster: "ClusterSpec") -> float:
        """The driver tail's unslowed work (0 without one)."""
        if self.tail is None:
            return 0.0
        return self.seconds(self.tail, cluster, cluster.driver)

    def comm_seconds(self, cluster: "ClusterSpec",
                     slowdown: float = 1.0) -> float:
        """Communication on the critical path (combine compute excluded).

        A tree pays the busiest level-1 executor's network time plus the
        driver's ingress, slowed as a whole; an exchange pays its
        busiest sender's network time, each segment slowed on its own.
        """
        def network(segments: tuple[Segment, ...], scale: float) -> float:
            total = 0.0
            for seg in segments:
                if seg.tier != "compute":  # no node: transfers only
                    total += (self.segment_seconds(seg, cluster,
                                                   cluster.driver) * scale)
            return total

        if self.tail is not None:
            level1 = 0.0
            for i in self.level1:
                level1 = max(level1, network(self.segments[i], 1.0))
            return (level1 + network(self.tail, 1.0)) * slowdown
        return max((network(segs, slowdown) for segs in self.segments),
                   default=0.0)
