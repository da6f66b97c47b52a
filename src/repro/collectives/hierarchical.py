"""Hierarchical (two-tier) AllReduce: intra-node combine, cross-node RS/AG.

The third rung of the aggregation ladder (after the driver fan-in and the
flat shuffle AllReduce): Snap ML-style placement-aware aggregation.  With
``k`` executors packed onto ``n`` machines (``ClusterSpec.placement`` /
:meth:`~repro.cluster.ClusterSpec.executor_groups`):

1. **Intra tier** — on every machine, the group members ship their local
   models to the group *leader* (the lowest-indexed member) over the
   shared-memory tier; the leader combines them into one per-machine
   partial.
2. **Cross tier** — the ``n`` leaders run the flat Reduce-Scatter /
   AllGather among themselves over ``n`` node-level partitions, putting
   only one message stream per machine on the slow fabric.
3. **Intra tier again** — each leader fans the reassembled model out to
   its members.

Cross-tier traffic shrinks from ``2 (k-1) m`` to ``2 (n-1) m``; the
displaced ``2 (k-n) m`` values ride the fast intra tier instead.

**Bit-identity by construction.**  This module prices that schedule but
does *not* re-implement its arithmetic: the data plane below calls the
existing flat combine kernels (:func:`repro.collectives.reduce_scatter` /
:func:`all_gather`) verbatim, so iterates under ``--collective hier`` are
bit-identical to ``--collective flat`` for every combine scheme, density
and node shape — the property ``tests/test_topology_collectives.py``
hammers and the topology bench asserts before reporting any speedup.

With singleton groups (no placement map) the priced schedule degenerates
to the flat collective: no intra messages, and the cross tier *is* the
flat exchange — message-for-message, so the priced seconds match the flat
sparse pricing exactly.  Every message is its own run (never a dense
run), dense or not.

Determinism: groups arrive as ordered tuples from ``executor_groups()``;
supports come from ``np.flatnonzero`` (ascending); nothing here iterates
a set (rule DET002 applies to this module).
"""

from __future__ import annotations

import numpy as np

from .allreduce import all_gather, partition_slices, reduce_scatter
from .schedule import Schedule, Segment, Topology, runs
from .sparse import flat_exchange, tree_fan_in_wire, wire_values

__all__ = ["hier_reduce_scatter", "hier_all_gather", "hier_exchange",
           "hier_tree_fan_in"]


def _slice_counts(indices: np.ndarray, slices: list[slice]) -> list[int]:
    """How many (sorted) support indices fall in each owner slice."""
    bounds = [s.start for s in slices] + [slices[-1].stop]
    positions = np.searchsorted(indices, bounds)
    return [int(positions[i + 1] - positions[i])
            for i in range(len(slices))]


def _union(supports: list[np.ndarray]) -> np.ndarray:
    return (np.unique(np.concatenate(supports)) if len(supports) > 1
            else supports[0])


# ----------------------------------------------------------------------
# schedule builders (sizing only — the data plane is the flat kernel)
# ----------------------------------------------------------------------
def hier_exchange(phase: str, topology: Topology, model_size: int,
                  mode: str = "off", arrays=None) -> Schedule:
    """One two-tier collective round (Reduce-Scatter or AllGather).

    Reduce-Scatter: members upload their model to the machine leader
    over the intra tier; the leader folds the group and runs the flat
    exchange among the ``n`` leaders over node-level partitions.
    AllGather: leaders exchange their node-slices, then fan the
    reassembled model out to their members.  ``arrays`` (the local
    models / the reassembled model) size the messages unless ``mode``
    is ``'off'``.  A crashed executor recovers by the flat convention
    (dense refill from every peer, combine redone).
    """
    groups = topology.groups
    k = topology.num_executors
    n = len(groups)
    m = model_size
    dense = flat_exchange(phase, topology, m)
    slices = partition_slices(m, n)
    slice_sizes = [s.stop - s.start for s in slices]
    sized = arrays is not None and mode != "off"
    if sized and phase == "all_gather":
        whole = wire_values(int(np.count_nonzero(arrays)), m, mode)
    segments: list[tuple[Segment, ...]] = [()] * k
    intra_dense = cross_dense = 0.0
    wire = 0.0
    for j, group in enumerate(groups):
        leader, members = group[0], group[1:]
        if phase == "reduce_scatter":
            # Members ship their full local model to the leader (one
            # message each, sized by the model's support); the leader's
            # per-machine partial is supported on the *union* of member
            # supports — computed from the inputs, never from the
            # combined float values, so sizing is immune to cancellation.
            if sized:
                supports = [np.flatnonzero(arrays[e]) for e in group]
                ups = [wire_values(int(idx.size), m, mode)
                       for idx in supports[1:]]
                counts = _slice_counts(_union(supports), slices)
                row = [wire_values(counts[i], slice_sizes[i], mode)
                       for i in range(n) if i != j]
            else:
                ups = [float(m)] * len(members)
                row = [float(slice_sizes[i]) for i in range(n) if i != j]
            for e, up in zip(members, ups):
                segments[e] = (Segment("intra", "send", ((up, 1),)),)
            lead = [Segment("intra", "recv", runs(ups), counted=False)]
            if members:
                lead.append(Segment("compute", "aggregate",
                                    ((len(members) * m, 1),)))
            lead += [Segment("cross", "send", runs(row)),
                     Segment("compute", "aggregate", ((m / n * n, 1),))]
            segments[leader] = tuple(lead)
            cross_dense += float(m - slice_sizes[j])
        else:
            if sized:
                nnz = int(np.count_nonzero(arrays[slices[j]]))
                piece = wire_values(nnz, slice_sizes[j], mode)
            else:
                piece, whole = float(slice_sizes[j]), float(m)
            ups = [whole] * len(members)
            row = [piece] * (n - 1)
            # The leader fans the reassembled model out to its members
            # over the intra tier (one full-model message per member).
            segments[leader] = (Segment("cross", "send", runs(row)),
                                Segment("intra", "send", runs(ups)))
            cross_dense += float(slice_sizes[j]) * (n - 1)
        intra_dense += float(m) * len(members)
        wire += float(sum(ups)) + float(sum(row))
    return Schedule(phase, tuple(segments), intra_dense + cross_dense, wire,
                    retry=dense.retry, dense=dense)


def hier_tree_fan_in(topology: Topology, model_size: int, mode: str = "off",
                     vectors=None, messages_per_executor: int = 1,
                     ) -> Schedule:
    """Two-tier treeAggregate for the SendGradient/SendModel path.

    Machine leaders replace MLlib's ``sqrt(k)`` round-robin aggregators:
    members ship their task vectors to their machine's leader over the
    intra tier; each leader ships one partial (union support of its
    group's vectors) to the driver over the fabric.  Arithmetic is
    untouched — the trainer still combines the same vectors the same way.
    """
    groups = topology.groups
    k = topology.num_executors
    m = model_size
    mpe = messages_per_executor if vectors is None else len(vectors[0])
    if mpe < 1 or (vectors is not None
                   and any(len(row) != mpe for row in vectors)):
        raise ValueError("every executor must ship the same number of "
                         "task vectors")
    sized = vectors is not None and mode != "off"
    segments: list[tuple[Segment, ...]] = [()] * k
    partials: list[float] = []
    wire = 0.0
    for group in groups:
        leader = group[0]
        if sized:
            supports = [np.flatnonzero(v) for e in group for v in vectors[e]]
            leaf = [wire_values(int(idx.size), m, mode)
                    for idx in supports[mpe:]]
            partials.append(wire_values(int(_union(supports).size), m,
                                        mode))
        else:
            leaf = [float(m)] * (mpe * (len(group) - 1))
            partials.append(float(m))
        for pos, e in enumerate(group[1:]):
            segments[e] = (Segment("intra", "send",
                                   runs(leaf[pos * mpe:(pos + 1) * mpe])),)
        segments[leader] = (
            Segment("intra", "aggregate", runs(leaf), counted=False),
            Segment("compute", "aggregate", ((len(group) * mpe * m, 1),)))
        wire += float(sum(leaf))
    # Level 2: the driver receives one partial per machine.
    tail = (Segment("cross", "aggregate", runs(partials)),
            Segment("compute", "aggregate", ((len(groups) * m, 1),)))
    return Schedule("tree_aggregate", tuple(segments),
                    float(m) * (mpe * (k - len(groups)) + len(groups)),
                    wire + float(sum(partials)),
                    level1=tuple(group[0] for group in groups), tail=tail,
                    dense=tree_fan_in_wire(topology, m,
                                           messages_per_executor=mpe))


# ----------------------------------------------------------------------
# data plane + schedule, in one call (what the trainers use)
# ----------------------------------------------------------------------
def hier_reduce_scatter(models: list[np.ndarray], topology: Topology,
                        combine: str = "average",
                        weights: list[float] | None = None,
                        mode: str = "off",
                        ) -> tuple[list[np.ndarray], Schedule]:
    """Two-tier Reduce-Scatter: flat arithmetic, hierarchical pricing.

    The returned partitions come from the *flat*
    :func:`~repro.collectives.reduce_scatter` kernel — bit-identical to
    every other collective mode by construction.  The second return value
    prices the two-tier schedule (``mode`` applies the SparCML break-even
    per message on both tiers).
    """
    partitions = reduce_scatter(models, combine=combine, weights=weights)
    return partitions, hier_exchange("reduce_scatter", topology,
                                     int(models[0].shape[0]), mode, models)


def hier_all_gather(partitions: list[np.ndarray], topology: Topology,
                    model_size: int, mode: str = "off",
                    check_replicas: bool = False,
                    ) -> tuple[np.ndarray, Schedule]:
    """Two-tier AllGather: flat arithmetic, hierarchical pricing."""
    full = all_gather(partitions, model_size,
                      check_replicas=check_replicas)
    return full, hier_exchange("all_gather", topology, model_size, mode,
                               full)
