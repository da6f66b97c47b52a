"""Sparse-aware wire formats for the collectives (SparCML-style).

The paper's ``2 k m`` AllReduce traffic invariant (Section IV-B2) prices a
*dense* model exchange, but every target dataset (avazu, url, kddb, kdd12)
is extremely sparse: a worker's local model is supported on its partition's
column support, and a mini-batch gradient on the batch's column support —
both typically a small fraction of ``m``.  SparCML (Renggli et al.) shows
that switching to an index/value wire format in exactly this regime cuts
communication volume by orders of magnitude.

This module adds that layer:

* :class:`SparsePayload` — the index/value wire format.  One sparse
  coordinate costs **two** wire values (its index and its value), which
  gives the SparCML break-even point: sparse is cheaper iff
  ``2 * nnz < m``, i.e. ``nnz < m / 2``.
* :func:`encode` / :func:`materialize` — the deterministic dense<->sparse
  switch.  ``mode='auto'`` picks the cheaper representation per message;
  ``'on'`` forces sparse (useful to demonstrate the crossover); ``'off'``
  passes the dense array through untouched.
* :func:`sparse_reduce_scatter` / :func:`sparse_all_gather` — sparse
  variants of the shuffle collectives.  Payloads are materialized before
  combining, so the arithmetic (and therefore every iterate) is
  **bit-identical** to the dense path; only the priced wire volume
  changes.  Each also returns the round's flat :class:`Schedule`.
* The flat topology's schedule builders: :func:`flat_exchange` for a
  Reduce-Scatter/AllGather round and :func:`tree_fan_in_wire` for the
  SendGradient paradigm's treeAggregate fan-in (leaf messages carry
  batch-support gradients; aggregator partials carry the union support
  of their group).  Under ``mode='off'`` (or without arrays to size)
  both build the dense schedule, whose equal messages are priced as
  runs.

Determinism note: coordinate supports are computed with
``np.flatnonzero`` (ascending index order) and groups are iterated in
sorted order — never via set iteration (rule DET002 applies to this
module).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.sanitizer import check_replicas as _check_replicas
from ..engine.shuffle import exchange
from .allreduce import combine_weight_scale, partition_slices
from .schedule import Run, Schedule, Segment, Topology, runs

__all__ = ["SPARSE_COMM_MODES", "SparsePayload", "encode", "materialize",
           "payload_wire_values", "wire_values", "sparse_reduce_scatter",
           "sparse_all_gather", "flat_exchange", "tree_fan_in_wire"]

#: Valid values of ``TrainerConfig.sparse_comm`` / ``--sparse-comm``.
SPARSE_COMM_MODES = ("auto", "on", "off")


def _check_mode(mode: str) -> None:
    if mode not in SPARSE_COMM_MODES:
        raise ValueError(
            f"sparse-comm mode must be one of {SPARSE_COMM_MODES}, "
            f"got {mode!r}")


@dataclass(frozen=True)
class SparsePayload:
    """A vector in index/value wire format.

    ``indices`` must be strictly increasing — the support order is part of
    the wire format, so reassembly is deterministic regardless of how the
    payload was produced (rule DET002: no hash-order anywhere).
    """

    indices: np.ndarray
    values: np.ndarray
    length: int

    def __post_init__(self) -> None:
        if self.indices.ndim != 1 or self.values.ndim != 1:
            raise ValueError("indices and values must be 1-D")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have the same length")
        if self.length < 0:
            raise ValueError("dense length must be non-negative")
        if self.indices.size:
            if int(self.indices[0]) < 0 or int(self.indices[-1]) >= self.length:
                raise ValueError("indices must lie in [0, length)")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be strictly increasing")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def wire_values(self) -> float:
        """Values moved on the wire: one index + one value per coordinate."""
        return 2.0 * self.nnz

    def to_dense(self) -> np.ndarray:
        """Materialize the dense vector (exact: scatter into zeros)."""
        out = np.zeros(self.length)
        out[self.indices] = self.values
        return out

    @classmethod
    def from_dense(cls, vec: np.ndarray) -> "SparsePayload":
        """Encode a dense vector (support in ascending index order)."""
        idx = np.flatnonzero(vec)
        return cls(indices=idx, values=vec[idx], length=int(vec.shape[0]))


def wire_values(nnz: int, dense_size: int, mode: str) -> float:
    """Wire volume (in values) of one message under ``mode``.

    ``auto`` applies the SparCML break-even rule: index/value pairs iff
    ``nnz < dense_size / 2``, dense otherwise.
    """
    _check_mode(mode)
    if nnz < 0 or dense_size < 0:
        raise ValueError("nnz and dense_size must be non-negative")
    if mode == "off":
        return float(dense_size)
    if mode == "on":
        return 2.0 * nnz
    return 2.0 * nnz if 2 * nnz < dense_size else float(dense_size)


def encode(vec: np.ndarray, mode: str) -> "SparsePayload | np.ndarray":
    """Deterministic dense<->sparse switch for one message.

    Returns the original array under ``'off'`` (the dense path must stay
    bit-for-bit untouched), a :class:`SparsePayload` under ``'on'``, and
    whichever is cheaper on the wire under ``'auto'``.
    """
    _check_mode(mode)
    if mode == "off":
        return vec
    nnz = int(np.count_nonzero(vec))
    if mode == "auto" and 2 * nnz >= vec.shape[0]:
        return vec
    return SparsePayload.from_dense(vec)


def materialize(payload: "SparsePayload | np.ndarray") -> np.ndarray:
    """The dense vector a payload represents (identity for dense arrays)."""
    if isinstance(payload, SparsePayload):
        return payload.to_dense()
    return payload


def payload_wire_values(payload: "SparsePayload | np.ndarray") -> float:
    """Wire volume (in values) of one encoded message."""
    if isinstance(payload, SparsePayload):
        return payload.wire_values
    return float(payload.shape[0])


# ----------------------------------------------------------------------
# sparse shuffle collectives
# ----------------------------------------------------------------------
def sparse_reduce_scatter(models: list[np.ndarray], topology: Topology,
                          combine: str = "average",
                          weights: list[float] | None = None,
                          mode: str = "auto",
                          ) -> tuple[list[np.ndarray], Schedule]:
    """Reduce-Scatter with per-message sparse encoding.

    Identical semantics to :func:`repro.collectives.reduce_scatter` —
    every payload is materialized before the combine, so owner partitions
    are bit-identical to the dense path under every ``mode``.  The second
    return value is the round's flat schedule.
    """
    _check_mode(mode)
    if combine not in ("average", "sum", "weighted"):
        raise ValueError("combine must be 'average', 'sum' or 'weighted'")
    k = len(models)
    if k == 0:
        raise ValueError("need at least one model")
    m = models[0].shape[0]
    if any(w.shape != (m,) for w in models):
        raise ValueError("all local models must have the same shape")
    scale = combine_weight_scale(combine, weights, k)
    slices = partition_slices(m, k)

    # Worker r encodes slice i of its local model for owner i; the slice
    # it owns travels locally and pays no wire cost.
    outboxes = [{owner: encode(model[slices[owner]], mode)
                 for owner in range(k)}
                for model in models]
    inboxes = exchange(outboxes, k)
    partitions: list[np.ndarray] = []
    for owner, pieces in enumerate(inboxes):
        stacked = np.vstack([materialize(p) for p in pieces])
        if scale is not None:
            combined = scale @ stacked
        else:
            combined = stacked.sum(axis=0)
            if combine == "average":
                combined = combined / k
        partitions.append(combined)
    return partitions, flat_exchange("reduce_scatter", topology, m, mode,
                                     models)


def sparse_all_gather(partitions: list[np.ndarray], topology: Topology,
                      model_size: int, mode: str = "auto",
                      check_replicas: bool = False,
                      ) -> tuple[np.ndarray, Schedule]:
    """AllGather with per-message sparse encoding.

    The reassembled model is bit-identical to
    :func:`repro.collectives.all_gather`; the second return value is the
    round's flat schedule (each owner ships its encoded partition to
    ``k - 1`` peers).
    """
    _check_mode(mode)
    k = len(partitions)
    if k == 0:
        raise ValueError("need at least one partition")
    slices = partition_slices(model_size, k)
    expected = [s.stop - s.start for s in slices]
    actual = [p.shape[0] for p in partitions]
    if expected != actual:
        raise ValueError(
            f"partition sizes {actual} do not match owner slices {expected}")

    encoded = [encode(p, mode) for p in partitions]
    outboxes = [{dst: encoded[owner] for dst in range(k)}
                for owner in range(k)]
    inboxes = exchange(outboxes, k)
    if check_replicas:
        replicas = [np.concatenate([materialize(p) for p in inbox])
                    for inbox in inboxes]
        _check_replicas(replicas, context="all_gather")
        full = replicas[0]
    else:
        full = np.concatenate([materialize(p) for p in inboxes[0]])
    return full, flat_exchange("all_gather", topology, model_size, mode,
                               full)


# ----------------------------------------------------------------------
# flat schedule builders
# ----------------------------------------------------------------------
def flat_exchange(phase: str, topology: Topology, model_size: int,
                  mode: str = "off", arrays=None) -> Schedule:
    """One flat shuffle round: every executor sends ``k - 1`` pieces.

    Executor ``r`` ships its non-owned slices (Reduce-Scatter, sized
    from the local models in ``arrays``) or its owned slice to every
    peer (AllGather, sized from the reassembled model ``arrays``), then
    a Reduce-Scatter owner combines the ``k`` copies of its partition.

    A crash here is the costly AllReduce failure mode: the owner's
    received pieces die with it, so its retry is a dense ``k - 1``
    refill fan-in from every peer before the combine is redone.
    """
    _check_mode(mode)
    k = topology.num_executors
    m = model_size
    if m < k:
        raise ValueError(
            f"cannot run {phase} with a model of size {m} across {k} "
            "executors: each owner needs at least one coordinate "
            "(num_executors > model_size)")
    piece = m / k
    combine: tuple[Segment, ...] = ()
    if phase == "reduce_scatter":
        combine = (Segment("compute", "aggregate", ((m / k * k, 1),)),)
    refill = (Segment("cross", "recv", ((piece, k - 1),), counted=False),
              *combine)
    dense = float((k - 1) * m)
    retry = (refill,) * k
    if mode == "off" or arrays is None:
        send = (Segment("cross", "send", ((piece, k - 1),)), *combine)
        return Schedule(phase, (send,) * k, dense, dense, retry=retry)
    slices = partition_slices(m, k)
    if phase == "reduce_scatter":
        rows = [[wire_values(int(np.count_nonzero(model[slices[owner]])),
                             slices[owner].stop - slices[owner].start, mode)
                 for owner in range(k) if owner != src]
                for src, model in enumerate(arrays)]
    else:
        own = [wire_values(int(np.count_nonzero(arrays[s])),
                           s.stop - s.start, mode) for s in slices]
        rows = [[own[src]] * (k - 1) for src in range(k)]
    segments = tuple((Segment("cross", "send", runs(row)), *combine)
                     for row in rows)
    return Schedule(phase, segments, dense,
                    float(sum(v for row in rows for v in row)), retry=retry,
                    dense=flat_exchange(phase, topology, m))


def tree_fan_in_wire(topology: Topology, model_size: int, mode: str = "off",
                     vectors=None, messages_per_executor: int = 1,
                     ) -> Schedule:
    """MLlib's treeAggregate of every executor's task vectors.

    Every member of a level-1 group (``topology.tree_groups``) ships its
    vectors to the group's aggregator, which drains them serially and
    adds its group up; the driver then drains one partial per
    aggregator.  Without groups (depth 1) every vector crosses straight
    to the driver.  ``vectors[i]`` holds executor ``i``'s task
    vectors; when sized (``mode`` not ``'off'``) a leaf message carries
    its vector's support and a partial its group's union support.

    Dense schedules keep MLlib's pricing: a member's send span is one
    message however many task waves it ships, while the aggregator's
    and the driver's fan-ins count every message.
    """
    _check_mode(mode)
    k = topology.num_executors
    groups = topology.tree_groups
    a = len(groups)
    m = model_size
    mpe = messages_per_executor if vectors is None else len(vectors[0])
    if mpe < 1:
        raise ValueError("messages_per_executor must be at least 1")
    sized = vectors is not None and mode != "off"
    if vectors is not None and (len(vectors) != k
                                or any(len(row) != mpe for row in vectors)):
        raise ValueError("need the same number of task vectors from "
                         "every executor")
    leaves = ([e for group in groups for e in group[1:]] if groups
              else list(range(k)))
    dense = float(m) * (len(leaves) * mpe + a)
    sends: list[tuple[Run, ...]]
    ingress: list[tuple[Run, ...]]
    up: tuple[Run, ...]
    if sized:
        supports = [[np.flatnonzero(v) for v in row] for row in vectors]
        leaf = [[wire_values(int(idx.size), m, mode) for idx in row]
                for row in supports]
        partials = [wire_values(int(np.unique(np.concatenate(
            [idx for e in group for idx in supports[e]])).size), m, mode)
            for group in groups]
        sends = [runs(row) for row in leaf]
        ingress = [runs([v for e in group[1:] for v in leaf[e]])
                   for group in groups]
        up = runs(partials) if a else runs([v for row in leaf for v in row])
        wire = (float(sum(v for e in leaves for v in leaf[e]))
                + float(sum(partials)))
    else:
        sends = [((m, 1),)] * k
        ingress = [((m, (len(group) - 1) * mpe),) for group in groups]
        up = ((m, a),) if a else ((m, k * mpe),)
        wire = dense
    segments: list[tuple[Segment, ...]] = [
        (Segment("cross", "send", sends[e]),) for e in range(k)]
    for j, group in enumerate(groups):
        segments[group[0]] = (
            Segment("cross", "aggregate", ingress[j], counted=False),
            Segment("compute", "aggregate", ((len(group) * mpe * m, 1),)))
    # Partials are recorded on the driver's span; depth-1 leaves already
    # were, on their senders'.
    tail = (Segment("cross", "aggregate", up, counted=a > 0),
            Segment("compute", "aggregate", (((a or k * mpe) * m, 1),)))
    return Schedule("tree_aggregate", tuple(segments), dense, wire,
                    level1=tuple(group[0] for group in groups), tail=tail,
                    dense=(tree_fan_in_wire(topology, m,
                                            messages_per_executor=mpe)
                           if sized else None))
